"""Deterministic generators and the dataset summary."""

import hashlib
import math

import numpy as np
import pytest

from tgcsa.baseline import EdgeLogIndex
from tgcsa.corpus import ContactSet
from tgcsa.synth import (GenSpec, XorShift64Star, _apply, _distinct_pairs, _jump, _Stream,
                         dataset_stats, generate, preset_icomm, preset_powerlaw)
from conftest import G5_CONTACTS


def test_prng_is_reproducible():
    a = XorShift64Star(7)
    b = XorShift64Star(7)
    seq = [a.next_u64() for _ in range(200)]
    assert seq == [b.next_u64() for _ in range(200)]
    assert all(0 < x < 2**64 for x in seq)
    assert len(set(seq)) == 200


def test_consecutive_seeds_give_unrelated_streams():
    flat = []
    for s in range(10):
        r = XorShift64Star(s)
        flat += [r.next_u64() for _ in range(4)]
    assert len(set(flat)) == len(flat)


def test_seed_zero_is_usable():
    r = XorShift64Star(0)
    assert r.next_u64() != 0
    assert r.next_u64() != r.next_u64()


# around a chunk boundary: 63 draws end in a partial chunk of 8, 64 fill
# eight chunks of 8, and 65 open a fifth chunk of 16 with one draw
@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
def test_bulk_draws_match_scalar_draws(seed):
    for count in (0, 1, 2, 63, 64, 65, 100_000):
        bulk, scalar = XorShift64Star(seed), XorShift64Star(seed)
        bulk.next_u64()
        scalar.next_u64()
        out = bulk.draws(count)
        assert out.dtype == np.uint64 and out.shape == (count,)
        assert out.tolist() == [scalar.next_u64() for _ in range(count)]
        assert bulk.state == scalar.state
        assert bulk.next_u64() == scalar.next_u64()


def bit_loop(cols, x):
    """The GF(2) matrix cols (entry i the image of bit i) applied to x."""
    r, i = 0, 0
    while x:
        if x & 1:
            r ^= cols[i]
        x >>= 1
        i += 1
    return r


def test_jump_tables_match_the_bit_loop():
    # the state step's columns, squared j times with the bit loop
    rng = XorShift64Star(0)
    cols = []
    for i in range(64):
        rng.state = 1 << i
        rng.next_u64()
        cols.append(rng.state)
    states = [XorShift64Star(s).state for s in range(20)] + [1, 2**63, 2**64 - 1]
    for j in range(11):
        if j:
            cols = [bit_loop(cols, c) for c in cols]
        for x in states:
            assert _apply(_jump(j), x) == bit_loop(cols, x)
        # and both are the step taken 2**j times
        rng.state = states[j]
        for _ in range(2 ** j):
            rng.next_u64()
        assert rng.state == bit_loop(cols, states[j])


def test_buffered_stream_hands_out_draws_in_order():
    scalar = XorShift64Star(11)
    stream = _Stream(11)
    got = []
    for k in (0, 1, 5, 60, 3, 200, 0, 1000, 7, 70_000, 2):
        got += [stream.next_u64() for _ in range(k)]
        got += stream.draws(k).tolist()
    assert got == [scalar.next_u64() for _ in range(len(got))]


def test_randint_is_inclusive_and_bounded():
    r = XorShift64Star(3)
    seen = set()
    for _ in range(2000):
        x = r.randint(2, 5)
        assert 2 <= x <= 5
        seen.add(x)
    assert seen == {2, 3, 4, 5}
    assert XorShift64Star(1).randint(7, 7) == 7


def test_random_unit_interval():
    r = XorShift64Star(9)
    xs = [r.random() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_genspec_validation():
    ok = dict(nu=20, m=2, lifetime=10, dist="uniform", dist_param=1,
              overlap="allow", seed=0)
    GenSpec(**ok)
    for field, bad in (("nu", 2), ("m", 0), ("lifetime", 1),
                       ("dist", "zipf"), ("overlap", "maybe")):
        with pytest.raises(ValueError):
            GenSpec(**{**ok, field: bad})
    with pytest.raises(ValueError):
        GenSpec(**{**ok, "m": 25})          # m must stay below nu
    with pytest.raises(ValueError):
        GenSpec(**{**ok, "dist": "pareto", "dist_param": 1.0})


def test_attachment_edge_count_is_exact():
    edges = {}
    for nu, m in ((100, 10), (50, 3), (20, 1)):
        cs = generate(GenSpec(nu=nu, m=m, lifetime=12, dist="uniform",
                              dist_param=1, overlap="allow", seed=4))
        edges[nu, m] = dataset_stats(cs)["edges"]
        assert edges[nu, m] == m * (nu - m)
    # the desk-scale profile lands near the reference count of 941
    assert abs(edges[100, 10] - 941) / 941 < 0.10


def test_generation_is_deterministic():
    spec = GenSpec(nu=40, m=4, lifetime=30, dist="pareto", dist_param=1.5,
                   overlap="allow", seed=77)
    assert generate(spec).tuples() == generate(spec).tuples()
    other = GenSpec(nu=40, m=4, lifetime=30, dist="pareto", dist_param=1.5,
                    overlap="allow", seed=78)
    assert generate(other).tuples() != generate(spec).tuples()


def _column_digest(cs):
    h = hashlib.sha256()
    h.update(np.array([len(cs), cs.arity, cs.nu, cs.tau], dtype="<i8").tobytes())
    for col in (cs.u, cs.v, cs.ts, cs.te):
        h.update(np.asarray(col, dtype="<i8").tobytes())
    return h.hexdigest()


def _ba(dist, param, overlap, seed):
    return generate(GenSpec(nu=60, m=3, lifetime=80, dist=dist,
                            dist_param=param, overlap=overlap, seed=seed))


# SHA-256 of the contact columns, as the one-call-per-draw generators
# made them; the bulk draws must give the same graphs
@pytest.mark.parametrize("make, n, digest", [
    (lambda: _ba("uniform", 3, "allow", 11), 513,
     "5c6669ac9e2365cef2001e72a3d9408eb738ded25bfcc0e8a55ecc54048ed49c"),
    (lambda: _ba("uniform", 3, "forbid", 12), 513,
     "9cb6d467fe045c76f3b0d8d1bd977cb004e2dff5517a9475b0575a77d5b03f77"),
    (lambda: _ba("pareto", 1.5, "allow", 13), 523,
     "4715abc5b967520b0edbe05560ce514907dc511940207dbe0d37055707f06cd6"),
    (lambda: _ba("pareto", 1.5, "forbid", 14), 585,
     "2fd86587134ad0a86986ab7e2433073b7cfa35a32fab5f6aecd011776b9d0df0"),
    (lambda: preset_icomm(nu=50, seed=2), 956,
     "bc1ed0db1aebf269e9324eae115963888ce3fcc5e4b6e3ea84e53cd2ec636d34"),
    (lambda: preset_icomm(nu=50, lifetime=300, seed=3), 956,
     "b4025df1f9d977a818f0389b8580aee2bdb2e04ac993d81fbab635e66baf9ca5"),
    (lambda: preset_powerlaw(nu=120, seed=4), 2871,
     "bdd327779beda917b84bc9e84b1d307f98607a862f6de62151adcb6228ac71df"),
], ids=["uniform-allow", "uniform-forbid", "pareto-allow", "pareto-forbid",
        "icomm", "icomm-lifetime", "powerlaw"])
def test_generators_are_pinned(make, n, digest):
    cs = make()
    assert len(cs) == n
    assert _column_digest(cs) == digest


def test_uniform_contact_count_per_edge():
    cs = generate(GenSpec(nu=30, m=2, lifetime=20, dist="uniform",
                          dist_param=5, overlap="allow", seed=1))
    st = dataset_stats(cs)
    assert st["contacts"] == st["edges"] * 5
    assert st["contacts_per_edge"] == 5


def test_pareto_contact_counts_vary_and_respect_cap():
    alpha = 1.5
    cap = math.ceil(10 * alpha / (alpha - 1))
    cs = generate(GenSpec(nu=60, m=3, lifetime=40, dist="pareto",
                          dist_param=alpha, overlap="allow", seed=12))
    per_edge = {}
    for u, v, *_ in cs.tuples():
        per_edge[(u, v)] = per_edge.get((u, v), 0) + 1
    counts = sorted(per_edge.values())
    assert counts[0] >= 1
    assert counts[-1] <= cap
    assert counts[0] != counts[-1]      # a heavy tail, not a constant


def test_forbid_overlap_feeds_the_log_baseline():
    cs = generate(GenSpec(nu=40, m=3, lifetime=50, dist="uniform",
                          dist_param=4, overlap="forbid", seed=6))
    EdgeLogIndex.build(cs)              # raises on any overlap or touch
    # per-edge intervals must be strictly separated
    seen = {}
    for u, v, ts, te in cs.tuples():
        seen.setdefault((u, v), []).append((ts, te))
    for spans in seen.values():
        spans.sort()
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b < c


def test_forbid_overlap_needs_room():
    with pytest.raises(ValueError, match="disjoint intervals"):
        generate(GenSpec(nu=20, m=2, lifetime=5, dist="uniform",
                         dist_param=4, overlap="forbid", seed=2))


# at 17 vertices the preset needs 271 of the 272 possible pairs
@pytest.mark.parametrize("nu, count, seed", [(17, 271, 3), (17, 200, 4), (50, 797, 2),
                                             (300, 4782, 1)])
def test_distinct_pairs_match_a_scalar_rejection_loop(nu, count, seed):
    ref, rng = XorShift64Star(seed), _Stream(seed)
    seen, pairs = set(), []
    while len(pairs) < count:
        u = ref.randint(1, nu)
        v = ref.randint(1, nu)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            pairs.append([u, v])
    got = _distinct_pairs(rng, nu, count)
    assert got.dtype == np.int64 and got.tolist() == pairs
    assert rng.next_u64() == ref.next_u64()


def test_icomm_preset_shape():
    # 17 vertices carry 271 of their 272 possible edges
    for nu in (100, 17):
        cs = preset_icomm(nu=nu, seed=0)
        st = dataset_stats(cs)
        assert st["nu"] == nu
        assert st["tau"] == nu
        assert st["edges"] == round(15.941 * nu)
        assert st["contacts"] == round(1.2 * st["edges"])
        assert 1.15 < st["contacts_per_edge"] < 1.25
        assert all(1 <= te - ts <= 3 for _, _, ts, te in cs.tuples())
        assert preset_icomm(nu=nu, seed=0).tuples() == cs.tuples()


def test_powerlaw_preset_shape():
    cs = preset_powerlaw(nu=200, seed=0)
    st = dataset_stats(cs)
    assert st["edges"] == 33 * (200 - 33)
    assert st["contacts"] == st["edges"]
    assert st["tau"] == 20
    assert all(1 <= ts < te <= 20 for _, _, ts, te in cs.tuples())
    with pytest.raises(ValueError):
        preset_powerlaw(nu=33)


def test_dataset_stats_frozen_for_g5():
    st = dataset_stats(ContactSet(G5_CONTACTS))
    assert st["size_b_bits"] == 60
    assert st["size_u32_bits"] == 640
    assert st["contacts"] == 5
    assert st["edges"] == 5
    assert st["contacts_per_vertex"] == 1.0
    assert st["contacts_per_edge"] == 1.0


def test_dataset_stats_empty():
    st = dataset_stats(ContactSet([], nu=3, tau=4))
    assert st["contacts"] == 0
    assert st["edges"] == 0
    assert st["contacts_per_edge"] == 0.0
