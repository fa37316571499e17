"""Acceptance gate: nine criteria, one pass/fail line each.

Run with -s to see the lines as they complete:

    pytest tests/test_acceptance.py -v -s

Criteria 5 and 6 share one large generated graph; everything else
builds its own fixtures. Each criterion prints its verdict even when
it fails, so a red run still reads as a checklist.
"""

import random
import sys
import time
from contextlib import contextmanager

import pytest

from tgcsa.baseline import EdgeLogIndex, OracleIndex
from tgcsa.corpus import AlphabetMap, ContactSet, build_sid
from tgcsa.indexfile import deserialize_index, load_index, save_index, serialize_index
from tgcsa.query import TimeSemantics
from tgcsa.sacsa import build_index, build_rotation_array, verify_core
from tgcsa.synth import GenSpec, generate
from conftest import (G5_A, G5_CONTACTS, G5_D, G5_PSI,
                      assert_same_answers, random_contactset)

ALL_CODECS = ("plain", "vbyte-rle", "huff-rle-opt")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}", file=sys.stderr)
        raise
    print(f"criterion {number}: PASS - {description}")


def spread_graph(rng, duplicates):
    """A random graph within the acceptance envelope: up to 50 vertices,
    50 time steps and 500 contacts."""
    nu = rng.randint(3, 50)
    tau = rng.randint(4, 50)
    n_edges = rng.randint(1, 110)
    return random_contactset(seed=rng.randrange(10**9), nu=nu, tau=tau,
                             n_edges=n_edges, duplicates=duplicates,
                             overlap=True)


# ---------------------------------------------------------------- 1

def test_criterion_1_fixture_g5():
    with criterion(1, "worked five-contact example reproduced exactly"):
        start = time.perf_counter()
        cs = ContactSet(G5_CONTACTS)
        am = AlphabetMap.build(cs)
        sid = build_sid(cs, am)
        assert am.sigma == 13
        assert build_rotation_array(sid, 4).tolist() == G5_A
        idx = build_index(cs)
        assert [idx.psi.access(i) for i in range(1, 21)] == G5_PSI
        assert "".join(str(idx.D.access(i))
                       for i in range(1, 21)) == G5_D
        assert idx.direct_neighbors(1, TimeSemantics.instant(5)) == [3, 4]
        assert idx.reverse_neighbors(3, TimeSemantics.instant(7)) == [1, 4]
        assert idx.snapshot(TimeSemantics.instant(6)) == [(1, 3), (1, 4), (4, 5)]
        assert idx.activated_edges(5) == [(1, 4), (4, 5)]
        assert idx.deactivated_edges(8) == [(1, 3), (1, 4), (4, 3)]
        assert idx.active_edge(4, 5, TimeSemantics.instant(6)) is True
        assert idx.active_edge(4, 5, TimeSemantics.instant(7)) is False
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- 2

def test_criterion_2_randomized_oracle_equivalence():
    with criterion(2, "200 random graphs match the brute-force oracle"):
        start = time.perf_counter()
        rng = random.Random(220_000)
        edgelog_checked = 0
        for trial in range(200):
            messy = trial < 50          # duplicates and overlaps guaranteed
            cs = spread_graph(rng, duplicates=messy)
            assert len(cs) <= 500
            idx = build_index(cs, codec="vbyte-rle", t_psi=16)
            assert verify_core(idx, cs) == []
            oracle = OracleIndex(cs)
            assert_same_answers(idx, oracle, rng, instants=20, intervals=10)
            if trial % 4 == 0:
                flat = random_contactset(seed=rng.randrange(10**9),
                                         overlap=False)
                el = EdgeLogIndex.build(flat)
                assert_same_answers(el, OracleIndex(flat), rng,
                                    instants=20, intervals=10)
                edgelog_checked += 1
        assert edgelog_checked >= 50
        assert time.perf_counter() - start < 300


# ---------------------------------------------------------------- 3

def test_criterion_3_permutation_invariants():
    with criterion(3, "structural verifier clean on a spread of indexes"):
        rng = random.Random(33)
        cs = ContactSet(G5_CONTACTS)
        for codec in ALL_CODECS:
            assert verify_core(build_index(cs, codec=codec, t_psi=8), cs) == []
        for trial in range(40):
            g = spread_graph(rng, duplicates=trial % 2 == 0)
            idx = build_index(g, codec=ALL_CODECS[trial % len(ALL_CODECS)], t_psi=32)
            assert verify_core(idx, g) == []
        for semantics in ("incremental", "point"):
            rows = [(rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 12))
                    for _ in range(25)]
            g3 = ContactSet(rows, arity=3, tau=12, semantics=semantics)
            assert verify_core(build_index(g3), g3) == []


# ---------------------------------------------------------------- 4

def test_criterion_4_codec_equivalence():
    with criterion(4, "all codecs agree with plain on access and ranges"):
        rng = random.Random(440)
        ranges_done = 0
        for _ in range(50):
            cs = spread_graph(rng, duplicates=rng.random() < 0.5)
            plain = build_index(cs, codec="plain")
            n = 4 * plain.n
            want = [plain.psi.access(i) for i in range(1, n + 1)]
            for codec in ALL_CODECS[1:]:
                for t_psi in (8, 16, 64, 256):
                    enc = build_index(cs, codec=codec, t_psi=t_psi).psi
                    assert [enc.access(i) for i in range(1, n + 1)] == want
                    for _ in range(27):
                        lo = rng.randint(1, n)
                        hi = rng.randint(lo, n)
                        assert enc.range(lo, hi) == want[lo - 1:hi]
                        ranges_done += 1
        assert ranges_done >= 10_000


# ---------------------------------------------------------------- 5 and 6

_BIG = {}


def big_ba_graph():
    """ba1M10u50 scaled to desk size: 1000 vertices, m=10, 50 contacts
    per edge. Built once, shared by the space and speed trends."""
    if not _BIG:
        cs = generate(GenSpec(nu=1000, m=10, lifetime=1000, dist="uniform",
                              dist_param=50, overlap="allow", seed=5))
        _BIG["cs"] = cs
        _BIG["plain"] = build_index(cs, codec="plain")
        _BIG["vbyte"] = build_index(cs, codec="vbyte-rle", t_psi=256)
    return _BIG


def test_criterion_5_space_trend():
    with criterion(5, "sampled byte codec beats plain on the scaled graph"):
        start = time.perf_counter()
        big = big_ba_graph()
        assert len(big["cs"]) == 10 * 990 * 50
        plain_bits = big["plain"].psi.size_bits()
        vbyte_bits = big["vbyte"].psi.size_bits()
        assert vbyte_bits < plain_bits
        assert time.perf_counter() - start < 120


def test_criterion_6_buffered_vs_pointwise():
    with criterion(6, "whole-group decoding at least twice pointwise speed"):
        big = big_ba_graph()
        psi = big["vbyte"].psi
        D = big["vbyte"].D
        groups = []
        bounds = list(D.positions()) + [4 * big["vbyte"].n + 1]
        for l, nxt in zip(bounds, bounds[1:]):
            groups.append((int(l), int(nxt) - 1))
        rng = random.Random(6)
        rng.shuffle(groups)

        entries = 0
        t0 = time.process_time()
        for l, r in groups:
            if entries >= 200_000:
                break
            entries += len(psi.range(l, r))
        buffered = (time.process_time() - t0) / entries

        n = 4 * big["vbyte"].n
        picks = [rng.randint(1, n) for _ in range(20_000)]
        t0 = time.process_time()
        for i in picks:
            psi.access(i)
        pointwise = (time.process_time() - t0) / len(picks)

        assert buffered * 2 < pointwise


# ---------------------------------------------------------------- 7

def degree_probe_graph(extra, seed=7):
    """Fixed background plus `extra` contacts out of vertex 1."""
    rng = random.Random(seed)
    rows = []
    for _ in range(1200):
        u = rng.randint(2, 400)
        v = rng.randint(2, 400)
        ts = rng.randint(1, 63)
        rows.append((u, v, ts, rng.randint(ts + 1, 64)))
    for _ in range(extra):
        v = rng.randint(2, 400)
        ts = rng.randint(1, 63)
        rows.append((1, v, ts, rng.randint(ts + 1, 64)))
    return ContactSet(rows, nu=400, tau=64)


def timed_direct(idx, repeats):
    sems = [TimeSemantics.instant(t) for t in (8, 16, 24, 32, 40, 48, 56)]
    best = None
    for _ in range(5):
        t0 = time.process_time()
        for _ in range(repeats):
            for sem in sems:
                idx.direct_neighbors(1, sem)
        dt = time.process_time() - t0
        best = dt if best is None else min(best, dt)
    return best


def seconds_per_call(fn, floor=0.2, trials=3):
    """Repeat fn until each trial accumulates `floor` seconds of CPU."""
    reps = 1
    while True:
        t0 = time.process_time()
        for _ in range(reps):
            fn()
        dt = time.process_time() - t0
        if dt >= floor:
            break
        reps = max(reps * 2, int(reps * floor * 1.4 / max(dt, 1e-9)))
    best = dt
    for _ in range(trials - 1):
        t0 = time.process_time()
        for _ in range(reps):
            fn()
        best = min(best, time.process_time() - t0)
    return best / reps


def test_criterion_7_query_cost_scaling():
    with criterion(7, "neighbour cost tracks degree, snapshot tracks its window"):
        small = build_index(degree_probe_graph(10), codec="vbyte-rle", t_psi=64)
        big = build_index(degree_probe_graph(80), codec="vbyte-rle", t_psi=64)
        t_small = timed_direct(small, repeats=60)
        t_big = timed_direct(big, repeats=60)
        ratio = t_big / t_small
        assert 4.0 <= ratio <= 16.0, f"direct time ratio {ratio:.2f}"

        # every contact runs to the lifetime so both probe instants see
        # the same per-entry work and only the window width varies
        rng = random.Random(70)
        rows = [(rng.randint(1, 400), rng.randint(1, 400),
                 rng.randint(1, 63), 64) for _ in range(9000)]
        idx = build_index(ContactSet(rows, nu=400, tau=64),
                          codec="vbyte-rle", t_psi=64)

        from tgcsa.query import time_bounds

        def window(t):
            return time_bounds(idx, t)[0] - 2 * idx.n

        t_lo, t_hi = 8, 56
        w_lo, w_hi = window(t_lo), window(t_hi)
        assert w_hi > 3 * w_lo > 0
        per_lo = seconds_per_call(
            lambda: idx.snapshot(TimeSemantics.instant(t_lo))) / w_lo
        per_hi = seconds_per_call(
            lambda: idx.snapshot(TimeSemantics.instant(t_hi))) / w_hi
        slack = per_hi / per_lo
        assert 0.5 <= slack <= 2.0, f"snapshot per-unit drift {slack:.2f}"


# ---------------------------------------------------------------- 8

def test_criterion_8_serialization(tmp_path):
    with criterion(8, "images reload to identical answers, bytes canonical"):
        cs = ContactSet(G5_CONTACTS)
        for codec in ALL_CODECS:
            idx = build_index(cs, codec=codec, t_psi=16)
            path = tmp_path / f"g5-{codec}.tgx"
            save_index(idx, path)
            back = load_index(path)
            assert back.direct_neighbors(1, TimeSemantics.instant(5)) == [3, 4]
            assert back.reverse_neighbors(3, TimeSemantics.instant(7)) == [1, 4]
            assert back.snapshot(TimeSemantics.instant(6)) == \
                [(1, 3), (1, 4), (4, 5)]
            assert back.activated_edges(5) == [(1, 4), (4, 5)]
            assert back.deactivated_edges(8) == [(1, 3), (1, 4), (4, 3)]
            assert back.active_edge(4, 5, TimeSemantics.instant(6)) is True
            assert back.active_edge(4, 5, TimeSemantics.instant(7)) is False
            assert serialize_index(back) == serialize_index(idx)

        rng = random.Random(88)
        for trial in range(12):
            g = spread_graph(rng, duplicates=trial % 2 == 0)
            idx = build_index(g, codec=ALL_CODECS[trial % len(ALL_CODECS)], t_psi=64)
            back = deserialize_index(serialize_index(idx))
            assert_same_answers(idx, back, rng, instants=20, intervals=10)
            assert serialize_index(back) == serialize_index(idx)
        flat = random_contactset(seed=8080, overlap=False)
        el = EdgeLogIndex.build(flat)
        back = deserialize_index(serialize_index(el))
        assert serialize_index(back) == serialize_index(el)
        assert_same_answers(el, back, rng)


# ---------------------------------------------------------------- 9

def test_criterion_9_arity3_incremental():
    with criterion(9, "3-term index matches 4-term on open-ended graphs, smaller"):
        rng = random.Random(99)
        for _ in range(12):
            nu = rng.randint(4, 30)
            tau = rng.randint(5, 30)
            rows3 = [(rng.randint(1, nu), rng.randint(1, nu),
                      rng.randint(1, tau - 1))
                     for _ in range(rng.randint(3, 120))]
            rows4 = [(u, v, ts, tau) for u, v, ts in rows3]
            i3 = build_index(ContactSet(rows3, arity=3, nu=nu, tau=tau),
                             codec="vbyte-rle", t_psi=16)
            i4 = build_index(ContactSet(rows4, nu=nu, tau=tau),
                             codec="vbyte-rle", t_psi=16)
            assert verify_core(i3) == []
            for t in range(1, tau + 1):
                sem = TimeSemantics.instant(t)
                for u in range(1, nu + 1):
                    assert i3.direct_neighbors(u, sem) == \
                        i4.direct_neighbors(u, sem)
                    assert i3.reverse_neighbors(u, sem) == \
                        i4.reverse_neighbors(u, sem)
                for _ in range(6):
                    u, v = rng.randint(1, nu), rng.randint(1, nu)
                    assert i3.active_edge(u, v, sem) == \
                        i4.active_edge(u, v, sem)
                assert i3.snapshot(sem) == i4.snapshot(sem)
                assert i3.activated_edges(t) == i4.activated_edges(t)
            for _ in range(8):
                t = rng.randint(1, tau)
                t_end = rng.randint(t + 1, tau + 1)
                for sem in (TimeSemantics.strong(t, t_end),
                            TimeSemantics.weak(t, t_end)):
                    for u in range(1, nu + 1):
                        assert i3.direct_neighbors(u, sem) == \
                            i4.direct_neighbors(u, sem)
            assert i3.size_bits() < i4.size_bits()
            assert len(serialize_index(i3)) < len(serialize_index(i4))
