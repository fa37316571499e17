"""Query layer: frozen answers on the worked example, cross-checks
against two independent oracles, and the time-semantics surface."""

import random

import pytest

from tgcsa.baseline import OracleIndex
from tgcsa.corpus import Contact, ContactSet
from tgcsa.sacsa import build_index
from tgcsa.synth import GenSpec, generate
from tgcsa.query import (TimeSemantics, _terms, active_edge, activated_edges,
                         deactivated_edges, direct_neighbors, pattern_range,
                         reconstruct_contact, reverse_neighbors, snapshot,
                         symbol_range, time_bounds)
from conftest import (G5_CONTACTS, PyOracle, assert_same_answers,
                      random_contactset)


def test_time_semantics_constructors():
    assert TimeSemantics.instant(4).cuts() == (4, 4)
    assert TimeSemantics.strong(2, 6).cuts() == (2, 5)
    assert TimeSemantics.weak(2, 6).cuts() == (5, 2)
    with pytest.raises(ValueError, match="no end time"):
        TimeSemantics("instant", 3, 5)
    with pytest.raises(ValueError, match="needs an interval"):
        TimeSemantics("strong", 3)
    with pytest.raises(ValueError, match="unknown time semantics"):
        TimeSemantics("sometimes", 3, 5)


def test_g5_time_bounds(g5_index):
    assert time_bounds(g5_index, 5) == (14, 15)
    assert time_bounds(g5_index, 6) == (14, 16)
    assert time_bounds(g5_index, 7) == (15, 17)


def test_g5_symbol_and_pattern_ranges(g5_index):
    assert symbol_range(g5_index, 1) == (1, 2)
    assert symbol_range(g5_index, 9) == (13, 14)
    assert symbol_range(g5_index, 13) == (18, 20)
    assert pattern_range(g5_index, (3, 7)) == (5, 5)
    assert pattern_range(g5_index, (1, 6)) == (2, 2)
    l, r = pattern_range(g5_index, (2, 5))   # source 2 never reaches 3
    assert l > r
    with pytest.raises(ValueError):
        symbol_range(g5_index, 0)
    with pytest.raises(ValueError):
        symbol_range(g5_index, 14)


def test_g5_neighbors(g5_index):
    assert direct_neighbors(g5_index, 1, TimeSemantics.instant(5)) == [3, 4]
    assert direct_neighbors(g5_index, 1, TimeSemantics.strong(5, 8)) == [3, 4]
    assert direct_neighbors(g5_index, 1, TimeSemantics.weak(2, 5)) == [3]
    assert direct_neighbors(g5_index, 3, TimeSemantics.instant(5)) == []
    assert reverse_neighbors(g5_index, 3, TimeSemantics.instant(7)) == [1, 4]
    assert reverse_neighbors(g5_index, 1, TimeSemantics.instant(3)) == [2]
    assert reverse_neighbors(g5_index, 2, TimeSemantics.instant(3)) == []


def test_g5_active_edge(g5_index):
    assert active_edge(g5_index, 4, 5, TimeSemantics.instant(6)) is True
    assert active_edge(g5_index, 4, 5, TimeSemantics.instant(7)) is False
    assert active_edge(g5_index, 2, 3, TimeSemantics.instant(1)) is False
    assert active_edge(g5_index, 1, 3, TimeSemantics.strong(1, 8)) is True
    assert active_edge(g5_index, 1, 3, TimeSemantics.strong(1, 9)) is False
    assert active_edge(g5_index, 1, 4, TimeSemantics.strong(4, 9)) is False
    assert active_edge(g5_index, 1, 4, TimeSemantics.weak(1, 6)) is True


def test_g5_snapshot(g5_index):
    assert snapshot(g5_index, TimeSemantics.instant(6)) == [(1, 3), (1, 4), (4, 5)]
    assert snapshot(g5_index, TimeSemantics.instant(1)) == [(1, 3), (2, 1)]
    assert snapshot(g5_index, TimeSemantics.strong(5, 7)) == [(1, 3), (1, 4), (4, 5)]
    got = snapshot(g5_index, TimeSemantics.instant(6), contacts=True)
    assert got == [(1, 3, 1, 8), (1, 4, 5, 8), (4, 5, 5, 7)]
    with pytest.raises(ValueError, match="covered intervals only"):
        snapshot(g5_index, TimeSemantics.weak(5, 7))


def test_g5_events(g5_index):
    assert activated_edges(g5_index, 5) == [(1, 4), (4, 5)]
    assert activated_edges(g5_index, 2) == []
    assert activated_edges(g5_index, 1, 6) == [(1, 3), (1, 4), (2, 1), (4, 5)]
    assert deactivated_edges(g5_index, 8) == [(1, 3), (1, 4), (4, 3)]
    assert deactivated_edges(g5_index, 7) == [(4, 5)]
    assert deactivated_edges(g5_index, 1, 7) == [(2, 1)]


def test_g5_reconstruct_from_any_position(g5_index):
    assert reconstruct_contact(g5_index, 10) == Contact(4, 5, 5, 7)
    assert reconstruct_contact(g5_index, 1) == Contact(1, 3, 1, 8)
    tuples = ContactSet(G5_CONTACTS).tuples()
    # every rotation position belongs to the contact whose text slot
    # starts it: position i holds the rotation beginning at A[i-1]
    from conftest import G5_A
    for i in range(1, 21):
        owner = (G5_A[i - 1] - 1) // 4
        assert tuple(reconstruct_contact(g5_index, i)) == tuples[owner]


def test_out_of_range_vertices_are_simply_absent(g5_index):
    sem = TimeSemantics.instant(5)
    assert direct_neighbors(g5_index, 99, sem) == []
    assert reverse_neighbors(g5_index, 0, sem) == []
    assert active_edge(g5_index, 99, 1, sem) is False
    # vertex 5 exists but only as a target
    assert direct_neighbors(g5_index, 5, sem) == []


def test_time_validation(g5_index):
    for call in (lambda: direct_neighbors(g5_index, 1, TimeSemantics.instant(0)),
                 lambda: direct_neighbors(g5_index, 1, TimeSemantics.instant(9)),
                 lambda: snapshot(g5_index, TimeSemantics.strong(3, 3)),
                 lambda: snapshot(g5_index, TimeSemantics.strong(3, 11)),
                 lambda: activated_edges(g5_index, 0),
                 lambda: activated_edges(g5_index, 2, 2),
                 lambda: deactivated_edges(g5_index, 9, 3)):
        with pytest.raises(ValueError):
            call()


def test_interval_endpoint_reaching_past_lifetime(g5_index):
    # [t, tau+1) is the widest legal interval; covering it needs a
    # contact alive at tau itself, and every end time here is <= tau
    assert direct_neighbors(g5_index, 1, TimeSemantics.strong(1, 9)) == []
    assert direct_neighbors(g5_index, 1, TimeSemantics.weak(1, 9)) == [3, 4]
    assert activated_edges(g5_index, 1, 9) == sorted({(u, v) for u, v, *_ in G5_CONTACTS})


def test_random_graphs_match_both_oracles():
    rng = random.Random(9001)
    for trial in range(25):
        cs = random_contactset(seed=rng.randrange(10**9),
                               duplicates=trial % 3 == 0)
        idx = build_index(cs, codec="vbyte-rle", t_psi=8)
        fast = OracleIndex(cs)
        slow = PyOracle(cs.tuples(), nu=cs.nu, tau=cs.tau)
        assert_same_answers(idx, fast, rng)
        assert_same_answers(idx, slow, rng, instants=4, intervals=2)


def test_arity3_incremental_frozen():
    cs = ContactSet([(1, 2, 2), (2, 3, 4), (3, 1, 1)], arity=3, tau=5)
    idx = build_index(cs)
    assert idx.semantics == "incremental"
    assert snapshot(idx, TimeSemantics.instant(1)) == [(3, 1)]
    assert snapshot(idx, TimeSemantics.instant(4)) == [(1, 2), (2, 3), (3, 1)]
    # contacts stop at the declared lifetime, nothing survives t = tau
    assert snapshot(idx, TimeSemantics.instant(5)) == []
    assert direct_neighbors(idx, 1, TimeSemantics.instant(3)) == [2]
    assert activated_edges(idx, 2) == [(1, 2)]
    assert snapshot(idx, TimeSemantics.instant(4), contacts=True) == \
        [(1, 2, 2), (2, 3, 4), (3, 1, 1)]
    with pytest.raises(ValueError, match="never end"):
        deactivated_edges(idx, 3)


def test_arity3_point_frozen():
    cs = ContactSet([(1, 2, 2), (2, 3, 4), (3, 1, 1), (3, 1, 4)],
                    arity=3, semantics="point", tau=5)
    idx = build_index(cs)
    assert snapshot(idx, TimeSemantics.instant(2)) == [(1, 2)]
    assert snapshot(idx, TimeSemantics.instant(3)) == []
    assert snapshot(idx, TimeSemantics.instant(4)) == [(2, 3), (3, 1)]
    assert deactivated_edges(idx, 2) == [(3, 1)]
    assert deactivated_edges(idx, 5) == [(2, 3), (3, 1)]
    assert deactivated_edges(idx, 1) == []
    # a point contact can never cover a longer interval...
    assert direct_neighbors(idx, 3, TimeSemantics.strong(2, 5)) == []
    # ...but it does touch one
    assert direct_neighbors(idx, 3, TimeSemantics.weak(2, 5)) == [1]
    assert active_edge(idx, 1, 2, TimeSemantics.weak(2, 4)) is True


def test_arity3_random_graphs_match_pyoracle():
    rng = random.Random(400)
    for semantics in ("incremental", "point"):
        for _ in range(10):
            nu, tau = rng.randint(2, 8), rng.randint(3, 10)
            rows = [(rng.randint(1, nu), rng.randint(1, nu), rng.randint(1, tau))
                    for _ in range(rng.randint(1, 12))]
            cs = ContactSet(rows, arity=3, nu=nu, tau=tau, semantics=semantics)
            idx = build_index(cs, codec="vbyte-rle", t_psi=4)
            oracle = PyOracle(rows, arity=3, semantics=semantics, nu=nu, tau=tau)
            assert_same_answers(idx, oracle, rng, instants=6, intervals=3)


def test_point_deactivated_matches_shifted_activation():
    rng = random.Random(31)
    for _ in range(8):
        nu, tau = rng.randint(2, 6), rng.randint(3, 9)
        rows = [(rng.randint(1, nu), rng.randint(1, nu), rng.randint(1, tau))
                for _ in range(rng.randint(1, 10))]
        idx = build_index(ContactSet(rows, arity=3, semantics="point",
                                     nu=nu, tau=tau))
        for t in range(1, tau + 1):
            want = activated_edges(idx, t - 1) if t > 1 else []
            assert deactivated_edges(idx, t) == want


def test_empty_contact_set():
    idx = build_index(ContactSet([], nu=4, tau=6))
    sem = TimeSemantics.instant(3)
    assert direct_neighbors(idx, 2, sem) == []
    assert snapshot(idx, sem) == []
    assert activated_edges(idx, 3) == []


ALL_CODECS = ("plain", "vbyte-rle", "huff-rle-opt")
TERMS = ("u", "v", "ts", "te")


def contact_pattern_range(cs, section, values):
    """Where the rotations opening with values sit in section `section`:
    that section sorts its rotations by the contact's terms from there on,
    so they follow every contact whose terms compare lower."""
    n = len(cs)
    cols = [getattr(cs, name) for name in TERMS[section - 1:section - 1 + len(values)]]
    rows = [tuple(int(col[i]) for col in cols) for i in range(n)]
    less = sum(row < tuple(values) for row in rows)
    base = (section - 1) * n
    return base + less + 1, base + less + rows.count(tuple(values))


def check_pattern_ranges(idx, cs, rng):
    rows = cs.tuples()
    for section in range(1, cs.arity):
        for length in range(2, cs.arity - section + 2):
            picks = [row[section - 1:section - 1 + length] for row in rng.sample(rows, min(6, len(rows)))]
            # terms of different contacts: mostly patterns that match nothing
            picks += [tuple(rng.choice(rows)[section - 1 + k] for k in range(length))
                      for _ in range(6)]
            for values in picks:
                ids = [idx.am.getmap(x, section + k) for k, x in enumerate(values)]
                l, r = pattern_range(idx, ids)
                want_l, want_r = contact_pattern_range(cs, section, values)
                if want_l <= want_r:
                    assert (l, r) == (want_l, want_r), (section, values)
                else:
                    assert l > r, (section, values)
                for bad in (0, idx.sigma + 1):
                    l, r = pattern_range(idx, ids[:-1] + [bad])
                    assert l > r


def check_neighbour_queries(idx, oracle, sems):
    for sem in sems:
        for u in range(1, idx.nu + 1):
            assert idx.direct_neighbors(u, sem) == oracle.direct_neighbors(u, sem), (u, sem)
            assert idx.reverse_neighbors(u, sem) == oracle.reverse_neighbors(u, sem), (u, sem)
            for v in range(1, idx.nu + 1):
                assert idx.active_edge(u, v, sem) == oracle.active_edge(u, v, sem), (u, v, sem)


def sample_semantics(rng, tau, intervals=True):
    sems = [TimeSemantics.instant(rng.randint(1, tau)) for _ in range(3)]
    if intervals:
        for _ in range(2):
            t = rng.randint(1, tau)
            t_end = rng.randint(t + 1, tau + 1)
            sems += [TimeSemantics.strong(t, t_end), TimeSemantics.weak(t, t_end)]
    return sems


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_every_codec_matches_the_oracle(codec):
    rng = random.Random(f"all-codecs-{codec}")
    for trial in range(6):
        cs = random_contactset(seed=rng.randrange(10**9), duplicates=True,
                               n_edges=rng.randint(6, 20))
        idx = build_index(cs, codec=codec, t_psi=rng.choice((1, 2, 4, 64)))
        check_neighbour_queries(idx, OracleIndex(cs), sample_semantics(rng, cs.tau))
        check_pattern_ranges(idx, cs, rng)
    for semantics in ("incremental", "point"):
        for _ in range(3):
            nu, tau = rng.randint(2, 7), rng.randint(3, 9)
            rows = [(rng.randint(1, nu), rng.randint(1, nu), rng.randint(1, tau))
                    for _ in range(rng.randint(4, 18))]
            rows += rows[:3]
            cs = ContactSet(rows, arity=3, nu=nu, tau=tau, semantics=semantics)
            idx = build_index(cs, codec=codec, t_psi=rng.choice((1, 3, 64)))
            check_neighbour_queries(idx, OracleIndex(cs), sample_semantics(rng, tau))
            check_pattern_ranges(idx, cs, rng)


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_pair_lookups_skip_pointwise_access(codec, monkeypatch):
    # vertex 1 sends four contacts to 2, all starting after t = 4, among
    # contacts to and from other vertices
    rows = [(1, 2, ts, ts + 3) for ts in (5, 7, 9, 12)]
    rows += [(1, v, 1 + v % 5, 16) for v in range(3, 12)]
    rows += [(u, 2, 2, 3 + u % 9) for u in range(3, 14)]
    cs = ContactSet(rows, nu=13, tau=16)
    idx = build_index(cs, codec=codec, t_psi=4)
    calls = []
    cls = type(idx.psi)
    access = cls.access
    monkeypatch.setattr(cls, "access", lambda self, i: calls.append(i) or access(self, i))

    for u, v in [(1, 2), (1, 3), (1, 11), (4, 2), (13, 2)]:
        l, r = pattern_range(idx, (idx.am.getmap(u, 1), idx.am.getmap(v, 2)))
        assert l <= r
    assert active_edge(idx, 1, 2, TimeSemantics.instant(4)) is False
    assert active_edge(idx, 1, 2, TimeSemantics.strong(2, 5)) is False
    assert calls == []
    # a live contact does take hops, so the counter sees them
    assert active_edge(idx, 1, 2, TimeSemantics.instant(13)) is True
    assert calls


@pytest.mark.parametrize("graph", ("g5", "ba"))
def test_terms_match_rank_then_unmap(graph):
    cs = ContactSet(G5_CONTACTS) if graph == "g5" else generate(
        GenSpec(nu=40, m=3, lifetime=40, dist="uniform", dist_param=5, seed=2))
    idx = build_index(cs, codec="vbyte-rle", t_psi=16)
    every = list(range(1, idx.arity * idx.n + 1))
    for section in range(1, idx.arity + 1):
        want = [idx.am.getunmap(idx.D.rank1(p), section) for p in every]
        assert _terms(idx, every, section).tolist() == want
        assert _terms(idx, every[::-1], section).tolist() == want[::-1]
    assert _terms(idx, [], 1).tolist() == []


def test_terms_reject_positions_outside_the_index(g5_index):
    total = g5_index.arity * g5_index.n
    for bad in (0, total + 1, 2**70, -2**70):
        with pytest.raises(ValueError, match="outside"):
            _terms(g5_index, [1, bad], 1)
