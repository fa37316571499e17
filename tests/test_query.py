"""Query layer: frozen answers on the worked example, cross-checks
against two independent oracles, and the time-semantics surface."""

import random
from collections import Counter

import pytest

from tgcsa.baseline import OracleIndex
from tgcsa.corpus import Contact, ContactSet
from tgcsa import psienc, query
from tgcsa.sacsa import TgcsaIndex, build_index
from tgcsa.synth import GenSpec, generate, preset_icomm
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
    access, exceeds = cls.access, cls.exceeds
    monkeypatch.setattr(cls, "access", lambda self, i: calls.append(i) or access(self, i))
    monkeypatch.setattr(cls, "exceeds", lambda self, i, z: calls.append(i) or exceeds(self, i, z))

    for u, v in [(1, 2), (1, 3), (1, 11), (4, 2), (13, 2)]:
        l, r = pattern_range(idx, (idx.am.getmap(u, 1), idx.am.getmap(v, 2)))
        assert l <= r
    assert active_edge(idx, 1, 2, TimeSemantics.instant(4)) is False
    assert active_edge(idx, 1, 2, TimeSemantics.strong(2, 5)) is False
    assert calls == []
    # a live contact does take hops, or asks the end test, which can
    # settle it without one, so the counter sees them
    assert active_edge(idx, 1, 2, TimeSemantics.instant(13)) is True
    assert calls


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_pair_and_reverse_lookups_walk_psi_once(codec, monkeypatch):
    # active_edge and reverse_neighbors find and decode their stretch of
    # a group in one Psi walk: one stretch call and no range call before
    # their hops (an access, or _live_targets for the pair)
    cs = generate(GenSpec(nu=40, m=3, lifetime=40, dist="uniform", dist_param=5, seed=2))
    idx = build_index(cs, codec=codec, t_psi=16)
    oracle = OracleIndex(cs)
    calls = []
    cls = type(idx.psi)
    for name in ("access", "range", "stretch", "access_many"):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *args, name=name, method=method:
                            calls.append(name) or method(self, *args))
    live = query._live_targets
    monkeypatch.setattr(query, "_live_targets", lambda *args: calls.append("hop") or live(*args))
    alive = 0
    for u, v, ts, te in cs.tuples()[::5]:
        for sem in (TimeSemantics.instant(ts), TimeSemantics.weak(ts, min(te, idx.tau + 1))):
            for ask, want in ((lambda: active_edge(idx, u, v, sem), oracle.active_edge(u, v, sem)),
                              (lambda: reverse_neighbors(idx, v, sem),
                               oracle.reverse_neighbors(v, sem))):
                calls.clear()
                assert ask() == want
                hop = next((k for k, name in enumerate(calls) if name in ("access", "hop")),
                           len(calls))
                assert calls[:hop] == ["stretch"] and "range" not in calls, calls
                alive += want is True
    assert alive > 50


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


def test_window_queries_match_the_oracle_on_every_codec():
    # the batch Psi hops of snapshot and the change queries, on every
    # codec, at arity 4 (with duplicates) and arity 3 (both semantics)
    rng = random.Random(1111)
    graphs = [random_contactset(seed=rng.randrange(10**9), duplicates=True,
                                n_edges=rng.randint(4, 30)) for _ in range(4)]
    for semantics in ("incremental", "point"):
        for _ in range(2):
            nu, tau = rng.randint(2, 9), rng.randint(3, 12)
            rows = [(rng.randint(1, nu), rng.randint(1, nu), rng.randint(1, tau))
                    for _ in range(rng.randint(4, 40))]
            graphs.append(ContactSet(rows, arity=3, nu=nu, tau=tau, semantics=semantics))
    for cs in graphs:
        oracle = OracleIndex(cs)
        for codec in ("plain", "vbyte-rle", "huff-rle-opt"):
            for t_psi in (1, 3, 16):
                idx = build_index(cs, codec=codec, t_psi=t_psi)
                assert_same_answers(idx, oracle, rng, instants=6, intervals=4)


def test_out_of_range_values_end_in_value_error_at_the_caller(g5):
    # g5's vbyte stream with its first byte raised to the code 127: the
    # codec decodes values past arity*n = 20 without a check of its own,
    # and the index's constructor, the caller of values(), turns them
    # away in its proof of Psi, before any query can take one as a
    # position
    idx = build_index(g5, codec="vbyte-rle", t_psi=64)
    sections = idx.psi.to_sections()
    stream = idx.psi._stream   # it follows s0 in the first section
    sections[0] = sections[0][:-len(stream)] + b"\xff" + stream[1:]
    psi = psienc.from_sections(idx.psi.tag, sections, idx.D, 64)
    vals = psi.range(1, 20)
    out = [p for p, v in enumerate(vals, 1) if not 1 <= v <= 20]
    assert out and psi.values().tolist() == vals
    assert psi.access_many(out).tolist() == [vals[p - 1] for p in out]
    with pytest.raises(ValueError, match="outside 1..20"):
        TgcsaIndex(idx.am, idx.D, psi, idx.n, idx.semantics)


def prune_edge_graph(rng):
    """Contacts of 1 step and contacts that last the whole lifetime, with
    duplicates. A start group of short contacts only has its latest end
    one step after its start, so every instant or interval has start
    groups whose latest end lies exactly at its end cut and some one
    step past it."""
    nu, tau = rng.randint(3, 6), rng.randint(6, 10)
    rows = []
    for ts in range(1, tau):
        kind = rng.choice(("short", "long", "mixed"))
        for _ in range(rng.randint(1, 3)):
            long = kind == "long" or (kind == "mixed" and rng.random() < 0.5)
            rows.append((rng.randint(1, nu), rng.randint(1, nu), ts, tau if long else ts + 1))
    rows += rng.sample(rows, 3)
    return ContactSet(rows, nu=nu, tau=tau)


def test_latest_end_prune_matches_the_oracle():
    rng = random.Random("latest-end")
    at_cut = past_cut = 0
    for _ in range(2):
        cs = prune_edge_graph(rng)
        oracle = OracleIndex(cs)
        sems = []
        for t in range(1, cs.tau + 1):
            sems.append(TimeSemantics.instant(t))
            for t_end in range(t + 1, min(t + 3, cs.tau + 1) + 1):
                sems += [TimeSemantics.strong(t, t_end), TimeSemantics.weak(t, t_end)]
        latest = {}
        for _, _, ts, te in cs.tuples():
            latest[ts] = max(latest.get(ts, 0), te)
        for sem in sems:
            p1, p2 = sem.cuts()
            started = [te for ts, te in latest.items() if ts <= p1]
            at_cut += p2 in started
            past_cut += p2 + 1 in started
        for codec in ALL_CODECS:
            for t_psi in (1, 3, 16):
                idx = build_index(cs, codec=codec, t_psi=t_psi)
                check_neighbour_queries(idx, oracle, sems)
                for sem in sems:
                    if sem.kind != "weak":
                        assert idx.snapshot(sem) == oracle.snapshot(sem), sem
                        assert (idx.snapshot(sem, contacts=True)
                                == oracle.snapshot(sem, contacts=True)), sem
    assert at_cut > 10 and past_cut > 10


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_latest_end_prune_counts(codec, monkeypatch):
    # snapshot decodes exactly its live contacts, by stretch walks and no
    # range over its start window, and direct takes no end hop for a
    # contact whose start group ends by the end cut
    cs = preset_icomm(nu=60, seed=5)
    idx = build_index(cs, codec=codec, t_psi=16)
    n = idx.n
    cls = type(idx.psi)
    access, stretch, rng_, exceeds = cls.access, cls.stretch, cls.range, cls.exceeds
    hops, walked, ranges = [], [], []
    monkeypatch.setattr(cls, "access", lambda self, i: hops.append(i) or access(self, i))
    # the end test asks exceeds, which takes the end hop's place
    monkeypatch.setattr(cls, "exceeds", lambda self, i, z: hops.append(i) or exceeds(self, i, z))
    monkeypatch.setattr(cls, "stretch", lambda self, *a: walked.append(stretch(self, *a))
                        or walked[-1])
    monkeypatch.setattr(cls, "range", lambda self, lo, hi: ranges.append(lo)
                        or rng_(self, lo, hi))
    oracle = OracleIndex(cs)

    def outlives(y, zfloor):
        return idx.latest_end[idx.D.rank1(y) - idx.start_group0 - 1] > zfloor

    pruned = 0
    for t in range(3, cs.tau, 7):
        for sem in (TimeSemantics.instant(t), TimeSemantics.strong(t, t + 2)):
            zfloor = query._section3_window(idx, *sem.cuts())[2]
            walked.clear()
            ranges.clear()
            got = idx.snapshot(sem, contacts=True)
            assert got == oracle.snapshot(sem, contacts=True)
            p1, p2 = sem.cuts()
            live = int(((cs.ts <= p1) & (cs.te > p2)).sum())
            assert sum(len(vals) for _, vals in walked) == live
            assert not [lo for lo in ranges if 2 * n < lo <= 3 * n]
            for u in range(1, cs.nu + 1, 3):
                hops.clear()
                assert idx.direct_neighbors(u, sem) == oracle.direct_neighbors(u, sem)
                ends = [y for y in hops if 2 * n < y <= 3 * n]
                assert all(outlives(y, zfloor) for y in ends)
                reached = {access(idx.psi, q) for q in hops if n < q <= 2 * n}
                pruned += len({y for y in reached if not outlives(y, zfloor)})
    assert pruned > 100
    # at t = 1 every start group in the window outlasts the cut, so the
    # group test is left out; at t = 30 it runs
    _, hi, zfloor = query._section3_window(idx, 1, 1)
    assert query._pruned_groups(idx, hi, zfloor) == 0
    _, hi, zfloor = query._section3_window(idx, 30, 30)
    assert query._pruned_groups(idx, hi, zfloor) > 0


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_group_ending_exactly_at_the_cut_takes_no_end_hop(codec, monkeypatch):
    # start time 1's one contact ends at 3 and is the only one to end
    # there, so at instant 3 the group's latest end is the end cut itself
    # and the only group that fails the test
    cs = ContactSet([(1, 2, 1, 3), (1, 3, 2, 9), (2, 1, 2, 5)], nu=3, tau=9)
    idx = build_index(cs, codec=codec, t_psi=1)
    n, sem = idx.n, TimeSemantics.instant(3)
    _, hi, zfloor = query._section3_window(idx, *sem.cuts())
    assert idx.latest_end[0] == zfloor and (idx.latest_end[1:] > zfloor).all()
    hops = []
    cls = type(idx.psi)
    access, exceeds = cls.access, cls.exceeds
    monkeypatch.setattr(cls, "access", lambda self, i: hops.append(i) or access(self, i))
    monkeypatch.setattr(cls, "exceeds", lambda self, i, z: hops.append(i) or exceeds(self, i, z))
    for ask, want in ((lambda: direct_neighbors(idx, 1, sem), [3]),
                      (lambda: reverse_neighbors(idx, 2, sem), []),
                      (lambda: active_edge(idx, 1, 2, sem), False)):
        hops.clear()
        assert ask() == want
        assert not [y for y in hops if 2 * n < y <= 3 * n and idx.D.rank1(y) == idx.start_group0 + 1]


def hub_graph(rng, arity=4):
    """Contacts into hub vertex 1 from every other vertex, vertex 2 with
    the most, among contacts between random vertices; a third of them
    start at one of three busy times, so those start groups hold samples
    inside them. Ends are 1 to 3 steps after the start or at the
    lifetime's end, with duplicates. At arity 3 the contacts are point
    contacts."""
    nu, tau = 9, 24
    rows = []
    for u, k in [(2, 24)] + [(u, 7) for u in range(3, nu + 1)] + [(0, 60)]:
        for _ in range(k):
            ts = rng.choice((5, 11, 17)) if rng.random() < 0.35 else rng.randint(1, tau - 1)
            te = tau if rng.random() < 0.3 else min(ts + rng.randint(1, 3), tau)
            src, dst = (u, 1) if u else (rng.randint(1, nu), rng.randint(1, nu))
            rows.append((src, dst, ts, te))
    rows += rng.sample(rows, 6)
    if arity == 3:
        return ContactSet([r[:3] for r in rows], arity=3, nu=nu, tau=tau, semantics="point")
    return ContactSet(rows, nu=nu, tau=tau)


def hub_semantics(tau):
    sems = [TimeSemantics.instant(t) for t in range(1, tau + 1)]
    for t in range(1, tau + 1):
        for d in (1, 3):
            if t + d <= tau + 1:
                sems += [TimeSemantics.strong(t, t + d), TimeSemantics.weak(t, t + d)]
    return sems


def test_sampled_end_tests_and_walked_starts_match_the_oracle():
    # every codec at t_psi 1, 2, 3, 16 and 64 on hub graphs: the hub's
    # section-2 group spans several blocks, so vertex 2's started
    # contacts are read partly from the walk and partly by hops, and the
    # start groups' samples fall exactly at the end cut, one step before
    # it and one step past it
    rng = random.Random("sampled-end-test")
    near = Counter()
    for cs in (hub_graph(rng), hub_graph(rng), hub_graph(rng, arity=3)):
        oracle = OracleIndex(cs)
        sems = hub_semantics(cs.tau)
        asks = [("direct_neighbors", (u,)) for u in range(1, cs.nu + 1)]
        asks += [("reverse_neighbors", (v,)) for v in (1, 2, 5)]
        asks += [("active_edge", (u, 1)) for u in range(1, cs.nu + 1)]
        asks += [("active_edge", (u, v)) for u, v in ((3, 4), (5, 6), (7, 2), (1, 9))]
        want = {(name, args, sem): getattr(oracle, name)(*args, sem)
                for sem in sems for name, args in asks}
        for codec in ALL_CODECS:
            for t_psi in (1, 2, 3, 16, 64):
                idx = build_index(cs, codec=codec, t_psi=t_psi)
                for (name, args, sem), answer in want.items():
                    assert getattr(idx, name)(*args, sem) == answer, (codec, t_psi, name, args, sem)
                if codec == "plain" or idx.arity == 3:
                    continue
                opens, starts = psienc._blocks(idx.D, t_psi)
                samples = starts[(starts > 2 * idx.n) & (starts <= 3 * idx.n)]
                for sem in sems:
                    _, hi, zfloor = query._section3_window(idx, *sem.cuts())
                    vals = idx.psi.access_many(samples[samples <= hi])
                    for d in (-1, 0, 1):
                        near[t_psi, d] += int((vals == zfloor + d).sum())
    assert all(near[t, d] > 0 for t in (1, 2, 3, 16, 64) for d in (-1, 0, 1)), near


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_started_contacts_read_from_the_walk_take_no_hop(codec, monkeypatch):
    # a target with several contacts takes one lead walk over their
    # span; a started contact inside the walk takes no section-2 access,
    # and one before the walk's first position takes one
    cs = hub_graph(random.Random("walked-starts"))
    idx = build_index(cs, codec=codec, t_psi=4)
    oracle = OracleIndex(cs)
    n = idx.n
    cls = type(idx.psi)
    access, lead = cls.access, cls.lead
    hops, walks = [], {}

    def counted_lead(self, lo, hi, y):
        first, vals = lead(self, lo, hi, y)
        walks[lo] = (first, first + len(vals))
        return first, vals

    monkeypatch.setattr(cls, "access", lambda self, i: hops.append(i) or access(self, i))
    monkeypatch.setattr(cls, "lead", counted_lead)
    seen = Counter()
    for u in range(1, cs.nu + 1):
        l, r = symbol_range(idx, idx.am.getmap(u, 1))
        pos2 = idx.psi.range(l, r)
        runs = {}
        for q in pos2:
            runs.setdefault(idx.D.rank1(q), []).append(q)
        for sem in hub_semantics(cs.tau):
            hops.clear()
            walks.clear()
            assert direct_neighbors(idx, u, sem) == oracle.direct_neighbors(u, sem)
            live = set(oracle.direct_neighbors(u, sem))
            hopped = [q for q in hops if n < q <= 2 * n]
            for c, run in runs.items():
                mine = [q for q in hopped if q in run]
                if len(run) == 1:
                    assert len(mine) <= 1
                    continue
                first, end = walks[min(run)]
                assert all(q < first for q in mine), (u, sem, run, first, mine)
                seen["hop before the walk"] += bool(mine)
                v = idx.am.getunmap(c, 2)
                seen["live from the walk"] += v in live and not mine
    assert seen["live from the walk"] > 100, seen
    if codec != "plain":
        assert seen["hop before the walk"] > 10, seen


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_reverse_hops_only_from_live_contacts(codec, monkeypatch):
    # reverse decides each started contact with the end test of the pair
    # and direct queries, which on the sampled codecs decides without
    # access (plain's exceeds is itself one access): a contact that ends
    # by the cut takes no hop, also when a live contact shares its start
    # group, so that the group test alone would let it through
    cs = hub_graph(random.Random("reverse-end-test"))
    oracle = OracleIndex(cs)
    want = {(v, sem): oracle.reverse_neighbors(v, sem)
            for v in range(1, cs.nu + 1) for sem in hub_semantics(cs.tau)}
    indexes = {t_psi: build_index(cs, codec=codec, t_psi=t_psi) for t_psi in (1, 2, 3, 16, 64)}
    cls = type(indexes[1].psi)
    access, hops = cls.access, []
    monkeypatch.setattr(cls, "access", lambda self, i: hops.append(i) or access(self, i))
    shared = 0
    for t_psi, idx in indexes.items():
        n, vals = idx.n, idx.psi.values()
        for (v, sem), answer in want.items():
            lo, hi, zfloor = query._section3_window(idx, *sem.cuts())
            hops.clear()
            assert reverse_neighbors(idx, v, sem) == answer, (t_psi, v, sem)
            if codec != "plain":
                assert all(vals[y - 1] > zfloor for y in hops if 2 * n < y <= 3 * n), (t_psi, v, sem)
            l, r = symbol_range(idx, idx.am.getmap(v, 2))
            dead = [y for y in vals[l - 1:r].tolist() if lo <= y <= hi and vals[y - 1] <= zfloor]
            shared += sum(int(idx.latest_end[idx.D.rank1(y) - idx.start_group0 - 1] > zfloor)
                          for y in dead)
    assert shared > 100, shared


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_walked_starts_and_end_tests_reject_positions_outside_the_index(codec):
    # only a corrupted image hands these positions on: a target's
    # section-2 positions to the lead walk or its hop, and a start
    # position to the end test when no start group is pruned
    idx = build_index(hub_graph(random.Random("outside")), codec=codec, t_psi=4)
    total = idx.arity * idx.n
    lo, hi, zfloor = query._section3_window(idx, 1, 1)
    assert query._pruned_groups(idx, hi, zfloor) == 0
    for bad in (0, total + 1, -2**70, 2**70):
        with pytest.raises(ValueError, match="outside"):
            query._end_test(idx, hi, zfloor)(bad)
    for pos2 in ([0], [0, 3], [total, total + 1], [2**70, 2**70 + 1]):
        with pytest.raises(ValueError, match="outside"):
            query._live_targets(idx, pos2, [1] * len(pos2), lo, hi, zfloor)
