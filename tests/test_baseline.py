"""Brute-force oracle and the adjacency-log baseline."""

import random

import numpy as np
import pytest

from tgcsa.baseline import EdgeLogIndex, OracleIndex, OverlapError
from tgcsa.corpus import ContactSet
from tgcsa.query import TimeSemantics
from conftest import (G5_CONTACTS, PyOracle, assert_same_answers,
                      random_contactset)


def test_oracle_matches_pure_python_loops():
    rng = random.Random(5150)
    for trial in range(15):
        cs = random_contactset(seed=rng.randrange(10**9),
                               duplicates=trial % 2 == 0)
        fast = OracleIndex(cs)
        slow = PyOracle(cs.tuples(), nu=cs.nu, tau=cs.tau)
        assert_same_answers(fast, slow, rng, instants=5, intervals=3)


def test_oracle_answers_weak_snapshot():
    orc = OracleIndex(ContactSet(G5_CONTACTS))
    assert orc.snapshot(TimeSemantics.weak(2, 5)) == [(1, 3), (2, 1)]
    assert orc.snapshot(TimeSemantics.instant(6)) == [(1, 3), (1, 4), (4, 5)]


def test_edgelog_builds_g5():
    el = EdgeLogIndex.build(ContactSet(G5_CONTACTS))
    assert el.kind == "edgelog"
    assert el.n == 5
    assert el.nu == 5 and el.tau == 8
    assert el.size_bits() > 0
    assert el._times(el._edge_id(1, el._targets(1), 3)) == [1, 8]
    assert el._times(el._edge_id(4, el._targets(4), 5)) == [5, 7]
    assert el._targets(1) == [3, 4]
    assert el._sources(3) == [1, 4]
    assert el._sources(2) == []


def test_edgelog_rejects_overlap():
    with pytest.raises(OverlapError, match=r"edge \(1, 2\)"):
        EdgeLogIndex.build(ContactSet([(1, 2, 1, 5), (1, 2, 3, 8)]))
    # touching intervals cannot be told apart once interleaved, so they
    # are rejected too
    with pytest.raises(OverlapError, match=r"edge \(1, 2\)"):
        EdgeLogIndex.build(ContactSet([(1, 2, 1, 5), (1, 2, 5, 8)]))
    with pytest.raises(OverlapError):
        EdgeLogIndex.build(ContactSet([(3, 4, 2, 6), (3, 4, 2, 6)]))


def test_edgelog_accepts_gapped_intervals():
    el = EdgeLogIndex.build(ContactSet([(1, 2, 1, 5), (1, 2, 6, 8)]))
    assert el._times(el._edge_id(1, el._targets(1), 2)) == [1, 5, 6, 8]
    sem = TimeSemantics.instant(5)
    assert el.active_edge(1, 2, sem) is False
    assert el.active_edge(1, 2, TimeSemantics.instant(6)) is True


def test_edgelog_is_arity4_only():
    cs = ContactSet([(1, 2, 3)], arity=3)
    with pytest.raises(ValueError, match="start/end intervals only"):
        EdgeLogIndex.build(cs)


def test_edgelog_matches_oracle_on_random_graphs():
    rng = random.Random(77001)
    for _ in range(15):
        cs = random_contactset(seed=rng.randrange(10**9), overlap=False)
        el = EdgeLogIndex.build(cs)
        orc = OracleIndex(cs)
        assert_same_answers(el, orc, rng)


def test_edgelog_orders_sources_without_lexsort(monkeypatch):
    rng = random.Random(77002)
    graphs = [random_contactset(seed=rng.randrange(10**9), overlap=False) for _ in range(5)]
    lexsort, calls = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    for cs in graphs:
        assert_same_answers(EdgeLogIndex.build(cs), OracleIndex(cs), rng)
    assert calls == []


def test_edgelog_weak_snapshot_rejected():
    el = EdgeLogIndex.build(ContactSet(G5_CONTACTS))
    with pytest.raises(ValueError):
        el.snapshot(TimeSemantics.weak(2, 5))


def test_edgelog_g5_full_agreement():
    el = EdgeLogIndex.build(ContactSet(G5_CONTACTS))
    orc = OracleIndex(ContactSet(G5_CONTACTS))
    rng = random.Random(8)
    assert_same_answers(el, orc, rng, instants=8, intervals=8)
    assert el.deactivated_edges(8) == [(1, 3), (1, 4), (4, 3)]
    assert el.activated_edges(1, 6) == [(1, 3), (1, 4), (2, 1), (4, 5)]


def test_event_time_validation_is_uniform():
    cs = ContactSet(G5_CONTACTS)
    for index in (OracleIndex(cs), EdgeLogIndex.build(cs)):
        with pytest.raises(ValueError):
            index.activated_edges(0)
        with pytest.raises(ValueError):
            index.activated_edges(9)
        with pytest.raises(ValueError):
            index.deactivated_edges(3, 2)


def test_empty_edgelog():
    el = EdgeLogIndex.build(ContactSet([], nu=3, tau=5))
    sem = TimeSemantics.instant(2)
    assert el.direct_neighbors(1, sem) == []
    assert el.snapshot(sem) == []
    assert el.activated_edges(2) == []
