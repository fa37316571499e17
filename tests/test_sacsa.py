"""Rotation array, successor permutation, and the structural verifier.

The fast builder derives rotation order in closed form from the sorted
contacts; the tests here also run the doubled-string reference from
conftest so the two routes cross-check, with repeated contacts (interior
runs, trailing runs that wrap around, all-equal sets) as the edge cases.
"""

import random

import numpy as np
import pytest

from tgcsa.bitseq import BitSequence
from tgcsa.corpus import AlphabetMap, ContactSet, build_sid
from tgcsa.psienc import ESC_CLASSES, NSV, HuffRlePsi, PlainPsi
from tgcsa.sacsa import (TgcsaIndex, build_d, build_index,
                         build_rotation_array, compute_psi, cyclic_adjust,
                         verify_core)
from conftest import (G5_A, G5_CONTACTS, G5_D, G5_PSI, G5_SID,
                      naive_adjust, naive_d, naive_psi, naive_rotation_array,
                      random_contactset)


def fast_pipeline(cs):
    am = AlphabetMap.build(cs)
    sid = build_sid(cs, am)
    A = build_rotation_array(sid, cs.arity)
    psi = cyclic_adjust(compute_psi(A), cs.arity)
    D = build_d(sid, A)
    return sid, A, psi, D


def naive_pipeline(sid, arity):
    A = naive_rotation_array(list(sid), arity)
    psi = naive_adjust(naive_psi(A), arity)
    D = naive_d(list(sid), A)
    return A, psi, D


def test_g5_construction_is_frozen(g5):
    sid, A, psi, D = fast_pipeline(g5)
    assert sid.tolist() == G5_SID
    assert A.tolist() == G5_A
    assert psi.tolist() == G5_PSI
    assert "".join(str(D.access(i)) for i in range(1, len(D) + 1)) == G5_D


def test_g5_matches_naive_route(g5):
    sid, A, psi, D = fast_pipeline(g5)
    nA, npsi, nD = naive_pipeline(sid, 4)
    assert A.tolist() == nA
    assert psi.tolist() == npsi
    assert [D.access(i) for i in range(1, len(D) + 1)] == nD


def test_single_contact():
    cs = ContactSet([(1, 1, 1, 2)])
    sid, A, psi, D = fast_pipeline(cs)
    assert sid.tolist() == [1, 2, 3, 4]
    assert A.tolist() == [1, 2, 3, 4]
    assert psi.tolist() == [2, 3, 4, 1]
    assert [D.access(i) for i in range(1, 5)] == [1, 1, 1, 1]
    assert verify_core(build_index(cs), cs) == []


def test_duplicate_contacts_interleave():
    cs = ContactSet([(1, 1, 1, 2), (1, 1, 1, 2)])
    sid, A, psi, D = fast_pipeline(cs)
    # both contacts are identical: each section holds both copies in
    # position order, so A alternates between them
    assert A.tolist() == [1, 5, 2, 6, 3, 7, 4, 8]
    assert psi.tolist() == [3, 4, 5, 6, 7, 8, 1, 2]
    assert [D.access(i) for i in range(1, 9)] == [1, 0, 1, 0, 1, 0, 1, 0]
    assert verify_core(build_index(cs), cs) == []


def test_first_section_stays_in_contact_order():
    # rotations of contacts 2 and 3 tie on their own symbols and are
    # broken by what follows, which would swap them; contact 1's tail
    # sorts contact 3's first-section rotation ahead of contact 2's.
    # The first section must ignore all that and stay in contact order.
    cs = ContactSet([(1, 1, 1, 2), (2, 2, 2, 3), (2, 2, 2, 3)])
    sid, A, psi, D = fast_pipeline(cs)
    assert sid.tolist() == [1, 3, 5, 7, 2, 4, 6, 8, 2, 4, 6, 8]
    assert A.tolist()[:3] == [1, 5, 9]
    assert A.tolist() == [1, 5, 9, 2, 10, 6, 3, 11, 7, 4, 12, 8]
    nA, npsi, nD = naive_pipeline(sid, 4)
    assert A.tolist() == nA
    assert psi.tolist() == npsi
    assert verify_core(build_index(cs), cs) == []


# Runs of equal contacts. A trailing run wraps around onto the smaller
# first contact, so its later copies sort first in every section after
# the first; an interior run keeps contact order; all-equal contacts tie.
REPEATS = {
    "trailing": [(1, 2, 1, 3), (2, 1, 1, 2), (2, 3, 2, 4), (2, 3, 2, 4), (2, 3, 2, 4)],
    "interior": [(1, 1, 1, 2), (1, 1, 1, 2), (1, 1, 1, 2), (2, 2, 1, 3)],
    "all-equal": [(2, 1, 1, 2)] * 4,
    "both": [(1, 1, 1, 2)] * 3 + [(2, 2, 2, 3)] + [(3, 1, 1, 4)] * 4,
}


@pytest.mark.parametrize("arity", (3, 4))
@pytest.mark.parametrize("case", sorted(REPEATS))
def test_repeated_contacts_match_naive(case, arity):
    cs = ContactSet([row[:arity] for row in REPEATS[case]], arity=arity)
    sid, A, psi, D = fast_pipeline(cs)
    nA, npsi, nD = naive_pipeline(sid, arity)
    assert A.tolist() == nA
    assert psi.tolist() == npsi
    assert [D.access(i) for i in range(1, len(D) + 1)] == nD
    assert verify_core(build_index(cs), cs) == []


def test_rotation_array_rejects_unsorted_ids():
    with pytest.raises(ValueError, match="sorted"):
        build_rotation_array(np.array([2, 3, 5, 7, 1, 3, 5, 7]), 4)


def test_random_graphs_match_naive(subtests=None):
    rng = random.Random(501)
    for trial in range(30):
        cs = random_contactset(seed=rng.randrange(10**9),
                               duplicates=trial % 2 == 0)
        sid, A, psi, D = fast_pipeline(cs)
        nA, npsi, nD = naive_pipeline(sid, 4)
        assert A.tolist() == nA, f"trial {trial}"
        assert psi.tolist() == npsi, f"trial {trial}"
        assert [D.access(i) for i in range(1, len(D) + 1)] == nD, f"trial {trial}"


def test_rotation_order_sorts_two_packed_columns(monkeypatch):
    # each section after the first is sorted by its ids and the rank of
    # the rotation that follows, one packed key, with no np.lexsort
    rng = random.Random(501)
    graphs = [random_contactset(seed=rng.randrange(10**9), duplicates=trial % 2 == 0)
              for trial in range(10)]
    graphs += [ContactSet([row[:arity] for row in REPEATS[case]], arity=arity)
               for case in sorted(REPEATS) for arity in (3, 4)]
    sids = [build_sid(cs, AlphabetMap.build(cs)) for cs in graphs]
    lexsort, calls = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    for cs, sid in zip(graphs, sids):
        A = build_rotation_array(sid, cs.arity)
        assert A.tolist() == naive_rotation_array(list(sid), cs.arity)
    assert calls == []


def test_random_arity3_matches_naive():
    rng = random.Random(502)
    for trial in range(12):
        nu, tau = rng.randint(2, 8), rng.randint(3, 9)
        rows = [(rng.randint(1, nu), rng.randint(1, nu), rng.randint(1, tau))
                for _ in range(rng.randint(1, 10))]
        for semantics in ("incremental", "point"):
            cs = ContactSet(rows, arity=3, nu=nu, tau=tau, semantics=semantics)
            sid, A, psi, D = fast_pipeline(cs)
            nA, npsi, nD = naive_pipeline(sid, 3)
            assert A.tolist() == nA
            assert psi.tolist() == npsi
            assert verify_core(build_index(cs), cs) == []


def test_verify_core_passes_on_random_graphs():
    rng = random.Random(77)
    for _ in range(15):
        cs = random_contactset(seed=rng.randrange(10**9), duplicates=True)
        idx = build_index(cs)
        assert verify_core(idx, cs) == []


def test_verify_core_catches_tampering(g5):
    # Psi swapped at two first-section positions after the build: the
    # contact check reports it, and an index constructed on it fails its
    # proof of Psi
    idx = build_index(g5, codec="plain")
    vals = idx.psi._vals
    vals[0], vals[1] = vals[1], vals[0]
    assert verify_core(idx, g5) != []
    with pytest.raises(ValueError, match="cycles do not close"):
        TgcsaIndex(idx.am, idx.D, idx.psi, idx.n, idx.semantics)


def relinked(idx, i, j):
    """idx's Psi as a plain codec with positions i and j trading their
    successors, and their predecessors trading them, so that every cycle
    still closes and every step still enters the next section."""
    vals = idx.psi.values().copy()
    p, q = (int(np.flatnonzero(vals == x)[0]) for x in (i, j))
    vals[[i - 1, j - 1]] = vals[[j - 1, i - 1]]
    vals[[p, q]] = vals[[q, p]]
    return PlainPsi(vals)


def test_construction_proves_the_group_orders_and_d():
    # u = 1 sends to v = 2 and v = 4, and all three start-time-1 contacts
    # end at 3, so trading successors inside u's group or inside the
    # start group breaks one order each and nothing else
    cs = ContactSet([(1, 2, 1, 3), (1, 4, 1, 3), (2, 3, 1, 3), (3, 1, 2, 5)], nu=4, tau=6)
    idx = build_index(cs)
    n = idx.n

    def index(psi=idx.psi, D=idx.D):
        return TgcsaIndex(idx.am, D, psi, n, idx.semantics)
    assert index().latest_end.tolist() == [3 * n + 3, 3 * n + 4]
    with pytest.raises(ValueError, match="the group of the next position decreases"):
        index(relinked(idx, 1, 2))
    with pytest.raises(ValueError, match="Psi decreases along a start-time group"):
        index(relinked(idx, 2 * n + 1, 2 * n + 2))
    # the start section's first mark moved one position on: D keeps its
    # mark count and its per-section counts, but position 2n + 1 joins
    # the last group of section 2
    marks = idx.D.positions().tolist()
    assert 2 * n + 1 in marks and 2 * n + 2 not in marks
    moved = [m + (m == 2 * n + 1) for m in marks]
    with pytest.raises(ValueError, match="group bitmap disagrees with the sections"):
        index(D=BitSequence.from_positions(moved, 4 * n))


def escape_codec(escape_class, count, D):
    """A Huffman codec (t_psi 64) over one group: the sample 1, then count
    escapes of one class (0-63 up, 64-127 down), each with every raw bit
    set, the only symbol in the code."""
    lengths = bytearray(64 + NSV + 2 * ESC_CLASSES)
    lengths[64 + NSV + escape_class] = 1
    bits = ("0" + "1" * (escape_class % ESC_CLASSES - 1)) * count
    padded = bits + "0" * (-len(bits) % 8)
    stream = int("1" + padded, 2).to_bytes(len(padded) // 8 + 1, "big")[1:]
    return HuffRlePsi(bytes(lengths), [1], [0], stream, len(bits), D, 64)


def test_values_turn_away_psi_values_outside_int64():
    # Psi of three positions as one Huffman group: the sample 1, then two
    # escapes down by 2**63 each (values below -2**63), or one escape up
    # by 2**63 + NSV + 1 (a value past 2**63). The constructor's decode,
    # which every index's proof of Psi reads, rejects each escape before
    # it sums anything. A vbyte load rejects any code that could sum past
    # int64.
    D = BitSequence.from_positions([1], 3)
    for escape_class, count in ((ESC_CLASSES + 63, 2), (63, 1)):
        with pytest.raises(ValueError, match="changes the value by more than"):
            escape_codec(escape_class, count, D)


@pytest.mark.parametrize("arity", (4, 3))
@pytest.mark.parametrize("codec", ("plain", "vbyte-rle", "huff-rle-opt"))
def test_verify_core_reports_the_first_contact_that_differs(codec, arity):
    # one contact's end time (its time at arity 3) moves by one step; the
    # index still reconstructs the contacts it was built from
    rng = random.Random(41)
    rows = [(rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 10)) for _ in range(80)]
    rows = [(u, v, ts, ts + rng.randint(1, 5)) if arity == 4 else (u, v, ts)
            for u, v, ts in rows]
    cs = ContactSet(rows, arity=arity, nu=9, tau=16)
    moved = list(rows)
    moved[37] = (*rows[37][:-1], rows[37][-1] + 1)
    other = ContactSet(moved, arity=arity, nu=9, tau=16)
    idx = build_index(cs, codec=codec, t_psi=8)
    assert verify_core(idx, cs) == []
    q = next(q for q, (a, b) in enumerate(zip(cs.tuples(), other.tuples())) if a != b)
    assert verify_core(idx, other) == [
        f"first-section position {q + 1} reconstructs {cs.tuples()[q]}, "
        f"expected {other.tuples()[q]}"]
    # a contact set of the other arity is reported at the first position
    rows = [r[:3] for r in rows] if arity == 4 else [(*r, r[2] + 1) for r in rows]
    third = ContactSet(rows, arity=7 - arity, nu=9, tau=16)
    assert verify_core(idx, third) == [
        f"first-section position 1 reconstructs {cs.tuples()[0]}, "
        f"expected {third.tuples()[0]}"]


def test_index_properties(g5_index):
    assert g5_index.kind == "tgcsa"
    assert g5_index.arity == 4
    assert g5_index.n == 5
    assert g5_index.nu == 5
    assert g5_index.tau == 8
    assert g5_index.sigma == 13
    assert g5_index.semantics == "interval"
    assert g5_index.size_bits() > 0
    parts = (g5_index.am.B.nbits + g5_index.D.nbits
             + g5_index.psi.size_bits())
    assert g5_index.size_bits() == parts


def test_build_index_rejects_unknown_codec(g5):
    with pytest.raises(ValueError):
        build_index(g5, codec="lzma")
