"""Index construction: rotation order, the Psi permutation, and core checks.

The id sequence of the sorted contacts is treated as a cyclic string of
length arity*n. Conceptually every rotation is sorted; because each
section draws from its own id range, the sorted rotation array A falls
apart into one block per section. The first block is pinned to contact
order outright (the cyclic fix-up below relies on it); the remaining
blocks are true rotation order with ties broken by ascending start
position.

Sorted input gives that order in closed form. A rotation opening at
section s of contact c reads the rest of contact c, then the whole
rotation opening at contact c+1 (cyclically). Rotations opening at
contacts sort in contact order, except for degenerate repeated tails: a
trailing run of equal contacts wraps onto the smaller first contact, so
the run sorts in reverse, and when all contacts are equal every rotation
ties. The later blocks then follow from the last one down, as in
prefix-doubling suffix sorting: a rotation is its own id followed by
the next rotation, so each block is one stable sort by two columns, the
section's ids and the rank of the rotation that follows. That rank is
the closed-form rank of the next contact's first rotation for the last
block, and for every other block the position in the block just sorted.

Psi[i] is the rank of the successor rotation of A[i]. Entries of the
last section are then remapped with ((Psi[i] - 2) mod n) + 1 so that
instead of pointing at the *next* contact's first entry they point at
their own contact's first entry, closing each contact into a cycle of
length arity. Only B, D and the encoded Psi survive into the index; A
is scaffolding.
"""

from __future__ import annotations

import numpy as np

from . import psienc, query
from .bitseq import BitSequence
from .corpus import AlphabetMap, ContactSet, _packed_order, build_sid


def build_rotation_array(sid: np.ndarray, arity: int) -> np.ndarray:
    """The 1-based rotation array A: section 1 in contact order, the rest
    in rotation order with positional tie-breaks.

    Sections are sorted from the last down to the second, each by its
    ids, then by the rank of the rotation that follows, and each order is
    inverted into the rank the section before it reads.

    sid must hold the contacts in sorted order, as build_sid gives them.
    """
    total = len(sid)
    if total % arity:
        raise ValueError("id sequence length is not a multiple of the arity")
    n = total // arity
    rows = np.asarray(sid, dtype=np.int64).reshape(n, arity)
    # leading id difference of each adjacent contact pair, 0 if they are equal
    step = np.diff(rows, axis=0)
    lead = step[np.arange(n - 1), np.argmax(step != 0, axis=1)]
    if np.any(lead < 0):
        raise ValueError("id sequence is not in sorted contact order")
    # rank of the rotation opening at each contact: contact order, except
    # that a trailing run of equal contacts wraps onto the smaller first
    # contact and so ranks in reverse, and all-equal contacts tie
    breaks = np.flatnonzero(lead)
    if len(breaks):
        rank = np.arange(n, dtype=np.int64)
        t = int(breaks[-1]) + 1
        rank[t:] = rank[:t - 1:-1]
    else:
        rank = np.zeros(n, dtype=np.int64)
    # a last-section rotation is followed by the next contact's first rotation
    rank = np.roll(rank, -1)
    starts = np.arange(n, dtype=np.int64) * arity
    A = np.empty(total, dtype=np.int64)
    A[:n] = starts
    for s in range(arity - 1, 0, -1):
        order = _packed_order((rows[:, s], rank))
        A[s * n:(s + 1) * n] = starts[order] + s
        rank[order] = np.arange(n)
    return A + 1


def compute_psi(A: np.ndarray) -> np.ndarray:
    """Psi[i] = position of the successor rotation in A, before the fix-up."""
    total = len(A)
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    a0 = A - 1
    inv = np.empty(total, dtype=np.int64)
    inv[a0] = np.arange(total, dtype=np.int64)
    return inv[(a0 + 1) % total] + 1


def cyclic_adjust(psi: np.ndarray, arity: int) -> np.ndarray:
    """Remap the last section so each end entry points at its own contact."""
    total = len(psi)
    n = total // arity
    out = psi.copy()
    if n:
        tail = out[(arity - 1) * n:]
        out[(arity - 1) * n:] = ((tail - 2) % n) + 1
    return out


def build_d(sid: np.ndarray, A: np.ndarray) -> BitSequence:
    """Group marks along A: a one wherever a new first symbol starts."""
    # ids are >= 1, so the prepended 0 marks position 1
    starts = np.flatnonzero(np.diff(sid[A - 1], prepend=0)) + 1
    return BitSequence.from_positions(starts, len(A))


class TgcsaIndex:
    """The built self-index: alphabet map, group marks D, encoded Psi.

    Immutable after construction; queries live in the query module and
    are also exposed as methods for interface parity with the baselines.

    The constructor, which build and load share, proves all of Psi as
    values() decodes it (_prove), and at arity 4 derives from the same
    array latest_end: per start-time group, in group order, Psi at its
    last position. Psi never decreases along a group, so that is the
    group's latest end, which the proof put in the end section with no
    check of its own. start_group0 is the id of the group before the
    first start group (rank1 of 2n), so position y's start group is
    latest_end[D.rank1(y) - start_group0 - 1].
    """

    kind = "tgcsa"

    def __init__(self, am: AlphabetMap, D: BitSequence, psi, n: int, semantics: str):
        self.am = am
        self.D = D
        self.psi = psi
        self.n = n
        self.arity = am.arity
        self.semantics = semantics
        self.start_group0 = 0
        self.latest_end = np.zeros(0, dtype=np.int64)
        if n:
            vals = _prove(psi, am, D, n)
            if self.arity == 4:  # the proof put a mark at 3n + 1
                a = self.start_group0 = D.rank1(2 * n)
                self.latest_end = vals[D.positions()[a + 1:D.rank1(3 * n) + 1] - 2]

    @property
    def nu(self) -> int:
        return self.am.nu

    @property
    def tau(self) -> int:
        return self.am.tau

    @property
    def sigma(self) -> int:
        return self.am.sigma

    @property
    def codec(self) -> str:
        return self.psi.name

    def size_bits(self) -> int:
        """Stored payload bits: both bitmaps plus the Psi encoding."""
        return self.am.B.nbits + self.D.nbits + self.psi.size_bits()

    def __repr__(self):
        return (f"TgcsaIndex(n={self.n}, arity={self.arity}, nu={self.nu}, "
                f"tau={self.tau}, codec={self.codec!r})")

    # uniform query surface (shared with EdgeLogIndex / OracleIndex)

    def direct_neighbors(self, u, sem):
        return query.direct_neighbors(self, u, sem)

    def reverse_neighbors(self, v, sem):
        return query.reverse_neighbors(self, v, sem)

    def active_edge(self, u, v, sem):
        return query.active_edge(self, u, v, sem)

    def snapshot(self, sem, contacts=False):
        return query.snapshot(self, sem, contacts=contacts)

    def activated_edges(self, t, t_end=None):
        return query.activated_edges(self, t, t_end)

    def deactivated_edges(self, t, t_end=None):
        return query.deactivated_edges(self, t, t_end)


def _prove(psi, am: AlphabetMap, D: BitSequence, n: int) -> np.ndarray:
    """psi.values(), proved: ValueError unless each section opens with a
    group of D and holds as many as B has symbols, and every value steps
    into the next section and back to each section-1 start in arity
    steps (so each step is onto the next section). Along a group of
    sections 1..arity-1 the next position's group never decreases (only
    a descent can break that), nor at arity 4 does Psi in a start group."""
    vals, arity, total, marks = psi.values(), am.arity, am.arity * n, D.positions()
    first = np.arange(arity) * n + 1                 # each section's first position
    before = np.searchsorted(am.values, am.gaps, side="right")  # B's symbols before each
    if D.ones != am.sigma or not np.array_equal(np.append(marks, 0)[before], first):
        raise ValueError("group bitmap disagrees with the sections of the alphabet")
    nxt, by_section = np.roll(first, -1), vals.reshape(arity, n)
    if np.any(by_section.min(axis=1) < nxt) or np.any(by_section.max(axis=1) >= nxt + n):
        raise ValueError(f"Psi holds a value outside 1..{total} or its next section")
    cur = np.arange(1, n + 1)
    for _ in range(arity):
        cur = vals[cur - 1]
    if np.any(cur != np.arange(1, n + 1)):
        raise ValueError("Psi cycles do not close after arity steps")
    inner = np.bincount(marks, minlength=total + 1) == 0  # inner[i + 1]: i + 1 is in i's group
    m = (arity - 1) * n
    down = np.flatnonzero(inner[2:m + 1] & (vals[1:m] < vals[:m - 1]))
    if np.any(np.searchsorted(marks, vals[down + 1], side="right")
              < np.searchsorted(marks, vals[down], side="right")):
        raise ValueError("along a group, the group of the next position decreases")
    if arity == 4 and np.any((2 * n <= down) & (down < 3 * n)):
        raise ValueError("Psi decreases along a start-time group")
    return vals


def build_index(cs: ContactSet, codec: str = "plain", t_psi: int = 64) -> TgcsaIndex:
    """Build the full index for a contact set."""
    am = AlphabetMap.build(cs)
    sid = build_sid(cs, am)
    A = build_rotation_array(sid, cs.arity)
    psi = cyclic_adjust(compute_psi(A), cs.arity)
    D = build_d(sid, A)
    enc = psienc.encode(psi, D, codec=codec, t_psi=t_psi)
    return TgcsaIndex(am, D, enc, len(cs), cs.semantics)


def verify_core(idx: TgcsaIndex, cs: ContactSet | None = None) -> list[str]:
    """Human-readable violations of a built index against its source
    contacts: position q of the first section must reconstruct the q-th
    sorted contact (the pinned first-section order). The index proved
    its Psi and D when it was constructed (_prove)."""
    if cs is None or len(cs) == idx.n == 0:
        return []
    if len(cs) != idx.n:
        return ["contact count differs from n"]
    # All cycles at once: the contact at first-section position q has its
    # terms at q, psi(q), psi(psi(q)), ...
    vals, pos, got = idx.psi.values(), np.arange(1, idx.n + 1), []
    for section in range(1, idx.arity + 1):
        got.append(query._terms(idx, pos, section))
        pos = vals[pos - 1]
    want = [c for c in (cs.u, cs.v, cs.ts, cs.te) if c is not None]
    bad = ([0] if len(got) != len(want)  # a contact set of another arity
           else np.flatnonzero((np.array(got) != np.array(want)).any(axis=0)))
    return [f"first-section position {q + 1} reconstructs {tuple(int(c[q]) for c in got)}, "
            f"expected {tuple(int(c[q]) for c in want)}" for q in bad[:1]]
