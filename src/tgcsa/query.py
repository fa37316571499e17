"""Queries over the built index.

Every operation reduces to the same trick. Contacts are cycles of length
arity through Psi, one position per section, and each section keeps its
groups in increasing symbol order. So "started no later than t" is a
single position comparison against the right edge of a start-time group,
and "still open after t" is one against an end-time group. The three
time semantics (an instant, an interval the contact must cover, an
interval it merely has to touch) only move those two cut points.

Inside a group of sections 1..arity-1 the rotations are sorted by what
follows, so the symbol of the next position never decreases along the
group. The positions whose next symbol lies in a range of groups of the
next section are then one stretch of the group, and one Psi walk,
psi.stretch, finds and decodes it: it bisects the codec's samples for
the stretch's start instead of hopping entry by entry, then decodes
forward to its end. pattern_range makes one walk per id, active_edge
hands the pair walk's values straight to its hops, and reverse_neighbors
walks only the part of its group inside the window. The pair and
direct queries find each target's contacts started by the cut with one
walk, psi.lead, that ends at the first contact started after the cut
and keeps the start-section positions it decodes on the way, from the
sample it starts at: the started contacts it passes take no hop.

The same order makes each start-time group's last Psi value its latest
end, which the index derives at arity 4 (latest_end). A group whose
latest end lies by the end cut holds no live contact, so the pair and
neighbour queries take no end hop for its contacts, and snapshot visits
only the other groups, decoding in each only its live suffix with one
stretch walk: it decodes exactly its live contacts. When no start group
up to the start cut ends by the end cut, which the running minimum of
latest_end tells in one lookup, the pair and neighbour queries leave
the group test out, so contacts that outlast the cuts do not pay for
it. The pair and both neighbour queries need no contact's end itself,
only whether it lies past the end cut, and decide it with one end
test, _end_test: the group test, then psi.exceeds, where by the same
order the samples on either side of a start position settle most
contacts with no decode. reverse_neighbors hops on to the end section
only from the live contacts. The change queries, and snapshot at arity
3, scan their window.

Positions are 1-based throughout, matching the bitmaps. Every time cut
is the right edge of a time group (_cut), and a window is the stretch
between two cuts (_window). The window queries (snapshot, activated and
deactivated edges) hop from it to the section-1 and section-2 positions
of their contacts in batches: each hop is one psi.access_many call,
which decodes every sample block the hop touches once. The other
queries make a handful of hops each and keep pointwise psi.access: a
vbyte batch has a fixed cost of some 25 single accesses, and a Huffman
batch, with little fixed cost, would share no decode, since a neighbour
query's hops nearly all fall in distinct sample blocks (on both sampled
codecs a block opens at every group start). Lists of positions
become terms in one array step: a position's symbol id is the number
of D's group marks up to it (np.searchsorted on D's one-positions), and
the term is values[id - 1] less the section's gap. No query checks a
decoded value, since the index proved Psi and D when built (sacsa._prove).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Contact
from .psienc import TOP


@dataclass(frozen=True)
class TimeSemantics:
    """A point or interval of query time plus how intervals are meant.

    kind is one of instant, strong (contact alive the whole interval) or
    weak (alive at some moment of it). Intervals are half-open [t, t_end).
    """

    kind: str
    t: int
    t_end: int | None = None

    def __post_init__(self):
        if self.kind not in ("instant", "strong", "weak"):
            raise ValueError(f"unknown time semantics {self.kind!r}")
        if self.kind == "instant":
            if self.t_end is not None:
                raise ValueError("an instant has no end time")
        elif self.t_end is None:
            raise ValueError(f"{self.kind} semantics needs an interval")

    @classmethod
    def instant(cls, t: int) -> "TimeSemantics":
        return cls("instant", t)

    @classmethod
    def strong(cls, t: int, t_end: int) -> "TimeSemantics":
        return cls("strong", t, t_end)

    @classmethod
    def weak(cls, t: int, t_end: int) -> "TimeSemantics":
        return cls("weak", t, t_end)

    def cuts(self) -> tuple[int, int]:
        """The two comparison points (start side, end side)."""
        if self.kind == "instant":
            return self.t, self.t
        if self.kind == "strong":
            return self.t, self.t_end - 1
        return self.t_end - 1, self.t


def _check_sem(idx, sem: TimeSemantics) -> tuple[int, int]:
    if sem.kind == "instant":
        if not 1 <= sem.t <= idx.tau:
            raise ValueError(f"instant {sem.t} outside [1, {idx.tau}]")
    else:
        if not 1 <= sem.t < (sem.t_end or 0) <= idx.tau + 1:
            raise ValueError(
                f"interval [{sem.t}, {sem.t_end}) not within [1, {idx.tau + 1})")
    return sem.cuts()


def symbol_range(idx, c: int) -> tuple[int, int]:
    """Positions [l, r] of symbol c's group."""
    if not 1 <= c <= idx.sigma:
        raise ValueError(f"symbol id {c} outside [1, {idx.sigma}]")
    l = idx.D.select1(c)
    r = idx.D.select1(c + 1) - 1 if c < idx.sigma else idx.arity * idx.n
    return l, r


def _cut(idx, section: int, value: int) -> int:
    """Last position of the groups of time section 3 or 4 whose time is
    at most value."""
    c = idx.am.getmap_floor(value, section)
    if c >= idx.sigma:
        return idx.arity * idx.n
    return idx.D.select1(c + 1) - 1


def _window(idx, section: int, after: int, upto: int) -> tuple[int, int]:
    """Positions [lo, hi] of the contacts whose time in the section lies
    in (after, upto]; lo > hi when there are none."""
    first = (section - 1) * idx.n + 1
    return max(_cut(idx, section, after) + 1, first), _cut(idx, section, upto)


def time_bounds(idx, t: int) -> tuple[int, int | None]:
    """(start cut, end cut) for instant t; the end cut is None without
    an end-time section."""
    return _cut(idx, 3, t), (_cut(idx, 4, t) if idx.arity == 4 else None)


def _next_in(idx, a: int, b: int, c: int) -> tuple[int, list[int]]:
    """The first position in [a, b] whose Psi falls in symbol c's group
    or past it (b + 1 if none), and the Psi values from there on that
    fall in the group: one stretch walk."""
    cl, cr = symbol_range(idx, c)
    return idx.psi.stretch(a, b, cl, cr + 1)


def pattern_range(idx, ids) -> tuple[int, int]:
    """Positions [l, r] in the first id's section whose rotations start
    with the given id sequence; l > r means no match.

    Along a group of sections 1..arity-1 the symbol of the next position
    never decreases, so the rotations that go on with id c are those
    whose next position falls in c's group: one Psi walk per id over the
    positions reached so far finds them, and its values are where the
    kept rotations go next. From the third id on, those positions are
    one hop past the kept ones and no longer contiguous; they are walked
    over the window they span and filtered by it.
    """
    ids = list(ids)
    if not ids:
        raise ValueError("empty pattern")
    l, r = symbol_range(idx, ids[0])
    at = None  # from the second id on: the position each rotation of [l, r] has reached
    for k, c in enumerate(ids[1:]):
        if l > r or not 1 <= c <= idx.sigma:
            return l, l - 1
        if at is None:
            l, at = _next_in(idx, l, r, c)
            r = l + len(at) - 1
            continue
        if k > 1:
            at = [idx.psi.access(p) for p in at]
        lo, vals = _next_in(idx, min(at), max(at), c)
        hi = lo + len(vals) - 1
        kept = [j for j, p in enumerate(at) if lo <= p <= hi]
        if not kept:
            return l, l - 1
        at = at[kept[0]:kept[-1] + 1]
        l, r = l + kept[0], l + kept[-1]
    return l, r


def _section3_window(idx, p1: int, p2: int):
    """(lo, hi, z_floor) for the cut points: live contacts have their
    start-section position inside [lo, hi], and when z_floor is set their
    end-section position must lie beyond it. z_floor is the right edge
    of an end-time group, so a start group has a live contact exactly
    when its latest end lies past z_floor.

    Contacts without a stored end behave as if open until the lifetime
    (incremental) or for exactly one step (point), which folds the end
    test into the window itself.
    """
    base = 2 * idx.n
    if idx.semantics == "interval":
        return base + 1, _cut(idx, 3, p1), _cut(idx, 4, p2)
    if idx.semantics == "incremental":
        if p2 >= idx.tau:
            return base + 1, base, None
        return base + 1, _cut(idx, 3, p1), None
    return (*_window(idx, 3, p2 - 1, p1), None)


def _terms(idx, positions, section: int) -> np.ndarray:
    """The section's terms at the given Psi positions, as one array.

    A position's symbol id is the number of group marks of D up to it,
    and the id's shifted value is values[id - 1]. The positions, a list
    or a codec's int64 array, lie in 1..arity*n, as the index proved of
    every Psi value.
    """
    ids = np.searchsorted(idx.D.positions(), positions, side="right")
    return idx.am.values[ids - 1] - idx.am.gaps[section - 1]


def _edges(idx, pos1) -> list[tuple[int, int]]:
    """Sorted distinct (u, v) of the contacts at section-1 positions pos1."""
    u = _terms(idx, pos1, 1).tolist()
    v = _terms(idx, idx.psi.access_many(pos1), 2).tolist()
    return sorted(set(zip(u, v)))


def _pruned_groups(idx, hi: int, zfloor: int) -> int:
    """How many start groups up to position hi the group test must look
    at: all of them when one has its latest end by zfloor, else 0, since
    no end hop can then be skipped. One lookup in latest_end_min, so
    that inputs whose contacts outlast the cuts do not pay for the test."""
    k = idx.D.rank1(hi) - idx.start_group0
    return k if k > 0 and idx.latest_end_min[k - 1] <= zfloor else 0


def _end_test(idx, hi: int, zfloor: int):
    """A function of the start-section position y of a contact started
    by position hi: whether the contact ends past zfloor. It asks
    psi.exceeds, which a start group allows, since Psi never decreases
    along it and zfloor is the right edge of an end group; the samples
    around y settle most contacts without a decode. It asks only when
    y's start group's latest end lies past zfloor. y, at most hi and a
    section-2 position's Psi value, lies in a start group (sacsa._prove)."""
    exceeds = idx.psi.exceeds
    if not _pruned_groups(idx, hi, zfloor):
        return lambda y: exceeds(y, zfloor)
    rank1, latest, first = idx.D.rank1, idx.latest_end, idx.start_group0 + 1
    return lambda y: latest[rank1(y) - first] > zfloor and exceeds(y, zfloor)


def _live_targets(idx, pos2: list[int], groups: list[int], lo: int, hi: int,
                  zfloor) -> list[int]:
    """Section-2 groups among pos2 that hold a contact alive in the window.

    pos2 holds the section-2 positions of a range of one source's
    section-1 group, in contact order, and groups the section-2 group of
    each: the positions of one target are adjacent, their groups ascend,
    and within a target their start times ascend. A target with one
    contact takes one hop and, when there is an end cut, the end test.
    For more, one Psi walk over the span of its positions finds the
    first one that starts after the cut (psi.lead), and keeps the
    start-section positions it decoded on the way, from the sample
    before that one. The started contacts are then tested from the
    latest start down: each takes its start-section position from the
    walk, or a hop when it lies before the walk's first position, and
    the test stops at the first live contact, or at the first contact
    that started before the lower cut (point semantics).
    """
    access, lead = idx.psi.access, idx.psi.lead
    ends_past = None  # the end test, made when a contact first needs it
    out = []
    j, m = 0, len(pos2)
    while j < m:
        c = groups[j]
        k = j + 1
        while k < m and groups[k] == c:
            k += 1
        if k == j + 1:
            y = access(pos2[j])
            live = lo <= y <= hi
            if live and zfloor is not None:
                ends_past = ends_past or _end_test(idx, hi, zfloor)
                live = ends_past(y)
        else:
            run = pos2[j:k]
            first, ys = lead(min(run), max(run), hi + 1)
            end = first + len(ys)  # the first position that starts after the cut
            live = False
            for q in reversed(run):
                if q >= end:
                    continue
                y = ys[q - first] if q >= first else access(q)
                if y < lo:
                    break
                if zfloor is not None:
                    ends_past = ends_past or _end_test(idx, hi, zfloor)
                    if not ends_past(y):
                        continue
                live = True
                break
        if live:
            out.append(c)
        j = k
    return out


def direct_neighbors(idx, u: int, sem: TimeSemantics) -> list[int]:
    """Distinct targets of contacts from u alive under sem, ascending."""
    if idx.n == 0:
        return []
    p1, p2 = _check_sem(idx, sem)
    if not 1 <= u <= idx.nu:
        return []
    c = idx.am.getmap(u, 1)
    if c == 0:
        return []
    lo, hi, zfloor = _section3_window(idx, p1, p2)
    if lo > hi:
        return []
    l, r = symbol_range(idx, c)
    pos2 = idx.psi.range(l, r)
    groups = np.searchsorted(idx.D.positions(), pos2, side="right").tolist()
    return [idx.am.getunmap(c2, 2)
            for c2 in _live_targets(idx, pos2, groups, lo, hi, zfloor)]


def reverse_neighbors(idx, v: int, sem: TimeSemantics) -> list[int]:
    """Distinct sources of contacts into v alive under sem, ascending.

    v's group is ordered by start time, so the contacts in the window
    are one stretch of it: one Psi walk finds its first position and
    decodes it, before any hop. With an end cut, the end test of the
    pair and direct queries picks the live contacts, and only they hop
    on through the end section to their source."""
    if idx.n == 0:
        return []
    p1, p2 = _check_sem(idx, sem)
    if not 1 <= v <= idx.nu:
        return []
    c = idx.am.getmap(v, 2)
    if c == 0:
        return []
    lo, hi, zfloor = _section3_window(idx, p1, p2)
    if lo > hi:
        return []
    access = idx.psi.access
    at = idx.psi.stretch(*symbol_range(idx, c), lo, hi + 1)[1]  # start-section positions
    if zfloor is not None:  # only the live contacts hop on, to their end section
        ends_past = _end_test(idx, hi, zfloor)
        at = [access(y) for y in at if ends_past(y)]
    return sorted(set(_terms(idx, [access(p) for p in at], 1).tolist()))


def active_edge(idx, u: int, v: int, sem: TimeSemantics) -> bool:
    """Whether some contact u -> v is alive under sem."""
    if idx.n == 0:
        return False
    p1, p2 = _check_sem(idx, sem)
    if not (1 <= u <= idx.nu and 1 <= v <= idx.nu):
        return False
    c1 = idx.am.getmap(u, 1)
    c2 = idx.am.getmap(v, 2)
    if c1 == 0 or c2 == 0:
        return False
    lo, hi, zfloor = _section3_window(idx, p1, p2)
    if lo > hi:
        return False
    pos2 = _next_in(idx, *symbol_range(idx, c1), c2)[1]
    return bool(_live_targets(idx, pos2, [c2] * len(pos2), lo, hi, zfloor))


def _live_suffixes(idx, hi: int, zfloor: int) -> tuple[list[int], list[int]]:
    """(starts, ends): the start- and end-section positions of the
    contacts that start in a group up to position hi and end past zfloor.

    Only the start groups whose latest end lies past zfloor are visited.
    Psi never decreases along a group, so the live contacts of each form
    its suffix: one stretch walk from the first value past zfloor.
    """
    a = idx.start_group0
    k = idx.D.rank1(hi) - a
    bounds = np.append(idx.D.positions()[a:a + k + 1], idx.arity * idx.n + 1).tolist()
    starts, ends = [], []
    for g in np.flatnonzero(idx.latest_end[:k] > zfloor).tolist():
        first, vals = idx.psi.stretch(bounds[g], bounds[g + 1] - 1, zfloor + 1, TOP)
        starts += range(first, first + len(vals))
        ends += vals
    return starts, ends


def snapshot(idx, sem: TimeSemantics, contacts: bool = False):
    """Edges alive under sem as sorted distinct (u, v) pairs.

    Interval snapshots cover the strong reading only; asking to merely
    touch the interval is rejected. With contacts=True the underlying
    contact tuples come back instead of collapsed edges.

    At arity 4 only the live suffixes of the start groups whose latest
    end lies past the end cut are decoded (_live_suffixes); at arity 3
    the whole window is, and Psi leads from it straight to section 1, to
    positions that need no check, since the index proved them.
    """
    if idx.n == 0:
        return []
    if sem.kind == "weak":
        raise ValueError("snapshot supports instants and covered intervals only")
    p1, p2 = _check_sem(idx, sem)
    lo, hi, zfloor = _section3_window(idx, p1, p2)
    if lo > hi:
        return []
    psi = idx.psi
    if zfloor is None:  # no end section: Psi leads from a start straight to section 1
        starts = np.arange(lo, hi + 1)
        pos1 = psi.range(lo, hi)
    else:
        starts, ends = _live_suffixes(idx, hi, zfloor)
        pos1 = psi.access_many(ends)
    if not contacts:
        return _edges(idx, pos1)
    cols = [_terms(idx, pos1, 1), _terms(idx, psi.access_many(pos1), 2),
            _terms(idx, starts, 3)]
    if zfloor is not None:
        cols.append(_terms(idx, ends, 4))
    return sorted(set(zip(*(c.tolist() for c in cols))))


def _check_event_time(idx, t: int, t_end: int | None) -> int:
    if t_end is None:
        if not 1 <= t <= idx.tau:
            raise ValueError(f"instant {t} outside [1, {idx.tau}]")
        return t + 1
    if not 1 <= t < t_end <= idx.tau + 1:
        raise ValueError(f"interval [{t}, {t_end}) not within [1, {idx.tau + 1})")
    return t_end


def _edges_in(idx, section: int, after: int, upto: int):
    """Distinct edges whose time in section 3 or 4 lies in (after, upto]."""
    lo, hi = _window(idx, section, after, upto)
    pos1 = idx.psi.range(lo, hi)
    if section < idx.arity:
        pos1 = idx.psi.access_many(pos1)
    return _edges(idx, pos1)


def activated_edges(idx, t: int, t_end: int | None = None):
    """Distinct edges with a contact starting in [t, t_end), sorted.
    A single t means starting exactly at t."""
    if idx.n == 0:
        return []
    t_end = _check_event_time(idx, t, t_end)
    return _edges_in(idx, 3, t - 1, t_end - 1)


def deactivated_edges(idx, t: int, t_end: int | None = None):
    """Distinct edges with a contact ending in [t, t_end), sorted."""
    if idx.n == 0:
        return []
    if idx.semantics == "incremental":
        raise ValueError("contacts never end under incremental semantics")
    t_end = _check_event_time(idx, t, t_end)
    if idx.semantics == "point":
        # a one-step contact ending in [t, t_end) started one step earlier
        lo_ts, hi_ts = max(t - 1, 1), t_end - 1
        if lo_ts >= hi_ts:
            return []
        return activated_edges(idx, lo_ts, hi_ts)
    return _edges_in(idx, 4, t - 1, t_end - 1)


def reconstruct_contact(idx, i: int) -> Contact:
    """The contact whose rotation cycle passes through position i."""
    total = idx.arity * idx.n
    if not 1 <= i <= total:
        raise ValueError(f"position {i} outside [1, {total}]")
    pos = i
    for _ in range(idx.arity):
        if pos <= idx.n:
            break
        pos = idx.psi.access(pos)
    terms = []
    for section in range(1, idx.arity + 1):
        terms.append(idx.am.getunmap(idx.D.rank1(pos), section))
        if section < idx.arity:
            pos = idx.psi.access(pos)
    return Contact(*terms)
