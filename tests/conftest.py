"""Shared fixtures: a small worked example with frozen expectations,
naive reference constructions, and random contact-set helpers.

The naive builders here are deliberately independent of the package
internals (doubled-string rotation sort, dict-based permutation
inversion, loop-based oracle) so the fast implementations are checked
against a second route, not against themselves.
"""

import random

import pytest

from tgcsa.corpus import ContactSet
from tgcsa.query import TimeSemantics

# Five contacts over five vertices and eight time steps; every frozen
# constant below was derived by hand from the definitions.
G5_CONTACTS = [(1, 3, 1, 8), (1, 4, 5, 8), (2, 1, 1, 6), (4, 3, 7, 8), (4, 5, 5, 7)]
G5_NU = 5
G5_TAU = 8
G5_B_ONES = [1, 2, 4, 6, 8, 9, 10, 11, 15, 17, 24, 25, 26]
G5_SID = [1, 5, 8, 13, 1, 6, 9, 13, 2, 4, 8, 11, 3, 5, 10, 13, 3, 7, 9, 12]
G5_A = [1, 5, 9, 13, 17, 10, 2, 14, 6, 18, 11, 3, 19, 7, 15, 12, 20, 4, 8, 16]
G5_PSI = [7, 9, 6, 8, 10, 11, 12, 15, 14, 13, 16, 18, 17, 19, 20, 3, 5, 1, 2, 4]
G5_D = "10110110111010111100"


@pytest.fixture
def g5():
    return ContactSet(G5_CONTACTS)


@pytest.fixture
def g5_index(g5):
    from tgcsa.sacsa import build_index
    return build_index(g5)


def naive_rotation_array(sid, arity):
    """Rotation order by comparing doubled-string slices, with the first
    section pinned to contact order; 1-based."""
    total = len(sid)
    n = total // arity
    doubled = list(sid) * 2
    A = [q * arity for q in range(n)]
    for s in range(1, arity):
        starts = sorted(range(s, total, arity),
                        key=lambda p: (doubled[p:p + total], p))
        A += starts
    return [p + 1 for p in A]


def naive_psi(A):
    """Successor permutation of a rotation array, 1-based."""
    total = len(A)
    inv = {a: i + 1 for i, a in enumerate(A)}
    return [inv[(a % total) + 1] for a in A]


def naive_adjust(psi, arity):
    """Remap the last section onto its own contacts' first positions."""
    total = len(psi)
    n = total // arity
    out = list(psi)
    for i in range((arity - 1) * n, total):
        out[i] = ((out[i] - 2) % n) + 1
    return out


def naive_d(sid, A):
    first = [sid[a - 1] for a in A]
    return [1 if i == 0 or first[i] != first[i - 1] else 0
            for i in range(len(A))]


class PyOracle:
    """Loop-based ground truth over raw contact rows."""

    def __init__(self, rows, arity=4, semantics=None, nu=None, tau=None):
        self.rows = [tuple(r) for r in rows]
        self.arity = arity
        self.semantics = semantics or ("interval" if arity == 4 else "incremental")
        self.nu = nu if nu is not None else max((max(r[0], r[1]) for r in rows), default=0)
        if tau is not None:
            self.tau = tau
        elif arity == 4:
            self.tau = max((r[3] for r in rows), default=0)
        else:
            self.tau = max((r[2] for r in rows), default=0)

    def _alive(self, row, sem):
        if sem.kind == "instant":
            p1 = p2 = sem.t
        elif sem.kind == "strong":
            p1, p2 = sem.t, sem.t_end - 1
        else:
            p1, p2 = sem.t_end - 1, sem.t
        if self.semantics == "interval":
            return row[2] <= p1 and row[3] > p2
        if self.semantics == "incremental":
            return row[2] <= p1 and p2 < self.tau
        return p2 <= row[2] <= p1

    def direct_neighbors(self, u, sem):
        return sorted({r[1] for r in self.rows if r[0] == u and self._alive(r, sem)})

    def reverse_neighbors(self, v, sem):
        return sorted({r[0] for r in self.rows if r[1] == v and self._alive(r, sem)})

    def active_edge(self, u, v, sem):
        return any(r[0] == u and r[1] == v and self._alive(r, sem)
                   for r in self.rows)

    def snapshot(self, sem, contacts=False):
        if contacts:
            return sorted({r for r in self.rows if self._alive(r, sem)})
        return sorted({(r[0], r[1]) for r in self.rows if self._alive(r, sem)})

    def activated_edges(self, t, t_end=None):
        t_end = t + 1 if t_end is None else t_end
        return sorted({(r[0], r[1]) for r in self.rows if t <= r[2] < t_end})

    def deactivated_edges(self, t, t_end=None):
        t_end = t + 1 if t_end is None else t_end
        out = set()
        for r in self.rows:
            te = r[3] if self.arity == 4 else r[2] + 1
            if t <= te < t_end:
                out.add((r[0], r[1]))
        return sorted(out)


def random_rows(rng: random.Random, nu, tau, n_edges, max_contacts=3,
                duplicates=False, overlap=True):
    """Contact rows over random edges; overlap=False keeps every edge's
    intervals pairwise disjoint and the edges distinct."""
    rows = []
    pairs = set()
    for _ in range(n_edges):
        u = rng.randint(1, nu)
        v = rng.randint(1, nu)
        if not overlap:
            if (u, v) in pairs:
                continue
            pairs.add((u, v))
        k = rng.randint(1, max_contacts)
        if overlap:
            for _ in range(k):
                ts = rng.randint(1, tau - 1)
                te = rng.randint(ts + 1, tau)
                rows.append((u, v, ts, te))
                if duplicates and rng.random() < 0.3:
                    rows.append((u, v, ts, te))
        else:
            k = min(k, tau // 2)
            cuts = sorted(rng.sample(range(1, tau + 1), 2 * k))
            for i in range(k):
                rows.append((u, v, cuts[2 * i], cuts[2 * i + 1]))
    if not rows:
        rows.append((1, 1, 1, max(2, tau)))
    return rows


def random_contactset(seed, nu=None, tau=None, n_edges=None,
                      duplicates=False, overlap=True):
    rng = random.Random(seed)
    nu = nu or rng.randint(3, 12)
    tau = tau or rng.randint(4, 16)
    n_edges = n_edges or rng.randint(1, 14)
    rows = random_rows(rng, nu, tau, n_edges,
                       duplicates=duplicates, overlap=overlap)
    return ContactSet(rows, arity=4, nu=nu, tau=tau)


def assert_same_answers(a, b, rng: random.Random, instants=8, intervals=5,
                        vertices=4):
    """Compare every operation on two indexes over random times."""
    nu, tau = a.nu, a.tau
    incremental = getattr(a, "semantics", "interval") == "incremental"

    def pick():
        return [rng.randint(1, nu) for _ in range(vertices)]

    for _ in range(instants):
        t = rng.randint(1, tau)
        sem = TimeSemantics.instant(t)
        for u in pick():
            assert a.direct_neighbors(u, sem) == b.direct_neighbors(u, sem)
            assert a.reverse_neighbors(u, sem) == b.reverse_neighbors(u, sem)
        for u, v in zip(pick(), pick()):
            assert a.active_edge(u, v, sem) == b.active_edge(u, v, sem)
        assert a.snapshot(sem) == b.snapshot(sem)
        assert a.snapshot(sem, contacts=True) == b.snapshot(sem, contacts=True)
        assert a.activated_edges(t) == b.activated_edges(t)
        if not incremental:
            assert a.deactivated_edges(t) == b.deactivated_edges(t)
    for _ in range(intervals):
        t = rng.randint(1, tau)
        t_end = rng.randint(t + 1, tau + 1)
        for sem in (TimeSemantics.strong(t, t_end), TimeSemantics.weak(t, t_end)):
            for u in pick():
                assert a.direct_neighbors(u, sem) == b.direct_neighbors(u, sem)
                assert a.reverse_neighbors(u, sem) == b.reverse_neighbors(u, sem)
            for u, v in zip(pick(), pick()):
                assert a.active_edge(u, v, sem) == b.active_edge(u, v, sem)
        strong = TimeSemantics.strong(t, t_end)
        assert a.snapshot(strong) == b.snapshot(strong)
        assert a.snapshot(strong, contacts=True) == b.snapshot(strong, contacts=True)
        assert a.activated_edges(t, t_end) == b.activated_edges(t, t_end)
        if not incremental:
            assert a.deactivated_edges(t, t_end) == b.deactivated_edges(t, t_end)
