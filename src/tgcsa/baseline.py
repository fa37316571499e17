"""Reference implementations to measure and test against.

OracleIndex keeps the contacts as flat arrays and answers everything by
masked scans; it is the ground truth the compressed structures are
checked against. EdgeLogIndex is the classic adjacency-log layout: per
source a gap-coded list of targets, per edge a gap-coded alternating
sequence of start/end times, plus aggregated reverse lists. It only
makes sense when no two contacts of the same edge touch or overlap, and
refuses to build otherwise.
"""

from __future__ import annotations

import numpy as np

from .corpus import ContactSet, _packed_order
from .psienc import vbyte_codes, vbyte_decode
from .query import TimeSemantics, _check_event_time, _check_sem


class OverlapError(ValueError):
    """Contacts of one edge overlap or touch, so a log layout cannot hold them."""


class OracleIndex:
    """Plain scans over the raw contacts; slow, obviously correct."""

    kind = "oracle"

    def __init__(self, cs: ContactSet):
        self.cs = cs
        self.n = len(cs)
        self.nu = cs.nu
        self.tau = cs.tau
        self.arity = cs.arity
        self.semantics = cs.semantics

    def _live(self, p1: int, p2: int) -> np.ndarray:
        cs = self.cs
        if self.semantics == "interval":
            return (cs.ts <= p1) & (cs.te > p2)
        if self.semantics == "incremental":
            if p2 >= self.tau:
                return np.zeros(self.n, dtype=bool)
            return cs.ts <= p1
        return (cs.ts <= p1) & (cs.ts >= p2)

    def direct_neighbors(self, u: int, sem: TimeSemantics) -> list[int]:
        if self.n == 0:
            return []
        p1, p2 = _check_sem(self, sem)
        mask = self._live(p1, p2) & (self.cs.u == u)
        return np.unique(self.cs.v[mask]).tolist()

    def reverse_neighbors(self, v: int, sem: TimeSemantics) -> list[int]:
        if self.n == 0:
            return []
        p1, p2 = _check_sem(self, sem)
        mask = self._live(p1, p2) & (self.cs.v == v)
        return np.unique(self.cs.u[mask]).tolist()

    def active_edge(self, u: int, v: int, sem: TimeSemantics) -> bool:
        if self.n == 0:
            return False
        p1, p2 = _check_sem(self, sem)
        return bool(np.any(self._live(p1, p2) & (self.cs.u == u) & (self.cs.v == v)))

    def snapshot(self, sem: TimeSemantics, contacts: bool = False):
        if self.n == 0:
            return []
        p1, p2 = _check_sem(self, sem)
        mask = self._live(p1, p2)
        cs = self.cs
        if contacts:
            if self.arity == 4:
                rows = zip(cs.u[mask], cs.v[mask], cs.ts[mask], cs.te[mask])
            else:
                rows = zip(cs.u[mask], cs.v[mask], cs.ts[mask])
            return sorted(set(tuple(int(x) for x in row) for row in rows))
        pairs = set(zip(cs.u[mask].tolist(), cs.v[mask].tolist()))
        return sorted(pairs)

    def activated_edges(self, t: int, t_end: int | None = None):
        if self.n == 0:
            return []
        t_end = _check_event_time(self, t, t_end)
        cs = self.cs
        mask = (cs.ts >= t) & (cs.ts < t_end)
        return sorted(set(zip(cs.u[mask].tolist(), cs.v[mask].tolist())))

    def deactivated_edges(self, t: int, t_end: int | None = None):
        if self.n == 0:
            return []
        if self.semantics == "incremental":
            raise ValueError("contacts never end under incremental semantics")
        t_end = _check_event_time(self, t, t_end)
        cs = self.cs
        ends = cs.te if self.arity == 4 else cs.ts + 1
        mask = (ends >= t) & (ends < t_end)
        return sorted(set(zip(cs.u[mask].tolist(), cs.v[mask].tolist())))


def _dgap_lists(values: np.ndarray, bounds: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Byte codes of the lists values[bounds[i]:bounds[i + 1]], each value
    as its difference from the one before it in its list (the first from
    0). Returns the stream and the byte offset of every bound, so list
    i's codes lie between offsets i and i + 1."""
    gaps = np.diff(values, prepend=0)
    heads = bounds[:-1][bounds[:-1] < bounds[1:]]
    gaps[heads] = values[heads]
    stream, ends = vbyte_codes(gaps)
    return stream, np.append(0, ends)[bounds]


def _dgap_decode(stream, lo: int, hi: int) -> list[int]:
    out = []
    acc = 0
    pos = lo
    try:
        while pos < hi:
            g, pos = vbyte_decode(stream, pos)
            acc += g
            out.append(acc)
    except IndexError:   # ran off the end of the stream
        pos = hi + 1
    if pos > hi:
        raise ValueError("edge log code runs past the end of its list")
    return out


class EdgeLogIndex:
    """Adjacency log over non-overlapping contacts.

    Three byte streams with offset tables: targets per source, the
    alternating time sequence per edge, and sources per target. Time
    sequences are strictly increasing, which the build checks; the first
    failure is reported with the offending edge. A load checks each
    table's length against nu and the edge count, and its offsets against
    its stream; queries raise ValueError on lists that disagree with the
    tables.
    """

    kind = "edgelog"
    arity = 4
    semantics = "interval"

    def __init__(self, nu, tau, n, adj_stream, adj_off, edge_base,
                 time_stream, time_off, rev_stream, rev_off):
        self.nu = int(nu)
        self.tau = int(tau)
        self.n = int(n)
        self.adj_stream = bytes(adj_stream)
        self.adj_off = np.asarray(adj_off, dtype=np.int64)
        self.edge_base = np.asarray(edge_base, dtype=np.int64)
        self.time_stream = bytes(time_stream)
        self.time_off = np.asarray(time_off, dtype=np.int64)
        self.rev_stream = bytes(rev_stream)
        self.rev_off = np.asarray(rev_off, dtype=np.int64)

    @classmethod
    def build(cls, cs: ContactSet) -> "EdgeLogIndex":
        if cs.arity != 4:
            raise ValueError("the log layout stores start/end intervals only")
        n, nu = len(cs), cs.nu
        keys = cs.u.astype(np.int64) * (nu + 1) + cs.v
        fresh = np.ones(n, dtype=bool)
        if n:
            fresh[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(fresh)
        seq = np.empty(2 * n, dtype=np.int64)
        seq[0::2] = cs.ts
        seq[1::2] = cs.te
        diffs = np.diff(seq)
        ok = diffs > 0
        ok[2 * starts[1:] - 1] = True
        bad = np.flatnonzero(~ok)
        if len(bad):
            i = (int(bad[0]) + 1) // 2
            raise OverlapError(
                f"contacts on edge ({int(cs.u[i])}, {int(cs.v[i])}) overlap or touch")

        # edges in (u, v) order, and their sources in (v, u) order
        edge_u, edge_v = cs.u[starts], cs.v[starts]
        order = _packed_order((edge_v, edge_u))
        vertices = np.arange(nu + 1)
        edge_base = np.searchsorted(edge_u, vertices, side="right")
        adj, adj_off = _dgap_lists(edge_v, edge_base)
        times, time_off = _dgap_lists(seq, 2 * np.append(starts, n))
        rev, rev_off = _dgap_lists(edge_u[order],
                                   np.searchsorted(edge_v[order], vertices, side="right"))
        return cls(nu, cs.tau, n, adj, adj_off, edge_base,
                   times, time_off, rev, rev_off)

    def to_sections(self) -> list[bytes]:
        def i64(a):
            return np.asarray(a, dtype="<i8").tobytes()
        return [self.adj_stream, i64(self.adj_off), i64(self.edge_base),
                self.time_stream, i64(self.time_off),
                self.rev_stream, i64(self.rev_off)]

    @classmethod
    def from_sections(cls, nu: int, tau: int, n: int, sections) -> "EdgeLogIndex":
        if len(sections) != 7:
            raise ValueError(f"edge log has 7 sections, the image holds {len(sections)}")
        adj, adj_off, edge_base, times, time_off, rev, rev_off = sections
        adj_off, edge_base, time_off, rev_off = (
            np.frombuffer(b, dtype="<i8") for b in (adj_off, edge_base, time_off, rev_off))
        for name, table in (("adjacency", adj_off), ("edge base", edge_base),
                            ("reverse", rev_off)):
            if len(table) != nu + 1:
                raise ValueError(f"edge log {name} table has {len(table)} entries, "
                                 f"nu = {nu} needs {nu + 1}")
        if edge_base[0] != 0 or np.any(edge_base[1:] < edge_base[:-1]):
            raise ValueError("edge log edge bases do not rise from 0")
        if len(time_off) != edge_base[-1] + 1:
            raise ValueError(f"edge log time table has {len(time_off)} entries, "
                             f"{edge_base[-1]} edges need {edge_base[-1] + 1}")
        for name, table, stream in (("adjacency", adj_off, adj), ("time", time_off, times),
                                    ("reverse", rev_off, rev)):
            if table[0] != 0 or np.any(table[1:] < table[:-1]) or table[-1] != len(stream):
                raise ValueError(f"edge log {name} offsets do not run from 0 to "
                                 f"the end of their stream")
        return cls(nu, tau, n, adj, adj_off, edge_base, times, time_off, rev, rev_off)

    def size_bits(self) -> int:
        streams = len(self.adj_stream) + len(self.time_stream) + len(self.rev_stream)
        tables = (len(self.adj_off) + len(self.edge_base)
                  + len(self.time_off) + len(self.rev_off))
        return 8 * streams + 64 * tables

    def __repr__(self):
        return f"EdgeLogIndex(n={self.n}, nu={self.nu}, tau={self.tau})"

    def _vertices(self, stream, off, x: int) -> list[int]:
        out = _dgap_decode(stream, int(off[x - 1]), int(off[x]))
        if out and (out[0] < 1 or out[-1] > self.nu):
            raise ValueError(f"edge log list of vertex {x} names a vertex outside 1..{self.nu}")
        return out

    def _targets(self, u: int) -> list[int]:
        out = self._vertices(self.adj_stream, self.adj_off, u)
        if len(out) != self.edge_base[u] - self.edge_base[u - 1]:
            raise ValueError(f"edge log targets of {u} disagree with its edge count")
        return out

    def _sources(self, v: int) -> list[int]:
        return self._vertices(self.rev_stream, self.rev_off, v)

    def _times(self, e: int) -> list[int]:
        out = _dgap_decode(self.time_stream,
                           int(self.time_off[e]), int(self.time_off[e + 1]))
        if len(out) % 2:
            raise ValueError(f"edge log time list of edge {e} has odd length {len(out)}")
        return out

    def _edge_id(self, u: int, targets: list[int], v: int) -> int:
        return int(self.edge_base[u - 1]) + targets.index(v)

    @staticmethod
    def _alive(seq: list[int], p1: int, p2: int) -> bool:
        for i in range(0, len(seq), 2):
            if seq[i] > p1:
                break
            if seq[i + 1] > p2:
                return True
        return False

    def direct_neighbors(self, u: int, sem: TimeSemantics) -> list[int]:
        p1, p2 = _check_sem(self, sem)
        if not 1 <= u <= self.nu:
            return []
        targets = self._targets(u)
        base = int(self.edge_base[u - 1])
        return [v for k, v in enumerate(targets)
                if self._alive(self._times(base + k), p1, p2)]

    def reverse_neighbors(self, v: int, sem: TimeSemantics) -> list[int]:
        p1, p2 = _check_sem(self, sem)
        if not 1 <= v <= self.nu:
            return []
        out = []
        for u in self._sources(v):
            e = self._edge_id(u, self._targets(u), v)
            if self._alive(self._times(e), p1, p2):
                out.append(u)
        return out

    def active_edge(self, u: int, v: int, sem: TimeSemantics) -> bool:
        p1, p2 = _check_sem(self, sem)
        if not (1 <= u <= self.nu and 1 <= v <= self.nu):
            return False
        targets = self._targets(u)
        if v not in targets:
            return False
        return self._alive(self._times(self._edge_id(u, targets, v)), p1, p2)

    def snapshot(self, sem: TimeSemantics, contacts: bool = False):
        if sem.kind == "weak":
            raise ValueError("snapshot supports instants and covered intervals only")
        p1, p2 = _check_sem(self, sem)
        out = []
        for u in range(1, self.nu + 1):
            targets = self._targets(u)
            base = int(self.edge_base[u - 1])
            for k, v in enumerate(targets):
                seq = self._times(base + k)
                if contacts:
                    for i in range(0, len(seq), 2):
                        if seq[i] <= p1 and seq[i + 1] > p2:
                            out.append((u, v, seq[i], seq[i + 1]))
                elif self._alive(seq, p1, p2):
                    out.append((u, v))
        return out

    def _event_scan(self, t: int, t_end: int, offset: int):
        out = []
        for u in range(1, self.nu + 1):
            targets = self._targets(u)
            base = int(self.edge_base[u - 1])
            for k, v in enumerate(targets):
                seq = self._times(base + k)
                if any(t <= seq[i] < t_end for i in range(offset, len(seq), 2)):
                    out.append((u, v))
        return out

    def activated_edges(self, t: int, t_end: int | None = None):
        return self._event_scan(t, _check_event_time(self, t, t_end), 0)

    def deactivated_edges(self, t: int, t_end: int | None = None):
        return self._event_scan(t, _check_event_time(self, t, t_end), 1)
