"""Expected answers computed straight from the contact columns.

Nothing here touches the index or its time-cut arithmetic; every answer
follows from the definitions, with numpy masks over (u, v, ts, te):

* instant t:          ts <= t < te
* strong [t, t_end):  ts <= t and te >= t_end
* weak [t, t_end):    ts < t_end and te > t
* activated / deactivated in [t, t_end): ts (or te) falls in the window,
  a single t meaning the window [t, t + 1).
"""

from __future__ import annotations

import numpy as np


class Truth:
    """Answers for one contact set (4-term, interval semantics)."""

    def __init__(self, cs):
        if cs.arity != 4:
            raise ValueError("the benchmark workloads are 4-term contact sets")
        self.u = np.asarray(cs.u)
        self.v = np.asarray(cs.v)
        self.ts = np.asarray(cs.ts)
        self.te = np.asarray(cs.te)
        self.nu = cs.nu
        # contacts arrive sorted by (u, v, ts, te); a stable sort by v gives
        # each target's rows as one slice
        self.by_v = np.argsort(self.v, kind="stable")
        self.v_sorted = self.v[self.by_v]

    @staticmethod
    def _alive(ts, te, sem):
        if sem.kind == "instant":
            return (ts <= sem.t) & (sem.t < te)
        if sem.kind == "strong":
            return (ts <= sem.t) & (te >= sem.t_end)
        if sem.kind == "weak":
            return (ts < sem.t_end) & (te > sem.t)
        raise ValueError(f"unknown semantics {sem.kind!r}")

    def _rows_of_u(self, u):
        return slice(np.searchsorted(self.u, u, "left"),
                     np.searchsorted(self.u, u, "right"))

    def _edges(self, mask) -> list:
        key = np.unique(self.u[mask] * (self.nu + 1) + self.v[mask])
        return list(zip((key // (self.nu + 1)).tolist(), (key % (self.nu + 1)).tolist()))

    def direct(self, u, sem):
        s = self._rows_of_u(u)
        return np.unique(self.v[s][self._alive(self.ts[s], self.te[s], sem)]).tolist()

    def reverse(self, v, sem):
        rows = self.by_v[np.searchsorted(self.v_sorted, v, "left"):
                         np.searchsorted(self.v_sorted, v, "right")]
        return np.unique(self.u[rows][self._alive(self.ts[rows], self.te[rows], sem)]).tolist()

    def edge(self, u, v, sem):
        s = self._rows_of_u(u)
        hit = (self.v[s] == v) & self._alive(self.ts[s], self.te[s], sem)
        return bool(hit.any())

    def snapshot(self, sem):
        return self._edges(self._alive(self.ts, self.te, sem))

    def activated(self, t, t_end=None):
        t_end = t + 1 if t_end is None else t_end
        return self._edges((self.ts >= t) & (self.ts < t_end))

    def deactivated(self, t, t_end=None):
        t_end = t + 1 if t_end is None else t_end
        return self._edges((self.te >= t) & (self.te < t_end))

    def answer(self, cls, args):
        return getattr(self, cls)(*args)
