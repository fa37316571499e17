"""Traced run: per-layer counts and self times, and a staged build.

Tracer installs class-level wrappers around the public entry points of
each layer (BitSequence rank/select/access, the Psi codecs' access and
range, AlphabetMap's map lookups, and the six query functions), and
takes them out again on exit. Each wrapped call opens a span; a layer's
self time is its spans' time minus the time of the spans they caused.
Calls are counted under the query class that is running, and bitmap
calls are split by which bitmap they hit (D, B, or another one, such as
the codec's sample bitmap D1).

Inner calls run in the hundreds of thousands per snapshot, so they are
folded into per-class totals as they finish; one span per query (its
class, start and end) is kept in memory and written out at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict

from tgcsa import AlphabetMap, BitSequence, TgcsaIndex, build_sid, psienc, query, sacsa

LAYERS = ("query", "psienc", "bitseq", "corpus")
_CODECS = (psienc.PlainPsi, psienc.VbyteRlePsi, psienc.HuffRlePsi)
_QUERIES = ("direct_neighbors", "reverse_neighbors", "active_edge", "snapshot",
            "activated_edges", "deactivated_edges")


class Tracer:
    """Wrappers around every layer boundary, for one index, as a context."""

    def __init__(self, idx):
        self.idx = idx
        self.cls = None
        self.counts = defaultdict(int)      # (class, counter) -> calls or entries
        self.self_s = defaultdict(float)    # (class, layer) -> seconds
        self.spans = []                     # (op id, class, start, end)
        self._stack = []
        self._saved = []

    def _bitmap(self, bm) -> str:
        if bm is self.idx.D:
            return "D"
        if bm is self.idx.am.B:
            return "B"
        return "other"

    def _wrap(self, layer, fn, count):
        stack, counts, self_s, perf = self._stack, self.counts, self.self_s, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                self_s[tracer.cls, layer] += dt - child
                if stack:
                    stack[-1] += dt
            if count is not None:
                key, k = count(args, out)
                counts[tracer.cls, key] += k
            return out

        return wrapper

    def _patch(self, owner, name, layer, count=None):
        fn = owner.__dict__[name]
        self._saved.append((owner, name, fn))
        setattr(owner, name, self._wrap(layer, fn, count))

    def __enter__(self):
        for meth in ("rank1", "select1", "access"):
            self._patch(BitSequence, meth, "bitseq",
                        lambda a, out, m=meth: (f"{m}_calls.{self._bitmap(a[0])}", 1))
        for codec in _CODECS:
            self._patch(codec, "access", "psienc", lambda a, out: ("psi_access_calls", 1))
            self._patch(codec, "range", "psienc", lambda a, out: ("psi_range_entries", len(out)))
        self._patch(AlphabetMap, "getmap", "corpus")
        self._patch(AlphabetMap, "getmap_floor", "corpus",
                    lambda a, out: ("getmap_floor_calls", 1))
        self._patch(AlphabetMap, "getunmap", "corpus", lambda a, out: ("getunmap_calls", 1))
        for name in _QUERIES:
            self._patch(query, name, "query")
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)
        return False

    def run(self, op_id, cls, call, args):
        """One query under its class; returns its answer."""
        self.cls = cls
        t0 = time.perf_counter()
        try:
            return call(*args)
        finally:
            self.spans.append((op_id, cls, t0, time.perf_counter()))


def staged_build(cs, codec: str, t_psi: int):
    """build_index's steps, one timer each; returns (index, stage seconds)."""
    perf = time.perf_counter
    t = [perf()]
    am = AlphabetMap.build(cs)
    t.append(perf())
    sid = build_sid(cs, am)
    t.append(perf())
    A = sacsa.build_rotation_array(sid, cs.arity)
    t.append(perf())
    psi = sacsa.cyclic_adjust(sacsa.compute_psi(A), cs.arity)
    t.append(perf())
    D = sacsa.build_d(sid, A)
    t.append(perf())
    enc = psienc.encode(psi, D, codec=codec, t_psi=t_psi)
    t.append(perf())
    names = ("corpus.alphabet_s", "corpus.sid_s", "sacsa.rotation_s", "sacsa.psi_s",
             "sacsa.d_s", "psienc.encode_s")
    stages = {name: b - a for name, a, b in zip(names, t, t[1:])}
    return TgcsaIndex(am, D, enc, len(cs), cs.semantics), stages
