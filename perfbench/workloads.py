"""The three workloads: seeded contact sets, query batches and pinned digests.

A workload fixes the generator parameters, the Psi codec and the make-up
of one query batch. The seed passed on the command line drives both the
contact generator and the batch, so one seed always gives the same
inputs. For the default and held-out seeds the digests of the contact
columns and of the batch are pinned in digests.json; a run on such a
seed stops when the inputs no longer match.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tgcsa import ContactSet, GenSpec, TimeSemantics, generate, preset_icomm

CLASSES = ("direct", "reverse", "edge", "snapshot", "activated", "deactivated")

# the index method each query class calls
METHODS = {
    "direct": "direct_neighbors",
    "reverse": "reverse_neighbors",
    "edge": "active_edge",
    "snapshot": "snapshot",
    "activated": "activated_edges",
    "deactivated": "deactivated_edges",
}

HELD_OUT_SEED = 1009
DIGESTS = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    shape maps each size (full, smoke) to (nu, lifetime) of a
    preferential-attachment graph with 5 contacts of uniform length per
    edge, or to (nu, None) for the communication preset. counts gives the
    queries per class in one full-size batch (SMOKE_COUNTS at smoke
    size). pair_window
    and snapshot_window describe the time argument of the neighbour and
    edge classes and of snapshot: None for an instant, or (kind,
    shortest, longest) for an interval whose length lies in [shortest,
    longest], capped at a quarter of the lifetime. setup_reps and
    build_reps say how often set-up and build are timed per run and per
    round.
    """

    name: str
    shape: dict
    default_seed: int
    codec: str
    counts: dict
    pair_window: tuple | None
    snapshot_window: tuple | None
    setup_reps: int
    build_reps: int
    verify_core: bool
    why: str

    def contacts(self, seed: int, size: str) -> ContactSet:
        nu, lifetime = self.shape[size]
        if lifetime is None:
            return preset_icomm(nu=nu, seed=seed)
        return generate(GenSpec(nu=nu, m=5, lifetime=lifetime, dist="uniform",
                                dist_param=5, seed=seed))


# Direct and edge carry the end-to-end latencies, so they get the largest
# share of the batch; icomm-interval's direct queries cost about three
# times its edge queries, so it issues half as many.
_FULL = dict(reverse=1000, activated=100, deactivated=100)
SMOKE_COUNTS = dict(direct=30, reverse=30, edge=30, snapshot=3, activated=6, deactivated=6)

WORKLOADS = {
    w.name: w for w in (
        Workload("ba-query", dict(full=(2000, 200), smoke=(60, 50)), 1, "vbyte-rle",
                 dict(_FULL, direct=4000, edge=4000, snapshot=5), None, None,
                 setup_reps=6, build_reps=3, verify_core=True,
                 why="query-heavy on the default codec: long Psi scans and "
                     "per-result unmap in snapshot and change queries"),
        Workload("ba-build", dict(full=(20000, 1000), smoke=(120, 80)), 3, "vbyte-rle",
                 dict(_FULL, direct=4000, edge=4000, snapshot=1, activated=40,
                      deactivated=40), None, None,
                 setup_reps=3, build_reps=2, verify_core=False,
                 why="build-heavy: 500k contacts put rotation order and the "
                     "vbyte encoder first, and show space and load at scale"),
        Workload("icomm-interval", dict(full=(2000, None), smoke=(60, None)), 5,
                 "huff-rle-opt", dict(_FULL, direct=2000, edge=4000, snapshot=15),
                 ("weak", 100, 100), ("strong", 1, 2),
                 setup_reps=6, build_reps=3, verify_core=True,
                 why="short contacts and interval semantics on the Huffman "
                     "codec: most decoded entries are filtered away"),
    )
}


def _times(rng, n: int, lo: int, hi: int) -> np.ndarray:
    """n times in [lo, hi], one uniform draw in each of n equal slices,
    shuffled. Every time is uniform over the range, and the sorted set
    covers it evenly, so a median over few queries does not swing with
    the seed."""
    width = (hi - lo + 1) / max(n, 1)
    t = lo + np.floor((np.arange(n) + rng.random(n)) * width).astype(np.int64)
    return rng.permutation(np.minimum(t, hi))


def _sems(rng, n: int, tau: int, window) -> list:
    if window is None:
        return [TimeSemantics.instant(int(t)) for t in _times(rng, n, 1, tau)]
    kind, shortest, longest = window
    longest = min(longest, tau // 4)
    shortest = min(shortest, longest)
    lengths = rng.integers(shortest, longest + 1, size=n)
    starts = _times(rng, n, 1, tau + 1 - longest)
    return [TimeSemantics(kind, int(t), int(t + d)) for t, d in zip(starts, lengths)]


def _grid_sems(n: int, tau: int, window) -> list:
    """Snapshots run at the midpoints of n equal slices of the lifetime.
    A snapshot scans every contact started before its time, so its cost
    grows with t; with a handful of snapshots a random draw would move
    their median by a slice width from seed to seed."""
    if window is None:
        return [TimeSemantics.instant(int(t))
                for t in 1 + ((np.arange(n) + 0.5) * tau / n).astype(np.int64)]
    kind, shortest, longest = window
    longest = min(longest, tau // 4)
    span = tau + 1 - longest
    starts = 1 + ((np.arange(n) + 0.5) * span / n).astype(np.int64)
    lengths = shortest + np.arange(n) % (longest - shortest + 1)
    return [TimeSemantics(kind, int(t), int(t + d)) for t, d in zip(starts, lengths)]


def make_batch(w: Workload, cs: ContactSet, seed: int, size: str) -> list:
    """The seeded query batch as (class, args) pairs in issue order.

    Direct and reverse queries take an endpoint of a uniformly drawn
    contact, so a vertex is queried in proportion to its degree. Edge
    queries are half existing pairs, half uniform random pairs.
    """
    counts = w.counts
    if size == "smoke":
        counts = {c: SMOKE_COUNTS[c] if k else 0 for c, k in counts.items()}
    rng = np.random.default_rng([seed, 0x7B])
    n_c, nu, tau = len(cs), cs.nu, cs.tau
    batch = []

    def pick(k):
        return rng.integers(0, n_c, size=k)

    k = counts["direct"]
    for i, sem in zip(pick(k), _sems(rng, k, tau, w.pair_window)):
        batch.append(("direct", (int(cs.u[i]), sem)))
    k = counts["reverse"]
    for i, sem in zip(pick(k), _sems(rng, k, tau, w.pair_window)):
        batch.append(("reverse", (int(cs.v[i]), sem)))
    k = counts["edge"]
    half = k // 2
    pairs = [(int(cs.u[i]), int(cs.v[i])) for i in pick(half)]
    pairs += [tuple(int(x) for x in rng.integers(1, nu + 1, size=2))
              for _ in range(k - half)]
    for (u, v), sem in zip(pairs, _sems(rng, k, tau, w.pair_window)):
        batch.append(("edge", (u, v, sem)))
    for sem in _grid_sems(counts["snapshot"], tau, w.snapshot_window):
        batch.append(("snapshot", (sem,)))
    for cls in ("activated", "deactivated"):
        for t in _times(rng, counts[cls], 1, tau):
            batch.append((cls, (int(t),)))
    order = rng.permutation(len(batch))
    return [batch[i] for i in order]


def digest(cs: ContactSet, batch: list) -> dict:
    """SHA-256 of the contact columns and of the query batch."""
    h = hashlib.sha256()
    h.update(np.array([len(cs), cs.arity, cs.nu, cs.tau], dtype="<i8").tobytes())
    for col in (cs.u, cs.v, cs.ts, cs.te):
        h.update(np.asarray(col, dtype="<i8").tobytes())
    q = hashlib.sha256(repr(batch).encode())
    return {"contacts": h.hexdigest(), "queries": q.hexdigest()}


def pinned(name: str, seed: int, size: str):
    """The stored digest for this workload and seed, or None."""
    table = json.loads(DIGESTS.read_text())
    return table.get(size, {}).get(name, {}).get(str(seed))
