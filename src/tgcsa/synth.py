"""Synthetic contact sets with reproducible randomness.

The generator is a self-contained xorshift64* so the same seed yields
the same graph on any platform or Python build; nothing here depends on
the stdlib RNG. Graphs come from a preferential-attachment process (new
vertices attach to m distinct earlier ones, picked proportionally to
degree), then every edge receives its contacts from a duration
distribution, either overlapping freely or laid out disjointly.

The generators draw the stream in bulk (XorShift64Star.draws): chunks of
it are stepped together as numpy arrays, each chunk starting from a
state found by GF(2) jump-ahead, eight byte-table lookups per jump.
Loops whose draws depend on earlier draws (the attachment picks,
disjoint intervals, pareto contact counts) read Python ints from that
buffer in stream order. icomm's distinct pairs are drawn in array
rounds, one candidate per pair still missing, so that no round draws
past the last pair kept; every other draw is array arithmetic. A seed
gives the graph that one next_u64 call per draw gives, draw for draw.
Set-up of the benchmark's 499,875-contact ba-build graph, ContactSet's
sort included, fell from 2.11 to 0.76 s with bulk draws and to 0.26 s
with these and a packed sort key; icomm-interval's from 0.27 to 0.16
and then 0.05 s (perfbench setup_s medians on a 2-vCPU virtual
machine).

Two presets approximate familiar dataset shapes: a dense communication
network with short contacts, and a sparse power-law graph with one
contact per edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import ContactSet

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717
_MULT_INV = pow(_MULT, -1, 1 << 64)


def _apply(tables: tuple[tuple[int, ...], ...], x: int) -> int:
    """A GF(2) matrix, given as its byte tables (_byte_tables), applied
    to x: one lookup per byte of x."""
    t0, t1, t2, t3, t4, t5, t6, t7 = tables
    return (t0[x & 255] ^ t1[x >> 8 & 255] ^ t2[x >> 16 & 255] ^ t3[x >> 24 & 255]
            ^ t4[x >> 32 & 255] ^ t5[x >> 40 & 255] ^ t6[x >> 48 & 255] ^ t7[x >> 56])


def _byte_tables(cols: list[int]) -> tuple[tuple[int, ...], ...]:
    """The GF(2) matrix cols (entry i the image of bit i) as eight
    256-entry tables: table k maps a byte b to the image of b << 8k."""
    tables = []
    for k in range(8):
        t = [0]
        for c in cols[8 * k:8 * k + 8]:
            t += [x ^ c for x in t]
        tables.append(tuple(t))
    return tuple(tables)


@functools.cache
def _jump(j: int) -> tuple[tuple[int, ...], ...]:
    """The state step taken 2**j times, as the byte tables of its GF(2)
    matrix, whose entry i is the state it makes from the state with only
    bit i set."""
    if j:
        half = _jump(j - 1)
        return _byte_tables([_apply(half, _apply(half, 1 << i)) for i in range(64)])
    rng = XorShift64Star(0)
    cols = []
    for i in range(64):
        rng.state = 1 << i
        rng.next_u64()
        cols.append(rng.state)
    return _byte_tables(cols)


class XorShift64Star:
    """xorshift64* with splitmix64 seed whitening."""

    def __init__(self, seed: int):
        z = (seed + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        self.state = z or 0x2545F4914F6CDD1D

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK

    def draws(self, count: int) -> np.ndarray:
        """The next count outputs as one uint64 array; the state ends where
        count calls to next_u64 would leave it.

        The count is cut into chunks of 2**j draws, about its square root;
        each chunk's start state is the previous one jumped 2**j steps, and
        all chunks step together on arrays, where multiplication wraps
        mod 2**64.
        """
        if count <= 0:
            return np.empty(0, dtype=np.uint64)
        j = ((count - 1).bit_length() + 1) // 2
        steps = 1 << j
        jump = _jump(j)
        starts = [self.state]
        while len(starts) * steps < count:
            starts.append(_apply(jump, starts[-1]))
        s = np.array(starts, dtype=np.uint64)
        out = np.empty((steps, len(starts)), dtype=np.uint64)
        a, b, c, mult = (np.uint64(k) for k in (12, 25, 27, _MULT))
        for row in out:
            s ^= s >> a
            s ^= s << b
            s ^= s >> c
            np.multiply(s, mult, out=row)
        out = out.T.reshape(-1)[:count]
        # an output is its state times an odd constant, which has an
        # inverse mod 2**64: the last output gives the final state back
        self.state = int(out[-1]) * _MULT_INV & _MASK
        return out

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], both ends included."""
        if a > b:
            raise ValueError(f"empty range [{a}, {b}]")
        return a + self.next_u64() % (b - a + 1)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def pareto(self, alpha: float) -> float:
        """Pareto variate with scale 1 via the inverse CDF."""
        u = 1.0 - self.random()
        return u ** (-1.0 / alpha)


class _Stream(XorShift64Star):
    """One seed's stream handed out in order from bulk draws.

    next_u64 (and with it randint, random and pareto) reads Python ints
    from a buffer that draws refills; draws hands out the buffer's rest
    and then draws afresh. So scalar and array reads interleave in stream
    order. state runs ahead of what has been handed out.
    """

    _LARGEST_REFILL = 1 << 16

    def __init__(self, seed: int):
        super().__init__(seed)
        self._arr = np.empty(0, dtype=np.uint64)
        self._vals, self._pos = [], 0

    def next_u64(self) -> int:
        if self._pos == len(self._vals):
            size = min(max(64, 2 * len(self._vals)), self._LARGEST_REFILL)
            self._arr = super().draws(size)
            self._vals, self._pos = self._arr.tolist(), 0
        self._pos += 1
        return self._vals[self._pos - 1]

    def draws(self, count: int) -> np.ndarray:
        head = self._arr[self._pos:self._pos + count]
        self._pos += len(head)
        if len(head) == count:
            return head
        return np.concatenate([head, super().draws(count - len(head))])


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one synthetic graph."""

    nu: int
    m: int
    lifetime: int
    dist: str = "uniform"
    dist_param: float = 1.0
    overlap: str = "allow"
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.nu <= self.m:
            raise ValueError("need at least m preferential targets, so nu > m >= 1")
        if self.lifetime < 2:
            raise ValueError("a lifetime below 2 leaves no room for an interval")
        if self.dist not in ("uniform", "pareto"):
            raise ValueError(f"unknown duration distribution {self.dist!r}")
        if self.dist == "uniform" and int(self.dist_param) < 1:
            raise ValueError("uniform contact count must be at least 1")
        if self.dist == "pareto" and self.dist_param <= 1.0:
            raise ValueError("pareto shape must exceed 1 for a finite mean")
        if self.overlap not in ("allow", "forbid"):
            raise ValueError(f"unknown overlap mode {self.overlap!r}")


def _ba_edges(nu: int, m: int, rng: XorShift64Star) -> np.ndarray:
    """Preferential-attachment edge list: exactly m*(nu-m) distinct pairs,
    one (source, target) row each.

    Vertices 2..m+1 form a star around vertex 1; every later vertex picks
    m distinct targets from a pool holding each endpoint once per edge,
    which makes the pick degree-proportional. The pool is the flat edge
    list itself.
    """
    pool = []
    for w in range(2, m + 2):
        pool += [w, 1]
    draw = rng.next_u64
    for w in range(m + 2, nu + 1):
        size = len(pool)
        seen = set()
        while len(seen) < m:
            seen.add(pool[draw() % size])
        for t in sorted(seen):
            pool += [w, t]
    return np.array(pool, dtype=np.int64).reshape(-1, 2)


def _contact_count(spec: GenSpec, rng: XorShift64Star) -> int:
    if spec.dist == "uniform":
        return int(spec.dist_param)
    mean = spec.dist_param / (spec.dist_param - 1.0)
    cap = max(1, math.ceil(10.0 * mean))
    return min(math.ceil(rng.pareto(spec.dist_param)), cap)


def _disjoint_intervals(rng: XorShift64Star, k: int,
                        lifetime: int) -> list[tuple[int, int]]:
    """k pairwise disjoint, non-touching half-open intervals in [1, lifetime]."""
    if 2 * k > lifetime:
        raise ValueError(
            f"cannot place {k} disjoint intervals in a lifetime of {lifetime}")
    picks = set()
    while len(picks) < 2 * k:
        picks.add(rng.randint(1, lifetime))
    cuts = sorted(picks)
    return [(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]


def generate(spec: GenSpec) -> ContactSet:
    """A full synthetic contact set for the given parameters."""
    rng = _Stream(spec.seed)
    edges = _ba_edges(spec.nu, spec.m, rng)
    if spec.overlap == "forbid":
        rows = []
        for u, v in edges.tolist():
            k = _contact_count(spec, rng)
            rows += [(u, v, ts, te)
                     for ts, te in _disjoint_intervals(rng, k, spec.lifetime)]
        return ContactSet(rows, arity=4, nu=spec.nu, tau=spec.lifetime)
    # each contact takes two draws, ts then te, after its edge's count
    if spec.dist == "uniform":
        counts = [int(spec.dist_param)] * len(edges)
        x = rng.draws(2 * sum(counts))
    else:
        counts, parts = [], []
        for _ in edges:
            counts.append(_contact_count(spec, rng))
            parts.append(rng.draws(2 * counts[-1]))
        x = np.concatenate(parts)
    lifetime = np.uint64(spec.lifetime)
    ts = 1 + x[0::2] % (lifetime - np.uint64(1))
    te = ts + 1 + x[1::2] % (lifetime - ts)
    uv = np.repeat(edges, counts, axis=0)
    rows = np.column_stack([uv, ts.astype(np.int64), te.astype(np.int64)])
    return ContactSet(rows, arity=4, nu=spec.nu, tau=spec.lifetime)


def _distinct_pairs(rng: XorShift64Star, nu: int, count: int) -> np.ndarray:
    """count distinct pairs (u, v) of vertices in [1, nu] with u != v, one
    row each, as drawing u then v with randint(1, nu) and keeping each
    new pair would pick them.

    Each round draws one (u, v) for every pair still missing, so it never
    draws past the last pair kept, and keeps in stream order those with
    u != v that occur there first and were not kept before.
    """
    keys = np.empty(0, dtype=np.int64)          # (u - 1) * nu + v - 1, in pick order
    while len(keys) < count:
        uv = (rng.draws(2 * (count - len(keys))) % np.uint64(nu)).astype(np.int64)
        k = uv[0::2] * nu + uv[1::2]
        first = np.sort(np.unique(k, return_index=True)[1])
        first = first[(uv[2 * first] != uv[2 * first + 1]) & ~np.isin(k[first], keys)]
        keys = np.concatenate([keys, k[first]])
    return 1 + np.column_stack(np.divmod(keys, nu))


def preset_icomm(nu: int = 100, lifetime: int | None = None,
                 seed: int = 0) -> ContactSet:
    """Communication-network profile: ~15.9 edges per vertex, 1.2 contacts
    per edge, contact durations of 1 to 3 steps."""
    tau = nu if lifetime is None else lifetime
    if tau < 4:
        raise ValueError("the communication profile needs a lifetime of at least 4")
    e_target = round(15.941 * nu)
    if e_target > nu * (nu - 1):
        raise ValueError(f"{nu} vertices cannot carry {e_target} distinct edges")
    c_target = round(1.2 * e_target)
    rng = _Stream(seed)
    pairs = _distinct_pairs(rng, nu, e_target)
    # every pair gets one contact (duration, start), then each extra
    # contact picks a pair (pick, duration, start)
    once = rng.draws(2 * e_target).reshape(-1, 2)
    extra = rng.draws(3 * (c_target - e_target)).reshape(-1, 3)
    pick = np.concatenate([np.arange(e_target, dtype=np.uint64),
                           extra[:, 0] % np.uint64(e_target)])
    d = 1 + np.concatenate([once[:, 0], extra[:, 1]]) % np.uint64(3)
    ts = 1 + np.concatenate([once[:, 1], extra[:, 2]]) % (np.uint64(tau) - d)
    uv = pairs[pick.astype(np.int64)]
    rows = np.column_stack([uv, ts.astype(np.int64), (ts + d).astype(np.int64)])
    return ContactSet(rows, arity=4, nu=nu, tau=tau)


def preset_powerlaw(nu: int = 1000, seed: int = 0) -> ContactSet:
    """Power-law profile: heavy preferential attachment, one short contact
    per edge, lifetime a tenth of the vertex count."""
    if nu <= 33:
        raise ValueError("the power-law profile needs more than 33 vertices")
    spec = GenSpec(nu=nu, m=33, lifetime=max(2, nu // 10),
                   dist="uniform", dist_param=1, overlap="allow", seed=seed)
    return generate(spec)


def dataset_stats(cs: ContactSet) -> dict:
    """Shape and naive-size summary of a contact set.

    size_u32_bits is the flat four-int (or three-int) encoding;
    size_b_bits packs every term into its minimal fixed width.
    """
    def width(x):
        return (x - 1).bit_length()

    n = len(cs)
    e = cs.distinct_edges()
    per_contact = 2 * width(cs.nu) + (2 if cs.arity == 4 else 1) * width(cs.tau)
    return {
        "nu": cs.nu,
        "edges": e,
        "tau": cs.tau,
        "contacts": n,
        "contacts_per_vertex": n / cs.nu if cs.nu else 0.0,
        "edges_per_vertex": e / cs.nu if cs.nu else 0.0,
        "contacts_per_edge": n / e if e else 0.0,
        "size_u32_bits": n * cs.arity * 32,
        "size_b_bits": n * per_contact,
    }
