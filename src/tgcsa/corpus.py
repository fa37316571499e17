"""Contact multisets and the disjoint-alphabet symbol map.

A temporal graph is a multiset of contacts (u, v, ts, te): edge (u, v)
is active on the half-open interval [ts, te). Vertices live in [1, nu]
and times in [1, tau]. The 3-term variant (u, v, ts) drops te and is
interpreted by a semantics flag: "incremental" contacts stay active
from ts until the end of the lifetime, "point" contacts are active at
ts only.

The four contact terms are pushed into one integer universe by additive
gaps (0, nu, 2nu, 2nu+tau), so the term kinds can never collide. A
bitmap over that universe drops unused values, leaving dense symbol ids
in [1, sigma].
"""

from __future__ import annotations

import numbers
from typing import NamedTuple, Optional

import numpy as np

from .bitseq import BitSequence

ARITY_SEMANTICS = {4: ("interval",), 3: ("incremental", "point")}

_LIMIT = 2**32 - 1  # contact terms must fit standard 32-bit ids


class Contact(NamedTuple):
    u: int
    v: int
    ts: int
    te: Optional[int] = None


class ContactError(ValueError):
    """A contact that ContactSet rejects; row is its index in the input."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"contact {row}: {reason}")
        self.row = row
        self.reason = reason


def _packed_order(columns) -> np.ndarray:
    """The stable order that sorts rows by the columns, the first one
    primary. The columns hold non-negative int64 values. They are packed
    side by side into one int64 key, each as wide as its largest value,
    and the key is argsorted stably; when those widths add up to more
    than 63 bits, np.lexsort sorts the columns instead, in the same
    order."""
    widths = [int(col.max(initial=0)).bit_length() for col in columns]
    if sum(widths) > 63:
        return np.lexsort(columns[::-1])
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for col, w in zip(columns, widths):
        key <<= w
        key |= col
    return np.argsort(key, kind="stable")


class ContactSet:
    """Sorted multiset of contacts plus the universe sizes nu and tau.

    contacts is an iterable of arity-term rows or an (n, arity) integer
    array. Every term must be an integer in [1, 2**32 - 1], however it
    is held (a float of integral value counts as that integer); a
    ContactError names the first row that breaks this. Contacts are kept
    lexicographically sorted, by _packed_order over u, v, ts (and te);
    duplicates are allowed. nu and tau default to the largest vertex /
    time actually seen but can be forced larger to embed a graph in a
    wider universe.
    """

    def __init__(self, contacts, arity: int = 4, nu: int | None = None,
                 tau: int | None = None, semantics: str | None = None):
        if arity not in (3, 4):
            raise ValueError(f"arity must be 3 or 4, not {arity}")
        if semantics is None:
            semantics = "interval" if arity == 4 else "incremental"
        if semantics not in ARITY_SEMANTICS[arity]:
            raise ValueError(f"semantics {semantics!r} not valid for arity {arity}")
        self.arity = arity
        self.semantics = semantics

        if isinstance(contacts, np.ndarray):
            if contacts.ndim != 2:
                raise ValueError(f"contact array must have 2 dimensions, "
                                 f"not {contacts.ndim}")
            if len(contacts) and contacts.shape[1] != arity:
                raise ContactError(0, f"expected {arity} terms, got {contacts.shape[1]}")
            arr, rows = contacts, None
        else:
            rows = list(contacts)
            for i, c in enumerate(rows):
                if len(c) != arity:
                    raise ContactError(i, f"expected {arity} terms, got {len(c)}")
            arr = np.array(rows)
        if arr.dtype.kind not in "iuf":
            # a term that is no number, or an integer past 64 bits, which
            # numpy keeps as a Python object; the checks below compare those
            rows = arr.tolist() if rows is None else rows
            for i, row in enumerate(rows):
                if not all(isinstance(t, numbers.Real) for t in row):
                    raise ContactError(i, "term is not an integer")
            arr = np.array(rows, dtype=object)
        arr = arr.reshape(len(arr), arity)
        if len(arr):
            if arr.min() < 1:
                bad = int(np.argmin(arr.min(axis=1)))
                raise ContactError(bad, "terms must be >= 1")
            if arr.max() > _LIMIT:
                bad = int(np.argmax(arr.max(axis=1)))
                raise ContactError(bad, "term exceeds the 32-bit id range")
            if arr.dtype.kind in "fO":
                fraction = (arr % 1 != 0).any(axis=1)  # NaN counts
                if fraction.any():
                    raise ContactError(int(np.argmax(fraction)), "term is not an integer")
        cols = arr.astype(np.int64, copy=False)

        u, v, ts = cols[:, 0], cols[:, 1], cols[:, 2]
        te = cols[:, 3] if arity == 4 else None

        seen_nu = int(max(u.max(initial=0), v.max(initial=0)))
        seen_tau = int(te.max(initial=0)) if arity == 4 else int(ts.max(initial=0))
        self.nu = seen_nu if nu is None else int(nu)
        self.tau = seen_tau if tau is None else int(tau)
        if max(self.nu, self.tau) > _LIMIT:
            raise ValueError(f"declared universe (nu={self.nu}, tau={self.tau}) "
                             f"exceeds the 32-bit id range")
        if self.nu < seen_nu:
            raise ValueError(f"vertex {seen_nu} outside the declared universe [1, {self.nu}]")
        if self.tau < seen_tau:
            raise ValueError(f"time {seen_tau} outside the declared lifetime [1, {self.tau}]")
        if arity == 4 and len(cols) and not np.all(ts < te):
            bad = int(np.argmax(ts >= te))
            raise ContactError(bad, f"empty interval (ts={int(ts[bad])}, te={int(te[bad])})")

        order = _packed_order((u, v, ts, te)[:arity])
        self.u = u[order]
        self.v = v[order]
        self.ts = ts[order]
        self.te = te[order] if arity == 4 else None
        for col in (self.u, self.v, self.ts, self.te):
            if col is not None:
                col.setflags(write=False)

    def __len__(self) -> int:
        return len(self.u)

    def __getitem__(self, i: int) -> Contact:
        if self.arity == 4:
            return Contact(int(self.u[i]), int(self.v[i]), int(self.ts[i]), int(self.te[i]))
        return Contact(int(self.u[i]), int(self.v[i]), int(self.ts[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def _rows(self):
        """The sorted contacts as tuples of Python ints, read column-wise."""
        return zip(*(col.tolist() for col in (self.u, self.v, self.ts, self.te)
                     if col is not None))

    def tuples(self) -> list[tuple]:
        """All contacts as plain tuples, sorted."""
        return list(self._rows())

    def distinct_edges(self) -> int:
        if not len(self):
            return 0
        key = self.u * (self.nu + 1) + self.v
        return len(np.unique(key))

    def __repr__(self):
        return (f"ContactSet(n={len(self)}, arity={self.arity}, nu={self.nu}, "
                f"tau={self.tau}, semantics={self.semantics!r})")


def parse_contacts(source, arity: int = 4, nu: int | None = None,
                   tau: int | None = None, semantics: str | None = None) -> ContactSet:
    """Parse contact text: one contact per line, whitespace-separated
    integers, # starts a comment. Errors carry 1-based line numbers."""
    lines = source.splitlines() if isinstance(source, str) else source
    rows, line_of = [], []
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != arity:
            raise ValueError(f"line {ln}: expected {arity} fields, got {len(parts)}")
        try:
            rows.append(tuple(int(p) for p in parts))
        except ValueError:
            raise ValueError(f"line {ln}: fields must be integers") from None
        line_of.append(ln)
    try:
        return ContactSet(rows, arity=arity, nu=nu, tau=tau, semantics=semantics)
    except ContactError as exc:
        raise ValueError(f"line {line_of[exc.row]}: {exc.reason}") from None


def load_contacts(path, arity: int = 4, nu: int | None = None,
                  tau: int | None = None, semantics: str | None = None) -> ContactSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_contacts(fh.read(), arity=arity, nu=nu, tau=tau, semantics=semantics)


def write_contacts(cs: ContactSet, fh, header=()) -> None:
    """Write a contact file; header lines are emitted as # comments."""
    for line in header:
        fh.write(f"# {line}\n")
    line = " ".join(["%d"] * cs.arity) + "\n"
    fh.writelines(line % row for row in cs._rows())


def _layout(arity: int, nu: int, tau: int) -> tuple[tuple[int, ...], int]:
    """The per-section gaps of the shifted universe, and its size."""
    gaps = (0, nu, 2 * nu, 2 * nu + tau)[:arity]
    return gaps, gaps[-1] + tau


class AlphabetMap:
    """Dense ids over the used contact terms of all sections.

    Section k (1-based) shifts its values by gaps[k-1]; the bitmap B
    over [1, 2nu+2tau] (or [1, 2nu+tau] for 3-term contacts) marks which
    shifted values occur. Ids are ranks among the marked positions, so
    every id in [1, sigma] is used and section blocks stay ordered.
    """

    def __init__(self, arity: int, nu: int, tau: int, bitmap: BitSequence):
        self.arity = arity
        self.nu = nu
        self.tau = tau
        self.gaps, universe = _layout(arity, nu, tau)
        if len(bitmap) != universe:
            raise ValueError(f"bitmap length {len(bitmap)} != universe {universe}")
        self.B = bitmap
        self.sigma = bitmap.ones
        # sorted shifted values, a read-only view of B's one-positions:
        # values[id-1] == B.select1(id)
        self.values = bitmap.positions()

    @classmethod
    def build(cls, cs: ContactSet) -> "AlphabetMap":
        gaps, universe = _layout(cs.arity, cs.nu, cs.tau)
        cols = (cs.u, cs.v, cs.ts, cs.te)[:cs.arity]
        used = np.concatenate([col + g for col, g in zip(cols, gaps)])
        return cls(cs.arity, cs.nu, cs.tau, BitSequence.from_positions(used, universe))

    def _section_max(self, section: int) -> int:
        if not 1 <= section <= self.arity:
            raise ValueError(f"no section {section} at arity {self.arity}")
        return self.nu if section <= 2 else self.tau

    def getmap(self, value: int, section: int) -> int:
        """Id of a raw term in its section, 0 if the term never occurs."""
        limit = self._section_max(section)
        if not 1 <= value <= limit:
            raise ValueError(f"value {value} outside section {section} universe [1, {limit}]")
        value += self.gaps[section - 1]
        sid = self.B.rank1(value)
        return sid if sid and self.B.select1(sid) == value else 0

    def getmap_floor(self, value: int, section: int) -> int:
        """Id of the nearest used symbol at or before value in a time section.

        value may be 0; with no used symbol at or before it, this returns
        the id just before the section (or 0 at the very start), which is
        exactly the boundary the range computations need.
        """
        if section <= 2:
            raise ValueError("floor lookup only applies to time sections")
        limit = self._section_max(section)
        if not 0 <= value <= limit:
            raise ValueError(f"value {value} outside [0, {limit}]")
        return self.B.rank1(value + self.gaps[section - 1])

    def getunmap(self, sid: int, section: int) -> int:
        """Raw term of a dense id, interpreted in the given section."""
        self._section_max(section)
        return self.B.select1(sid) - self.gaps[section - 1]

    def __repr__(self):
        return (f"AlphabetMap(arity={self.arity}, nu={self.nu}, tau={self.tau}, "
                f"sigma={self.sigma})")


def build_sid(cs: ContactSet, am: AlphabetMap) -> np.ndarray:
    """Interleaved id sequence of the sorted contacts: arity ids per contact."""
    n = len(cs)
    out = np.empty(n * cs.arity, dtype=np.int64)
    cols = (cs.u, cs.v, cs.ts) if cs.arity == 3 else (cs.u, cs.v, cs.ts, cs.te)
    for k, col in enumerate(cols):
        out[k::cs.arity] = np.searchsorted(am.values, col + am.gaps[k], side="right")
    return out
