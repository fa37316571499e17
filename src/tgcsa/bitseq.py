"""Plain bit vectors held as their sorted one-positions.

Positions are 1-based everywhere: access(pos) reads bit pos, rank1(pos)
counts ones in [1, pos] (rank1(0) == 0), and select1(k) returns the
position of the k-th one. The off-by-one convention matches the rest of
the index, where 0 doubles as the boundary "before everything".

Each bitmap of the index has at most one one per contact term, so a
bitmap is just its length and the ascending list of its one-positions:
select1 indexes that list, and rank1 and access bisect it. Memory grows
with the ones, not with the length.

Instances are immutable after construction and safe to share between
threads. Serialization stores the bit length and the bits as 64-bit
words; the words exist only in the image bytes.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right

import numpy as np


class BitSequence:
    """Bitmap of nbits bits, kept as its sorted 1-based one-positions.

    In the serialized words, bit i of the sequence lives at bit
    (i-1) % 64 of little-endian word (i-1) // 64.
    """

    __slots__ = ("nbits", "_ones_at")

    def __init__(self, positions, nbits: int):
        """Wrap positions already ascending, distinct and in [1, nbits];
        from_positions checks and orders arbitrary input."""
        self.nbits = int(nbits)
        self._ones_at = array("q", np.asarray(positions, dtype=np.int64).tobytes())

    @classmethod
    def from_bits(cls, bits) -> "BitSequence":
        """Build from a flat sequence of 0/1 values (list, tuple, or array)."""
        return cls.from_positions(np.flatnonzero(bits) + 1, len(bits))

    @classmethod
    def from_positions(cls, positions, nbits: int) -> "BitSequence":
        """Build an nbits-long bitmap with ones at the given 1-based
        positions, in any order; a repeated position sets its bit once."""
        if int(nbits) < 0:
            raise ValueError("negative bit length")
        pos = np.unique(np.asarray(positions, dtype=np.int64))
        if len(pos) and (pos[0] < 1 or pos[-1] > nbits):
            raise ValueError("one-position out of [1, nbits]")
        return cls(pos, nbits)

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return self.nbits == other.nbits and self._ones_at == other._ones_at

    def __hash__(self):
        return hash((self.nbits, self._ones_at.tobytes()))

    @property
    def ones(self) -> int:
        """Number of set bits."""
        return len(self._ones_at)

    def access(self, pos: int) -> int:
        if not 1 <= pos <= self.nbits:
            raise ValueError(f"access({pos}) outside [1, {self.nbits}]")
        k = bisect_right(self._ones_at, pos)
        return int(k > 0 and self._ones_at[k - 1] == pos)

    def rank1(self, pos: int) -> int:
        """Count ones in [1, pos]; pos may be 0."""
        if not 0 <= pos <= self.nbits:
            raise ValueError(f"rank1({pos}) outside [0, {self.nbits}]")
        return bisect_right(self._ones_at, pos)

    def select1(self, k: int) -> int:
        """Position of the k-th one (1-based)."""
        if not 1 <= k <= len(self._ones_at):
            raise ValueError(f"select1({k}): bitmap has {len(self._ones_at)} ones")
        return self._ones_at[k - 1]

    def positions(self) -> np.ndarray:
        """All 1-based positions of set bits, ascending (a read-only view)."""
        view = np.frombuffer(self._ones_at, dtype=np.int64)
        view.setflags(write=False)
        return view

    def serialize(self) -> bytes:
        """Bit length as u64 LE, then the payload padded to whole words."""
        out = np.zeros(1 + (self.nbits + 63) // 64, dtype="<u8")
        out[0] = self.nbits
        at = self.positions() - 1
        if len(at):
            # OR together the bits of each run of positions in one word
            word = at >> 6
            first = np.flatnonzero(np.diff(word, prepend=-1))
            bits = np.left_shift(np.uint64(1), (at & 63).astype(np.uint64))
            out[1 + word[first]] = np.bitwise_or.reduceat(bits, first)
        return out.tobytes()

    @classmethod
    def deserialize(cls, buf) -> "BitSequence":
        if len(buf) < 8:
            raise ValueError(f"bitmap blob has {len(buf)} bytes, its header needs 8")
        (nbits,) = struct.unpack_from("<Q", buf, 0)
        nwords = (nbits + 63) // 64
        if len(buf) != 8 + 8 * nwords:
            raise ValueError(
                f"bitmap blob has {len(buf)} bytes, {nbits} bits need {8 + 8 * nwords}"
            )
        words = np.frombuffer(buf, dtype="<u8", offset=8, count=nwords)
        if nbits % 64 and int(words[-1]) >> (nbits % 64):
            raise ValueError(f"bitmap blob sets bits past its {nbits} bits")
        used = np.flatnonzero(words)
        bits = np.unpackbits(words[used].view(np.uint8), bitorder="little")
        at = np.flatnonzero(bits.view(bool))  # numpy scans bools far faster than bytes
        return cls(used[at >> 6] * 64 + (at & 63) + 1, nbits)

    def serialized_length(self) -> int:
        return 8 + 8 * ((self.nbits + 63) // 64)

    def __repr__(self):
        return f"BitSequence(nbits={self.nbits}, ones={self.ones})"
