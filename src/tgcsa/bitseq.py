"""Plain bit vectors with rank and select over their sorted one-positions.

Positions are 1-based everywhere: access(pos) reads bit pos, rank1(pos)
counts ones in [1, pos] (rank1(0) == 0), and select1(k) returns the
position of the k-th one. The off-by-one convention matches the rest of
the index, where 0 doubles as the boundary "before everything".

Each bitmap of the index has at most one one per contact term, so
besides its words a bitmap keeps the ascending list of its
one-positions: select1 indexes that list and rank1 bisects it.

Instances are immutable after construction and safe to share between
threads. Serialization stores the bit length and the payload words; the
one-position list is recomputed on load.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right

import numpy as np


class BitSequence:
    """Uncompressed bitmap over 64-bit little-endian words.

    Bit i of the sequence lives at bit (i-1) % 64 of word (i-1) // 64.
    The words serve access, serialization and equality; the sorted
    1-based one-positions (a signed 64-bit array) serve rank and select.
    """

    __slots__ = ("nbits", "_words", "_ones_at")

    def __init__(self, words, nbits: int):
        nbits = int(nbits)
        if nbits < 0:
            raise ValueError("negative bit length")
        words = np.array(words, dtype=np.uint64, copy=True)
        if len(words) != (nbits + 63) // 64:
            raise ValueError(
                f"payload has {len(words)} words, {nbits} bits need {(nbits + 63) // 64}"
            )
        if nbits % 64 and len(words):
            words[-1] &= np.uint64((1 << (nbits % 64)) - 1)
        self.nbits = nbits
        self._words = words
        bits = np.unpackbits(words.view(np.uint8), bitorder="little", count=nbits)
        self._ones_at = array("q", (np.flatnonzero(bits) + 1).astype(np.int64).tobytes())

    @classmethod
    def from_bits(cls, bits) -> "BitSequence":
        """Build from a sequence of 0/1 values (list, tuple, or array)."""
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("expected a flat bit sequence")
        packed = np.packbits(arr, bitorder="little")
        pad = (-len(packed)) % 8
        if pad:
            packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
        return cls(packed.view(np.uint64), len(arr))

    @classmethod
    def from_positions(cls, positions, nbits: int) -> "BitSequence":
        """Build an nbits-long bitmap with ones at the given 1-based positions."""
        bits = np.zeros(nbits, dtype=np.uint8)
        pos = np.asarray(positions, dtype=np.int64)
        if len(pos):
            if pos.min() < 1 or pos.max() > nbits:
                raise ValueError("one-position out of [1, nbits]")
            bits[pos - 1] = 1
        return cls.from_bits(bits)

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return self.nbits == other.nbits and np.array_equal(self._words, other._words)

    def __hash__(self):
        return hash((self.nbits, self._words.tobytes()))

    @property
    def ones(self) -> int:
        """Number of set bits."""
        return len(self._ones_at)

    def access(self, pos: int) -> int:
        if not 1 <= pos <= self.nbits:
            raise ValueError(f"access({pos}) outside [1, {self.nbits}]")
        q, r = divmod(pos - 1, 64)
        return int(self._words[q]) >> r & 1

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
        return struct.pack("<Q", self.nbits) + self._words.astype("<u8").tobytes()

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
        return cls(words, nbits)

    def serialized_length(self) -> int:
        return 8 + 8 * len(self._words)

    def __repr__(self):
        return f"BitSequence(nbits={self.nbits}, ones={self.ones})"
