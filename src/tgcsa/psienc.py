"""Psi encodings.

Three ways to store the permutation, all exposing the same small surface
(access, access_many, stretch, lead, exceeds, range, values, size_bits,
serialization sections).
access_many(positions) returns psi at a list or int64 array of positions
as an int64 array, taking each sample block the positions touch once; on
the vbyte codec it has a fixed cost of about 25 pointwise accesses, so
the window queries (snapshot, activated and deactivated edges) hop
through it, while the pattern, pair, neighbour and reconstruction
queries stay with access. stretch(lo, hi, x, y) returns (first, values):
the first i in [lo, hi] with psi(i) >= x, or hi + 1, and psi(first),
psi(first + 1), ... while the value is below y and the position at most
hi. It is valid where both predicates are monotone on [lo, hi], which
holds inside any group of sections 1..arity-1 when x and y are group
starts of the next section (or the position past it); with y = x it
only finds first. The sampled codecs answer it the way a compressed
suffix array does: bisect the stored samples for x, then decode forward
once from the sample before first, through the values. range(lo, hi)
is that walk with both cuts open (-TOP and TOP, 2**63). lead(lo, hi,
y) is the walk stretch(lo, hi, y, y) makes, keeping the values below y
it passes from the sample it starts at (or from lo, if that is later;
plain starts at lo). exceeds(i, z) tells whether psi(i) > z where that
test is monotone along i's group, as it is in a start-time group for
the right edge z of an end-time group: the same order that makes a
start group's last value its latest end. The sampled codecs answer it
from the sample that opens i's block when that is past z, or from the
next sample of the group when that is at or below z, and otherwise walk
from the block's sample to the first value past z, or to i. values()
returns all of Psi as one int64 array, decoded with array operations.
Positions outside 1..n raise ValueError. No decoder checks a value it
decodes: the index's constructor proves all of values() (sacsa._prove).

The two sampled codecs share one block layout (_SampledPsi): a block
opens at every group start and every t_psi positions inside a group,
where D and t_psi alone say, and its sample holds the value there and
the stream offset of the block's codes. Both follow one run rule: no +1
run goes on past a sample, so every block's codes begin on a token.
access finds a position's block with one bisect; stretch bisects the
group's samples for x; range walks each group from the block that holds
lo; exceeds reads the samples on either side of its position. Each
codec decodes inside its blocks with its own loops.

* plain: every value v as v - 1, in one table bit-packed at its minimum
  width after its count and width (_fixed_section, read back by
  _read_fixed, as every packed table of the other codecs is); for a
  permutation of 1..N that is ceil(log2 N) bits a value. Fast, no
  compression, and it round-trips any values from 1 to INT64_MAX.
* vbyte-rle: per-group gap streams. Within a group the first value is a
  sample (s0); the rest are byte codes for the successive differences,
  with maximal runs of +1 folded into a <1, length> pair, cut after
  every sample. The image stores s0 and the stream alone, in one
  section: s0 bit-packed as the Huffman tables are, then the stream; the
  codec's eight other sections are reserved and stay empty. Every other
  sample's value and stream offset follows from the stream, given D and
  t_psi. Build and load both derive them in the one constructor, which
  decodes the whole stream with the batch decoder's code cut and rejects
  a stream whose tokens do not end at every sample and give every group
  exactly its positions, a marker with no payload, a run length or
  magnitude of 0, a code that could sum past int64, and a sample
  outside 1 up to the bound that keeps those sums inside int64. Tag 2,
  an earlier variant without the off0 and off1 slots, is retired.
* huff-rle-opt: Huffman-codes run lengths, small literal gaps, and
  escape classes for everything else into a single bitstream, which
  codes only the positions between samples: +1 runs are cut at every
  block start. A gap of 0 inside a group has no code, so build refuses
  one, as the byte codec does; it also refuses a gap larger than
  values() accepts. Decoding looks each token up in a table indexed by
  the next few stream bits, built from the code lengths when the codec
  is built or loaded. access and the stretch walk each decode in one loop
  with that lookup inline, and values() decodes every block at once,
  one token per lane in each numpy step. The image stores the code
  lengths, the samples and the pointers bit-packed at their minimum
  widths, each after its count and width. A load takes each table only
  at its minimum width with zero padding, its pointers only in order
  and inside the stream, and a stream only when it is exactly the bytes
  its bit count needs and every bit after the count is zero. The
  paper's Huffman Psi samples every t_psi positions over all of Psi;
  sampling per group makes each group start free, so a hop decodes
  from the later of the two.

Byte codes use 7-bit little-endian groups with the high bit set on the
final byte only, so 5 encodes as 0x85 and 135 as 0x07 0x81. vbyte_codes
writes a whole array of them at once; the pointwise vbyte decoders read
each gap code inline, and only run lengths and escaped magnitudes go
through vbyte_decode, while access_many and the vbyte constructor cut
and read codes with numpy, in one function. Both sampled codecs encode
with array operations over all of Psi, with no Python loop per group,
block or token. Gaps inside a group are never zero (the permutation
has no repeats) but can be negative when duplicate contacts or the
end-section remap invert the order; those are written as an escaped 0
followed by the magnitude.
"""

from __future__ import annotations

import heapq
import struct
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from .bitseq import BitSequence

TAGS = {"plain": 0, "vbyte-rle": 1, "huff-rle-opt": 3}
NAMES = {tag: name for name, tag in TAGS.items()}
T_PSI_MAX = 0xFFFF  # the TGX1 header stores t_psi in 16 bits
INT64_MAX = (1 << 63) - 1
TOP = INT64_MAX + 1  # range's open upper cut: no int64 value reaches it
_SECTION_COUNTS = {0: 1, 1: 9, 3: 4}


def vbyte_codes(values) -> tuple[bytes, np.ndarray]:
    """The byte codes of non-negative integers back to back, and the
    offset just past each code."""
    x = np.asarray(values, dtype=np.int64)
    if len(x) and int(x.min()) < 0:
        raise ValueError("byte codes hold non-negative integers only")
    width = np.ones(len(x), dtype=np.int64)
    shift = 7
    while len(x) and int(x.max()) >> shift:
        width += (x >> shift) > 0
        shift += 7
    ends = np.cumsum(width)
    out = np.zeros(int(ends[-1]) if len(x) else 0, dtype=np.uint8)
    for k in range(shift // 7):
        has = width > k
        out[ends[has] - width[has] + k] = (x[has] >> 7 * k) & 0x7F
    out[ends - 1] |= 0x80
    return out.tobytes(), ends


def vbyte_decode(buf, pos: int = 0) -> tuple[int, int]:
    """Decode one byte code at pos; returns (value, position after it)."""
    value = 0
    shift = 0
    while True:
        b = buf[pos]
        pos += 1
        if b & 0x80:
            return value | ((b & 0x7F) << shift), pos
        value |= b << shift
        shift += 7


def _pack_fixed(vals: np.ndarray, width: int) -> bytes:
    """Pack vals (already reduced to fit) into width-bit little-endian
    slots, through each value's eight bytes."""
    bits = np.unpackbits(np.asarray(vals, dtype="<u8").view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    return np.packbits(bits[:, :width], bitorder="little").tobytes()


def _unpack_fixed(payload: bytes, count: int, width: int) -> np.ndarray:
    bits = np.zeros((count, 64), dtype=np.uint8)
    bits[:, :width] = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                                    count=count * width, bitorder="little").reshape(count, width)
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").ravel()


def _min_width(vals) -> int:
    """The fewest bits that hold every value, at least 1."""
    return max(1, int(vals.max()).bit_length()) if len(vals) else 1


def _fixed_section(vals: np.ndarray) -> bytes:
    """A uint64 table as a section: its count and width, then the values
    packed at that width, the table's minimum."""
    width = _min_width(vals)
    return struct.pack("<QB7x", len(vals), width) + _pack_fixed(vals, width)


def _fixed_header(blob: bytes, what: str) -> tuple[int, int, int]:
    """(count, width, end) from the header _fixed_section wrote at the
    start of blob: the table's count and width, and the offset where a
    payload of that size ends."""
    if len(blob) < 16:
        raise ValueError(f"{what} section is shorter than its header")
    count, width = struct.unpack_from("<QB", blob, 0)
    return count, width, 16 + (count * width + 7) // 8


def _read_fixed(blob: bytes, what: str) -> np.ndarray:
    """The table of a section that _fixed_section wrote, as uint64. A
    payload that disagrees with its header, a width that is not the
    table's minimum and padding bits that are set raise ValueError."""
    count, width, end = _fixed_header(blob, what)
    if not 1 <= width <= 64 or len(blob) != end:
        raise ValueError(f"{what} payload disagrees with its header")
    if any(blob[9:16]) or (count * width % 8 and blob[-1] >> (count * width % 8)):
        raise ValueError(f"{what} section sets padding bits")
    vals = _unpack_fixed(blob[16:], count, width)
    if width != _min_width(vals):
        raise ValueError(f"{what} table is not at its minimum width of {_min_width(vals)} bits")
    return vals


def _u64_array(a) -> array:
    """A u64 table as an array("Q"): indexing and bisect see Python ints,
    with no numpy scalar boxed per read."""
    return array("Q", np.asarray(a, dtype=np.uint64).tobytes())


def _outside(lo: int, hi: int, n: int) -> ValueError:
    # only a corrupted image hands the codecs such positions
    return ValueError(f"Psi position {lo} is outside 1..{n}" if lo == hi
                      else f"Psi positions {lo}..{hi} are outside 1..{n}")


def checked_positions(positions, n: int) -> np.ndarray:
    """positions as an int64 array, each in 1..n or ValueError. A list is
    checked before numpy sees it, so no Python int past int64 reaches it."""
    if not isinstance(positions, np.ndarray):
        if len(positions) and not (1 <= min(positions) and max(positions) <= n):
            raise _outside(min(positions), max(positions), n)
        return np.array(positions, dtype=np.int64)
    positions = positions.astype(np.int64, copy=False)
    if len(positions) and (positions.min() < 1 or positions.max() > n):
        raise _outside(int(positions.min()), int(positions.max()), n)
    return positions


def _i64_array(a) -> array:
    """A non-negative table as an array("q"): indexing and bisect see
    Python ints, and np.frombuffer views it as int64 without a copy."""
    return array("q", np.asarray(a, dtype=np.uint64).astype(np.int64).tobytes())


class PlainPsi:
    """Fixed-width array: value v stored as v-1, in one table at its
    minimum width (_fixed_section); for a permutation of 1..N that is
    ceil(log2 N) bits."""

    name = "plain"
    tag = 0
    t_psi = 0

    def __init__(self, vals: np.ndarray):
        self._vals = np.ascontiguousarray(vals, dtype=np.int64)
        self._n = len(self._vals)
        self.width = _min_width(self._vals - 1)

    @classmethod
    def build(cls, psi: np.ndarray, D=None, t_psi: int = 0) -> "PlainPsi":
        return cls(psi)

    def __len__(self):
        return self._n

    def access(self, i: int) -> int:
        if not 1 <= i <= self._n:
            raise _outside(i, i, self._n)
        return int(self._vals[i - 1])

    def range(self, lo: int, hi: int) -> list[int]:
        if lo > hi:
            return []
        if lo < 1 or hi > self._n:
            raise _outside(lo, hi, self._n)
        return self._vals[lo - 1:hi].tolist()

    def access_many(self, positions) -> np.ndarray:
        return self._vals[checked_positions(positions, self._n) - 1]

    def values(self) -> np.ndarray:
        """All of Psi as one int64 array: the array itself."""
        return self._vals

    def stretch(self, lo: int, hi: int, x: int, y: int) -> tuple[int, list[int]]:
        """(first, values): the first i in [lo, hi] with psi(i) >= x, or
        hi + 1, and psi from there on while it is below y and the
        position at most hi. Both predicates must be monotone on [lo, hi]."""
        if lo > hi:
            return hi + 1, []
        if lo < 1 or hi > self._n:
            raise _outside(lo, hi, self._n)
        vals = self._vals
        first = bisect_left(vals, x, lo - 1, hi)
        return first + 1, vals[first:bisect_left(vals, y, first, hi)].tolist()

    def lead(self, lo: int, hi: int, y: int) -> tuple[int, list[int]]:
        """(lo, values): psi from lo on while it is below y and the
        position at most hi. psi < y must be monotone on [lo, hi]."""
        if lo > hi:
            return lo, []
        return lo, self.stretch(lo, hi, -TOP, y)[1]

    def exceeds(self, i: int, z: int) -> bool:
        """Whether psi(i) > z: one array read."""
        return self.access(i) > z

    def size_bits(self) -> int:
        return len(self._vals) * self.width

    def to_sections(self) -> list[bytes]:
        return [_fixed_section(self._vals - 1)]

    @classmethod
    def from_sections(cls, sections, D: BitSequence) -> "PlainPsi":
        """The codec; the index's proof of Psi rejects a value past n."""
        n = _fixed_header(sections[0], "fixed-width")[0]
        if n != D.nbits:
            raise ValueError(f"fixed-width header holds {n} values, D has {D.nbits} bits")
        return cls(_read_fixed(sections[0], "fixed-width").astype(np.int64) + 1)


class _SampledPsi:
    """The sample blocks of the two sampled codecs, and the lookups on them.

    A block opens at every group start and every t_psi positions inside
    a group (where, _blocks derives from D and t_psi alone) and runs up
    to the next one. The table keeps, per block in position order, which
    is also stream order, the opening sample's position, value and
    stream offset; position n + 1 and the stream end close the position
    and offset columns. No +1 run goes on past a sample, so a block's
    codes begin on a token. Each codec decodes inside its blocks with its
    own access and _walk loops; the lookups that pick a block are here,
    once: _sample, _front (for stretch and lead), range's loop over
    groups and exceeds, which reads one more column: whether each block
    opens a group.
    """

    def _set_blocks(self, D: BitSequence, t_psi: int, opens, starts, val, ptr, end: int):
        self._D = D
        self._n = D.nbits
        self.t_psi = t_psi
        self._open = _i64_array(np.flatnonzero(opens))   # each group's first block
        self._opens = bytes(np.append(opens, True))       # whether each block (or n + 1) opens a group
        self._bpos = _i64_array(np.append(starts, D.nbits + 1))
        self._bval = _u64_array(val)
        self._bptr = _i64_array(np.append(ptr, end))

    def __len__(self):
        return self._n

    def _sample(self, b: int) -> tuple[int, int, int]:
        """(p, v, pos) at the sample that opens block b: its position and
        value, and the stream offset after it."""
        return self._bpos[b], self._bval[b], self._bptr[b]

    def _columns(self) -> tuple[np.ndarray, ...]:
        """The block table as int64 views: start position, value and
        stream offset."""
        return tuple(np.frombuffer(a, dtype=np.int64)
                     for a in (self._bpos, self._bval, self._bptr))

    def range(self, lo: int, hi: int) -> list[int]:
        """Decode positions lo..hi: stretch's walk with both cuts open,
        once per group from lo's block; proven values never reach TOP."""
        if lo > hi:
            return []
        if lo < 1 or hi > self._n:
            raise _outside(lo, hi, self._n)
        out = []
        c = self._D.rank1(lo)
        while lo <= hi:
            g = self._open[c - 1]
            stop = min(hi, self._bpos[self._open[c]] - 1) if c < len(self._open) else hi
            b = g + (lo - self._bpos[g]) // self.t_psi
            out += self._walk(b, lo, stop, -TOP, TOP, stop)[1]
            lo = stop + 1
            c += 1
        return out

    def _front(self, lo: int, hi: int, x: int) -> tuple[int, int]:
        """(b, stop) for a walk over [lo, hi] to the first value at least
        x: the block whose sample it starts from, and the position it
        decodes no further than while it seeks.

        [lo, hi] must lie in one group on which psi >= x is monotone. The
        samples inside (lo, hi] are bisected for the first one at or
        above x; the first value at least x then lies in the block that
        ends there (or in the last block).
        """
        if lo < 1 or hi > self._n:
            raise _outside(lo, hi, self._n)
        c = self._D.rank1(lo)
        if c < len(self._open) and hi >= self._bpos[self._open[c]]:
            raise ValueError(f"Psi stretch {lo}..{hi} crosses a group end")
        g = self._open[c - 1]
        l = self._bpos[g]
        b = g + (lo - l) // self.t_psi
        last = g + (hi - l) // self.t_psi
        if last > b:
            # blocks b + 1..last open at the group's samples inside (lo, hi]
            k = bisect_left(self._bval, x, b + 1, last + 1)
            return k - 1, (self._bpos[k] if k <= last else hi)
        return b, hi

    def stretch(self, lo: int, hi: int, x: int, y: int) -> tuple[int, list[int]]:
        """(first, values): the first i in [lo, hi] with psi(i) >= x, or
        hi + 1, and psi from there on while it is below y and the
        position at most hi.

        [lo, hi] must lie in one group on which both predicates are
        monotone. One walk decodes forward from the sample _front picks,
        a +1 run in one step, and goes on past first for the values.
        """
        if lo > hi:
            return hi + 1, []
        b, stop = self._front(lo, hi, x)
        return self._walk(b, lo, hi, x, y, stop)

    def lead(self, lo: int, hi: int, y: int) -> tuple[int, list[int]]:
        """(first, values): psi from first on while it is below y and the
        position at most hi, where first is the later of lo and the
        sample before the first i in [lo, hi] with psi(i) >= y.

        The walk is the one stretch(lo, hi, y, y) makes to find that i,
        keeping the values it passes; psi < y must be monotone on
        [lo, hi], which must lie in one group.
        """
        if lo > hi:
            return lo, []
        b = self._front(lo, hi, y)[0]
        first = max(lo, self._bpos[b])
        return first, self._walk(b, first, hi, -TOP, y, hi)[1]

    def exceeds(self, i: int, z: int) -> bool:
        """Whether psi(i) > z, where psi > z never turns from true to
        false along i's group.

        The sample that opens i's block settles it when it is past z, and
        so does the next sample when it lies in the same group at or
        below z; neither decodes. Otherwise one walk from the block's
        sample ends at the first value past z, or at i.
        """
        if not 1 <= i <= self._n:
            raise _outside(i, i, self._n)
        b = bisect_right(self._bpos, i) - 1
        if self._bval[b] > z:
            return True
        if not self._opens[b + 1] and self._bval[b + 1] <= z:
            return False
        return self._walk(b, self._bpos[b], i, z + 1, z + 1, i)[0] <= i


class VbyteRlePsi(_SampledPsi):
    """Gap-coded groups with run folding over the sample blocks of _SampledPsi.

    Each group opens with its value (s0); the stream then holds one token
    per gap or maximal +1 run of the group's later positions, and a
    group's tokens end where the next group's begin. A block opens at
    every group start l and at every l + j*t_psi inside the group, and
    no run goes on past a sample: the token that covers a sample ends
    there. A block's sample holds the value there and the stream offset
    just past that token, where the block's codes begin. access decodes
    in one loop; stretch and range share one walk, _walk, which reads a
    group's codes straight across its samples.

    The constructor takes the stream and s0 alone, and build and load
    both go through it. It cuts the whole stream with _codes, the code
    cut access_many shares, and sums the tokens' steps: every sample
    must fall where a token ends, which gives every block's offset, and
    the summed value changes give its value. It keeps the codes' steps
    and value changes only for the first values() call, the index's
    proof, which would otherwise cut the stream again. It rejects a
    stream whose tokens do not end at every sample and give every group
    exactly its positions (so no run crosses a block start, and no code
    is missing or left over), a last code that does not end at the stream's last
    byte, a marker with no payload, a run length or magnitude of 0, and
    a sample outside 1.._bound. No pointer is stored, so slack in the
    stream cannot make a walk disagree with access. The image's first
    Psi section holds s0, bit-packed at its minimum width
    (_fixed_section), and then the stream; one section rather than two,
    since every section is padded to a word. The other eight sections
    are reserved and stay empty: the slots of the tables the stream
    determines, kept so that every image has nine Psi sections.

    The decoders check no stream end of their own, since a load proves
    two things. Each group's tokens give exactly its positions, every
    marker with its payload; and every block's codes end at the next
    sample, or at the group's end. So the codes from a block's offset
    up to the next block's give exactly the block's steps. access
    decodes no more steps than its block's codes give, a walk no more
    than its group's, and access_many reads a whole block at most, which
    gives every position in it: none reads a code past the ones it
    needs, or past the stream. No sum of the codes passes int64 either,
    since every code and sample is at most _bound.

    build cuts the gaps into tokens in one pass (_tokens: a +1 run opens
    at a group start, after any other gap, or after a sample) and writes
    every token's codes with vbyte_codes.
    """

    name = "vbyte-rle"
    tag = 1
    range = _SampledPsi.range  # in the class itself, as access is

    def __init__(self, stream: bytes, s0, D: BitSequence, t_psi: int):
        self._stream = bytes(stream)
        self._bytes = buf = np.frombuffer(self._stream, dtype=np.uint8)
        # _codes rejects any code above this before the codes are summed,
        # so no sum over the stream's codes wraps int64
        self._bound = bound = INT64_MAX // (len(buf) + 2)
        self._wmax = -(-bound.bit_length() // 7)          # the widest code up to bound
        if len(s0) != D.ones:
            raise ValueError(f"vbyte codec needs {D.ones} group samples, "
                             f"the image holds {len(s0)}")
        if len(buf) and buf[-1] < 0x80:
            raise ValueError("vbyte code runs past the end of the stream")
        ends, _, marker, steps, delta = self._codes(buf, buf >= 0x80, [0])
        if len(marker) and marker[-1] == len(ends) - 1:
            raise ValueError("vbyte marker at the end of the stream has no payload")
        tok = np.ones(len(ends), dtype=bool)
        tok[marker] = False                                # every other code ends a token
        if np.any(delta[tok] == 0):
            raise ValueError("vbyte run length or magnitude of 0")
        # at every token end: the steps so far, and the sum of the value changes
        C = np.append(0, steps[tok].cumsum())
        V = np.append(0, delta[tok].cumsum())
        if C[-1] != D.nbits - D.ones:
            raise ValueError(f"vbyte stream codes {C[-1]} steps, "
                             f"the groups hold {D.nbits - D.ones}")
        opens, starts = _blocks(D, t_psi)
        groups = opens.cumsum()                            # each block's group, from 1
        S = starts - groups                                # the steps up to each sample
        k = np.searchsorted(C, S)                          # the token that ends there
        if np.any(C[k] != S):
            raise ValueError("vbyte run crosses a block start")
        s0 = np.asarray(s0, dtype=np.uint64).astype(np.int64)
        val = (s0 - V[k[opens]])[groups - 1] + V[k]
        # samples up to bound keep access_many's sums in int64 (a sample
        # past it may be past int64 too, which would read as negative)
        if len(val) and (val.min() < 1 or val.max() > bound):
            raise ValueError(f"vbyte sample outside 1..{bound}")
        self._set_blocks(D, t_psi, opens, starts, val, np.append(0, ends[tok] + 1)[k], len(buf))
        self._cut = steps, delta

    def values(self) -> np.ndarray:
        """All of Psi: the stream's codes, as the constructor cut them (on
        the first call) or cut again, summed from each group's sample; a
        marker takes no step."""
        cut, self._cut = self._cut, None
        steps, delta = cut or self._codes(self._bytes, self._bytes >= 0x80, [0])[3:]
        return _expand(steps, delta, self._D.positions(), self._s0().astype(np.int64), self._n)

    def _codes(self, buf: np.ndarray, term: np.ndarray, at) -> tuple[np.ndarray, ...]:
        """Cut buf into its codes and read them. A code ends at every byte
        term marks, and each part of buf begins at an offset in at, on a
        token boundary, so in a maximal run of 0/1-valued codes inside a
        part markers and payloads alternate, and a code after a marker is
        its payload.

        Returns (ends, fc, marker, steps, delta): each code's last byte,
        each part's first code, the markers, and each code's steps and
        value change: none for a marker, L for both for a <1, L> pair's
        payload, one step down by the magnitude for a <0, m> pair's
        payload, and one step by its value for any other code. A code
        wider than any up to _bound, or above it, raises ValueError
        before anything is summed.
        """
        ends = np.flatnonzero(term)
        m = len(ends)
        width = ends + 1
        width[1:] -= ends[:-1] + 1
        if m and width.max() > self._wmax:
            raise ValueError(f"vbyte code wider than {self._wmax} bytes")
        starts = ends - width + 1
        val = (buf[starts] & 0x7F).astype(np.int64)
        for k in range(1, int(width.max()) if m else 0):
            has = np.flatnonzero(width > k)
            val[has] |= (buf[starts[has] + k] & 0x7F).astype(np.int64) << 7 * k
        if m and val.max() > self._bound:
            raise ValueError(f"vbyte code above {self._bound}")
        fc = np.searchsorted(ends, at)
        opens = np.zeros(m + 1, dtype=bool)
        opens[fc] = True
        opens[m] = True
        small = np.flatnonzero(val <= 1)
        j = np.arange(len(small))
        run = np.ones(len(small), dtype=bool)       # a run of 0/1 codes starts
        np.not_equal(small[1:], small[:-1] + 1, out=run[1:])
        run |= opens[small]
        marker = small[(j - np.maximum.accumulate(np.where(run, j, 0))) & 1 == 0]
        pay = marker[~opens[marker + 1]] + 1
        ones = pay[val[pay - 1] == 1]
        esc = pay[val[pay - 1] == 0]
        steps = np.ones(m, dtype=np.int64)
        steps[marker] = val[marker] = 0
        steps[ones] = val[ones]
        val[esc] *= -1
        return ends, fc, marker, steps, val

    @classmethod
    def build(cls, psi: np.ndarray, D: BitSequence, t_psi: int) -> "VbyteRlePsi":
        return cls(_vbyte_stream(psi, D, t_psi), psi[D.positions() - 1], D, t_psi)

    def access(self, i: int) -> int:
        if not 1 <= i <= self._n:
            raise _outside(i, i, self._n)
        p, v, pos = self._sample(bisect_right(self._bpos, i) - 1)
        steps = i - p
        stream = self._stream
        while steps:
            b = stream[pos]
            pos += 1
            g = b & 0x7F
            shift = 7
            while b < 0x80:
                b = stream[pos]
                pos += 1
                g |= (b & 0x7F) << shift
                shift += 7
            if g == 1:
                length, pos = vbyte_decode(stream, pos)
                take = min(steps, length)
                v += take
                steps -= take
            elif g == 0:
                mag, pos = vbyte_decode(stream, pos)
                v -= mag
                steps -= 1
            else:
                v += g
                steps -= 1
        return v

    def access_many(self, positions) -> np.ndarray:
        """psi at each of the positions, in the order given, as int64.

        The positions are mapped to their sample blocks, and each block
        they touch is decoded once with array operations, up to the
        furthest position asked in it: _codes cuts the blocks' bytes
        into codes and reads each code's steps and value change. Every
        position is then read off the blocks' cumulative steps and
        values with one searchsorted.

        A block's bytes are read only as far as its share of them for
        the furthest position, plus a margin; a block that falls short
        is read again in full, which gives all its positions.
        """
        i = checked_positions(positions, self._n)
        out = np.empty(len(i), dtype=np.int64)
        if not len(i):
            return out
        order = np.argsort(i, kind="stable")
        i = i[order]
        bpos, bval, bptr = self._columns()
        b = np.searchsorted(bpos, i, side="right") - 1
        edge = np.ones(len(i) + 1, dtype=bool)          # where the block changes
        np.not_equal(b[1:], b[:-1], out=edge[1:-1])
        blk = b[edge[:-1]]                              # the touched blocks
        r = edge[:-1].cumsum() - 1                      # each position's index in blk
        off = i - bpos[b]                               # its steps past the sample
        far = off[edge[1:]]                             # the furthest one per block
        a, full = bptr[blk], bptr[blk + 1]
        size = bpos[blk + 1] - bpos[blk]
        stop = np.minimum(full, a + (full - a) * (far + 1) // size + 2 * self._wmax)
        while True:
            lens = stop - a
            at = lens.cumsum() - lens                   # each block's first byte in buf
            buf = self._bytes[np.arange(int(lens.sum())) + np.repeat(a - at, lens)]
            term = buf >= 0x80
            term[(at + lens - 1)[lens > 0]] = True      # no code runs into the next block
            ends, fc, _, steps, delta = self._codes(buf, term, at)
            m = len(ends)
            fcn = np.append(fc[1:], m)                  # each block's first code after it
            # the last code of a shortened block may be cut short: it
            # counts for nothing (a cut code is never wider or larger
            # than the whole one, so _codes' checks still hold)
            cut = fcn[(stop < full) & (lens > 0)] - 1
            steps[cut] = delta[cut] = 0
            cs = np.zeros(m + 1, dtype=np.int64)
            steps.cumsum(out=cs[1:])
            before = cs[fc]
            short = cs[fcn] - before < far
            if not short.any():
                break
            stop = np.where(short, full, stop)
        # a position off > 0 steps past its sample is reached by the first
        # code of its block whose step count G reaches before + off; only a
        # run can overshoot it (any other code takes one step, and a marker
        # none), and a run's value change is its step count
        vals = bval[b]
        tail = off > 0
        if tail.any():
            rt = r[tail]
            T = before[rt] + off[tail]
            G = cs[1:]
            k = np.searchsorted(G, T)
            dv = np.zeros(m + 1, dtype=np.int64)
            delta.cumsum(out=dv[1:])
            vals[tail] += dv[k + 1] - dv[fc[rt]] - (G[k] - T)
        out[order] = vals
        return out

    def _walk(self, b: int, lo: int, hi: int, x: int, y: int,
              stop: int) -> tuple[int, list[int]]:
        """stretch's forward walk from the sample that opens block b: it
        seeks the first position from lo on whose value is at least x,
        decoding no further than stop while it seeks, then collects the
        values below y up to hi. A +1 run takes one step."""
        p, v, pos = self._sample(b)
        first, out = hi + 1, []
        seek = p < lo or v < x
        if not seek:
            first, stop = p, hi
            if v >= y:
                return first, out
            out.append(v)
        stream = self._stream
        while p < stop:
            b = stream[pos]
            pos += 1
            g = b & 0x7F
            shift = 7
            while b < 0x80:
                b = stream[pos]
                pos += 1
                g |= (b & 0x7F) << shift
                shift += 7
            if g == 1:
                run, pos = vbyte_decode(stream, pos)
                take = min(run, stop - p)
                if seek:
                    q = max(lo, p + 1, p + x - v)
                    if q > p + take:
                        v += take
                        p += take
                        continue
                    first, seek, stop = q, False, hi
                    take = min(run, hi - p)
                else:
                    q = p + 1
                if v + take >= y:
                    out.extend(range(v + q - p, y))
                    break
                out.extend(range(v + q - p, v + take + 1))
                v += take
                p += take
                continue
            if g == 0:
                mag, pos = vbyte_decode(stream, pos)
                v -= mag
            else:
                v += g
            p += 1
            if seek:
                if p < lo or v < x:
                    continue
                first, seek, stop = p, False, hi
            if v >= y:
                break
            out.append(v)
        return first, out

    def _s0(self) -> np.ndarray:
        """The group samples: the one table the image stores."""
        opens = np.frombuffer(self._open, dtype=np.int64)
        return np.frombuffer(self._bval, dtype=np.uint64)[opens]

    def size_bits(self) -> int:
        # as the image stores them: s0 at its minimum width, and the stream
        s0 = self._s0()
        return 8 * len(self._stream) + len(s0) * _min_width(s0)

    def to_sections(self) -> list[bytes]:
        return [_fixed_section(self._s0()) + self._stream] + [b""] * 8

    @classmethod
    def from_sections(cls, sections, D: BitSequence, t_psi: int) -> "VbyteRlePsi":
        blob, *reserved = sections
        if any(reserved):
            raise ValueError("vbyte codec's reserved sections 2 to 9 must be empty")
        # the s0 table's header gives its length; the stream is the rest
        end = _fixed_header(blob, "vbyte group sample")[2]
        return cls(blob[end:], _read_fixed(blob[:end], "vbyte group sample"), D, t_psi)


def _blocks(D: BitSequence, t_psi: int) -> tuple[np.ndarray, np.ndarray]:
    """(opens, starts) of the sample blocks, in position order: whether
    each block opens a group, and the position its sample sits at, l +
    j*t_psi for every group start l and 0 <= j <= (group length - 1) //
    t_psi."""
    starts = D.positions()
    counts = (np.append(starts[1:], D.nbits + 1) - starts - 1) // t_psi + 1
    before = np.cumsum(counts) - counts
    j = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(before, counts)
    return j == 0, np.repeat(starts, counts) + j * t_psi


def _expand(steps, delta, starts, firsts, n: int) -> np.ndarray:
    """Psi from firsts, its values at starts, and the tokens of the other
    positions in order (one of several steps is a +1 run): one cumsum."""
    d = np.repeat(np.where(steps > 1, 1, delta), steps)
    c = np.insert(d, starts - 1 - np.arange(len(starts)), 0).cumsum()
    return c + np.repeat(firsts - c[starts - 1], np.diff(np.append(starts, n + 1)))


def _vbyte_stream(psi: np.ndarray, D: BitSequence, t_psi: int) -> bytes:
    """The vbyte codec's stream: psi's gaps cut into tokens, none at a
    group start and no run past a sample, each token's codes written with
    vbyte_codes."""
    opens, starts = _blocks(D, t_psi)
    group, sample = np.zeros((2, len(psi)), dtype=bool)
    group[starts[opens] - 1] = sample[starts - 1] = True
    first, last, gap = _tokens(psi, group, sample)
    g = gap[first]
    # <g>, <1, run length> or <0, magnitude>
    pair = np.column_stack((np.maximum(g, 0), np.where(g == 1, last - first + 1, -g)))
    two = g <= 1
    return vbyte_codes(pair[np.column_stack((np.ones_like(two), two))])[0]


def _tokens(psi: np.ndarray, skip: np.ndarray, sample: np.ndarray) -> tuple[np.ndarray, ...]:
    """(first, last, gap): the gaps of psi cut into tokens, each one gap
    or a maximal run of +1 gaps, from its first 0-based position to its
    last. The positions marked in skip carry no token, and no run goes
    on past a position marked in skip or sample."""
    gap = np.diff(psi, prepend=0)
    one = (gap == 1) & ~skip
    first = np.flatnonzero(~(one & np.append(False, one[:-1] & ~sample[:-1])))
    last = np.append(first[1:], len(psi)) - 1
    tok = ~skip[first]
    return first[tok], last[tok], gap


# Huffman-coded variant. Symbol ids: run lengths 1..t map to 0..t-1,
# literal gaps 2..NSV+1 follow, then 64 positive and 64 negative escape
# classes; class k carries k-1 raw bits (none for k = 0).

NSV = 1 << 14
ESC_CLASSES = 64


def _huff_lengths(freqs: dict[int, int]) -> dict[int, int]:
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    # a symbol's code length is the number of merges its subtree joins;
    # subtrees list indices into syms
    syms = sorted(freqs)
    heap = [(freqs[sym], i, [i]) for i, sym in enumerate(syms)]
    heapq.heapify(heap)
    depth = [0] * len(syms)
    tick = len(heap)
    while len(heap) > 1:
        f1, _, a = heapq.heappop(heap)
        f2, _, b = heapq.heappop(heap)
        a += b
        for i in a:
            depth[i] += 1
        heapq.heappush(heap, (f1 + f2, tick, a))
        tick += 1
    return dict(zip(syms, depth))


def _canonical_code(lengths_u8: bytes):
    """The canonical code of a codebook that holds one length per symbol.

    Returns (syms, lens, first, count, offset): the coded symbols sorted
    by (length, symbol) with their code lengths, and per code length ln
    the first canonical code, the number of codes, and where those codes
    start in syms. Symbol syms[i] of length ln has the code first[ln] +
    i - offset[ln]. Raises ValueError when the lengths break Kraft's
    inequality, since no prefix code has them.
    """
    lengths = np.frombuffer(lengths_u8, dtype=np.uint8)
    syms = np.flatnonzero(lengths)
    order = np.argsort(lengths[syms], kind="stable")
    syms = syms[order]
    lens = lengths[syms].astype(np.int64)
    maxlen = int(lens[-1]) if len(lens) else 0
    count = np.bincount(lens, minlength=maxlen + 1).tolist()
    if sum(c << (maxlen - ln) for ln, c in enumerate(count) if ln) > 1 << maxlen:
        raise ValueError("Huffman code lengths break Kraft's inequality")
    first = [0] * (maxlen + 1)
    offset = [0] * (maxlen + 1)
    code = pos = 0
    for ln in range(1, maxlen + 1):
        first[ln] = code
        offset[ln] = pos
        code = (code + count[ln]) << 1
        pos += count[ln]
    return syms, lens, first, count, offset


def _pack_msb(values: np.ndarray, widths: np.ndarray, offsets: np.ndarray,
              nbits: int) -> bytes:
    """An nbits-long stream holding each value in its width bits from its
    bit offset on, first bit highest. Fields are 1 to 64 bits wide and do
    not overlap."""
    words = np.zeros((nbits + 63) // 64 + 1, dtype=np.uint64)
    values = values.astype(np.uint64)
    w = offsets >> 6
    spill = offsets + widths - 64 * (w + 1)   # bits that run on into word w + 1
    np.bitwise_or.at(words, w, values >> spill.clip(0).astype(np.uint64)
                     << (-spill).clip(0).astype(np.uint64))
    over = spill > 0
    np.bitwise_or.at(words, w[over] + 1,
                     values[over] << (64 - spill[over]).astype(np.uint64))
    return words.astype(">u8").tobytes()[:(nbits + 7) // 8]


class HuffRlePsi(_SampledPsi):
    """Huffman-coded gaps over the sample blocks of _SampledPsi.

    Blocks open at every group start and every t_psi positions inside a
    group, as on the vbyte codec. Every block's sample is stored, so the
    stream codes only the positions between samples, and +1 runs are cut
    at every block start, the run rule both codecs follow. A block's
    pointer is the bit offset of its first token, and its tokens end
    where the next block's begin.

    Decoding reads one token per table lookup. One table, built by the
    constructor, serves every decoder: indexed by the next k = min(maxlen,
    17) stream bits (a 24-bit window holds 17 at any bit offset), it
    repeats each canonical code of length <= k, from prefix 0 upwards,
    over the 2**(k - length) prefixes that open with it, as a list of
    entries for access and _walk and as entry ids for values(). An entry
    holds the whole decoded token as (code length, steps, base delta,
    signed raw bit count): a run token advances its run length of +1
    steps, so its steps and delta are both that length; any other token
    advances one position by the base delta plus (or, for a negative
    escape, minus) its raw bits. Prefixes past those codes hold None (id
    0) and finish on the canonical per-length search, _long_code, which
    also rejects unassigned codes.

    access and _walk (stretch's walk, and range's per group) each decode
    in one loop. Each loop binds the padded stream, the table, the mask
    and the shift once, reads the 24-bit window at a bit offset from
    three stream bytes, and adds each token's steps and delta in place.
    access adds every token whole and takes back what a last run
    overshoots. _walk goes on across block starts inside a group, taking
    the next block's sample where it has decoded a block's last position.

    Neither loop checks its bit offset, the stream end or a run's end:
    an index holds the codec only once values() has proved that each
    block's tokens give exactly its positions up to the next block's
    pointer, so no walk meets the IndexError, overrun or misalignment it
    once checked for. Zero padding lets a window be read at the end.

    build cuts the gaps into tokens with _tokens at the block starts,
    takes each escape's class from the exact bit length of its magnitude,
    counts the symbols with bincount for the code lengths, and packs
    every token's code and raw bits into one stream with _pack_msb. The
    image's sections are the code lengths, the samples and the pointers,
    each bit-packed at its minimum width (_fixed_section), and the
    stream after its bit count.
    """

    name = "huff-rle-opt"
    tag = 3
    range = _SampledPsi.range  # in the class itself, as access is

    def __init__(self, lengths_u8: bytes, samples, ptrs, stream: bytes,
                 stream_bits: int, D: BitSequence, t_psi: int):
        self._lengths_u8 = bytes(lengths_u8)
        self._stream = bytes(stream)
        self._stream_bits = stream_bits
        # zero padding: a window read at the stream end needs no check
        self._padded = self._stream + bytes(16)
        opens, starts = _blocks(D, t_psi)
        self._set_blocks(D, t_psi, opens, starts, samples, ptrs, stream_bits)
        syms, lens, first, count, offset = _canonical_code(self._lengths_u8)
        t = self.t_psi
        if len(syms) and syms.max() >= t + NSV + 2 * ESC_CLASSES:
            raise ValueError("Huffman codebook names a symbol outside the alphabet")
        rel = syms.astype(np.int64) - t      # < 0 run, < NSV literal, then escapes
        neg = rel >= NSV + ESC_CLASSES
        k = np.where(neg, rel - NSV - ESC_CLASSES, rel - NSV).clip(0)
        half = (1 << (k - 1).clip(0)) * (k > 0)
        run = np.where(rel < 0, rel + t + 1, 1)
        base = np.select([rel < 0, rel < NSV, neg], [run, rel + 2, -1 - half], NSV + 2 + half)
        nraw = (k - 1).clip(0) * np.where(neg, -1, 1)
        code = np.stack((lens, run, base, nraw))
        self._entries = list(zip(*code.tolist()))
        self._code = np.pad(code, ((0, 0), (1, 0)))  # for values(): id 0 is no code of up to k bits
        # a 24-bit window holds 17 bits at any bit offset
        self._k = width = min(len(first) - 1, 17)
        self._mask = (1 << width) - 1
        self._first, self._count, self._offset = first, count, offset
        reps = 1 << (width - lens[:sum(count[1:width + 1])])
        self._ids = np.zeros(1 << width, dtype=np.int64)
        self._ids[:reps.sum()] = np.repeat(np.arange(1, len(reps) + 1), reps)
        table = []
        for e, r in zip(self._entries, reps.tolist()):
            table += [e] * r
        self._table = table + [None] * ((1 << width) - len(table))

    @classmethod
    def build(cls, psi: np.ndarray, D: BitSequence, t_psi: int = 64) -> "HuffRlePsi":
        t = t_psi
        starts = _blocks(D, t)[1]
        at = np.zeros(len(psi), dtype=bool)
        at[starts - 1] = True
        first, last, gap = _tokens(psi, at, at)
        g = gap[first]
        if np.any(g == 0):
            raise ValueError("Huffman codec cannot code a gap of 0 inside a group")
        bound = INT64_MAX // (len(psi) + 1)  # values() refuses a larger value change
        if len(g) and np.abs(g).max() > bound:
            raise ValueError(f"Huffman gap magnitude past {bound}")
        esc = g > NSV + 1
        mag = np.where(esc, g - (NSV + 2), np.where(g <= 0, -g - 1, 0))
        # exact bit lengths of the escapes' magnitudes (the powers of two at
        # or below each); every other token stays class 0
        k, nz = np.zeros_like(mag), np.flatnonzero(mag)
        k[nz] = np.searchsorted(1 << np.arange(63, dtype=np.int64), mag[nz], side="right")
        sym = np.select([g == 1, g <= 0, ~esc],
                        [last - first, t + NSV + ESC_CLASSES + k, t + g - 2], t + NSV + k)
        nraw = np.maximum(k - 1, 0)
        raw = mag & ((1 << nraw) - 1)
        counts = np.bincount(sym)
        coded = np.flatnonzero(counts)
        lengths = _huff_lengths(dict(zip(coded.tolist(), counts[coded].tolist())))
        lens_of = np.zeros(len(counts), dtype=np.uint8)
        lens_of[list(lengths)] = list(lengths.values())
        syms, lens, first_code, _, offset = _canonical_code(lens_of.tobytes())
        code_of = np.zeros(len(counts), dtype=np.int64)
        code_of[syms] = (np.take(first_code, lens) + np.arange(len(syms))
                         - np.take(offset, lens))
        width = lens_of[sym].astype(np.int64)
        ends = np.cumsum(width + nraw)
        start = ends - width - nraw
        stream_bits = int(ends[-1]) if len(ends) else 0
        has = nraw > 0
        stream = _pack_msb(np.concatenate((code_of[sym], raw[has])),
                           np.concatenate((width, nraw[has])),
                           np.concatenate((start, (start + width)[has])), stream_bits)
        # a block's tokens start at the first one after its sample
        ptrs = np.append(start, stream_bits)[np.searchsorted(first, starts - 1)]
        return cls(lens_of.tobytes(), psi[starts - 1], ptrs, stream, stream_bits, D, t)

    def _peek(self, pos: int, width: int) -> int:
        """The width stream bits from bit pos on, first bit highest."""
        b = pos >> 3
        nbytes = ((pos & 7) + width + 7) >> 3
        x = int.from_bytes(self._padded[b:b + nbytes], "big")
        return (x >> (8 * nbytes - (pos & 7) - width)) & ((1 << width) - 1)

    def _long_code(self, pos: int) -> tuple:
        """The entry of a code longer than the table width. One that runs
        past the stream is left to values(), which checks every pointer."""
        first, count, offset = self._first, self._count, self._offset
        for ln in range(self._k + 1, len(first)):
            idx = self._peek(pos, ln) - first[ln]
            if 0 <= idx < count[ln]:
                return self._entries[offset[ln] + idx]
        raise ValueError("corrupt Huffman stream")

    def access(self, i: int) -> int:
        if not 1 <= i <= self._n:
            raise _outside(i, i, self._n)
        p, v, pos = self._sample(bisect_right(self._bpos, i) - 1)
        steps = i - p
        P, table, mask, shift = self._padded, self._table, self._mask, 24 - self._k
        while steps > 0:
            b = pos >> 3
            e = table[(P[b] << 16 | P[b + 1] << 8 | P[b + 2]) >> (shift - (pos & 7)) & mask]
            if e is None:
                e = self._long_code(pos)
            ln, run, delta, nraw = e
            pos += ln
            if nraw > 0:
                delta += self._peek(pos, nraw)
                pos += nraw
            elif nraw:
                delta -= self._peek(pos, -nraw)
                pos -= nraw
            v += delta
            steps -= run
        return v + steps  # a last run that overshoots leaves steps < 0

    def access_many(self, positions) -> np.ndarray:
        """psi at each of the positions, in the order given, as int64.
        Each block the positions touch is decoded once: by one access
        walk when it holds one asked position, else by one range call
        from the first position asked in it to the last."""
        i = checked_positions(positions, self._n)
        order = np.argsort(i, kind="stable")
        qs = i[order].tolist()
        bpos = self._bpos
        vals = []
        j = 0
        while j < len(qs):
            lo = qs[j]
            k = bisect_left(qs, bpos[bisect_right(bpos, lo)], j)  # past lo's block
            hi = qs[k - 1]
            if lo == hi:
                vals += [self.access(lo)] * (k - j)
            else:
                got = self.range(lo, hi)
                vals += [got[q - lo] for q in qs[j:k]]
            j = k
        out = np.empty(len(i), dtype=np.int64)
        out[order] = vals  # values() proved them inside 1..n, so inside int64
        return out

    def values(self) -> np.ndarray:
        """All of Psi, decoded in lockstep: each numpy step decodes one
        token in every block with positions left, by the decode table's
        entry ids and a second window for up to 16 raw bits; a longer
        code or escape goes through _long_code one block at a time.
        ValueError, before any sum, on an unassigned code, a value change
        past INT64_MAX // (n + 1), or a block whose tokens do not end at
        the next pointer."""
        n, bound = self._n, INT64_MAX // (self._n + 1)
        bpos, bval, bptr = self._columns()
        k, mask, ids = self._k, self._mask, self._ids
        lens, run, base, nraw = self._code
        P = np.frombuffer(self._padded, dtype=np.uint8).astype(np.int64)
        W = P[:-2] << 16 | P[1:-1] << 8 | P[2:]
        lane, pos, end, left = np.arange(len(bval)), bptr[:-1], bptr[1:], np.diff(bpos) - 1
        got = [(lane[:0],) * 3]
        while True:
            if np.any((pos > end) | (left < 0) | ((left == 0) & (pos != end))):
                raise ValueError("Huffman codes of a block do not end with it, at the next pointer")
            lane, pos, end, left = (a[left > 0] for a in (lane, pos, end, left))
            if not len(lane):
                break
            e = ids[W[pos >> 3] >> (24 - k - (pos & 7)) & mask]
            ln, st, dl, nr = lens[e], run[e], base[e], nraw[e]
            slow = (ln == 0) | (np.abs(nr) > 16)
            r, at = np.abs(nr) * ~slow, pos + ln  # raw bit counts, and where they start
            dl += np.sign(nr) * (W[at >> 3] >> (24 - r - (at & 7)) & ((1 << r) - 1))
            at += r
            for j in np.flatnonzero(slow).tolist():
                q = int(pos[j])
                e = self._long_code(q) if not ln[j] else (ln[j], st[j], dl[j], nr[j])
                L, S, d, R = map(int, e)
                d += self._peek(q + L, R) if R > 0 else -self._peek(q + L, -R)
                at[j], st[j], dl[j] = q + L + abs(R), S, d if abs(d) <= bound else bound + 1
            if np.any((dl > bound) | (dl < -bound)):
                raise ValueError(f"Huffman token changes the value by more than {bound}")
            got.append((lane, st, dl))
            pos, left = at, left - st
        lane, st, dl = (np.concatenate([g[c] for g in got]) for c in range(3))
        order = np.argsort(lane, kind="stable")  # stream order: by block, then step
        return _expand(st[order], dl[order], bpos[:-1], bval, n)

    def _walk(self, b: int, lo: int, hi: int, x: int, y: int,
              stop: int) -> tuple[int, list[int]]:
        """stretch's forward walk from the sample that opens block b: it
        seeks the first position from lo on whose value is at least x,
        decoding no further than stop while it seeks, then collects the
        values below y up to hi. A +1 run takes one step, and a block
        start inside the walk takes its sample."""
        p, v, pos = self._sample(b)
        first, out = hi + 1, []
        seek = p < lo or v < x
        if not seek:
            first, stop = p, hi
            if v >= y:
                return first, out
            out.append(v)
        bpos, bval = self._bpos, self._bval
        end = bpos[b + 1] - 1  # the block's last position
        P, table, mask, shift = self._padded, self._table, self._mask, 24 - self._k
        while p < stop:
            if p == end:
                b += 1
                end = bpos[b + 1] - 1
                delta = bval[b] - v
            else:
                c = pos >> 3
                e = table[(P[c] << 16 | P[c + 1] << 8 | P[c + 2]) >> (shift - (pos & 7)) & mask]
                if e is None:
                    e = self._long_code(pos)
                ln, run, delta, nraw = e
                pos += ln
                if nraw > 0:
                    delta += self._peek(pos, nraw)
                    pos += nraw
                elif nraw:
                    delta -= self._peek(pos, -nraw)
                    pos -= nraw
                elif run > 1:
                    if run > stop - p:
                        run = stop - p
                    if seek:
                        q = max(lo, p + 1, p + x - v)
                        if q > p + run:
                            v += run
                            p += run
                            continue
                        first, seek, stop = q, False, hi
                        run = min(delta, hi - p)  # delta is the whole run
                    else:
                        q = p + 1
                    if v + run >= y:
                        out.extend(range(v + q - p, y))
                        break
                    out.extend(range(v + q - p, v + run + 1))
                    v += run
                    p += run
                    continue
            v += delta
            p += 1
            if seek:
                if p < lo or v < x:
                    continue
                first, seek, stop = p, False, hi
            if v >= y:
                break
            out.append(v)
        return first, out

    def _tables(self) -> tuple[np.ndarray, ...]:
        """The code lengths, samples and pointers as uint64 tables."""
        return (np.frombuffer(self._lengths_u8, dtype=np.uint8).astype(np.uint64),
                np.frombuffer(self._bval, dtype=np.uint64),
                np.frombuffer(self._bptr, dtype=np.uint64)[:-1])

    def size_bits(self) -> int:
        # as the image stores them: the stream bits, and each table at its
        # minimum width
        return self._stream_bits + sum(len(a) * _min_width(a) for a in self._tables())

    def to_sections(self) -> list[bytes]:
        return [*map(_fixed_section, self._tables()),
                struct.pack("<Q", self._stream_bits) + self._stream]

    @classmethod
    def from_sections(cls, sections, D: BitSequence, t_psi: int) -> "HuffRlePsi":
        lengths_b, s_b, ptr_b, stream_b = sections
        lengths = _read_fixed(lengths_b, "Huffman code length")
        if len(lengths) and int(lengths.max()) > 0xFF:
            raise ValueError("Huffman code length past 255")
        samples = _read_fixed(s_b, "Huffman sample")
        ptrs = _read_fixed(ptr_b, "Huffman pointer")
        blocks = len(_blocks(D, t_psi)[1])
        if len(samples) != blocks or len(ptrs) != blocks:
            raise ValueError(f"Huffman codec needs {blocks} samples and pointers, "
                             f"the image holds {len(samples)} and {len(ptrs)}")
        if len(stream_b) < 8:
            raise ValueError("Huffman stream section is shorter than its header")
        (stream_bits,) = struct.unpack_from("<Q", stream_b, 0)
        stream = stream_b[8:]
        if stream_bits > 8 * len(stream):
            raise ValueError("Huffman stream is shorter than its bit count")
        if len(stream) > -(-stream_bits // 8):
            raise ValueError("Huffman stream holds bytes past its bit count")
        if stream_bits % 8 and stream[-1] & 0xFF >> stream_bits % 8:
            raise ValueError("Huffman stream sets bits past its bit count")
        if np.any(ptrs[1:] < ptrs[:-1]) or (blocks and int(ptrs[-1]) > stream_bits):
            raise ValueError("Huffman block pointers are out of order or past the stream")
        return cls(lengths.astype(np.uint8).tobytes(), samples, ptrs, stream, stream_bits,
                   D, t_psi)


def encode(psi: np.ndarray, D: BitSequence, codec: str = "plain",
           t_psi: int = 64):
    """Build the named encoding of psi. D supplies the group boundaries.
    Every codec stores values from 1 up; a value below 1 raises
    ValueError rather than load back changed."""
    if codec not in TAGS:
        raise ValueError(f"unknown psi codec {codec!r}")
    psi = np.ascontiguousarray(psi, dtype=np.int64)
    if len(psi) and psi.min() < 1:
        raise ValueError(f"Psi value {psi.min()} is below 1")
    if codec == "plain":
        return PlainPsi.build(psi)
    _check_t_psi(t_psi)
    if codec == "vbyte-rle":
        return VbyteRlePsi.build(psi, D, t_psi)
    return HuffRlePsi.build(psi, D, t_psi)


def from_sections(tag: int, sections, D: BitSequence, t_psi: int):
    """Rebuild an encoding from its serialized sections."""
    if tag not in NAMES:
        raise ValueError(f"unknown psi codec tag {tag}")
    if len(sections) != _SECTION_COUNTS[tag]:
        raise ValueError(f"{NAMES[tag]} codec has {_SECTION_COUNTS[tag]} sections, "
                         f"the image holds {len(sections)}")
    if tag == 0:
        return PlainPsi.from_sections(sections, D)
    _check_t_psi(t_psi)
    if tag == 1:
        return VbyteRlePsi.from_sections(sections, D, t_psi)
    return HuffRlePsi.from_sections(sections, D, t_psi)


def _check_t_psi(t_psi: int) -> None:
    """The sample step of the sampled codecs must fit the image header."""
    if not 1 <= t_psi <= T_PSI_MAX:
        raise ValueError(f"t_psi must be in [1, {T_PSI_MAX}], got {t_psi}")
