"""Rank/select bitmap checked against per-bit loops."""

import random
import struct
import tracemalloc

import numpy as np
import pytest

from tgcsa.bitseq import BitSequence


def naive_rank(bits, pos):
    return sum(bits[:pos])


def naive_select(bits, k):
    seen = 0
    for i, b in enumerate(bits, 1):
        seen += b
        if b and seen == k:
            return i
    raise AssertionError("not enough ones")


def random_bits(rng, n, density):
    return [1 if rng.random() < density else 0 for _ in range(n)]


def ref_blob(bits):
    """The image format by hand: the bit length as u64 LE, then bit i at
    bit (i-1) % 64 of little-endian word (i-1) // 64."""
    words = [0] * ((len(bits) + 63) // 64)
    for i, b in enumerate(bits):
        if b:
            words[i // 64] |= 1 << (i % 64)
    return struct.pack(f"<{1 + len(words)}Q", len(bits), *words)


def test_small_handmade():
    bs = BitSequence.from_bits([1, 0, 1, 1, 0, 0, 0, 1])
    assert len(bs) == 8
    assert bs.ones == 4
    assert [bs.access(i) for i in range(1, 9)] == [1, 0, 1, 1, 0, 0, 0, 1]
    assert [bs.rank1(i) for i in range(0, 9)] == [0, 1, 1, 2, 3, 3, 3, 3, 4]
    assert [bs.select1(k) for k in range(1, 5)] == [1, 3, 4, 8]
    assert list(bs.positions()) == [1, 3, 4, 8]


def test_rank_select_match_loops_across_densities():
    rng = random.Random(20240)
    # sizes straddle the 64-bit word boundary and span several words
    for n in (1, 63, 64, 65, 511, 512, 513, 1500, 4100):
        for density in (0.02, 0.5, 0.97):
            bits = random_bits(rng, n, density)
            bs = BitSequence.from_bits(bits)
            assert bs.ones == sum(bits)
            for pos in range(0, n + 1):
                assert bs.rank1(pos) == naive_rank(bits, pos)
            for k in range(1, bs.ones + 1):
                assert bs.select1(k) == naive_select(bits, k)
            for pos in range(1, n + 1):
                assert bs.access(pos) == bits[pos - 1]


def test_select_rank_inverse_on_long_bitmap():
    rng = random.Random(7)
    bits = random_bits(rng, 40000, 0.3)
    bs = BitSequence.from_bits(bits)
    for k in rng.sample(range(1, bs.ones + 1), 500):
        pos = bs.select1(k)
        assert bs.access(pos) == 1
        assert bs.rank1(pos) == k


def test_all_ones_and_all_zeros():
    ones = BitSequence.from_bits([1] * 700)
    assert ones.ones == 700
    assert ones.select1(700) == 700
    assert ones.rank1(700) == 700
    zeros = BitSequence.from_bits([0] * 700)
    assert zeros.ones == 0
    assert zeros.rank1(700) == 0
    with pytest.raises(ValueError):
        zeros.select1(1)


def test_from_positions_matches_from_bits():
    rng = random.Random(99)
    n = 2000
    bits = random_bits(rng, n, 0.2)
    pos = [i + 1 for i, b in enumerate(bits) if b]
    a = BitSequence.from_bits(bits)
    b = BitSequence.from_positions(pos, n)
    assert a == b
    assert hash(a) == hash(b)
    assert np.array_equal(b.positions(), np.array(pos))


def test_empty_bitmap():
    bs = BitSequence.from_bits([])
    assert len(bs) == 0
    assert bs.ones == 0
    assert bs.rank1(0) == 0
    assert len(bs.positions()) == 0
    with pytest.raises(ValueError):
        bs.access(1)


def test_bounds_are_rejected():
    bs = BitSequence.from_bits([1, 0, 1])
    with pytest.raises(ValueError):
        bs.access(0)
    with pytest.raises(ValueError):
        bs.access(4)
    with pytest.raises(ValueError):
        bs.rank1(4)
    with pytest.raises(ValueError):
        bs.rank1(-1)
    with pytest.raises(ValueError):
        bs.select1(0)
    with pytest.raises(ValueError):
        bs.select1(3)
    for pos, nbits in (([0, 2], 3), ([4], 3), ([], -1)):
        with pytest.raises(ValueError):
            BitSequence.from_positions(pos, nbits)


def test_serialize_roundtrip():
    rng = random.Random(4)
    for n in (0, 1, 64, 129, 3000):
        bits = random_bits(rng, n, 0.4)
        bs = BitSequence.from_bits(bits)
        blob = bs.serialize()
        assert len(blob) == bs.serialized_length()
        back = BitSequence.deserialize(blob)
        assert back == bs
        # the one-positions are recomputed on load, queries must still agree
        for pos in range(0, n + 1, 17):
            assert back.rank1(pos) == bs.rank1(pos)
        assert back.serialize() == blob


def test_equality_ignores_directories_but_not_content():
    a = BitSequence.from_bits([1, 0, 1])
    b = BitSequence.from_bits([1, 0, 1])
    c = BitSequence.from_bits([1, 0, 0])
    d = BitSequence.from_bits([1, 0, 1, 0])
    e = BitSequence.from_bits([1, 1, 0])
    assert a == b
    assert a != c
    assert a != d
    assert a != e
    assert a != "101"


def test_deserialize_rejects_a_blob_of_the_wrong_length():
    blob = BitSequence.from_bits([1, 0, 1] * 30).serialize()
    past_end = blob[:-1] + bytes([blob[-1] | 0x80])   # bit 128 of a 90-bit bitmap
    for bad in (blob[:5], blob[:-8], blob + bytes(8), b"\xff" * 8 + blob[8:], past_end):
        with pytest.raises(ValueError, match="bitmap blob"):
            BitSequence.deserialize(bad)


def test_positions_is_a_read_only_view():
    bs = BitSequence.from_bits([0, 1, 1, 0, 1])
    pos = bs.positions()
    with pytest.raises(ValueError):
        pos[0] = 5
    assert bs.select1(1) == 2


@pytest.mark.parametrize("nbits", [0, 1, 63, 64, 65, 1000, 4096])
def test_serialize_matches_a_reference_word_packer(nbits):
    rng = random.Random(nbits)
    # empty, sparse, half-full and full
    for density in (0.0, 0.02, 0.5, 1.0):
        bits = random_bits(rng, nbits, density)
        pos = [i + 1 for i, b in enumerate(bits) if b]
        blob = ref_blob(bits)
        assert BitSequence.from_positions(pos, nbits).serialize() == blob
        assert BitSequence.from_bits(bits).serialize() == blob
        assert list(BitSequence.deserialize(blob).positions()) == pos


def test_sparse_bitmaps_cost_memory_by_ones_not_bits():
    n = 10 ** 8
    raw = bytearray(8 + 8 * ((n + 63) // 64))
    struct.pack_into("<Q", raw, 0, n)
    raw[8] = 1                                   # bit 1
    raw[8 + (n - 1) // 8] |= 1 << ((n - 1) % 8)  # bit n
    blob = bytes(raw)
    del raw
    tracemalloc.start()
    try:
        bs = BitSequence.from_positions([1, n], n)
        assert (bs.rank1(n - 1), bs.rank1(n), bs.select1(2)) == (1, 2, n)
        assert (bs.access(1), bs.access(n - 1), bs.access(n)) == (1, 0, 1)
        back = BitSequence.deserialize(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == bs
    # one byte per bit would be n bytes; the blob itself was made before tracing
    assert peak < n // 20
