"""Rank/select bitmap checked against per-bit loops."""

import random

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
    assert a == b
    assert a != c
    assert a != d
    assert a != "101"


def test_deserialize_rejects_a_blob_of_the_wrong_length():
    blob = BitSequence.from_bits([1, 0, 1] * 30).serialize()
    for bad in (blob[:5], blob[:-8], blob + bytes(8), b"\xff" * 8 + blob[8:]):
        with pytest.raises(ValueError, match="bitmap blob"):
            BitSequence.deserialize(bad)


def test_positions_is_a_read_only_view():
    bs = BitSequence.from_bits([0, 1, 1, 0, 1])
    pos = bs.positions()
    with pytest.raises(ValueError):
        pos[0] = 5
    assert bs.select1(1) == 2
