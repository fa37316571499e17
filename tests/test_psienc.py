"""Successor-permutation codecs against the uncompressed reference.

Every compressed variant must return exactly what the plain array
returns, position by position and range by range, on real indexes and
on crafted sequences with runs longer than the sample step, oversized
gaps, and sign escapes.
"""

import bisect
import hashlib
import random
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tgcsa import psienc
from tgcsa.bitseq import BitSequence
from tgcsa.corpus import AlphabetMap, ContactSet, build_sid
from tgcsa.indexfile import deserialize_index, serialize_index
from tgcsa.sacsa import (TgcsaIndex, build_d, build_index, build_rotation_array, compute_psi,
                         cyclic_adjust)
from conftest import G5_CONTACTS, G5_D, G5_PSI, random_contactset

CODECS = ("vbyte-rle", "huff-rle-opt")
STEPS = (2, 8, 16, 64, 256)


def psi_and_d(cs):
    am = AlphabetMap.build(cs)
    sid = build_sid(cs, am)
    A = build_rotation_array(sid, cs.arity)
    return cyclic_adjust(compute_psi(A), cs.arity), build_d(sid, A)


def g5_psi_d():
    return psi_and_d(ContactSet(G5_CONTACTS))


def test_vbyte_frozen_bytes():
    assert psienc.vbyte_codes([135])[0] == bytes([0x07, 0x81])
    assert psienc.vbyte_codes([5])[0] == bytes([0x85])
    assert psienc.vbyte_codes([0])[0] == bytes([0x80])
    assert psienc.vbyte_decode(bytes([0x07, 0x81])) == (135, 2)
    assert psienc.vbyte_decode(bytes([0x85])) == (5, 1)


def test_vbyte_roundtrip_random():
    rng = random.Random(3)
    values = [rng.randrange(0, 2**28) for _ in range(300)]
    buf, ends = psienc.vbyte_codes(values)
    pos = 0
    for v, end in zip(values, ends):
        got, pos = psienc.vbyte_decode(buf, pos)
        assert (got, pos) == (v, end)
    assert pos == len(buf)


def test_vbyte_continuation_bit_is_final_byte_only():
    for v in (0, 1, 127, 128, 16383, 16384, 2**21):
        raw = psienc.vbyte_codes([v])[0]
        assert all(b < 0x80 for b in raw[:-1])
        assert raw[-1] >= 0x80


def test_plain_is_fixed_width():
    psi, D = g5_psi_d()
    enc = psienc.encode(psi, D, codec="plain")
    assert enc.name == "plain"
    assert enc.width == 5             # 20 positions -> ceil(log2 19+1)
    assert enc.size_bits() == 100
    assert [enc.access(i) for i in range(1, 21)] == G5_PSI
    assert enc.range(4, 9) == G5_PSI[3:9]
    assert enc.range(9, 4) == []


def test_plain_single_value_width():
    enc = psienc.PlainPsi.build(np.array([1]))
    assert enc.width == 1
    assert enc.size_bits() == 1
    assert enc.access(1) == 1


def test_run_groups_share_one_pair():
    # symbol 13's group holds [1, 2, 4]: sample 1, one run step, one
    # plain gap of 2
    psi, D = g5_psi_d()
    enc = psienc.encode(psi, D, codec="vbyte-rle", t_psi=64)
    start = int(vbyte_table(enc, "ptr0")[12])
    assert list(enc._stream[start:start + 3]) == [0x81, 0x81, 0x82]
    assert int(vbyte_table(enc, "s0")[12]) == 1


def test_negative_gap_uses_zero_escape():
    # two contacts sharing their end time: the adjusted group is [2, 1],
    # stored as sample 2 then the pair (0 escape, magnitude 1)
    psi, D = psi_and_d(ContactSet([(1, 2, 1, 5), (2, 1, 1, 5)]))
    enc = psienc.encode(psi, D, codec="vbyte-rle", t_psi=64)
    start = int(vbyte_table(enc, "ptr0")[-1])
    assert list(enc._stream[start:]) == [0x80, 0x81]
    assert int(vbyte_table(enc, "s0")[-1]) == 2


def test_stored_codewords_are_never_negative():
    rng = random.Random(41)
    for _ in range(10):
        cs = random_contactset(seed=rng.randrange(10**9), duplicates=True)
        psi, D = psi_and_d(cs)
        enc = psienc.encode(psi, D, codec="vbyte-rle", t_psi=16)
        pos = 0
        while pos < len(enc._stream):
            value, pos = psienc.vbyte_decode(enc._stream, pos)
            assert value >= 0


@pytest.mark.parametrize("codec", CODECS)
def test_codecs_match_plain_on_g5(codec):
    psi, D = g5_psi_d()
    for t in STEPS:
        enc = psienc.encode(psi, D, codec=codec, t_psi=t)
        assert [enc.access(i) for i in range(1, 21)] == G5_PSI, (codec, t)
        assert enc.range(1, 20) == G5_PSI
        for lo in range(1, 21):
            for hi in range(lo - 1, 21):
                assert enc.range(lo, hi) == G5_PSI[lo - 1:hi], (codec, t, lo, hi)


def test_codecs_match_plain_on_random_graphs():
    rng = random.Random(611)
    for _ in range(8):
        cs = random_contactset(seed=rng.randrange(10**9), duplicates=True,
                               n_edges=rng.randint(4, 20))
        psi, D = psi_and_d(cs)
        want = psi.tolist()
        n = len(want)
        for codec in CODECS:
            for t in STEPS:
                enc = psienc.encode(psi, D, codec=codec, t_psi=t)
                got = [enc.access(i) for i in range(1, n + 1)]
                assert got == want, (codec, t)
                for _ in range(10):
                    lo = rng.randint(1, n)
                    hi = rng.randint(lo, n)
                    assert enc.range(lo, hi) == want[lo - 1:hi]


def crafted_sequence():
    """One giant group exercising every stream feature: a run longer
    than the sample step, a gap past the plain-codeword ceiling, and
    descents."""
    vals = [5]
    for g in ([1] * 700 + [20000] + [-7, 3] + [1] * 40
              + [-18000, 2, 2] + [1] * 9 + [250, -1]):
        vals.append(vals[-1] + g)
    shift = 1 - min(vals)
    vals = [v + shift for v in vals]
    psi = np.array(vals, dtype=np.int64)
    D = BitSequence.from_positions([1], len(psi))
    return psi, D


@pytest.mark.parametrize("codec", CODECS)
def test_crafted_stream_features(codec):
    psi, D = crafted_sequence()
    want = psi.tolist()
    n = len(want)
    for t in (4, 64, 256):
        enc = psienc.encode(psi, D, codec=codec, t_psi=t)
        assert [enc.access(i) for i in range(1, n + 1)] == want, (codec, t)
        assert enc.range(1, n) == want
        assert enc.range(695, 712) == want[694:712]
        rng = random.Random(t)
        for _ in range(25):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            assert enc.range(lo, hi) == want[lo - 1:hi]


@pytest.mark.parametrize("codec", ("plain",) + CODECS)
def test_sections_roundtrip(codec):
    psi, D = g5_psi_d()
    enc = psienc.encode(psi, D, codec=codec, t_psi=8)
    sections = enc.to_sections()
    back = psienc.from_sections(enc.tag, sections, D, 8)
    assert [back.access(i) for i in range(1, 21)] == G5_PSI
    assert back.to_sections() == sections
    assert back.size_bits() == enc.size_bits()


def contract_sequences(count, seed):
    """(values, D): seeded int64 sequences of values from 1 to INT64_MAX,
    cut into groups at random starts (position 1 always one), with +1
    runs, repeats, descents, small gaps and jumps up or down by about
    2**53 to 2**62. Most jumps escape a magnitude within 3 of 2**k - 1,
    which a float rounds up to 2**k once k passes 53. One sequence in
    ten has one value below 1 in place of its own."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 60)
        vals = [rng.randint(1, 1000)]
        while len(vals) < n:
            v, kind = vals[-1], rng.randrange(6)
            if kind == 0:
                vals += range(v + 1, v + rng.randint(2, 40))
            elif kind == 1:
                vals.append(v)
            elif kind == 2:
                vals.append(rng.randint(1, v))
            elif kind == 3:
                vals.append(v + rng.randint(2, 20000))
            else:
                # an escaped gap g > 0 stores g - NSV - 2, and g < 0 stores
                # -g - 1: both jumps store 2**k - 1 + r
                k, r = rng.choice((53, 54, 55, 60, 62)), rng.randint(-2, 2)
                fits = [d for d in ((1 << k) + r + psienc.NSV + 1, -(1 << k) - r)
                        if 1 <= v + d <= psienc.INT64_MAX]
                vals.append(v + rng.choice(fits) if fits else 1)
        vals = vals[:n]
        if rng.random() < 0.1:
            vals[rng.randrange(n)] = rng.choice((0, -1, -psienc.INT64_MAX - 1))
        starts = [1] + sorted(rng.sample(range(2, n + 1), rng.randint(0, (n - 1) // 3)))
        yield vals, BitSequence.from_positions(starts, n)


@pytest.mark.parametrize("codec", ("plain",) + CODECS)
def test_every_codec_round_trips_what_it_encodes(codec):
    # the codec contract on sequences that are not permutations: an
    # image loads back as the input, through values() and access, or
    # encode refuses it with ValueError; a value truncated to a
    # permutation's width, a gap of 0 or an escape class one too high
    # once loaded back silently wrong, and so did a value below 1
    refused = 0
    for vals, D in contract_sequences(150, f"contract-{codec}"):
        n = len(vals)
        for t in (1, 3, 16, 64):
            if min(vals) < 1:
                with pytest.raises(ValueError, match=f"Psi value {min(vals)} is below 1"):
                    psienc.encode(np.array(vals, dtype=np.int64), D, codec=codec, t_psi=t)
                continue
            try:
                enc = psienc.encode(np.array(vals, dtype=np.int64), D, codec=codec, t_psi=t)
            except ValueError:
                refused += 1
                continue
            back = psienc.from_sections(enc.tag, enc.to_sections(), D, t)
            assert back.values().tolist() == vals, (vals, t)
            assert [back.access(i) for i in range(1, n + 1)] == vals, (vals, t)
    # plain takes every other sequence; the sampled codecs refuse some
    assert (refused == 0) if codec == "plain" else (0 < refused < 600), refused


def test_huffman_build_is_deterministic():
    psi, D = crafted_sequence()
    a = psienc.encode(psi, D, codec="huff-rle-opt", t_psi=32)
    b = psienc.encode(psi, D, codec="huff-rle-opt", t_psi=32)
    assert a.to_sections() == b.to_sections()


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("t", (0, -1, psienc.T_PSI_MAX + 1))
def test_sampled_codecs_reject_t_psi_outside_header_range(codec, t):
    psi, D = g5_psi_d()
    with pytest.raises(ValueError, match="t_psi"):
        psienc.encode(psi, D, codec=codec, t_psi=t)
    sections = psienc.encode(psi, D, codec=codec, t_psi=8).to_sections()
    with pytest.raises(ValueError, match="t_psi"):
        psienc.from_sections(psienc.TAGS[codec], sections, D, t)


def test_t_psi_upper_bound_is_accepted():
    psi, D = g5_psi_d()
    for codec in CODECS:
        enc = psienc.encode(psi, D, codec=codec, t_psi=psienc.T_PSI_MAX)
        assert enc.range(1, 20) == G5_PSI
        back = psienc.from_sections(enc.tag, enc.to_sections(), D, psienc.T_PSI_MAX)
        assert back.range(1, 20) == G5_PSI


def test_encode_rejects_unknown_codec():
    psi, D = g5_psi_d()
    with pytest.raises(ValueError):
        psienc.encode(psi, D, codec="zstd")


def test_codec_names_and_tags_agree():
    assert psienc.TAGS["plain"] == 0
    assert psienc.TAGS["vbyte-rle"] == 1
    assert "vbyte-rle-select" not in psienc.TAGS   # tag 2, retired
    assert psienc.TAGS["huff-rle-opt"] == 3
    for name, tag in psienc.TAGS.items():
        assert psienc.NAMES[tag] == name


def long_code_sequence(levels=20):
    """One group whose gap pieces occur with Fibonacci frequencies, so the
    Huffman tree is a chain as deep as levels allows (at levels 23 deeper
    than the widest decode table, 17 bits); the rarest pieces are escapes
    of both signs and a run. levels counts the pieces, the last ones
    being literal gaps."""
    fib = [1, 1]
    while len(fib) < levels:
        fib.append(fib[-1] + fib[-2])
    pieces = [[-40000], [3 * psienc.NSV], [-9], [psienc.NSV + 7], [1, 1, 1]]
    pieces += [[g] for g in range(2, levels - 3)]
    gaps = [p for p, f in zip(pieces, fib) for _ in range(f)]
    random.Random(5).shuffle(gaps)
    vals = np.cumsum([0] + [g for p in gaps for g in p])
    psi = vals - vals.min() + 1
    return psi, BitSequence.from_positions([1], len(psi))


def long_code_calls(monkeypatch) -> list[int]:
    """The bit offsets that HuffRlePsi._long_code is called at, from now on."""
    calls = []
    long_code = psienc.HuffRlePsi._long_code
    monkeypatch.setattr(psienc.HuffRlePsi, "_long_code",
                        lambda self, pos: calls.append(pos) or long_code(self, pos))
    return calls


@pytest.mark.parametrize("t", (64, 256))
def test_huffman_long_codes_and_escapes_match_plain(t, monkeypatch):
    # three levels more than the pinned sequence: the longest code (18
    # bits at t_psi 64, 19 at 256) is longer than the decode table is
    # wide, so access, range and values() each take _long_code; the
    # samples every t_psi take some of the rarest gaps out of the stream
    psi, D = long_code_sequence(23)
    n = len(psi)
    plain = psienc.encode(psi, D, codec="plain")
    enc = psienc.encode(psi, D, codec="huff-rle-opt", t_psi=t)
    lengths = np.frombuffer(enc._lengths_u8, dtype=np.uint8)
    pos_esc = t + psienc.NSV
    neg_esc = pos_esc + psienc.ESC_CLASSES
    assert lengths.max() > enc._k
    assert lengths[pos_esc:neg_esc].any() and lengths[neg_esc:].any()
    calls = long_code_calls(monkeypatch)
    assert enc.values().tolist() == plain.range(1, n)
    assert calls
    calls.clear()
    assert enc.range(1, n) == plain.range(1, n)
    assert calls
    calls.clear()
    rng = random.Random(t)
    block_ends = [p - 1 for p in enc._bpos[1:]]  # an access there decodes its whole block
    for i in block_ends + [rng.randint(1, n) for _ in range(1500)]:
        assert enc.access(i) == plain.access(i), i
    assert calls
    for _ in range(40):
        lo = rng.randint(1, n)
        hi = min(n, lo + rng.randint(0, 3 * t))
        assert enc.range(lo, hi) == plain.range(lo, hi), (lo, hi)


def test_huffman_17_bit_codes_take_no_long_code(monkeypatch):
    # the decode table is 17 bits wide when the longest code is, so no
    # decoder leaves it: not values(), and not the walks of access and
    # range, which read the table from the same 24-bit window
    psi, D = long_code_sequence()
    n = len(psi)
    enc = psienc.encode(psi, D, codec="huff-rle-opt", t_psi=256)
    assert np.frombuffer(enc._lengths_u8, dtype=np.uint8).max() == 17
    calls = long_code_calls(monkeypatch)
    assert enc.values().tolist() == enc.range(1, n) == psi.tolist()
    ends = np.array(enc._bpos[1:]) - 1  # an access there decodes its whole block
    assert [enc.access(i) for i in ends.tolist()] == psi[ends - 1].tolist()
    assert not calls


# sha256 of each codec's to_sections() on the crafted and long-code
# sequences, every section prefixed by its u64 length. These cover
# escapes of both signs, descents and codes of up to 17 bits.
SECTION_DIGESTS = {
    ("crafted", "vbyte-rle", 1): "5cdd242d3025a876f57b635e06276840242daca06eb26e270f370532d1b64dd7",
    ("crafted", "vbyte-rle", 4): "317685a8ff957ca18273b138a799cf3037ee62c46d51ad02e5bdebdba9112c63",
    ("crafted", "vbyte-rle", 64): "aa6ba2a9afe570821a47d38558983f48ce2cb7a3ab61494a8fc3c5520a57f8de",
    ("crafted", "vbyte-rle", 256): "13501554770196fc88ffdbba13fcd0b156e093fd40de0d4679555e1a17f72709",
    ("crafted", "huff-rle-opt", 1): "d7db04c585e054c5e0c73c42c5a1c1de6343032346c1dd973ba2e37bdddf2329",
    ("crafted", "huff-rle-opt", 4): "9c0b059409d5752663ca60dedd2b3a7195990b5efa2d99307ea66c9161130962",
    ("crafted", "huff-rle-opt", 64): "bb883743f675903c2735a36f1cde1c8376e4c62b213cc2cf734a5ced53e4d848",
    ("crafted", "huff-rle-opt", 256): "dc2e7ca3822e2eeb2d36cb3fac5c9ef14a562edfde2fa13850a8b98a2e301d76",
    ("long", "vbyte-rle", 1): "32cb8f1997dfb5ce5e2875ed1d9eba05e56693f5ebc337b51049eb7040c1d244",
    ("long", "vbyte-rle", 4): "ae80d7e4187e60caf484e2b483f74eb47dde4c6bb5480d7b5d3117300a904fd7",
    ("long", "vbyte-rle", 64): "97ddd70c4b69da54c3ab5fdce1d9cda7631e9e17337f62e073faef864042db12",
    ("long", "vbyte-rle", 256): "97ddd70c4b69da54c3ab5fdce1d9cda7631e9e17337f62e073faef864042db12",
    ("long", "huff-rle-opt", 1): "4358c8579d2fc2ef6c4f1fe9333bd5847cde310924e610e227cb3a90581b90e0",
    ("long", "huff-rle-opt", 4): "17d2601601a0b17ece74dbba814b772f17fb281a09ee192d2b93fc1aa9e8638e",
    ("long", "huff-rle-opt", 64): "3a9d94da759059c1e9c786ea4d836210b8cb1ab26802238135d4e8f938807c40",
    ("long", "huff-rle-opt", 256): "0e84fc7619b10b86bf5d3a8a7e4a12059b0d36db6e7b66a533d745d6dd819717",
}


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("sequence", ("crafted", "long"))
def test_section_bytes_are_pinned(sequence, codec):
    psi, D = (crafted_sequence if sequence == "crafted" else long_code_sequence)()
    for t in (1, 4, 64, 256):
        sections = psienc.encode(psi, D, codec=codec, t_psi=t).to_sections()
        blob = b"".join(struct.pack("<Q", len(s)) + s for s in sections)
        assert hashlib.sha256(blob).hexdigest() == SECTION_DIGESTS[(sequence, codec, t)], t


def byte_code(x):
    out = []
    while x >= 0x80:
        out.append(x & 0x7F)
        x >>= 7
    return out + [0x80 | x]


def loop_vbyte(psi, D, t):
    """vbyte-rle's stream and tables (s0, ptr0, s1, ptr1), written by one
    loop over the positions. A run stops at a sample, which sits every t
    positions from its group's start."""
    psi, starts = psi.tolist(), set(D.positions().tolist())
    stream, tables = [], ([], [], [], [])
    i = 1
    while i <= len(psi):
        if i in starts:
            l = i
            tables[0].append(psi[i - 1])
            tables[1].append(len(stream))
            i += 1
            continue
        g, j = psi[i - 1] - psi[i - 2], i
        if g == 1:
            while (j < len(psi) and j + 1 not in starts and (j - l) % t
                   and psi[j] - psi[j - 1] == 1):
                j += 1
            stream += byte_code(1) + byte_code(j - i + 1)
        else:
            stream += byte_code(g) if g > 1 else byte_code(0) + byte_code(-g)
        if (j - l) % t == 0:   # a sample ends the token that covers it
            tables[2].append(psi[j - 1])
            tables[3].append(len(stream))
        i = j + 1
    return bytes(stream), tables


def loop_huffman(psi, D, t):
    """huff-rle-opt's code lengths, stream bits, block samples and block
    pointers, written by one loop over the positions."""
    psi, nsv, esc = psi.tolist(), psienc.NSV, psienc.ESC_CLASSES
    starts = set(D.positions().tolist())
    tokens, samples, blocks = [], [], []   # (symbol, raw bits as text); each block's first token
    i = 1
    while i <= len(psi):
        if i in starts:
            l = i
        if (i - l) % t == 0:
            # a block opens at every group start and every t positions
            # inside the group: its sample is stored, its tokens follow
            samples.append(psi[i - 1])
            blocks.append(len(tokens))
            i += 1
            continue
        g, r = psi[i - 1] - psi[i - 2], 1
        if g == 1:
            while (i + r <= len(psi) and i + r not in starts and (i + r - l) % t
                   and psi[i + r - 1] - psi[i + r - 2] == 1):
                r += 1
            tokens.append((r - 1, ""))
        elif 2 <= g <= nsv + 1:
            tokens.append((t + g - 2, ""))
        else:
            m, base = (g - nsv - 2, t + nsv) if g > 1 else (-g - 1, t + nsv + esc)
            k = m.bit_length()
            tokens.append((base + k, format(m, "b")[1:]))
        i += r
    lengths = psienc._huff_lengths(Counter(s for s, _ in tokens))
    lengths_u8 = bytes(lengths.get(s, 0) for s in range(max(lengths, default=-1) + 1))
    syms, lens, first, _, offset = psienc._canonical_code(lengths_u8)
    code = {s: format(first[ln] + i - offset[ln], f"0{ln}b")
            for i, (s, ln) in enumerate(zip(syms.tolist(), lens.tolist()))}
    words = [code[s] + raw for s, raw in tokens]
    at = np.cumsum([0] + [len(w) for w in words]).tolist()
    return lengths_u8, "".join(words), samples, [at[k] for k in blocks]


def test_encoders_match_loop_reference():
    # random graphs with duplicate contacts, at both arities, and the
    # crafted sequences, against loops that write one token at a time;
    # the vbyte tables are the ones the constructor derives from the
    # stream, and a load derives them again from the image
    inputs = [psi_and_d(cs) for cs in search_graphs()] + [crafted_sequence(),
                                                         long_code_sequence()]
    for psi, D in inputs:
        for t in (1, 2, 3, 7, 64):
            enc = psienc.encode(psi, D, codec="vbyte-rle", t_psi=t)
            stream, tables = loop_vbyte(psi, D, t)
            assert enc._stream == stream
            assert [vbyte_table(enc, name).tolist()
                    for name in ("s0", "ptr0", "s1", "ptr1")] == list(tables)
            back = psienc.from_sections(enc.tag, enc.to_sections(), D, t)
            assert all(np.array_equal(a, b) for a, b in zip(back._columns(), enc._columns()))
            enc = psienc.encode(psi, D, codec="huff-rle-opt", t_psi=t)
            lengths_u8, bits, samples, ptrs = loop_huffman(psi, D, t)
            assert enc._lengths_u8 == lengths_u8
            assert enc._stream_bits == len(bits)
            assert huffman_tables(enc)[1:] == [samples, ptrs]
            padded = bits + "0" * (-len(bits) % 8)
            assert enc._stream == int("1" + padded, 2).to_bytes(len(padded) // 8 + 1, "big")[1:]


def packed_section(vals, width=None, pad=False):
    """A table section as _fixed_section writes it, at width (the table's
    minimum when None). pad sets the bit after the last value when that
    ends inside a byte, else a reserved byte of the header."""
    vals = np.asarray(vals, dtype=np.uint64)
    width = width or psienc._min_width(vals)
    blob = bytearray(struct.pack("<QB7x", len(vals), width) + psienc._pack_fixed(vals, width))
    used = len(vals) * width % 8
    if pad and used:
        blob[-1] |= 1 << used
    elif pad:
        blob[15] = 1
    return bytes(blob)


def huffman_sections(forge=lambda enc: {}):
    """The sections of the crafted sequence's huff-rle-opt encoding
    (t_psi 64) and its D. forge maps the encoding to replacement parts:
    codebook (the length bytes), samples or ptrs (sequences), stream_bits
    or stream, or a whole section as bytes under codebook-section,
    samples-section, ptrs-section or stream-section."""
    psi, D = crafted_sequence()
    enc = psienc.encode(psi, D, codec="huff-rle-opt", t_psi=64)
    _, samples, ptrs = enc._tables()
    parts = dict(codebook=enc._lengths_u8, samples=samples, ptrs=ptrs,
                 stream_bits=enc._stream_bits, stream=enc._stream)
    parts.update(forge(enc))
    tables = (np.frombuffer(parts["codebook"], dtype=np.uint8), parts["samples"], parts["ptrs"])
    sections = [parts.get(f"{name}-section") or packed_section(table)
                for name, table in zip(("codebook", "samples", "ptrs"), tables)]
    return sections + [parts.get("stream-section")
                       or struct.pack("<Q", parts["stream_bits"]) + parts["stream"]], D


def huffman_tables(enc):
    """The encoding's code lengths, samples and pointers as lists."""
    return [a.tolist() for a in enc._tables()]


def test_huffman_sections_load_back():
    sections, D = huffman_sections()
    back = psienc.from_sections(psienc.TAGS["huff-rle-opt"], sections, D, 64)
    assert back.range(1, len(D)) == crafted_sequence()[0].tolist()
    assert back.to_sections() == sections


@pytest.mark.parametrize("forge, message", [
    (lambda p: dict(codebook=p._lengths_u8 + b"\x01"), "Kraft"),
    # a complete code whose shortest codeword goes to a symbol past the escapes
    (lambda p: dict(codebook=b"\x02\x02" + bytes(64 + psienc.NSV + 2 * psienc.ESC_CLASSES)
                    + b"\x01"), "outside the alphabet"),
    (lambda p: dict(samples=huffman_tables(p)[1][:-1]), "samples and pointers"),
    (lambda p: dict(ptrs=huffman_tables(p)[2] + [0]), "samples and pointers"),
    (lambda p: dict(stream_bits=8 * len(p._stream) + 1), "shorter than its bit count"),
    (lambda p: dict(stream=p._stream + b"\x00"), "bytes past its bit count"),
    # 85 stream bits: the last byte's three low bits are padding
    (lambda p: dict(stream=p._stream[:-1] + bytes([p._stream[-1] | 1])),
     "bits past its bit count"),
    (lambda p: dict(ptrs=huffman_tables(p)[2][::-1]), "out of order"),
    (lambda p: dict(ptrs=huffman_tables(p)[2][:-1] + [p._stream_bits + 1]), "past the stream"),
    (lambda p: {"stream-section": bytes(7)}, "stream section is shorter than its header"),
], ids=["kraft", "symbol", "samples", "ptrs", "stream-bits", "stream-byte",
        "stream-pad", "ptr-order", "ptr-end", "stream-header"])
def test_huffman_load_rejects_forged_sections(forge, message):
    sections, D = huffman_sections(forge)
    with pytest.raises(ValueError, match=message):
        psienc.from_sections(psienc.TAGS["huff-rle-opt"], sections, D, 64)


def wide(table, pad=False):
    """A forge of one table, named by its index in _tables(), one bit
    wider than its minimum, or at its minimum with padding bits set."""
    def forge(enc):
        vals = enc._tables()[table]
        blob = packed_section(vals, psienc._min_width(vals) + (not pad), pad)
        return {("codebook", "samples", "ptrs")[table] + "-section": blob}
    return forge


@pytest.mark.parametrize("forge, message", [
    (lambda p: dict(samples=huffman_tables(p)[1][:-1], ptrs=huffman_tables(p)[2][:-1]),
     "needs 12 samples and pointers, the image holds 11 and 11"),
    # two pointers swapped: each still inside the stream
    (lambda p: dict(ptrs=swap_first_rise(huffman_tables(p)[2])), "out of order"),
    (wide(0), "Huffman code length table is not at its minimum width of 3 bits"),
    (wide(1), "Huffman sample table is not at its minimum width of 15 bits"),
    (wide(2), "Huffman pointer table is not at its minimum width of 6 bits"),
    (wide(0, pad=True), "Huffman code length section sets padding bits"),
    (wide(1, pad=True), "Huffman sample section sets padding bits"),
    (wide(2, pad=True), "Huffman pointer section sets padding bits"),
    (lambda p: {"samples-section": psienc._fixed_section(p._tables()[1])[:-1]},
     "disagrees with its header"),
    (lambda p: {"codebook-section": bytes(range(1, 8))}, "shorter than its header"),
    (lambda p: {"codebook-section": packed_section([256])}, "Huffman code length past 255"),
], ids=["block-count", "ptr-decrease", "codebook-width", "samples-width", "ptrs-width",
        "codebook-pad", "samples-pad", "ptrs-pad", "samples-short", "codebook-header",
        "codebook-256"])
def test_huffman_load_rejects_forged_tables(forge, message):
    sections, D = huffman_sections(forge)
    with pytest.raises(ValueError, match=message):
        psienc.from_sections(psienc.TAGS["huff-rle-opt"], sections, D, 64)


def with_slack(enc, k, z):
    """enc's sections with z zero bits inserted in the stream where block
    k's codes begin, and the pointers of block k on moved past them."""
    lengths, samples, ptrs = enc._tables()
    bits = "".join(f"{b:08b}" for b in enc._stream)[:enc._stream_bits]
    at = int(ptrs[k])
    bits = bits[:at] + "0" * z + bits[at:]
    ptrs = ptrs.copy()
    ptrs[k:] += np.uint64(z)
    padded = bits + "0" * (-len(bits) % 8)
    stream = bytes(int(padded[j:j + 8], 2) for j in range(0, len(padded), 8))
    return [psienc._fixed_section(lengths), psienc._fixed_section(samples),
            psienc._fixed_section(ptrs), struct.pack("<Q", len(bits)) + stream]


def test_huffman_values_reject_slack_between_blocks():
    # zero bits between two blocks' codes, with every later pointer moved
    # to match, load; access reads each block from its own pointer and
    # still answers, but values() finds the codes before the slack ending
    # short of the next pointer, so no index holds such a stream and no
    # walk meets it
    crafted = crafted_sequence()
    graph = psi_and_d(search_graphs()[0])
    for (psi, D), t in ((crafted, 64), (crafted, 3), (graph, 2), (graph, 64)):
        enc = psienc.encode(psi, D, codec="huff-rle-opt", t_psi=t)
        n = len(psi)
        bpos = np.frombuffer(enc._bpos, dtype=np.int64)
        want = psi.tolist()
        for k in range(1, len(bpos) - 1):
            bad = psienc.from_sections(enc.tag, with_slack(enc, k, 5), D, t)
            assert [bad.access(i) for i in range(1, n + 1)] == want
            with pytest.raises(ValueError, match="do not end with it, at the next pointer"):
                bad.values()
            assert bad.range(bpos[k], n) == want[bpos[k] - 1:]


def decode_calls(enc, i):
    """Every entry point asked for position i, each from a walk that
    has to decode it: access, range, stretch seeking past every value
    and collecting every value, and access_many alone and with the
    position before it (so through range)."""
    return [lambda: enc.access(i), lambda: enc.range(1, i),
            lambda: enc.stretch(1, i, 2**70, 2**70), lambda: enc.stretch(1, i, 0, 2**70),
            lambda: enc.access_many([i]), lambda: enc.access_many([i - 1, i])]


def one_group(n):
    """D of a Psi that is one group of n positions."""
    return BitSequence.from_positions([1], n)


def test_huffman_decode_stops_at_bad_codes_and_the_stream_end():
    # run symbols 0 and 1 coded 0 and 10: the prefix 11 is unassigned
    enc = psienc.HuffRlePsi(bytes([1, 2]), [1], [0], b"\xff", 8, one_group(4), 4)
    for call in decode_calls(enc, 2) + [enc.values]:
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            call()
    # each stream below ends before its block's positions do: values()
    # rejects it, so no index holds it and no walk reads past its end
    ends_short = "do not end with it, at the next pointer"
    # eight codes 10 (runs of 2) fill the stream; a ninth token would start at its end
    enc = psienc.HuffRlePsi(bytes([1, 2]), [1], [0], b"\xaa\xaa", 16, one_group(64), 64)
    assert enc.access(17) == 17 and enc.range(1, 17) == list(range(1, 18))
    assert enc.stretch(1, 17, 18, 18)[0] == 18 and enc.access_many([16, 17]).tolist() == [16, 17]
    with pytest.raises(ValueError, match=ends_short):
        enc.values()
    with pytest.raises(ValueError, match="outside"):
        enc.access(65)
    # six runs of 2 in 12 bits: the four zero bits after them are no codes
    enc = psienc.HuffRlePsi(bytes([1, 2]), [1], [0], b"\xaa\xa0", 12, one_group(64), 64)
    assert enc.range(1, 13) == list(range(1, 14))
    with pytest.raises(ValueError, match=ends_short):
        enc.values()
    # 1-bit codes would run on past the zero padding behind the stream
    enc = psienc.HuffRlePsi(bytes([1, 2]), [1], [0], b"\x00", 8, one_group(1000), 1000)
    assert enc.access(9) == 9
    with pytest.raises(ValueError, match=ends_short):
        enc.values()
    # run symbol 0 coded 0 and the positive escape class 20 coded 1: the
    # escape's 19 raw bits run past the 8-bit stream
    t = 4
    lengths = bytearray(t + psienc.NSV + 21)
    lengths[0] = lengths[-1] = 1
    enc = psienc.HuffRlePsi(bytes(lengths), [1], [0], b"\x20", 8, one_group(t), t)
    assert enc.range(1, 3) == [1, 2, 3]
    with pytest.raises(ValueError, match=ends_short):
        enc.values()


def test_huffman_values_reject_a_run_past_its_block():
    # one group 1..8 at t_psi 4: blocks open at 1 and 5. Run symbols 0 and
    # 3 (runs of 1 and 4) are coded 0 and 1; block 1's codes are one run
    # of 4, which would step over block 2's sample at 5
    enc = psienc.HuffRlePsi(bytes([1, 0, 0, 1]), [1, 5], [0, 1], b"\x80", 4, one_group(8), 4)
    assert [enc.access(i) for i in range(1, 9)] == list(range(1, 9))
    with pytest.raises(ValueError, match="do not end with it, at the next pointer"):
        enc.values()


def search_graphs():
    """Small graphs with duplicate contacts (so negative gaps) at both arities."""
    rng = random.Random(660)
    graphs = []
    for _ in range(4):
        graphs.append(random_contactset(seed=rng.randrange(10**9), duplicates=True,
                                        n_edges=rng.randint(6, 16)))
    for semantics in ("incremental", "point"):
        for _ in range(2):
            nu, tau = rng.randint(2, 6), rng.randint(3, 8)
            rows = [(rng.randint(1, nu), rng.randint(1, nu), rng.randint(1, tau))
                    for _ in range(rng.randint(6, 20))]
            rows += rows[:4]
            graphs.append(ContactSet(rows, arity=3, nu=nu, tau=tau, semantics=semantics))
    return graphs


def test_huffman_blocks_agree_with_plain():
    # seeded random graphs at both arities with duplicate contacts, and the
    # crafted group, at t_psi 1, 2, 3 and 64: they hold groups longer than
    # t_psi (so samples inside groups), single-position groups, and +1
    # runs that would cross an in-group sample if the sample did not cut
    # them. access, access_many, range and stretch must answer as plain.
    rng = random.Random(1601)
    graphs = search_graphs() + [random_contactset(seed=rng.randrange(10**9), duplicates=True,
                                                  n_edges=rng.randint(10, 30))
                                for _ in range(3)]
    inputs = [(cs, *psi_and_d(cs)) for cs in graphs] + [(None, *crafted_sequence())]
    seen = Counter()
    for cs, psi, D in inputs:
        n = len(psi)
        want = psi.tolist()
        plain = psienc.encode(psi, D, codec="plain")
        opens = D.positions().tolist()
        groups = list(zip(opens, [l - 1 for l in opens[1:]] + [n]))
        seen["single-position group"] += any(l == r for l, r in groups)
        for t in (1, 2, 3, 64):
            enc = psienc.encode(psi, D, codec="huff-rle-opt", t_psi=t)
            inner = set(np.frombuffer(enc._bpos, dtype=np.int64)[:-1].tolist()) - set(opens)
            seen["in-group sample"] += bool(inner)
            seen["run across a sample"] += any(
                p < n and p + 1 not in opens and want[p - 2] + 1 == want[p - 1] == want[p] - 1
                for p in inner)
            assert [enc.access(i) for i in range(1, n + 1)] == want, t
            for ps in position_lists(D, rng):
                assert enc.access_many(ps).tolist() == plain.access_many(ps).tolist()
            spans = [(1, n)] + [(lo, hi) for lo in range(1, n + 1) for hi in range(lo - 1, n + 1)
                                if rng.random() < 200 / n ** 2]
            for lo, hi in spans:
                assert enc.range(lo, hi) == plain.range(lo, hi), (t, lo, hi)
            for l, r in groups:
                if r < n:
                    with pytest.raises(ValueError, match="crosses a group end"):
                        enc.stretch(l, r + 1, 1, 1)
                if cs is None or l > (cs.arity - 1) * len(cs):
                    continue
                # thresholds at the next section's group starts, as the queries pass them
                section = (l - 1) // len(cs) + 1
                xs = [x for x in opens + [n + 1]
                      if section * len(cs) < x <= (section + 1) * len(cs) + 1]
                for _ in range(6):
                    x, y = sorted(rng.sample(xs, 2)) if len(xs) > 1 else (xs[0], xs[0])
                    lo = rng.randint(l, r)
                    hi = rng.randint(lo, r)
                    assert enc.stretch(lo, hi, x, y) == plain.stretch(lo, hi, x, y)
    assert min(seen.values()) > 0 and len(seen) == 3, seen


def brute_search(psi, lo, hi, x):
    return next((i for i in range(lo, hi + 1) if psi[i - 1] >= x), hi + 1)


def brute_stretch(psi, lo, hi, x, y):
    first = brute_search(psi, lo, hi, x)
    end = brute_search(psi, first, hi, y)
    return first, psi[first - 1:end - 1]


@pytest.mark.parametrize("codec", ("plain",) + CODECS)
def test_search_matches_brute_force(codec):
    # every group of sections 1..arity-1, every pair x <= y of group
    # starts of the next section (and the position past it), and
    # sub-ranges inside the group
    rng = random.Random(codec)
    for cs in search_graphs():
        psi, D = psi_and_d(cs)
        n = len(cs)
        want = psi.tolist()
        bounds = D.positions().tolist() + [len(psi) + 1]
        groups = [(l, nxt - 1) for l, nxt in zip(bounds, bounds[1:])
                  if l <= (cs.arity - 1) * n]
        assert any(b < a for a, b in zip(want, want[1:]))   # a negative gap
        for t in (1, 2, 3, 16, 64):
            enc = psienc.encode(psi, D, codec=codec, t_psi=t)
            assert enc.values().tolist() == enc.range(1, len(psi)), t
            for l, r in groups:
                section = (l - 1) // n + 1
                xs = [x for x in bounds if section * n < x <= (section + 1) * n]
                xs.append((section + 1) * n + 1)
                spans = [(lo, hi) for lo in range(l, r + 1) for hi in range(lo, r + 1)]
                if len(spans) > 40:
                    spans = [(l, r)] + rng.sample(spans, 40)
                for x in xs:
                    for y in (y for y in xs if y >= x):
                        for lo, hi in spans:
                            assert enc.stretch(lo, hi, x, y) == \
                                brute_stretch(want, lo, hi, x, y), (cs.arity, t, lo, hi, x, y)
                        assert enc.stretch(r + 1, r, x, y) == (r + 1, [])


@pytest.mark.parametrize("codec", ("plain",) + CODECS)
def test_search_solves_long_runs_and_escapes(codec):
    # the crafted group climbs through runs longer than t_psi, a giant gap
    # and descents; a threshold x inside a monotone stretch is still valid
    psi, D = crafted_sequence()
    want = psi.tolist()
    stretches = [(1, 702), (703, 744), (745, 757)]
    rng = random.Random(codec)
    for t in (1, 3, 16, 64):
        enc = psienc.encode(psi, D, codec=codec, t_psi=t)
        assert enc.values().tolist() == enc.range(1, len(psi)), t
        for lo, hi in stretches:
            xs = range(min(want[lo - 1:hi]) - 1, max(want[lo - 1:hi]) + 2, 7)
            # y = x, and a threshold up to 40 steps above x as the stretch's end
            for x in xs:
                for y in (x, x + 7 * rng.randint(1, 40)):
                    assert enc.stretch(lo, hi, x, y) == brute_stretch(want, lo, hi, x, y), \
                        (t, lo, hi, x, y)


@pytest.mark.parametrize("codec", ("plain",) + CODECS)
def test_positions_outside_psi_raise_value_error(codec):
    psi, D = g5_psi_d()
    enc = psienc.encode(psi, D, codec=codec, t_psi=4)
    for call in (lambda: enc.access(0), lambda: enc.access(21),
                 lambda: enc.range(0, 3), lambda: enc.range(18, 21),
                 lambda: enc.stretch(0, 2, 7, 7), lambda: enc.stretch(20, 21, 1, 9)):
        with pytest.raises(ValueError, match="outside"):
            call()


@pytest.mark.parametrize("codec", CODECS)
def test_range_finds_group_ends_in_the_block_table(codec, monkeypatch):
    # a range over many groups, and a stretch in each, take every group's
    # end from the block table: none selects on D
    psi, D = psi_and_d(search_graphs()[0])
    n = len(psi)
    enc = psienc.encode(psi, D, codec=codec, t_psi=2)
    calls = Counter()
    select1 = BitSequence.select1

    def counted(self, k):
        calls[self is D] += 1
        return select1(self, k)

    monkeypatch.setattr(BitSequence, "select1", counted)
    assert D.ones > 10
    assert enc.range(1, n) == psi.tolist()
    bounds = D.positions().tolist() + [n + 1]
    for l, nxt in zip(bounds, bounds[1:]):
        assert enc.stretch(l, nxt - 1, -2**70, 2**70) == (l, psi[l - 1:nxt - 1].tolist())
    assert calls[True] == 0


@pytest.mark.parametrize("codec", ("vbyte-rle",))
def test_vbyte_search_stays_inside_one_group(codec):
    # G5's first group is positions 1..2; its samples say nothing of position 3
    psi, D = g5_psi_d()
    enc = psienc.encode(psi, D, codec=codec, t_psi=1)
    assert enc.stretch(1, 2, 8, 8)[0] == 2
    with pytest.raises(ValueError, match="group end"):
        enc.stretch(1, 3, 8, 8)


def vbyte_sections(forge=lambda enc: {}):
    """The vbyte-rle sections of the crafted sequence (t_psi 64) and its
    D. forge maps the encoding to replacement parts: s0 and the stream,
    which share the first section (s0 as a sequence, packed), or the
    reserved sections reserved-2 to reserved-9, as bytes."""
    psi, D = crafted_sequence()
    enc = psienc.encode(psi, D, codec="vbyte-rle", t_psi=64)
    parts = dict(s0=enc._s0(), stream=enc._stream)
    parts.update(forge(enc))
    sections = [packed_section(parts.pop("s0")) + parts.pop("stream")]
    sections += [parts.pop(f"reserved-{k}", b"") for k in range(2, 10)]
    assert not parts
    return sections, D


def vbyte_table(enc, name):
    """The encoding's table of that name, s0, ptr0, s1 or ptr1, read from
    its block table: s0 and ptr0 at the blocks that open a group, s1 and
    ptr1 at the others."""
    _, val, ptr = enc._columns()
    opens = np.zeros(len(val), dtype=bool)
    opens[np.frombuffer(enc._open, dtype=np.int64)] = True
    table = {"s": val, "ptr": ptr[:-1]}[name[:-1]]
    return table[opens] if name.endswith("0") else table[~opens]


def sample_positions(enc):
    """Where the encoding's level-two samples sit: the start positions of
    its blocks that open no group."""
    bpos = np.frombuffer(enc._bpos, dtype=np.int64)[:-1]
    opens = np.zeros(len(bpos), dtype=bool)
    opens[np.frombuffer(enc._open, dtype=np.int64)] = True
    return bpos[~opens]


def test_vbyte_samples_follow_from_d_and_t_psi():
    # sample j >= 1 of the group opening at l sits at l + j*t_psi; the
    # codec holds no bitmap but D
    rng = random.Random(12)
    for _ in range(4):
        cs = random_contactset(seed=rng.randrange(10**9), duplicates=True)
        psi, D = psi_and_d(cs)
        bounds = D.positions().tolist() + [len(psi) + 1]
        for t in (1, 2, 5, 64):
            enc = psienc.encode(psi, D, codec="vbyte-rle", t_psi=t)
            want = [l + j * t for l, nxt in zip(bounds, bounds[1:])
                    for j in range(1, (nxt - 1 - l) // t + 1)]
            assert sample_positions(enc).tolist() == want
            assert vbyte_table(enc, "s1").tolist() == [int(psi[p - 1]) for p in want]
            assert [v for v in vars(enc).values() if isinstance(v, BitSequence)] == [D]


def swap_first_rise(a):
    """a with its first pair of adjacent, increasing entries swapped."""
    a = list(a)
    k = next(k for k in range(len(a) - 1) if a[k] < a[k + 1])
    a[k], a[k + 1] = a[k + 1], a[k]
    return a


def top_sample_past_bound(p):
    """s0 raised so that the largest level-two sample is one past _bound."""
    s0, s1 = int(vbyte_table(p, "s0")[0]), int(vbyte_table(p, "s1").max())
    return dict(s0=[p._bound - (s1 - s0) + 1])


@pytest.mark.parametrize("forge, message", [
    (lambda p: dict(s0=list(vbyte_table(p, "s0")) + [1]),
     "needs 1 group samples, the image holds 2"),
    # the sample bitmap that images of the older layout hold in D1's slot
    # (test_indexfile's reserved-section test tries the older tables)
    (lambda p: {"reserved-9": BitSequence.from_positions(sample_positions(p),
                                                        len(p)).serialize()},
     "reserved sections"),
    # the samples a load derives are checked as the stored ones were
    (top_sample_past_bound, "sample outside"),
    (lambda p: dict(s0=[2**63] + list(vbyte_table(p, "s0")[1:])), "sample outside"),
    # the first run, cut at the sample 65 after 64 steps, made 2**40 steps long
    (lambda p: dict(stream=codes(1, 2**40) + p._stream[len(codes(1, 64)):]),
     f"codes {2**40 - 64 + 757} steps, the groups hold 757"),
    # two whole codes after the last block's codes: they would never decode
    (lambda p: dict(stream=p._stream + b"\x85\x85"), "codes 759 steps, the groups hold 757"),
    # the byte coder refuses to write a negative gap as it stands
    (lambda p: dict(stream=codes(-1)), "non-negative integers only"),
], ids=["s0", "D1", "s1-value", "s0-value", "run1-value", "stream-slack", "negative-code"])
def test_vbyte_load_rejects_forged_sections(forge, message):
    with pytest.raises(ValueError, match=message):
        sections, D = vbyte_sections(forge)
        psienc.from_sections(psienc.TAGS["vbyte-rle"], sections, D, 64)


def test_vbyte_decode_stops_at_the_stream_end():
    sections, D = vbyte_sections()
    back = psienc.from_sections(psienc.TAGS["vbyte-rle"], sections, D, 64)
    assert back.range(1, len(D)) == crafted_sequence()[0].tolist()
    with pytest.raises(ValueError, match="sections"):
        psienc.from_sections(psienc.TAGS["vbyte-rle"], sections[:-1], D, 64)
    # cut the stream just past its last sample pointer, or inside the
    # three-byte code of the gap 20000: a load, which decodes every code,
    # rejects either stream, so no walk can reach the cut
    cut = int(vbyte_table(back, "ptr1").max())
    wide = back._stream.index(psienc.vbyte_codes([20000])[0])
    for stream, message in ((back._stream[:cut], "codes 704 steps, the groups hold 757"),
                            (back._stream[:wide + 1], "past the end of the stream")):
        cut_sections, _ = vbyte_sections(lambda p: dict(stream=stream))
        with pytest.raises(ValueError, match=message):
            psienc.from_sections(psienc.TAGS["vbyte-rle"], cut_sections, D, 64)


def test_vbyte_first_section_holds_s0_then_the_stream():
    sections, D = vbyte_sections()
    enc = psienc.from_sections(psienc.TAGS["vbyte-rle"], sections, D, 64)
    assert sections[0] == packed_section([enc.access(1)]) + enc._stream
    # the s0 table's header says where the stream begins: a section shorter
    # than that header, a header that claims more values than the section
    # holds or a width of 0, and no sample for the one group are rejected
    for first, message in ((b"", "shorter than its header"),
                           (packed_section([1])[:15], "shorter than its header"),
                           (struct.pack("<QB7x", 2**60, 1) + enc._stream, "payload disagrees"),
                           (struct.pack("<QB7x", 1, 0) + enc._stream, "payload disagrees"),
                           (packed_section([]) + enc._stream, "needs 1 group samples, the "
                                                              "image holds 0")):
        with pytest.raises(ValueError, match=message):
            psienc.from_sections(psienc.TAGS["vbyte-rle"], [first] + sections[1:], D, 64)


def vbyte_image(stream, s0, D, t_psi):
    """Load a vbyte-rle image of that stream and s0."""
    sections = [packed_section(s0) + bytes(stream)] + [b""] * 8
    return psienc.from_sections(psienc.TAGS["vbyte-rle"], sections, D, t_psi)


def codes(*values):
    return psienc.vbyte_codes(values)[0]


def test_vbyte_load_derives_the_table_of_any_valid_stream():
    # an empty index, groups of one position and a group of runs cut at
    # its samples all load, and answer from the derived table
    assert vbyte_image(b"", [], BitSequence.from_positions([], 0), 4).range(1, 0) == []
    singles = vbyte_image(b"", [3, 1, 2], BitSequence.from_positions([1, 2, 3], 3), 1)
    assert singles.range(1, 3) == [3, 1, 2] and singles.access_many([2, 3]).tolist() == [1, 2]
    # groups 1..2 and 3..9: 5, 7 and 2, 3, ..., 8 at t_psi 2, so samples
    # at 5, 7 and 9, each ending a run of 2
    D = BitSequence.from_positions([1, 3], 9)
    enc = vbyte_image(codes(2, 1, 2, 1, 2, 1, 2), [5, 2], D, 2)
    assert enc.range(1, 9) == [5, 7, 2, 3, 4, 5, 6, 7, 8]
    assert [vbyte_table(enc, name).tolist() for name in ("s0", "ptr0", "s1", "ptr1")] \
        == [[5, 2], [0, 1], [4, 6, 8], [3, 5, 7]]
    assert enc.to_sections() == psienc.encode(np.array([5, 7, 2, 3, 4, 5, 6, 7, 8]), D,
                                              codec="vbyte-rle", t_psi=2).to_sections()
    # the same values as one run of 6, which goes on past the samples 5
    # and 7, load only where no sample lies inside the run
    with pytest.raises(ValueError, match="vbyte run crosses a block start"):
        vbyte_image(codes(2, 1, 6), [5, 2], D, 2)
    assert vbyte_image(codes(2, 1, 6), [5, 2], D, 6).range(1, 9) == enc.range(1, 9)
    for stream in (codes(2), codes(2, 1, 2, 1, 2, 1, 2, 2)):
        with pytest.raises(ValueError, match="steps, the groups hold 7"):
            vbyte_image(stream, [5, 2], D, 2)
    with pytest.raises(ValueError, match="codes 1 steps, the groups hold 0"):
        vbyte_image(codes(2), [3, 1, 2], BitSequence.from_positions([1, 2, 3], 3), 1)


def test_vbyte_index_keeps_no_cut_of_the_stream():
    # the constructor's cut serves the first values(), which is the
    # index's proof; a built or loaded index then holds the stream alone
    cs = random_contactset(seed=31, duplicates=True)
    psi, D = psi_and_d(cs)
    enc = psienc.encode(psi, D, codec="vbyte-rle", t_psi=4)
    assert enc.values().tolist() == enc.values().tolist() == psi.tolist()
    idx = build_index(cs, codec="vbyte-rle", t_psi=4)
    for held in (idx.psi, deserialize_index(serialize_index(idx)).psi):
        arrays = [k for k, v in vars(held).items() if isinstance(v, (np.ndarray, tuple))]
        assert arrays == ["_bytes"]
        assert held.values().tolist() == psi.tolist()


@pytest.mark.parametrize("stream, s0, starts, message", [
    # one group 1..3: a whole code too many, or one too few
    (codes(2, 2, 2), [1], [1], "codes 3 steps, the groups hold 2"),
    (codes(2), [1], [1], "codes 1 steps, the groups hold 2"),
    # the last code cut after its first byte
    (codes(2, 300)[:-1], [1], [1], "past the end of the stream"),
    # groups 1..3 and 4..6: a run of 3 from position 2 runs into the next group
    (codes(1, 3, 2), [1, 7], [1, 4], "run crosses a block start"),
    # a marker, 1 or 0, as the stream's last code
    (codes(2, 1), [1], [1], "marker at the end of the stream has no payload"),
    (codes(2, 0), [1], [1], "marker at the end of the stream has no payload"),
    # a run of no steps, or an escape down by 0
    (codes(1, 0, 2, 2), [1], [1], "run length or magnitude of 0"),
    (codes(0, 0, 2), [1], [1], "run length or magnitude of 0"),
    # at t_psi 1 every position is a sample: 1 - 5, or two past the bound
    (codes(0, 5, 9), [1], [1], "sample outside"),
    (codes(2, 2), [psienc.INT64_MAX // 4], [1], "sample outside"),
], ids=["extra-code", "missing-code", "cut-code", "run-across-groups", "trailing-run-marker",
        "trailing-escape-marker", "zero-run", "zero-magnitude", "sample-below-1",
        "sample-past-bound"])
def test_vbyte_load_rejects_streams_that_break_the_structure(stream, s0, starts, message):
    D = BitSequence.from_positions(starts, 3 * len(starts))
    with pytest.raises(ValueError, match=message):
        vbyte_image(stream, s0, D, 1)


def test_vbyte_load_rejects_slack_between_blocks():
    # two whole codes inserted where a level-two block's codes begin: the
    # walks once read them as two gaps of 5, while access, which started
    # at the stored pointers, did not (the crafted sequence at t_psi 64
    # once gave 14 wrong values from range(1, n) so)
    sections, D = vbyte_sections()
    enc = psienc.from_sections(psienc.TAGS["vbyte-rle"], sections, D, 64)
    for at in vbyte_table(enc, "ptr1").tolist():
        with pytest.raises(ValueError, match="codes 759 steps, the groups hold 757"):
            vbyte_image(enc._stream[:at] + b"\x85\x85" + enc._stream[at:], [enc.access(1)], D, 64)


def test_vbyte_load_rejects_a_run_past_a_sample():
    # the crafted group's stream with its runs folded across the samples,
    # as written at a t_psi past the group's length (no sample inside the
    # group), loads there, and not at 64, where its first run of 700
    # steps would pass the samples 65, 129, ...
    psi, D = crafted_sequence()
    folded = psienc.encode(psi, D, codec="vbyte-rle", t_psi=1024)._stream
    assert folded != psienc.encode(psi, D, codec="vbyte-rle", t_psi=64)._stream
    assert vbyte_image(folded, psi[:1], D, 1024).range(1, len(psi)) == psi.tolist()
    with pytest.raises(ValueError, match="vbyte run crosses a block start"):
        vbyte_image(folded, psi[:1], D, 64)
    # groups 1..3 and 4..6 at t_psi 64, so only the group starts are
    # samples: 1, 2, 3 and 7, 8, 9 as two runs of 2, and a run of 3 from
    # position 2 that runs on into the next group
    D = BitSequence.from_positions([1, 4], 6)
    assert vbyte_image(codes(1, 2, 1, 2), [1, 7], D, 64).range(1, 6) == [1, 2, 3, 7, 8, 9]
    with pytest.raises(ValueError, match="vbyte run crosses a block start"):
        vbyte_image(codes(1, 3, 1, 1), [1, 7], D, 64)


def test_vbyte_blocks_decode_alone():
    # each block's codes, from its offset up to the next block's, give
    # exactly the values after its sample up to the next sample, or to
    # its group's end: a decoder that starts at a block's offset needs no
    # code past the block's
    for name, psi, D in access_many_inputs():
        for t in (1, 2, 3, 7, 64):
            enc = psienc.encode(psi, D, codec="vbyte-rle", t_psi=t)
            bpos, _, bptr = enc._columns()
            opens = set(np.frombuffer(enc._open, dtype=np.int64).tolist()) | {len(bpos) - 1}
            for b in range(len(bpos) - 1):
                p, v, pos = enc._sample(b)
                end = bpos[b + 1] - (b + 1 in opens)
                got = []
                while pos < bptr[b + 1]:
                    g, pos = psienc.vbyte_decode(enc._stream, pos)
                    if g == 1:
                        run, pos = psienc.vbyte_decode(enc._stream, pos)
                        got += range(v + 1, v + run + 1)
                        v += run
                        continue
                    if g == 0:
                        mag, pos = psienc.vbyte_decode(enc._stream, pos)
                        g = -mag
                    v += g
                    got.append(v)
                assert pos == bptr[b + 1] and got == psi[p:end].tolist(), (name, t, b)


def access_many_inputs():
    """(name, psi, D) for the batch-access tests: the crafted group (a
    run longer than t_psi, cut at samples, escaped descents, 1- to 3-byte
    codes), the long-code group, the search graphs (duplicates, both
    arities) and one more arity-3 graph."""
    yield ("crafted", *crafted_sequence())
    yield ("long", *long_code_sequence())
    for k, cs in enumerate(search_graphs()):
        yield (f"search-{k}", *psi_and_d(cs))
    rng = random.Random(733)
    rows = [(rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 12)) for _ in range(60)]
    yield ("arity-3", *psi_and_d(ContactSet(rows, arity=3, nu=9, tau=12)))


def position_lists(D, rng):
    n = len(D)
    starts = D.positions().tolist()
    ends = [l - 1 for l in starts[1:]] + [n]
    every = list(range(1, n + 1))
    return [[], [1], [n], [rng.randint(1, n)], starts, ends, starts + ends,
            every, every[::-1], [rng.randint(1, n) for _ in range(60)],
            [rng.choice(starts)] * 3 + [n] * 2]


@pytest.mark.parametrize("codec", ("plain",) + CODECS)
def test_access_many_matches_access(codec):
    rng = random.Random(f"access-many-{codec}")
    for name, psi, D in access_many_inputs():
        n = len(psi)
        if name == "crafted" and codec == "vbyte-rle":
            enc = psienc.encode(psi, D, codec=codec, t_psi=64)
            ends = np.flatnonzero(np.frombuffer(enc._stream, dtype=np.uint8) >= 0x80)
            # a sample that ends a run which would go on without it
            gap = np.diff(psi, prepend=0)
            assert any(gap[p - 2] == gap[p - 1] == gap[p] == 1 for p in sample_positions(enc))
            assert set(np.diff(ends, prepend=-1).tolist()) == {1, 2, 3}
        for t in (1, 2, 3, 7, 64, 256):
            enc = psienc.encode(psi, D, codec=codec, t_psi=t)
            for ps in position_lists(D, rng):
                want = psi[np.array(ps, dtype=np.int64) - 1].tolist()
                if len(ps) <= 60:
                    assert [enc.access(p) for p in ps] == want
                for arg in (ps, np.array(ps, dtype=np.int64)):
                    got = enc.access_many(arg)
                    assert got.dtype == np.int64
                    assert got.tolist() == want, (name, t, ps)
            for bad in ([0], [n + 1], [1, n + 1, 2], [-5], [2**70], [-2**70],
                        np.array([1, 0]), np.array([n + 1], dtype=np.uint64)):
                with pytest.raises(ValueError, match="outside"):
                    enc.access_many(bad)


def one_run_image(n, t_psi, *runs):
    """A loaded vbyte-rle image of one group 1, 2, ..., n, stored as the
    sample 1 and a <1, run> pair for each of the runs."""
    return vbyte_image(codes(*[x for run in runs for x in (1, run)]), [1],
                       BitSequence.from_positions([1], n), t_psi)


def test_forged_run_lengths_allocate_nothing_in_proportion():
    # a <1, 2**40> pair: the load, which sums every run's steps, rejects
    # it without allocating in proportion to the run
    n, big = 300, 2**40
    enc = one_run_image(n, 64, 64, 64, 64, 64, 43)  # also numpy's first-call set-up
    assert enc.access_many(np.arange(1, n + 1)).tolist() == list(range(1, n + 1))
    assert enc.access_many(list(range(n, 0, -1))).tolist() == list(range(n, 0, -1))
    assert enc.range(1, n) == list(range(1, n + 1))
    # the same values as one run, across the samples 65, 129, 193 and 257
    with pytest.raises(ValueError, match="vbyte run crosses a block start"):
        one_run_image(n, 64, n - 1)
    assert one_run_image(n, n, n - 1).range(1, n) == enc.range(1, n)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"codes {big} steps, the groups hold {n - 1}"):
            one_run_image(n, 64, big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_access_many_rejects_codes_that_could_wrap_int64():
    # one group 1, 2: the gap after the sample is a ten-byte code (2**63,
    # so psi(2) would be 2**63 + 1), or a nine-byte code above what the
    # stream's codes may sum to. A load cuts every code with the batch
    # decoder's checks, so neither image loads and no decoder sums them;
    # the largest code allowed loads and decodes
    D = BitSequence.from_positions([1], 2)
    bound = psienc.INT64_MAX // 11
    for stream, message in ((bytes(9) + b"\x81", "wider than 9 bytes"),
                            (psienc.vbyte_codes([bound + 1])[0], "above")):
        assert len(stream) == 9 or message.startswith("wider")
        with pytest.raises(ValueError, match=f"vbyte code {message}"):
            vbyte_image(stream, [1], D, 64)
    enc = vbyte_image(psienc.vbyte_codes([bound])[0], [1], D, 64)
    assert enc._bound == bound
    assert enc.access_many([2, 1]).tolist() == [1 + bound, 1] == enc.range(1, 2)[::-1]


def test_access_many_reads_a_shortened_block_again_in_full(monkeypatch):
    # one 64-position group: 31 three-byte gaps, then a +1 run of 32 in
    # one two-byte pair, 95 bytes in all. For position 40 the batch
    # decoder first reads the block's share for 40 of 64 positions plus
    # a margin of two of the widest codes, 59 + 18 = 77 bytes: 25 whole
    # codes, which reach position 26, so the block falls short and is
    # read again in full. Asking for the last position reads it in full
    # at once, and position 2 needs only its share.
    psi = np.cumsum([1] + [20000] * 31 + [1] * 32)
    D = BitSequence.from_positions([1], len(psi))
    enc = psienc.encode(psi, D, codec="vbyte-rle", t_psi=64)
    assert len(enc._stream) == 95 and enc._wmax == 9
    want = enc.values()
    assert want.tolist() == psi.tolist()
    reads = []
    cut = psienc.VbyteRlePsi._codes
    monkeypatch.setattr(psienc.VbyteRlePsi, "_codes",
                        lambda self, *a: reads.append(len(a[0])) or cut(self, *a))
    for ps, lens in (([40], [77, 95]), ([32], [65, 95]), ([2, 40], [77, 95]),
                     ([2], [20]), ([40, 64], [95]), (list(range(1, 65)), [95])):
        reads.clear()
        assert enc.access_many(ps).tolist() == want[np.array(ps) - 1].tolist(), ps
        assert reads == lens, ps


def test_huffman_batch_values_past_int64_are_a_value_error():
    # one contact at arity 3, so Psi is 2, 3, 1, every position a group
    # start and a sample. The sample 2**64 - 1 fits the u64 sample table,
    # not an int64 array: values() reads it as -1, which the index's
    # proof of Psi turns away
    idx = build_index(ContactSet([(1, 2, 1)], arity=3, nu=2, tau=1))
    huff = psienc.HuffRlePsi(bytes([1]), [2, 3, 2**64 - 1], [0, 0, 0], b"", 0, idx.D, 64)
    assert huff.access(3) == 2**64 - 1
    assert huff.values().tolist() == [2, 3, -1]
    with pytest.raises(ValueError, match="outside 1..3"):
        TgcsaIndex(idx.am, idx.D, huff, idx.n, idx.semantics)


def monotone_groups(cs, psi, D):
    """The groups of sections 1..arity-1, each with the right edges of
    the next section's groups: the z for which psi > z is monotone on
    the group, as the queries' end cuts are."""
    n = len(cs)
    bounds = D.positions().tolist() + [len(psi) + 1]
    out = []
    for l, nxt in zip(bounds, bounds[1:]):
        if l <= (cs.arity - 1) * n:
            section = (l - 1) // n + 1
            zs = [b - 1 for b in bounds if section * n < b <= (section + 1) * n + 1]
            out.append((l, nxt - 1, zs))
    return out


@pytest.mark.parametrize("codec", ("plain",) + CODECS)
def test_exceeds_and_lead_match_brute_force(codec):
    # exceeds(i, z) at every position of every group of sections
    # 1..arity-1 and every right edge z of the next section's groups;
    # lead(lo, hi, y) over sub-ranges of each group and every group start
    # y of the next section (and the position past it). lead's walk
    # starts at the later of lo and the sample before the first value at
    # least y, and returns every value from there up to that one.
    rng = random.Random(f"lead-{codec}")
    for cs in search_graphs():
        psi, D = psi_and_d(cs)
        want = psi.tolist()
        for t in (1, 2, 3, 16, 64):
            enc = psienc.encode(psi, D, codec=codec, t_psi=t)
            starts = psienc._blocks(D, t)[1].tolist()
            for l, r, zs in monotone_groups(cs, psi, D):
                for i in range(l, r + 1):
                    assert [enc.exceeds(i, z) for z in zs] == [want[i - 1] > z for z in zs]
                spans = [(lo, hi) for lo in range(l, r + 1) for hi in range(lo, r + 1)]
                if len(spans) > 30:
                    spans = [(l, r)] + rng.sample(spans, 30)
                for y in [z + 1 for z in zs]:
                    for lo, hi in spans:
                        first, vals = enc.lead(lo, hi, y)
                        cut = brute_search(want, lo, hi, y)
                        if codec == "plain" or cut == lo:
                            assert first == lo
                        else:
                            assert first == max(lo, starts[bisect.bisect_right(starts, cut - 1) - 1])
                        assert vals == want[first - 1:cut - 1], (t, lo, hi, y)
                    assert enc.lead(r + 1, r, y) == (r + 1, [])


@pytest.mark.parametrize("codec", CODECS)
def test_exceeds_decodes_only_what_the_samples_leave_open(codec, monkeypatch):
    # a block whose sample is past z, or whose next sample in the same
    # group is at or below z, decodes nothing; any other block takes one
    # walk from its sample, and no access. Samples exactly at z, the next
    # sample exactly at z, and a next group whose first sample is at or
    # below z while psi(i) is past it all occur.
    cls = type(psienc.encode(*g5_psi_d(), codec=codec, t_psi=4))
    walks, hops = [], []
    walk, access = cls._walk, cls.access
    monkeypatch.setattr(cls, "_walk", lambda self, *a: walks.append(a) or walk(self, *a))
    monkeypatch.setattr(cls, "access", lambda self, i: hops.append(i) or access(self, i))
    seen = Counter()
    for cs in search_graphs():
        psi, D = psi_and_d(cs)
        want = psi.tolist()
        for t in (1, 2, 3, 16, 64):
            enc = psienc.encode(psi, D, codec=codec, t_psi=t)
            opens, starts = psienc._blocks(D, t)
            opens, starts = opens.tolist() + [True], starts.tolist()
            for l, r, zs in monotone_groups(cs, psi, D):
                for i in range(l, r + 1):
                    b = bisect.bisect_right(starts, i) - 1
                    here = want[starts[b] - 1]
                    nxt = want[starts[b + 1] - 1] if b + 1 < len(starts) else None
                    for z in zs:
                        walks.clear()
                        hops.clear()
                        assert enc.exceeds(i, z) == (want[i - 1] > z)
                        settled = here > z or (not opens[b + 1] and nxt <= z)
                        assert hops == [] and len(walks) == (not settled), (t, i, z)
                        seen["sample at z"] += here == z
                        seen["next sample in the group at z"] += not opens[b + 1] and nxt == z
                        seen["next group's sample at or below z"] += (
                            opens[b + 1] and nxt is not None and nxt <= z < want[i - 1])
                        seen["walked"] += not settled
    assert len(seen) == 4 and min(seen.values()) > 10, seen


@pytest.mark.parametrize("codec", ("plain",) + CODECS)
def test_exceeds_and_lead_reject_positions_outside_psi(codec):
    psi, D = g5_psi_d()
    enc = psienc.encode(psi, D, codec=codec, t_psi=4)
    for call in (lambda: enc.exceeds(0, 15), lambda: enc.exceeds(21, 15),
                 lambda: enc.exceeds(-2**70, 15), lambda: enc.exceeds(2**70, 15),
                 lambda: enc.lead(0, 2, 7), lambda: enc.lead(20, 21, 1)):
        with pytest.raises(ValueError, match="outside"):
            call()
    if codec != "plain":
        with pytest.raises(ValueError, match="crosses a group end"):
            enc.lead(1, 3, 8)
