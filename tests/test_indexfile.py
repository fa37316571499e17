"""Index image format: canonical bytes and lossless reload."""

import random
import struct

import pytest

from tgcsa.baseline import EdgeLogIndex
from tgcsa.corpus import ContactSet
from tgcsa.indexfile import (_COUNT, _HEAD, _SHAPE, deserialize_index,
                             load_index, save_index, serialize_index)
from tgcsa.query import TimeSemantics
from tgcsa.sacsa import build_index, verify_core
from tgcsa.synth import GenSpec, generate
from conftest import G5_CONTACTS, assert_same_answers, random_contactset

ALL_CODECS = ("plain", "vbyte-rle", "vbyte-rle-select", "huff-rle-opt")


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_roundtrip_is_byte_identical(codec):
    idx = build_index(ContactSet(G5_CONTACTS), codec=codec, t_psi=8)
    blob = serialize_index(idx)
    assert blob[:4] == b"TGX1"
    back = deserialize_index(blob)
    assert serialize_index(back) == blob
    assert back.codec == codec
    assert verify_core(back, ContactSet(G5_CONTACTS)) == []


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_reloaded_index_answers_identically(codec):
    rng = random.Random(hash(codec) & 0xFFFF)
    for _ in range(4):
        cs = random_contactset(seed=rng.randrange(10**9), duplicates=True)
        idx = build_index(cs, codec=codec, t_psi=16)
        back = deserialize_index(serialize_index(idx))
        assert back.n == idx.n and back.sigma == idx.sigma
        assert_same_answers(idx, back, rng, instants=4, intervals=2)


def test_edgelog_roundtrip():
    rng = random.Random(902)
    cs = random_contactset(seed=17, overlap=False)
    el = EdgeLogIndex.build(cs)
    blob = serialize_index(el)
    back = deserialize_index(blob)
    assert back.kind == "edgelog"
    assert serialize_index(back) == blob
    assert_same_answers(el, back, rng)


def test_arity3_semantics_survive_reload():
    rows = [(1, 2, 2), (2, 3, 4)]
    for semantics in ("incremental", "point"):
        idx = build_index(ContactSet(rows, arity=3, tau=6,
                                     semantics=semantics))
        back = deserialize_index(serialize_index(idx))
        assert back.arity == 3
        assert back.semantics == semantics
        assert back.tau == 6


def test_save_and_load_files(tmp_path):
    idx = build_index(ContactSet(G5_CONTACTS), codec="vbyte-rle")
    path = tmp_path / "g5.tgx"
    written = save_index(idx, path)
    assert written == path.stat().st_size
    back = load_index(path)
    assert serialize_index(back) == serialize_index(idx)


def test_bad_magic_and_version():
    idx = build_index(ContactSet(G5_CONTACTS))
    blob = serialize_index(idx)
    with pytest.raises(ValueError, match="not an index image"):
        deserialize_index(b"NOPE" + blob[4:])
    bumped = blob[:4] + bytes([blob[4] + 1]) + blob[5:]
    with pytest.raises(ValueError, match="version"):
        deserialize_index(bumped)


def test_truncated_image_is_rejected():
    blob = serialize_index(build_index(ContactSet(G5_CONTACTS)))
    for cut in (3, 10, len(blob) // 2, len(blob) - 1):
        with pytest.raises(ValueError):
            deserialize_index(blob[:cut])


def test_sections_are_padded_to_words():
    blob = serialize_index(build_index(ContactSet(G5_CONTACTS)))
    assert len(blob) % 8 == 0


def test_empty_index_roundtrips():
    idx = build_index(ContactSet([], nu=3, tau=4))
    back = deserialize_index(serialize_index(idx))
    assert back.n == 0
    assert back.nu == 3 and back.tau == 4


def section_spans(blob):
    """(offset, length) of each section payload in an index image."""
    pos = _HEAD.size + _SHAPE.size
    (count, _) = _COUNT.unpack_from(blob, pos)
    pos += _COUNT.size
    spans = []
    for _ in range(count):
        (length,) = struct.unpack_from("<Q", blob, pos)
        spans.append((pos + 8, length))
        pos += 8 + length + (-length) % 8
    return spans


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_corrupted_image_loads_or_raises_value_error(codec):
    blob = serialize_index(build_index(ContactSet(G5_CONTACTS), codec=codec, t_psi=16))
    rng = random.Random(f"corrupt-{codec}")
    for _ in range(300):
        bad = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            bad[rng.randrange(len(bad))] = rng.randrange(256)
        try:
            deserialize_index(bytes(bad))
        except ValueError:
            pass


@pytest.mark.parametrize("codec, section, value, message", [
    ("plain", 2, 1 << 40, "fixed-width header"),     # n of the packed Psi
    ("vbyte-rle-select", -1, 19, "sample bitmap"),   # nbits of D1, D has 20
    ("plain", 1, 19, "group bitmap"),                 # nbits of D, arity * n is 20
], ids=["plain-n", "D1-nbits", "D-nbits"])
def test_forged_lengths_are_rejected(codec, section, value, message):
    blob = bytearray(serialize_index(build_index(ContactSet(G5_CONTACTS), codec=codec)))
    start, _ = section_spans(blob)[section]
    struct.pack_into("<Q", blob, start, value)
    with pytest.raises(ValueError, match=message):
        deserialize_index(bytes(blob))


def test_plain_values_past_the_positions_are_rejected():
    blob = bytearray(serialize_index(build_index(ContactSet(G5_CONTACTS), codec="plain")))
    start, _ = section_spans(blob)[2]
    blob[start + 16] |= 0x1F   # the first 5-bit value now reads 32, past n = 20
    with pytest.raises(ValueError, match="past 20"):
        deserialize_index(bytes(blob))


def test_vbyte_offset_tables_must_match_their_bitmaps():
    # t_psi 1 puts a sample at every non-opening position, so off1 is not empty
    blob = serialize_index(build_index(ContactSet(G5_CONTACTS), codec="vbyte-rle", t_psi=1))
    spans = section_spans(blob)
    assert len(spans) == 11   # B, D, stream, s0, ptr0, off0, s1, ptr1, run1, off1, D1
    for table in (5, 9):
        start, length = spans[table]
        assert length > 0
        for at in range(start, start + length):
            bad = bytearray(blob)
            bad[at] ^= 0xFF
            with pytest.raises(ValueError, match="offset tables"):
                deserialize_index(bytes(bad))


def query_corrupted_ba_images(codec, trials, seed):
    """Load and query `trials` 1-3-byte corruptions of a BA image, drawn
    from random.Random(seed). The image holds escapes, long codes and
    multi-contact edges that G5 lacks. Each corruption must answer or
    raise ValueError. Wrong answers stay possible: the stream and samples
    carry no checksum."""
    cs = generate(GenSpec(nu=40, m=3, lifetime=40, dist="uniform", dist_param=5, seed=2))
    blob = serialize_index(build_index(cs, codec=codec, t_psi=16))
    rng = random.Random(seed)
    for _ in range(trials):
        bad = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            bad[rng.randrange(len(bad))] = rng.randrange(256)
        try:
            idx = deserialize_index(bytes(bad))
            for t in (5, 20, 35):
                idx.snapshot(TimeSemantics.instant(t))
            for u in (1, 7, 20):
                sem = TimeSemantics.instant(15)
                idx.direct_neighbors(u, sem)
                idx.reverse_neighbors(u, sem)
                idx.active_edge(u, 1, sem)
                idx.active_edge(u, 2, TimeSemantics.weak(3, 30))
        except ValueError:
            pass


def test_corrupted_huffman_image_answers_or_raises_value_error():
    query_corrupted_ba_images("huff-rle-opt", 300, "corrupt-huff-queries")


@pytest.mark.parametrize("codec", ("plain", "vbyte-rle", "vbyte-rle-select"))
def test_corrupted_image_queries_raise_only_value_error(codec):
    query_corrupted_ba_images(codec, 400, f"corrupt-queries-{codec}")
