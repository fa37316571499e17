"""Index image format: canonical bytes and lossless reload."""

import hashlib
import random
import struct

import pytest

from tgcsa.baseline import EdgeLogIndex
from tgcsa.corpus import ContactSet
from tgcsa.indexfile import (_COUNT, _HEAD, _SHAPE, _emit, deserialize_index,
                             load_index, save_index, serialize_index)
from tgcsa.query import TimeSemantics
from tgcsa.sacsa import build_index, verify_core
from tgcsa.synth import GenSpec, generate
from conftest import G5_CONTACTS, assert_same_answers, random_contactset

ALL_CODECS = ("plain", "vbyte-rle", "huff-rle-opt")


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


def test_image_without_bitmap_sections_is_rejected():
    head = serialize_index(build_index(ContactSet(G5_CONTACTS)))[:_HEAD.size + _SHAPE.size]
    with pytest.raises(ValueError, match="two bitmap sections"):
        deserialize_index(_emit(head, []))


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
    ("vbyte-rle", -1, 19, "sample bitmap"),          # nbits of D1, D has 20
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


def test_retired_codec_tag_is_rejected():
    # the retired tag-2 layout: vbyte-rle's sections without off0 and off1
    blob = serialize_index(build_index(ContactSet(G5_CONTACTS), codec="vbyte-rle", t_psi=1))
    sections = [blob[a:a + n] for a, n in section_spans(blob)]
    del sections[9], sections[5]
    head = bytearray(blob[:_HEAD.size + _SHAPE.size])
    head[7] = 2   # the codec byte
    with pytest.raises(ValueError, match="unknown psi codec tag 2"):
        deserialize_index(_emit(bytes(head), sections))


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


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_group_bitmap_must_open_with_a_mark(codec):
    # G5's D reads 1011...; moving its first mark to position 2 keeps the
    # length and the mark count, but leaves position 1 outside every group
    blob = bytearray(serialize_index(build_index(ContactSet(G5_CONTACTS), codec=codec,
                                                 t_psi=16)))
    start, _ = section_spans(blob)[1]
    assert blob[start + 8] & 0b11 == 0b01
    blob[start + 8] ^= 0b11
    with pytest.raises(ValueError, match="does not open with a group mark"):
        deserialize_index(bytes(blob))


@pytest.mark.parametrize("kind", ALL_CODECS + ("edgelog",))
def test_every_byte_flip_is_rejected_or_canonical(kind):
    # reserved bytes, padding, bits past a bitmap's end and header fields
    # the index kind does not use have one valid value each, so a load
    # that accepts a flipped byte must reproduce the flipped image
    cs = ContactSet(G5_CONTACTS)
    blob = serialize_index(EdgeLogIndex.build(cs) if kind == "edgelog"
                           else build_index(cs, codec=kind))
    for at in range(len(blob)):
        for mask in (0x01, 0x80, 0xFF):
            bad = bytearray(blob)
            bad[at] ^= mask
            try:
                back = deserialize_index(bytes(bad))
            except ValueError:
                continue
            assert serialize_index(back) == bad, (at, mask)


def i64(*values):
    return struct.pack(f"<{len(values)}q", *values)


def byte_at(stream, at, value):
    return stream[:at] + bytes([value]) + stream[at + 1:]


# G5's edge log: sections adj, adj_off, edge_base, times, time_off, rev,
# rev_off; source 1 has targets 3 and 4, every code is one byte
@pytest.mark.parametrize("forge, message", [
    (lambda s: s[:6], "7 sections"),
    (lambda s: {1: i64(0, 2, 3, 3, 5, 5, 5)}, "adjacency table has 7 entries"),
    (lambda s: {2: i64(0, 2, 1, 3, 5, 5)}, "edge bases"),
    (lambda s: {4: i64(0, 2, 4, 6, 8)}, "time table has 5 entries"),
    (lambda s: {1: i64(0, 2, 3, 3, 5, 4)}, "adjacency offsets"),
    (lambda s: {4: i64(1, 2, 4, 6, 8, 10)}, "time offsets"),
    (lambda s: {6: i64(0, 1, 1, 3, 2, 5)}, "reverse offsets"),
    # these load, and the first query that reads the bad list raises
    (lambda s: {4: i64(0, 3, 4, 6, 8, 10)}, "odd length"),
    (lambda s: {2: i64(0, 1, 3, 3, 5, 5)}, "edge count"),
    (lambda s: {0: byte_at(s[0], 0, 0x89)}, "outside 1..5"),
    (lambda s: {5: byte_at(s[5], 0, 0x80)}, "outside 1..5"),
    (lambda s: {3: byte_at(s[3], 1, 0x07)}, "past the end of its list"),
    (lambda s: {3: byte_at(s[3], 9, 0x02)}, "past the end of its list"),
], ids=["count", "adj-len", "base-order", "time-len", "adj-end", "time-start",
        "rev-order", "odd", "edge-count", "target", "source", "overrun", "stream-end"])
def test_edgelog_rejects_forged_sections(forge, message):
    blob = serialize_index(EdgeLogIndex.build(ContactSet(G5_CONTACTS)))
    sections = [blob[a:a + n] for a, n in section_spans(blob)]
    forged = forge(sections)
    if isinstance(forged, dict):
        forged = [forged.get(i, b) for i, b in enumerate(sections)]
    sem = TimeSemantics.instant(6)
    with pytest.raises(ValueError, match=message):
        idx = deserialize_index(_emit(blob[:_HEAD.size + _SHAPE.size], forged))
        for x in range(1, 6):
            idx.direct_neighbors(x, sem)
            idx.reverse_neighbors(x, sem)


def small_ba(overlap="allow"):
    """A 555-contact BA graph with escapes, long codes and multi-contact
    edges that G5 lacks."""
    return generate(GenSpec(nu=40, m=3, lifetime=40, dist="uniform", dist_param=5,
                            overlap=overlap, seed=2))


def query_corrupted_images(blob, trials, seed):
    """Load and query `trials` 1-3-byte corruptions of a small_ba image,
    drawn from random.Random(seed). Each corruption must answer or
    raise ValueError. Wrong answers stay possible: the streams and
    samples carry no checksum."""
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
    blob = serialize_index(build_index(small_ba(), codec="huff-rle-opt", t_psi=16))
    query_corrupted_images(blob, 300, "corrupt-huff-queries")


@pytest.mark.parametrize("codec", ("plain", "vbyte-rle"))
def test_corrupted_image_queries_raise_only_value_error(codec):
    blob = serialize_index(build_index(small_ba(), codec=codec, t_psi=16))
    query_corrupted_images(blob, 400, f"corrupt-queries-{codec}")


def test_corrupted_edgelog_queries_raise_only_value_error():
    blob = serialize_index(EdgeLogIndex.build(small_ba(overlap="forbid")))
    query_corrupted_images(blob, 600, "corrupt-edgelog")


# sha256 of serialize_index(build_index(graph, codec, t_psi)); plain
# ignores t_psi. A change to any of these is a change of image format.
IMAGE_DIGESTS = {
    ("g5", "plain"): "297955470a4a3304a1bae502f87462ae3395ac3002141e67dea7edf93c42d246",
    ("g5", "vbyte-rle", 1): "c61337d41b8269bc6eb3e2bc35724ee29e96926858c6e017049d333a58c0b41c",
    ("g5", "vbyte-rle", 16): "a32cc9dd4e4412f012324b9bfc34fe175188cc6d49f466ed3d23f9c71a02cccf",
    ("g5", "vbyte-rle", 64): "783105eadd2c36f339826232b5a674ea9fe5dac13d9f75bf88187108e2f5c8c9",
    ("g5", "huff-rle-opt", 1): "152e6a593f1a4e82683745dba8b19bfd7d9cd3f99410f977c5fe6c3d17db061f",
    ("g5", "huff-rle-opt", 16): "df375769076e9d3ccde04574d891b29e24f6df9c0ad3e891f380825d014714ee",
    ("g5", "huff-rle-opt", 64): "e75236b13102cb758b8281f1f07e59e2657576a91a9c911c55f24dd02577b746",
    ("ba", "plain"): "1b8742a3e79279df913944d5508957e64a7eff5da126caf9a3ee60df9dc85df1",
    ("ba", "vbyte-rle", 1): "0744a94571b4415e7f3c7e3b4bdc57115d62ecd8d62fe4b1698f47bb4d65ad45",
    ("ba", "vbyte-rle", 16): "4be29b614dd17ffd0a3442cc340ad7bd6a33f14438595afec49e7f152c5d3421",
    ("ba", "vbyte-rle", 64): "7d758fcae0add67164c0b639fdcf11b2c027ffc94833874eccdec3442875e4e1",
    ("ba", "huff-rle-opt", 1): "06718e4a409df6154978ab35533b9ab7a45ad81d996cf24edf358a95de855973",
    ("ba", "huff-rle-opt", 16): "9e57d09115e9d6db48cc63a66d3282b93f83c0bc04d3920d39d32df0b2dd6d0d",
    ("ba", "huff-rle-opt", 64): "5a9143d16e67a9223116011d4e41f374cc0f21363f870f032b4c22cea49374d9",
}


@pytest.mark.parametrize("graph", ("g5", "ba"))
@pytest.mark.parametrize("codec", ("plain", "vbyte-rle", "huff-rle-opt"))
def test_image_bytes_are_pinned(graph, codec):
    cs = ContactSet(G5_CONTACTS) if graph == "g5" else small_ba()
    for t in (1, 16, 64):
        blob = serialize_index(build_index(cs, codec=codec, t_psi=t))
        key = (graph, codec) if codec == "plain" else (graph, codec, t)
        assert hashlib.sha256(blob).hexdigest() == IMAGE_DIGESTS[key], t


@pytest.mark.parametrize("graph, digest", [
    ("g5", "da9ecf5dc25fcaf2699fe11e8f3d67d4f670e6169b035e5a439d1d5e40d0668a"),
    ("ba", "9f61bf24ae64eb2e558c1cd88933be47a0f5bba835730cd3e3b92e55e8816b06"),
])
def test_edgelog_image_bytes_are_pinned(graph, digest):
    cs = ContactSet(G5_CONTACTS) if graph == "g5" else small_ba(overlap="forbid")
    blob = serialize_index(EdgeLogIndex.build(cs))
    assert hashlib.sha256(blob).hexdigest() == digest


def test_arity3_image_bytes_are_pinned():
    rows = [(1, 2, 2), (2, 3, 4), (1, 3, 1), (3, 1, 5), (2, 1, 2), (1, 2, 5)]
    cs = ContactSet(rows, arity=3, tau=6, semantics="incremental")
    blob = serialize_index(build_index(cs, codec="vbyte-rle", t_psi=2))
    assert hashlib.sha256(blob).hexdigest() == \
        "506bc18e25d8c78afcc6ef01376a4c78ec0e8490f37fbb2ed783f0308870a65a"
