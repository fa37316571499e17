"""Index image format: canonical bytes and lossless reload."""

import hashlib
import random
import struct

import pytest

from tgcsa import psienc
from tgcsa.baseline import EdgeLogIndex
from tgcsa.bitseq import BitSequence
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
    ("vbyte-rle", -1, 19, "reserved sections"),      # nbits of D1, a reserved slot
    ("plain", 1, 19, "group bitmap"),                 # nbits of D, arity * n is 20
    ("plain", 2, None, "fixed-width section is shorter than its header"),  # n alone
], ids=["plain-n", "D1-nbits", "D-nbits", "plain-header"])
def test_forged_lengths_are_rejected(codec, section, value, message):
    blob = serialize_index(build_index(ContactSet(G5_CONTACTS), codec=codec))
    sections = [bytearray(blob[a:a + n]) for a, n in section_spans(blob)]
    if value is None:
        del sections[section][8:]                       # the section ends after 8 bytes
    else:
        sections[section][:8] = struct.pack("<Q", value)   # an empty section grows to 8 bytes
    with pytest.raises(ValueError, match=message):
        deserialize_index(_emit(blob[:_HEAD.size + _SHAPE.size], sections))


def test_plain_values_past_the_positions_are_rejected():
    blob = bytearray(serialize_index(build_index(ContactSet(G5_CONTACTS), codec="plain")))
    start, _ = section_spans(blob)[2]
    blob[start + 16] |= 0x1F   # the first 5-bit value now reads 32, past 4n = 20
    with pytest.raises(ValueError, match="outside 1..20"):
        deserialize_index(bytes(blob))


def test_latest_end_outside_the_end_section_is_rejected():
    # swap the last Psi value of a start-time group with that of position
    # 4n, which points into section 1: Psi stays a permutation that the
    # plain codec's own checks accept, but that group's latest end now
    # lies outside the end section, which the proof of Psi at load finds
    # as a step that does not advance one section
    idx = build_index(small_ba(), codec="plain")
    blob = serialize_index(idx)
    n, a = idx.n, idx.start_group0
    last = idx.D.select1(a + 3) - 1            # the second start group's last position
    vals = idx.psi.access_many(list(range(1, 4 * n + 1)))
    vals[[last - 1, 4 * n - 1]] = vals[[4 * n - 1, last - 1]]
    assert 1 <= vals[last - 1] <= n
    sections = [blob[s:s + k] for s, k in section_spans(blob)]
    sections[2] = psienc.PlainPsi(vals).to_sections()[0]
    with pytest.raises(ValueError, match="or its next section"):
        deserialize_index(_emit(blob[:_HEAD.size + _SHAPE.size], sections))


def test_retired_codec_tag_is_rejected():
    # the retired tag-2 layout: vbyte-rle's sections without the off0 and
    # off1 slots
    blob = serialize_index(build_index(ContactSet(G5_CONTACTS), codec="vbyte-rle", t_psi=1))
    sections = [blob[a:a + n] for a, n in section_spans(blob)]
    del sections[9], sections[5]
    head = bytearray(blob[:_HEAD.size + _SHAPE.size])
    head[7] = 2   # the codec byte
    with pytest.raises(ValueError, match="unknown psi codec tag 2"):
        deserialize_index(_emit(bytes(head), sections))


def vbyte_sections(t_psi=1):
    blob = serialize_index(build_index(ContactSet(G5_CONTACTS), codec="vbyte-rle", t_psi=t_psi))
    return blob[:_HEAD.size + _SHAPE.size], [blob[a:a + n] for a, n in section_spans(blob)]


def test_vbyte_reserved_sections_must_be_empty():
    # the eight slots after s0 and the stream stay, empty, because
    # perfbench/space.py maps an image's sections to components by position
    head, sections = vbyte_sections()
    assert len(sections) == 11   # B, D, s0 then the stream, then 8 reserved
    assert sections[2] and sections[3:] == [b""] * 8
    # D, t_psi and the stream give every table that images of older
    # layouts held in these slots, so a load takes none of them, not even
    # one that matches: ptr0, off0 (the group starts), s1, ptr1, run1 and
    # off1 as u64 words, and D1, the bitmap of the samples (at t_psi 1,
    # every position that opens no group)
    psi = deserialize_index(_emit(head, sections)).psi
    bpos, val, ptr = (a.tolist() for a in psi._columns())
    groups = list(psi._open)                       # the blocks that open a group
    inner = [b for b in range(len(val)) if b not in groups]
    old = {4: [ptr[b] for b in groups], 5: [bpos[b] for b in groups],
           6: [val[b] for b in inner], 7: [ptr[b] for b in inner],
           8: [0] * len(inner), 9: [bpos[b] for b in inner]}
    assert old[5] == psi._D.positions().tolist() and len(inner) > 1
    forged_parts = [(k, b"\x00") for k in range(3, 11)]
    forged_parts += [(slot, i64(*table)) for slot, table in old.items()]
    forged_parts.append((10, BitSequence.from_positions(old[9], len(psi)).serialize()))
    for slot, part in forged_parts:
        forged = list(sections)
        forged[slot] = part
        with pytest.raises(ValueError, match="reserved sections 2 to 9 must be empty"):
            deserialize_index(_emit(head, forged))


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


def assert_psi_proven(idx):
    """An index's Psi, read with range, holds every value in 1..N, steps
    one section on at every position, and closes into cycles of arity
    steps: a check of the load's proof that shares none of its code."""
    n, arity = idx.n, idx.arity
    vals = idx.psi.range(1, arity * n)
    assert all(1 <= v <= arity * n for v in vals)
    assert all((v - 1) // n == (p // n + 1) % arity for p, v in enumerate(vals))
    for p in range(1, n + 1):
        q = p
        for _ in range(arity):
            q = vals[q - 1]
        assert q == p


def query_corrupted_images(blob, trials, seed):
    """Load and query `trials` 1-3-byte corruptions of a small_ba image,
    drawn from random.Random(seed). Each corruption must load or raise
    ValueError; a compressed index that loads must hold a proven Psi,
    and every query on it must answer or raise ValueError. Wrong answers
    stay possible: the streams and samples carry no checksum."""
    rng = random.Random(seed)
    for _ in range(trials):
        bad = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            bad[rng.randrange(len(bad))] = rng.randrange(256)
        try:
            idx = deserialize_index(bytes(bad))
        except ValueError:
            continue
        if idx.kind == "tgcsa":
            assert_psi_proven(idx)
        try:
            for t in (5, 20, 35):
                idx.snapshot(TimeSemantics.instant(t))
            for u in (1, 7, 20):
                sem = TimeSemantics.instant(15)
                idx.direct_neighbors(u, sem)
                idx.reverse_neighbors(u, sem)
                idx.active_edge(u, 1, sem)
                idx.active_edge(u, 2, TimeSemantics.weak(3, 30))
            for t in (5, 20, 35):
                idx.activated_edges(t)
                idx.deactivated_edges(t)
                idx.snapshot(TimeSemantics.instant(t), contacts=True)
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


@pytest.mark.parametrize("at, byte", [(433, 0), (575, 0), (2763, 255)])
def test_corrupted_vbyte_sample_is_a_value_error_not_an_overflow(at, byte):
    # single-byte edits of the small-BA vbyte image (t_psi 16) that set a
    # stored group sample to 0, or a stream code that a level-two sample
    # is derived from; a structural check once raised OverflowError on
    # the value an edited sample decoded to, and the load now rejects
    # each sample before Psi is decoded
    bad = bytearray(serialize_index(build_index(small_ba(), codec="vbyte-rle", t_psi=16)))
    bad[at] = byte
    with pytest.raises(ValueError, match="sample outside"):
        deserialize_index(bytes(bad))


# sha256 of serialize_index(build_index(graph, codec, t_psi)); plain
# ignores t_psi. A change to any of these is a change of image format.
IMAGE_DIGESTS = {
    ("g5", "plain"): "297955470a4a3304a1bae502f87462ae3395ac3002141e67dea7edf93c42d246",
    ("g5", "vbyte-rle", 1): "1a0b2de812cfee455e0fc6d31bc865f4f70202fdd67774cd438c3fa95fca254b",
    ("g5", "vbyte-rle", 16): "79823836ed495ff5f905328fb242065a9cf900606159e1746ae924e016f95a61",
    ("g5", "vbyte-rle", 64): "9f61892bd52c8224ce1ff78009e418a6872a05da677f44e56e8492e777d74384",
    ("g5", "huff-rle-opt", 1): "0fac4fa0ea9e2ab45c5077af06335a8c0f049a6623b2233bcc0823f53a7efde5",
    ("g5", "huff-rle-opt", 16): "ef480eb2998d21e59687aabe9bc2e9462b6bf70588c859db7fea6bc1e30f80fe",
    ("g5", "huff-rle-opt", 64): "161918d3414ebb694a2baf3c9c03e2dd012681173d7f41fe747290b5ac888a9a",
    ("ba", "plain"): "1b8742a3e79279df913944d5508957e64a7eff5da126caf9a3ee60df9dc85df1",
    ("ba", "vbyte-rle", 1): "39c1ecc423163685ad2d81d9aea3962f2b4aa73448e7beec021c2f84a0e29b10",
    ("ba", "vbyte-rle", 16): "c4328d606510b55dd802b862a5815eba3b3649a1fe5b8a597069ba54df55ced8",
    ("ba", "vbyte-rle", 64): "4bc336ca91bc5d3bf3dfa04a07b0a7f617c4676d79e3d730e9d9ff8277e1ee05",
    ("ba", "huff-rle-opt", 1): "cc2fc9de1ab1ddae984f28fa698a2e803e3db4a921e3ce43b73c7da468cf2746",
    ("ba", "huff-rle-opt", 16): "07dc9c1e5e512a06247a43276d6291511eab16ddc4d818c94435d4f36803fbdc",
    ("ba", "huff-rle-opt", 64): "a2a98b26dcfc09760d8054f330338a68d6892597b12906ea465e4ed1cfe2a316",
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
        "058aad9ca1a11e5f514a914df3a00a41f0afa7dc962b260bf271c6aeda02d977"
