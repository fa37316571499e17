"""One container format for every index kind.

A fixed little-endian header carries the shape parameters, then a run of
length-prefixed sections, each padded to eight bytes so the payloads
stay alignment-friendly. Which sections appear, and in what order, is
fixed by the codec byte: bitmaps and the Psi sections for the compressed
index, the three streams and their offset tables for the adjacency log.
Serialization is canonical, so serializing what was just deserialized
reproduces the input byte for byte. So that this holds for every image
a load accepts, reserved bytes and padding must be zero, and header
fields an index kind does not use must hold what its serializer puts
in them.
"""

from __future__ import annotations

import struct

from . import psienc
from .baseline import EdgeLogIndex
from .bitseq import BitSequence
from .corpus import ARITY_SEMANTICS, AlphabetMap
from .sacsa import TgcsaIndex

MAGIC = b"TGX1"
VERSION = 1
EDGELOG_TAG = 16

_SEMANTICS = {"interval": 0, "incremental": 1, "point": 2}
_SEMANTICS_BACK = {v: k for k, v in _SEMANTICS.items()}

_HEAD = struct.Struct("<4sHBBHB5s")   # ends in five reserved bytes
_SHAPE = struct.Struct("<QQQQ")
_COUNT = struct.Struct("<II")


def _emit(head: bytes, sections: list[bytes]) -> bytes:
    out = bytearray(head)
    out += _COUNT.pack(len(sections), 0)
    for s in sections:
        out += struct.pack("<Q", len(s))
        out += s
        out += b"\x00" * ((-len(s)) % 8)
    return bytes(out)


def serialize_index(idx) -> bytes:
    """The full byte image of an index."""
    if idx.kind == "tgcsa":
        head = _HEAD.pack(MAGIC, VERSION, idx.arity, idx.psi.tag,
                          idx.psi.t_psi, _SEMANTICS[idx.semantics], b"")
        head += _SHAPE.pack(idx.n, idx.nu, idx.tau, idx.sigma)
        sections = [idx.am.B.serialize(), idx.D.serialize()]
        sections += idx.psi.to_sections()
        return _emit(head, sections)
    if idx.kind == "edgelog":
        head = _HEAD.pack(MAGIC, VERSION, 4, EDGELOG_TAG, 0, 0, b"")
        head += _SHAPE.pack(idx.n, idx.nu, idx.tau, 0)
        return _emit(head, idx.to_sections())
    raise TypeError(f"cannot serialize an index of kind {idx.kind!r}")


def deserialize_index(buf: bytes):
    """Rebuild an index from its byte image."""
    if len(buf) < _HEAD.size + _SHAPE.size + _COUNT.size:
        raise ValueError("truncated index image")
    magic, version, arity, codec, t_psi, flags, reserved = _HEAD.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ValueError("not an index image (bad magic)")
    if version != VERSION:
        raise ValueError(f"unsupported index format version {version}")
    n, nu, tau, sigma = _SHAPE.unpack_from(buf, _HEAD.size)
    count, reserved_u32 = _COUNT.unpack_from(buf, _HEAD.size + _SHAPE.size)
    if any(reserved) or reserved_u32:
        raise ValueError("reserved header bytes are not zero")
    pos = _HEAD.size + _SHAPE.size + _COUNT.size
    sections = []
    for _ in range(count):
        if pos + 8 > len(buf):
            raise ValueError("truncated index image")
        (length,) = struct.unpack_from("<Q", buf, pos)
        pos += 8
        if pos + length > len(buf):
            raise ValueError("truncated index image")
        sections.append(buf[pos:pos + length])
        pos += length
        pad = (-length) % 8
        if any(buf[pos:pos + pad]):
            raise ValueError("section padding is not zero")
        pos += pad
    if pos != len(buf):
        raise ValueError("truncated index image")

    if codec == EDGELOG_TAG:
        if (arity, t_psi, flags, sigma) != (4, 0, 0, 0):
            raise ValueError("edge log header holds arity, t_psi, semantics or sigma "
                             "values an edge log does not write")
        return EdgeLogIndex.from_sections(nu, tau, n, sections)

    if codec == psienc.TAGS["plain"] and t_psi:
        raise ValueError(f"plain codec takes no t_psi, the header holds {t_psi}")
    if arity not in ARITY_SEMANTICS:
        raise ValueError(f"arity must be 3 or 4, the header holds {arity}")
    if _SEMANTICS_BACK.get(flags) not in ARITY_SEMANTICS[arity]:
        raise ValueError(f"semantics flag {flags} is not valid at arity {arity}")
    if len(sections) < 2:
        raise ValueError(f"compressed index needs its two bitmap sections, "
                         f"the image holds {len(sections)} sections")
    B = BitSequence.deserialize(sections[0])
    D = BitSequence.deserialize(sections[1])
    am = AlphabetMap(arity, nu, tau, B)
    if am.sigma != sigma:
        raise ValueError("alphabet bitmap disagrees with the header")
    if len(D) != arity * n or D.ones != sigma:
        raise ValueError("group bitmap disagrees with the header")
    if n and not D.access(1):
        raise ValueError("group bitmap does not open with a group mark")
    psi = psienc.from_sections(codec, sections[2:], D, t_psi)
    return TgcsaIndex(am, D, psi, n, _SEMANTICS_BACK[flags])


def save_index(idx, path) -> int:
    """Write the index image; returns the byte count."""
    blob = serialize_index(idx)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load_index(path):
    with open(path, "rb") as fh:
        return deserialize_index(fh.read())
