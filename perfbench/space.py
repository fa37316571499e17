"""Space breakdown of a TGX1 image, read from its own section table.

The image is parsed here from the byte layout alone: a 56-byte header
(magic, version, arity, codec tag, t_psi, semantics flag, then n, nu,
tau, sigma, then the section count), followed by sections that each
carry a u64 length prefix and zero padding to eight bytes. Which
component each section holds follows from the codec tag, in the order
the codec writes its sections.
"""

from __future__ import annotations

import struct

HEADER_BYTES = 56
COMPONENTS = ("B", "D", "psi_stream", "psi_samples", "psi_pointers",
              "psi_offsets", "psi_D1", "psi_codebook")

# codec tag -> component of each section after B and D
_LAYOUT = {
    # vbyte-rle: stream, s0, ptr0, off0, s1, ptr1, run1, off1, D1
    1: ("psi_stream", "psi_samples", "psi_pointers", "psi_offsets",
        "psi_samples", "psi_pointers", "psi_samples", "psi_offsets", "psi_D1"),
    # huff-rle-opt: code lengths, samples, bit pointers, bitstream
    3: ("psi_codebook", "psi_samples", "psi_pointers", "psi_stream"),
}


def sections(img: bytes) -> tuple[int, int, list[int]]:
    """(codec tag, contact count n, payload length of every section)."""
    if len(img) < HEADER_BYTES or img[:4] != b"TGX1":
        raise ValueError("not a TGX1 image")
    tag = img[7]
    (n,) = struct.unpack_from("<Q", img, 16)
    (count,) = struct.unpack_from("<I", img, 48)
    pos, lengths = HEADER_BYTES, []
    for _ in range(count):
        (length,) = struct.unpack_from("<Q", img, pos)
        lengths.append(length)
        pos += 8 + length + (-length) % 8
    if pos != len(img):
        raise ValueError("section table does not cover the image")
    return tag, n, lengths


def breakdown(img: bytes, size_bits: int) -> dict[str, float]:
    """Bits per contact of every component, the framing (header, length
    prefixes, padding), and the image bits that size_bits() leaves out."""
    tag, n, lengths = sections(img)
    if tag not in _LAYOUT:
        raise ValueError(f"codec tag {tag} is outside the benchmark's workloads")
    names = ("B", "D") + _LAYOUT[tag]
    if len(names) != len(lengths):
        raise ValueError(f"codec tag {tag} image has {len(lengths)} sections, "
                         f"expected {len(names)}")
    bits = dict.fromkeys(COMPONENTS, 0)
    for name, length in zip(names, lengths):
        bits[name] += 8 * length
    payload = sum(bits.values())
    bits["framing"] = 8 * len(img) - payload
    out = {f"space.{k}_bpc": v / n for k, v in bits.items()}
    out["space.unaccounted_bpc"] = (8 * len(img) - size_bits) / n
    return out
