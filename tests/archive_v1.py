"""Version-1 layout of a parsed archive, for the tests that pin v1 bytes.

fans writes version 2 only. A version-2 archive holds the same fields as the
version-1 archive of the same input, with its dictionary and frequency blobs
deflated and a CRC added, so writing the parsed fields back in version-1
layout must reproduce the v1 bytes that older builds wrote, digest for
digest.
"""

from __future__ import annotations

from fans.bitio import put_varint
from fans.container import ALGO_FAM, MAGIC, Archive, encode_dict_entries
from fans.tokenizer import TokenizerMode


def v1_bytes(archive: Archive, flags: int | None = None) -> bytes:
    """archive's fields in version-1 layout; flags overrides the flags byte."""
    if flags is None:
        flags = 1 if archive.mode is TokenizerMode.PAPER else 0
    out = bytearray(MAGIC)
    out += bytes([1, archive.algo, flags])
    put_varint(out, archive.n)
    put_varint(out, archive.d)
    put_varint(out, archive.code.bit_length)
    if archive.algo != ALGO_FAM:
        put_varint(out, archive.final_state)
    blob = encode_dict_entries(archive.entries)
    put_varint(out, len(blob))
    out += blob
    for count in archive.freqs or ():
        put_varint(out, count)
    out += archive.code.data
    return bytes(out)
