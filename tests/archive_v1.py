"""Archives fans no longer writes, rebuilt for the tests that pin them.

fans writes version 2 only. A version-2 archive holds the same fields as the
version-1 archive of the same input, with its dictionary and frequency blobs
deflated and a CRC added, so writing the parsed fields back in version-1
layout must reproduce the v1 bytes that older builds wrote, digest for
digest.

Older builds also wrote text-order archives (algo byte 3), whose table is
the reversed text. The text-order coder still runs in the benchmark, and a
static archive's layout does not depend on its spread, so such an archive is
the uniform layout of the text-order code with its algo byte set to 3.
"""

from __future__ import annotations

import zlib

from fans.bitio import put_varint
from fans.container import (
    ALGO_FAM,
    ALGO_TEXT_ORDER,
    MAGIC,
    Archive,
    encode_dict_entries,
    unpack_archive,
)
from fans.fam_model import number_ids
from fans.pipeline import encode_ids, pack_coded
from fans.tokenizer import TokenizerMode, iter_tokens


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


def sealed(body: bytes) -> bytes:
    """body with its CRC-32 appended, as version 2 ends."""
    return bytes(body) + zlib.crc32(body).to_bytes(4, "little")


def text_order_archives(raw: bytes, mode: TokenizerMode) -> tuple[bytes, bytes]:
    """The version-2 and version-1 text-order archives of raw, as older builds wrote them."""
    seen, ids = number_ids(iter_tokens(raw, mode))
    uniform = pack_coded("uniform", mode, seen, len(ids), encode_ids("textorder", ids, len(seen)))
    body = bytearray(uniform[:-4])
    body[5] = ALGO_TEXT_ORDER
    old = v1_bytes(unpack_archive(uniform)._replace(algo=ALGO_TEXT_ORDER))
    return sealed(body), old
