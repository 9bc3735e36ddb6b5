"""Archives fans no longer writes, rebuilt for the tests that pin them.

fans writes version 3 only. A version-3 archive holds the same fields as the
version-2 and version-1 archives of the same input: version 2 stores the
dictionary as one deflated blob of varint-length-prefixed entries, with
zlib's default deflate state for every section, and version 1 stores that
blob and the counts raw, with no CRC. So writing the parsed fields back in
either layout must reproduce the bytes that older builds wrote, digest for
digest.

Older builds also wrote text-order archives (algo byte 3), whose table is
the reversed text. The text-order coder still runs in the benchmark, and a
static archive's layout does not depend on its spread, so such an archive is
the uniform layout of the text-order code with its algo byte set to 3.
Version 3 never carried one.
"""

from __future__ import annotations

import zlib

from fans.bitio import put_varint
from fans.container import (
    ALGO_FAM,
    ALGO_TEXT_ORDER,
    MAGIC,
    Archive,
    unpack_archive,
)
from fans.fam_model import number_ids
from fans.pipeline import encode_ids, pack_coded
from fans.tokenizer import TokenizerMode, iter_tokens


def encode_dict_entries(entries: list[bytes]) -> bytes:
    """The version-1 and version-2 dictionary blob: each entry as a varint length plus its bytes."""
    blob = bytearray()
    for t in entries:
        put_varint(blob, len(t))
        blob += t
    return bytes(blob)


def _header(archive: Archive, version: int, flags: int | None) -> bytearray:
    if flags is None:
        flags = 1 if archive.mode is TokenizerMode.PAPER else 0
    out = bytearray(MAGIC)
    out += bytes([version, archive.algo, flags])
    put_varint(out, archive.n)
    put_varint(out, archive.d)
    put_varint(out, archive.code.bit_length)
    if archive.algo != ALGO_FAM:
        put_varint(out, archive.final_state)
    return out


def v1_bytes(archive: Archive, flags: int | None = None) -> bytes:
    """archive's fields in version-1 layout; flags overrides the flags byte."""
    out = _header(archive, 1, flags)
    blob = encode_dict_entries(archive.entries)
    put_varint(out, len(blob))
    out += blob
    for count in archive.freqs or ():
        put_varint(out, count)
    out += archive.code.data
    return bytes(out)


def _put_v2_section(out: bytearray, raw: bytes) -> None:
    deflater = zlib.compressobj(wbits=-15)
    packed = deflater.compress(raw) + deflater.flush()
    put_varint(out, len(raw))
    put_varint(out, len(packed))
    out += packed


def v2_bytes(archive: Archive) -> bytes:
    """archive's fields in version-2 layout, sealed."""
    out = _header(archive, 2, None)
    _put_v2_section(out, encode_dict_entries(archive.entries))
    if archive.algo != ALGO_FAM:
        counts = bytearray()
        for count in archive.freqs:
            put_varint(counts, count)
        _put_v2_section(out, counts)
    out += archive.code.data
    return sealed(out)


def sealed(body: bytes) -> bytes:
    """body with its CRC-32 appended, as versions 2 and 3 end."""
    return bytes(body) + zlib.crc32(body).to_bytes(4, "little")


def text_order_layout(raw: bytes, mode: TokenizerMode) -> bytes:
    """The bench's text-order row: the text-order code in the uniform layout."""
    seen, ids = number_ids(iter_tokens(raw, mode))
    return pack_coded("uniform", mode, seen, len(ids), encode_ids("textorder", ids, len(seen)))


def text_order_archives(raw: bytes, mode: TokenizerMode) -> tuple[bytes, bytes]:
    """The version-2 and version-1 text-order archives of raw, as older builds wrote them."""
    fields = unpack_archive(text_order_layout(raw, mode))._replace(algo=ALGO_TEXT_ORDER)
    return v2_bytes(fields), v1_bytes(fields)
