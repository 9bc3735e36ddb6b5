"""Archives fans no longer writes, rebuilt for the tests that pin them.

fans writes version 4 only. A version-4 adaptive archive holds the same
fields as the version-3, version-2 and version-1 archives of the same input:
version 3 stores the dictionary as a deflated lengths blob and a deflated
bytes blob, each with a deflate state sized to it; version 2 stores it as
one deflated blob of varint-length-prefixed entries, with zlib's default
deflate state for every section; and version 1 stores that blob and the
counts raw, with no CRC. So writing the parsed fields back in any of these
layouts must reproduce the bytes that older builds wrote, digest for digest.

Static archives before version 4 kept their dictionary in last-occurrence
order, earliest first, and built their spread in that order, so their code
differs from version 4's too: static_fields rebuilds those fields from the
input with the library's own spread and coding loop.

Older builds also wrote text-order archives (algo byte 3), whose table is
the reversed text. The text-order coder still runs in the benchmark, and a
static archive's layout does not depend on its spread, so such an archive is
the uniform layout of the text-order code with its algo byte set to 3.
Versions 3 and 4 never carried one.
"""

from __future__ import annotations

import zlib

from fans.bitio import pack_bits, put_varint
from fans.container import (
    ALGO_FAM,
    ALGO_IDS,
    ALGO_TEXT_ORDER,
    MAGIC,
    Archive,
)
from fans.fam_model import number_ids
from fans.pipeline import count_ids, encode_ids, pack_coded
from fans.static_codec import SpreadStrategy, build_spread_ids, static_encode_ids
from fans.tokenizer import TokenizerMode, iter_tokens

from fam_oracle import fam_dictionary


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
    out += _varints(archive.freqs or ())
    out += archive.code.data
    return bytes(out)


def _put_section(out: bytearray, raw: bytes, sized: bool) -> None:
    """raw as a deflated section; version 3 sizes the deflate state to the blob."""
    wbits = max(9, min(15, (len(raw) + 262).bit_length())) if sized else 15
    deflater = zlib.compressobj(wbits=-wbits, memLevel=min(8, wbits - 6))
    packed = deflater.compress(raw) + deflater.flush()
    put_varint(out, len(raw))
    put_varint(out, len(packed))
    out += packed


def _varints(values) -> bytes:
    out = bytearray()
    for value in values:
        put_varint(out, value)
    return bytes(out)


def v3_bytes(archive: Archive) -> bytes:
    """archive's fields in version-3 layout, sealed."""
    out = _header(archive, 3, None)
    _put_section(out, _varints(len(t) for t in archive.entries), sized=True)
    _put_section(out, b"".join(archive.entries), sized=True)
    if archive.algo != ALGO_FAM:
        _put_section(out, _varints(archive.freqs), sized=True)
    out += archive.code.data
    return sealed(out)


def v2_bytes(archive: Archive) -> bytes:
    """archive's fields in version-2 layout, sealed."""
    out = _header(archive, 2, None)
    _put_section(out, encode_dict_entries(archive.entries), sized=False)
    if archive.algo != ALGO_FAM:
        _put_section(out, _varints(archive.freqs), sized=False)
    out += archive.code.data
    return sealed(out)


def sealed(body: bytes) -> bytes:
    """body with its CRC-32 appended, as versions 2 to 4 end."""
    return bytes(body) + zlib.crc32(body).to_bytes(4, "little")


def static_fields(raw: bytes, mode: TokenizerMode, algo: str) -> Archive:
    """The fields of raw's static archive as builds before version 4 wrote them.

    The dictionary is in last-occurrence order, earliest first, and the
    spread is built in that order. algo "textorder" gives the text-order
    archive, algo byte 3. sizes is None: no archive was parsed.
    """
    seen, ids = number_ids(iter_tokens(raw, mode))
    counts = count_ids(ids, len(seen))
    order = fam_dictionary(ids)
    spread = build_spread_ids(SpreadStrategy(algo), counts, order, ids)
    bits, final_state = static_encode_ids(ids, spread, counts)
    return Archive(
        algo=ALGO_IDS.get(algo, ALGO_TEXT_ORDER),
        mode=mode,
        filtered=False,
        n=len(ids),
        d=len(seen),
        entries=[seen[i] for i in order],
        final_state=final_state,
        freqs=[counts[i] for i in order],
        code=pack_bits(bits),
        sizes=None,
    )


def text_order_layout(raw: bytes, mode: TokenizerMode) -> bytes:
    """The bench's text-order row: the text-order code in the uniform layout."""
    seen, ids = number_ids(iter_tokens(raw, mode))
    return pack_coded("uniform", mode, seen, len(ids), encode_ids("textorder", ids, seen))


def text_order_archives(raw: bytes, mode: TokenizerMode) -> tuple[bytes, bytes]:
    """The version-2 and version-1 text-order archives of raw, as older builds wrote them."""
    fields = static_fields(raw, mode, "textorder")
    return v2_bytes(fields), v1_bytes(fields)
