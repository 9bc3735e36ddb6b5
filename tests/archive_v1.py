"""Archives fans no longer writes, rebuilt for the tests that pin them.

fans writes version 5 only. A version-5 adaptive archive holds the same
fields as the version-4, version-3, version-2 and version-1 archives of the
same input: version 4 stores every entry's length, where version 5 stores
0 for a word with its one byte; version 3 stores the dictionary as a
deflated lengths blob and a deflated bytes blob, each with a deflate state
sized to it, and version 4 does too, keeping the shortest of three deflate
strategies' streams; version 2 stores it as one deflated blob of
varint-length-prefixed entries, with zlib's default deflate state for every
section; and version 1 stores that blob and the counts raw, with no CRC. So
writing the parsed fields back in any of these layouts must reproduce the
bytes that older builds wrote, digest for digest. A static version-4
archive is version 5's with another version byte.

Static archives before version 4 kept their dictionary in last-occurrence
order, earliest first, and built their spread in that order, so their code
differs from version 4's too: static_fields rebuilds those fields from the
input with the library's own spread and coding loop.

Older builds also wrote text-order archives (algo byte 3), whose table is
the reversed text. The text-order coder still runs in the benchmark, and a
static archive's layout does not depend on its spread, so such an archive is
the uniform layout of the text-order code with its algo byte set to 3.
Versions 3 to 5 never carried one.

Builds before the one-byte separator rule cut lossless text into alternating
maximal runs of letters/digits and of other bytes. old_tokens keeps that
rule as a reference: the older layouts are built from fields coded over its
tokens, so their pins still record what those builds wrote, and
old_compress is the version-4 archive such a build wrote, which today's
reader must still decode.
"""

from __future__ import annotations

import re
import zlib

from fans.bitio import pack_bits
from fans.container import (
    ALGO_FAM,
    ALGO_IDS,
    ALGO_TEXT_ORDER,
    MAGIC,
    Archive,
    pack_archive,
    unpack_archive,
    varints,
)
from fans.fam_model import number_ids
from fans.pipeline import count_ids, encode_ids, pack_coded
from fans.static_codec import SpreadStrategy, StaticFrequencies, build_spread_ids, static_encode_ids
from fans.tokenizer import TokenizerMode, iter_tokens, tokenize

from fam_oracle import fam_dictionary


_LETTER_DIGIT_RUNS = re.compile(rb"([0-9A-Za-z]+)")


def old_tokens(raw: bytes, mode: TokenizerMode) -> list[bytes]:
    """raw's tokens as builds before the one-byte separator rule cut them.

    Lossless tokens are the letter/digit runs and the runs between them, so
    the two classes alternate; paper tokens are today's.
    """
    if mode is TokenizerMode.LOSSLESS:
        return [t for t in _LETTER_DIGIT_RUNS.split(raw) if t]
    return tokenize(raw, mode)


def old_compress(raw: bytes, algo: str, mode: TokenizerMode) -> bytes:
    """The version-4 archive of raw as builds before the one-byte separator rule wrote it."""
    seen, ids = number_ids(old_tokens(raw, mode))
    return v4_bytes(unpack_archive(pack_coded(algo, mode, seen, len(ids), encode_ids(algo, ids, seen))))


def encode_dict_entries(entries: list[bytes]) -> bytes:
    """The version-1 and version-2 dictionary blob: each entry as a varint length plus its bytes."""
    blob = bytearray()
    for t in entries:
        blob += varints((len(t),))
        blob += t
    return bytes(blob)


def _header(archive: Archive, version: int, flags: int | None) -> bytearray:
    if flags is None:
        flags = 1 if archive.mode is TokenizerMode.PAPER else 0
    out = bytearray(MAGIC)
    out += bytes([version, archive.algo, flags])
    out += varints((archive.n, archive.d, archive.code.bit_length))
    if archive.algo != ALGO_FAM:
        out += varints((archive.final_state,))
    return out


def v1_bytes(archive: Archive, flags: int | None = None) -> bytes:
    """archive's fields in version-1 layout; flags overrides the flags byte."""
    out = _header(archive, 1, flags)
    blob = encode_dict_entries(archive.entries)
    out += varints((len(blob),))
    out += blob
    out += varints(archive.freqs or ())
    out += archive.code.data
    return bytes(out)


# The deflate strategies whose shortest stream the last version-4 build kept,
# the first on a tie.
V4_STRATEGIES = (zlib.Z_DEFAULT_STRATEGY, zlib.Z_FILTERED, zlib.Z_HUFFMAN_ONLY)


def deflate_streams(raw: bytes, sized: bool, strategies=(zlib.Z_DEFAULT_STRATEGY,)) -> list[bytes]:
    """raw as a raw deflate stream for each strategy, in order; version 3 on
    sizes the deflate state to the blob, and version 2 uses zlib's default."""
    wbits = max(9, min(15, (len(raw) + 262).bit_length())) if sized else 15
    streams = []
    for strategy in strategies:
        deflater = zlib.compressobj(wbits=-wbits, memLevel=min(8, wbits - 6), strategy=strategy)
        streams.append(deflater.compress(raw) + deflater.flush())
    return streams


def section(raw_len: int, stream: bytes) -> bytes:
    """A deflated section: the raw length, the stream's length, the stream."""
    return bytes(varints((raw_len, len(stream)))) + stream


def _put_section(out: bytearray, raw: bytes, sized: bool, strategies=(zlib.Z_DEFAULT_STRATEGY,)) -> None:
    out += section(len(raw), min(deflate_streams(raw, sized, strategies), key=len))


def v4_bytes(archive: Archive) -> bytes:
    """archive's fields in version-4 layout, sealed, as the last version-4 build wrote them.

    Version 5 changed only the adaptive lengths section, so a static archive
    is version 5's with its version byte set to 4.
    """
    if archive.algo != ALGO_FAM:
        freqs = StaticFrequencies(dict(zip(archive.entries, archive.freqs)), archive.n)
        data = pack_archive(
            archive.algo, archive.mode, archive.n, archive.entries, archive.code, archive.final_state, freqs
        )
        return sealed(data[:4] + b"\x04" + data[5:-4])
    out = _header(archive, 4, None)
    _put_section(out, varints(len(t) for t in archive.entries), sized=True, strategies=V4_STRATEGIES)
    _put_section(out, b"".join(archive.entries), sized=True, strategies=V4_STRATEGIES)
    out += archive.code.data
    return sealed(out)


def v3_bytes(archive: Archive) -> bytes:
    """archive's fields in version-3 layout, sealed."""
    out = _header(archive, 3, None)
    _put_section(out, varints(len(t) for t in archive.entries), sized=True)
    _put_section(out, b"".join(archive.entries), sized=True)
    if archive.algo != ALGO_FAM:
        _put_section(out, varints(archive.freqs), sized=True)
    out += archive.code.data
    return sealed(out)


def v2_bytes(archive: Archive) -> bytes:
    """archive's fields in version-2 layout, sealed."""
    out = _header(archive, 2, None)
    _put_section(out, encode_dict_entries(archive.entries), sized=False)
    if archive.algo != ALGO_FAM:
        _put_section(out, varints(archive.freqs), sized=False)
    out += archive.code.data
    return sealed(out)


def sealed(body: bytes) -> bytes:
    """body with its CRC-32 appended, as versions 2 to 5 end."""
    return bytes(body) + zlib.crc32(body).to_bytes(4, "little")


def static_fields(raw: bytes, mode: TokenizerMode, algo: str) -> Archive:
    """The fields of raw's static archive as builds before version 4 wrote them.

    The tokens are old_tokens', the dictionary is in last-occurrence order,
    earliest first, and the spread is built in that order. algo "textorder"
    gives the text-order archive, algo byte 3. sizes is None: no archive was
    parsed.
    """
    seen, ids = number_ids(old_tokens(raw, mode))
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
