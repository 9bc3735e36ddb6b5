"""Single-file archive format; this module owns every byte of it.

Version 4, the one written, in order: magic "FANS", version byte, algo byte,
flags byte, then varints n, d, code_bit_len, an optional final-state varint
(static algos only), the two dictionary sections, an optional frequency
section (static algos only), the packed code bits, and last the CRC-32 of
every byte before it (4 bytes, little-endian). Each blob is stored deflated,
as a section: varint raw length, varint deflated length, then the raw
deflate stream (zlib's default level, no zlib header), with a window and
hash table no larger than the blob needs. Every section length is implied
by the header fields, so the total length is fully determined and trailing
bytes are an error. The frequency section is written here from the static
coder's census, so no coder module formats archive bytes.

An adaptive archive's dictionary is in the order its markers transmit. Its
first section holds the d entry lengths as varints and its second the
entries themselves, concatenated, so each deflates with a table of its own.
A static archive carries its counts, so its dictionary is in byte order and
front-coded: the first section holds, for each entry, the length of the
prefix it shares with the entry before it and the length of the rest, as d
pairs of varints; the second holds those rests (the suffixes), concatenated.
The frequency blob holds d varint counts in dictionary order.

The reader checks the CRC before it parses any section, and inflates a
section only up to one byte past its declared raw length, so a header
cannot make it allocate beyond what the section's own bytes inflate to. A
section must inflate to exactly its declared length and end its deflate
stream on its last byte. Each layout's dictionary is cut and checked where
its sections are read, so every archive the reader returns carries its
entries. An adaptive dictionary's lengths must be nonzero
and sum to the length of its bytes section, and the entries they cut must be
distinct. A static dictionary's suffix lengths must sum to the length of its
suffix section; each shared prefix must be no longer than the entry before,
and each entry rebuilt must be greater than the one before it, which makes
the entries nonempty and distinct.

Version 3 archives are still read: their static dictionaries are stored as
the adaptive ones are, in an order of their own (which decoding never
assumed). Version 2 archives have the same layout with a single dictionary
section, whose blob holds each entry as a varint length plus the token
bytes. Version 1 archives are read too. They carry no CRC, store that
dictionary blob as a varint byte length plus the blob, and the counts as
bare varints. Flag bit 1 exists in version 1 only: it means an older build
passed the dictionary blob through an external filter command, which fans no
longer runs, so the reader refuses it with NotDecodableError.

Algo byte 3 was a text-order archive, which older builds wrote for size
comparison. Its table is the reversed text, which the archive does not hold,
so the reader refuses that byte with NotDecodableError in every version and
the writer no longer takes it.

Adaptive archives carry neither frequencies nor a final state: the decoder
rebuilds both. Flag bit 0 set means the tokens came from the words-only
tokenizer (the original bytes are not recoverable).
"""

from __future__ import annotations

import re
import sys
import zlib
from collections import namedtuple
from itertools import groupby, islice
from operator import lt

from .bitio import ByteImage, put_varint, read_varint
from .errors import (
    BadMagic,
    BadVersion,
    CorruptError,
    InconsistentFields,
    NotDecodableError,
    TrailingBytes,
    TruncatedError,
)
from .tokenizer import TokenizerMode

MAGIC = b"FANS"
VERSION = 4
_VERSION_3 = 3
_VERSION_2 = 2
_VERSION_1 = 1
_CRC_BYTES = 4

ALGO_FAM = 0
ALGO_RANGED = 1
ALGO_UNIFORM = 2
ALGO_TEXT_ORDER = 3  # read only to be refused

ALGO_NAMES = {ALGO_FAM: "fam", ALGO_RANGED: "ranged", ALGO_UNIFORM: "uniform"}
ALGO_IDS = {name: algo for algo, name in ALGO_NAMES.items()}

_FLAG_PAPER = 0x01
_FLAG_FILTERED = 0x02

# A run of one-byte varints: every byte below 0x80.
_ONE_BYTE_VARINTS = re.compile(rb"[\x00-\x7f]*")


SectionSizes = namedtuple("SectionSizes", "header final_state dict_region freqs code total")
SectionSizes.__doc__ = (
    "Byte accounting for one archive; header (with the CRC) rides with the dictionary."
)

Archive = namedtuple("Archive", "algo mode filtered n d entries final_state freqs code sizes")
Archive.__doc__ = (
    "Parsed archive. filtered is always False, since the reader refuses flag bit 1;"
    " the field stays because perfbench/tracing.py reads it."
)


def parse_dict_entries(blob: bytes, d: int) -> list[bytes]:
    entries = []
    pos = 0
    for _ in range(d):
        length, used = read_varint(blob, pos)
        pos += used
        if length == 0:
            raise CorruptError("empty dictionary entry")
        if pos + length > len(blob):
            raise TruncatedError("dictionary entry runs past the blob")
        entries.append(blob[pos : pos + length])
        pos += length
    if pos != len(blob):
        raise TrailingBytes("dictionary blob has extra bytes")
    if len(set(entries)) != len(entries):
        raise CorruptError("dictionary entries are not distinct")
    return entries


def _cut_dict_entries(lengths_blob: bytes, blob: bytes, d: int) -> list[bytes]:
    """blob cut at the d varint lengths of lengths_blob, which must use all of it."""
    lengths, used = _read_counts(lengths_blob, 0, d, "length")
    if used != len(lengths_blob):
        raise TrailingBytes("dictionary lengths section has extra bytes")
    if sum(lengths) != len(blob):
        raise CorruptError(
            f"dictionary lengths sum to {sum(lengths)} bytes, its bytes section holds {len(blob)}"
        )
    entries = []
    pos = 0
    for length in lengths:
        entries.append(blob[pos : pos + length])
        pos += length
    if len(set(entries)) != len(entries):
        raise CorruptError("dictionary entries are not distinct")
    return entries


def _front_code(dictionary: list[bytes]) -> tuple[bytearray, bytearray]:
    """A sorted dictionary's (shared-prefix, suffix length) pairs and its suffixes."""
    pairs = []
    suffixes = bytearray()
    prev = b""
    for entry in dictionary:
        k = min(len(prev), len(entry))
        p = 0
        while p < k and prev[p] == entry[p]:
            p += 1
        pairs += (p, len(entry) - p)
        suffixes += entry[p:]
        prev = entry
    return _varints(pairs), suffixes


def _front_decode(pairs_blob: bytes, suffixes: bytes, d: int) -> list[bytes]:
    """The d entries front-coded in the two blobs; each must exceed the one before."""
    pairs, used = _read_counts(pairs_blob, 0, 2 * d, None)
    if used != len(pairs_blob):
        raise TrailingBytes("dictionary pairs section has extra bytes")
    total = sum(islice(pairs, 1, None, 2))
    if total != len(suffixes):
        raise CorruptError(
            f"dictionary suffix lengths sum to {total} bytes, its suffix section holds {len(suffixes)}"
        )
    entries = []
    prev = b""
    pos = 0
    it = iter(pairs)
    for shared, length in zip(it, it):
        if shared > len(prev):
            raise CorruptError(
                f"dictionary entry {len(entries)} claims a {shared}-byte prefix "
                f"of the {len(prev)}-byte entry before it"
            )
        entry = prev[:shared] + suffixes[pos : pos + length]
        if entry <= prev:
            raise CorruptError(f"dictionary entry {len(entries)} is not greater than the one before")
        entries.append(entry)
        prev = entry
        pos += length
    return entries


def _varints(values) -> bytearray:
    """The values as varints; each run of one-byte values is written at once."""
    out = bytearray()
    for small, run in groupby(values, (0x7F).__ge__):
        if small:
            out += bytes(run)
        else:
            for value in run:
                put_varint(out, value)
    return out


def _put_deflated(out: bytearray, raw: bytes) -> None:
    """Append raw as a section: raw length, deflated length, raw deflate.

    The window covers the blob plus zlib's 262-byte lookahead, and the hash
    table shrinks with it, so a small section does not allocate the full
    deflate state (about 300 KB at the default memLevel).
    """
    wbits = max(9, min(15, (len(raw) + 262).bit_length()))
    deflater = zlib.compressobj(wbits=-wbits, memLevel=min(8, wbits - 6))
    packed = deflater.compress(raw) + deflater.flush()
    put_varint(out, len(raw))
    put_varint(out, len(packed))
    out += packed


def _read_deflated(data: bytes, pos: int, end: int, name: str) -> tuple[bytes, int]:
    """Inflate the section at data[pos:end]; returns (raw bytes, position past it)."""
    raw_len, used = read_varint(data, pos)
    pos += used
    size, used = read_varint(data, pos)
    pos += used
    if pos + size > end:
        raise TruncatedError(f"{name} runs past end of archive")
    inflater = zlib.decompressobj(-15)
    # One byte past the declared length shows an overlong stream; max_length
    # must also stay a Py_ssize_t, or decompress raises OverflowError.
    limit = min(raw_len + 1, sys.maxsize)
    try:
        raw = inflater.decompress(memoryview(data)[pos : pos + size], limit)
    except zlib.error as exc:
        raise CorruptError(f"{name} does not inflate: {exc}") from None
    if len(raw) > raw_len:
        raise CorruptError(f"{name} inflates past its declared {raw_len} bytes")
    if not inflater.eof:
        raise TruncatedError(f"{name} deflate stream is cut short")
    if inflater.unused_data:
        raise TrailingBytes(f"{name} has bytes past the end of its deflate stream")
    if len(raw) < raw_len:
        raise CorruptError(f"{name} inflates to {len(raw)} of its declared {raw_len} bytes")
    return raw, pos + size


def _read_counts(data: bytes, pos: int, count: int, what: str | None) -> tuple[list[int], int]:
    """count varints from data[pos:]; returns (values, position past them).

    Each run of one-byte varints is taken with one match; only multi-byte
    values go through read_varint. A zero is refused as a zero `what`,
    unless `what` is None.
    """
    values = []
    while len(values) < count:
        run_end = _ONE_BYTE_VARINTS.match(data, pos, pos + count - len(values)).end()
        values += data[pos:run_end]
        pos = run_end
        if len(values) < count:
            value, used = read_varint(data, pos)
            values.append(value)
            pos += used
    if what is not None and 0 in values:
        raise CorruptError(f"zero {what} for a dictionary token")
    return values, pos


def pack_archive(
    algo: int,
    mode: TokenizerMode,
    n: int,
    dictionary: list[bytes],
    code: ByteImage,
    final_state: int | None = None,
    freqs=None,
) -> bytes:
    """Assemble version-4 archive bytes; raises InconsistentFields on bad combinations.

    A static dictionary must be in byte order, strictly increasing. freqs is
    a static_codec.StaticFrequencies: counts keyed by entry, total.
    """
    if algo not in ALGO_NAMES:
        raise InconsistentFields(f"unknown algo id {algo}")
    d = len(dictionary)
    if algo == ALGO_FAM:
        if final_state is not None or freqs is not None:
            raise InconsistentFields("adaptive archives carry no final state or frequencies")
    else:
        if final_state is None:
            raise InconsistentFields("static archives need a final state")
        if freqs is None and d > 0:
            raise InconsistentFields("static archives need frequencies")
        if freqs is not None and freqs.total != n:
            raise InconsistentFields("frequency total does not match the token count")
        if not all(map(lt, dictionary, islice(dictionary, 1, None))):
            raise InconsistentFields("a static dictionary must be strictly increasing")
    if n == 0:
        if d or code.bit_length or (final_state or 0) != 0:
            raise InconsistentFields("empty input must have no dictionary, code or state")
    else:
        if d == 0 or d > n:
            raise InconsistentFields("dictionary size impossible for token count")

    flags = 0
    if mode is TokenizerMode.PAPER:
        flags |= _FLAG_PAPER

    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(algo)
    out.append(flags)
    put_varint(out, n)
    put_varint(out, d)
    put_varint(out, code.bit_length)
    if algo != ALGO_FAM:
        put_varint(out, final_state)
    if algo == ALGO_FAM:
        _put_deflated(out, _varints(len(t) for t in dictionary))
        _put_deflated(out, b"".join(dictionary))
    else:
        pairs, suffixes = _front_code(dictionary)
        _put_deflated(out, pairs)
        _put_deflated(out, suffixes)
        by_entry = freqs.counts if freqs is not None else {}
        _put_deflated(out, _varints(by_entry[t] for t in dictionary))
    out += code.data
    out += zlib.crc32(out).to_bytes(_CRC_BYTES, "little")
    return bytes(out)


def unpack_archive(data: bytes) -> Archive:
    """Parse and validate archive bytes (version 4, 3, 2 or 1) end to end."""
    if len(data) < 4:
        raise TruncatedError("shorter than the magic")
    if data[:4] != MAGIC:
        raise BadMagic("not an archive (bad magic)")
    if len(data) < 7:
        raise TruncatedError("header cut short")
    version = data[4]
    if version in (VERSION, _VERSION_3, _VERSION_2):
        end = len(data) - _CRC_BYTES
        if end < 7:
            raise TruncatedError("header cut short")
        if zlib.crc32(memoryview(data)[:end]) != int.from_bytes(data[end:], "little"):
            raise CorruptError("archive checksum does not match its bytes")
        known_flags = _FLAG_PAPER
    elif version == _VERSION_1:
        end = len(data)
        known_flags = _FLAG_PAPER | _FLAG_FILTERED
    else:
        raise BadVersion(f"unsupported version {version}")
    algo = data[5]
    if algo == ALGO_TEXT_ORDER:
        raise NotDecodableError(
            "text-order archives, which older builds wrote for size comparison, "
            "cannot be decoded: their table is the reversed text"
        )
    if algo not in ALGO_NAMES:
        raise CorruptError(f"unknown algo id {algo}")
    flags = data[6]
    if flags & ~known_flags:
        raise CorruptError("reserved flag bits set")
    if flags & _FLAG_FILTERED:
        raise NotDecodableError(
            "the dictionary was passed through an external filter command, "
            "which fans no longer runs"
        )
    mode = TokenizerMode.PAPER if flags & _FLAG_PAPER else TokenizerMode.LOSSLESS

    pos = 7
    n, used = read_varint(data, pos)
    pos += used
    d, used = read_varint(data, pos)
    pos += used
    code_bit_len, used = read_varint(data, pos)
    pos += used

    final_state = None
    fs_size = 0
    if algo != ALGO_FAM:
        final_state, used = read_varint(data, pos)
        pos += used
        fs_size = used
    header_size = pos - fs_size + (len(data) - end)  # versions 2 to 4 count their CRC here

    dict_start = pos
    if version == _VERSION_1:
        blob_len, used = read_varint(data, pos)
        pos += used
        if pos + blob_len > end:
            raise TruncatedError("dictionary blob runs past end of archive")
        entries = parse_dict_entries(data[pos : pos + blob_len], d)
        pos += blob_len
    elif version == _VERSION_2:
        blob, pos = _read_deflated(data, pos, end, "dictionary section")
        entries = parse_dict_entries(blob, d)
    elif version == VERSION and algo != ALGO_FAM:
        pairs, pos = _read_deflated(data, pos, end, "dictionary pairs section")
        blob, pos = _read_deflated(data, pos, end, "dictionary suffix section")
        entries = _front_decode(pairs, blob, d)
    else:
        lengths, pos = _read_deflated(data, pos, end, "dictionary lengths section")
        blob, pos = _read_deflated(data, pos, end, "dictionary bytes section")
        entries = _cut_dict_entries(lengths, blob, d)
    dict_region = pos - dict_start

    freqs = None
    freq_size = 0
    if algo != ALGO_FAM:
        freq_start = pos
        if version == _VERSION_1:
            freqs, pos = _read_counts(data, pos, d, "frequency")
        else:
            section, pos = _read_deflated(data, pos, end, "frequency section")
            freqs, used = _read_counts(section, 0, d, "frequency")
            if used != len(section):
                raise TrailingBytes("frequency section has extra bytes")
        freq_size = pos - freq_start

    code_bytes = (code_bit_len + 7) // 8
    if pos + code_bytes > end:
        raise TruncatedError("code section runs past end of archive")
    code = ByteImage(data[pos : pos + code_bytes], code_bit_len)
    pos += code_bytes
    if pos != end:
        raise TrailingBytes(f"{end - pos} bytes past the last section")

    # Cross-field sanity: these would otherwise surface as confusing decoder
    # failures, or not at all.
    if n == 0:
        if d or code_bit_len or (final_state or 0) != 0:
            raise CorruptError("empty stream with leftover sections")
    else:
        if d == 0 or d > n:
            raise CorruptError("dictionary size impossible for token count")
    if freqs is not None and n > 0 and sum(freqs) != n:
        raise CorruptError("frequencies do not sum to the token count")

    sizes = SectionSizes(
        header=header_size,
        final_state=fs_size,
        dict_region=dict_region,
        freqs=freq_size,
        code=code_bytes,
        total=len(data),
    )
    return Archive(
        algo=algo,
        mode=mode,
        filtered=False,
        n=n,
        d=d,
        entries=entries,
        final_state=final_state,
        freqs=freqs,
        code=code,
        sizes=sizes,
    )
