"""Single-file archive format; this module owns every byte of it.

Version 5, the one written, in order: magic "FANS", version byte, algo byte,
flags byte, then varints n, d, code_bit_len, an optional final-state varint
(static algos only), the two dictionary sections, an optional frequency
section (static algos only), the packed code bits, and last the CRC-32 of
every byte before it (4 bytes, little-endian). Each blob is stored deflated,
as a section: varint raw length, varint deflated length, then the raw
deflate stream (zlib's default level, no zlib header), with a window and
hash table no larger than the blob needs. The writer deflates each blob with
zlib's default, filtered and Huffman-only strategies and keeps the shortest
stream, the default on a tie. The reader inflates any raw deflate stream
and never learns which was kept, so every reader of a version, including
those of builds that always wrote the default stream, reads them. Every
section length is implied by the header fields, so the total length is fully
determined and trailing bytes are an error. The frequency section is written
here from the static coder's census, so no coder module formats archive
bytes.

Both sides apply one set of header rules, _header_fault: n = 0 comes with
no dictionary, code bits or nonzero final state; otherwise 1 <= d <= n, a
static archive's counts sum to n, and its final state lies in the table's
range [n, 2n). unpack_archive raises a broken rule as CorruptError, and
pack_archive raises the same words as InconsistentFields, so the writer
writes no archive the reader refuses for them. The writer also refuses
what the reader has no rule for: a static final state that is not an int,
and a census that misses an entry, counts another, or holds a count that
is not a positive int. static_codec.StaticFrequencies, which carries the
census here, checks nothing. The reader also refuses a zero count, so the
static decoder reads only code bits.

Every integer field is a varint, written by `varints` and read by
`read_varints`, the format's only varint codec: unsigned LEB128 (7 value
bits per byte, low group first, continuation in the high bit) in minimal
form, at most 10 bytes. The writer is the plain loop over the values; a
path that wrote runs of one-byte values at once measured slower on every
section. The reader takes each run of one-byte varints with one regex
match, about 20 times faster than a byte loop on a static dictionary's
pairs, and refuses a redundant trailing zero group and a longer encoding
with OverlongVarint.

An adaptive archive's dictionary is in the order its markers transmit. Its
first section holds the d entry lengths as varints and its second the
entries themselves, concatenated, so each deflates with a table of its own.
Most lossless entries are a word with the one byte it takes along
(_WORD_AND_BYTE, [0-9A-Za-z]+[^0-9A-Za-z]), and such an entry ends at its
first byte that is not a letter or digit, so version 5 stores a 0 for it
instead of its length. That took small-cli's 24 archives from 55,480 to
54,002 bytes. Every other entry, and every paper-mode one (letters only),
keeps its length, and an explicit length on a word and its byte still reads
as the same entry. A static archive carries its counts, so its dictionary is
in byte order and front-coded: the first section holds, for each entry, the
length of the prefix it shares with the entry before it and the length of
the rest, as d pairs of varints; the second holds those rests (the
suffixes), concatenated. The frequency blob holds d varint counts in
dictionary order.

The reader checks the CRC before it parses any section, and inflates a
section only up to one byte past its declared raw length, so a header cannot
make it allocate beyond what the section's own bytes inflate to. A section
must inflate to exactly its declared length and end its deflate stream on
its last byte. Each layout's dictionary is cut and checked where its
sections are read, so every archive the reader returns carries its entries.
An adaptive dictionary's entries, each cut at its length or, for a version-5
zero, at the end of the word and its byte that must start there, must use up
its bytes section exactly and be distinct; versions 3 and 4 refuse a zero
length. A static dictionary's suffix lengths must sum to the length of its
suffix section; each shared prefix must be no longer than the entry before,
and each entry rebuilt must be greater than the one before it, which makes
the entries nonempty and distinct.

Version 4 archives are still read: they store every adaptive entry's length,
and differ from version 5 in nothing else. Version 3 archives are read too:
their static dictionaries are stored as the adaptive ones are, in an order
of their own (which decoding never assumed). Version 2 archives have the
same layout with a single dictionary section, whose blob holds each entry as
a varint length plus the token bytes. Version 1 archives are read too. They
carry no CRC, store that dictionary blob as a varint byte length plus the
blob, and the counts as bare varints. Flag bit 1 exists in version 1 only:
it means an older build passed the dictionary blob through an external
filter command, which fans no longer runs, so the reader refuses it with
NotDecodableError.

unpack_archive reads every version in one pass and tests the version once
for each of three facts: whether the archive is sealed (versions 2 to 5 end
in a CRC, and in them flag bit 1 is reserved), which of the four dictionary
layouts it holds (version 1's sized blob, version 2's single section, the
front-coded pairs and suffixes of a static version-4 or 5 archive, or the
lengths and bytes sections of version 3 and of adaptive version-4 and 5
archives, where version 5 reads a zero length), and whether its counts are
bare varints (version 1) or a section. Its SectionSizes are the distances
between section boundaries. The final state's byte count is the length of
its minimal varint: that is the length it was read from, since read_varints
refuses longer encodings.

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
from itertools import islice

from .bitio import ByteImage
from .errors import (
    BadMagic,
    BadVersion,
    CorruptError,
    InconsistentFields,
    NotDecodableError,
    OverlongVarint,
    TrailingBytes,
    TruncatedError,
)
from .tokenizer import TokenizerMode

MAGIC = b"FANS"
VERSION = 5
_VERSION_4 = 4
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
_VARINT_MAX_BYTES = 10  # enough for any 64-bit value

# A lossless word with the one byte it takes along. From version 5 on, an
# adaptive dictionary entry that this matches in full is stored with length
# 0: the greedy letter/digit run stops at the entry's own last byte, so the
# reader finds the same cut.
_WORD_AND_BYTE = re.compile(rb"[0-9A-Za-z]+[^0-9A-Za-z]")

# The deflate strategies the writer tries for each section, the default
# first. Huffman-only suits the varint sections, which hold little to match;
# filtered often wins on the byte sections (entries and suffixes).
_STRATEGIES = (zlib.Z_DEFAULT_STRATEGY, zlib.Z_FILTERED, zlib.Z_HUFFMAN_ONLY)


SectionSizes = namedtuple("SectionSizes", "header final_state dict_region freqs code total")
SectionSizes.__doc__ = (
    "Byte accounting for one archive; header (with the CRC) rides with the dictionary."
)

Archive = namedtuple("Archive", "algo mode filtered n d entries final_state freqs code sizes")
Archive.__doc__ = (
    "Parsed archive. filtered is always False, since the reader refuses flag bit 1;"
    " the field stays because perfbench/tracing.py reads it."
)


def varints(values) -> bytearray:
    """The values as varints, one at a time; a negative value raises ValueError."""
    out = bytearray()
    for value in values:
        while value > 0x7F:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
    return out


def read_varints(data: bytes, pos: int, count: int) -> tuple[list[int], int]:
    """count varints from data[pos:]; returns (values, position past them).

    Each run of one-byte varints is taken with one match; a longer value is
    read byte by byte. Raises TruncatedError when data ends inside a varint,
    and OverlongVarint on one of more than 10 bytes or with a redundant
    trailing zero group.
    """
    values = []
    while len(values) < count:
        run_end = _ONE_BYTE_VARINTS.match(data, pos, pos + count - len(values)).end()
        values += data[pos:run_end]
        pos = run_end
        if len(values) < count:
            # data[pos] has its high bit set, so a zero final byte is redundant.
            limit = pos + _VARINT_MAX_BYTES
            value = shift = 0
            while True:
                if pos >= len(data):
                    raise TruncatedError("varint runs past end of input")
                if pos == limit:
                    raise OverlongVarint("varint longer than 10 bytes")
                byte = data[pos]
                pos += 1
                value |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
            if not byte:
                raise OverlongVarint("varint has redundant trailing zero group")
            values.append(value)
    return values, pos


def parse_dict_entries(blob: bytes, d: int) -> list[bytes]:
    entries = []
    pos = 0
    for _ in range(d):
        (length,), pos = read_varints(blob, pos, 1)
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


def _cut_dict_entries(lengths_blob: bytes, blob: bytes, d: int, implied: bool) -> list[bytes]:
    """blob cut at the d varint lengths of lengths_blob, which must use all of it.

    With implied (version 5), a length of 0 stands for the _WORD_AND_BYTE
    match at the cut, which must exist; earlier versions refuse a 0.
    """
    lengths, used = read_varints(lengths_blob, 0, d)
    if not implied and 0 in lengths:
        raise CorruptError("zero length for a dictionary token")
    if used != len(lengths_blob):
        raise TrailingBytes("dictionary lengths section has extra bytes")
    word_at = _WORD_AND_BYTE.match
    entries = []
    pos = 0
    for length in lengths:
        if length:
            end = pos + length
        elif word := word_at(blob, pos):
            end = word.end()
        else:
            raise CorruptError(
                f"dictionary entry {len(entries)} has no stored length, but its bytes "
                f"section holds no word and its byte at {pos} of {len(blob)}"
            )
        entries.append(blob[pos:end])
        pos = end
    if pos != len(blob):
        raise CorruptError(
            f"dictionary lengths sum to {pos} bytes, its bytes section holds {len(blob)}"
        )
    if len(set(entries)) != len(entries):
        raise CorruptError("dictionary entries are not distinct")
    return entries


def _front_code(dictionary: list[bytes]) -> tuple[bytearray, bytearray]:
    """A sorted dictionary's (shared-prefix, suffix length) pairs and its suffixes.

    Raises InconsistentFields unless each entry is greater than the one
    before it, the first than b"": the order the reader rebuilds.
    """
    pairs = []
    suffixes = bytearray()
    prev = b""
    for entry in dictionary:
        if entry <= prev:
            raise InconsistentFields("a static dictionary must be strictly increasing, with no empty entry")
        k = min(len(prev), len(entry))
        p = 0
        while p < k and prev[p] == entry[p]:
            p += 1
        pairs += (p, len(entry) - p)
        suffixes += entry[p:]
        prev = entry
    return varints(pairs), suffixes


def _front_decode(pairs_blob: bytes, suffixes: bytes, d: int) -> list[bytes]:
    """The d entries front-coded in the two blobs; each must exceed the one before."""
    pairs, used = read_varints(pairs_blob, 0, 2 * d)
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


def _deflate(raw: bytes, wbits: int, strategy: int) -> bytes:
    deflater = zlib.compressobj(wbits=-wbits, memLevel=min(8, wbits - 6), strategy=strategy)
    return deflater.compress(raw) + deflater.flush()


def _put_deflated(out: bytearray, raw: bytes) -> None:
    """Append raw as a section: raw length, deflated length, raw deflate.

    The window covers the blob plus zlib's 262-byte lookahead, and the hash
    table shrinks with it, so a small section does not allocate the full
    deflate state (about 300 KB at the default memLevel). The blob is
    deflated with each of _STRATEGIES in turn, one deflater at a time, and
    the shortest stream is kept; on a tie min keeps the first, the default.
    """
    wbits = max(9, min(15, (len(raw) + 262).bit_length()))
    packed = min((_deflate(raw, wbits, strategy) for strategy in _STRATEGIES), key=len)
    out += varints((len(raw), len(packed)))
    out += packed


def _read_deflated(data: bytes, pos: int, end: int, name: str) -> tuple[bytes, int]:
    """Inflate the section at data[pos:end]; returns (raw bytes, position past it)."""
    (raw_len, size), pos = read_varints(data, pos, 2)
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


def _header_fault(n: int, d: int, code_bit_len: int, final_state, counts) -> str | None:
    """The first header rule the fields break, in the reader's words, or None.

    The decoders take these fields as given and repeat none of the rules.
    n = 0 has no dictionary, code bits or nonzero final state; otherwise
    1 <= d <= n, the counts (None for an adaptive archive) sum to n, and a
    static final state lies in the table's range [n, 2n).
    """
    if n == 0:
        if d or code_bit_len or (final_state or 0) != 0:
            return "empty stream with leftover sections"
    elif d == 0 or d > n:
        return "dictionary size impossible for token count"
    if counts is not None and sum(counts) != n:
        return "frequencies do not sum to the token count"
    if n and final_state is not None and not n <= final_state < 2 * n:
        return "final state outside the table range"
    return None


def pack_archive(
    algo: int,
    mode: TokenizerMode,
    n: int,
    dictionary: list[bytes],
    code: ByteImage,
    final_state: int | None = None,
    freqs=None,
) -> bytes:
    """Assemble version-5 archive bytes; raises InconsistentFields on bad combinations.

    It first refuses what the reader has no rule for: an unknown algo id;
    for an adaptive archive, a final state or freqs, and a dictionary whose
    entries are not distinct and nonempty; for a static one, a dictionary
    that is not strictly increasing, a final_state that is not an int, and
    freqs (a static_codec.StaticFrequencies; only an empty archive may omit
    it, and its total is not read) that do not count every entry and no
    other with a positive int. Then it refuses the first header rule of
    _header_fault that the fields break, in the words unpack_archive raises
    as CorruptError, so it writes no archive the reader refuses for them.
    Once the fields pass, the archive is written in one pass: the fixed
    bytes, the header varints (a static final state last among them), the
    deflated sections (an adaptive entry that _WORD_AND_BYTE matches in full
    with length 0), the code bytes and the CRC.
    """
    if algo not in ALGO_NAMES:
        raise InconsistentFields(f"unknown algo id {algo}")
    d = len(dictionary)
    fields = [n, d, code.bit_length]
    if algo == ALGO_FAM:
        if final_state is not None or freqs is not None:
            raise InconsistentFields("adaptive archives carry no final state or frequencies")
        if b"" in dictionary or len(set(dictionary)) != d:
            raise InconsistentFields("an adaptive dictionary must hold distinct, nonempty entries")
        counts = None
        word_and_byte = _WORD_AND_BYTE.fullmatch
        lengths = varints(0 if word_and_byte(t) else len(t) for t in dictionary)
        sections = (lengths, b"".join(dictionary))
    else:
        if not isinstance(final_state, int):
            raise InconsistentFields("a static final state must be an int")
        pairs, suffixes = _front_code(dictionary)
        census = freqs.counts if freqs is not None else {}
        counts = [census.get(entry, 0) for entry in dictionary]
        if len(census) != d or not all(isinstance(c, int) and c > 0 for c in counts):
            raise InconsistentFields(
                "frequencies must count each dictionary entry, and no other, with positive integers"
            )
        fields.append(final_state)
        sections = (pairs, suffixes, varints(counts))
    fault = _header_fault(n, d, code.bit_length, final_state, counts)
    if fault:
        raise InconsistentFields(fault)

    flags = _FLAG_PAPER if mode is TokenizerMode.PAPER else 0
    out = bytearray(MAGIC) + bytes((VERSION, algo, flags)) + varints(fields)
    for raw in sections:
        _put_deflated(out, raw)
    out += code.data
    out += zlib.crc32(out).to_bytes(_CRC_BYTES, "little")
    return bytes(out)


def unpack_archive(data: bytes) -> Archive:
    """Parse and validate archive bytes (version 5, 4, 3, 2 or 1) end to end.

    One pass from the magic to the last section. The version is tested
    once for each fact it decides: the CRC and flag bit 1 (versions 2 to 5),
    the dictionary layout and the frequency layout. The final state's byte
    count is the length of its minimal varint, since read_varints refuses
    any longer encoding.
    """
    if len(data) < 4:
        raise TruncatedError("shorter than the magic")
    if data[:4] != MAGIC:
        raise BadMagic("not an archive (bad magic)")
    if len(data) < 7:
        raise TruncatedError("header cut short")
    version, algo, flags = data[4:7]
    if version not in (VERSION, _VERSION_4, _VERSION_3, _VERSION_2, _VERSION_1):
        raise BadVersion(f"unsupported version {version}")
    sealed = version != _VERSION_1
    end = len(data) - _CRC_BYTES if sealed else len(data)
    if sealed:
        if end < 7:
            raise TruncatedError("header cut short")
        if zlib.crc32(memoryview(data)[:end]) != int.from_bytes(data[end:], "little"):
            raise CorruptError("archive checksum does not match its bytes")
    if algo == ALGO_TEXT_ORDER:
        raise NotDecodableError(
            "text-order archives, which older builds wrote for size comparison, "
            "cannot be decoded: their table is the reversed text"
        )
    if algo not in ALGO_NAMES:
        raise CorruptError(f"unknown algo id {algo}")
    if flags & ~(_FLAG_PAPER if sealed else _FLAG_PAPER | _FLAG_FILTERED):
        raise CorruptError("reserved flag bits set")
    if flags & _FLAG_FILTERED:
        raise NotDecodableError(
            "the dictionary was passed through an external filter command, "
            "which fans no longer runs"
        )
    mode = TokenizerMode.PAPER if flags & _FLAG_PAPER else TokenizerMode.LOSSLESS
    static = algo != ALGO_FAM

    fields, dict_start = read_varints(data, 7, 3 + static)
    n, d, code_bit_len = fields[:3]
    final_state = fields[3] if static else None
    pos = dict_start
    if version == _VERSION_1:
        (blob_len,), pos = read_varints(data, pos, 1)
        if pos + blob_len > end:
            raise TruncatedError("dictionary blob runs past end of archive")
        entries = parse_dict_entries(data[pos : pos + blob_len], d)
        pos += blob_len
    elif version == _VERSION_2:
        blob, pos = _read_deflated(data, pos, end, "dictionary section")
        entries = parse_dict_entries(blob, d)
    elif version >= _VERSION_4 and static:
        pairs, pos = _read_deflated(data, pos, end, "dictionary pairs section")
        blob, pos = _read_deflated(data, pos, end, "dictionary suffix section")
        entries = _front_decode(pairs, blob, d)
    else:
        lengths, pos = _read_deflated(data, pos, end, "dictionary lengths section")
        blob, pos = _read_deflated(data, pos, end, "dictionary bytes section")
        entries = _cut_dict_entries(lengths, blob, d, implied=version == VERSION)

    freq_start = pos
    freqs = None
    if static:
        if sealed:
            section, pos = _read_deflated(data, pos, end, "frequency section")
            freqs, used = read_varints(section, 0, d)
        else:
            freqs, pos = read_varints(data, pos, d)
        if 0 in freqs:
            raise CorruptError("zero frequency for a dictionary token")
        if sealed and used != len(section):
            raise TrailingBytes("frequency section has extra bytes")

    code_start = pos
    pos += (code_bit_len + 7) // 8
    if pos > end:
        raise TruncatedError("code section runs past end of archive")
    code = ByteImage(data[code_start:pos], code_bit_len)
    if pos != end:
        raise TrailingBytes(f"{end - pos} bytes past the last section")

    fault = _header_fault(n, d, code_bit_len, final_state, freqs)
    if fault:
        raise CorruptError(fault)

    fs_size = len(varints(fields[3:]))
    sizes = SectionSizes(
        header=dict_start - fs_size + len(data) - end,  # versions 2 to 5 count their CRC here
        final_state=fs_size,
        dict_region=freq_start - dict_start,
        freqs=code_start - freq_start,
        code=end - code_start,
        total=len(data),
    )
    return Archive(algo, mode, False, n, d, entries, final_state, freqs, code, sizes)
