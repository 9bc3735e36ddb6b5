"""Single-file archive format.

Layout, in order: magic "FANS", version byte, algo byte, flags byte, then
varints n, d, code_bit_len, an optional final-state varint (static algos
only), the dictionary blob (a varint byte length followed by d entries, each
a varint length plus the token bytes), an optional frequency section of d
varints in dictionary order (static algos only), and finally the packed code
bits. Every section length is implied by the header fields, so the total
length is fully determined and trailing bytes are an error.

Adaptive archives carry neither frequencies nor a final state: the decoder
rebuilds both. Flags: bit 0 set means the tokens came from the words-only
tokenizer (the original bytes are not recoverable); bit 1 set means an older
build passed the dictionary blob through an external filter command. Such
archives still parse (with no dictionary entries) but do not decode, and no
writer sets the bit.
"""

from __future__ import annotations

from collections import namedtuple

from .bitio import ByteImage, read_varint, write_varint
from .errors import (
    BadMagic,
    BadVersion,
    CorruptError,
    InconsistentFields,
    TrailingBytes,
    TruncatedError,
)
from .static_codec import StaticFrequencies, serialize_frequencies
from .tokenizer import TokenizerMode

MAGIC = b"FANS"
VERSION = 1

ALGO_FAM = 0
ALGO_RANGED = 1
ALGO_UNIFORM = 2
ALGO_TEXT_ORDER = 3

ALGO_NAMES = {
    ALGO_FAM: "fam",
    ALGO_RANGED: "ranged",
    ALGO_UNIFORM: "uniform",
    ALGO_TEXT_ORDER: "textorder",
}
ALGO_IDS = {name: algo for algo, name in ALGO_NAMES.items()}

_FLAG_PAPER = 0x01
_FLAG_FILTERED = 0x02


SectionSizes = namedtuple("SectionSizes", "header final_state dict_region freqs code total")
SectionSizes.__doc__ = "Byte accounting for one archive; header rides with the dictionary."

Archive = namedtuple("Archive", "algo mode filtered n d entries final_state freqs code sizes")
Archive.__doc__ = "Parsed archive. entries is None when an older build filtered the dictionary."


def encode_dict_entries(entries: list[bytes]) -> bytes:
    return b"".join(write_varint(len(t)) + t for t in entries)


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


def pack_archive(
    algo: int,
    mode: TokenizerMode,
    n: int,
    dictionary: list[bytes],
    code: ByteImage,
    final_state: int | None = None,
    freqs: StaticFrequencies | None = None,
) -> bytes:
    """Assemble archive bytes; raises InconsistentFields on bad combinations."""
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
    if n == 0:
        if d or code.bit_length or (final_state or 0) != 0:
            raise InconsistentFields("empty input must have no dictionary, code or state")
    else:
        if d == 0 or d > n:
            raise InconsistentFields("dictionary size impossible for token count")

    flags = 0
    if mode is TokenizerMode.PAPER:
        flags |= _FLAG_PAPER
    blob = encode_dict_entries(dictionary)

    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(algo)
    out.append(flags)
    out += write_varint(n)
    out += write_varint(d)
    out += write_varint(code.bit_length)
    if algo != ALGO_FAM:
        out += write_varint(final_state)
    out += write_varint(len(blob))
    out += blob
    if algo != ALGO_FAM and freqs is not None:
        out += serialize_frequencies(freqs, dictionary)
    out += code.data
    return bytes(out)


def unpack_archive(data: bytes) -> Archive:
    """Parse and validate archive bytes end to end."""
    if len(data) < 4:
        raise TruncatedError("shorter than the magic")
    if data[:4] != MAGIC:
        raise BadMagic("not an archive (bad magic)")
    if len(data) < 7:
        raise TruncatedError("header cut short")
    if data[4] != VERSION:
        raise BadVersion(f"unsupported version {data[4]}")
    algo = data[5]
    if algo not in ALGO_NAMES:
        raise CorruptError(f"unknown algo id {algo}")
    flags = data[6]
    if flags & ~(_FLAG_PAPER | _FLAG_FILTERED):
        raise CorruptError("reserved flag bits set")
    mode = TokenizerMode.PAPER if flags & _FLAG_PAPER else TokenizerMode.LOSSLESS
    filtered = bool(flags & _FLAG_FILTERED)

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
    header_size = pos - fs_size

    dict_start = pos
    blob_len, used = read_varint(data, pos)
    pos += used
    if pos + blob_len > len(data):
        raise TruncatedError("dictionary blob runs past end of archive")
    blob = data[pos : pos + blob_len]
    pos += blob_len
    dict_region = pos - dict_start

    freqs = None
    freq_size = 0
    if algo != ALGO_FAM:
        freqs = []
        freq_start = pos
        for _ in range(d):
            value, used = read_varint(data, pos)
            if value == 0:
                raise CorruptError("zero frequency for a dictionary token")
            freqs.append(value)
            pos += used
        freq_size = pos - freq_start

    code_bytes = (code_bit_len + 7) // 8
    if pos + code_bytes > len(data):
        raise TruncatedError("code section runs past end of archive")
    code = ByteImage(data[pos : pos + code_bytes], code_bit_len)
    pos += code_bytes
    if pos != len(data):
        raise TrailingBytes(f"{len(data) - pos} bytes past the last section")

    entries = None if filtered else parse_dict_entries(blob, d)

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
        filtered=filtered,
        n=n,
        d=d,
        entries=entries,
        final_state=final_state,
        freqs=freqs,
        code=code,
        sizes=sizes,
    )
