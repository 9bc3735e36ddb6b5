"""Archive format tests: frozen byte vectors, validation, the refused filter flag
and the refused text-order algo byte.

fans writes version 4. The version-3, version-2 and version-1 vectors stay
as decode fixtures, with their damage tests: every older version is still
read.
"""

from __future__ import annotations

import random
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fans import container
from fans.bitio import ByteImage
from fans.container import (
    ALGO_FAM,
    ALGO_RANGED,
    ALGO_TEXT_ORDER,
    ALGO_UNIFORM,
    pack_archive,
    parse_dict_entries,
    read_varints,
    unpack_archive,
    varints,
)
from fans.errors import (
    BadMagic,
    FansError,
    BadPadding,
    BadVersion,
    CorruptError,
    InconsistentFields,
    NotDecodableError,
    OverlongVarint,
    TrailingBytes,
    TruncatedError,
)
from fans.fam_codec import fam_encode
from fans.pipeline import compress, decompress
from fans.static_codec import StaticFrequencies
from fans.tokenizer import TokenizerMode, iter_tokens

from archive_v1 import encode_dict_entries, sealed, v1_bytes, v2_bytes, v3_bytes

ALICE = Path(__file__).parent / "data" / "corpus" / "alice29.txt"

# fam archives of a b a: versions 1 and 2 (read only): header, deflated
# dictionary section (raw length 4, deflated length 6), the code byte, CRC-32
# of the rest. Version 3 splits the dictionary section into a lengths
# section (raw 01 01: length 2, deflated length 4) and a bytes section (raw
# "ba": length 2, deflated length 4). Version 4, as written, differs from
# version 3 only in its version byte and CRC.
FAM_ABA = bytes.fromhex("46414e5301000003020504016201610 9".replace(" ", ""))
FAM_ABA_V2 = bytes.fromhex(
    "46414e5302000003020504 06634c624c0400 09 f10f0fd6".replace(" ", "")
)
FAM_ABA_V3 = bytes.fromhex(
    "46414e53030000030205 020463640400 02044b4a0400 09 5bfb193a".replace(" ", "")
)
FAM_ABA_V4 = bytes.fromhex(
    "46414e53040000030205 020463640400 02044b4a0400 09 10702770".replace(" ", "")
)
# ranged archives of counts a: 2, b: 1; version 2 adds a deflated frequency
# section (raw length 2, deflated length 4), and version 3 keeps it after
# its two dictionary sections. Version 4 front-codes the dictionary: a pairs
# section (raw 00 01 00 01, each entry sharing no prefix and adding one
# byte: length 4, deflated length 6) and a suffix section (raw "ab": length
# 2, deflated length 4).
STATIC_AB = bytes.fromhex("46414e530101000302030304016101620201 04".replace(" ", ""))
STATIC_AB_V2 = bytes.fromhex(
    "46414e53020100030203 03 0406634c644c0200 020463620400 04 c630e1ec".replace(" ", "")
)
STATIC_AB_V3 = bytes.fromhex(
    "46414e53030100030203 03 020463640400 02044b4c0200 020463620400 04 fe003b32"
    .replace(" ", "")
)
STATIC_AB_V4 = bytes.fromhex(
    "46414e53040100030203 03 0406636064600400 02044b4c0200 020463620400 04 a155c466"
    .replace(" ", "")
)


def test_frozen_adaptive_archive_bytes():
    code, w0 = fam_encode([b"a", b"b", b"a"])
    data = pack_archive(ALGO_FAM, TokenizerMode.LOSSLESS, 3, w0, code)
    assert data == FAM_ABA_V4
    assert len(data) == 27
    arc = unpack_archive(data)
    assert v3_bytes(arc) == FAM_ABA_V3
    assert v2_bytes(arc) == FAM_ABA_V2
    assert v1_bytes(arc) == FAM_ABA


def test_frozen_adaptive_archive_unpack():
    arc = unpack_archive(FAM_ABA)
    assert arc.algo == ALGO_FAM
    assert arc.mode is TokenizerMode.LOSSLESS
    assert not arc.filtered
    assert (arc.n, arc.d) == (3, 2)
    assert arc.entries == [b"b", b"a"]
    assert arc.final_state is None and arc.freqs is None
    assert arc.code == ByteImage(b"\x09", 5)
    assert (arc.sizes.header, arc.sizes.final_state) == (10, 0)
    assert (arc.sizes.dict_region, arc.sizes.freqs) == (5, 0)
    assert (arc.sizes.code, arc.sizes.total) == (1, 16)
    # The same fields in version 2; the header counts the 4 CRC bytes.
    arc2 = unpack_archive(FAM_ABA_V2)
    assert arc2[:-1] == arc[:-1]
    assert (arc2.sizes.header, arc2.sizes.final_state) == (14, 0)
    assert (arc2.sizes.dict_region, arc2.sizes.freqs) == (8, 0)
    assert (arc2.sizes.code, arc2.sizes.total) == (1, 23)
    # Version 3: the two dictionary sections make the dictionary region.
    arc3 = unpack_archive(FAM_ABA_V3)
    assert arc3[:-1] == arc[:-1]
    assert (arc3.sizes.header, arc3.sizes.final_state) == (14, 0)
    assert (arc3.sizes.dict_region, arc3.sizes.freqs) == (12, 0)
    assert (arc3.sizes.code, arc3.sizes.total) == (1, 27)
    # Version 4 keeps version 3's adaptive layout.
    arc4 = unpack_archive(FAM_ABA_V4)
    assert arc4 == arc3
    for data in (FAM_ABA, FAM_ABA_V2, FAM_ABA_V3, FAM_ABA_V4):
        assert decompress(data) == b"aba"


def test_frozen_static_archive_round_trip():
    freqs = StaticFrequencies({b"a": 2, b"b": 1}, 3)
    data = pack_archive(
        ALGO_RANGED,
        TokenizerMode.LOSSLESS,
        3,
        [b"a", b"b"],
        ByteImage(b"\x04", 3),
        final_state=3,
        freqs=freqs,
    )
    assert data == STATIC_AB_V4
    arc = unpack_archive(data)
    assert arc.algo == ALGO_RANGED
    assert arc.final_state == 3
    assert arc.freqs == [2, 1]
    assert arc.entries == [b"a", b"b"]
    assert (arc.sizes.header, arc.sizes.final_state) == (14, 1)
    assert (arc.sizes.dict_region, arc.sizes.freqs) == (14, 6)
    assert (arc.sizes.code, arc.sizes.total) == (1, 36)
    assert v3_bytes(arc) == STATIC_AB_V3
    assert v2_bytes(arc) == STATIC_AB_V2
    assert v1_bytes(arc) == STATIC_AB
    arc3 = unpack_archive(STATIC_AB_V3)
    assert arc3[:-1] == arc[:-1]
    assert (arc3.sizes.header, arc3.sizes.final_state) == (14, 1)
    assert (arc3.sizes.dict_region, arc3.sizes.freqs) == (12, 6)
    assert (arc3.sizes.code, arc3.sizes.total) == (1, 34)
    arc2 = unpack_archive(STATIC_AB_V2)
    assert arc2[:-1] == arc[:-1]
    assert (arc2.sizes.header, arc2.sizes.final_state) == (14, 1)
    assert (arc2.sizes.dict_region, arc2.sizes.freqs) == (8, 6)
    assert (arc2.sizes.code, arc2.sizes.total) == (1, 30)
    arc1 = unpack_archive(STATIC_AB)
    assert arc1[:-1] == arc[:-1]
    assert (arc1.sizes.header, arc1.sizes.final_state) == (10, 1)
    assert (arc1.sizes.dict_region, arc1.sizes.freqs) == (5, 2)
    assert (arc1.sizes.code, arc1.sizes.total) == (1, 19)


def test_sizes_split_a_multi_byte_final_state_from_the_header():
    # 300 tokens of one kind: the final state is 300, a 2-byte varint, so a
    # reader that sized it as one byte would move a byte into the header.
    arc = unpack_archive(compress(b"a " * 300, "ranged", TokenizerMode.PAPER))
    assert (arc.n, arc.final_state) == (300, 300)
    assert (arc.sizes.header, arc.sizes.final_state) == (15, 2)
    arc1 = unpack_archive(v1_bytes(arc))
    assert arc1[:-1] == arc[:-1]
    assert (arc1.sizes.header, arc1.sizes.final_state) == (11, 2)


def test_empty_input_archives():
    empty_code = ByteImage(b"", 0)
    data = pack_archive(ALGO_FAM, TokenizerMode.LOSSLESS, 0, [], empty_code)
    arc = unpack_archive(data)
    assert (arc.n, arc.d, arc.entries) == (0, 0, [])
    assert arc.code.bit_length == 0
    data = pack_archive(
        ALGO_UNIFORM, TokenizerMode.PAPER, 0, [], empty_code, final_state=0
    )
    arc = unpack_archive(data)
    assert arc.mode is TokenizerMode.PAPER
    assert arc.final_state == 0 and arc.freqs == []


def test_pack_unpack_identity_random():
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randrange(1, 120)
        tokens = [bytes([97 + rng.randrange(9)]) for _ in range(n)]
        code, w0 = fam_encode(tokens)
        mode = rng.choice([TokenizerMode.LOSSLESS, TokenizerMode.PAPER])
        data = pack_archive(ALGO_FAM, mode, n, w0, code)
        arc = unpack_archive(data)
        assert arc.mode is mode
        assert (arc.n, arc.d) == (n, len(w0))
        assert arc.entries == w0
        assert arc.sizes.total == len(data)
        assert (
            arc.sizes.header
            + arc.sizes.final_state
            + arc.sizes.dict_region
            + arc.sizes.freqs
            + arc.sizes.code
        ) == arc.sizes.total


def test_pack_rejects_inconsistent_fields():
    code = ByteImage(b"\x09", 5)
    freqs = StaticFrequencies({b"a": 2, b"b": 1}, 3)
    with pytest.raises(InconsistentFields):
        pack_archive(9, TokenizerMode.LOSSLESS, 3, [b"b", b"a"], code)
    with pytest.raises(InconsistentFields):
        pack_archive(ALGO_FAM, TokenizerMode.LOSSLESS, 3, [b"b", b"a"], code, final_state=3)
    with pytest.raises(InconsistentFields):
        pack_archive(ALGO_FAM, TokenizerMode.LOSSLESS, 3, [b"b", b"a"], code, freqs=freqs)
    with pytest.raises(InconsistentFields):
        pack_archive(ALGO_RANGED, TokenizerMode.LOSSLESS, 3, [b"b", b"a"], code, freqs=freqs)
    with pytest.raises(InconsistentFields):
        pack_archive(
            ALGO_RANGED, TokenizerMode.LOSSLESS, 4, [b"b", b"a"], code,
            final_state=4, freqs=freqs,
        )
    with pytest.raises(InconsistentFields):
        pack_archive(ALGO_FAM, TokenizerMode.LOSSLESS, 0, [b"a"], ByteImage(b"", 0))
    with pytest.raises(InconsistentFields):
        pack_archive(ALGO_FAM, TokenizerMode.LOSSLESS, 1, [b"a", b"b"], code)
    # Dictionaries the reader would refuse: an empty static entry, and an
    # empty or repeated adaptive one.
    with pytest.raises(InconsistentFields, match="no empty entry"):
        pack_archive(
            ALGO_RANGED, TokenizerMode.LOSSLESS, 3, [b"", b"a"], code,
            final_state=3, freqs=StaticFrequencies({b"": 2, b"a": 1}, 3),
        )
    for dictionary in ([b"", b"a"], [b"a", b"a"]):
        with pytest.raises(InconsistentFields, match="distinct, nonempty"):
            pack_archive(ALGO_FAM, TokenizerMode.LOSSLESS, 3, dictionary, code)
    # Censuses the reader would refuse or the writer could not read: a zero
    # count, a negative count, counts that miss the token count, an entry
    # with no count, and a count for no entry that n includes.
    for n, dictionary, counts in (
        (2, [b"a", b"b"], {b"a": 2, b"b": 0}),
        (2, [b"a", b"b"], {b"a": 3, b"b": -1}),
        (3, [b"a"], {b"a": 2}),
        (3, [b"a", b"b"], {b"a": 3}),
        (3, [b"a"], {b"a": 2, b"b": 1}),
    ):
        with pytest.raises(InconsistentFields, match="frequencies must count each dictionary entry"):
            pack_archive(
                ALGO_UNIFORM, TokenizerMode.LOSSLESS, n, dictionary, code,
                final_state=n, freqs=StaticFrequencies(counts, n),
            )


def test_unpack_rejects_structural_damage():
    with pytest.raises(TruncatedError):
        unpack_archive(b"FA")
    with pytest.raises(BadMagic):
        unpack_archive(b"NOPE" + FAM_ABA[4:])
    with pytest.raises(TruncatedError):
        unpack_archive(FAM_ABA[:6])
    with pytest.raises(BadVersion):
        unpack_archive(FAM_ABA[:4] + b"\x05" + FAM_ABA[5:])
    with pytest.raises(CorruptError):
        unpack_archive(FAM_ABA[:5] + b"\x07" + FAM_ABA[6:])  # unknown algo
    with pytest.raises(CorruptError):
        unpack_archive(FAM_ABA[:6] + b"\x80" + FAM_ABA[7:])  # reserved flag
    with pytest.raises(TruncatedError):
        unpack_archive(FAM_ABA[:-2])  # code section cut short
    with pytest.raises(TruncatedError):
        unpack_archive(FAM_ABA[:11])  # dictionary blob cut short
    with pytest.raises(TrailingBytes):
        unpack_archive(FAM_ABA + b"\x00")
    with pytest.raises(OverlongVarint):
        unpack_archive(FAM_ABA[:7] + b"\x80\x00" + FAM_ABA[8:])  # padded n varint


def test_unpack_rejects_nonzero_code_padding():
    # The code is 5 bits, so bits 5-7 of its byte are padding and must be 0.
    with pytest.raises(BadPadding):
        unpack_archive(FAM_ABA[:-1] + bytes([FAM_ABA[-1] | 0x80]))


def test_unpack_rejects_semantic_damage():
    # d > n: claim one token but keep the two-entry dictionary.
    bad = bytearray(FAM_ABA)
    bad[7] = 1
    with pytest.raises(CorruptError):
        unpack_archive(bytes(bad))
    # n > 0 with d == 0: drop the dictionary region entirely.
    with pytest.raises(CorruptError):
        unpack_archive(FAM_ABA[:8] + b"\x00" + b"\x05" + b"\x00" + b"\x09")
    # Static frequencies that do not sum to n.
    data = bytearray(STATIC_AB)
    assert data[16] == 2  # frequency of a
    with pytest.raises(TruncatedError):
        unpack_archive(bytes(data[:17]))  # frequency section cut short
    data[16] = 3
    with pytest.raises(CorruptError):
        unpack_archive(bytes(data))
    data[16] = 0
    with pytest.raises(CorruptError, match="zero frequency"):
        unpack_archive(bytes(data))


EMPTY_FAM_V4 = pack_archive(ALGO_FAM, TokenizerMode.LOSSLESS, 0, [], ByteImage(b"", 0))
EMPTY_STATIC_V4 = pack_archive(
    ALGO_RANGED, TokenizerMode.LOSSLESS, 0, [], ByteImage(b"", 0), final_state=0
)


def _reheaded(base: bytes, header: bytes, code: bytes) -> bytes:
    """base's sections under other one-byte header varints and code, resealed."""
    sections_end = len(base) - 4 - unpack_archive(base).sizes.code
    return sealed(base[:7] + header + base[7 + len(header) : sections_end] + code)


# The decoders take n, d, the code bits and the final state as the parser
# validated them, so these checks have one owner: unpack_archive. Each case
# gets through every section, so only its header's fields can fail it.
# Header varints: n, d, code bits, then a static archive's final state.
CROSS_FIELD = {
    "fam n=0 with d>0": (FAM_ABA_V4, b"\x00\x02\x00", b"", "leftover sections"),
    "fam n=0 with code bits": (EMPTY_FAM_V4, b"\x00\x00\x05", b"\x09", "leftover sections"),
    "fam n>0 with d=0": (EMPTY_FAM_V4, b"\x03\x00\x05", b"\x09", "dictionary size impossible"),
    "fam d>n": (FAM_ABA_V4, b"\x01\x02\x05", b"\x09", "dictionary size impossible"),
    "static n=0 with d>0": (STATIC_AB_V4, b"\x00\x02\x00\x00", b"", "leftover sections"),
    "static n=0 with code bits": (
        EMPTY_STATIC_V4, b"\x00\x00\x03\x00", b"\x04", "leftover sections"
    ),
    "static n=0 with a final state": (
        EMPTY_STATIC_V4, b"\x00\x00\x00\x01", b"", "leftover sections"
    ),
    "static n>0 with d=0": (
        EMPTY_STATIC_V4, b"\x03\x00\x03\x03", b"\x04", "dictionary size impossible"
    ),
    "static d>n": (STATIC_AB_V4, b"\x01\x02\x03\x03", b"\x04", "dictionary size impossible"),
    "static final state n-1": (STATIC_AB_V4, b"\x03\x02\x03\x02", b"\x04", "final state outside"),
    "static final state 2n": (STATIC_AB_V4, b"\x03\x02\x03\x06", b"\x04", "final state outside"),
}


@pytest.mark.parametrize("case", CROSS_FIELD)
def test_parser_owns_the_cross_field_checks(case):
    base, header, code, message = CROSS_FIELD[case]
    with pytest.raises(CorruptError, match=message):
        unpack_archive(_reheaded(base, header, code))


def test_dict_entry_parsing():
    blob = encode_dict_entries([b"b", b"a"])
    assert blob == b"\x01b\x01a"
    assert parse_dict_entries(blob, 2) == [b"b", b"a"]
    with pytest.raises(CorruptError):
        parse_dict_entries(b"\x00\x01a", 2)  # empty entry
    with pytest.raises(TruncatedError):
        parse_dict_entries(b"\x05ab", 1)  # entry longer than the blob
    with pytest.raises(TrailingBytes):
        parse_dict_entries(blob + b"x", 2)
    with pytest.raises(CorruptError):
        parse_dict_entries(b"\x01a\x01a", 2)  # duplicate entries


def test_filtered_flag_is_refused_by_the_parser():
    # Flag bit 1 marks a dictionary an older build ran through an external
    # filter command. Nothing can read the entries, so the parser refuses it.
    filtered = FAM_ABA[:6] + b"\x02" + FAM_ABA[7:]
    with pytest.raises(NotDecodableError, match="external filter"):
        unpack_archive(filtered)
    with pytest.raises(NotDecodableError, match="external filter"):
        decompress(filtered)


def test_text_order_archives_are_refused():
    # Algo 3 marked text-order archives, whose table is the reversed text.
    # Nothing writes one, and the reader refuses the byte in every version.
    code = ByteImage(b"\x04", 3)
    freqs = StaticFrequencies({b"a": 2, b"b": 1}, 3)
    with pytest.raises(InconsistentFields):
        pack_archive(
            ALGO_TEXT_ORDER, TokenizerMode.LOSSLESS, 3, [b"a", b"b"], code,
            final_state=3, freqs=freqs,
        )
    for data in (STATIC_AB_V4, STATIC_AB_V3, STATIC_AB_V2):
        with pytest.raises(NotDecodableError, match="text-order"):
            unpack_archive(sealed(data[:5] + b"\x03" + data[6:-4]))
    with pytest.raises(NotDecodableError, match="text-order"):
        unpack_archive(STATIC_AB[:5] + b"\x03" + STATIC_AB[6:])


def test_version_2_refuses_the_filter_flag():
    # Only version 1 has flag bit 1; in versions 2 to 4 it is a reserved bit.
    for data in (FAM_ABA_V2, FAM_ABA_V3, FAM_ABA_V4, STATIC_AB_V4):
        with pytest.raises(CorruptError, match="reserved flag"):
            unpack_archive(sealed(data[:6] + b"\x02" + data[7:-4]))


def test_checksum_catches_every_flip():
    # Every one-bit flip of a version-2, 3 or 4 archive is refused: most by
    # the CRC, those in the magic and version bytes before it is read.
    for data in (FAM_ABA_V2, STATIC_AB_V2, FAM_ABA_V3, STATIC_AB_V3, FAM_ABA_V4, STATIC_AB_V4):
        for offset in range(len(data)):
            for bit in range(8):
                damaged = bytearray(data)
                damaged[offset] ^= 1 << bit
                with pytest.raises(FansError):
                    unpack_archive(bytes(damaged))
    with pytest.raises(CorruptError, match="checksum"):
        unpack_archive(FAM_ABA_V2[:-5] + bytes([FAM_ABA_V2[-5] ^ 1]) + FAM_ABA_V2[-4:])
    with pytest.raises(TruncatedError):
        unpack_archive(FAM_ABA_V2[:10])
    with pytest.raises(CorruptError, match="checksum"):
        unpack_archive(FAM_ABA_V2[:-1])
    with pytest.raises(CorruptError, match="checksum"):
        unpack_archive(FAM_ABA_V2 + b"\x00")


def _deflate(raw: bytes) -> bytes:
    deflater = zlib.compressobj(wbits=-15)
    return deflater.compress(raw) + deflater.flush()


def _section(raw_len: int, stream: bytes) -> bytes:
    return bytes(varints((raw_len, len(stream)))) + stream


def _deflated(raw: bytes) -> bytes:
    return _section(len(raw), _deflate(raw))


# The raw blobs behind the frozen vectors' sections: FAM_ABA_V2's
# dictionary, FAM_ABA_V4's lengths and bytes, STATIC_AB_V4's pairs, suffixes
# and frequencies.
DICT_BA = b"\x01b\x01a"
LENGTHS = b"\x01\x01"
BYTES_BA = b"ba"
PAIRS_AB = b"\x00\x01\x00\x01"
SUFFIXES_AB = b"ab"
FREQS_AB = b"\x02\x01"


def _fam_v4(lengths: bytes, entries: bytes) -> bytes:
    """FAM_ABA_V4 with its dictionary sections holding these blobs, resealed."""
    return sealed(FAM_ABA_V4[:10] + _deflated(lengths) + _deflated(entries) + b"\x09")


def _static_v4(pairs: bytes, suffixes: bytes) -> bytes:
    """STATIC_AB_V4 with its dictionary sections holding these blobs, resealed."""
    dict_sections = _deflated(pairs) + _deflated(suffixes)
    return sealed(STATIC_AB_V4[:11] + dict_sections + _deflated(FREQS_AB) + b"\x04")


def _with_section(which: str, section: bytes) -> bytes:
    """A sealed archive with one section replaced by `section`."""
    if which == "dictionary":
        return sealed(FAM_ABA_V2[:10] + section + b"\x09")
    if which == "lengths":
        return sealed(FAM_ABA_V4[:10] + section + _deflated(BYTES_BA) + b"\x09")
    if which == "bytes":
        return sealed(FAM_ABA_V4[:10] + _deflated(LENGTHS) + section + b"\x09")
    if which == "pairs":
        return sealed(STATIC_AB_V4[:11] + section + _deflated(SUFFIXES_AB) + _deflated(FREQS_AB) + b"\x04")
    if which == "suffixes":
        return sealed(STATIC_AB_V4[:11] + _deflated(PAIRS_AB) + section + _deflated(FREQS_AB) + b"\x04")
    dict_sections = _deflated(PAIRS_AB) + _deflated(SUFFIXES_AB)
    return sealed(STATIC_AB_V4[:11] + dict_sections + section + b"\x04")


RAW = {
    "dictionary": DICT_BA,
    "lengths": LENGTHS,
    "bytes": BYTES_BA,
    "pairs": PAIRS_AB,
    "suffixes": SUFFIXES_AB,
    "frequency": FREQS_AB,
}
HOSTILE = {
    "cut-short": lambda raw: _section(len(raw), _deflate(raw)[:-1]),
    "bytes-after-stream": lambda raw: _section(len(raw), _deflate(raw) + b"\x00"),
    "declared-longer": lambda raw: _section(len(raw) + 1, _deflate(raw)),
    "declared-shorter": lambda raw: _section(len(raw) - 1, _deflate(raw)),
    "not-deflate": lambda raw: _section(len(raw), b"\xff\xff\xff"),
    "declared-2**64": lambda raw: _section(1 << 64, _deflate(raw)),
    "megabyte-of-zeros": lambda raw: _section(10, _deflate(bytes(1 << 20))),
}


@pytest.mark.parametrize("which", sorted(RAW))
def test_sections_rebuild_the_frozen_vectors(which):
    want = {"dictionary": FAM_ABA_V2, "lengths": FAM_ABA_V4, "bytes": FAM_ABA_V4}.get(which, STATIC_AB_V4)
    assert _with_section(which, _deflated(RAW[which])) == want


def _strategy_streams(raw: bytes) -> list[bytes]:
    """raw deflated with the default, filtered and Huffman-only strategies, in that order."""
    wbits = max(9, min(15, (len(raw) + 262).bit_length()))
    streams = []
    for strategy in (zlib.Z_DEFAULT_STRATEGY, zlib.Z_FILTERED, zlib.Z_HUFFMAN_ONLY):
        deflater = zlib.compressobj(wbits=-wbits, memLevel=min(8, wbits - 6), strategy=strategy)
        streams.append(deflater.compress(raw) + deflater.flush())
    return streams


# The entry lengths of alice29.txt's distinct lossless tokens, as the fam
# lengths section holds them: small varints with little to match, where
# Huffman-only deflate beats the default.
WORD_LENGTHS = bytes(
    varints(map(len, dict.fromkeys(iter_tokens(ALICE.read_bytes(), TokenizerMode.LOSSLESS))))
)


def test_word_lengths_deflate_shortest_huffman_only():
    default, _, huffman_only = map(len, _strategy_streams(WORD_LENGTHS))
    assert huffman_only < default


@example(WORD_LENGTHS)
@example(b"")
@example(b"a")
@given(
    st.one_of(
        st.binary(max_size=3000),
        st.text(max_size=1000).map(str.encode),
        st.lists(st.integers(0, 300), max_size=1500).map(lambda values: bytes(varints(values))),
    )
)
def test_sections_keep_the_shortest_deflate_stream(raw):
    out = bytearray()
    container._put_deflated(out, raw)
    (raw_len, size), pos = read_varints(out, 0, 2)
    stream = bytes(out[pos:])
    assert (raw_len, size) == (len(raw), len(stream))
    streams = _strategy_streams(raw)
    assert len(stream) == min(map(len, streams))
    if len(streams[0]) == len(stream):
        assert stream == streams[0]
    assert container._read_deflated(bytes(out), 0, len(out), "section") == (raw, len(out))


@pytest.mark.parametrize("case", sorted(HOSTILE))
@pytest.mark.parametrize("which", sorted(RAW))
def test_hostile_sections_raise_fans_errors(which, case, monkeypatch):
    # Each damaged archive has a valid CRC, so it reaches the section
    # reader; every failure must be structured, never zlib.error,
    # OverflowError or MemoryError.
    lengths = []
    inflater = zlib.decompressobj

    class Recording:
        def __init__(self, wbits):
            self.inner = inflater(wbits)

        def decompress(self, data, max_length=0):
            out = self.inner.decompress(data, max_length)
            lengths.append(len(out))
            return out

        def __getattr__(self, name):
            return getattr(self.inner, name)

    monkeypatch.setattr(container.zlib, "decompressobj", Recording)
    data = _with_section(which, HOSTILE[case](RAW[which]))
    with pytest.raises(FansError):
        unpack_archive(data)
    # The inflater stops one byte past the declared length.
    if case == "megabyte-of-zeros":
        assert lengths[-1] == 11


def test_frequency_section_must_hold_exactly_d_counts():
    for raw in (FREQS_AB + b"\x01", FREQS_AB[:1]):
        data = _with_section("frequency", _deflated(raw))
        with pytest.raises((TrailingBytes, TruncatedError)):
            unpack_archive(data)


def test_varint_sections_keep_their_errors():
    # Runs of one-byte varints are read at once; a multi-byte value between
    # them is still checked one byte at a time.
    assert unpack_archive(_with_section("frequency", _deflated(FREQS_AB))).freqs == [2, 1]
    for which, raw, error in [
        ("frequency", b"\x02\x81\x00", OverlongVarint),  # 1 with a redundant zero group
        ("frequency", b"\x02\x80", TruncatedError),  # cut inside a varint
        ("frequency", b"\x00\x03", CorruptError),  # a zero count
        ("pairs", b"\x00\x01\x80\x00\x01", OverlongVarint),
        ("pairs", b"\x00\x01\x00\x81", TruncatedError),
        ("lengths", b"\x01\x81\x00", OverlongVarint),
    ]:
        with pytest.raises(error):
            unpack_archive(_with_section(which, _deflated(raw)))


def test_lengths_must_cut_the_bytes_section_exactly():
    assert unpack_archive(_fam_v4(LENGTHS, BYTES_BA)).entries == [b"b", b"a"]
    with pytest.raises(CorruptError, match="zero length"):
        unpack_archive(_fam_v4(b"\x00\x02", BYTES_BA))
    with pytest.raises(CorruptError, match="sum to 3 bytes, its bytes section holds 2"):
        unpack_archive(_fam_v4(b"\x01\x02", BYTES_BA))
    with pytest.raises(CorruptError, match="sum to 2 bytes, its bytes section holds 3"):
        unpack_archive(_fam_v4(LENGTHS, b"bax"))
    with pytest.raises(TruncatedError):
        unpack_archive(_fam_v4(b"\x02", BYTES_BA))  # d - 1 lengths
    with pytest.raises(TrailingBytes, match="lengths section"):
        unpack_archive(_fam_v4(b"\x01\x01\x01", b"bac"))  # d + 1 lengths
    with pytest.raises(CorruptError, match="not distinct"):
        unpack_archive(_fam_v4(LENGTHS, b"aa"))


def test_front_coding_must_rebuild_increasing_entries():
    assert unpack_archive(_static_v4(PAIRS_AB, SUFFIXES_AB)).entries == [b"a", b"b"]
    # a, then "ab" as one shared byte plus "b".
    assert unpack_archive(_static_v4(b"\x00\x01\x01\x01", b"ab")).entries == [b"a", b"ab"]
    with pytest.raises(CorruptError, match="entry 1 claims a 2-byte prefix of the 1-byte entry"):
        unpack_archive(_static_v4(b"\x00\x01\x02\x01", SUFFIXES_AB))
    with pytest.raises(CorruptError, match="entry 0 claims a 1-byte prefix of the 0-byte entry"):
        unpack_archive(_static_v4(b"\x01\x01\x00\x01", SUFFIXES_AB))
    for pairs, suffixes in [
        (PAIRS_AB, b"aa"),  # equal to the one before
        (PAIRS_AB, b"ba"),  # below the one before
        (b"\x00\x01\x01\x00", b"a"),  # the whole of the one before
        (b"\x00\x02\x01\x00", b"ab"),  # a prefix of the one before
    ]:
        with pytest.raises(CorruptError, match="entry 1 is not greater"):
            unpack_archive(_static_v4(pairs, suffixes))
    with pytest.raises(CorruptError, match="entry 0 is not greater"):
        unpack_archive(_static_v4(b"\x00\x00\x00\x02", b"ab"))  # an empty first entry
    with pytest.raises(CorruptError, match="sum to 2 bytes, its suffix section holds 1"):
        unpack_archive(_static_v4(PAIRS_AB, b"a"))
    with pytest.raises(CorruptError, match="sum to 2 bytes, its suffix section holds 3"):
        unpack_archive(_static_v4(PAIRS_AB, b"abc"))
    with pytest.raises(TruncatedError):
        unpack_archive(_static_v4(PAIRS_AB[:-1], SUFFIXES_AB))  # 2d - 1 varints
    with pytest.raises(TrailingBytes, match="pairs section"):
        unpack_archive(_static_v4(PAIRS_AB + b"\x00", SUFFIXES_AB))  # 2d + 1 varints


def test_pack_refuses_an_unsorted_static_dictionary():
    code = ByteImage(b"\x04", 3)
    freqs = StaticFrequencies({b"a": 2, b"b": 1}, 3)
    for algo in (ALGO_RANGED, ALGO_UNIFORM):
        for dictionary in ([b"b", b"a"], [b"a", b"a"]):
            with pytest.raises(InconsistentFields, match="strictly increasing"):
                pack_archive(
                    algo, TokenizerMode.LOSSLESS, 3, dictionary, code,
                    final_state=3, freqs=freqs,
                )
    # An adaptive dictionary keeps the order its markers transmit.
    assert unpack_archive(FAM_ABA_V4).entries == [b"b", b"a"]


# Sorted, distinct entries, many of them prefixes of others (every seventh
# cut of each string), with newlines and bytes of 0x80 and above.
_sorted_entries = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=150),
        st.sampled_from([b"\n", b"a\n", b"\n\n", b"\x80", b"\xff\xfe", b"ab\x80"]),
    ),
    min_size=1,
    max_size=30,
).map(lambda xs: sorted({x[:k] for x in xs for k in range(1, len(x) + 1, 7)} | set(xs)))


@given(_sorted_entries, st.sampled_from([ALGO_RANGED, ALGO_UNIFORM]), st.data())
def test_front_coded_dictionary_round_trip(entries, algo, data):
    count = st.one_of(st.integers(1, 127), st.integers(128, 1 << 33))
    counts = [data.draw(count) for _ in entries]
    n = sum(counts)
    freqs = StaticFrequencies(dict(zip(entries, counts)), n)
    packed = pack_archive(
        algo, TokenizerMode.LOSSLESS, n, entries, ByteImage(b"", 0), final_state=n, freqs=freqs
    )
    arc = unpack_archive(packed)
    assert arc.entries == entries
    assert arc.freqs == counts


@given(_sorted_entries, st.data())
def test_writer_and_reader_agree_on_static_censuses(entries, data):
    # A census of the dictionary with up to two faults (an entry without a
    # count, a count for no entry, a zero or a negative count) and an n that
    # may miss its sum by one. The writer must refuse it, or write an archive
    # the reader takes back with the census in dictionary order.
    census = {entry: data.draw(st.one_of(st.integers(1, 3), st.integers(126, 130))) for entry in entries}
    for fault in data.draw(st.lists(st.sampled_from(["drop", "extra", "zero", "negative"]), max_size=2)):
        entry = data.draw(st.sampled_from(entries))
        if fault == "drop":
            census.pop(entry, None)
        elif fault == "extra":
            census[max(entries) + b"\x00"] = 1
        else:
            census[entry] = 0 if fault == "zero" else -1
    n = sum(census.values()) + data.draw(st.sampled_from([0, 0, -1, 1]), label="n off by")
    try:
        packed = pack_archive(
            ALGO_RANGED, TokenizerMode.LOSSLESS, n, entries, ByteImage(b"", 0),
            final_state=n, freqs=StaticFrequencies(census, n),
        )
    except InconsistentFields:
        return
    arc = unpack_archive(packed)
    assert arc.freqs == [census[entry] for entry in entries]


@given(st.lists(st.one_of(st.integers(1, 5), st.integers(64, 200)), max_size=4), st.data())
def test_writer_and_reader_agree_on_final_states(counts, data):
    # A valid census of n >= 0 tokens and a final state inside the table's
    # range [n, 2n) (0 when n = 0) or outside it. The writer must refuse the
    # state, or write an archive the reader takes back with it in range.
    entries = [bytes([97 + i]) for i in range(len(counts))]
    n = sum(counts)
    inside = st.integers(n, max(n, 2 * n - 1))
    outside = st.sampled_from([n - 1, 2 * n, 0, -1, 2**70, 1.5, None])
    state = data.draw(st.one_of(inside, outside), label="final state")
    try:
        packed = pack_archive(
            ALGO_UNIFORM, TokenizerMode.LOSSLESS, n, entries, ByteImage(b"", 0),
            final_state=state, freqs=StaticFrequencies(dict(zip(entries, counts)), n),
        )
    except InconsistentFields:
        return
    arc = unpack_archive(packed)
    assert arc.final_state == state
    assert n <= state < 2 * n or state == n == 0
