"""Archive format tests: frozen byte vectors, validation, the refused filter flag
and the refused text-order algo byte.

fans writes version 2. The version-1 vectors stay as decode fixtures, with
their damage tests: version-1 archives are still read.
"""

from __future__ import annotations

import random
import zlib

import pytest

from fans import container
from fans.bitio import ByteImage, put_varint
from fans.container import (
    ALGO_FAM,
    ALGO_RANGED,
    ALGO_TEXT_ORDER,
    ALGO_UNIFORM,
    encode_dict_entries,
    pack_archive,
    parse_dict_entries,
    unpack_archive,
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
from fans.pipeline import decompress
from fans.static_codec import StaticFrequencies
from fans.tokenizer import TokenizerMode

from archive_v1 import sealed, v1_bytes

# fam archives of a b a: version 1 (read only), and version 2 as written:
# header, deflated dictionary section (raw length 4, deflated length 6), the
# code byte, CRC-32 of the rest.
FAM_ABA = bytes.fromhex("46414e5301000003020504016201610 9".replace(" ", ""))
FAM_ABA_V2 = bytes.fromhex(
    "46414e5302000003020504 06634c624c0400 09 f10f0fd6".replace(" ", "")
)
# ranged archives of counts a: 2, b: 1; version 2 adds a deflated frequency
# section (raw length 2, deflated length 4).
STATIC_AB = bytes.fromhex("46414e530101000302030304016101620201 04".replace(" ", ""))
STATIC_AB_V2 = bytes.fromhex(
    "46414e53020100030203 03 0406634c644c0200 020463620400 04 c630e1ec".replace(" ", "")
)


def test_frozen_adaptive_archive_bytes():
    code, w0 = fam_encode([b"a", b"b", b"a"])
    data = pack_archive(ALGO_FAM, TokenizerMode.LOSSLESS, 3, w0, code)
    assert data == FAM_ABA_V2
    assert len(data) == 23
    assert v1_bytes(unpack_archive(data)) == FAM_ABA


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
    assert decompress(FAM_ABA) == decompress(FAM_ABA_V2) == b"aba"


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
    assert data == STATIC_AB_V2
    arc = unpack_archive(data)
    assert arc.algo == ALGO_RANGED
    assert arc.final_state == 3
    assert arc.freqs == [2, 1]
    assert arc.entries == [b"a", b"b"]
    assert (arc.sizes.header, arc.sizes.final_state) == (14, 1)
    assert (arc.sizes.dict_region, arc.sizes.freqs) == (8, 6)
    assert (arc.sizes.code, arc.sizes.total) == (1, 30)
    assert v1_bytes(arc) == STATIC_AB
    arc1 = unpack_archive(STATIC_AB)
    assert arc1[:-1] == arc[:-1]
    assert (arc1.sizes.header, arc1.sizes.final_state) == (10, 1)
    assert (arc1.sizes.dict_region, arc1.sizes.freqs) == (5, 2)
    assert (arc1.sizes.code, arc1.sizes.total) == (1, 19)


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


def test_unpack_rejects_structural_damage():
    with pytest.raises(TruncatedError):
        unpack_archive(b"FA")
    with pytest.raises(BadMagic):
        unpack_archive(b"NOPE" + FAM_ABA[4:])
    with pytest.raises(TruncatedError):
        unpack_archive(FAM_ABA[:6])
    with pytest.raises(BadVersion):
        unpack_archive(FAM_ABA[:4] + b"\x03" + FAM_ABA[5:])
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


def test_filtered_flag_parses_but_is_not_decodable():
    # Flag bit 1 marks a dictionary an older build ran through an external
    # filter command; the archive parses, but nothing can read the entries.
    filtered = FAM_ABA[:6] + b"\x02" + FAM_ABA[7:]
    arc = unpack_archive(filtered)
    assert arc.filtered
    assert arc.entries is None
    assert arc.sizes == unpack_archive(FAM_ABA).sizes
    with pytest.raises(NotDecodableError, match="external filter"):
        decompress(filtered)


def test_text_order_archives_are_refused():
    # Algo 3 marked text-order archives, whose table is the reversed text.
    # Nothing writes one, and the reader refuses the byte in both versions.
    code = ByteImage(b"\x04", 3)
    freqs = StaticFrequencies({b"a": 2, b"b": 1}, 3)
    with pytest.raises(InconsistentFields):
        pack_archive(
            ALGO_TEXT_ORDER, TokenizerMode.LOSSLESS, 3, [b"a", b"b"], code,
            final_state=3, freqs=freqs,
        )
    with pytest.raises(NotDecodableError, match="text-order"):
        unpack_archive(sealed(STATIC_AB_V2[:5] + b"\x03" + STATIC_AB_V2[6:-4]))
    with pytest.raises(NotDecodableError, match="text-order"):
        unpack_archive(STATIC_AB[:5] + b"\x03" + STATIC_AB[6:])


def test_version_2_refuses_the_filter_flag():
    # Only version 1 has flag bit 1; in version 2 it is a reserved bit.
    body = FAM_ABA_V2[:6] + b"\x02" + FAM_ABA_V2[7:-4]
    with pytest.raises(CorruptError, match="reserved flag"):
        unpack_archive(sealed(body))


def test_checksum_catches_every_flip():
    # Every one-bit flip of a version-2 archive is refused: most by the CRC,
    # those in the magic and version bytes before it is read.
    for data in (FAM_ABA_V2, STATIC_AB_V2):
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
    out = bytearray()
    put_varint(out, raw_len)
    put_varint(out, len(stream))
    return bytes(out) + stream


# The raw blobs behind FAM_ABA_V2's and STATIC_AB_V2's sections.
DICT_BA = b"\x01b\x01a"
DICT_AB = b"\x01a\x01b"
FREQS_AB = b"\x02\x01"


def _with_section(which: str, section: bytes) -> bytes:
    """A sealed archive with one section replaced by `section`."""
    if which == "dictionary":
        return sealed(FAM_ABA_V2[:10] + section + b"\x09")
    dict_section = _section(len(DICT_AB), _deflate(DICT_AB))
    return sealed(STATIC_AB_V2[:11] + dict_section + section + b"\x04")


RAW = {"dictionary": DICT_BA, "frequency": FREQS_AB}
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
    data = _with_section(which, _section(len(RAW[which]), _deflate(RAW[which])))
    assert data == (FAM_ABA_V2 if which == "dictionary" else STATIC_AB_V2)


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
        data = _with_section("frequency", _section(len(raw), _deflate(raw)))
        with pytest.raises((TrailingBytes, TruncatedError)):
            unpack_archive(data)
