"""Archive format tests: frozen byte vectors, validation, the refused filter flag."""

from __future__ import annotations

import random

import pytest

from fans.bitio import ByteImage
from fans.container import (
    ALGO_FAM,
    ALGO_RANGED,
    ALGO_UNIFORM,
    encode_dict_entries,
    pack_archive,
    parse_dict_entries,
    unpack_archive,
)
from fans.errors import (
    BadMagic,
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

FAM_ABA = bytes.fromhex("46414e5301000003020504016201610 9".replace(" ", ""))


def test_frozen_adaptive_archive_bytes():
    code, w0 = fam_encode([b"a", b"b", b"a"])
    data = pack_archive(ALGO_FAM, TokenizerMode.LOSSLESS, 3, w0, code)
    assert data == FAM_ABA
    assert len(data) == 16


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
    assert data == bytes.fromhex("46414e530101000302030304016101620201 04".replace(" ", ""))
    arc = unpack_archive(data)
    assert arc.algo == ALGO_RANGED
    assert arc.final_state == 3
    assert arc.freqs == [2, 1]
    assert arc.entries == [b"a", b"b"]
    assert (arc.sizes.header, arc.sizes.final_state) == (10, 1)
    assert (arc.sizes.dict_region, arc.sizes.freqs) == (5, 2)
    assert (arc.sizes.code, arc.sizes.total) == (1, 19)


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
        unpack_archive(FAM_ABA[:4] + b"\x02" + FAM_ABA[5:])
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
    freqs = StaticFrequencies({b"a": 2, b"b": 1}, 3)
    data = bytearray(
        pack_archive(
            ALGO_RANGED, TokenizerMode.LOSSLESS, 3, [b"a", b"b"],
            ByteImage(b"\x04", 3), final_state=3, freqs=freqs,
        )
    )
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
