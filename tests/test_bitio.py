"""Byte images, bit packing, decoder reads, and round trips through the
container's varint codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fans.bitio import (
    REFILL_BYTES,
    WINDOW_MASKS,
    ByteImage,
    pack_bits,
    refill,
    table_typecode,
)
from fans.container import read_varints, varints
from fans.errors import BadPadding, CorruptError, OverlongVarint, TruncatedError


def test_pack_known_vectors():
    img = pack_bits([1, 0, 0, 1, 0])
    assert img.data == b"\x09"
    assert img.bit_length == 5

    img = pack_bits([])
    assert img.data == b""
    assert img.bit_length == 0

    img = pack_bits([1] * 9)
    assert img.data == b"\xff\x01"
    assert img.bit_length == 9


def test_pack_bits_known_vectors():
    # The images the per-bit stack packed to before pack_bits existed.
    assert pack_bits([]) == ByteImage(b"", 0)
    assert pack_bits([1]) == ByteImage(b"\x01", 1)
    assert pack_bits([0]) == ByteImage(b"\x00", 1)
    assert pack_bits([1, 0, 1, 1, 0, 0, 1, 0]) == ByteImage(b"\x4d", 8)
    assert pack_bits([0, 1, 1, 0, 1, 0, 0, 1, 1]) == ByteImage(b"\x96\x01", 9)


def test_pack_bits_takes_lists_and_bytes_alike():
    bits = [1, 0, 0, 1, 0, 1, 1, 1, 0, 1]
    assert pack_bits(bits) == pack_bits(bytes(bits)) == pack_bits(bytearray(bits))


def test_push_rejects_non_bits():
    with pytest.raises(ValueError):
        pack_bits([1, 2, 0])
    # ASCII digits, separators and spaces must not pass as bits either.
    for bad in (b"\x02", b"01", b"\x00_\x01", b" \x01"):
        with pytest.raises(ValueError):
            pack_bits(bad)


def test_byte_image_iterates_and_counts_its_bits():
    assert list(ByteImage(b"\x09", 5)) == [1, 0, 0, 1, 0]
    assert list(ByteImage(b"", 0)) == []
    assert len(ByteImage(b"\xff\x01", 9)) == 9


def test_unpack_rejects_nonzero_padding():
    with pytest.raises(BadPadding):
        ByteImage(b"\x89", 5)


def test_byte_image_validates_lengths():
    with pytest.raises(ValueError):
        ByteImage(b"\x00\x00", 5)
    with pytest.raises(ValueError):
        ByteImage(b"", 3)
    with pytest.raises(ValueError):
        ByteImage(b"", -1)


def test_window_masks_keep_the_low_bits():
    # One entry past a full refill: the fam decoder can put a read's last
    # bit back into a window that a refill has just filled.
    assert len(WINDOW_MASKS) == 8 * REFILL_BYTES + 1
    for a, mask in enumerate(WINDOW_MASKS):
        assert mask == (1 << a) - 1


def test_table_typecode_edges():
    from array import array

    assert table_typecode(1) == "I"
    assert table_typecode(1 << 32) == "I"
    assert table_typecode((1 << 32) + 1) == "Q"
    # "I" must hold every value below its largest bound.
    table = array(table_typecode(1 << 32))
    assert table.itemsize * 8 >= 32
    table.append((1 << 32) - 1)
    assert table[0] == (1 << 32) - 1


def test_refill_leaves_avail_in_mask_range():
    # A decoder reads `need` bits after refill and then indexes WINDOW_MASKS
    # with avail - need, so that must land in [0, 8 * REFILL_BYTES).
    import random

    rng = random.Random(7)
    data = bytes(rng.getrandbits(8) for _ in range(3 * REFILL_BYTES))
    for need in range(1, 73):
        for start in range(need):
            win = rng.getrandbits(start)
            pos, new_win, avail = refill(data, len(data), win, start, need)
            assert 0 <= avail - need < 8 * REFILL_BYTES
            assert new_win >> (avail - start) == win
            assert new_win < 1 << avail
            assert 8 * pos + avail == 8 * len(data) + start


def test_refill_past_the_end_raises():
    data = bytes(3)
    assert refill(data, len(data), 0, 0, 24) == (0, 0, 24)
    with pytest.raises(CorruptError, match="code bits exhausted mid-decode"):
        refill(data, len(data), 0, 0, 25)
    with pytest.raises(CorruptError):
        refill(data, 0, 0b101, 3, 4)


def test_varint_known_vectors():
    assert varints([5]) == b"\x05"
    assert varints([0]) == b"\x00"
    assert varints([300]) == b"\xac\x02"
    assert varints([5, 0, 300, 1]) == b"\x05\x00\xac\x02\x01"  # one run, inline, a run
    assert read_varints(b"\x05", 0, 1) == ([5], 1)
    assert read_varints(b"\xac\x02", 0, 1) == ([300], 2)
    assert read_varints(b"\x05\x00\xac\x02\x01", 0, 4) == ([5, 0, 300, 1], 5)


def test_varint_reads_at_offset():
    assert read_varints(b"\xff\xac\x02", 1, 1) == ([300], 3)


def test_varint_truncated():
    with pytest.raises(TruncatedError):
        read_varints(b"\x80", 0, 1)
    with pytest.raises(TruncatedError):
        read_varints(b"", 0, 1)
    with pytest.raises(TruncatedError):
        read_varints(b"\x05", 0, 2)


def test_varint_rejects_overlong():
    # A redundant trailing zero group encodes the same value in more bytes.
    with pytest.raises(OverlongVarint):
        read_varints(b"\x85\x00", 0, 1)
    with pytest.raises(OverlongVarint):
        read_varints(b"\x80" * 10 + b"\x01", 0, 1)


def test_varint_rejects_negative():
    with pytest.raises(ValueError):
        varints([-1])


@given(st.lists(st.integers(0, 1), max_size=4096))
def test_pack_unpack_round_trip(bits):
    image = pack_bits(bits)
    assert list(image) == bits
    assert len(image) == len(bits)
    assert pack_bits(image) == image


@given(st.lists(st.integers(0, 1), max_size=300))
@settings(max_examples=100, deadline=None)
def test_pack_bits_matches_bits_pushed_into_an_integer(bits):
    # The bits, pushed one at a time into an integer LSB-first, give the
    # image's bytes; the image unpacks back to the same bit list.
    value = 0
    for i, b in enumerate(bits):
        value |= b << i
    pushed = ByteImage(value.to_bytes((len(bits) + 7) // 8, "little"), len(bits))
    assert pushed == pack_bits(bits)
    assert list(pushed) == bits


@given(st.integers(0, 2**64 - 1))
def test_varint_round_trip(value):
    encoded = varints([value])
    assert read_varints(encoded, 0, 1) == ([value], len(encoded))


@given(
    st.binary(max_size=8),
    st.lists(st.one_of(st.integers(0, 0x7F), st.integers(0, 2**64 - 1)), max_size=40),
    st.binary(max_size=8),
)
def test_varint_runs_stop_at_count(prefix, values, tail):
    # One-byte runs are matched at once; the read must still stop after
    # `count` values and leave the tail, whatever its bytes, unread.
    encoded = varints(values)
    data = prefix + encoded + tail
    assert read_varints(data, len(prefix), len(values)) == (values, len(prefix) + len(encoded))


@settings(max_examples=20)
@given(st.binary(max_size=2048))
def test_pack_output_padding_is_zero(data):
    # Any 0/1 list packs to an image whose padding bits are zero, so
    # ByteImage never rejects our own output.
    bits = [b & 1 for b in data]
    img = pack_bits(bits)
    assert ByteImage(img.data, img.bit_length) == img
    assert list(img) == bits


def test_million_bit_round_trip():
    import random

    rng = random.Random(1)
    bits = bytes(rng.getrandbits(1) for _ in range(10**6))
    image = pack_bits(bits)
    assert bytes(image) == bits
    assert pack_bits(image) == image
