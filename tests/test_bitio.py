"""Bit stack, byte packing, and varint round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fans.bitio import (
    REFILL_BYTES,
    WINDOW_MASKS,
    BitStack,
    ByteImage,
    pack,
    put_varint,
    read_varint,
    refill,
    unpack,
)
from fans.errors import BadPadding, EmptyStackError, OverlongVarint, TruncatedError


def test_push_appends_at_tail():
    s = BitStack()
    s.push(1)
    assert list(s) == [1]
    s = BitStack([1, 0])
    s.push(0)
    assert list(s) == [1, 0, 0]


def test_pop_is_lifo():
    s = BitStack([1, 0, 0, 1, 0])
    assert s.pop() == 0
    assert list(s) == [1, 0, 0, 1]
    s = BitStack([1])
    assert s.pop() == 1
    assert len(s) == 0


def test_pop_empty_raises():
    with pytest.raises(EmptyStackError):
        BitStack().pop()


def test_push_rejects_non_bits():
    s = BitStack()
    with pytest.raises(ValueError):
        s.push(2)
    # ASCII digits, separators and spaces must not pass as bits either.
    for bad in (b"\x02", b"01", b"\x00_\x01", b" \x01"):
        with pytest.raises(ValueError):
            BitStack(bad)


def test_pack_known_vectors():
    img = pack(BitStack([1, 0, 0, 1, 0]))
    assert img.data == b"\x09"
    assert img.bit_length == 5

    img = pack(BitStack())
    assert img.data == b""
    assert img.bit_length == 0

    img = pack(BitStack([1] * 9))
    assert img.data == b"\xff\x01"
    assert img.bit_length == 9


def test_drain_hands_over_packed_bits():
    s = BitStack([1, 0, 0, 1, 0])
    assert s.drain() == ByteImage(b"\x09", 5)
    assert len(s) == 0 and s.drain() == ByteImage(b"", 0)


def test_unpack_known_vectors():
    assert list(unpack(ByteImage(b"\x09", 5))) == [1, 0, 0, 1, 0]
    assert list(unpack(ByteImage(b"", 0))) == []


def test_unpack_rejects_nonzero_padding():
    with pytest.raises(BadPadding):
        unpack(ByteImage(b"\x89", 5))


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


def _varint(value: int) -> bytes:
    out = bytearray()
    put_varint(out, value)
    return bytes(out)


def test_varint_known_vectors():
    assert _varint(5) == b"\x05"
    assert _varint(0) == b"\x00"
    assert _varint(300) == b"\xac\x02"
    out = bytearray(b"x")
    put_varint(out, 300)
    assert out == b"x\xac\x02"  # appends
    assert read_varint(b"\x05") == (5, 1)
    assert read_varint(b"\xac\x02") == (300, 2)


def test_varint_reads_at_offset():
    assert read_varint(b"\xff\xac\x02", 1) == (300, 2)


def test_varint_truncated():
    with pytest.raises(TruncatedError):
        read_varint(b"\x80")
    with pytest.raises(TruncatedError):
        read_varint(b"")


def test_varint_rejects_overlong():
    # A redundant trailing zero group encodes the same value in more bytes.
    with pytest.raises(OverlongVarint):
        read_varint(b"\x85\x00")
    with pytest.raises(OverlongVarint):
        read_varint(b"\x80" * 10 + b"\x01")


def test_varint_rejects_negative():
    with pytest.raises(ValueError):
        _varint(-1)


@given(st.lists(st.integers(0, 1), max_size=4096))
def test_pack_unpack_round_trip(bits):
    stack = BitStack(bits)
    assert list(unpack(pack(stack))) == bits


@given(st.integers(0, 2**64 - 1))
def test_varint_round_trip(value):
    encoded = _varint(value)
    assert read_varint(encoded) == (value, len(encoded))


@given(st.lists(st.integers(0, 1), max_size=256))
def test_lifo_order(bits):
    s = BitStack()
    for b in bits:
        s.push(b)
    popped = [s.pop() for _ in range(len(bits))]
    assert popped == bits[::-1]


@given(st.lists(st.one_of(st.integers(0, 1), st.none()), max_size=300))
def test_interleaved_push_pop_matches_a_list(ops):
    # None is a pop. The packed bytes, padding included, must match a stack
    # built from the surviving bits.
    s, model = BitStack(), []
    for op in ops:
        if op is None:
            if model:
                assert s.pop() == model.pop()
        else:
            s.push(op)
            model.append(op)
    assert list(s) == model
    assert s == BitStack(model)
    assert list(unpack(pack(s))) == model


@settings(max_examples=20)
@given(st.binary(max_size=2048))
def test_pack_output_padding_is_zero(data):
    # Any stack built from 0/1 bytes packs to an image whose padding bits
    # are zero, so unpack never rejects our own output.
    bits = [b & 1 for b in data]
    img = pack(BitStack(bits))
    assert list(unpack(img)) == bits


def test_million_bit_round_trip():
    import random

    rng = random.Random(1)
    bits = bytes(rng.getrandbits(1) for _ in range(10**6))
    stack = BitStack(bits)
    assert unpack(pack(stack)) == stack
