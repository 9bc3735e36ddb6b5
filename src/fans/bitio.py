"""Bit-level plumbing: LIFO bit stack, byte packing and minimal varints.

The coders renormalize by pushing low bits of the state and read them back in
reverse order, so the natural container is a stack. Bits are stored packed,
LSB-first: bit i of the push order is bit i % 8 of byte i // 8. That is also
the archive layout, so pack and unpack only copy bytes, and pack_bits packs
the encoders' 0/1 bytes straight into it. Padding bits in the last byte are
always zero; every ByteImage checks that when it is made, so an archive with
nonzero padding is refused while it is parsed.

Decoders do not pop one bit at a time. They read a ByteImage, the archive's
code as it stands, from the top down through an integer window that `refill`
tops up, and leave it intact.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BadPadding, EmptyStackError, OverlongVarint, TruncatedError

# EXPANDED_BITS[s][v] is the low s bits of v as 0/1 bytes, LSB first. The
# encoders emit renormalization bits in batches through these tables instead
# of one append per bit; EXPANDED_BITS[8] also unpacks whole bytes. The
# shorter rows are prefixes of the 8-bit row, so only that row is computed.
_BYTE_BITS = [bytes((v >> i) & 1 for i in range(8)) for v in range(256)]
EXPANDED_BITS = [[bits[:s] for bits in _BYTE_BITS] for s in range(8)] + [_BYTE_BITS]

# Bytes 0 and 1 as base-2 digits; every other byte becomes an invalid digit.
_BIT_DIGITS = b"01" + b"x" * 254
_REVERSED_BYTES = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))

# Bytes moved into a decoder's read window per refill.
REFILL_BYTES = 16

# WINDOW_MASKS[a] keeps the low a bits of a read window. After any read,
# 0 <= avail < 8 * REFILL_BYTES: a read of k bits refills first when avail < k,
# and refill stops as soon as the read fits. The fam decoder may then put one
# bit back, so avail reaches 8 * REFILL_BYTES, the last entry. The encoders
# index it too, with a renormalization shift: their state stays below twice
# the table size, so shift < (2 * table_size).bit_length(), far inside the
# table for any table that fits in memory.
WINDOW_MASKS = [(1 << a) - 1 for a in range(8 * REFILL_BYTES + 1)]


def table_typecode(bound: int) -> str:
    """The array typecode for a table of values below `bound`.

    "I" (4 bytes) when every such value fits in 32 bits, else "Q" (8
    bytes). A coder's positions, ranks and states stay below twice its table
    size, so "I" serves any input that fits in memory, and a bound read from
    a hostile header gets "Q" rather than an append that overflows.
    """
    return "I" if bound <= 1 << 32 else "Q"


class BitStack:
    """A LIFO sequence of bits, stored packed LSB-first with its bit count."""

    __slots__ = ("_data", "_len")

    def __init__(self, bits=None):
        if bits is None:
            self._data = bytearray()
            self._len = 0
        elif isinstance(bits, BitStack):
            self._data = bytearray(bits._data)
            self._len = bits._len
        else:
            image = pack_bits(bits)
            self._data = bytearray(image.data)
            self._len = image.bit_length

    def push(self, bit: int) -> None:
        if bit != 0 and bit != 1:
            raise ValueError("bit values must be 0 or 1")
        n = self._len
        if not n & 7:
            self._data.append(bit)
        elif bit:
            self._data[-1] |= 1 << (n & 7)
        self._len = n + 1

    def pop(self) -> int:
        n = self._len
        if not n:
            raise EmptyStackError("pop from empty bit stack")
        n -= 1
        self._len = n
        data = self._data
        i = n & 7
        if not i:
            return data.pop()
        byte = data[-1]
        bit = (byte >> i) & 1
        if bit:
            data[-1] = byte ^ (1 << i)
        return bit

    def copy(self) -> "BitStack":
        return BitStack(self)

    def _bits01(self, limit: int) -> bytes:
        """The first `limit` bits in push order, as 0/1 bytes."""
        limit = min(limit, self._len)
        expand = EXPANDED_BITS[8]
        return b"".join([expand[b] for b in self._data[: (limit + 7) // 8]])[:limit]

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(self._bits01(self._len))

    def __eq__(self, other) -> bool:
        if isinstance(other, BitStack):
            return self._len == other._len and self._data == other._data
        return NotImplemented

    def __repr__(self) -> str:
        shown = "".join(str(b) for b in self._bits01(64))
        if self._len > 64:
            shown += "..."
        return f"BitStack({shown!r} len={self._len})"


class ByteImage(namedtuple("ByteImage", "data bit_length")):
    """Packed bits plus their exact bit count; the padding bits are zero."""

    __slots__ = ()

    def __new__(cls, data: bytes, bit_length: int):
        if bit_length < 0:
            raise ValueError("bit_length must be non-negative")
        if len(data) != (bit_length + 7) // 8:
            raise ValueError("data length does not match bit_length")
        tail = bit_length & 7
        if tail and data[-1] >> tail:
            raise BadPadding("nonzero padding bits in final byte")
        return super().__new__(cls, data, bit_length)


def pack_bits(bits) -> ByteImage:
    """Pack 0/1 values, in push order, as pack() packs a stack of them."""
    if not isinstance(bits, (bytes, bytearray)):
        bits = bytes(iter(bits))  # iter: bytes(5) would be five zeros
    # Spelled as digits, the bits are a base-2 numeral with push-order bit 0
    # first, which CPython parses in linear time. Padded with zeros to whole
    # bytes, its big-endian bytes are the packed bytes with their bit order
    # reversed.
    n = len(bits)
    nbytes = (n + 7) // 8
    try:
        value = int(bits.translate(_BIT_DIGITS), 2) if n else 0
    except ValueError:
        raise ValueError("bit values must be 0 or 1") from None
    value <<= 8 * nbytes - n
    return ByteImage(value.to_bytes(nbytes, "big").translate(_REVERSED_BYTES), n)


def pack(stack: BitStack) -> ByteImage:
    """Pack a bit stack into bytes, LSB-first, zero-padding the final byte."""
    return ByteImage(bytes(stack._data), stack._len)


def unpack(image: ByteImage) -> BitStack:
    """Reverse pack(); the image has already checked its padding."""
    stack = BitStack()
    stack._data = bytearray(image.data)
    stack._len = image.bit_length
    return stack


def refill(data: bytes, pos: int, win: int, avail: int, need: int) -> tuple[int, int, int]:
    """Top up a decoder's read window until it holds at least `need` bits.

    A decoder reads the packed bits of `data` from the top of the stack down.
    `win` holds the next `avail` bits, the next one to read as its highest
    bit, and data[:pos] holds the rest. Each step moves up to REFILL_BYTES
    more bytes from below into the window. A read starts with pos =
    len(data), win = 0 and avail = bit_length - 8 * len(data), which skips
    the zero padding. Returns the new (pos, win, avail).

    Raises EmptyStackError when the bits run out first.
    """
    while avail < need:
        if not pos:
            raise EmptyStackError("code bits exhausted")
        lo = pos - REFILL_BYTES if pos > REFILL_BYTES else 0
        win = (win << ((pos - lo) << 3)) | int.from_bytes(data[lo:pos], "little")
        avail += (pos - lo) << 3
        pos = lo
    return pos, win, avail


# Varints are unsigned LEB128, minimal form only: 7 value bits per byte,
# continuation in the high bit, and the final byte may be zero only when it
# is the whole encoding.

_VARINT_MAX_BYTES = 10  # enough for any 64-bit value


def put_varint(out: bytearray, value: int) -> None:
    """Append value's varint to out."""
    if value < 0:
        raise ValueError("varints are unsigned")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(data, pos: int = 0) -> tuple[int, int]:
    """Read one varint from data[pos:]; returns (value, bytes consumed)."""
    value = 0
    shift = 0
    consumed = 0
    while True:
        if pos + consumed >= len(data):
            raise TruncatedError("varint runs past end of input")
        if consumed >= _VARINT_MAX_BYTES:
            raise OverlongVarint("varint longer than 10 bytes")
        byte = data[pos + consumed]
        value |= (byte & 0x7F) << shift
        consumed += 1
        if not byte & 0x80:
            if byte == 0 and consumed > 1:
                raise OverlongVarint("varint has redundant trailing zero group")
            return value, consumed
        shift += 7
