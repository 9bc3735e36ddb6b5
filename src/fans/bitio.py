"""Bit-level plumbing: packed bit strings, their packing and decoder reads.

The coders renormalize by pushing low bits of the state, and the decoder
reads them back from the end, so a code is one bit string read from the top
down. A ByteImage holds it packed, LSB-first: bit i of the push order is bit
i % 8 of byte i // 8. That is also the archive layout, and pack_bits packs
the encoders' 0/1 bytes straight into it. Padding bits in the last byte are
always zero; every ByteImage checks that when it is made, so an archive with
nonzero padding is refused while it is parsed.

Decoders read a ByteImage, the archive's code as it stands, from the top
down through an integer window that `refill` tops up, and leave it intact.
Every other archive byte, varints included, is the container's.
"""

from __future__ import annotations

from .errors import BadPadding, CorruptError

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


class ByteImage:
    """Packed bits plus their exact bit count; the padding bits are zero.

    len() is the bit count, and iteration yields the bits in push order.
    """

    __slots__ = ("data", "bit_length")

    def __init__(self, data: bytes, bit_length: int):
        if bit_length < 0:
            raise ValueError("bit_length must be non-negative")
        if len(data) != (bit_length + 7) // 8:
            raise ValueError("data length does not match bit_length")
        tail = bit_length & 7
        if tail and data[-1] >> tail:
            raise BadPadding("nonzero padding bits in final byte")
        self.data = data
        self.bit_length = bit_length

    def __len__(self) -> int:
        return self.bit_length

    def __iter__(self):
        expand = EXPANDED_BITS[8]
        return iter(b"".join([expand[b] for b in self.data])[: self.bit_length])

    def __eq__(self, other) -> bool:
        if isinstance(other, ByteImage):
            return self.bit_length == other.bit_length and self.data == other.data
        return NotImplemented

    def __repr__(self) -> str:
        shown = repr(self.data[:8]) + ("..." if len(self.data) > 8 else "")
        return f"ByteImage({shown}, {self.bit_length})"


def pack_bits(bits) -> ByteImage:
    """Pack 0/1 values, in push order, LSB-first into zero-padded bytes."""
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


def pack(image: ByteImage) -> ByteImage:
    """The image itself, kept only for perfbench/tracing.py; it goes with the token wrappers."""
    return image


def unpack(image: ByteImage) -> ByteImage:
    """The image itself, kept only for perfbench/tracing.py; it goes with the token wrappers."""
    return image


def refill(data: bytes, pos: int, win: int, avail: int, need: int) -> tuple[int, int, int]:
    """Top up a decoder's read window until it holds at least `need` bits.

    A decoder reads the packed bits of `data` from the top down.
    `win` holds the next `avail` bits, the next one to read as its highest
    bit, and data[:pos] holds the rest. Each step moves up to REFILL_BYTES
    more bytes from below into the window. A read starts with pos =
    len(data), win = 0 and avail = bit_length - 8 * len(data), which skips
    the zero padding. Returns the new (pos, win, avail).

    Raises CorruptError when the bits run out first.
    """
    while avail < need:
        if not pos:
            raise CorruptError("code bits exhausted mid-decode")
        lo = pos - REFILL_BYTES if pos > REFILL_BYTES else 0
        win = (win << ((pos - lo) << 3)) | int.from_bytes(data[lo:pos], "little")
        avail += (pos - lo) << 3
        pos = lo
    return pos, win, avail

