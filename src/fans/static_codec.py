"""Static tabled-ANS baselines over exact frequencies.

The table size equals the token count (no power-of-two quantization), so the
slot population is exactly the frequency census. The table is the spread
itself: a list whose entry j is the symbol that owns slot j. Three spread
strategies are offered: contiguous blocks in dictionary order (ranged), a
priority-queue interleave that spaces each symbol's slots evenly (uniform),
and the reversed text itself (text_order). All three share the coding loops;
they differ only in where each symbol's slots sit.

The core works on ids in any numbering: build_spread_ids takes a census as
a list of counts indexed by id, plus the ids in dictionary order, so each
slot gets the owner it has under dictionary numbering. static_encode_ids and
static_decode_ids code ids with that census; the decoder returns them back
to front, as it finds them. The token-keyed build_spread, static_encode and
static_decode number the tokens (build_spread in dictionary order, the
coders in the order of freqs.counts), call the id functions and map the
result back, so each spread and each loop has one implementation; the coders
trade the code as a ByteImage. They take plain lists and an empty stream
codes through the same path, to no bits and final state 0. They and
count_frequencies serve only the tests and perfbench/tracing.py, and go once
that replay records through the pipeline.

Keys in the uniform queue are the exact rationals (2k+1)/(2*count); they are
compared by cross-multiplication, never as floats, with ties going to the
smaller dictionary index. The text_order spread exists for size and timing
comparisons: its table is the reversed input, which no archive holds, so the
benchmark codes with it but no archive is written with it.

Each direction derives its table from the spread in one pass, into
arrays of 4 bytes a slot (8 past 2**31 slots; see bitio.table_typecode), not
lists, which would hold a 28-byte int for most entries. array is imported
inside the coders, so loading this module does not load it.

The encoder collects, for each id, the states its slots lead to, total + j
for slot j in ascending order, so a step ends with x = slots[s][x - c]. Its
state x stays in [total, 2*total) between steps, and a symbol's count c is at
most total, so c <= x. Each step's renormalization shift, the one that brings
x into [c, 2*c), is the bit length of x // c less one (x >> s is in [c, 2*c)
exactly when x // c is in [2**s, 2**(s+1))). It is therefore never negative,
and no step tests whether it emits anything.

The decoder turns the spread into the classic tANS decode table: slot j gives
its symbol and the state before the slot was taken, which is the symbol's
count plus the slot's rank among that symbol's slots. Walking the spread with
running counts gives those states directly. Each renormalization shift is
read from the code's ByteImage at once; the image is left intact.
"""

from __future__ import annotations

import enum
import heapq
from collections import Counter, namedtuple

from .bitio import EXPANDED_BITS, WINDOW_MASKS, ByteImage, pack_bits, refill, table_typecode
from .errors import CorruptError


class StaticFrequencies(namedtuple("StaticFrequencies", "counts total")):
    """Exact occurrence counts; total doubles as the table size."""

    __slots__ = ()

    def __new__(cls, counts: dict[bytes, int], total: int):
        if any(c <= 0 for c in counts.values()):
            raise ValueError("frequencies must be positive")
        if sum(counts.values()) != total:
            raise ValueError("frequencies do not sum to the total")
        return super().__new__(cls, counts, total)


def count_frequencies(tokens: list[bytes], dictionary: list[bytes]) -> StaticFrequencies:
    counts = Counter(tokens)
    if set(counts) != set(dictionary):
        raise ValueError("dictionary does not match the token stream")
    return StaticFrequencies(dict(counts), len(tokens))


class SpreadStrategy(enum.Enum):
    RANGED = "ranged"
    UNIFORM = "uniform"
    TEXT_ORDER = "textorder"


class _SlotKey:
    """Heap entry for the uniform spread: the rational num/den plus order."""

    __slots__ = ("num", "den", "order")

    def __init__(self, num, den, order):
        self.num = num
        self.den = den
        self.order = order

    def __lt__(self, other):
        a = self.num * other.den
        b = other.num * self.den
        if a != b:
            return a < b
        return self.order < other.order


def _ranged_spread(pairs):
    # Sized up front: a list grown by extends keeps spare slots, as many as
    # the growth pattern, and so the dictionary order, happens to leave.
    spread = [None] * sum(c for _, c in pairs)
    pos = 0
    for sym, count in pairs:
        spread[pos : pos + count] = [sym] * count
        pos += count
    return spread


def _uniform_spread(pairs):
    # Deliberately a priority queue, the construction the paper's static
    # baseline pays for: acceptance 6 times this build against the adaptive
    # coder. Sorting all the keys at once gives the same slots about 4.6x
    # faster on a large dictionary, but takes that ratio below its 3x floor.
    total = sum(c for _, c in pairs)
    symbols = [sym for sym, _ in pairs]
    heap = [_SlotKey(1, c + c, i) for i, (_, c) in enumerate(pairs)]
    heapq.heapify(heap)
    spread = [None] * total
    for j in range(total):
        key = heap[0]
        spread[j] = symbols[key.order]
        if key.num + 2 < key.den:
            key.num += 2
            heapq.heapreplace(heap, key)
        else:
            heapq.heappop(heap)
    return spread


def build_spread_ids(
    strategy: SpreadStrategy,
    counts: list[int],
    order: list[int] | range,
    ids: list[int] | None = None,
) -> list[int]:
    """The spread over ids 0..d-1: entry j is the id owning slot j.

    Id i occurs counts[i] times, and order lists the ids in dictionary order,
    which places the ranged blocks and breaks the uniform spread's ties. The
    text-order spread is the reversed id stream itself, so it needs `ids`.
    """
    if strategy is SpreadStrategy.TEXT_ORDER:
        if ids is None:
            raise ValueError("text_order spread needs the id stream")
        return ids[::-1]
    pairs = [(i, counts[i]) for i in order]
    if strategy is SpreadStrategy.RANGED:
        return _ranged_spread(pairs)
    if strategy is SpreadStrategy.UNIFORM:
        return _uniform_spread(pairs)
    raise ValueError(f"unknown spread strategy: {strategy!r}")


def static_encode_ids(
    ids: list[int], spread: list[int], counts: list[int]
) -> tuple[bytearray, int]:
    """Code an id stream with the spread; the table size is len(ids).

    Returns (code bits as 0/1 bytes in push order, final state); an empty
    stream yields no bits and final state 0.
    """
    from array import array

    total = len(ids)
    # slots[s] holds the state each of s's slots leads to, total + j, in
    # ascending order.
    tc = table_typecode(2 * total)
    slots = [array(tc) for _ in counts]
    for x, s in enumerate(spread, total):
        slots[s].append(x)
    x = total
    bits = bytearray()
    expand = EXPANDED_BITS
    masks = WINDOW_MASKS
    for s in ids:
        c = counts[s]
        # Emit the low bits that bring x into [c, 2*c), LSB first, batched
        # through the expansion table instead of a per-bit loop. c <= x, so
        # the shift is never negative; a shift of 0 appends b"".
        shift = (x // c).bit_length() - 1
        low = x & masks[shift]
        x >>= shift
        while shift > 8:
            bits += expand[8][low & 255]
            low >>= 8
            shift -= 8
        bits += expand[shift][low]
        x = slots[s][x - c]
    return bits, x


def static_decode_ids(
    image: ByteImage, final_state: int, spread: list[int], counts: list[int], n: int
) -> list[int]:
    """Decode n ids with the spread; the code must be used up.

    Returns the ids back to front, in the order the decoder finds them.
    Raises CorruptError whenever the bits, the final state, the spread and
    the count do not add up.
    """
    if n == 0:
        if final_state != 0 or image.bit_length:
            raise CorruptError("empty stream with leftover state or bits")
        return []
    total = len(spread)
    if total != n:
        raise CorruptError("frequency total does not match the token count")
    if not total <= final_state < 2 * total:
        raise CorruptError("final state outside the table range")
    from array import array

    # The tANS decode table: the state before slot j was taken is the slot's
    # symbol count plus its rank among that symbol's slots.
    state = list(counts)
    nxt = array(table_typecode(2 * total))
    for s in spread:
        c = state[s]
        nxt.append(c)
        state[s] = c + 1
    del state
    tlen = total.bit_length()
    x = final_state
    # Sized up front, as the spread already is: a list grown by appends
    # would end with up to an eighth of its slots spare.
    out = [0] * n
    data = image.data
    pos = len(data)
    win = 0
    avail = image.bit_length - 8 * pos
    masks = WINDOW_MASKS
    for i in range(n):
        j = x - total
        out[i] = spread[j]
        x = nxt[j]
        if x < total:
            # Take the bits that bring x up to total's length at once; at
            # most one more is then needed to reach total.
            k = tlen - x.bit_length() or 1
            if avail < k:
                pos, win, avail = refill(data, pos, win, avail, k)
            avail -= k
            x = (x << k) | (win >> avail)
            win &= masks[avail]
            if x < total:
                if not avail:
                    pos, win, avail = refill(data, pos, win, avail, 1)
                avail -= 1
                x = x + x + (win >> avail)
                win &= masks[avail]
    if x != total:
        raise CorruptError("state did not drain to the table size")
    if avail or pos:
        raise CorruptError("unconsumed code bits after decode")
    return out


def _look_up(keys: list, table) -> list:
    """table[k] for each k in keys: tokens to ids through a dict, or back through a list."""
    return list(map(table.__getitem__, keys))


def build_spread(
    strategy: SpreadStrategy,
    freqs: StaticFrequencies,
    dictionary: list[bytes],
    tokens: list[bytes] | None = None,
) -> list[bytes]:
    """build_spread_ids over tokens, numbered in dictionary order."""
    ids = None
    if strategy is SpreadStrategy.TEXT_ORDER and tokens is not None:
        # Only the text-order spread reads the stream.
        ids = _look_up(tokens, {t: i for i, t in enumerate(dictionary)})
    counts = [freqs.counts[t] for t in dictionary]
    spread = build_spread_ids(strategy, counts, range(len(counts)), ids)
    return _look_up(spread, dictionary)


def static_encode(
    tokens: list[bytes], spread: list[bytes], freqs: StaticFrequencies
) -> tuple[ByteImage, int]:
    """static_encode_ids over tokens; returns (code bits, final state)."""
    if freqs.total != len(tokens):
        raise ValueError("frequency total does not match the token count")
    index = {t: i for i, t in enumerate(freqs.counts)}
    counts = list(freqs.counts.values())
    bits, x = static_encode_ids(_look_up(tokens, index), _look_up(spread, index), counts)
    return pack_bits(bits), x


def static_decode(
    code: ByteImage, final_state: int, spread: list[bytes], freqs: StaticFrequencies, n: int
) -> list[bytes]:
    """static_decode_ids over tokens; the code must be used up."""
    keys = list(freqs.counts)
    index = {t: i for i, t in enumerate(keys)}
    counts = list(freqs.counts.values())
    ids = static_decode_ids(code, final_state, _look_up(spread, index), counts, n)
    return _look_up(reversed(ids), keys)
