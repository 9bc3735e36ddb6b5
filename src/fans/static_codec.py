"""Static tabled-ANS baselines over exact frequencies.

The table size equals the token count (no power-of-two quantization), so the
slot population is exactly the frequency census. Three spread strategies are
offered: contiguous blocks in dictionary order (ranged), a priority-queue
interleave that spaces each symbol's slots evenly (uniform), and the reversed
text itself as the table (text_order). All three share the coding loop; they
differ only in where each symbol's slots sit. The library codes ids; the
token-keyed count_frequencies, static_encode and static_decode (and
build_spread over tokens) serve only the tests and perfbench/tracing.py, and
go once that replay records through the pipeline.

Keys in the uniform queue are the exact rationals (2k+1)/(2*count); they are
compared by cross-multiplication, never as floats, with ties going to the
smaller dictionary index. The text_order spread exists for size and timing
comparisons: its table is the reversed input, so it cannot be rebuilt from an
archive alone.

The encoder's state x stays in [total, 2*total) between steps, and a
symbol's count c is at most total, so c <= x. Each step's renormalization
shift, the one that brings x into [c, 2*c), is therefore never negative and
comes from the bit lengths alone, with no test for whether the step emits
anything.

The decoder turns the spread into the classic tANS decode table: slot j gives
its symbol and the state before the slot was taken, which is the symbol's
count plus the slot's rank among that symbol's slots. Each renormalization
shift is read from the packed code bytes at once.
"""

from __future__ import annotations

import enum
import heapq
from collections import Counter, namedtuple

from .bitio import EXPANDED_BITS, WINDOW_MASKS, BitStack, refill
from .errors import CorruptError, EmptyInputError, EmptyStackError


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


SpreadTable = namedtuple("SpreadTable", "spread slots")
SpreadTable.__doc__ = "Slot assignment: spread[j] is the symbol owning slot j."


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
    spread = []
    slots = {}
    start = 0
    for sym, count in pairs:
        slots[sym] = list(range(start, start + count))
        spread.extend([sym] * count)
        start += count
    return SpreadTable(spread, slots)


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
    slots = {sym: [] for sym in symbols}
    for j in range(total):
        key = heap[0]
        sym = symbols[key.order]
        spread[j] = sym
        slots[sym].append(j)
        if key.num + 2 < key.den:
            key.num += 2
            heapq.heapreplace(heap, key)
        else:
            heapq.heappop(heap)
    return SpreadTable(spread, slots)


def _text_order_spread(tokens):
    spread = list(tokens)
    spread.reverse()
    slots = {}
    for j, sym in enumerate(spread):
        slots.setdefault(sym, []).append(j)
    return SpreadTable(spread, slots)


def build_spread(
    strategy: SpreadStrategy,
    freqs: StaticFrequencies,
    dictionary: list[bytes],
    tokens: list[bytes] | None = None,
) -> SpreadTable:
    """Assign table slots to symbols; table size is freqs.total."""
    if freqs.total == 0:
        raise EmptyInputError("cannot build a spread over zero tokens")
    if strategy is SpreadStrategy.TEXT_ORDER:
        if tokens is None:
            raise ValueError("text_order spread needs the token stream")
        return _text_order_spread(tokens)
    pairs = [(t, freqs.counts[t]) for t in dictionary]
    if strategy is SpreadStrategy.RANGED:
        return _ranged_spread(pairs)
    if strategy is SpreadStrategy.UNIFORM:
        return _uniform_spread(pairs)
    raise ValueError(f"unknown spread strategy: {strategy!r}")


def static_encode_ids(ids, table: SpreadTable, counts) -> tuple[bytearray, int]:
    """Code a nonempty stream with the table; the table size is len(ids).

    Symbols index counts and table.slots, so ids with lists and tokens with
    dicts both work. Returns (code bits as 0/1 bytes in push order, final
    state).
    """
    total = len(ids)
    x = total
    slots = table.slots
    bits = bytearray()
    expand = EXPANDED_BITS
    masks = WINDOW_MASKS
    for s in ids:
        c = counts[s]
        # Emit the low bits that bring x into [c, 2*c), LSB first, batched
        # through the expansion table instead of a per-bit loop. c <= x, so
        # the shift is never negative; a shift of 0 appends b"".
        shift = x.bit_length() - c.bit_length()
        if (x >> shift) < c:
            shift -= 1
        low = x & masks[shift]
        x >>= shift
        while shift > 8:
            bits += expand[8][low & 255]
            low >>= 8
            shift -= 8
        bits += expand[shift][low]
        x = total + slots[s][x - c]
    return bits, x


def static_decode_ids(
    code: BitStack, final_state: int, table: SpreadTable | None, counts, n: int
) -> list:
    """Decode n symbols with the table; consumes (and must empty) the stack.

    Symbols are keyed as in static_encode_ids. Raises CorruptError whenever
    the bits, the final state, the table and the count do not add up.
    """
    if n == 0:
        if final_state != 0 or len(code):
            raise CorruptError("empty stream with leftover state or bits")
        return []
    if table is None or counts is None:
        raise ValueError("nonempty stream needs a spread table and frequencies")
    spread = table.spread
    total = len(spread)
    if total != n:
        raise CorruptError("frequency total does not match the token count")
    if not total <= final_state < 2 * total:
        raise CorruptError("final state outside the table range")
    # The tANS decode table: the state before slot j was taken is the slot's
    # symbol count plus its rank among that symbol's slots.
    nxt = [0] * total
    for s, lst in table.slots.items():
        for state, j in enumerate(lst, counts[s]):
            nxt[j] = state
    tlen = total.bit_length()
    x = final_state
    out = []
    emit = out.append
    image = code.drain()
    data = image.data
    pos = len(data)
    win = 0
    avail = image.bit_length - 8 * pos
    masks = WINDOW_MASKS
    try:
        for _ in range(n):
            j = x - total
            emit(spread[j])
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
    except EmptyStackError:
        raise CorruptError("code bits exhausted mid-decode") from None
    if x != total:
        raise CorruptError("state did not drain to the table size")
    if avail or pos:
        raise CorruptError("unconsumed code bits after decode")
    out.reverse()
    return out


def static_encode(
    tokens: list[bytes], table: SpreadTable | None, freqs: StaticFrequencies | None
) -> tuple[BitStack, int]:
    """Encode with a fixed table; returns (code bits, final state).

    Empty input needs no table and yields final state 0 as a sentinel.
    """
    if not tokens:
        return BitStack(), 0
    if table is None or freqs is None:
        raise ValueError("nonempty input needs a spread table and frequencies")
    if freqs.total != len(tokens):
        raise ValueError("frequency total does not match the token count")
    bits, x = static_encode_ids(tokens, table, freqs.counts)
    return BitStack(bits), x


def static_decode(
    code: BitStack,
    final_state: int,
    table: SpreadTable | None,
    freqs: StaticFrequencies | None,
    n: int,
) -> list[bytes]:
    """Decode n tokens; consumes (and must empty) the code stack."""
    return static_decode_ids(code, final_state, table, None if freqs is None else freqs.counts, n)
