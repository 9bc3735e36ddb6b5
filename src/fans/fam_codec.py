"""Forward-adaptive tabled-ANS coder.

The encoder walks the token stream start to end. Its coding table is the
not-yet-consumed prefix of the prepared (reversed, marker-bearing) sequence,
so the table shrinks by one slot per coded symbol and the per-symbol
frequencies count down as occurrences are used up. A token's last occurrence
is coded as the LT marker, which is also how the dictionary order reaches the
decoder. For nonempty input the encoder always finishes in state 1 with no
slots left.

The decoder runs the same arithmetic backwards: it starts from state 1,
rebuilds the prepared sequence from position 0 upward, and takes a dictionary
entry (back to front) every time it meets the marker. Next to each rebuilt
slot it keeps the slot's rank among its symbol's slots, and it keeps the
per-symbol counts, so each step's state is count + rank without a search. It
reads each renormalization shift from the packed code bytes at once. Nothing
but the code bits, the dictionary and the token count crosses the wire.

fam_encode/fam_decode are the fast paths. EncoderState/DecoderState plus
encode_step/decode_step expose one loop iteration at a time so tests can
check per-step invariants; they produce bit-identical results.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .bitio import EXPANDED_BITS, BitStack, refill
from .errors import CorruptError, EmptyStackError
from .fam_model import LT, Symbol, build_dictionary, build_indices, prepare


def _encode_core(ids: list[int], d: int) -> tuple[bytearray, int, int]:
    """Encode a stream of dictionary ids (0..d-1); the marker id is d.

    Returns (code bits in push order, final state, final slot count).
    """
    n = len(ids)
    lt = d
    # Occurrence positions in the prepared (reversed, marker-bearing)
    # sequence, collected in one reverse walk: the first sighting of a token
    # from the end is its last occurrence, and the marker goes right before
    # it, so positions simply count up as we go.
    index_lists: list[list[int]] = [[] for _ in range(d + 1)]
    marker_positions = index_lists[lt]
    seen = bytearray(d)
    pos = 0
    for tok in reversed(ids):
        if not seen[tok]:
            seen[tok] = 1
            marker_positions.append(pos)
            pos += 1
        index_lists[tok].append(pos)
        pos += 1
    f = [len(index_lists[t]) - 1 for t in range(d)]
    f.append(d)

    x = l = n + d
    bits = bytearray()
    expand = EXPANDED_BITS
    for w in ids:
        fw = f[w]
        if fw == 0:
            w = lt
            l -= 1
            fw = f[lt]
        threshold = fw + fw
        if x >= threshold:
            # Emit the low bits that bring x under 2*fw, LSB first, in one
            # or two table lookups instead of a per-bit loop.
            shift = x.bit_length() - fw.bit_length() - 1
            if shift < 0:
                shift = 0
            if (x >> shift) >= threshold:
                shift += 1
            low = x & ((1 << shift) - 1)
            x >>= shift
            while shift >= 8:
                bits += expand[8][low & 255]
                low >>= 8
                shift -= 8
            if shift:
                bits += expand[shift][low]
        x = l + index_lists[w][x - fw]
        l -= 1
        f[w] = fw - 1
    return bits, x, l


def _decode_core(code: BitStack, d: int, n: int) -> tuple[list[int], int]:
    """Decode n dictionary ids from the code bits; consumes the stack.

    Returns (ids in stream order, final state). Raises CorruptError whenever
    the bits, the dictionary size and the token count do not add up.
    """
    m = n + d
    lt = d
    x = 1
    L = 0
    # rank[q] is the number of earlier slots holding recon[q], and cnt[w] the
    # number of slots holding w so far, so a transition needs no search.
    # Grown by appends rather than preallocated: n comes off the wire, and a
    # corrupt header must not be able to demand an m-sized allocation.
    recon: list[int] = []
    rank: list[int] = []
    cnt = [0] * (d + 1)
    cursor = d
    out: list[int] = []
    image = code.drain()
    data = image.data
    pos = len(data)
    win = 0
    avail = image.bit_length - 8 * pos
    blen = 1  # bound.bit_length(), kept in step with bound = L + 1
    bnext = 2  # 1 << blen
    try:
        while L < m:
            bound = L + 1
            if bound >= bnext:
                blen += 1
                bnext += bnext
            if x < bound:
                # Take the bits that bring x up to bound's length at once;
                # at most one more is then needed to reach bound.
                k = blen - x.bit_length() or 1
                if avail < k:
                    pos, win, avail = refill(data, pos, win, avail, k)
                avail -= k
                x = (x << k) | (win >> avail)
                win &= (1 << avail) - 1
                if x < bound:
                    if not avail:
                        pos, win, avail = refill(data, pos, win, avail, 1)
                    avail -= 1
                    x = x + x + (win >> avail)
                    win &= (1 << avail) - 1
            p = x - bound
            if p > L:
                raise CorruptError("slot reference beyond rebuilt region")
            if p == L or recon[p] == lt:
                # Marker: introduces the next dictionary token (back to
                # front). The marker's own count includes the slot being
                # rebuilt, and that slot ranks last among the markers.
                c = cnt[lt]
                x = c + 1 + (c if p == L else rank[p])
                cnt[lt] = c + 1
                recon.append(lt)
                rank.append(c)
                if cursor == 0:
                    raise CorruptError("dictionary exhausted before stream end")
                if L + 2 > m:
                    raise CorruptError("prepared sequence overrun")
                cursor -= 1
                recon.append(cursor)
                rank.append(0)
                cnt[cursor] = 1
                out.append(cursor)
                L += 2
            else:
                w = recon[p]
                c = cnt[w]
                x = c + rank[p]
                cnt[w] = c + 1
                recon.append(w)
                rank.append(c)
                out.append(w)
                L += 1
        if cursor != 0:
            raise CorruptError("dictionary entries left over after stream end")
        if x < m:
            k = m.bit_length() - x.bit_length() or 1
            if avail < k:
                pos, win, avail = refill(data, pos, win, avail, k)
            avail -= k
            x = (x << k) | (win >> avail)
            win &= (1 << avail) - 1
            if x < m:
                if not avail:
                    pos, win, avail = refill(data, pos, win, avail, 1)
                avail -= 1
                x = x + x + (win >> avail)
    except EmptyStackError:
        raise CorruptError("code bits exhausted mid-decode") from None
    if x != m:
        raise CorruptError("final state does not match token count")
    if avail or pos:
        raise CorruptError("unconsumed code bits after decode")
    out.reverse()
    return out, x


def fam_encode(tokens: list[bytes]) -> tuple[BitStack, list[bytes]]:
    """Encode a token stream; returns (code bits, dictionary).

    The dictionary is ordered by last occurrence and is everything the
    decoder needs besides the bits and the token count.
    """
    if not tokens:
        return BitStack(), []
    w0 = build_dictionary(tokens)
    tok2id = {t: i for i, t in enumerate(w0)}
    ids = [tok2id[t] for t in tokens]
    bits, x, l = _encode_core(ids, len(w0))
    assert x == 1 and l == 0, "encoder did not drain to state 1"
    return BitStack(bits), w0


def fam_decode(code: BitStack, dictionary: list[bytes], n: int) -> list[bytes]:
    """Decode n tokens; consumes (and must empty) the code stack."""
    d = len(dictionary)
    if n == 0:
        if d or len(code):
            raise CorruptError("empty stream with leftover dictionary or bits")
        return []
    if d == 0 or d > n:
        raise CorruptError("dictionary size impossible for token count")
    ids, _ = _decode_core(code, d, n)
    return [dictionary[i] for i in ids]


# -- step-level interface ---------------------------------------------------


@dataclass
class EncoderState:
    """One encoder position: state, remaining slots, live frequencies, bits."""

    x: int
    l: int
    f: dict[Symbol, int]
    code: BitStack = field(default_factory=BitStack)

    @classmethod
    def initial(cls, tokens: list[bytes]) -> tuple["EncoderState", dict[Symbol, list[int]]]:
        """Build the model for a stream and return (state, index lists)."""
        w0 = build_dictionary(tokens)
        index_lists, freqs = build_indices(prepare(tokens, w0), w0)
        start = len(tokens) + len(w0)
        return cls(x=start, l=start, f=freqs), index_lists


def select_symbol(state: EncoderState, token: bytes) -> Symbol:
    """Pick the coded symbol for the next token: itself, or LT when spent.

    Choosing LT consumes the token's own slot, hence the early decrement.
    """
    if state.f[token] > 0:
        return token
    state.l -= 1
    return LT


def encode_step(state: EncoderState, w: Symbol, positions: list[int]) -> EncoderState:
    """Renormalize and take one table transition for symbol w."""
    fw = state.f[w]
    x = state.x
    threshold = fw + fw
    while x >= threshold:
        state.code.push(x & 1)
        x >>= 1
    state.x = state.l + positions[x - fw]
    state.l -= 1
    state.f[w] = fw - 1
    return state


@dataclass
class DecoderState:
    """Mirror of the encoder: rebuilt prefix, live occurrence lists, cursor."""

    x: int
    L: int
    recon: list[Symbol]
    inc: dict[Symbol, list[int]]
    dictionary: list[bytes]
    cursor: int
    code: BitStack
    output: list[bytes]

    @classmethod
    def initial(cls, code: BitStack, dictionary: list[bytes], n: int) -> "DecoderState":
        inc: dict[Symbol, list[int]] = {t: [] for t in dictionary}
        inc[LT] = []
        return cls(
            x=1,
            L=0,
            recon=[],
            inc=inc,
            dictionary=list(dictionary),
            cursor=len(dictionary),
            code=code,
            output=[],
        )


def decode_step(state: DecoderState) -> tuple[DecoderState, Symbol]:
    """Invert one encoder step; returns the coded symbol (token or LT)."""
    bound = state.L + 1
    x = state.x
    try:
        while x < bound:
            x = x + x + state.code.pop()
    except EmptyStackError:
        raise CorruptError("code bits exhausted mid-decode") from None
    p = x - bound
    if p > state.L:
        raise CorruptError("slot reference beyond rebuilt region")
    recon = state.recon
    if p == state.L or recon[p] is LT:
        lst = state.inc[LT]
        lst.append(state.L)
        k = bisect_left(lst, p)
        fcur = len(lst)
        recon.append(LT)
        if state.cursor == 0:
            raise CorruptError("dictionary exhausted before stream end")
        state.cursor -= 1
        tok = state.dictionary[state.cursor]
        recon.append(tok)
        state.inc[tok].append(state.L + 1)
        state.output.append(tok)
        state.L += 2
        symbol: Symbol = LT
    else:
        w = recon[p]
        lst = state.inc[w]
        k = bisect_left(lst, p)
        fcur = len(lst)
        recon.append(w)
        lst.append(state.L)
        state.output.append(w)
        state.L += 1
        symbol = w
    state.x = fcur + k
    return state, symbol
