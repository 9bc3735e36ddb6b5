"""Step-level reference for the adaptive coder, for tests only.

fam_dictionary/prepare/build_indices spell out the adaptive model: the
dictionary (the distinct tokens by last occurrence), the prepared sequence
(the token stream with the LT marker after each last occurrence, reversed)
and each symbol's occurrence positions in it. EncoderState/DecoderState plus
encode_step/decode_step run one loop iteration at a time so tests can check
per-step invariants. oracle_fam_decode is the whole decode as a loop over
decode_step: one bisect per symbol for a rank and one pop per code bit, the
loop the fast core replaced. It raises the core's CorruptError messages.
HAND_TRACES are the coder's three frozen hand-trace vectors, the one copy
the tests share.

The oracles keep their code bits in a plain list in push order: encoders
append, and decoders pop() from the end.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from fans.errors import CorruptError


class _LastTokenMarker:
    """Singleton marker standing in for a token's last occurrence."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "lt"


LT = _LastTokenMarker()

Symbol = Hashable  # a token (bytes) or the LT marker

# The adaptive coder's hand traces: (tokens, code bits in push order, dictionary).
HAND_TRACES = [
    ([b"a", b"b", b"a"], [1, 0, 0, 1, 0], [b"b", b"a"]),
    ([b"a", b"a"], [1, 0, 0], [b"a"]),
    ([b"a"], [0], [b"a"]),
]


def fam_dictionary(tokens: Sequence[Hashable]) -> list:
    """The distinct tokens (or ids) ordered by last occurrence, earliest first."""
    last = {tok: pos for pos, tok in enumerate(tokens)}
    return sorted(last, key=last.__getitem__)


def prepare(tokens: Sequence[bytes], dictionary: Sequence[bytes]) -> list[Symbol]:
    """Insert LT after each last occurrence, then reverse the sequence."""
    out: list[Symbol] = []
    seen = set()
    for tok in reversed(tokens):
        if tok not in seen:
            seen.add(tok)
            out.append(LT)
        out.append(tok)
    return out


def build_indices(
    prepared: Sequence[Symbol], dictionary: Sequence[bytes]
) -> tuple[dict[Symbol, list[int]], dict[Symbol, int]]:
    """Occurrence positions in the prepared sequence, plus start frequencies.

    Each dictionary token's frequency is one less than its occurrence count
    (the final occurrence is covered by the marker); the marker's frequency
    is the dictionary size.
    """
    index_lists: dict[Symbol, list[int]] = {t: [] for t in dictionary}
    index_lists[LT] = []
    for pos, sym in enumerate(prepared):
        index_lists[sym].append(pos)
    freqs: dict[Symbol, int] = {t: len(index_lists[t]) - 1 for t in dictionary}
    freqs[LT] = len(dictionary)
    return index_lists, freqs


@dataclass
class EncoderState:
    """One encoder position: state, remaining slots, live frequencies, bits."""

    x: int
    l: int
    f: dict[Symbol, int]
    code: list[int] = field(default_factory=list)

    @classmethod
    def initial(cls, tokens: list[bytes]) -> tuple["EncoderState", dict[Symbol, list[int]]]:
        """Build the model for a stream and return (state, index lists)."""
        w0 = fam_dictionary(tokens)
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
        state.code.append(x & 1)
        x >>= 1
    state.x = state.l + positions[x - fw]
    state.l -= 1
    state.f[w] = fw - 1
    return state


@dataclass
class DecoderState:
    """Mirror of the encoder: rebuilt prefix, live occurrence lists, cursor.

    m is the prepared sequence's length, token count plus dictionary size.
    """

    x: int
    L: int
    m: int
    recon: list[Symbol]
    inc: dict[Symbol, list[int]]
    dictionary: list[bytes]
    cursor: int
    code: list[int]
    output: list[bytes]

    @classmethod
    def initial(cls, code: list[int], dictionary: list[bytes], n: int) -> "DecoderState":
        inc: dict[Symbol, list[int]] = {t: [] for t in dictionary}
        inc[LT] = []
        return cls(
            x=1,
            L=0,
            m=n + len(dictionary),
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
    except IndexError:
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
        if state.L + 2 > state.m:
            raise CorruptError("prepared sequence overrun")
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


def oracle_fam_decode(code: list[int], dictionary: list[bytes], n: int) -> list[bytes]:
    """fam_decode as a loop over decode_step; pops the bits off `code`."""
    d = len(dictionary)
    if n == 0:
        if d or len(code):
            raise CorruptError("empty stream with leftover dictionary or bits")
        return []
    if d == 0 or d > n:
        raise CorruptError("dictionary size impossible for token count")
    state = DecoderState.initial(code, dictionary, n)
    m = state.m
    while state.L < m:
        state, _ = decode_step(state)
    if state.cursor != 0:
        raise CorruptError("dictionary entries left over after stream end")
    x = state.x
    try:
        while x < m:
            x = x + x + code.pop()
    except IndexError:
        raise CorruptError("code bits exhausted mid-decode") from None
    if x != m:
        raise CorruptError("final state does not match token count")
    if len(code):
        raise CorruptError("unconsumed code bits after decode")
    return state.output[::-1]
