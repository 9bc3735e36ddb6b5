"""Coding loops against the per-bit loops they replaced, and hostile input.

The decode oracles are the decode loops as they were before the cores took
ranks from tables and read packed bytes: one bisect per symbol to recover a
rank, and one pop per code bit from a plain list. The fam oracle is the
step-level decoder of fam_oracle.py. On valid and corrupted code alike, the
fast cores must return the same tokens or raise the same CorruptError.

The encode oracles append one bit at a time until the state is under twice the
symbol's frequency; the fast encoders compute each step's shift at once and
emit it in batches. They must write the same bits and end in the same state,
also on streams whose steps shift by nothing or by more than 16 bits.
"""

from __future__ import annotations

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fans import fam_codec
from fans.bitio import REFILL_BYTES, WINDOW_MASKS, ByteImage, pack_bits
from fans.errors import CorruptError, FansError
from fans.fam_codec import fam_decode, fam_encode, fam_encode_ids
from fans.fam_model import number_ids
from fans.pipeline import count_ids
from fans.static_codec import (
    SpreadStrategy,
    StaticFrequencies,
    build_spread,
    build_spread_ids,
    count_frequencies,
    static_decode,
    static_encode,
    static_encode_ids,
)

from common import slot_lists
from fam_oracle import LT, EncoderState, encode_step, oracle_fam_decode, prepare, select_symbol

CODERS = ["fam", "ranged", "uniform", "textorder"]
REFILL_BITS = 8 * REFILL_BYTES


def oracle_static_decode(code: list[int], final_state, spread, freqs, n) -> list[bytes]:
    if n == 0:
        if final_state != 0 or len(code):
            raise CorruptError("empty stream with leftover state or bits")
        return []
    if freqs.total != n:
        raise CorruptError("frequency total does not match the token count")
    total = n
    if not total <= final_state < 2 * total:
        raise CorruptError("final state outside the table range")
    slots = slot_lists(spread)
    x = final_state
    out = []
    pop = code.pop
    try:
        for _ in range(n):
            j = x - total
            s = spread[j]
            out.append(s)
            x = freqs.counts[s] + bisect_left(slots[s], j)
            while x < total:
                x = x + x + pop()
    except IndexError:
        raise CorruptError("code bits exhausted mid-decode") from None
    if x != total:
        raise CorruptError("state did not drain to the table size")
    if len(code):
        raise CorruptError("unconsumed code bits after decode")
    out.reverse()
    return out


def oracle_static_encode(tokens, spread, freqs) -> tuple[list[int], int, int]:
    """static_encode_ids as one append per code bit.

    Returns (code, final state, the most bits any one step pushed).
    """
    slots = slot_lists(spread)
    total = len(tokens)
    x = total
    code = []
    widest = 0
    for s in tokens:
        c = freqs.counts[s]
        pushed = 0
        while x >= c + c:
            code.append(x & 1)
            x >>= 1
            pushed += 1
        widest = max(widest, pushed)
        x = total + slots[s][x - c]
    return code, x, widest


def oracle_fam_encode(tokens: list[bytes]) -> tuple[list[int], int, int, int]:
    """fam_encode_ids as a loop over encode_step, one append per code bit.

    Returns (code, final state, final slot count, the most bits any one step
    pushed).
    """
    state, index_lists = EncoderState.initial(tokens)
    widest = 0
    for tok in tokens:
        w = select_symbol(state, tok)
        before = len(state.code)
        encode_step(state, w, index_lists[w])
        widest = max(widest, len(state.code) - before)
    return state.code, state.x, state.l, widest


class Stream:
    """One coded token stream and both decoders for it, each taking a bit list."""

    def __init__(self, coder: str, tokens: list[bytes]):
        self.n = len(tokens)
        if coder == "fam":
            code, self.dictionary = fam_encode(tokens)
            self.decoders = (
                lambda bits: fam_decode(pack_bits(bits), self.dictionary, self.n),
                lambda bits: oracle_fam_decode(list(bits), self.dictionary, self.n),
            )
        else:
            dictionary = sorted(set(tokens))
            freqs = count_frequencies(tokens, dictionary)
            spread = build_spread(SpreadStrategy(coder), freqs, dictionary, tokens)
            code, state = static_encode(tokens, spread, freqs)
            self.decoders = (
                lambda bits: static_decode(pack_bits(bits), state, spread, freqs, self.n),
                lambda bits: oracle_static_decode(list(bits), state, spread, freqs, self.n),
            )
        self.bits = list(code)

    def outcomes(self, bits: list[int]):
        """(fast, oracle) results: the tokens, or the error message."""
        results = []
        for decode in self.decoders:
            try:
                results.append(decode(bits))
            except CorruptError as exc:
                results.append(f"CorruptError: {exc}")
        return results


def corruptions(bits: list[int]):
    """Every single-bit flip, 1-17-bit truncations and one appended bit.

    Push order puts the first bit the decoder reads last, so truncating
    and appending are done at both ends.
    """
    for i in range(len(bits)):
        yield bits[:i] + [bits[i] ^ 1] + bits[i + 1 :]
    for k in range(1, 18):
        if k <= len(bits):
            yield bits[:-k]
            yield bits[k:]
    for b in (0, 1):
        yield bits + [b]
        yield [b] + bits


def random_tokens(rng: random.Random, n: int) -> list[bytes]:
    alphabet = rng.randrange(1, 12)
    return [bytes([97 + min(int(rng.expovariate(0.4)), alphabet)]) for _ in range(n)]


def streams_at_refill_multiples(coder: str) -> list[Stream]:
    """Streams whose code length is one below, at and one above 1-3 refills."""
    want = {j * REFILL_BITS + e for j in (1, 2, 3) for e in (-1, 0, 1)}
    found: dict[int, Stream] = {}
    rng = random.Random(f"refill-{coder}")
    for _ in range(20000):
        stream = Stream(coder, random_tokens(rng, rng.randrange(20, 260)))
        if len(stream.bits) in want:
            found.setdefault(len(stream.bits), stream)
            if len(found) == len(want):
                break
    assert sorted(found) == sorted(want)
    return [found[k] for k in sorted(found)]


def fam_stream_with_marker_at(position: int) -> Stream:
    """A fam stream whose prepared sequence holds a marker at `position`.

    The decoder's step there takes its rebuilt length L from position to
    position + 2. At position 2**k - 2 that jumps the end of the segment in
    which L + 1 has k bits.
    """
    rng = random.Random(f"marker-at-{position}")
    for _ in range(20000):
        tokens = random_tokens(rng, rng.randrange(max(20, position), position + 160))
        prepared = prepare(tokens, ())
        if position < len(prepared) and prepared[position] is LT:
            stream = Stream("fam", tokens)
            if len(stream.bits) > 2 * REFILL_BITS:
                return stream
    raise AssertionError(f"no stream with a marker at {position}")


CORRUPTION_CASES = [pytest.param(coder, None, id=coder) for coder in CODERS] + [
    pytest.param("fam", (1 << k) - 2, id=f"fam-marker-at-{(1 << k) - 2}") for k in range(2, 9)
]


@pytest.mark.parametrize("coder, marker_at", CORRUPTION_CASES)
def test_corrupted_code_decodes_as_before(coder, marker_at):
    if marker_at is None:
        stream = Stream(coder, random_tokens(random.Random(coder), 160))
    else:
        stream = fam_stream_with_marker_at(marker_at)
    assert len(stream.bits) > 2 * REFILL_BITS
    for bits in [stream.bits, *corruptions(stream.bits)]:
        fast, oracle = stream.outcomes(bits)
        assert fast == oracle


@pytest.mark.parametrize("coder", CODERS)
def test_code_lengths_at_refill_boundaries_decode_as_before(coder):
    rng = random.Random(f"noise-{coder}")
    for stream in streams_at_refill_multiples(coder):
        bits = stream.bits
        variants = [bits[:-k] for k in range(1, 18)] + [bits[k:] for k in range(1, 18)]
        variants += [bits + [1], [1] + bits, [0] + bits]
        variants += [[rng.getrandbits(1) for _ in bits] for _ in range(8)]
        fast, oracle = stream.outcomes(bits)
        assert fast == oracle
        for variant in variants:
            fast, oracle = stream.outcomes(variant)
            assert fast == oracle


def fam_streams_by_code_length_mod_8() -> list[Stream]:
    """Short fam streams whose code lengths cover every residue mod 8."""
    found: dict[int, Stream] = {}
    rng = random.Random("fam-tails")
    while len(found) < 8:
        stream = Stream("fam", random_tokens(rng, rng.randrange(1, 40)))
        found.setdefault(len(stream.bits) % 8, stream)
    return [found[r] for r in range(8)]


@pytest.mark.parametrize("residue", range(8))
def test_fam_end_of_stream_errors_match_the_oracle(residue):
    # The decoder reads the last-pushed bits first, so the end of its stream
    # is the start of push order; its final read may take one bit from the
    # zero byte below the code and put it back.
    stream = fam_streams_by_code_length_mod_8()[residue]
    bits = stream.bits
    fast, oracle = stream.outcomes(bits)
    assert fast == oracle
    assert not isinstance(fast, str)
    for variant in [bits[k:] for k in range(1, 17)] + [[0] + bits, [1] + bits]:
        fast, oracle = stream.outcomes(variant)
        assert fast == oracle
        assert isinstance(fast, str) and fast.startswith("CorruptError"), variant
    # The same cuts at the other end; some of those still parse.
    for variant in [bits[:-k] for k in range(1, 17)] + [bits + [0], bits + [1]]:
        fast, oracle = stream.outcomes(variant)
        assert fast == oracle


def test_fam_prepared_sequence_overrun_matches_the_oracle():
    # Inside the decoder's contract, 1 <= d <= n, damaged code can still
    # reach a new-symbol marker that leaves no room for its token among the
    # n + d slots of the prepared sequence; no damaged archive in the census
    # reaches this check.
    code = ByteImage(bytes.fromhex("ebc8d4"), 24)
    with pytest.raises(CorruptError, match="^prepared sequence overrun$"):
        fam_codec.fam_decode_ids(code, 8, 9)
    with pytest.raises(CorruptError, match="^prepared sequence overrun$"):
        oracle_fam_decode(list(code), [b"%d" % i for i in range(8)], 9)


def fam_stream_filling_the_window() -> Stream:
    """A fam stream one of whose reads puts a bit back into a full window.

    That happens when a refill from avail = k - 1 brings REFILL_BYTES bytes
    and the read's last bit goes back: avail then is 8 * REFILL_BYTES, the
    last index of WINDOW_MASKS, so a decode without that entry fails.
    """
    rng = random.Random("fill-window")
    for _ in range(500):
        stream = Stream("fam", random_tokens(rng, rng.randrange(100, 400)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fam_codec, "WINDOW_MASKS", WINDOW_MASKS[:-1])
            try:
                stream.decoders[0](stream.bits)
            except IndexError:
                return stream
    raise AssertionError("no stream puts a bit back into a full window")


def test_put_back_into_a_full_window_decodes_as_before():
    stream = fam_stream_filling_the_window()
    bits = stream.bits
    fast, oracle = stream.outcomes(bits)
    assert fast == oracle
    assert not isinstance(fast, str)
    for variant in corruptions(bits):
        fast, oracle = stream.outcomes(variant)
        assert fast == oracle


# A rare symbol among 2**17 copies of another: its steps shift by 17 bits,
# past the encoders' two-byte batches.
WIDE_SHIFT_TOKENS = [b"s", b"r"] + [b"c"] * (1 << 17) + [b"s"]

ENCODER_EDGE_CASES = [
    pytest.param([b"t%d" % i for i in range(300)], 0, id="all-distinct"),
    pytest.param([b"a"] * 300, 0, id="one-token-repeated"),
    pytest.param([b"a"], 0, id="single-token"),
    pytest.param(WIDE_SHIFT_TOKENS, 17, id="shift-over-16"),
] + [pytest.param(random_tokens(random.Random(k), 400), 0, id=f"random-{k}") for k in range(4)]


@pytest.mark.parametrize("tokens, min_widest", ENCODER_EDGE_CASES)
@pytest.mark.parametrize("strategy", list(SpreadStrategy), ids=lambda s: s.value)
def test_static_encoder_matches_per_bit_oracle(tokens, min_widest, strategy):
    dictionary = sorted(set(tokens))
    index = {t: i for i, t in enumerate(dictionary)}
    ids = [index[t] for t in tokens]
    counts = count_ids(ids, len(dictionary))
    table = build_spread_ids(strategy, counts, range(len(counts)), ids)
    freqs = StaticFrequencies(dict(enumerate(counts)), len(ids))
    code, state, widest = oracle_static_encode(ids, table, freqs)
    bits, fast_state = static_encode_ids(ids, table, counts)
    assert list(bits) == code
    assert fast_state == state
    assert widest >= min_widest


@pytest.mark.parametrize("tokens, min_widest", ENCODER_EDGE_CASES)
def test_fam_encoder_matches_per_bit_oracle(tokens, min_widest):
    code, x, l, widest = oracle_fam_encode(tokens)
    seen, ids = number_ids(tokens)
    bits, _, fast_x, fast_l = fam_encode_ids(ids, len(seen))
    assert list(bits) == code
    assert (fast_x, fast_l) == (x, l) == (1, 0)
    assert widest >= min_widest


def test_token_decoders_leave_the_callers_stack_intact():
    tokens = random_tokens(random.Random(7), 500)
    code, dictionary = fam_encode(tokens)
    size = len(code)
    assert fam_decode(code, dictionary, len(tokens)) == tokens
    assert len(code) == size
    assert fam_decode(code, dictionary, len(tokens)) == tokens

    freqs = count_frequencies(tokens, dictionary)
    table = build_spread(SpreadStrategy.UNIFORM, freqs, dictionary)
    code, state = static_encode(tokens, table, freqs)
    size = len(code)
    assert static_decode(code, state, table, freqs, len(tokens)) == tokens
    assert len(code) == size
    assert static_decode(code, state, table, freqs, len(tokens)) == tokens


def _image(data: bytes, drop: int, clear_padding: bool) -> ByteImage:
    """An image of all of data's bits but the top `drop` of the last byte."""
    if not data:
        return ByteImage(b"", 0)
    if clear_padding and drop:
        data = data[:-1] + bytes([data[-1] & (0xFF >> drop)])
    return ByteImage(data, 8 * len(data) - drop)


@settings(max_examples=400, deadline=None)
@given(
    st.binary(max_size=48),
    st.integers(0, 7),
    st.booleans(),
    st.integers(0, 12),
    st.integers(0, 48),
)
def test_fam_decode_raises_only_fans_errors(data, drop, clear_padding, d, n):
    dictionary = [b"t%d" % i for i in range(d)]
    try:
        fam_decode(_image(data, drop, clear_padding), dictionary, n)
    except FansError:
        pass


@settings(max_examples=400, deadline=None)
@given(
    st.binary(max_size=48),
    st.integers(0, 7),
    st.booleans(),
    st.lists(st.integers(1, 6), min_size=1, max_size=8),
    st.sampled_from(list(SpreadStrategy)),
    st.one_of(st.none(), st.integers(0, 60)),
    st.integers(0, 100),
    st.randoms(use_true_random=False),
)
def test_static_decode_raises_only_fans_errors(
    data, drop, clear_padding, counts, strategy, n, state_offset, rng
):
    dictionary = [bytes([65 + i]) for i in range(len(counts))]
    freqs = StaticFrequencies(dict(zip(dictionary, counts)), sum(counts))
    # The final state lies in [total, 2 * total), as the parser enforces.
    final_state = freqs.total + state_offset % freqs.total
    tokens = [t for t, c in zip(dictionary, counts) for _ in range(c)]
    rng.shuffle(tokens)
    table = build_spread(strategy, freqs, dictionary, tokens)
    if n is None:
        n = freqs.total
    try:
        static_decode(_image(data, drop, clear_padding), final_state, table, freqs, n)
    except FansError:
        pass
