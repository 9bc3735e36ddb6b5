"""Static coder tests: spread construction, frozen traces, serialization."""

from __future__ import annotations

import math
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fans.bitio import ByteImage, pack_bits
from fans.container import ALGO_RANGED, ALGO_UNIFORM, pack_archive, read_varints, unpack_archive
from fans.errors import CorruptError, InconsistentFields
from fans.static_codec import (
    SpreadStrategy,
    StaticFrequencies,
    build_spread,
    count_frequencies,
    static_decode,
    static_encode,
)
from fans.tokenizer import TokenizerMode

ALL_STRATEGIES = [SpreadStrategy.RANGED, SpreadStrategy.UNIFORM, SpreadStrategy.TEXT_ORDER]


def _freqs_and_table(tokens, dictionary, strategy):
    freqs = count_frequencies(tokens, dictionary)
    table = build_spread(strategy, freqs, dictionary, tokens=tokens)
    return freqs, table


def test_count_frequencies():
    freqs = count_frequencies([b"a", b"b", b"a"], [b"b", b"a"])
    assert freqs.counts == {b"a": 2, b"b": 1}
    assert freqs.total == 3
    with pytest.raises(ValueError):
        count_frequencies([b"a", b"b"], [b"a"])
    with pytest.raises(ValueError):
        count_frequencies([b"a"], [b"a", b"b"])


def test_frequency_validation():
    # StaticFrequencies is a plain record; the writer refuses a zero count, a
    # negative count and counts that do not sum to the token count.
    for n, counts, message in (
        (2, {b"a": 2, b"b": 0}, "frequencies must count each dictionary entry"),
        (2, {b"a": 3, b"b": -1}, "frequencies must count each dictionary entry"),
        (3, {b"a": 1, b"b": 1}, "frequencies do not sum to the token count"),
    ):
        with pytest.raises(InconsistentFields, match=message):
            pack_archive(
                ALGO_UNIFORM, TokenizerMode.LOSSLESS, n, [b"a", b"b"], ByteImage(b"", 0),
                final_state=n, freqs=StaticFrequencies(counts, n),
            )


def test_ranged_spread_vector():
    freqs = StaticFrequencies({b"a": 3, b"b": 1}, 4)
    spread = build_spread(SpreadStrategy.RANGED, freqs, [b"a", b"b"])
    assert spread == [b"a", b"a", b"a", b"b"]


def test_uniform_spread_vector():
    # Slot keys are (2k+1)/(2c); the tie at 1/2 goes to the earlier token.
    freqs = StaticFrequencies({b"a": 3, b"b": 1}, 4)
    spread = build_spread(SpreadStrategy.UNIFORM, freqs, [b"a", b"b"])
    assert spread == [b"a", b"a", b"b", b"a"]


def test_uniform_spread_tie_breaks_by_dictionary_order():
    freqs = StaticFrequencies({b"a": 1, b"b": 1}, 2)
    assert build_spread(SpreadStrategy.UNIFORM, freqs, [b"a", b"b"]) == [b"a", b"b"]
    assert build_spread(SpreadStrategy.UNIFORM, freqs, [b"b", b"a"]) == [b"b", b"a"]


def test_text_order_spread_is_reversed_stream():
    tokens = [b"a", b"a", b"b"]
    freqs = count_frequencies(tokens, [b"a", b"b"])
    spread = build_spread(SpreadStrategy.TEXT_ORDER, freqs, [b"a", b"b"], tokens=tokens)
    assert spread == [b"b", b"a", b"a"]
    with pytest.raises(ValueError):
        build_spread(SpreadStrategy.TEXT_ORDER, freqs, [b"a", b"b"])


def _slots(spread, sym):
    """The slots sym owns, in ascending order."""
    return [j for j, s in enumerate(spread) if s == sym]


def test_uniform_spread_gap_bound():
    # Gaps between consecutive slots of a symbol stay within ceil(M/c) plus
    # the alphabet size. The tighter ceil(M/c) + 1 fails under heavy ties:
    # ten singletons all keyed at 1/2 push the heavy symbol's slots apart.
    counts = {b"z": 10}
    dictionary = [b"z"]
    for i in range(10):
        tok = bytes([97 + i])
        counts[tok] = 1
        dictionary.append(tok)
    freqs = StaticFrequencies(counts, 20)
    z_slots = _slots(build_spread(SpreadStrategy.UNIFORM, freqs, dictionary), b"z")
    z_gap = max(b - a for a, b in zip(z_slots, z_slots[1:]))
    assert z_gap == 11
    assert z_gap > math.ceil(20 / 10) + 1

    rng = random.Random(11)
    for _ in range(120):
        d = rng.randrange(1, 25)
        dictionary = [bytes([33 + i]) for i in range(d)]
        counts = {t: rng.randrange(1, 40) for t in dictionary}
        total = sum(counts.values())
        freqs = StaticFrequencies(counts, total)
        spread = build_spread(SpreadStrategy.UNIFORM, freqs, dictionary)
        for sym in dictionary:
            slots = _slots(spread, sym)
            bound = math.ceil(total / counts[sym]) + d
            for a, b in zip(slots, slots[1:]):
                assert b - a <= bound


def test_single_token_trace():
    tokens = [b"a"]
    for strategy in ALL_STRATEGIES:
        freqs, table = _freqs_and_table(tokens, [b"a"], strategy)
        code, final_state = static_encode(tokens, table, freqs)
        assert len(code) == 0
        assert final_state == 1
        assert static_decode(code, final_state, table, freqs, 1) == [b"a"]


def test_frozen_ranged_trace():
    tokens = [b"a", b"b", b"a"]
    freqs, table = _freqs_and_table(tokens, [b"a", b"b"], SpreadStrategy.RANGED)
    code, final_state = static_encode(tokens, table, freqs)
    assert list(code) == [0, 0, 1]
    assert final_state == 3
    assert static_decode(code, final_state, table, freqs, 3) == tokens


def test_empty_stream():
    freqs = StaticFrequencies({}, 0)
    code, final_state = static_encode([], [], freqs)
    assert len(code) == 0 and final_state == 0
    assert static_decode(pack_bits([]), 0, [], freqs, 0) == []
    assert build_spread(SpreadStrategy.RANGED, freqs, []) == []


def test_final_state_range_checks():
    # The encoder ends in the table's range; the parser and the writer
    # refuse a state outside it (tests/test_container.py).
    tokens = [b"a", b"b", b"a", b"a"]
    freqs, table = _freqs_and_table(tokens, [b"a", b"b"], SpreadStrategy.RANGED)
    code, final_state = static_encode(tokens, table, freqs)
    assert freqs.total <= final_state < 2 * freqs.total
    with pytest.raises(CorruptError):
        static_decode(code, final_state, table, freqs, 3)


def test_corrupt_code_checks():
    rng = random.Random(77)
    tokens = [bytes([97 + rng.randrange(4)]) for _ in range(64)]
    dictionary = sorted(set(tokens))
    freqs, table = _freqs_and_table(tokens, dictionary, SpreadStrategy.UNIFORM)
    code, final_state = static_encode(tokens, table, freqs)
    assert len(code) > 0
    bits = list(code)
    with pytest.raises(CorruptError):
        static_decode(pack_bits(bits[:-1]), final_state, table, freqs, 64)
    with pytest.raises(CorruptError):
        static_decode(pack_bits(bits + [0]), final_state, table, freqs, 64)


def test_round_trip_all_strategies_random():
    rng = random.Random(909)
    for _ in range(80):
        n = rng.randrange(1, 200)
        tokens = [bytes([97 + rng.randrange(10)]) for _ in range(n)]
        dictionary = list(dict.fromkeys(tokens))
        rng.shuffle(dictionary)
        for strategy in ALL_STRATEGIES:
            freqs, table = _freqs_and_table(tokens, dictionary, strategy)
            code, final_state = static_encode(tokens, table, freqs)
            # Each step emits fewer bits than the state is wide.
            assert len(code) <= n * (freqs.total.bit_length() + 1)
            out = static_decode(code, final_state, table, freqs, n)
            assert out == tokens


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=7).map(lambda i: bytes([97 + i])),
        min_size=1,
        max_size=80,
    ),
    st.sampled_from(ALL_STRATEGIES),
)
def test_round_trip_property(tokens, strategy):
    dictionary = sorted(set(tokens))
    freqs, table = _freqs_and_table(tokens, dictionary, strategy)
    code, final_state = static_encode(tokens, table, freqs)
    assert static_decode(code, final_state, table, freqs, len(tokens)) == tokens


def _frequency_section(freqs: StaticFrequencies, dictionary: list[bytes]) -> bytes:
    data = pack_archive(
        ALGO_RANGED, TokenizerMode.LOSSLESS, freqs.total, dictionary, ByteImage(b"", 0),
        final_state=freqs.total, freqs=freqs,
    )
    sizes = unpack_archive(data).sizes
    # The section ends where the code and the 4 CRC bytes begin; it holds the
    # raw length, the deflated length, then the raw deflate stream.
    start = sizes.total - 4 - sizes.code - sizes.freqs
    (raw_len, size), pos = read_varints(data, start, 2)
    assert pos + size == start + sizes.freqs
    raw = zlib.decompress(data[pos : start + sizes.freqs], wbits=-15)
    assert len(raw) == raw_len
    return raw


def test_serialize_frequencies_vectors():
    # The frequency section inflates to varint counts in dictionary order,
    # which for a static archive is byte order.
    freqs = StaticFrequencies({b"a": 2, b"b": 1}, 3)
    assert _frequency_section(freqs, [b"a", b"b"]) == b"\x02\x01"
    freqs = StaticFrequencies({b"b": 2, b"a": 1}, 3)
    assert _frequency_section(freqs, [b"a", b"b"]) == b"\x01\x02"
    big = StaticFrequencies({b"a": 300}, 300)
    assert _frequency_section(big, [b"a"]) == b"\xac\x02"


def test_frequency_round_trip_random():
    rng = random.Random(31)
    for _ in range(40):
        d = rng.randrange(1, 20)
        dictionary = [bytes([65 + i]) for i in range(d)]
        counts = {t: rng.randrange(1, 1000) for t in dictionary}
        n = sum(counts.values())
        freqs = StaticFrequencies(counts, n)
        for algo in (ALGO_RANGED, ALGO_UNIFORM):
            data = pack_archive(
                algo, TokenizerMode.LOSSLESS, n, dictionary, ByteImage(b"", 0),
                final_state=n, freqs=freqs,
            )
            arc = unpack_archive(data)
            assert arc.freqs == [counts[t] for t in dictionary]
