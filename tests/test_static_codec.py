"""Static coder tests: spread construction, frozen traces, serialization."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fans.bitio import BitStack, ByteImage
from fans.container import ALGO_RANGED, ALGO_UNIFORM, pack_archive, unpack_archive
from fans.errors import CorruptError, EmptyInputError
from fans.static_codec import (
    SpreadStrategy,
    SpreadTable,
    StaticFrequencies,
    build_spread,
    count_frequencies,
    serialize_frequencies,
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
    with pytest.raises(ValueError):
        StaticFrequencies({b"a": 0}, 0)
    with pytest.raises(ValueError):
        StaticFrequencies({b"a": -1}, -1)
    with pytest.raises(ValueError):
        StaticFrequencies({b"a": 2}, 3)


def test_ranged_spread_vector():
    freqs = StaticFrequencies({b"a": 3, b"b": 1}, 4)
    table = build_spread(SpreadStrategy.RANGED, freqs, [b"a", b"b"])
    assert table.spread == [b"a", b"a", b"a", b"b"]
    assert table.slots == {b"a": [0, 1, 2], b"b": [3]}


def test_uniform_spread_vector():
    # Slot keys are (2k+1)/(2c); the tie at 1/2 goes to the earlier token.
    freqs = StaticFrequencies({b"a": 3, b"b": 1}, 4)
    table = build_spread(SpreadStrategy.UNIFORM, freqs, [b"a", b"b"])
    assert table.spread == [b"a", b"a", b"b", b"a"]
    assert table.slots == {b"a": [0, 1, 3], b"b": [2]}


def test_uniform_spread_tie_breaks_by_dictionary_order():
    freqs = StaticFrequencies({b"a": 1, b"b": 1}, 2)
    assert build_spread(SpreadStrategy.UNIFORM, freqs, [b"a", b"b"]).spread == [b"a", b"b"]
    assert build_spread(SpreadStrategy.UNIFORM, freqs, [b"b", b"a"]).spread == [b"b", b"a"]


def test_text_order_spread_is_reversed_stream():
    tokens = [b"a", b"a", b"b"]
    freqs = count_frequencies(tokens, [b"a", b"b"])
    table = build_spread(SpreadStrategy.TEXT_ORDER, freqs, [b"a", b"b"], tokens=tokens)
    assert table.spread == [b"b", b"a", b"a"]
    assert table.slots == {b"a": [1, 2], b"b": [0]}
    with pytest.raises(ValueError):
        build_spread(SpreadStrategy.TEXT_ORDER, freqs, [b"a", b"b"])


def test_spread_slots_agree_with_spread():
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randrange(1, 60)
        tokens = [bytes([97 + rng.randrange(6)]) for _ in range(n)]
        dictionary = sorted(set(tokens))
        for strategy in ALL_STRATEGIES:
            freqs, table = _freqs_and_table(tokens, dictionary, strategy)
            assert len(table.spread) == freqs.total
            for sym, slots in table.slots.items():
                assert slots == [j for j, s in enumerate(table.spread) if s == sym]
                assert len(slots) == freqs.counts[sym]


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
    table = build_spread(SpreadStrategy.UNIFORM, freqs, dictionary)
    z_gap = max(b - a for a, b in zip(table.slots[b"z"], table.slots[b"z"][1:]))
    assert z_gap == 11
    assert z_gap > math.ceil(20 / 10) + 1

    rng = random.Random(11)
    for _ in range(120):
        d = rng.randrange(1, 25)
        dictionary = [bytes([33 + i]) for i in range(d)]
        counts = {t: rng.randrange(1, 40) for t in dictionary}
        total = sum(counts.values())
        freqs = StaticFrequencies(counts, total)
        table = build_spread(SpreadStrategy.UNIFORM, freqs, dictionary)
        for sym, slots in table.slots.items():
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
    code, final_state = static_encode([], None, None)
    assert len(code) == 0 and final_state == 0
    assert static_decode(BitStack(), 0, None, None, 0) == []
    with pytest.raises(CorruptError):
        static_decode(BitStack(), 1, None, None, 0)
    with pytest.raises(CorruptError):
        static_decode(BitStack([1]), 0, None, None, 0)
    with pytest.raises(EmptyInputError):
        build_spread(SpreadStrategy.RANGED, StaticFrequencies({}, 0), [])


def test_final_state_range_checks():
    tokens = [b"a", b"b", b"a", b"a"]
    freqs, table = _freqs_and_table(tokens, [b"a", b"b"], SpreadStrategy.RANGED)
    code, final_state = static_encode(tokens, table, freqs)
    assert freqs.total <= final_state < 2 * freqs.total
    for bad in (0, freqs.total - 1, 2 * freqs.total):
        with pytest.raises(CorruptError):
            static_decode(code.copy(), bad, table, freqs, 4)
    with pytest.raises(CorruptError):
        static_decode(code.copy(), final_state, table, freqs, 3)


def test_corrupt_code_checks():
    rng = random.Random(77)
    tokens = [bytes([97 + rng.randrange(4)]) for _ in range(64)]
    dictionary = sorted(set(tokens))
    freqs, table = _freqs_and_table(tokens, dictionary, SpreadStrategy.UNIFORM)
    code, final_state = static_encode(tokens, table, freqs)
    assert len(code) > 0
    short = code.copy()
    short.pop()
    with pytest.raises(CorruptError):
        static_decode(short, final_state, table, freqs, 64)
    extra = code.copy()
    extra.push(0)
    with pytest.raises(CorruptError):
        static_decode(extra, final_state, table, freqs, 64)


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


def test_serialize_frequencies_vectors():
    freqs = StaticFrequencies({b"a": 2, b"b": 1}, 3)
    assert serialize_frequencies(freqs, [b"b", b"a"]) == b"\x01\x02"
    assert serialize_frequencies(freqs, [b"a", b"b"]) == b"\x02\x01"
    big = StaticFrequencies({b"a": 300}, 300)
    assert serialize_frequencies(big, [b"a"]) == b"\xac\x02"


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
                final_state=0, freqs=freqs,
            )
            arc = unpack_archive(data)
            assert arc.freqs == [counts[t] for t in dictionary]
