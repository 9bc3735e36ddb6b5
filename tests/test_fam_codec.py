"""Adaptive coder tests: frozen traces, step mechanics, mirror invariants.

The step-level coder lives in fam_oracle.py; its steps must mirror each other
and match the fast coder bit for bit.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fans.bitio import pack_bits
from fans.errors import CorruptError, FansError
from fans.fam_codec import fam_decode, fam_decode_ids, fam_encode, fam_encode_ids
from fans.fam_model import number_ids, renumber
from fans.tokenizer import TokenizerMode

from archive_v1 import old_tokens
from common import corpus_times, traced_peak
from fam_oracle import (
    HAND_TRACES,
    LT,
    DecoderState,
    EncoderState,
    decode_step,
    encode_step,
    fam_dictionary,
    select_symbol,
)

@pytest.mark.parametrize("tokens,bits,w0", HAND_TRACES)
def test_frozen_trace_encode(tokens, bits, w0):
    code, got_w0 = fam_encode(tokens)
    assert list(code) == bits
    assert got_w0 == w0


@pytest.mark.parametrize("tokens,bits,w0", HAND_TRACES)
def test_frozen_trace_decode(tokens, bits, w0):
    assert fam_decode(pack_bits(bits), w0, len(tokens)) == tokens


@pytest.mark.parametrize("tokens,bits,w0", HAND_TRACES)
def test_frozen_trace_final_states(tokens, bits, w0):
    _, _, x, l = fam_encode_ids(number_ids(tokens)[1], len(w0))
    assert (x, l) == (1, 0)
    _, final = fam_decode_ids(pack_bits(bits), len(w0), len(tokens))
    assert final == len(tokens) + len(w0)


@pytest.mark.parametrize("ids,d", [([0, 0], 2), ([1, 1, 1], 2)])
def test_encode_rejects_ids_that_leave_slots(ids, d):
    # An id below d that never occurs leaves its marker slot unconsumed; the
    # check must not depend on assert, which python -O drops.
    with pytest.raises(ValueError, match="did not drain"):
        fam_encode_ids(ids, d)


@pytest.mark.parametrize(
    "ids,d",
    [
        # Any numbering is accepted, so no case here is misnumbered: each
        # leaves an id below d unused or names one of d or more.
        ([1, 0, 2], 2),  # the marker's id, after every token has occurred
        ([2, 0, 2], 3),  # id 1 never occurs between ids that do
        ([0], 3),  # ids 1 and 2 never occur
        ([2], 2),  # out of range
        ([0, 1], 1),  # the marker's id
    ],
)
def test_encode_rejects_ids_not_numbered_by_last_occurrence(ids, d):
    with pytest.raises(ValueError):
        fam_encode_ids(ids, d)


def test_empty_stream():
    code, w0 = fam_encode([])
    assert len(code) == 0 and w0 == []
    assert fam_decode(pack_bits([]), [], 0) == []


def test_encode_step_known_transition():
    # State mid-stream: one slot left for token a, occurrence list [1, 4].
    state = EncoderState(x=5, l=5, f={b"a": 1})
    out = encode_step(state, b"a", [1, 4])
    assert out is state
    assert list(state.code) == [1, 0]
    assert state.x == 6
    assert state.l == 4
    assert state.f[b"a"] == 0


def test_select_symbol_switches_to_marker():
    state = EncoderState(x=7, l=7, f={b"a": 1, LT: 2})
    assert select_symbol(state, b"a") == b"a"
    assert state.l == 7  # normal pick leaves the offset alone
    state.f[b"a"] = 0
    assert select_symbol(state, b"a") is LT
    assert state.l == 6  # marker pick burns the token's own slot


def test_decode_step_known_transition():
    # Mid-decode of [a, b, a]: two cells rebuilt, about to introduce b.
    state = DecoderState(
        x=5,
        L=2,
        m=5,
        recon=[LT, b"a"],
        inc={LT: [0], b"a": [1], b"b": []},
        dictionary=[b"b", b"a"],
        cursor=1,
        code=[],
        output=[b"a"],
    )
    state, symbol = decode_step(state)
    assert symbol is LT
    assert state.x == 3
    assert state.L == 4
    assert state.cursor == 0
    assert state.recon == [LT, b"a", LT, b"b"]
    assert state.output == [b"a", b"b"]
    assert state.inc[b"b"] == [3]


def _run_paired(tokens: list[bytes]) -> None:
    """Drive both step interfaces over one stream, checking every invariant."""
    n = len(tokens)
    w0 = fam_dictionary(tokens)
    d = len(w0)
    m = n + d

    enc, index_lists = EncoderState.initial(tokens)
    assert enc.x == m and enc.l == m
    enc_symbols = []
    enc_fws = []
    for tok in tokens:
        w = select_symbol(enc, tok)
        fw = enc.f[w]
        assert fw > 0
        xr = enc.x
        while xr >= 2 * fw:
            xr >>= 1
        assert fw <= xr < 2 * fw  # renormalization lands in the symbol range
        l_used = enc.l
        encode_step(enc, w, index_lists[w])
        assert l_used <= enc.x < 2 * l_used  # transition lands in the offset range
        enc_symbols.append(w)
        enc_fws.append(fw)
    assert enc.x == 1 and enc.l == 0
    assert all(v == 0 for v in enc.f.values())

    dec = DecoderState.initial(list(enc.code), w0, n)
    dec_symbols = []
    dec_fcurs = []
    marker_steps = 0
    while dec.L < m:
        pre_L = dec.L
        sim, probe = dec.x, list(dec.code)
        while sim < pre_L + 1:
            sim = sim + sim + probe.pop()
        p = sim - (pre_L + 1)
        assert 0 <= p <= pre_L
        dec, symbol = decode_step(dec)
        if symbol is LT:
            marker_steps += 1
            fcur = len(dec.inc[LT])
        else:
            assert p < pre_L
            fcur = len(dec.inc[symbol]) - 1
        if p == pre_L:
            assert symbol is LT  # the cell being created is always a marker
        dec_symbols.append(symbol)
        dec_fcurs.append(fcur)
    assert dec.cursor == 0
    assert marker_steps == d

    x = dec.x
    while x < m:
        x = x + x + dec.code.pop()
    assert x == m
    assert len(dec.code) == 0
    assert dec.output[::-1] == tokens
    # Each decode step mirrors an encode step: same symbol, same frequency.
    assert dec_symbols[::-1] == enc_symbols
    assert dec_fcurs[::-1] == enc_fws


@pytest.mark.parametrize("tokens", [t for t, _, _ in HAND_TRACES])
def test_step_interfaces_mirror_on_traces(tokens):
    _run_paired(tokens)


def test_step_interfaces_mirror_on_random_streams():
    rng = random.Random(2026)
    for _ in range(150):
        n = rng.randrange(1, 120)
        alpha = rng.randrange(1, 12)
        _run_paired([bytes([97 + rng.randrange(alpha)]) for _ in range(n)])


def test_steps_match_batch_encoder():
    rng = random.Random(515)
    for _ in range(100):
        n = rng.randrange(1, 150)
        tokens = [bytes([65 + rng.randrange(9)]) for _ in range(n)]
        batch_code, w0 = fam_encode(tokens)
        enc, index_lists = EncoderState.initial(tokens)
        for tok in tokens:
            w = select_symbol(enc, tok)
            encode_step(enc, w, index_lists[w])
        assert enc.code == list(batch_code)
        assert fam_decode(batch_code, w0, n) == tokens


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=15).map(lambda i: bytes([97 + i])),
        max_size=60,
    )
)
def test_round_trip_property(tokens):
    code, w0 = fam_encode(tokens)
    assert fam_decode(code, w0, len(tokens)) == tokens


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=300), st.integers(1, 40), st.data())
def test_unrenormalised_states_stay_within_the_rebuilt_region(bits, n, data):
    # fam_decode_ids has no branch for a slot p = x - (L + 1) beyond L: a
    # state that needs no renormalisation (x >= L + 1) is at most 2L + 1.
    # The reference checks it over any code bits, with any valid d and n.
    d = data.draw(st.integers(1, n))
    state = DecoderState.initial(bits, [b"t%d" % i for i in range(d)], n)
    try:
        while state.L < state.m:
            if state.x >= state.L + 1:
                assert state.x <= 2 * state.L + 1
            state, _ = decode_step(state)
    except CorruptError as exc:
        assert "beyond rebuilt region" not in str(exc)


@given(st.data())
def test_quotient_shift_brings_the_state_into_range(data):
    # The encoder's renormalisation shift, taken from the quotient x // fw,
    # is the one the two bit lengths give after their off-by-one correction.
    x = data.draw(st.integers(min_value=1, max_value=2**80 - 1))
    fw = data.draw(st.integers(min_value=1, max_value=x))
    shift = (x // fw).bit_length() - 1
    assert fw <= x >> shift < 2 * fw
    old = x.bit_length() - fw.bit_length()
    if (x >> old) < fw:
        old -= 1
    assert shift == old


def _corpus_x8_ids() -> tuple[list[bytes], list[int]]:
    # The stream the per-token budgets below were set on: corpus x8 cut into
    # alternating runs, 233,313 tokens. The coders see ids only, so a change
    # of tokenizer would move these budgets without any change to the coders.
    seen, ids = number_ids(old_tokens(corpus_times(8), TokenizerMode.LOSSLESS))
    assert len(ids) >= 200_000
    return seen, ids


def test_encoder_peak_memory_per_token():
    # The occurrence table holds one position per slot in 4-byte array
    # entries. In 8-byte entries the peak was 17.0 B per token, and as lists
    # of int objects 49.
    w0, ids = _corpus_x8_ids()
    (_, _, x, l), peak = traced_peak(fam_encode_ids, ids, len(w0))
    assert (x, l) == (1, 0)
    assert peak <= 16 * len(ids), peak / len(ids)


def test_decoder_peak_memory_per_token():
    # The rebuilt sequence shares its id objects and keeps each slot's rank
    # in a 4-byte array entry; as a list of int objects, most of them past
    # the small-int cache, the ranks took the peak to 47.6 B per token. The
    # decoder returns the rebuilt sequence itself: an id list read off it
    # at the end took the peak to 18.9, and draining a BitStack into a copy
    # of its bytes to 19.7.
    seen, ids = _corpus_x8_ids()
    d = len(seen)
    bits, order, _, _ = fam_encode_ids(ids, d)
    code = pack_bits(bits)
    (recon, _), peak = traced_peak(fam_decode_ids, code, d, len(ids))
    assert [w for w in reversed(recon) if w != d] == renumber(ids, order)
    assert peak <= 16.5 * len(ids), peak / len(ids)


def test_dictionary_orders_by_last_occurrence():
    for tokens, w0 in [
        ([b"a", b"b", b"a"], [b"b", b"a"]),
        ([b"x", b"y", b"z"], [b"x", b"y", b"z"]),
        ([b"x", b"y", b"x", b"z", b"y"], [b"x", b"z", b"y"]),
    ]:
        assert fam_encode(tokens)[1] == fam_dictionary(tokens) == w0


def test_corrupt_last_bit_flip():
    code, w0 = fam_encode([b"a", b"b", b"a"])
    bits = list(code)
    bits[-1] ^= 1
    with pytest.raises(CorruptError):
        fam_decode(pack_bits(bits), w0, 3)


def test_corrupt_truncated_and_padded_codes():
    code, w0 = fam_encode([b"a", b"b", b"a", b"c", b"b", b"a"])
    bits = list(code)
    with pytest.raises(CorruptError):
        fam_decode(pack_bits(bits[:-1]), w0, 6)
    with pytest.raises(CorruptError):
        fam_decode(pack_bits(bits + [1]), w0, 6)


def test_corrupt_header_shapes():
    # Both shapes are outside the decoder's contract, which the parser
    # enforces (tests/test_container.py), but the code bits still fail.
    code, w0 = fam_encode([b"a", b"b", b"a"])
    with pytest.raises(CorruptError):
        fam_decode(code, [], 3)  # no dictionary for a nonempty stream
    with pytest.raises(CorruptError):
        fam_decode(code, w0, 1)  # more dictionary entries than tokens


def test_every_single_bit_flip_is_caught_or_changes_output():
    tokens = [b"the", b"cat", b"sat", b"on", b"the", b"mat", b"the", b"cat"]
    code, w0 = fam_encode(tokens)
    n = len(tokens)
    for i in range(len(code)):
        bits = list(code)
        bits[i] ^= 1
        try:
            decoded = fam_decode(pack_bits(bits), w0, n)
        except FansError:
            continue
        assert decoded != tokens  # a silent identical decode would be a bug
