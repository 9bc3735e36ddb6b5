"""Tokenizer modes: lossless words with their one-byte separators, and words-only."""

import itertools
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fans import tokenizer
from fans.errors import ModeError
from fans.tokenizer import _JOIN_SLICE, TokenizerMode, detokenize, iter_tokens, tokenize


def test_lossless_known_vector():
    assert tokenize(b"Hi, hi!", TokenizerMode.LOSSLESS) == [b"Hi", b", ", b"hi!"]
    assert tokenize(b"a b  c\n", TokenizerMode.LOSSLESS) == [b"a ", b"b", b"  ", b"c\n"]
    assert tokenize(b" a\xff\xffb", TokenizerMode.LOSSLESS) == [b" ", b"a", b"\xff\xff", b"b"]


def test_paper_known_vector():
    assert tokenize(b"Hi, hi!", TokenizerMode.PAPER) == [b"hi", b"hi"]


def test_empty_input():
    assert tokenize(b"", TokenizerMode.LOSSLESS) == []
    assert tokenize(b"", TokenizerMode.PAPER) == []


def test_detokenize_concatenates():
    assert detokenize([b"Hi", b", ", b"hi", b"!"]) == b"Hi, hi!"
    assert detokenize([]) == b""


K = _JOIN_SLICE
# Boundaries of the current slice, and of the earlier 4,096-token slice.
_COUNTS = sorted({0, 1, K - 1, K, K + 1, 3 * K + 5, 4095, 4096, 4097, 12293})


@pytest.mark.parametrize("count", _COUNTS)
def test_detokenize_slices_match_one_join(count):
    tokens = [b"w%d" % i if i % 2 else b" " * (i % 3 + 1) for i in range(count)]
    assert detokenize(tokens) == b"".join(tokens)


def test_detokenize_peak_memory_tracks_the_output():
    # One bytes.join over every token takes an 80-byte view per item, about
    # 16 MB here against 0.3 MB of output.
    tokens = [b"ab" if i % 2 else b" " for i in range(200_000)]
    tracemalloc.start()
    try:
        out = detokenize(tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 300_000
    assert peak <= 2 * len(out) + 1_000_000, peak


def test_detokenize_peak_on_a_short_text():
    # The slice's views are a fixed cost: at 4,096 tokens a slice, alice29's
    # 42.5 KB of output peaked at 394 KB, about nine times over.
    raw = (_CORPUS / "alice29.txt").read_bytes()
    tokens = tokenize(raw, TokenizerMode.LOSSLESS)
    tracemalloc.start()
    try:
        out = detokenize(tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == raw
    assert peak <= 4 * len(out), (peak, len(out))


def test_digits_are_word_bytes():
    assert tokenize(b"a1 2b", TokenizerMode.LOSSLESS) == [b"a1 ", b"2b"]
    # Paper mode keeps alphabetic runs only, so digits split words.
    assert tokenize(b"a1b", TokenizerMode.PAPER) == [b"a", b"b"]


def test_non_ascii_bytes_are_non_word():
    data = "héllo".encode("utf-8")
    tokens = tokenize(data, TokenizerMode.LOSSLESS)
    assert b"".join(tokens) == data
    assert tokens == [b"h", b"\xc3\xa9", b"llo"]
    # A single non-ASCII byte after a word is its separator.
    assert tokenize(b"caf\xe9s", TokenizerMode.LOSSLESS) == [b"caf\xe9", b"s"]
    assert tokenize(b"\xc0Ab\xe9CD", TokenizerMode.PAPER) == [b"ab", b"cd"]


@given(st.binary(max_size=65536))
def test_lossless_round_trip(data):
    assert detokenize(tokenize(data, TokenizerMode.LOSSLESS)) == data


# The maximal runs of letters/digits and of other bytes, alternating.
_RUNS_SPLIT = re.compile(rb"([0-9A-Za-z]+)")
_CORPUS = Path(__file__).parent / "data" / "corpus"


def _oracle(data: bytes) -> list[bytes]:
    """Lossless tokens built from the alternating runs: a separator run of
    one byte joins the word before it; every other run is a token."""
    tokens: list[bytes] = []
    for run in _RUNS_SPLIT.split(data):
        if len(run) == 1 and not run.isalnum() and tokens and tokens[-1].isalnum():
            tokens[-1] += run
        elif run:
            tokens.append(run)
    return tokens


def test_lossless_matches_oracle_on_short_inputs():
    cases = [b""] + [bytes([b]) for b in range(256)]
    cases += [bytes(t) for k in (1, 2, 3, 4) for t in itertools.product(b"a0Z \n\xff", repeat=k)]
    for data in cases:
        assert tokenize(data, TokenizerMode.LOSSLESS) == _oracle(data), data


@pytest.mark.parametrize("name", ["alice29.txt", "asyoulik.txt"])
def test_lossless_matches_oracle_on_corpus(name):
    data = (_CORPUS / name).read_bytes()
    assert tokenize(data, TokenizerMode.LOSSLESS) == _oracle(data)


@given(st.binary())
def test_lossless_matches_oracle(data):
    assert tokenize(data, TokenizerMode.LOSSLESS) == _oracle(data)


_SHAPE = re.compile(rb"[0-9A-Za-z]+[^0-9A-Za-z]?|[^0-9A-Za-z]+")


@given(st.binary(max_size=4096))
def test_lossless_tokens_take_one_separator_byte(data):
    # Each token is a word with at most one byte after it, or a separator
    # run. After a token that ends in a separator byte a word starts; after
    # a bare word comes a separator run of two bytes or more, never one.
    tokens = tokenize(data, TokenizerMode.LOSSLESS)
    assert all(_SHAPE.fullmatch(t) for t in tokens)
    for a, b in zip(tokens, tokens[1:]):
        if a[-1:].isalnum():
            assert len(b) >= 2 and not b.isalnum() and not b[:1].isalnum(), (a, b)
        else:
            assert b[:1].isalnum(), (a, b)


@given(st.binary(max_size=4096))
def test_paper_tokens_are_lowercase_alpha(data):
    for tok in tokenize(data, TokenizerMode.PAPER):
        assert re.fullmatch(rb"[a-z]+", tok)


# One-shot oracles over the whole input, with no chunks: the lossless oracle,
# and the lowered input's letter runs.
def _one_shot(data: bytes, mode: TokenizerMode) -> list[bytes]:
    if mode is TokenizerMode.LOSSLESS:
        return _oracle(data)
    return re.findall(rb"[a-z]+", data.lower())


def _chunked(data: bytes, mode: TokenizerMode, size: int) -> list[bytes]:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tokenizer, "_CHUNK", size)
        return tokenize(data, mode)


_RUNS = st.lists(st.sampled_from([b"a", b"Zq", b"09", b" ", b"\n\n", b"\xff", b"-"]), max_size=40)


@given(
    st.one_of(st.binary(max_size=64), _RUNS.map(b"".join)),
    st.integers(1, 9),
    st.sampled_from(list(TokenizerMode)),
)
@example(b"", 1, TokenizerMode.LOSSLESS)
@example(b"", 1, TokenizerMode.PAPER)
@example(b"abc, de f", 2, TokenizerMode.LOSSLESS)
def test_chunked_tokenize_matches_one_shot(data, size, mode):
    assert _chunked(data, mode, size) == _one_shot(data, mode)


@given(st.one_of(st.binary(max_size=64), _RUNS.map(b"".join)), st.integers(1, 8))
@example(b"abc, de f", 2)
def test_lossless_chunks_are_cut_at_word_starts(data, size):
    # A cut at a word's end would part the word from its separator byte.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tokenizer, "_CHUNK", size)
        chunks = list(tokenizer._chunks(data))
    assert b"".join(chunks) == data
    cut = 0
    for chunk in chunks[:-1]:
        assert len(chunk) >= size
        cut += len(chunk)
        assert data[cut : cut + 1].isalnum() and not data[cut - 1 : cut].isalnum(), (data, cut)


# (input, chunk size): runs longer than a chunk, class changes exactly at the
# chunk size, words whose separator byte lies past the chunk end, and inputs
# that end at or just past it.
_CHUNK_CASES = [
    (b"", 4),
    (b"abcdefghij klm", 4),
    (b"ab  \n\n\n\n\n\n\ncd", 3),
    (b"abcd    efgh", 4),
    (b"ab, cd, ef, gh", 4),
    (b"abcd", 4),
    (b"abcde", 4),
    (b"a", 1),
    (b"a b1c,,d", 1),
    (b"Hello, World! 42 times.", 5),
    (b"ab cd ef", 2),
    (b"abc, de f", 2),
]


@pytest.mark.parametrize("mode", list(TokenizerMode), ids=lambda m: m.value)
@pytest.mark.parametrize("data, size", _CHUNK_CASES)
def test_chunk_cuts_split_no_token(data, size, mode):
    assert _chunked(data, mode, size) == _one_shot(data, mode)


# Paper tokens as the letter runs of the lowered input, the regex the
# translate-and-split tokenizer replaced; it must give the same list.
_PAPER_ORACLE = re.compile(rb"[A-Za-z]+")


@given(st.binary(max_size=512), st.integers(1, 16))
@example(bytes(range(256)), 7)
def test_paper_matches_the_regex_oracle(data, size):
    assert _chunked(data, TokenizerMode.PAPER, size) == _PAPER_ORACLE.findall(data.lower())


def test_corpus_tokens_cross_many_chunks():
    raw = (_CORPUS / "alice29.txt").read_bytes()
    for mode in TokenizerMode:
        assert _chunked(raw, mode, 1000) == _one_shot(raw, mode)


def test_iter_tokens_checks_the_mode_at_the_call():
    with pytest.raises(ModeError):
        iter_tokens(b"hi", "paper")  # a mode must be a TokenizerMode
    assert list(iter_tokens(b"Hi, hi!")) == [b"Hi", b", ", b"hi!"]
