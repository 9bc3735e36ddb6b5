"""Tokenizer modes: lossless alternating runs and words-only."""

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fans.errors import ModeError
from fans.tokenizer import TokenizerMode, detokenize, tokenize


def test_lossless_known_vector():
    assert tokenize(b"Hi, hi!", TokenizerMode.LOSSLESS) == [b"Hi", b", ", b"hi", b"!"]


def test_paper_known_vector():
    assert tokenize(b"Hi, hi!", TokenizerMode.PAPER) == [b"hi", b"hi"]


def test_empty_input():
    assert tokenize(b"", TokenizerMode.LOSSLESS) == []
    assert tokenize(b"", TokenizerMode.PAPER) == []


def test_detokenize_concatenates():
    assert detokenize([b"Hi", b", ", b"hi", b"!"]) == b"Hi, hi!"
    assert detokenize([]) == b""


def test_detokenize_paper_mode_is_an_error():
    with pytest.raises(ModeError):
        detokenize([b"hi"], TokenizerMode.PAPER)


def test_digits_are_word_bytes():
    assert tokenize(b"a1 2b", TokenizerMode.LOSSLESS) == [b"a1", b" ", b"2b"]
    # Paper mode keeps alphabetic runs only, so digits split words.
    assert tokenize(b"a1b", TokenizerMode.PAPER) == [b"a", b"b"]


def test_non_ascii_bytes_are_non_word():
    data = "héllo".encode("utf-8")
    tokens = tokenize(data, TokenizerMode.LOSSLESS)
    assert b"".join(tokens) == data
    assert tokens == [b"h", b"\xc3\xa9", b"llo"]
    assert tokenize(b"\xc0Ab\xe9CD", TokenizerMode.PAPER) == [b"ab", b"cd"]


@given(st.binary(max_size=65536))
def test_lossless_round_trip(data):
    assert detokenize(tokenize(data, TokenizerMode.LOSSLESS)) == data


# Lossless tokens as a run-by-run match of the two classes; tokenize splits
# instead and must give the same list.
_ORACLE = re.compile(rb"[0-9A-Za-z]+|[^0-9A-Za-z]+")
_CORPUS = Path(__file__).parent / "data" / "corpus"


def test_lossless_matches_oracle_on_short_inputs():
    cases = [b""] + [bytes([b]) for b in range(256)]
    cases += [bytes(t) for k in (1, 2, 3) for t in itertools.product(b"a0Z \n\xff", repeat=k)]
    for data in cases:
        assert tokenize(data, TokenizerMode.LOSSLESS) == _ORACLE.findall(data), data


@pytest.mark.parametrize("name", ["alice29.txt", "asyoulik.txt"])
def test_lossless_matches_oracle_on_corpus(name):
    data = (_CORPUS / name).read_bytes()
    assert tokenize(data, TokenizerMode.LOSSLESS) == _ORACLE.findall(data)


@given(st.binary())
def test_lossless_matches_oracle(data):
    assert tokenize(data, TokenizerMode.LOSSLESS) == _ORACLE.findall(data)


_WORD = re.compile(rb"[0-9A-Za-z]+\Z")


@given(st.binary(max_size=4096))
def test_lossless_tokens_alternate_classes(data):
    tokens = tokenize(data, TokenizerMode.LOSSLESS)
    classes = [bool(_WORD.match(t)) for t in tokens]
    assert all(t for t in tokens)
    assert all(a != b for a, b in zip(classes, classes[1:]))


@given(st.binary(max_size=4096))
def test_paper_tokens_are_lowercase_alpha(data):
    for tok in tokenize(data, TokenizerMode.PAPER):
        assert re.fullmatch(rb"[a-z]+", tok)
