"""Byte-level word tokenizer with a lossless and a words-only mode.

Lossless mode alternates maximal runs of ASCII letters/digits with maximal
runs of everything else, so concatenating the tokens reproduces the input
exactly. Paper mode keeps only ASCII-alphabetic runs, lowercased; it is meant
for benchmarking against word-model results and is not reversible.

Lossless tokens come from one split on the letter/digit runs, with the runs
kept. The split alternates separator and word runs, and only its first and
last item can be empty (when the input starts or ends with a word), so
dropping those leaves the tokens. That is cheaper than matching a two-branch
alternation run by run.
"""

from __future__ import annotations

import enum
import re

from .errors import ModeError


class TokenizerMode(enum.Enum):
    LOSSLESS = "lossless"
    PAPER = "paper"


_LOSSLESS_RE = re.compile(rb"([0-9A-Za-z]+)")
_PAPER_RE = re.compile(rb"[A-Za-z]+")


def tokenize(data: bytes, mode: TokenizerMode = TokenizerMode.LOSSLESS) -> list[bytes]:
    if mode is TokenizerMode.LOSSLESS:
        tokens = _LOSSLESS_RE.split(data)
        if not tokens[-1]:
            tokens.pop()
        if tokens and not tokens[0]:
            del tokens[0]
        return tokens
    if mode is TokenizerMode.PAPER:
        return _PAPER_RE.findall(data.lower())
    raise ModeError(f"unknown tokenizer mode: {mode!r}")


def detokenize(tokens: list[bytes], mode: TokenizerMode = TokenizerMode.LOSSLESS) -> bytes:
    """Rebuild the original bytes; only defined for lossless mode."""
    if mode is TokenizerMode.PAPER:
        raise ModeError("paper-mode token streams cannot reproduce the input")
    if mode is not TokenizerMode.LOSSLESS:
        raise ModeError(f"unknown tokenizer mode: {mode!r}")
    return b"".join(tokens)
