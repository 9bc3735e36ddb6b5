"""Byte-level word tokenizer with a lossless and a words-only mode.

Lossless mode alternates maximal runs of ASCII letters/digits with maximal
runs of everything else, so concatenating the tokens reproduces the input
exactly. Paper mode keeps only ASCII-alphabetic runs, lowercased; it is meant
for benchmarking against word-model results and is not reversible.
"""

from __future__ import annotations

import enum
import re

from .errors import ModeError


class TokenizerMode(enum.Enum):
    LOSSLESS = "lossless"
    PAPER = "paper"


_LOSSLESS_RE = re.compile(rb"[0-9A-Za-z]+|[^0-9A-Za-z]+")
_PAPER_RE = re.compile(rb"[A-Za-z]+")


def tokenize(data: bytes, mode: TokenizerMode = TokenizerMode.LOSSLESS) -> list[bytes]:
    if mode is TokenizerMode.LOSSLESS:
        return _LOSSLESS_RE.findall(data)
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
