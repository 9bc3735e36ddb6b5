"""Byte-level word tokenizer with a lossless and a words-only mode.

Lossless mode alternates maximal runs of ASCII letters/digits with maximal
runs of everything else, so concatenating the tokens reproduces the input
exactly. Paper mode keeps only ASCII-alphabetic runs, lowercased; it is meant
for benchmarking against word-model results and is not reversible, so its
tokens detokenize to one word per line.

Lossless tokens come from one split on the letter/digit runs, with the runs
kept. The split alternates separator and word runs, and only its first and
last item can be empty (when the input starts or ends with a word), so
dropping those leaves the tokens. That is cheaper than matching a two-branch
alternation run by run.

detokenize joins the tokens a slice at a time, then joins the slices.
bytes.join first takes an 80-byte buffer view of every item, so one join
over a book's worth of short tokens allocates far more than the bytes it
returns; over slices that overhead is bounded by the slice length, and the
peak stays near twice the output on a book and within four times it on a
short text.
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
# Tokens per detokenize slice: bounds bytes.join's per-item views at ~80 KB,
# which small inputs would otherwise pay in full.
_JOIN_SLICE = 1024


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
    """The original bytes in lossless mode; in paper mode, one token per line."""
    if mode is TokenizerMode.LOSSLESS:
        sep = end = b""
    elif mode is TokenizerMode.PAPER:
        sep = end = b"\n"
    else:
        raise ModeError(f"unknown tokenizer mode: {mode!r}")
    k = _JOIN_SLICE
    return b"".join([sep.join(tokens[i : i + k]) + end for i in range(0, len(tokens), k)])
