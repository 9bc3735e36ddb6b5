"""Byte-level word tokenizer with a lossless and a words-only mode.

Lossless mode cuts the input into words and separators. A word is a maximal
run of ASCII letters/digits, and it takes the one non-alphanumeric byte after
it along, unless another non-alphanumeric byte follows that byte. Every other
run of non-alphanumeric bytes is a token of its own. So b"Hi, hi!" gives
b"Hi", b", " and b"hi!", and concatenating the tokens reproduces the input
exactly. Folding the separator into the word (the "spaceless words" of
word-based text compressors) gives fewer, longer tokens, and the adaptive
coder takes one step per token: corpus x8 goes from 233,313 tokens to
139,673, and its archive shrinks by 11.7%. One byte is the only rule tried
that made no archive measured larger: a word with its whole separator run,
or with a single following space only, made small inputs larger.

Paper mode keeps only ASCII-alphabetic runs, lowercased; it is meant for
benchmarking against word-model results and is not reversible, so its
archives decompress to one word per line.

iter_tokens reads the input in chunks of about _CHUNK bytes and yields the
tokens of one chunk at a time, so a caller that consumes them as they come
(number_ids does) never holds a bytes object per token of the whole input.
Both modes cut the chunks by one rule: at the first word start at or past
_CHUNK bytes. A cut at a word's end would strip a lossless word of its
separator. The cut always lands just after a byte that is not a letter or
digit, so no paper-mode letter run crosses it either. A run longer than a
chunk just makes that chunk longer. So the chunks' tokens, in order, are the
tokens of the whole input, and tokenize is the list of them.

Lossless tokens come from one findall per chunk; the split on letter/digit
runs that this mode used before is cheaper, but gives only tokens that
alternate between the two classes. Paper tokens come from one translate and
one whitespace split per chunk, both in C, rather than a regex over a
lowered copy.

detokenize concatenates lossless tokens, which gives back the original
bytes; paper output, one word per line, is joined by the decompressor. It
joins the tokens a slice at a time, then joins the slices. bytes.join first
takes an 80-byte buffer view of every item, so one join over a book's worth
of short tokens allocates far more than the bytes it returns; over slices
that overhead is bounded by the slice length, and the peak stays near twice
the output on a book and within four times it on a short text.
join_back_to_front does the same for a decoder's sequence, and deletes each
slice of the sequence once it is joined: the final join holds the slices and
the output, two copies of it, so the sequence should be gone by then. On
corpus x7 decompress peaked 591 KB above the decoder with the sequence kept,
more than the 549 KB output, and 317 KB above it with the sequence deleted.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterator
from itertools import chain

from .errors import ModeError


class TokenizerMode(enum.Enum):
    LOSSLESS = "lossless"
    PAPER = "paper"


_LOSSLESS_RE = re.compile(rb"[0-9A-Za-z]+(?:[^0-9A-Za-z](?![^0-9A-Za-z]))?|[^0-9A-Za-z]+")
# Matched one byte before a chunk's nominal end, this reaches the chunk's cut,
# at or past that end: the start of the next word, or the end of the input.
_CUT = re.compile(rb"[0-9A-Za-z]*[^0-9A-Za-z]*")
# Paper mode's translate table: A-Z to a-z, a-z kept, any other byte a space.
_PAPER_TABLE = bytes(
    v + 32 if 65 <= v <= 90 else v if 97 <= v <= 122 else 32 for v in range(256)
)
# Nominal bytes per tokenizer chunk.
_CHUNK = 1 << 16
# Tokens per detokenize slice: bounds bytes.join's per-item views at ~80 KB,
# which small inputs would otherwise pay in full.
_JOIN_SLICE = 1024


def _paper_tokens(chunk: bytes) -> list[bytes]:
    return chunk.translate(_PAPER_TABLE).split()


def _chunks(data: bytes) -> Iterator[bytes]:
    size = len(data)
    start = 0
    while start < size:
        end = start + _CHUNK
        stop = _CUT.match(data, end - 1).end() if end < size else size
        yield data[start:stop]
        start = stop


def iter_tokens(data: bytes, mode: TokenizerMode = TokenizerMode.LOSSLESS) -> Iterator[bytes]:
    """The tokens of data, a chunk at a time; an unknown mode raises here."""
    if mode is TokenizerMode.LOSSLESS:
        split = _LOSSLESS_RE.findall
    elif mode is TokenizerMode.PAPER:
        split = _paper_tokens
    else:
        raise ModeError(f"unknown tokenizer mode: {mode!r}")
    return chain.from_iterable(map(split, _chunks(data)))


def tokenize(data: bytes, mode: TokenizerMode = TokenizerMode.LOSSLESS) -> list[bytes]:
    return list(iter_tokens(data, mode))


def detokenize(tokens: list[bytes]) -> bytes:
    """The tokens joined: the original bytes of a lossless stream."""
    k = _JOIN_SLICE
    return b"".join([b"".join(tokens[i : i + k]) for i in range(0, len(tokens), k)])


def join_back_to_front(seq: list[int], table: list[bytes]) -> bytes:
    """The bytes table[i] for each i of seq, read back to front, joined; seq is emptied."""
    get = table.__getitem__
    k = _JOIN_SLICE
    slices = []
    while seq:
        slices.append(b"".join(map(get, reversed(seq[-k:]))))
        del seq[-k:]
    return b"".join(slices)
