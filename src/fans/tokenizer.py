"""Byte-level word tokenizer with a lossless and a words-only mode.

Lossless mode alternates maximal runs of ASCII letters/digits with maximal
runs of everything else, so concatenating the tokens reproduces the input
exactly. Paper mode keeps only ASCII-alphabetic runs, lowercased; it is meant
for benchmarking against word-model results and is not reversible, so its
archives decompress to one word per line.

iter_tokens reads the input in chunks of about _CHUNK bytes and yields the
tokens of one chunk at a time, so a caller that consumes them as they come
(number_ids does) never holds a bytes object per token of the whole input. Each
chunk is cut where no token can straddle the cut: in lossless mode at the
first character-class change at or past _CHUNK bytes, in paper mode just
after the first non-letter there. A run longer than a chunk just makes that
chunk longer. So the chunks' tokens, in order, are the tokens of the whole
input, and tokenize is the list of them.

Lossless tokens come from one split per chunk on the letter/digit runs, with
the runs kept. The split alternates separator and word runs, and only its
first and last item can be empty (when the chunk starts or ends with a word),
so dropping those leaves the tokens. That is cheaper than matching a
two-branch alternation run by run. Paper tokens come from one translate and
one whitespace split per chunk, both in C, rather than a regex over a
lowered copy.

detokenize concatenates lossless tokens, which gives back the original
bytes; paper output, one word per line, is joined by the decompressor. It
joins the tokens a slice at a time, then joins the slices. bytes.join first
takes an 80-byte buffer view of every item, so one join over a book's worth
of short tokens allocates far more than the bytes it returns; over slices
that overhead is bounded by the slice length, and the peak stays near twice
the output on a book and within four times it on a short text.
join_back_to_front does the same for a decoder's sequence.
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


_LOSSLESS_RE = re.compile(rb"([0-9A-Za-z]+)")
# Matched one byte before a chunk's nominal end, these reach the chunk's cut:
# the end of the run holding that byte (lossless), or just past the first
# non-letter from there (paper). Either ends at or past the nominal end.
_LOSSLESS_CUT = re.compile(rb"[0-9A-Za-z]+|[^0-9A-Za-z]+")
_PAPER_CUT = re.compile(rb"[A-Za-z]*[^A-Za-z]?")
# Paper mode's translate table: A-Z to a-z, a-z kept, any other byte a space.
_PAPER_TABLE = bytes(
    v + 32 if 65 <= v <= 90 else v if 97 <= v <= 122 else 32 for v in range(256)
)
# Nominal bytes per tokenizer chunk.
_CHUNK = 1 << 16
# Tokens per detokenize slice: bounds bytes.join's per-item views at ~80 KB,
# which small inputs would otherwise pay in full.
_JOIN_SLICE = 1024


def _lossless_tokens(chunk: bytes) -> list[bytes]:
    tokens = _LOSSLESS_RE.split(chunk)
    if not tokens[-1]:
        tokens.pop()
    if not tokens[0]:
        del tokens[0]
    return tokens


def _paper_tokens(chunk: bytes) -> list[bytes]:
    return chunk.translate(_PAPER_TABLE).split()


def _chunks(data: bytes, cut: re.Pattern) -> Iterator[bytes]:
    size = len(data)
    start = 0
    while start < size:
        end = start + _CHUNK
        stop = cut.match(data, end - 1).end() if end < size else size
        yield data[start:stop]
        start = stop


def iter_tokens(data: bytes, mode: TokenizerMode = TokenizerMode.LOSSLESS) -> Iterator[bytes]:
    """The tokens of data, a chunk at a time; an unknown mode raises here."""
    if mode is TokenizerMode.LOSSLESS:
        chunks = map(_lossless_tokens, _chunks(data, _LOSSLESS_CUT))
    elif mode is TokenizerMode.PAPER:
        chunks = map(_paper_tokens, _chunks(data, _PAPER_CUT))
    else:
        raise ModeError(f"unknown tokenizer mode: {mode!r}")
    return chain.from_iterable(chunks)


def tokenize(data: bytes, mode: TokenizerMode = TokenizerMode.LOSSLESS) -> list[bytes]:
    return list(iter_tokens(data, mode))


def detokenize(tokens: list[bytes]) -> bytes:
    """The tokens joined: the original bytes of a lossless stream."""
    k = _JOIN_SLICE
    return b"".join([b"".join(tokens[i : i + k]) for i in range(0, len(tokens), k)])


def join_back_to_front(seq: list[int], table: list[bytes]) -> bytes:
    """The bytes table[i] for each i of seq, read back to front, joined."""
    get = table.__getitem__
    k = _JOIN_SLICE
    return b"".join(
        [b"".join(map(get, reversed(seq[max(i - k, 0) : i]))) for i in range(len(seq), 0, -k)]
    )
