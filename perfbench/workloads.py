"""Seeded inputs for the benchmark workloads.

Every input is built from the two corpus texts under tests/data/corpus/ and
the seed alone, so one seed always gives the same bytes. The generators use
their own word regex rather than fans' tokenizer, so a change to the program
cannot change the inputs it is measured on.
"""

from __future__ import annotations

import random
import re
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

CORPUS_DIR = Path("tests") / "data" / "corpus"
CORPUS_FILES = ("alice29.txt", "asyoulik.txt")

BOOK_COPIES = 8
# 21 tagged copies of the ~14.6k-word corpus give ~306k tokens and ~33k
# distinct words: acceptance 6's vocabulary growth at a seventh of its length.
VOCAB_COPIES = 21
VOCAB_TAG_LETTERS = 4
SMALL_FILES = 24
SMALL_MIN, SMALL_MAX = 1024, 8192


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # tokenizer mode given to `fans compress -m`
    algos: tuple[str, ...]  # coders the CLI runs on every input, in order
    comparison: str  # the other coder family, run on the same tokens when traced
    child_process: bool  # every CLI call is a fresh `python -m fans.cli`


WORKLOADS = {
    w.name: w
    for w in (
        Workload("book-fam", "lossless", ("fam",), "ranged", False),
        Workload("vocab-static", "paper", ("ranged", "uniform"), "fam", False),
        Workload("small-cli", "lossless", ("fam",), "ranged", True),
    )
}


def read_corpus(root: Path) -> list[bytes]:
    return [(root / CORPUS_DIR / name).read_bytes() for name in CORPUS_FILES]


def make_inputs(name: str, texts: list[bytes], seed: int) -> list[bytes]:
    rng = random.Random(seed)
    if name == "book-fam":
        return [_book(texts, rng)]
    if name == "vocab-static":
        return [_vocab(texts, rng)]
    if name == "small-cli":
        return _slices(texts, rng)
    raise ValueError(f"unknown workload {name!r}")


def _book(texts: list[bytes], rng: random.Random) -> bytes:
    book = b"".join(texts) * BOOK_COPIES
    r = rng.randrange(len(book))
    return book[r:] + book[:r]


def _vocab(texts: list[bytes], rng: random.Random) -> bytes:
    """One lowercase word per line, so paper mode round-trips it exactly.

    Words seen at most twice in the corpus get a per-copy tag, which grows
    the vocabulary the way a long text's does. Tags are letters only because
    the paper tokenizer drops digits.
    """
    words = [w.lower() for text in texts for w in re.findall(rb"[A-Za-z]+", text)]
    census = Counter(words)
    tags: list[bytes] = []
    while len(tags) < VOCAB_COPIES:
        tag = "".join(rng.choices(string.ascii_lowercase, k=VOCAB_TAG_LETTERS)).encode()
        if tag not in tags:
            tags.append(tag)
    stream = [w + tag if census[w] <= 2 else w for tag in tags for w in words]
    return b"\n".join(stream) + b"\n"


def _slices(texts: list[bytes], rng: random.Random) -> list[bytes]:
    """Slices of evenly spread sizes, each from its own stretch of the corpus.

    Slice i has a fixed size and starts at a seeded point in the i-th
    stretch, so the size mix and the share of each text stay the same across
    seeds and the archive ratio barely moves with the seed.
    """
    corpus = b"".join(texts)
    stretch = len(corpus) // SMALL_FILES
    out = []
    for i in range(SMALL_FILES):
        size = SMALL_MIN + (SMALL_MAX - SMALL_MIN) * i // (SMALL_FILES - 1)
        start = min(i * stretch + rng.randrange(stretch), len(corpus) - size)
        out.append(corpus[start : start + size])
    rng.shuffle(out)
    return out
