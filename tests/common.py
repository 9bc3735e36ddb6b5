"""What several test files share: the corpus texts, a traced-peak window and a
spread's slot lists. The tests pin bytes of these copies of the texts; only
tests/test_acceptance.py reads FANS_CORPUS_DIR to check another copy."""

from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

CORPUS = Path(__file__).parent / "data" / "corpus"
ALICE = CORPUS / "alice29.txt"


def corpus_times(k: int) -> bytes:
    """The corpus texts in name order, joined, k times over."""
    return b"".join(path.read_bytes() for path in sorted(CORPUS.glob("*.txt"))) * k


def traced_peak(fn, *args):
    """(fn(*args), the peak of traced memory during that call alone).

    A full collection empties CPython's free lists, so one that fires inside
    the traced call sends later allocations to the traced allocator and
    raises the peak, depending on what earlier tests allocated. With the
    collector off, the peak does not depend on when it last ran.
    """
    gc.disable()
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def slot_lists(spread) -> dict:
    """Each symbol's slots in ascending order, as the spread assigns them."""
    slots: dict = {}
    for j, s in enumerate(spread):
        slots.setdefault(s, []).append(j)
    return slots
