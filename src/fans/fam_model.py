"""Token numbering and dictionary orders for the coders.

An adaptive archive's dictionary lists each distinct token once, ordered by
the position of its last occurrence (ascending). The adaptive coder's
prepared sequence is the id stream with a marker (id d) inserted after each
token's last occurrence, then reversed; in it every marker sits immediately
before the occurrence it annotates. Encoding the marker instead of a token's
final occurrence is what lets the decoder learn the dictionary order without
a transmitted frequency table, so fam_codec.fam_encode_ids computes that
order itself and returns it with the code.

A static archive carries its counts, so its dictionary order is free: it is
byte order, which the container front-codes. pipeline.encode_ids sorts the
first-sighting ids into it; build_dictionary gives the same order for a
token list, for perfbench/tracing.py's replay, which builds its static
dictionaries with it and must write the pipeline's archives.

number_ids numbers the tokens by first sighting in one pass, so they can come
from a generator and no list of them need exist. The coders use ids only as
keys and take these as they are; the numbering reaches the archive only
through the dictionary order. renumber gives the stream in dictionary ids,
as the decoders return it, for the benchmark and the tests.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from itertools import count


def number_ids(tokens: Iterable[bytes]) -> tuple[list[bytes], list[int]]:
    """(distinct tokens in first-sighting order, the stream as indexes into them)."""
    # An unseen token gets the next number as the dict stores it.
    index = defaultdict(count().__next__)
    ids = list(map(index.__getitem__, tokens))
    return list(index), ids


def renumber(ids: list[int], order: list[int]) -> list[int]:
    """The stream with each id replaced by its position in order."""
    position = [0] * len(order)
    for i, f in enumerate(order):
        position[f] = i
    return list(map(position.__getitem__, ids))


def build_dictionary(tokens: Iterable[bytes]) -> list[bytes]:
    """A static archive's dictionary: the distinct tokens in byte order."""
    return sorted(set(tokens))
