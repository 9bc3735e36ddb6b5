"""Forward-adaptive model for the token stream: the dictionary and the ids.

The dictionary lists each distinct token once, ordered by the position of its
last occurrence (ascending). The adaptive coder's prepared sequence is the id
stream with a marker (id d) inserted after each token's last occurrence, then
reversed; in it every marker sits immediately before the occurrence it
annotates. Encoding the marker instead of a token's final occurrence is what
lets the decoder learn the dictionary order without a transmitted frequency
table.

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


def last_occurrence_order(ids: list[int]) -> list[int]:
    """The distinct ids ordered by last occurrence, earliest first."""
    # Walking the reversed stream collects ids by descending last occurrence;
    # dict insertion order keeps the first sighting of each.
    order = list(dict.fromkeys(reversed(ids)))
    order.reverse()
    return order


def renumber(ids: list[int], order: list[int]) -> list[int]:
    """The stream with each id replaced by its position in order."""
    position = [0] * len(order)
    for i, f in enumerate(order):
        position[f] = i
    return list(map(position.__getitem__, ids))


def build_dictionary(tokens: Iterable[bytes]) -> list[bytes]:
    """Distinct tokens ordered by last occurrence, earliest first."""
    seen, ids = number_ids(tokens)
    return [seen[i] for i in last_occurrence_order(ids)]
