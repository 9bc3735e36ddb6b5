"""Forward-adaptive model for the token stream: the dictionary and the ids.

The dictionary lists each distinct token once, ordered by the position of its
last occurrence (ascending). Every coder works on ids, each token's index in
that dictionary. The adaptive coder's prepared sequence is the id stream with
a marker (id d) inserted after each token's last occurrence, then reversed;
in it every marker sits immediately before the occurrence it annotates.
Encoding the marker instead of a token's final occurrence is what lets the
decoder learn the dictionary order without a transmitted frequency table.

map_ids takes the tokens in one pass, so they can come from a generator and
no list of them need exist. The pass numbers each token by first sighting;
the reversed first-sighting ids then give the dictionary order, and one
permutation renumbers the stream. Every loop over the stream runs in C
(map over a dict lookup, dict.fromkeys), and the stream is held as ids, 8
bytes a token, never as tokens.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from itertools import count


def build_dictionary(tokens: Iterable[bytes]) -> list[bytes]:
    """Distinct tokens ordered by last occurrence, earliest first."""
    return map_ids(tokens)[0]


def map_ids(tokens: Iterable[bytes]) -> tuple[list[bytes], list[int]]:
    """The dictionary, and the stream with each token as its dictionary index."""
    # An unseen token gets the next number as the dict stores it.
    index = defaultdict(count().__next__)
    first = list(map(index.__getitem__, tokens))
    # Walking the reversed stream collects ids by descending last occurrence;
    # dict insertion order keeps the first sighting of each.
    last = list(dict.fromkeys(reversed(first)))
    last.reverse()
    seen = list(index)
    renumber = [0] * len(last)
    for i, f in enumerate(last):
        renumber[f] = i
    ids = list(map(renumber.__getitem__, first))
    return list(map(seen.__getitem__, last)), ids
