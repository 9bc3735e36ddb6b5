"""Forward-adaptive model for the token stream: the dictionary and the ids.

The dictionary lists each distinct token once, ordered by the position of its
last occurrence (ascending). Every coder works on ids, each token's index in
that dictionary. The adaptive coder's prepared sequence is the id stream with
a marker (id d) inserted after each token's last occurrence, then reversed;
in it every marker sits immediately before the occurrence it annotates.
Encoding the marker instead of a token's final occurrence is what lets the
decoder learn the dictionary order without a transmitted frequency table.
"""

from __future__ import annotations

from typing import Sequence


def build_dictionary(tokens: Sequence[bytes]) -> list[bytes]:
    """Distinct tokens ordered by last occurrence, earliest first."""
    # Walking the reversed stream collects tokens by descending last
    # occurrence; dict insertion order keeps the first sighting of each.
    return list(dict.fromkeys(reversed(tokens)))[::-1]


def map_ids(tokens: Sequence[bytes]) -> tuple[list[bytes], list[int]]:
    """The dictionary, and the stream with each token as its dictionary index."""
    dictionary = build_dictionary(tokens)
    index = {t: i for i, t in enumerate(dictionary)}
    return dictionary, [index[t] for t in tokens]
