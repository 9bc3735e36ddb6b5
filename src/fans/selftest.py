"""Built-in sanity checks runnable from the command line.

Covers the frozen hand-trace vectors for the adaptive coder and an
exhaustive sweep of every sequence over a three-token alphabet up to length
eight. Each sequence runs through the pipeline as paper-mode text, so the
tokenizer and the container are checked along with the coder.
"""

from __future__ import annotations

import itertools

from .bitio import pack_bits
from .container import unpack_archive
from .pipeline import compress, decompress
from .tokenizer import TokenizerMode

# (tokens, expected code bits in push order, expected dictionary)
HAND_TRACES = [
    ([b"a", b"b", b"a"], [1, 0, 0, 1, 0], [b"b", b"a"]),
    ([b"a", b"a"], [1, 0, 0], [b"a"]),
    ([b"a"], [0], [b"a"]),
]

EXHAUSTIVE_ALPHABET = [b"a", b"b", b"c"]
EXHAUSTIVE_MAX_LEN = 8


def run(log=None) -> int:
    """Run all checks; returns the number of failures (0 is success)."""
    failures = 0

    def note(message: str) -> None:
        if log is not None:
            log(message)

    for tokens, want_bits, want_dict in HAND_TRACES:
        data = compress(b" ".join(tokens), "fam", TokenizerMode.PAPER)
        archive = unpack_archive(data)
        if archive.code != pack_bits(want_bits) or archive.entries != want_dict:
            failures += 1
            note(f"FAIL trace {tokens}: code {archive.code}, dict {archive.entries}")
            continue
        decoded = decompress(data)
        if decoded != b"\n".join(tokens) + b"\n":
            failures += 1
            note(f"FAIL trace {tokens}: decoded {decoded!r}")
            continue
        note(f"ok trace {tokens} -> {want_bits}")

    checked = 0
    bad = 0
    for length in range(1, EXHAUSTIVE_MAX_LEN + 1):
        for combo in itertools.product(EXHAUSTIVE_ALPHABET, repeat=length):
            text = b" ".join(combo)
            out = decompress(compress(text, "fam", TokenizerMode.PAPER))
            if out != text.replace(b" ", b"\n") + b"\n":
                bad += 1
            checked += 1
    if bad:
        failures += 1
        note(f"FAIL exhaustive sweep: {bad} of {checked} sequences broke")
    else:
        note(f"ok exhaustive sweep: {checked} sequences round-tripped")
    return failures
