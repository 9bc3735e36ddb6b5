"""Library entry points: bytes to archive and back, through dictionary ids.

compress tokenizes, numbers each token by its index in the last-occurrence
dictionary, codes the ids and packs the archive; decompress runs the chain
backwards. The tokens go from the tokenizer straight into the numbering, so
compress holds the stream as ids and never as a list of tokens. encode_ids
and decode_ids are the coding stage alone, model or table build plus the
coding loop, which is what the benchmark times.

The static coders' table is the spread, a list whose entry j is the id that
owns slot j. static_codec.build_spread_ids builds it from the census list,
with the id standing in for the dictionary index, so its tie-breaks and its
slots are the ones a token-keyed spread over the same dictionary gets. The
encoder derives each id's slot table from it, and the decoder its next-state
table.

This is the only module in the package that imports a coder; the CLI, the
benchmark harness and the selftest reach the coders through it. The static
coder is imported inside the static branches only, so an adaptive call and
the CLI's start-up never load it.
"""

from __future__ import annotations

from .bitio import pack_bits
from .container import (
    ALGO_FAM,
    ALGO_IDS,
    ALGO_NAMES,
    ALGO_TEXT_ORDER,
    Archive,
    pack_archive,
    unpack_archive,
)
from .errors import NotDecodableError
from .fam_codec import fam_decode_ids, fam_encode_ids
from .fam_model import map_ids
from .tokenizer import TokenizerMode, detokenize, iter_tokens


def count_ids(ids: list[int], d: int) -> list[int]:
    """Occurrences of each id 0..d-1."""
    counts = [0] * d
    for i in ids:
        counts[i] += 1
    return counts


def encode_ids(
    algo: str, ids: list[int], d: int, counts: list[int] | None = None
) -> tuple[bytearray, int | None, list[int] | None]:
    """Code an id stream; returns (code bits as 0/1 bytes, final state, census).

    The static coders count the ids unless given their counts, and return the
    census they used. The adaptive coder needs none and leaves no final state
    to store, so it returns None for both.
    """
    if algo == "fam":
        return fam_encode_ids(ids, d)[0], None, None
    if counts is None:
        counts = count_ids(ids, d)
    from .static_codec import SpreadStrategy, build_spread_ids, static_encode_ids

    spread = build_spread_ids(SpreadStrategy(algo), counts, ids)
    bits, final_state = static_encode_ids(ids, spread, counts)
    return bits, final_state, counts


def decode_ids(archive: Archive, text: list[int] | None = None) -> list[int]:
    """Decode an archive's code section to the id stream.

    A text-order table is the reversed id stream itself, so only a caller
    that already holds it (`text`) can decode such an archive.
    """
    if archive.algo == ALGO_FAM:
        return fam_decode_ids(archive.code, archive.d, archive.n)[0]
    if archive.algo == ALGO_TEXT_ORDER and text is None:
        raise NotDecodableError(
            "text-order archives are for size comparison only: their table is "
            "the reversed text and cannot be rebuilt from the archive"
        )
    from .static_codec import SpreadStrategy, build_spread_ids, static_decode_ids

    counts = archive.freqs
    spread = build_spread_ids(SpreadStrategy(ALGO_NAMES[archive.algo]), counts, text)
    return static_decode_ids(archive.code, archive.final_state, spread, counts, archive.n)


def compress(
    raw: bytes,
    algo: str = "fam",
    mode: TokenizerMode = TokenizerMode.LOSSLESS,
) -> bytes:
    """Archive bytes for raw."""
    dictionary, ids = map_ids(iter_tokens(raw, mode))
    n = len(ids)
    bits, final_state, counts = encode_ids(algo, ids, len(dictionary))
    del ids
    freqs = None
    if counts is not None:
        from .static_codec import StaticFrequencies

        freqs = StaticFrequencies(dict(zip(dictionary, counts)), n)
    return pack_archive(
        ALGO_IDS[algo],
        mode,
        n,
        dictionary,
        pack_bits(bits),
        final_state=final_state,
        freqs=freqs,
    )


def decompress(data: bytes) -> bytes:
    """The original bytes, or in paper mode the words one per line."""
    archive = unpack_archive(data)
    if archive.filtered:
        raise NotDecodableError(
            "the dictionary was passed through an external filter command, "
            "which fans no longer runs"
        )
    ids = decode_ids(archive)
    tokens = [archive.entries[i] for i in ids]
    del ids
    return detokenize(tokens, archive.mode)
