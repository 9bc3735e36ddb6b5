"""Library entry points: bytes to archive and back, through ids.

compress numbers the tokens once, by first sighting, as the tokenizer yields
them, so it holds the stream as ids and never as tokens; encode_ids codes
them, and pack_coded turns the coder's result into the archive: the
dictionary in the coder's order, the counts, the packed code bits and the
container. decompress joins the output straight from the sequence the
decoder rebuilt, back to front, paper mode's one word per line included;
the parser has already refused any archive it cannot decode. encode_ids and
decode_ids are the coding stage alone, model or table build plus the coding
loop, which is what the benchmark times; it packs each row's archive with
pack_coded from the same result.

The static coders' table is the spread, a list whose entry j is the id that
owns slot j, laid out in dictionary order: byte order, since a static
archive carries its counts and so is free to sort its dictionary. The
encoder derives each id's slot table from it, and the decoder its
next-state table; decoding takes the stored order as it is, so archives
written in another order still decode. encode_ids also
takes "textorder", the spread that follows the reversed id stream: the
benchmark's size yardstick, which no archive can carry, since its table is
the text. decode_ids reads a static archive with that table when given the
text.

This is the only module in the package that imports a coder; the CLI and
the benchmark harness reach the coders through it. The static coder is
imported inside the static branches only, so an adaptive call and the CLI's
start-up never load it.
"""

from __future__ import annotations

from .bitio import pack_bits
from .container import (
    ALGO_FAM,
    ALGO_IDS,
    ALGO_NAMES,
    Archive,
    pack_archive,
    unpack_archive,
)
from .fam_codec import fam_decode_ids, fam_encode_ids
from .fam_model import number_ids
from .tokenizer import TokenizerMode, iter_tokens, join_back_to_front


def count_ids(ids: list[int], d: int) -> list[int]:
    """Occurrences of each id 0..d-1."""
    counts = [0] * d
    for i in ids:
        counts[i] += 1
    return counts


def encode_ids(
    algo: str, ids: list[int], seen: list[bytes], counts: list[int] | None = None
) -> tuple[bytearray, int | None, list[int] | None, list[int]]:
    """Code an id stream; returns (code bits as 0/1 bytes, final state, census, order).

    ids index seen, the distinct tokens by first sighting, as number_ids
    returns them; order lists the ids in dictionary order. The adaptive
    coder's order is the one its markers transmit, and it leaves no census or
    final state to store, so it returns None for both. The static coders
    build their spread in byte order, which the container front-codes; they
    count the ids unless given their counts, and return the census they used.
    """
    d = len(seen)
    if algo == "fam":
        bits, order, _, _ = fam_encode_ids(ids, d)
        return bits, None, None, order
    if counts is None:
        counts = count_ids(ids, d)
    from .static_codec import SpreadStrategy, build_spread_ids, static_encode_ids

    # Sorting the stream's own id objects, not range(d)'s, keeps d fresh
    # ints (about 0.9 MB on a 33k-word dictionary) out of the spread.
    order = sorted(set(ids), key=seen.__getitem__)
    spread = build_spread_ids(SpreadStrategy(algo), counts, order, ids)
    bits, final_state = static_encode_ids(ids, spread, counts)
    return bits, final_state, counts, order


def decode_sequence(archive: Archive, text: list[int] | None = None) -> list[int]:
    """Decode an archive's code section to dictionary ids, back to front.

    The adaptive decoder's sequence also holds its markers, id d. Given the
    id stream in dictionary ids (`text`), a static archive is read with the
    text-order table, the reversed stream.
    """
    if archive.algo == ALGO_FAM:
        return fam_decode_ids(archive.code, archive.d, archive.n)[0]
    from .static_codec import SpreadStrategy, build_spread_ids, static_decode_ids

    counts = archive.freqs
    name = ALGO_NAMES[archive.algo] if text is None else "textorder"
    spread = build_spread_ids(SpreadStrategy(name), counts, range(archive.d), text)
    return static_decode_ids(archive.code, archive.final_state, spread, counts, archive.n)


def decode_ids(archive: Archive, text: list[int] | None = None) -> list[int]:
    """The id stream of an archive, in dictionary ids."""
    ids = [w for w in decode_sequence(archive, text) if w != archive.d]
    ids.reverse()
    return ids


def pack_coded(algo: str, mode: TokenizerMode, seen: list[bytes], n: int, coded) -> bytes:
    """Archive bytes from encode_ids's result: compress's pack step.

    seen lists the distinct tokens by first sighting, as number_ids returns
    them, and n counts the tokens coded.
    """
    bits, final_state, counts, order = coded
    dictionary = [seen[i] for i in order]
    freqs = None
    if counts is not None:
        from .static_codec import StaticFrequencies

        freqs = StaticFrequencies(dict(zip(dictionary, [counts[i] for i in order])), n)
    return pack_archive(
        ALGO_IDS[algo],
        mode,
        n,
        dictionary,
        pack_bits(bits),
        final_state=final_state,
        freqs=freqs,
    )


def compress(
    raw: bytes,
    algo: str = "fam",
    mode: TokenizerMode = TokenizerMode.LOSSLESS,
) -> bytes:
    """Archive bytes for raw; algo is one of ALGO_IDS."""
    if algo not in ALGO_IDS:
        raise ValueError(f"unknown algorithm {algo!r}: choose {', '.join(ALGO_IDS)}")
    seen, ids = number_ids(iter_tokens(raw, mode))
    n = len(ids)
    coded = encode_ids(algo, ids, seen)
    del ids
    return pack_coded(algo, mode, seen, n, coded)


def decompress(data: bytes) -> bytes:
    """The original bytes, or in paper mode the words one per line."""
    archive = unpack_archive(data)
    seq = decode_sequence(archive)
    # The marker id d adds nothing; the archive goes before the join.
    if archive.mode is TokenizerMode.PAPER:
        table = [entry + b"\n" for entry in archive.entries]
    else:
        table = archive.entries.copy()
    table.append(b"")
    del archive
    return join_back_to_front(seq, table)
