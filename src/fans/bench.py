"""Benchmark harness: per-file, per-algorithm size and timing rows.

Each row tokenizes and numbers its file once. The timed encode region is
`encode_ids`, model/table construction plus the coding loop (for the adaptive
coder that means building the prepared-sequence indices, for the static
coders building the spread table); the row's archive is packed from that same
result by `pipeline.pack_coded`, compress's own pack step, so it is the
archive `compress` writes. Its byte accounting comes straight from the
archive parser: dict_bytes includes the fixed header, so code + dict
(+ freqs + final-state varint for static rows) always equals the file size
exactly.

The textorder row is the paper's size yardstick for the static coders: its
slots follow the reversed token stream, so no archive can carry its table.
It is packed with the uniform layout, since a static archive's layout does
not depend on its spread, and decoded with the stream in hand.

The timed decode region is `decode_ids` on the row's archive: the static
decoders rebuild their table the way a standalone decoder would, the
adaptive decoder regrows its model in-loop, and the ids are read off the
decoder's sequence. Tokenizing, numbering, counting and packing happen
outside the clock. Times are the minimum over the requested repetitions.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from pathlib import Path

from .container import unpack_archive
from .errors import CorruptError, FansError
from .fam_model import number_ids, renumber
from .pipeline import count_ids, decode_ids, encode_ids, pack_coded
from .tokenizer import TokenizerMode, iter_tokens

ALGOS = ("fam", "ranged", "uniform", "textorder")


BenchRecord = namedtuple(
    "BenchRecord",
    "text algo code_bytes dict_bytes freq_bytes total_bytes"
    " encode_seconds decode_seconds token_count entropy_bits",
)


def compute_entropy(counts, total: int) -> float:
    """Shannon information in bits of counts summing to total M: sum c_i * log2(M / c_i).

    An archive's freqs and n have this shape.
    """
    if total == 0:
        return 0.0
    log2_total = math.log2(total)
    return sum(c * (log2_total - math.log2(c)) for c in counts)


def model_bits(ids: list[int], d: int) -> float:
    """Sum of log2(l / fw) over the adaptive encoder's steps.

    l is the table size at the step and fw the coded symbol's live frequency;
    a token's last occurrence is coded as the marker, id d, with its fw.
    """
    f = [c - 1 for c in count_ids(ids, d)]
    f.append(d)
    l = len(ids) + d
    bits = 0.0
    for w in ids:
        if f[w] == 0:
            w = d
            l -= 1
        bits += math.log2(l / f[w])
        l -= 1
        f[w] -= 1
    return bits


def _check_algos(algos) -> None:
    for algo in algos:
        if algo not in ALGOS:
            raise ValueError(f"unknown algorithm {algo!r}: bench takes {', '.join(ALGOS)}")


def timed(fn, *args, reps: int = 1):
    """(min seconds over reps, last result) of fn(*args)."""
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_file(
    path: Path,
    algo: str,
    mode: TokenizerMode,
    reps: int = 1,
) -> tuple[BenchRecord, list[str]]:
    """One (file, algorithm) row plus free-form notes for stderr."""
    _check_algos([algo])
    notes: list[str] = []
    raw = Path(path).read_bytes()
    name = Path(path).name
    seen, ids = number_ids(iter_tokens(raw, mode))
    n, d = len(ids), len(seen)
    if not n:
        notes.append(f"{name}: no tokens in {mode.value} mode")
    counts = count_ids(ids, d)
    entropy_bits = compute_entropy(counts, n)

    enc_s, coded = timed(encode_ids, algo, ids, seen, counts, reps=reps)
    # No archive carries a text-order table, and a static archive's layout
    # does not depend on its spread.
    layout = "uniform" if algo == "textorder" else algo
    archive = unpack_archive(pack_coded(layout, mode, seen, n, coded))
    # decode_ids gives dictionary ids, and the textorder table is built from
    # the stream in them.
    ids = renumber(ids, coded[3])
    text = ids if algo == "textorder" else None
    dec_s, out_ids = timed(decode_ids, archive, text, reps=reps)
    if out_ids != ids:
        raise CorruptError(f"{name}: {algo} round trip mismatch")

    sizes = archive.sizes
    record = BenchRecord(
        text=name,
        algo=algo,
        code_bytes=sizes.code,
        dict_bytes=sizes.header + sizes.dict_region,
        freq_bytes=sizes.freqs + sizes.final_state,
        total_bytes=sizes.total,
        encode_seconds=enc_s,
        decode_seconds=dec_s,
        token_count=n,
        entropy_bits=entropy_bits,
    )
    if algo == "fam" and record.code_bytes * 8 < entropy_bits:
        notes.append(
            f"{name}: adaptive code ({record.code_bytes * 8} bits) beats the "
            f"static entropy bound ({entropy_bits:.1f} bits)"
        )
    return record, notes


def bench_dir(
    corpus_dir: Path,
    algos: list[str],
    mode: TokenizerMode,
    reps: int = 1,
) -> tuple[list[BenchRecord], list[str], list[str]]:
    """All (file, algo) pairs under a directory: (records, notes, failures).

    A pair whose bench raises a FansError has no record; its error is a
    failure, kept apart from the notes.
    """
    _check_algos(algos)
    records: list[BenchRecord] = []
    notes: list[str] = []
    failures: list[str] = []
    paths = sorted(p for p in Path(corpus_dir).iterdir() if p.is_file())
    for path in paths:
        for algo in algos:
            try:
                record, file_notes = bench_file(path, algo, mode, reps)
            except FansError as exc:
                failures.append(f"{path.name}/{algo}: FAILED: {exc}")
                continue
            records.append(record)
            notes.extend(file_notes)
    return records, notes, failures


_FIELDS = BenchRecord._fields


def _cell(record: BenchRecord, field_name: str) -> str:
    value = getattr(record, field_name)
    if field_name.endswith("_seconds"):
        return f"{value:.4f}"
    if field_name == "entropy_bits":
        return f"{value:.1f}"
    return str(value)


def format_csv(records: list[BenchRecord]) -> str:
    lines = [",".join(_FIELDS)]
    for record in records:
        lines.append(",".join(_cell(record, f) for f in _FIELDS))
    return "\n".join(lines) + "\n"


def format_markdown(records: list[BenchRecord]) -> str:
    header = "| " + " | ".join(_FIELDS) + " |"
    rule = "|" + "|".join(" --- " for _ in _FIELDS) + "|"
    lines = [header, rule]
    for record in records:
        lines.append("| " + " | ".join(_cell(record, f) for f in _FIELDS) + " |")
    return "\n".join(lines) + "\n"
