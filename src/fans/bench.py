"""Benchmark harness: per-file, per-algorithm size and timing rows.

Each row's archive is the one `compress` writes, and its byte accounting comes
straight from the archive parser: dict_bytes includes the fixed header, so
code + dict (+ freqs + final-state varint for static rows) always equals the
file size exactly.

Tokenizing, id mapping and frequency counting happen outside the clock; the
timed encode region is `encode_ids`, model/table construction plus the coding
loop (for the adaptive coder that means building the prepared-sequence
indices, for the static coders building the spread table). The timed decode
region is `decode_ids` on the row's archive: the static decoders rebuild their
table the way a standalone decoder would, the adaptive decoder regrows its
model in-loop. Times are the minimum over the requested repetitions.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from pathlib import Path

from .bitio import pack_bits
from .container import unpack_archive
from .errors import CorruptError, FansError
from .fam_model import map_ids
from .pipeline import compress, count_ids, decode_ids, encode_ids
from .tokenizer import TokenizerMode, iter_tokens


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
    notes: list[str] = []
    raw = Path(path).read_bytes()
    name = Path(path).name
    archive = unpack_archive(compress(raw, algo, mode))
    w0, ids = map_ids(iter_tokens(raw, mode))
    n = len(ids)
    if not n:
        notes.append(f"{name}: no tokens in {mode.value} mode")
    counts = count_ids(ids, len(w0))
    entropy_bits = compute_entropy(counts, n)

    enc_s, (bits, _state, _counts) = timed(encode_ids, algo, ids, len(w0), counts, reps=reps)
    if pack_bits(bits) != archive.code:
        raise CorruptError(f"{name}: timed {algo} code differs from the archive's")
    dec_s, out_ids = timed(decode_ids, archive, ids, reps=reps)
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
) -> tuple[list[BenchRecord], list[str]]:
    """All (file, algo) pairs under a directory; per-file errors are notes."""
    records: list[BenchRecord] = []
    notes: list[str] = []
    paths = sorted(p for p in Path(corpus_dir).iterdir() if p.is_file())
    for path in paths:
        for algo in algos:
            try:
                record, file_notes = bench_file(path, algo, mode, reps)
            except FansError as exc:
                notes.append(f"{path.name}/{algo}: FAILED: {exc}")
                continue
            records.append(record)
            notes.extend(file_notes)
    return records, notes


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
