"""Benchmark harness: per-file, per-algorithm size and timing rows.

Tokenizing, dictionary building and frequency counting happen outside the
clock; the timed encode region is model/table construction plus the coding
loop (for the adaptive coder that means building the prepared-sequence
indices, for the static coders building the spread table). Decode timing
mirrors it: the static decoders rebuild their table the way a standalone
decoder would, the adaptive decoder regrows its model in-loop. Times are the
minimum over the requested repetitions.

Byte accounting comes straight from the archive parser: dict_bytes includes
the fixed header, so code + dict (+ freqs + final-state varint for static
rows) always equals the file size exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

from . import fam_codec, static_codec
from .bitio import BitStack, pack
from .container import (
    ALGO_FAM,
    ALGO_IDS,
    pack_archive,
    unpack_archive,
)
from .errors import CorruptError, FansError
from .fam_model import build_dictionary
from .static_codec import SpreadStrategy, StaticFrequencies
from .tokenizer import TokenizerMode, tokenize

STRATEGIES = {
    "ranged": SpreadStrategy.RANGED,
    "uniform": SpreadStrategy.UNIFORM,
    "textorder": SpreadStrategy.TEXT_ORDER,
}


@dataclass
class BenchRecord:
    text: str
    algo: str
    code_bytes: int
    dict_bytes: int
    freq_bytes: int
    total_bytes: int
    encode_seconds: float
    decode_seconds: float
    token_count: int
    entropy_bits: float


def compute_entropy(freqs: StaticFrequencies) -> float:
    """Shannon information of the census in bits: sum c_i * log2(M / c_i)."""
    return _entropy_from_counts(freqs.counts.values(), freqs.total)


def _entropy_from_counts(counts, total) -> float:
    if total == 0:
        return 0.0
    log2_total = math.log2(total)
    return sum(c * (log2_total - math.log2(c)) for c in counts)


def _map_ids(tokens):
    w0 = build_dictionary(tokens)
    tok2id = {t: i for i, t in enumerate(w0)}
    ids = [tok2id[t] for t in tokens]
    counts = [0] * len(w0)
    for i in ids:
        counts[i] += 1
    return w0, ids, counts


def _build_table_ids(name: str, ids, counts):
    """Spread table in id space; tie-breaks use the id as dictionary index."""
    freqs = StaticFrequencies(dict(enumerate(counts)), len(ids))
    return static_codec.build_spread(SpreadStrategy(name), freqs, range(len(counts)), ids)


def timed_fam_encode(ids, d: int, reps: int = 1):
    """Min seconds over reps for index building plus the encode loop."""
    best = math.inf
    result = None
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        result = fam_codec._encode_core(ids, d)
        best = min(best, time.perf_counter() - t0)
    return best, result


def timed_fam_decode(code: BitStack, d: int, n: int, reps: int = 1):
    best = math.inf
    result = None
    for _ in range(max(1, reps)):
        stack = code.copy()
        t0 = time.perf_counter()
        result = fam_codec._decode_core(stack, d, n)
        best = min(best, time.perf_counter() - t0)
    return best, result


def timed_static_encode(name: str, ids, counts, reps: int = 1):
    """Min seconds over reps for spread construction plus the encode loop."""
    best = math.inf
    result = None
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        table = _build_table_ids(name, ids, counts)
        bits, state = static_codec._encode_core(ids, counts, table.slots, len(ids))
        best = min(best, time.perf_counter() - t0)
        result = (bits, state, table)
    return best, result


def timed_static_decode(name: str, code: BitStack, final_state: int, ids, counts, n, reps=1):
    best = math.inf
    result = None
    for _ in range(max(1, reps)):
        stack = code.copy()
        t0 = time.perf_counter()
        table = _build_table_ids(name, ids, counts)
        result = static_codec._decode_core(
            stack, final_state, table.spread, counts, table.slots, n, n
        )
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_file(
    path: Path,
    algo: str,
    mode: TokenizerMode,
    reps: int = 1,
    lex_dict: bool = False,
) -> tuple[BenchRecord, list[str]]:
    """One (file, algorithm) row plus free-form notes for stderr."""
    notes: list[str] = []
    raw = Path(path).read_bytes()
    tokens = tokenize(raw, mode)
    n = len(tokens)
    name = Path(path).name

    if n == 0:
        record = BenchRecord(name, algo, 0, 0, 0, 0, 0.0, 0.0, 0, 0.0)
        if algo == "fam":
            archive = pack_archive(ALGO_FAM, mode, 0, [], pack(BitStack()))
        else:
            archive = pack_archive(
                ALGO_IDS[algo], mode, 0, [], pack(BitStack()), final_state=0
            )
        sizes = unpack_archive(archive).sizes
        record.dict_bytes = sizes.header + sizes.dict_region
        record.freq_bytes = sizes.freqs + sizes.final_state
        record.total_bytes = sizes.total
        notes.append(f"{name}: no tokens in {mode.value} mode")
        return record, notes

    w0, ids, counts = _map_ids(tokens)
    d = len(w0)
    entropy_bits = _entropy_from_counts(counts, n)

    if algo == "fam":
        enc_s, (bits, x, l) = timed_fam_encode(ids, d, reps)
        if x != 1 or l != 0:
            raise CorruptError("encoder did not drain to state 1")
        code = BitStack(bits)
        dec_s, (out_ids, _) = timed_fam_decode(code, d, n, reps)
        if out_ids != ids:
            raise CorruptError(f"{name}: adaptive round trip mismatch")
        archive = pack_archive(ALGO_FAM, mode, n, w0, pack(code))
    else:
        enc_s, (bits, state, _table) = timed_static_encode(algo, ids, counts, reps)
        code = BitStack(bits)
        dec_s, out_ids = timed_static_decode(algo, code, state, ids, counts, n, reps)
        if out_ids != ids:
            raise CorruptError(f"{name}: static round trip mismatch")
        freqs = StaticFrequencies({w0[i]: c for i, c in enumerate(counts)}, n)
        archive = pack_archive(
            ALGO_IDS[algo], mode, n, w0, pack(code), final_state=state, freqs=freqs
        )

    sizes = unpack_archive(archive).sizes
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
    if lex_dict:
        from .container import encode_dict_entries

        lex_blob = encode_dict_entries(sorted(w0))
        notes.append(f"{name}: dictionary blob lexicographic {len(lex_blob)} bytes")
    return record, notes


def bench_dir(
    corpus_dir: Path,
    algos: list[str],
    mode: TokenizerMode,
    reps: int = 1,
    lex_dict: bool = False,
) -> tuple[list[BenchRecord], list[str]]:
    """All (file, algo) pairs under a directory; per-file errors are notes."""
    records: list[BenchRecord] = []
    notes: list[str] = []
    paths = sorted(p for p in Path(corpus_dir).iterdir() if p.is_file())
    for path in paths:
        for algo in algos:
            try:
                record, file_notes = bench_file(path, algo, mode, reps, lex_dict)
            except FansError as exc:
                notes.append(f"{path.name}/{algo}: FAILED: {exc}")
                continue
            records.append(record)
            notes.extend(file_notes)
    return records, notes


_FIELDS = [f.name for f in fields(BenchRecord)]


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
