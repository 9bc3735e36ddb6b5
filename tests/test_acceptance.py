"""The eight acceptance checks. Each test prints one verdict line.

Run with `pytest tests/test_acceptance.py -s` (or read them in the captured
output); every line looks like `ACCEPTANCE <n> <name>: PASS (<figures>)`.
The corpus directory defaults to tests/data/corpus and can be pointed at
another copy of the texts with the FANS_CORPUS_DIR environment variable.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from fans.bench import bench_file, timed
from fans.bitio import pack_bits
from fans.container import unpack_archive
from fans.errors import CorruptError, FansError
from fans.fam_codec import fam_decode, fam_decode_ids, fam_encode, fam_encode_ids
from fans.fam_model import number_ids
from fans.pipeline import compress, count_ids, decompress, encode_ids
from fans.static_codec import (
    SpreadStrategy,
    build_spread,
    count_frequencies,
    static_decode,
    static_encode,
)
from fans.tokenizer import TokenizerMode, tokenize

CORPUS = Path(os.environ.get("FANS_CORPUS_DIR", Path(__file__).parent / "data" / "corpus"))
TEXTS = ["alice29.txt", "asyoulik.txt"]
ALGOS = ["fam", "ranged", "uniform", "textorder"]
BASELINES = ["ranged", "uniform", "textorder"]


def _verdict(capsys, num: int, slug: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _check_sequence(tokens: list[bytes]) -> tuple[list[str], list[str]]:
    """One suite case; returns (round-trip problems, final-state problems)."""
    trips: list[str] = []
    finals: list[str] = []
    n = len(tokens)

    code, w0 = fam_encode(tokens)
    if fam_decode(code, w0, n) != tokens:
        trips.append("fam")
    d = len(w0)
    bits, _, x, l = fam_encode_ids(number_ids(tokens)[1], d)
    if (x, l) != (1, 0):
        finals.append(f"encoder x={x} l={l}")
    # A decoder that leaves code bits unread raises CorruptError.
    try:
        recon, final = fam_decode_ids(pack_bits(bits), d, n)
    except CorruptError as exc:
        finals.append(f"decoder: {exc}")
    else:
        if final != n + d:
            finals.append(f"decoder x={final}")
        if [w0[i] for i in reversed(recon) if i != d] != tokens:
            trips.append("fam core")

    freqs = count_frequencies(tokens, w0)
    for strategy in SpreadStrategy:
        table = build_spread(strategy, freqs, w0, tokens=tokens)
        scode, state = static_encode(tokens, table, freqs)
        if static_decode(scode, state, table, freqs, n) != tokens:
            trips.append(f"static {strategy.value}")
    return trips, finals


@pytest.fixture(scope="module")
def random_suite():
    """1000 random sequences plus the exhaustive 3-token sweep, checked once."""
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    sequences = 0
    token_total = 0
    trip_problems: list[str] = []
    final_problems: list[str] = []

    for i in range(1000):
        alpha = rng.randrange(1, 65)
        n = rng.randrange(1, 2001)
        tokens = [bytes([32 + rng.randrange(alpha)]) for _ in range(n)]
        trips, finals = _check_sequence(tokens)
        trip_problems += [f"random[{i}]: {p}" for p in trips]
        final_problems += [f"random[{i}]: {p}" for p in finals]
        sequences += 1
        token_total += n

    for length in range(1, 9):
        for combo in itertools.product([b"a", b"b", b"c"], repeat=length):
            trips, finals = _check_sequence(list(combo))
            trip_problems += [f"{combo}: {p}" for p in trips]
            final_problems += [f"{combo}: {p}" for p in finals]
            sequences += 1
            token_total += length

    return {
        "sequences": sequences,
        "tokens": token_total,
        "trips": trip_problems,
        "finals": final_problems,
        "seconds": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def corpus_rows():
    t0 = time.perf_counter()
    rows = {}
    for text in TEXTS:
        for algo in ALGOS:
            record, _notes = bench_file(CORPUS / text, algo, TokenizerMode.PAPER)
            rows[text, algo] = record
    return rows, time.perf_counter() - t0


def test_1_round_trip_identity(capsys, random_suite):
    s = random_suite
    ok = not s["trips"] and s["seconds"] < 30.0
    detail = (
        f"{s['sequences']} sequences, {s['tokens']} tokens, 4 coders, "
        f"{len(s['trips'])} mismatches, {s['seconds']:.1f}s"
    )
    if s["trips"]:
        detail += "; first: " + s["trips"][0]
    _verdict(capsys, 1, "round-trip-identity", ok, detail)


def test_2_hand_trace_vectors(capsys):
    expected = [
        ([b"a", b"b", b"a"], [1, 0, 0, 1, 0], [b"b", b"a"]),
        ([b"a", b"a"], [1, 0, 0], [b"a"]),
        ([b"a"], [0], [b"a"]),
    ]
    problems = []
    for tokens, want_bits, want_w0 in expected:
        code, w0 = fam_encode(tokens)
        _, _, x, _ = fam_encode_ids(number_ids(tokens)[1], len(w0))
        if list(code) != want_bits or w0 != want_w0 or x != 1:
            problems.append(f"{tokens}: bits {list(code)}, dict {w0}, final {x}")
    _verdict(
        capsys, 2, "hand-trace-vectors", not problems,
        "; ".join(problems) or "3 vectors exact, final state 1",
    )


def test_3_final_state_invariant(capsys, random_suite):
    s = random_suite
    ok = not s["finals"]
    detail = f"{s['sequences']} sequences, {len(s['finals'])} violations"
    if s["finals"]:
        detail += "; first: " + s["finals"][0]
    _verdict(capsys, 3, "final-state-invariant", ok, detail)


def test_4_compression_ordering(capsys, corpus_rows):
    rows, seconds = corpus_rows
    problems = []
    ratios = []
    for text in TEXTS:
        fam = rows[text, "fam"].code_bytes
        for baseline in BASELINES:
            other = rows[text, baseline].code_bytes
            if not fam < other:
                problems.append(f"{text}: fam {fam} !< {baseline} {other}")
        ratio = fam / rows[text, "ranged"].code_bytes
        ratios.append(f"{text} fam/ranged {ratio:.3f}")
        if not 0.75 <= ratio <= 0.95:
            problems.append(f"{text}: ratio {ratio:.3f} outside [0.75, 0.95]")
    if seconds >= 10.0:
        problems.append(f"took {seconds:.1f}s")
    detail = ", ".join(ratios) + f", {seconds:.1f}s"
    if problems:
        detail += "; " + "; ".join(problems)
    _verdict(capsys, 4, "compression-ordering", not problems, detail)


def test_5_baseline_near_equality(capsys, corpus_rows):
    rows, _ = corpus_rows
    problems = []
    diffs = []
    for text in TEXTS:
        uniform = rows[text, "uniform"].code_bytes
        textorder = rows[text, "textorder"].code_bytes
        rel = abs(uniform - textorder) / textorder
        diffs.append(f"{text} {rel * 100:.3f}%")
        if rel >= 0.01:
            problems.append(f"{text}: {uniform} vs {textorder} differs {rel * 100:.2f}%")
    detail = ", ".join(diffs)
    if problems:
        detail += "; " + "; ".join(problems)
    _verdict(capsys, 5, "baseline-near-equality", not problems, detail)


def test_6_timing_asymmetry(capsys):
    # Repeat the corpus block to novel scale, giving rare words a per-copy
    # suffix so the vocabulary grows the way a long text's does. Plain
    # repetition would collapse two million tokens onto 2.3k distinct words,
    # shrinking the priority-queue cost this criterion measures; the rotation
    # keeps the dictionary at a realistic ~38k words.
    base: list[bytes] = []
    for text in TEXTS:
        base.extend(tokenize((CORPUS / text).read_bytes(), TokenizerMode.PAPER))
    census = Counter(base)
    rare = {tok for tok, c in census.items() if c <= 2}
    copies = -(-2_000_000 // len(base))
    stream: list[bytes] = []
    for k in range(copies):
        tag = b"~%d" % (k % 24)
        stream.extend(tok + tag if tok in rare else tok for tok in base)
    w0, ids = number_ids(stream)
    counts = count_ids(ids, len(w0))

    # Minimum over repetitions for both coders, the harness's own
    # noise-robustness strategy.
    fam_seconds, (_bits, _order, x, l) = timed(fam_encode_ids, ids, len(w0), reps=3)
    uniform_seconds, _ = timed(encode_ids, "uniform", ids, len(w0), counts, reps=3)
    ratio = uniform_seconds / fam_seconds
    ok = len(stream) >= 2_000_000 and (x, l) == (1, 0) and ratio >= 3.0
    _verdict(
        capsys, 6, "timing-asymmetry", ok,
        f"{len(stream)} tokens, {len(w0)} distinct: uniform {uniform_seconds:.2f}s"
        f" / fam {fam_seconds:.2f}s = {ratio:.2f}x (floor 3x)",
    )


def test_7_accounting_identity(capsys, corpus_rows, tmp_path):
    rows, _ = corpus_rows
    checked = list(rows.values())
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    for algo in ALGOS:
        record, _ = bench_file(empty, algo, TokenizerMode.LOSSLESS)
        checked.append(record)

    problems = []
    for record in checked:
        want = record.code_bytes + record.dict_bytes + record.freq_bytes
        if record.total_bytes != want:
            problems.append(f"{record.text}/{record.algo}: {record.total_bytes} != {want}")
        if record.algo == "fam" and record.freq_bytes != 0:
            problems.append(f"{record.text}/fam: freq bytes {record.freq_bytes}")

    # The frequency term must itself include a real final-state varint.
    archive = unpack_archive(compress(b"a b a b c", "ranged", TokenizerMode.PAPER))
    sizes = archive.sizes
    if sizes.final_state < 1:
        problems.append("static archive lacks a final-state varint")
    if sizes.total != sizes.header + sizes.final_state + sizes.dict_region + sizes.freqs + sizes.code:
        problems.append("section sizes do not sum to the archive length")

    _verdict(
        capsys, 7, "accounting-identity", not problems,
        "; ".join(problems) or f"{len(checked)} rows exact",
    )


def test_8_corruption_fuzz(capsys):
    raw = (CORPUS / "asyoulik.txt").read_bytes()[:6000]
    archive = compress(raw, "fam", TokenizerMode.LOSSLESS)
    assert decompress(archive) == raw

    rng = random.Random(88)
    cases = {(offset, 1 << rng.randrange(8)) for offset in range(16)}
    while len(cases) < 200:
        cases.add((rng.randrange(len(archive)), rng.randrange(1, 256)))

    rejected = detected = silent = unstructured = 0
    for offset, mask in sorted(cases):
        damaged = bytearray(archive)
        damaged[offset] ^= mask
        try:
            out = decompress(bytes(damaged))
        except FansError:
            rejected += 1
        except Exception:  # noqa: BLE001 - anything unstructured is a failure
            unstructured += 1
        else:
            if out == raw:
                silent += 1
            else:
                detected += 1  # wrong bytes, which verify reports as a mismatch
    # The archive is checksummed, so no damaged copy may decode at all.
    ok = detected == 0 and silent == 0 and unstructured == 0
    _verdict(
        capsys, 8, "corruption-fuzz", ok,
        f"200 cases: {rejected} rejected, {detected} verify-detected, "
        f"{silent} silent, {unstructured} unstructured",
    )
