"""Benchmark harness tests: entropy, accounting identities, report formats."""

from __future__ import annotations

import random

import pytest

from fans import bench
from fans.bench import (
    BenchRecord,
    bench_dir,
    bench_file,
    compute_entropy,
    format_csv,
    format_markdown,
    model_bits,
    timed,
)
from fans.bitio import pack_bits
from fans.cli import main
from fans.container import ALGO_FAM, unpack_archive
from fans.fam_codec import fam_decode_ids, fam_encode_ids
from fans.fam_model import number_ids, renumber
from fans.pipeline import compress, count_ids, decode_ids, encode_ids, pack_coded
from fans.tokenizer import TokenizerMode, iter_tokens, tokenize

from common import CORPUS

ALGOS = ["fam", "ranged", "uniform", "textorder"]


def test_entropy_known_values():
    assert compute_entropy([1, 1, 1, 1], 4) == pytest.approx(8.0)
    assert compute_entropy([2], 2) == pytest.approx(0.0)
    assert compute_entropy([3, 1], 4) == pytest.approx(3.2451, abs=1e-3)
    assert compute_entropy([], 0) == 0.0


def test_timed_coders_round_trip_in_id_space():
    # The encoders take first-sighting ids, as the harness numbers them, and
    # the decoders give back the stream in dictionary ids.
    rng = random.Random(55)
    raw = b" ".join(bytes([97 + rng.randrange(5)]) for _ in range(300))
    seen, ids = number_ids(tokenize(raw, TokenizerMode.PAPER))
    counts = count_ids(ids, len(seen))
    n, d = len(ids), len(counts)

    _, (bits, order, x, l) = timed(fam_encode_ids, ids, d)
    assert (x, l) == (1, 0)
    _, (recon, final) = timed(fam_decode_ids, pack_bits(bits), d, n)
    assert [w for w in reversed(recon) if w != d] == renumber(ids, order)
    assert final == n + d

    for name in ("ranged", "uniform"):
        _, (bits, state, _counts, order) = timed(encode_ids, name, ids, seen, counts)
        archive = unpack_archive(compress(raw, name, TokenizerMode.PAPER))
        assert (pack_bits(bits), state) == (archive.code, archive.final_state)
        assert [seen[i] for i in order] == archive.entries
        _, out = timed(decode_ids, archive)
        assert out == renumber(ids, order)

    # The text-order table is the stream itself: its code goes in a uniform
    # layout, and only a decoder given the stream can read it.
    _, coded = timed(encode_ids, "textorder", ids, seen, counts)
    archive = unpack_archive(pack_coded("uniform", TokenizerMode.PAPER, seen, n, coded))
    text = renumber(ids, coded[3])
    _, out = timed(decode_ids, archive, text)
    assert out == text


@pytest.mark.parametrize("mode", ["lossless", "paper"])
@pytest.mark.parametrize("name", ["alice29.txt", "asyoulik.txt"])
def test_code_sizes_track_the_model_and_the_entropy(name, mode):
    # The paper's claim: forward modelling codes below the static entropy H.
    # The adaptive code stays within 1% of its model's information (+0.44%
    # to +0.72% on these inputs), the model is below H, and the uniform
    # static code is within 1% of H (+0.001% to +0.067%). A change that still
    # round-trips but codes worse fails here.
    raw = (CORPUS / name).read_bytes()
    mode = TokenizerMode(mode)
    seen, ids = number_ids(iter_tokens(raw, mode))
    n, d = len(ids), len(seen)
    entropy = compute_entropy(count_ids(ids, d), n)
    model = model_bits(ids, d)
    fam = unpack_archive(compress(raw, "fam", mode)).code.bit_length
    uniform = unpack_archive(compress(raw, "uniform", mode)).code.bit_length
    assert fam <= 1.01 * model, (fam, model)
    assert model < entropy, (model, entropy)
    assert uniform <= 1.01 * entropy, (uniform, entropy)


def _check_accounting(record: BenchRecord) -> None:
    assert record.total_bytes == (
        record.code_bytes + record.dict_bytes + record.freq_bytes
    )
    if record.algo == "fam":
        assert record.freq_bytes == 0
    elif record.token_count > 0:
        assert record.freq_bytes > 0


def test_bench_file_single(tmp_path):
    sample = tmp_path / "sample.txt"
    sample.write_bytes(b"the cat sat on the mat, the cat did sit.\n")
    for algo in ALGOS:
        record, _notes = bench_file(sample, algo, TokenizerMode.LOSSLESS)
        assert record.text == "sample.txt"
        assert record.algo == algo
        assert record.token_count == 12
        assert record.code_bytes > 0
        _check_accounting(record)


def test_bench_file_empty_input(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    record, notes = bench_file(empty, "fam", TokenizerMode.LOSSLESS)
    assert record.token_count == 0
    assert record.code_bytes == 0
    _check_accounting(record)
    assert any("no tokens" in note for note in notes)


def test_bench_dir_over_corpus():
    records, notes, failures = bench_dir(CORPUS, ALGOS, TokenizerMode.PAPER)
    texts = sorted(p.name for p in CORPUS.iterdir())
    assert [r.text for r in records] == [t for t in texts for _ in ALGOS]
    assert [r.algo for r in records] == ALGOS * len(texts)
    assert failures == []
    assert not any("FAILED" in note for note in notes)
    for record in records:
        assert record.token_count > 0
        assert record.entropy_bits > 0
        _check_accounting(record)


def test_bench_dir_reports_failures(tmp_path, monkeypatch):
    sample = tmp_path / "sample.txt"
    sample.write_bytes(b"a a b c")  # id stream is not a palindrome
    # An empty file benches (with a "no tokens" note) under a name that
    # holds "FAILED"; the notes must not count as failures.
    (tmp_path / "FAILED_notes.txt").write_bytes(b"")
    assert main(["bench", "--algos", "fam", str(tmp_path)]) == 0

    def broken(archive, text=None):
        ids = decode_ids(archive, text)
        return ids[::-1] if archive.algo == ALGO_FAM else ids

    monkeypatch.setattr(bench, "decode_ids", broken)
    records, notes, failures = bench_dir(tmp_path, ["fam", "ranged"], TokenizerMode.PAPER)
    # The broken row is dropped; the empty file's rows decode nothing.
    assert [(r.text, r.algo) for r in records] == [
        ("FAILED_notes.txt", "fam"),
        ("FAILED_notes.txt", "ranged"),
        ("sample.txt", "ranged"),
    ]
    assert len(failures) == 1 and failures[0].startswith("sample.txt/fam: FAILED:")
    assert notes == ["FAILED_notes.txt: no tokens in paper mode"] * 2
    assert main(["bench", "--algos", "fam,ranged", str(tmp_path)]) == 1


def test_unknown_algorithms_are_refused_before_any_file_is_read(tmp_path):
    # The paths do not exist, so reading one would raise FileNotFoundError.
    with pytest.raises(ValueError, match="fam, ranged, uniform, textorder"):
        bench_dir(tmp_path / "missing", ["fam", "zstd"], TokenizerMode.PAPER)
    with pytest.raises(ValueError, match="'zstd'"):
        bench_file(tmp_path / "missing.txt", "zstd", TokenizerMode.PAPER)


def test_bench_dir_empty(tmp_path):
    assert bench_dir(tmp_path, ALGOS, TokenizerMode.LOSSLESS) == ([], [], [])


_SAMPLE = BenchRecord(
    text="x.txt",
    algo="fam",
    code_bytes=10,
    dict_bytes=20,
    freq_bytes=0,
    total_bytes=30,
    encode_seconds=0.12345,
    decode_seconds=0.5,
    token_count=7,
    entropy_bits=12.34,
)

_HEADER = (
    "text,algo,code_bytes,dict_bytes,freq_bytes,total_bytes,"
    "encode_seconds,decode_seconds,token_count,entropy_bits"
)


def test_format_csv():
    out = format_csv([_SAMPLE])
    lines = out.splitlines()
    assert lines[0] == _HEADER
    assert lines[1] == "x.txt,fam,10,20,0,30,0.1235,0.5000,7,12.3"
    assert out.endswith("\n")


def test_format_markdown():
    out = format_markdown([_SAMPLE])
    lines = out.splitlines()
    assert lines[0] == "| " + " | ".join(_HEADER.split(",")) + " |"
    assert set(lines[1]) == {"|", "-", " "}
    assert lines[2] == "| x.txt | fam | 10 | 20 | 0 | 30 | 0.1235 | 0.5000 | 7 | 12.3 |"
