"""End-to-end command-line tests, driven in process through main()."""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fans.cli import main
from fans.container import unpack_archive
from fans.tokenizer import TokenizerMode

from archive_v1 import static_fields, text_order_archives, v1_bytes, v2_bytes, v3_bytes
from common import ALICE, CORPUS

# Child interpreters import fans from this checkout, installed or not.
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def _compress(tmp_path, payload: bytes, *flags) -> tuple[Path, Path]:
    src = tmp_path / "input.bin"
    arc = tmp_path / "input.fans"
    src.write_bytes(payload)
    assert main(["compress", *flags, "-o", str(arc), str(src)]) == 0
    return src, arc


def _decompress(tmp_path, arc: Path) -> bytes:
    out = tmp_path / "output.bin"
    assert main(["decompress", "-o", str(out), str(arc)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("algo", ["fam", "ranged", "uniform"])
def test_round_trip_text(tmp_path, algo):
    payload = ALICE.read_bytes()[:20000]
    _, arc = _compress(tmp_path, payload, "-a", algo)
    assert _decompress(tmp_path, arc) == payload


def test_round_trip_random_binary(tmp_path):
    payload = random.Random(99).randbytes(4096)
    _, arc = _compress(tmp_path, payload)
    assert _decompress(tmp_path, arc) == payload


def test_round_trip_empty_file(tmp_path):
    _, arc = _compress(tmp_path, b"")
    assert _decompress(tmp_path, arc) == b""


def test_paper_mode_emits_tokens(tmp_path, capsys):
    _, arc = _compress(tmp_path, b"The cat, the CAT!", "-m", "paper")
    out = _decompress(tmp_path, arc)
    assert out == b"the\ncat\nthe\ncat\n"


def test_textorder_archive_is_not_decodable(tmp_path, capsys):
    # Older builds wrote text-order archives; fans refuses them in both
    # versions, and no longer writes them.
    src = tmp_path / "input.bin"
    src.write_bytes(b"some words here some")
    for data in text_order_archives(src.read_bytes(), TokenizerMode.LOSSLESS):
        arc = tmp_path / "input.fans"
        arc.write_bytes(data)
        assert main(["decompress", "-o", str(tmp_path / "out.bin"), str(arc)]) == 1
        assert "text-order" in capsys.readouterr().err
        assert main(["verify", str(arc), str(src)]) == 1
        assert "archive rejected" in capsys.readouterr().err
    assert not (tmp_path / "out.bin").exists()


def test_compress_refuses_textorder(tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(b"some words here some")
    with pytest.raises(SystemExit) as exc:
        main(["compress", "-a", "textorder", "-o", str(tmp_path / "x"), str(src)])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_filtered_archive_is_not_decodable(tmp_path, capsys):
    # Flag bit 1: an older build ran the dictionary through an external
    # filter. Only version 1 has the flag, so the archive is rewritten in
    # that layout.
    src, arc = _compress(tmp_path, b"abc def abc abc def")
    arc.write_bytes(v1_bytes(unpack_archive(arc.read_bytes()), flags=0x02))
    assert main(["decompress", "-o", str(tmp_path / "out.bin"), str(arc)]) == 1
    assert "external filter" in capsys.readouterr().err
    assert main(["verify", str(arc), str(src)]) == 1
    assert "archive rejected" in capsys.readouterr().err


def test_decompress_reads_version_2(tmp_path):
    # Older builds wrote version 2, with the dictionary in one section of
    # varint-length-prefixed entries; fans still decodes it.
    payload = ALICE.read_bytes()[:20000]
    _, arc = _compress(tmp_path, payload, "-a", "ranged")
    arc.write_bytes(v2_bytes(unpack_archive(arc.read_bytes())))
    assert arc.read_bytes()[4] == 2
    assert _decompress(tmp_path, arc) == payload


def test_decompress_reads_version_3_static(tmp_path):
    # Before version 4, static archives kept their dictionary in
    # last-occurrence order and built their spread in it; decoding never
    # assumed an order, so fans still reads them.
    payload = ALICE.read_bytes()[:20000]
    fields = static_fields(payload, TokenizerMode.LOSSLESS, "ranged")
    assert fields.entries != sorted(fields.entries)
    arc = tmp_path / "input.fans"
    arc.write_bytes(v3_bytes(fields))
    assert arc.read_bytes()[4] == 3
    assert _decompress(tmp_path, arc) == payload


def test_verify_ok_and_mismatch(tmp_path, capsys):
    src, arc = _compress(tmp_path, b"abc def abc abc def")
    assert main(["verify", str(arc), str(src)]) == 0
    assert "ok" in capsys.readouterr().out

    # The offset is the first byte that differs, or the shorter length when
    # one file is a prefix of the other.
    other = tmp_path / "other.bin"
    for reference, at in [
        (b"abc Xef abc abc def", 4),
        (b"Xbc def abc abc def", 0),
        (b"abc def abc abc deX", 18),
        (b"abc def abc", 11),
        (b"abc def abc abc def\n", 19),
        (b"", 0),
    ]:
        other.write_bytes(reference)
        assert main(["verify", str(arc), str(other)]) == 1
        err = capsys.readouterr().err
        assert f"MISMATCH at byte {at} (decoded 19 bytes, reference {len(reference)})" in err


def test_verify_rejects_corrupt_archive(tmp_path, capsys):
    src, arc = _compress(tmp_path, b"abc def abc abc def")
    data = bytearray(arc.read_bytes())
    data[-1] ^= 0x40
    arc.write_bytes(bytes(data))
    assert main(["verify", str(arc), str(src)]) == 1
    assert "rejected" in capsys.readouterr().err


def test_decompress_truncated_archive_fails(tmp_path, capsys):
    _, arc = _compress(tmp_path, b"hello hello world")
    arc.write_bytes(arc.read_bytes()[:-3])
    out = tmp_path / "out.bin"
    assert main(["decompress", "-o", str(out), str(arc)]) == 1
    assert "fans:" in capsys.readouterr().err
    assert not out.exists()


def test_decompress_not_an_archive(tmp_path, capsys):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"this is not an archive")
    assert main(["decompress", "-o", str(tmp_path / "o"), str(junk)]) == 1
    assert "magic" in capsys.readouterr().err


def test_missing_input_is_reported(tmp_path, capsys):
    missing = tmp_path / "nope.bin"
    assert main(["compress", "-o", str(tmp_path / "o"), str(missing)]) == 1
    assert "fans:" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compress", str(tmp_path / "x")])  # no -o
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compress", "-a", "huffman", "-o", "x", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--filter-dict", "-o", "x", "y"])  # no such option
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    for reps in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--reps", reps, str(tmp_path)])
        assert exc.value.code == 2


def test_entropy_command(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"a b a b")
    assert main(["entropy", "-m", "paper", str(src)]) == 0
    out = capsys.readouterr().out
    assert "tokens: 4" in out
    assert "entropy_bits: 4.0000" in out
    # log2(6/1) + log2(5/1) + log2(3/2) + log2(1/1): two ordinary steps,
    # then a marker step for each token's last occurrence.
    assert "model_bits: 5.4919" in out


def test_bench_csv_and_markdown(tmp_path, capsys):
    shutil.copy(CORPUS / "asyoulik.txt", tmp_path / "asyoulik.txt")
    assert main(["bench", "--format", "csv", str(tmp_path)]) == 0
    csv_out = capsys.readouterr().out
    lines = csv_out.strip().splitlines()
    assert lines[0].startswith("text,algo,code_bytes")
    assert len(lines) == 5  # header plus one row per algorithm

    # An empty file's "no tokens" note names it; a name holding "FAILED"
    # must not fail the run.
    (tmp_path / "FAILED_notes.txt").write_bytes(b"")
    assert main(["bench", "--format", "markdown", "--algos", "fam", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    md_out = captured.out
    assert md_out.startswith("| text | algo |")
    assert md_out.count("\n") == 4
    assert "bench: FAILED_notes.txt: no tokens in paper mode\n" in captured.err


def test_bench_rejects_unknown_algo(tmp_path, capsys):
    # A usage error, as compress -a zstd is; 1 is left to bench's failures.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--algos", "fam,zstd", str(tmp_path)])
    assert exc.value.code == 2
    assert "unknown algorithm 'zstd'" in capsys.readouterr().err


def test_console_script_runs(tmp_path):
    payload = b"the cat sat on the mat\n"
    (tmp_path / "in.txt").write_bytes(payload)
    for args in (["compress", "-o", "in.fans", "in.txt"], ["decompress", "-o", "out.txt", "in.fans"]):
        proc = subprocess.run(
            [sys.executable, "-m", "fans.cli", *args],
            capture_output=True,
            text=True,
            env=SRC_ENV,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.txt").read_bytes() == payload


# Modules no compress or decompress call needs. numpy alone would be about
# half of a small file's call; dataclasses brings inspect, ast and dis along;
# the bench harness loads only for its own commands; array holds the adaptive
# encoder's occurrence table and loads when it runs.
_OFF_STARTUP_PATH = (
    "array",
    "numpy",
    "dataclasses",
    "inspect",
    "subprocess",
    "tempfile",
    "typing",
    "fans.bench",
    "fans.static_codec",
)


def test_cli_import_leaves_heavy_modules_out():
    # A small file's CLI call is mostly interpreter start and imports. -S
    # keeps site's own preloads from hiding a module the CLI would import.
    probe = f"import fans.cli, sys; print(*[m for m in {_OFF_STARTUP_PATH!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
