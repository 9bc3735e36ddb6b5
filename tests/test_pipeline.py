"""Library entry points: whole archives pinned, and the bench writes the same."""

from __future__ import annotations

import hashlib
import tracemalloc
from pathlib import Path

import pytest

from fans.bench import bench_file
from fans.container import unpack_archive
from fans.fam_codec import fam_decode_ids
from fans.pipeline import compress, decode_ids, decompress
from fans.tokenizer import TokenizerMode, tokenize

CORPUS = Path(__file__).parent / "data" / "corpus"
ALICE = CORPUS / "alice29.txt"

# SHA-256 of compress(alice29.txt, algo, mode). The archives were recorded
# before the CLI, the bench and the library shared one pipeline; any change
# here is a format change.
DIGESTS = {
    ("lossless", "fam"): "9d2432c158f85bfc05ccef93db3bb46cb9b8deca0ee90f2db9cdaaef720ae01c",
    ("lossless", "ranged"): "ad7d62f7f13075a86c56718579298157152b58099c4120370c0972b832e295a2",
    ("lossless", "uniform"): "c66107cc2fb05b31108cee76b6c880e44c04fe7f474c5c6c32bbc7bb557d321d",
    ("lossless", "textorder"): "c4ff831371cc16e79e1f5d26038b75c4206cfd5eb46c3ff0ccead5ea3407d2df",
    ("paper", "fam"): "05ca3acc4aed02a9d253d3ebd5ea417c23e158e2a24812e0fe6726308de08714",
    ("paper", "ranged"): "da0bdc7766b27dbae9bbed90f4532456866de5c2f9400e4b2d622cf711f75958",
    ("paper", "uniform"): "24718fe087d6a61fc4876739f984cec6563201492ea9fb24be680931f851814e",
    ("paper", "textorder"): "f351142fbb9da9ad520b30ae1a8f372dc938c5d4660b59f475f485092011a443",
}


@pytest.mark.parametrize("mode,algo", sorted(DIGESTS))
def test_archive_bytes_are_pinned(mode, algo):
    raw = ALICE.read_bytes()
    archive = compress(raw, algo, TokenizerMode(mode))
    assert hashlib.sha256(archive).hexdigest() == DIGESTS[mode, algo]
    record, _ = bench_file(ALICE, algo, TokenizerMode(mode))
    assert record.total_bytes == len(archive)
    if algo == "textorder":
        return
    if mode == "lossless":
        assert decompress(archive) == raw
    else:
        assert decompress(archive) == b"".join(t + b"\n" for t in tokenize(raw, TokenizerMode.PAPER))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decompress_peak_is_the_decoders():
    # Past the decoder, decompress holds the token list and the output; one
    # bytes.join over 200k tokens used to take 16 MB more than that.
    raw = b"".join(path.read_bytes() for path in (ALICE, CORPUS / "asyoulik.txt")) * 7
    assert len(tokenize(raw)) >= 200_000
    data = compress(raw)
    out, pipeline_peak = _traced_peak(decompress, data)
    assert out == raw
    del out
    archive = unpack_archive(data)
    _, decoder_peak = _traced_peak(fam_decode_ids, archive.code, archive.d, archive.n)
    assert pipeline_peak <= decoder_peak + 2 * len(raw), (pipeline_peak, decoder_peak)


@pytest.mark.parametrize("algo", ["fam", "ranged", "uniform"])
def test_decoding_leaves_the_code_intact(algo):
    # The decoders read the archive's code in place; a second decode of the
    # same archive must see the same bits.
    archive = unpack_archive(compress(ALICE.read_bytes(), algo))
    code = archive.code
    first = decode_ids(archive)
    assert archive.code == code
    assert len(first) == archive.n
    assert decode_ids(archive) == first


def test_compress_peak_per_token():
    # compress numbers the tokens as the tokenizer yields them, so it holds
    # the stream as ids and never one bytes object per token; a token list
    # took the peak to 39.6 B per token. The fam encoder's occurrence table
    # in 8-byte entries rather than 4 took it to 26.6.
    raw = b"".join(path.read_bytes() for path in sorted(CORPUS.glob("*.txt"))) * 8
    n = len(tokenize(raw))
    assert n >= 200_000
    data, peak = _traced_peak(compress, raw)
    assert unpack_archive(data).n == n
    assert peak <= 25 * n, peak / n


@pytest.mark.parametrize("algo", ["ranged", "uniform"])
@pytest.mark.parametrize("name", ["alice29.txt", "asyoulik.txt"])
def test_static_decompress_peak_is_below_compress(name, algo):
    # The decoder needs the spread and one next state per slot; the encoder
    # also holds the token stream and each symbol's slot list. Slot lists on
    # the decode path took decompress's peak up to compress's.
    raw = (CORPUS / name).read_bytes()
    compress(b"warm", algo, TokenizerMode.PAPER)  # import the static coder untraced
    data, compress_peak = _traced_peak(compress, raw, algo, TokenizerMode.PAPER)
    _, decompress_peak = _traced_peak(decompress, data)
    assert 4 * decompress_peak <= 3 * compress_peak, (decompress_peak, compress_peak)


def test_static_peaks_per_token():
    # The static coders keep their tables in 4-byte arrays and build the
    # spread over ids. With an int object per slot and a dict census,
    # compress peaked at 66.1 and decompress at 49.0 B per token here, and
    # with 8-byte arrays at 38.8 and 29.1. Decoding a copy of the code
    # drained from a BitStack took decompress to 24.9.
    raw = b"".join(path.read_bytes() for path in sorted(CORPUS.glob("*.txt"))) * 8
    compress(b"warm", "ranged", TokenizerMode.PAPER)  # import the static coder untraced
    data, compress_peak = _traced_peak(compress, raw, "ranged", TokenizerMode.PAPER)
    n = unpack_archive(data).n
    assert n >= 100_000
    _, decompress_peak = _traced_peak(decompress, data)
    assert compress_peak <= 37 * n, compress_peak / n
    assert decompress_peak <= 24.4 * n, decompress_peak / n
