"""Library entry points: whole archives pinned, the hand traces and every
short sequence over three tokens round-trip, the bench writes the same, and
damage past the checksum still ends in a FansError."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fans import pipeline
from fans.bench import bench_file
from fans.bitio import pack_bits
from fans.container import ALGO_TEXT_ORDER, unpack_archive
from fans.errors import FansError, NotDecodableError
from fans.fam_codec import fam_decode_ids, fam_encode_ids
from fans.fam_model import number_ids
from fans.pipeline import compress, decode_ids, decompress, encode_ids
from fans.tokenizer import TokenizerMode, tokenize

from archive_v1 import (
    old_compress,
    sealed,
    static_fields,
    text_order_layout,
    v1_bytes,
    v2_bytes,
    v3_bytes,
    v4_bytes,
)
from common import ALICE, CORPUS, corpus_times, traced_peak
from fam_oracle import HAND_TRACES

# SHA-256 of the version-1 archive of alice29.txt for each (mode, algo). They
# were recorded before the CLI, the bench and the library shared one
# pipeline, and fans has since written them in versions 2 to 5; the
# fields of each archive, written back in version-1 layout, must still give
# them. Those builds cut lossless text by archive_v1.old_tokens, so the
# lossless fields are coded over its tokens. No writer makes text-order
# archives any more: their pins hash the rebuilds in archive_v1, which the
# reader must refuse.
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
# SHA-256 of the version-2 archive of alice29.txt, which compress wrote
# before version 3; the fields written back in version-2 layout must give
# them. A text-order change here is a change to the text-order code.
DIGESTS_V2 = {
    ("lossless", "fam"): "022d8e444e6eed4fe2513566be891f7c07060b630d1f7023c10996ef5f6bf021",
    ("lossless", "ranged"): "d902b78647520fcbbd18c7858a7f1fdc7def8e75ffe302d42105b48ccf2d4ff2",
    ("lossless", "uniform"): "d9569504f64fa9427fbb0dbcc95f97d852899aec7c008dc76f245f20d2fe77cd",
    ("lossless", "textorder"): "2c6040ba098e0bf87abe63f88c805b3b74f1843cd7c3af6723edb1d952caedbd",
    ("paper", "fam"): "f51ef0a180b32fde7ac89548df5a31074edc704f5718f92722995a29e84461e9",
    ("paper", "ranged"): "14c71e5437cd48c0448b431e7319e77fa10ee2d76bd99f7a32e1a61b95840a15",
    ("paper", "uniform"): "08479300280435a088bc6059a0999adb96657eff9b8a6429f51fec52a4f926e5",
    ("paper", "textorder"): "55d606d7cb60c9559f9d347264809e094f684bfeed7e73ab83f3103001d6e577",
}
# SHA-256 of the version-3 archive of alice29.txt, which compress wrote
# before version 4; the fields written back in version-3 layout must give
# them. Version 3 never carried text order.
DIGESTS_V3 = {
    ("lossless", "fam"): "1bfb3476dda73e52874c538048ed7b367ab96fe7fa89ab9e1ce8e4f1c3e86885",
    ("lossless", "ranged"): "dc225db6dd7820a3db780371bdcdbc0c36d076943d92bf3472f375085b899f17",
    ("lossless", "uniform"): "a09c43e227534a8715ff6307f4facf08d6213f471a96f7c7b0cc894b50e187e4",
    ("paper", "fam"): "3b6029d088172373eed37dd94eb17ab7098da23c969715efa8d00f2baec85e51",
    ("paper", "ranged"): "81b7f54bcaefad76d0d46c23bc5a8ac5d3cab701b80510368768a632572790c1",
    ("paper", "uniform"): "87c5562d75410e227f3b54770540a761e1c504e41f3ba511409b891e539d2d6e",
}
# SHA-256 of the version-4 archive of alice29.txt, which compress wrote
# before version 5; the fields written back by archive_v1.v4_bytes must give
# them. They moved with the bytes the version-4 writer chose as well as with
# the format: it kept the shortest of several deflate streams for each
# section, and every one of them reads back the same. The lossless rows moved
# when a word took its one-byte separator along.
DIGESTS_V4 = {
    ("lossless", "fam"): "98442e9b88ca7b5fb506de03c91a17f082091da82768a29a7f96ca6cf938e550",
    ("lossless", "ranged"): "21c8249d1e8266b9ba492b0d4d52a9170a6e0877e89bbff7ae9fe72537dc4fea",
    ("lossless", "uniform"): "feadcf8b4017a4734e4b9a526b85b8fc04a3d87ff1c16505a40d5e8f1d052e64",
    ("paper", "fam"): "b4bc00c74b56cdcea10c97d33e3e25abbc5b1d5f00eab2f3abeac2e18d69e462",
    ("paper", "ranged"): "c75a87c4c9973ae773dd747ea2f2fbd0ef98d94ee09a2da8a53d0e86f568c352",
    ("paper", "uniform"): "9fc647121a0f6565a93c2898935d8317d8f51e8bc083f4a9fe4a9aca08d869aa",
}
# SHA-256 of compress(alice29.txt, algo, mode), the version-5 archive. It
# stores a word-and-its-byte fam entry with length 0; every other archive
# differs from version 4 only in its version byte and CRC. A change here is
# a change to the archive bytes, not necessarily to the format.
DIGESTS_V5 = {
    ("lossless", "fam"): "fa652ee65fa6bf705408547b818a6611c11ded4d2f0c44a8c9a72d5e5f414394",
    ("lossless", "ranged"): "8cdaad2e41b253f5f00760a2bc4b6b738d60d01f6eec672bcd94fd369fda906f",
    ("lossless", "uniform"): "8591448f5f8364a119ca8bcaed7b098de411b3d8f7c939e985ff587bbf1a4a88",
    ("paper", "fam"): "61f869abbdbd0a3442f081b3307ff06dbd765374b806a6c073dc734f795c8811",
    ("paper", "ranged"): "e08cd90fac88c47a9b8d38cfbb8ad07fc2a5b0bede614568a9b8f1d4a18e1e4c",
    ("paper", "uniform"): "6f723481053a3f3d948ab090b20280abcf3035a77df17c1856a24b3a35c4954f",
}
# SHA-256 of the lossless version-4 archives of alice29.txt that builds
# before the one-byte separator rule wrote: old_compress must still give
# them, and decompress must still read them.
DIGESTS_V4_OLD_TOKENS = {
    "fam": "5f41a12fde6fad0e3cc8603dbe6bcee5ba8e7fa09dc1cecb48d6c9922302d516",
    "ranged": "aaa0caafc718140646e36a6525dc68bc0410d298f7dc362b961fae3e617745ab",
    "uniform": "8055d4a6d64adc174866d6088a4ed1bb260b489f758ca53910235b9c907826e8",
}


@pytest.mark.parametrize("mode,algo", sorted(DIGESTS))
def test_archive_bytes_are_pinned(mode, algo):
    # The fam fields are the same in every version, given the same tokens.
    # Static archives before version 4 kept their dictionary in
    # last-occurrence order, and coded in it, so their fields are rebuilt
    # from the input.
    raw = ALICE.read_bytes()
    if algo == "textorder":
        archive = text_order_layout(raw, TokenizerMode(mode))
    else:
        archive = compress(raw, algo, TokenizerMode(mode))
        assert hashlib.sha256(archive).hexdigest() == DIGESTS_V5[mode, algo]
        v4 = v4_bytes(unpack_archive(archive))
        assert hashlib.sha256(v4).hexdigest() == DIGESTS_V4[mode, algo]
    if algo == "fam":
        fields = unpack_archive(old_compress(raw, algo, TokenizerMode(mode)))
    else:
        fields = static_fields(raw, TokenizerMode(mode), algo)
        assert fields.entries != sorted(fields.entries)
    older = [v2_bytes(fields), v1_bytes(fields)]
    if algo != "textorder":
        older.insert(0, v3_bytes(fields))
        assert hashlib.sha256(older[0]).hexdigest() == DIGESTS_V3[mode, algo]
        older.insert(0, v4)
    assert hashlib.sha256(older[-2]).hexdigest() == DIGESTS_V2[mode, algo]
    assert hashlib.sha256(older[-1]).hexdigest() == DIGESTS[mode, algo]
    record, _ = bench_file(ALICE, algo, TokenizerMode(mode))
    assert record.total_bytes == len(archive)
    if algo == "textorder":
        for data in older:
            with pytest.raises(NotDecodableError, match="text-order"):
                decompress(data)
        return
    if mode == "lossless":
        want = raw
    else:
        want = b"".join(t + b"\n" for t in tokenize(raw, TokenizerMode.PAPER))
    for data in (archive, *older):
        assert decompress(data) == want


@pytest.mark.parametrize("algo", ["fam", "ranged", "uniform"])
def test_archives_of_the_old_lossless_tokens_still_decode(algo):
    # Every reader takes a lossless archive's output as its dictionary
    # entries joined in code order, so how the writer cut the text is its own
    # choice: archives cut into alternating runs still decode exactly.
    raw = ALICE.read_bytes()
    data = old_compress(raw, algo, TokenizerMode.LOSSLESS)
    assert hashlib.sha256(data).hexdigest() == DIGESTS_V4_OLD_TOKENS[algo]
    assert decompress(data) == raw
    texts = [b"", b"a", b"Hi, hi!", b"  a,,b c\n\n", (CORPUS / "asyoulik.txt").read_bytes()]
    for raw in texts:
        assert decompress(old_compress(raw, algo, TokenizerMode.LOSSLESS)) == raw


def test_hand_traces_and_every_short_sequence_round_trip_through_compress():
    # Paper-mode text through compress and decompress, so the tokenizer and
    # the container are checked along with the adaptive coder. Acceptance 1-3
    # run the same sequences through the coders alone.
    for tokens, bits, entries in HAND_TRACES:
        data = compress(b" ".join(tokens), "fam", TokenizerMode.PAPER)
        archive = unpack_archive(data)
        assert (archive.code, archive.entries) == (pack_bits(bits), entries), tokens
        assert decompress(data) == b"\n".join(tokens) + b"\n"
    sequences = [seq for k in range(1, 9) for seq in itertools.product([b"a", b"b", b"c"], repeat=k)]
    broken = [
        seq
        for seq in sequences
        if decompress(compress(b" ".join(seq), "fam", TokenizerMode.PAPER)) != b"\n".join(seq) + b"\n"
    ]
    assert not broken, f"{len(broken)} of {len(sequences)} sequences broke, the first {broken[0]}"


@pytest.mark.parametrize("algo", ["bogus", "textorder"])
def test_compress_checks_the_algorithm_before_tokenizing(algo, monkeypatch):
    def tokenize_nothing(raw, mode):
        raise AssertionError("compress tokenized before it checked the algorithm")

    monkeypatch.setattr(pipeline, "iter_tokens", tokenize_nothing)
    with pytest.raises(ValueError, match="fam, ranged, uniform"):
        compress(b"some words here", algo)


@pytest.mark.parametrize("mode", ["lossless", "paper"])
@pytest.mark.parametrize("algo", ["fam", "ranged", "uniform"])
def test_resealed_damage_raises_fans_errors(algo, mode):
    # The CRC refuses every damaged copy before the parser or a decoder sees
    # it (acceptance 8). Resealing the CRC after the damage keeps what lies
    # behind it tested: each copy must be refused with a FansError or decode
    # to some output, never fail with another exception.
    raw = (CORPUS / "asyoulik.txt").read_bytes()[:4096]
    data = compress(raw, algo, TokenizerMode(mode))
    rng = random.Random(f"{algo}-{mode}")
    bare = []
    for _ in range(300):
        body = bytearray(data[:-4])
        offset = rng.randrange(len(body))
        body[offset] ^= rng.randrange(1, 256)
        try:
            decompress(sealed(body))
        except FansError:
            pass
        except Exception as exc:  # noqa: BLE001 - anything unstructured is a failure
            bare.append(f"offset {offset}: {exc!r}")
    assert bare == []
    body = bytearray(data[:-4])
    body[5] = ALGO_TEXT_ORDER
    with pytest.raises(NotDecodableError):
        decompress(sealed(body))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=120),
    st.randoms(use_true_random=False),
)
def test_ids_are_only_keys(stream, rng):
    # Relabelling the ids by any permutation leaves each encoder's code and
    # final state as they are, and permutes the dictionary order to match,
    # so the archive does not depend on the numbering.
    seen, ids = number_ids(b"%d" % t for t in stream)
    d = len(seen)
    perm = list(range(d))
    rng.shuffle(perm)
    relabelled = [perm[i] for i in ids]
    relabelled_seen = [b""] * d
    for i, token in enumerate(seen):
        relabelled_seen[perm[i]] = token
    bits, order, x, l = fam_encode_ids(ids, d)
    assert fam_encode_ids(relabelled, d) == (bits, [perm[i] for i in order], x, l)
    for algo in ("ranged", "uniform", "textorder"):
        bits, state, counts, order = encode_ids(algo, ids, seen)
        got_bits, got_state, got_counts, got_order = encode_ids(algo, relabelled, relabelled_seen)
        assert (got_bits, got_state) == (bits, state)
        assert got_order == [perm[i] for i in order]
        assert [got_counts[i] for i in got_order] == [counts[i] for i in order]


def test_decompress_peak_is_the_decoders():
    # Past the decoder, decompress joins the output from the decoder's own
    # sequence, a slice at a time, so it holds little beyond that sequence
    # and the output. One bytes.join over 200k tokens used to take 16 MB
    # more than that, and an id list and a token list read off the sequence
    # took the peak to 20.7 B per token. The budget is per input byte: 6.5 B
    # here is 17.5 B per token of the 204,149 that the alternating-runs
    # tokenizer cut this input into.
    raw = corpus_times(7)
    assert len(raw) >= 500_000
    data = compress(raw)
    out, pipeline_peak = traced_peak(decompress, data)
    assert out == raw
    del out
    archive = unpack_archive(data)
    _, decoder_peak = traced_peak(fam_decode_ids, archive.code, archive.d, archive.n)
    assert pipeline_peak <= decoder_peak + len(raw), (pipeline_peak, decoder_peak)
    assert pipeline_peak <= 6.5 * len(raw), pipeline_peak / len(raw)

    # On a short paper-mode text the join's slice is a fixed cost: at 4,096
    # tokens a slice, alice29's 38.7 KB of output took decompress 10.4 times
    # the output past the decoder's peak, against 3.5 at 1,024.
    raw = ALICE.read_bytes()
    data = compress(raw, "fam", TokenizerMode.PAPER)
    out, pipeline_peak = traced_peak(decompress, data)
    assert out == b"".join(t + b"\n" for t in tokenize(raw, TokenizerMode.PAPER))
    archive = unpack_archive(data)
    _, decoder_peak = traced_peak(fam_decode_ids, archive.code, archive.d, archive.n)
    assert pipeline_peak <= decoder_peak + 5 * len(out), (pipeline_peak, decoder_peak, len(out))


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
    # in 8-byte entries rather than 4 took it to 26.6. The budget is per
    # input byte: 9.3 B here is 25 B per token of the 233,313 that the
    # alternating-runs tokenizer cut this input into.
    raw = corpus_times(8)
    assert len(raw) >= 600_000
    data, peak = traced_peak(compress, raw)
    assert unpack_archive(data).n == len(tokenize(raw))
    assert peak <= 9.3 * len(raw), peak / len(raw)


@pytest.mark.parametrize("mode", ["lossless", "paper"])
@pytest.mark.parametrize("algo", ["fam", "ranged", "uniform"])
def test_small_compress_peak_is_not_the_deflate_state(algo, mode):
    # Each section's deflate state is sized to its blob. zlib's default
    # state, about 300 KB, set the peak of a 4 KB compress: 329-377 KB
    # against 91-164 KB with the sized state.
    raw = (CORPUS / "asyoulik.txt").read_bytes()[:4096]
    compress(b"warm", algo, TokenizerMode(mode))  # import the coders untraced
    data, peak = traced_peak(compress, raw, algo, TokenizerMode(mode))
    assert decompress(data)
    assert peak <= 200_000, peak


@pytest.mark.parametrize("algo", ["ranged", "uniform"])
@pytest.mark.parametrize("name", ["alice29.txt", "asyoulik.txt"])
def test_static_decompress_peak_is_below_compress(name, algo):
    # The decoder needs the spread and one next state per slot; the encoder
    # also holds the token stream and each symbol's slot list. Slot lists on
    # the decode path took decompress's peak up to compress's.
    raw = (CORPUS / name).read_bytes()
    compress(b"warm", algo, TokenizerMode.PAPER)  # import the static coder untraced
    data, compress_peak = traced_peak(compress, raw, algo, TokenizerMode.PAPER)
    _, decompress_peak = traced_peak(decompress, data)
    assert 4 * decompress_peak <= 3 * compress_peak, (decompress_peak, compress_peak)


def test_static_peaks_per_token():
    # The static coders keep their tables in 4-byte arrays and build the
    # spread over ids. With an int object per slot and a dict census,
    # compress peaked at 66.1 and decompress at 49.0 B per token here, and
    # with 8-byte arrays at 38.8 and 29.1. Decoding a copy of the code
    # drained from a BitStack took decompress to 24.9, and a decoded id list
    # grown by appends to 23.8.
    raw = corpus_times(8)
    compress(b"warm", "ranged", TokenizerMode.PAPER)  # import the static coder untraced
    data, compress_peak = traced_peak(compress, raw, "ranged", TokenizerMode.PAPER)
    n = unpack_archive(data).n
    assert n >= 100_000
    _, decompress_peak = traced_peak(decompress, data)
    assert compress_peak <= 37 * n, compress_peak / n
    assert decompress_peak <= 23.5 * n, decompress_peak / n
