"""Traced replay of the fans CLI pipeline, one public call at a time.

`compress` and `decompress` redo what `fans compress` and `fans decompress`
do, calling each module's public functions in the CLI's order and recording
a span around every call. A span named `cli.*` wraps each replayed command;
its self time is argparse, file I/O and print. Counts are recorded at the
same boundaries. The caller checks that the replay's archive and output are
byte-identical to the CLI's.

`compare` codes the same tokens with the coder family the workload's CLI
path does not use, so both families' time and bits per token are measured on
every workload (the paper's adaptive-versus-static comparison).
"""

from __future__ import annotations

import io
from collections import Counter, defaultdict
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from time import perf_counter

from fans.bitio import pack, unpack
from fans.cli import build_parser
from fans.container import ALGO_FAM, ALGO_IDS, ALGO_NAMES, pack_archive, unpack_archive
from fans.fam_codec import fam_decode, fam_encode
from fans.fam_model import build_dictionary
from fans.static_codec import (
    SpreadStrategy,
    StaticFrequencies,
    build_spread,
    count_frequencies,
    static_decode,
    static_encode,
)
from fans.tokenizer import TokenizerMode, detokenize, tokenize


class Mismatch(Exception):
    """A replayed or compared output differs from what it must equal."""


class Tracer:
    """Spans kept in memory as [name, request, parent index, start, end, scale].

    `scale` converts the span's wall time to the run's reference CPU speed;
    `rescale` sets it for the spans of a block the caller timed.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self.request, self._open[-1] if self._open else -1, perf_counter(), 0.0, 1.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._open.pop()

    def rescale(self, first: int, scale: float) -> None:
        for record in self.spans[first:]:
            record[5] = scale

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self scaled seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        children = [0.0] * len(self.spans)
        for name, _req, parent, start, end, scale in self.spans:
            total[name] += (end - start) * scale
            if parent >= 0:
                children[parent] += (end - start) * scale
        own: dict[str, float] = defaultdict(float)
        for (name, _req, _parent, start, end, scale), inner in zip(self.spans, children):
            own[name] += (end - start) * scale - inner
        return total, own


def compress(tr: Tracer, argv: list[str]) -> tuple[list[bytes], list[bytes]]:
    """Replay `fans compress`; returns (tokens, dictionary)."""
    counts = tr.counts
    with tr.span("cli.compress"):
        args = build_parser().parse_args(argv)
        raw = Path(args.input).read_bytes()
        mode = TokenizerMode(args.mode)
        with tr.span("tokenizer.tokenize"):
            tokens = tokenize(raw, mode)
        n = len(tokens)
        if not n:
            raise ValueError("benchmark inputs are never empty")
        state = freqs = None
        if args.algo == "fam":
            with tr.span("fam_codec.encode"):
                code, w0 = fam_encode(tokens)
        else:
            with tr.span("fam_model.build_dictionary"):
                w0 = build_dictionary(tokens)
            with tr.span("static_codec.count"):
                freqs = count_frequencies(tokens, w0)
            with tr.span("static_codec.spread"):
                table = build_spread(SpreadStrategy(args.algo), freqs, w0, tokens)
            with tr.span("static_codec.encode"):
                code, state = static_encode(tokens, table, freqs)
        with tr.span("bitio.pack"):
            image = pack(code)
        with tr.span("container.pack"):
            data = pack_archive(
                ALGO_IDS[args.algo], mode, n, w0, image, final_state=state, freqs=freqs
            )
        Path(args.output).write_bytes(data)
        with redirect_stdout(io.StringIO()):
            print(f"{args.input}: {len(raw)} -> {len(data)} bytes ({args.algo}, {mode.value})")
    family = "fam_codec" if args.algo == "fam" else "static_codec"
    counts["tokenizer.tokens"] += n
    counts["fam_model.dict_entries"] += len(w0)
    counts["bitio.code_bits"] += image.bit_length
    counts[family + ".bits"] += image.bit_length
    counts[family + ".tokens"] += n
    return tokens, w0


def decompress(tr: Tracer, argv: list[str]) -> None:
    """Replay `fans decompress` on an unfiltered, decodable archive."""
    with tr.span("cli.decompress"):
        args = build_parser().parse_args(argv)
        data = Path(args.input).read_bytes()
        with tr.span("container.unpack"):
            archive = unpack_archive(data)
        if archive.filtered:
            raise ValueError("the benchmark writes no filtered dictionaries")
        with tr.span("bitio.unpack"):
            code = unpack(archive.code)
        if archive.algo == ALGO_FAM:
            with tr.span("fam_codec.decode"):
                tokens = fam_decode(code, archive.entries, archive.n)
        else:
            with tr.span("static_codec.count"):
                freqs = StaticFrequencies(dict(zip(archive.entries, archive.freqs)), archive.n)
            with tr.span("static_codec.spread"):
                table = build_spread(SpreadStrategy(ALGO_NAMES[archive.algo]), freqs, archive.entries)
            with tr.span("static_codec.decode"):
                tokens = static_decode(code, archive.final_state, table, freqs, archive.n)
        # Paper mode has no detokenize; the CLI's one-word-per-line join is
        # that stage there, so it is timed under the same name.
        with tr.span("tokenizer.detokenize"):
            if archive.mode is TokenizerMode.LOSSLESS:
                out = detokenize(tokens)
            else:
                out = b"\n".join(tokens) + b"\n"
        Path(args.output).write_bytes(out)
        with redirect_stdout(io.StringIO()):
            print(f"{args.input}: {len(data)} -> {len(out)} bytes")
    sizes = archive.sizes
    counts = tr.counts
    counts["container.header_B"] += sizes.header
    counts["container.dict_B"] += sizes.dict_region
    counts["container.freq_B"] += sizes.freqs + sizes.final_state
    counts["container.code_B"] += sizes.code


def standalone_dictionary(tr: Tracer, tokens: list[bytes]) -> list[bytes]:
    """fam_encode builds its dictionary inside; one extra call times it alone."""
    with tr.span("fam_model.build_dictionary"):
        return build_dictionary(tokens)


def compare(tr: Tracer, coder: str, tokens: list[bytes], w0: list[bytes]) -> None:
    """Round-trip the tokens through `coder` in memory; raise on a mismatch."""
    n = len(tokens)
    if coder == "fam":
        with tr.span("fam_codec.encode"):
            code, w0 = fam_encode(tokens)
        bits = len(code)
        with tr.span("fam_codec.decode"):
            out = fam_decode(code, w0, n)
        family = "fam_codec"
    else:
        strategy = SpreadStrategy(coder)
        with tr.span("static_codec.count"):
            freqs = count_frequencies(tokens, w0)
        with tr.span("static_codec.spread"):
            table = build_spread(strategy, freqs, w0, tokens)
        with tr.span("static_codec.encode"):
            code, state = static_encode(tokens, table, freqs)
        bits = len(code)
        with tr.span("static_codec.spread"):
            table = build_spread(strategy, freqs, w0)
        with tr.span("static_codec.decode"):
            out = static_decode(code, state, table, freqs, n)
        family = "static_codec"
    if out != tokens:
        raise Mismatch(f"{coder} comparison round trip lost tokens")
    tr.counts[family + ".bits"] += bits
    tr.counts[family + ".tokens"] += n
