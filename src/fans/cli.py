"""Command-line front end.

Exit codes: 0 on success, 1 when verification fails or an input is corrupt
or unreadable, 2 for usage errors (argparse's default).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .container import ALGO_IDS
from .errors import FansError
from .fam_model import number_ids
from .pipeline import compress, count_ids, decompress
from .tokenizer import TokenizerMode, iter_tokens


def _cmd_compress(args) -> int:
    raw = Path(args.input).read_bytes()
    mode = TokenizerMode(args.mode)
    data = compress(raw, args.algo, mode)
    Path(args.output).write_bytes(data)
    print(f"{args.input}: {len(raw)} -> {len(data)} bytes ({args.algo}, {mode.value})")
    return 0


def _cmd_decompress(args) -> int:
    data = Path(args.input).read_bytes()
    out = decompress(data)
    Path(args.output).write_bytes(out)
    print(f"{args.input}: {len(data)} -> {len(out)} bytes")
    return 0


def _cmd_verify(args) -> int:
    data = Path(args.archive).read_bytes()
    reference = Path(args.reference).read_bytes()
    try:
        out = decompress(data)
    except FansError as exc:
        print(f"verify: archive rejected: {exc}", file=sys.stderr)
        return 1
    if out == reference:
        print(f"verify: ok ({len(out)} bytes)")
        return 0
    limit = min(len(out), len(reference))
    diff_at = next((i for i in range(limit) if out[i] != reference[i]), limit)
    print(
        f"verify: MISMATCH at byte {diff_at} "
        f"(decoded {len(out)} bytes, reference {len(reference)})",
        file=sys.stderr,
    )
    return 1


def _cmd_bench(args) -> int:
    # bench and selftest are imported by their own commands only, so that
    # compress and decompress calls do not load them.
    from .bench import ALGOS, bench_dir, format_csv, format_markdown

    mode = TokenizerMode(args.mode)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for algo in algos:
        if algo not in ALGOS:
            raise FansError(f"unknown algorithm {algo!r}")
    records, notes, failures = bench_dir(Path(args.corpus), algos, mode, reps=args.reps)
    formatter = format_markdown if args.format == "markdown" else format_csv
    sys.stdout.write(formatter(records))
    for note in notes + failures:
        print(f"bench: {note}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_entropy(args) -> int:
    from .bench import compute_entropy, model_bits

    raw = Path(args.input).read_bytes()
    mode = TokenizerMode(args.mode)
    # Neither figure depends on the numbering.
    seen, ids = number_ids(iter_tokens(raw, mode))
    d = len(seen)
    bits = compute_entropy(count_ids(ids, d), len(ids))
    print(f"tokens: {len(ids)}")
    print(f"entropy_bits: {bits:.4f}")
    print(f"entropy_bytes: {bits / 8:.1f}")
    print(f"model_bits: {model_bits(ids, d):.4f}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run

    failures = run(log=print)
    if failures:
        print(f"selftest: {failures} check(s) failed", file=sys.stderr)
        return 1
    print("selftest: all checks passed")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fans",
        description="Adaptive tabled-ANS text compression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a file into an archive")
    p.add_argument("-a", "--algo", choices=sorted(ALGO_IDS), default="fam")
    p.add_argument("-m", "--mode", choices=[m.value for m in TokenizerMode], default="lossless")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("input")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decode an archive")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("input")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("bench", help="size/time table for a corpus directory")
    p.add_argument("-m", "--mode", choices=[m.value for m in TokenizerMode], default="paper")
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.add_argument("--reps", type=_positive_int, default=1)
    p.add_argument("--algos", default="fam,ranged,uniform,textorder")
    p.add_argument("corpus")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("entropy", help="token entropy of a file")
    p.add_argument("-m", "--mode", choices=[m.value for m in TokenizerMode], default="lossless")
    p.add_argument("input")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("verify", help="decode an archive and compare to a reference")
    p.add_argument("archive")
    p.add_argument("reference")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="run the built-in checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FansError, OSError) as exc:
        print(f"fans: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
