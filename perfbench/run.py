#!/usr/bin/env python3
"""End-to-end benchmark for fans, with a traced per-module breakdown.

Run from the root of a fans checkout:

    python3 perfbench/run.py --workload book-fam --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The runner drives fans from outside, the way users do: `fans.cli.main([...])`
in-process on files in a scratch directory, or (small-cli) a fresh
interpreter per call that runs fans.cli as `python -m` would, one at a time.
Every decompressed output is compared byte for byte with its input.

--trace 0 prints the end-to-end metrics: throughput, median time per sample,
archive ratio, peak memory and set-up time. A sample is what one input gets
in one direction in one round: one call, or on vocab-static the ranged and
the uniform call together. p90s, the error rate, the raw wall-clock figures
and the zlib/bz2/lzma yardsticks are printed as ungated extras.

--trace 1 replays every CLI call one public function at a time (tracing.py),
checks that the replay's archive and output are byte-identical to the CLI's
for the same call, and prints per-layer metrics. Times and counts are per
round trip (one input through one coder, compressed and decompressed); the
tracing overhead (replay minus untraced CLI call) is printed as an extra.

All times are scaled to a reference CPU speed by `Clock`; see there.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. --out FILE also merges the full report into FILE.
"""

from __future__ import annotations

import argparse
import bz2
import contextlib
import io
import json
import lzma
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import zlib
from pathlib import Path
from time import perf_counter

from workloads import CORPUS_DIR, CORPUS_FILES, WORKLOADS, make_inputs, read_corpus

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPS = 5
IMPORT_REPS = 5
WARMUP_BYTES = 8192
CAL_REF_S = 0.015
YARDSTICKS = {
    "zlib-9": lambda b: zlib.compress(b, 9),
    "bz2-9": lambda b: bz2.compress(b, 9),
    "lzma": lzma.compress,
}


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop that does not touch fans.

    Integer arithmetic and list indexing, like the coders' inner loops. A
    variant that also walked a memory-sized table tracked the drift worse.
    """
    t0 = perf_counter()
    table = list(range(4096))
    x = 1
    for _ in range(100_000):
        x = (x * 5 + 3) & 4095
        x ^= table[x] & 1
    return perf_counter() - t0


class Clock:
    """Times calls and scales them to a reference CPU speed.

    On a host whose CPUs are shared, the speed one process gets drifts by
    20-40% over seconds to minutes, which would swamp the changes the
    benchmark exists to see. Each timed call is therefore bracketed by
    `calibrate()`, and its wall time is multiplied by CAL_REF_S over the
    mean of the two calibrations around it: the figure is the time the call
    would take on a host where the calibration loop takes CAL_REF_S.
    """

    def __init__(self):
        self.cal = calibrate()
        self.cals = [self.cal]

    def time(self, fn, *args):
        """Run fn(*args); return (result, wall seconds, scaled seconds)."""
        before = self.cal
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        self.cal = calibrate()
        self.cals.append(self.cal)
        return result, wall, wall * 2 * CAL_REF_S / (before + self.cal)


class CliFailed(Exception):
    pass


# `python -m fans.cli`, plus a report of the process's own peak RSS on exit.
# A child started by vfork inherits its parent's peak in ru_maxrss, so
# RUSAGE_CHILDREN would report this benchmark's memory, not the CLI's; VmHWM
# covers only the memory the child mapped after exec.
CLI_CHILD = """
import atexit, runpy, sys
def report_peak():
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
atexit.register(report_peak)
runpy.run_module("fans.cli", run_name="__main__", alter_sys=True)
"""


class Cli:
    """Runs one fans CLI command; raises CliFailed on a nonzero exit."""

    def __init__(self, child_process: bool):
        self.child_process = child_process
        self.peak_child_kib = 0
        path = [str(ROOT / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def __call__(self, argv: list[str]) -> None:
        if self.child_process:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_CHILD, *argv], env=self.env, capture_output=True
            )
            rc, err = proc.returncode, proc.stderr.decode("utf-8", "replace")
            peak = re.search(r"^VmHWM:\s*(\d+) kB$", err, re.MULTILINE)
            if not peak:
                raise CliFailed(f"fans {' '.join(argv)} reported no peak memory: {err.strip()}")
            self.peak_child_kib = max(self.peak_child_kib, int(peak.group(1)))
        else:
            import fans.cli

            errbuf = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errbuf):
                rc = fans.cli.main(argv)
            err = errbuf.getvalue()
        if rc != 0:
            raise CliFailed(f"fans {' '.join(argv)} exited {rc}: {err.strip()}")

    def python(self, code: str) -> None:
        """Run a fresh interpreter on `code` with this checkout's fans."""
        subprocess.run([sys.executable, "-c", code], env=self.env, check=True, capture_output=True)

    def round_trip(self, wl, algo: str, src: Path, arc: Path, out: Path, clock: Clock):
        """Compress then decompress; returns (wall, scaled) times per direction."""
        _, wc, sc = clock.time(self, ["compress", "-a", algo, "-m", wl.mode, "-o", str(arc), str(src)])
        _, wd, sd = clock.time(self, ["decompress", "-o", str(out), str(arc)])
        return (wc, sc), (wd, sd)


def set_up(wl, seed: int, tmp: Path, cli: Cli) -> tuple[list[Path], list[bytes]]:
    """Import fans in a fresh interpreter, make the inputs, warm up once."""
    cli.python("import fans.cli")
    inputs = make_inputs(wl.name, read_corpus(ROOT), seed)
    paths = []
    for k, raw in enumerate(inputs):
        path = tmp / f"in{k}.txt"
        path.write_bytes(raw)
        paths.append(path)
    warm = tmp / "warm.txt"
    warm.write_bytes(inputs[0][:WARMUP_BYTES])
    for algo in wl.algos:
        cli(["compress", "-a", algo, "-m", wl.mode, "-o", str(tmp / "warm.fans"), str(warm)])
        cli(["decompress", "-o", str(tmp / "warm.out"), str(tmp / "warm.fans")])
    return paths, inputs


def run_untraced(wl, paths, inputs, tmp, cli, clock, seconds):
    # Per direction, one entry per sample: scaled and wall seconds.
    scaled = {"compress": [], "decompress": []}
    wall = {"compress": [], "decompress": []}
    done_bytes = attempted = failed = 0
    archive_bytes: dict[tuple[int, str], int] = {}
    done = 0
    start = perf_counter()
    while done % len(inputs) or perf_counter() - start < seconds:
        k = done % len(inputs)
        times = []
        for algo in wl.algos:
            attempted += 1
            arc, out = tmp / f"{k}.{algo}.fans", tmp / f"{k}.{algo}.out"
            try:
                trip = cli.round_trip(wl, algo, paths[k], arc, out, clock)
                if out.read_bytes() != inputs[k]:
                    raise CliFailed(f"{wl.name} input {k}: {algo} round trip changed the bytes")
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            times.append(trip)
            archive_bytes[(k, algo)] = arc.stat().st_size
        if len(times) == len(wl.algos):
            for d, direction in enumerate(scaled):
                wall[direction].append(sum(t[d][0] for t in times))
                scaled[direction].append(sum(t[d][1] for t in times))
            done_bytes += len(inputs[k]) * len(wl.algos)
        done += 1

    if wl.child_process:
        rss_kib = cli.peak_child_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    coded = {algo: [0, 0] for algo in wl.algos}
    for (k, algo), size in archive_bytes.items():
        coded[algo][0] += size
        coded[algo][1] += len(inputs[k])
    raw_total = sum(len(raw) for raw in inputs)

    def figures(times):
        return {
            "compress_MBps": done_bytes / sum(times["compress"]) / 1e6,
            "decompress_MBps": done_bytes / sum(times["decompress"]) / 1e6,
            "compress_p50_s": statistics.median(times["compress"]),
            "decompress_p50_s": statistics.median(times["decompress"]),
        }

    units = {"compress_MBps": "MB/s", "decompress_MBps": "MB/s", "compress_p50_s": "s", "decompress_p50_s": "s"}
    metrics = {name: (value, units[name]) for name, value in figures(scaled).items()}
    metrics["archive_ratio"] = (sum(a for a, _ in coded.values()) / sum(b for _, b in coded.values()), "ratio")
    metrics["peak_rss_MB"] = (rss_kib * 1024 / 1e6, "MB")
    extra = {
        "samples_per_direction": len(scaled["compress"]),
        "compress_p90_s": _p90(scaled["compress"]),
        "decompress_p90_s": _p90(scaled["decompress"]),
        "error_rate": failed / attempted,
        "wall_clock": figures(wall),
        "archive_ratio_by_coder": {algo: a / b for algo, (a, b) in coded.items()},
        "yardstick_archive_ratio": {
            name: sum(len(f(raw)) for raw in inputs) / raw_total for name, f in YARDSTICKS.items()
        },
    }
    return metrics, extra, attempted, failed


def _p90(samples: list[float]) -> float | None:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) >= 10 else None


def run_traced(wl, paths, inputs, tmp, cli, clock, seconds):
    import tracing

    bare, imported = [], []
    for _ in range(IMPORT_REPS):
        bare.append(clock.time(cli.python, "pass")[2])
        imported.append(clock.time(cli.python, "import fans.cli")[2])
    import_s = statistics.median(imported) - statistics.median(bare)

    # The replay runs in-process, so the untraced reference does too.
    ref_cli = Cli(child_process=False)
    tr = tracing.Tracer()
    untraced_s = traced_s = 0.0

    def replay(algo, src, arc, out):
        tokens, w0 = tracing.compress(tr, ["compress", "-a", algo, "-m", wl.mode, "-o", str(arc), str(src)])
        tracing.decompress(tr, ["decompress", "-o", str(out), str(arc)])
        return tokens, w0

    def compare(algo, tokens, w0):
        if algo == "fam":  # fam_encode built its dictionary inside
            w0 = tracing.standalone_dictionary(tr, tokens)
        tracing.compare(tr, wl.comparison, tokens, w0)

    done = 0
    start = perf_counter()
    while done % len(inputs) or perf_counter() - start < seconds:
        k = done % len(inputs)
        for algo in wl.algos:
            tr.request += 1
            ref_arc, ref_out = tmp / f"{k}.{algo}.fans", tmp / f"{k}.{algo}.out"
            arc, out = tmp / "traced.fans", tmp / "traced.out"
            # Alternate which side goes first, so neither always inherits
            # the other's garbage and cache state.
            for traced in (True, False) if tr.request % 2 else (False, True):
                if traced:
                    first = len(tr.spans)
                    (tokens, w0), wall, scaled = clock.time(replay, algo, paths[k], arc, out)
                    tr.rescale(first, scaled / wall)
                    traced_s += scaled
                else:
                    times = ref_cli.round_trip(wl, algo, paths[k], ref_arc, ref_out, clock)
                    untraced_s += times[0][1] + times[1][1]
            if arc.read_bytes() != ref_arc.read_bytes():
                raise tracing.Mismatch(f"{wl.name} input {k}: traced {algo} archive differs from fans.cli's")
            if not out.read_bytes() == ref_out.read_bytes() == inputs[k]:
                raise tracing.Mismatch(f"{wl.name} input {k}: {algo} output differs from the input")
            first = len(tr.spans)
            _, wall, scaled = clock.time(compare, algo, tokens, w0)
            tr.rescale(first, scaled / wall)
        done += 1

    trips = tr.request
    total, own = tr.times()
    counts = tr.counts

    def per_trip(name):
        return total.get(name, 0.0) / trips

    def count(name):
        return counts[name] / trips

    def bits_per_token(family):
        return counts[family + ".bits"] / counts[family + ".tokens"]

    metrics = {
        "tokenizer.tokenize_s": (per_trip("tokenizer.tokenize"), "s"),
        "tokenizer.detokenize_s": (per_trip("tokenizer.detokenize"), "s"),
        "tokenizer.tokens": (count("tokenizer.tokens"), "count"),
        "fam_model.build_dictionary_s": (per_trip("fam_model.build_dictionary"), "s"),
        "fam_model.dict_entries": (count("fam_model.dict_entries"), "count"),
        "fam_codec.encode_s": (per_trip("fam_codec.encode"), "s"),
        "fam_codec.decode_s": (per_trip("fam_codec.decode"), "s"),
        "fam_codec.bits_per_token": (bits_per_token("fam_codec"), "bit/token"),
        "static_codec.count_s": (per_trip("static_codec.count"), "s"),
        "static_codec.spread_s": (per_trip("static_codec.spread"), "s"),
        "static_codec.encode_s": (per_trip("static_codec.encode"), "s"),
        "static_codec.decode_s": (per_trip("static_codec.decode"), "s"),
        "static_codec.bits_per_token": (bits_per_token("static_codec"), "bit/token"),
        "bitio.pack_s": (per_trip("bitio.pack"), "s"),
        "bitio.unpack_s": (per_trip("bitio.unpack"), "s"),
        "bitio.code_bits": (count("bitio.code_bits"), "bit"),
        "container.pack_s": (per_trip("container.pack"), "s"),
        "container.unpack_s": (per_trip("container.unpack"), "s"),
        "container.header_B": (count("container.header_B"), "B"),
        "container.dict_B": (count("container.dict_B"), "B"),
        "container.freq_B": (count("container.freq_B"), "B"),
        "container.code_B": (count("container.code_B"), "B"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": ((own["cli.compress"] + own["cli.decompress"]) / trips, "s"),
    }
    extra = {
        "round_trips": trips,
        "spans": len(tr.spans),
        "archives_identical_to_cli": True,
        "tracing_overhead": {
            "untraced_cli_s": untraced_s,
            "traced_replay_s": traced_s,
            "overhead_s_per_round_trip": (traced_s - untraced_s) / trips,
            "overhead_share": (traced_s - untraced_s) / untraced_s,
        },
    }
    return metrics, extra, trips, 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import fans

    if Path(fans.__file__).resolve().parent != ROOT / "src" / "fans":
        raise RuntimeError(f"imported fans from {fans.__file__}, not from this checkout")
    wl = WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp_name:
            tmp = Path(tmp_name)
            cli = Cli(wl.child_process)
            clock = Clock()
            setups = []
            for _ in range(1 if trace else SETUP_REPS):
                (paths, inputs), wall, scaled = clock.time(set_up, wl, seed, tmp, cli)
                setups.append((wall, scaled))
            run = run_traced if trace else run_untraced
            metrics, extra, attempted, failed = run(wl, paths, inputs, tmp, cli, clock, seconds)
            if not trace:
                metrics["setup_s"] = (statistics.median(s for _, s in setups), "s")
                extra["wall_clock"]["setup_s"] = statistics.median(w for w, _ in setups)
            extra["calibration_s"] = {"median": statistics.median(clock.cals), "reference": CAL_REF_S}
    finally:
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "input_bytes": sum(len(raw) for raw in inputs),
        "inputs": len(inputs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }


def print_report(report: dict) -> None:
    print(
        f"fans benchmark: workload {report['workload']}, seed {report['seed']}, "
        f"trace {report['trace']}, {report['seconds']} s, {report['inputs']} input(s), "
        f"{report['input_bytes']} B"
    )
    for name, m in report["metrics"].items():
        print(f"  {name:30s} {m['value']:>14.6g} {m['unit']}")
    for name, value in report["extra"].items():
        print(f"  {name}: {json.dumps(value)}")
    print(f"  round trips: {report['attempted']} attempted, {report['failed']} failed")


def merge_out(path: Path, report: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {}
    data[f"{report['workload']}/trace{report['trace']}"] = report
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    rc = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", str(args.out)]
        sys.stdout.flush()
        rc = max(rc, subprocess.run(argv).returncode)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="merge the full report into this JSON file")
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "fans" / "cli.py", *(ROOT / CORPUS_DIR / f for f in CORPUS_FILES)]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a fans checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    if args.out:
        merge_out(args.out, report)
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
