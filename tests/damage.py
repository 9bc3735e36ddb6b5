"""Damage census: small archives of every version, damaged every way, each outcome recorded.

The archives are fam, ranged and uniform archives of a few small inputs, in
both tokenizer modes and in every version up to container.VERSION: the
newest from compress, version 4 from archive_v1.v4_bytes over compress's
fields, and versions 1 to 3 from archive_v1's other builders, over the
tokens of the builds that wrote them. Each is damaged by every truncation,
four byte values at every offset (the byte XOR 0x01, 0x02, 0x80 and 0xff),
every one-byte deletion and a zero byte inserted at every offset. Versions 2
and up are damaged in front of their CRC and resealed, so the damage reaches
the parser's sections and the decoders rather than stopping at the checksum;
version 1 has no CRC.

Each case's outcome is "same" (decompress returned the undamaged output),
"wrong" (it returned other bytes), "ClassName: message" for a FansError, or
"bare ClassName: message" for any other exception. The message is kept:
many checks raise CorruptError, so the class alone could not show which
check fired. The whole census takes about a second, so tests/test_damage.py
runs all of it and checks the SHA-256 of each version's ordered outcomes
against OUTCOMES: a change that moves any outcome shows as a changed pin.

    python tests/damage.py

runs the same census without pytest and prints the outcome classes per
version, the wrong-output count, the slowest case, and which reader-side
raise sites (the innermost traceback frame of each error) the damage
reached. It exits 1 if any version's digest differs from its pin.

    python tests/damage.py --base REV

runs REV's own census, from a `git archive` copy of REV's src and tests,
and this tree's census, each in a child process with that checkout's src
and tests first on its path, so each side builds its cases with its own
damage.py, archive_v1.py and compress: an archive byte that moved shows
too. It prints every case whose outcome differs, grouped by (REV outcome ->
tree outcome), and exits 1 if any does. Only the versions both sides build
are compared: a REV that writes version 4 builds no version 5. It then
lists the cases whose outcome held but whose error is raised elsewhere,
grouped by (REV owner -> tree owner), where an owner is the module and
function of the innermost frame: a check that moved to another owner. That
list does not change the exit code. A REV without tests/damage.py has no
census, and the command says so and exits.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import zipfile
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from fans import bitio, container, errors, fam_codec, static_codec
from fans.container import unpack_archive
from fans.errors import FansError
from fans.pipeline import compress, decompress
from fans.tokenizer import TokenizerMode

from archive_v1 import old_compress, sealed, static_fields, v1_bytes, v2_bytes, v3_bytes, v4_bytes

INPUTS = [b"", b"a b a\n", b"the cat sat on the mat\nthe cat\n", "café au lait, café!\n".encode()]
CODERS = ["fam", "ranged", "uniform"]
VERSIONS = list(range(1, container.VERSION + 1))
MASKS = [0x01, 0x02, 0x80, 0xFF]
# SHA-256 of each version's ordered outcomes. The outcomes include zlib's own
# error texts, so a Python built against another zlib may word them
# differently; the pins were taken with zlib 1.2.13. The version-4 pin moved
# once, when version 5 came: in its 24 "xor 0x01 at 4" cases the version
# byte becomes 5, and the version-5 reader takes a version-4 layout as the
# same archive, so each went from BadVersion to "same".
OUTCOMES = {
    1: "e1a055e50b87b65d235fc54a8004d4fe2c75d81b9c8dc964f9e0f645c98a7ad4",
    2: "aa1aa858cfb9fd22bde4e3b4ad3e8956d23a713521ac8b8b1a7ad466ec81e045",
    3: "7088cdcfb69ac6270d3eb576a56992389640df58d2c5c3be42ef8aba10bbd3ff",
    4: "24d1540ed9eb2371fcc4cab2a1d60c7a1439765e428a492ad8484686839e09ec",
    5: "fa28838273874108cf5f55e9babe0c010dd53fc3971e8d0f1d0cddb6e7cc18fd",
}
# The modules decompress reads an archive with; every raise of a FansError
# class in them but the writer's InconsistentFields is a reader-side site.
READER_MODULES = [bitio, container, fam_codec, static_codec]

# site is the (module, function) that raised, which compares across
# revisions; line is its line, for this tree's raise-site report.
Case = namedtuple("Case", "version archive damage outcome seconds site line")


def archives():
    """(version, label, archive bytes, undamaged output) for each input, mode, coder and version."""
    for i, raw in enumerate(INPUTS):
        for mode in TokenizerMode:
            for coder in CODERS:
                newest = compress(raw, coder, mode)
                if coder == "fam":
                    fields = unpack_archive(old_compress(raw, coder, mode))
                else:
                    fields = static_fields(raw, mode, coder)
                expected = decompress(newest)
                built = {1: v1_bytes(fields), 2: v2_bytes(fields), 3: v3_bytes(fields)}
                built[4] = v4_bytes(unpack_archive(newest))
                built[container.VERSION] = newest
                for version in VERSIONS:
                    label = f"input {i} {mode.value} {coder} v{version}"
                    yield version, label, built[version], expected


def damaged(data: bytes, version: int):
    """(label, bytes) for each damage to data; versions 2 and up are resealed."""
    seal = sealed if version > 1 else bytes
    body = data[:-4] if version > 1 else data
    for k in range(len(body)):
        yield f"cut to {k}", seal(body[:k])
    for i, byte in enumerate(body):
        for mask in MASKS:
            yield f"xor {mask:#04x} at {i}", seal(body[:i] + bytes([byte ^ mask]) + body[i + 1 :])
        yield f"delete {i}", seal(body[:i] + body[i + 1 :])
    for i in range(len(body) + 1):
        yield f"insert at {i}", seal(body[:i] + b"\x00" + body[i:])


def outcome(data: bytes, expected: bytes) -> tuple[str, tuple[str, str] | None, int | None]:
    """(outcome, site, line): the error's innermost frame as (module, function)
    and its line, or None for both."""
    try:
        out = decompress(data)
    except Exception as exc:  # noqa: BLE001 - a bare exception is a finding, not a crash
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        site = (Path(code.co_filename).stem, code.co_name)
        prefix = "" if isinstance(exc, FansError) else "bare "
        return f"{prefix}{type(exc).__name__}: {exc}", site, tb.tb_lineno
    return ("same" if out == expected else "wrong"), None, None


def census() -> list[Case]:
    """Every damaged case, in a fixed order."""
    cases = []
    for version, label, data, expected in archives():
        if decompress(data) != expected:
            raise AssertionError(f"{label} does not decode before damage")
        for damage, bad in damaged(data, version):
            start = time.perf_counter()
            result, site, line = outcome(bad, expected)
            cases.append(Case(version, label, damage, result, time.perf_counter() - start, site, line))
    return cases


def digests(cases: list[Case]) -> dict[int, str]:
    """The SHA-256 of each version's ordered outcomes, one per line."""
    return {
        v: hashlib.sha256("\n".join(c.outcome for c in cases if c.version == v).encode()).hexdigest()
        for v in VERSIONS
    }


def raise_sites() -> set[tuple[str, int]]:
    """(file name, line) of every reader-side raise statement."""
    names = {
        name
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, FansError) and cls is not errors.InconsistentFields
    }
    sites = set()
    for module in READER_MODULES:
        path = Path(module.__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) in names
            ):
                sites.add((path.name, node.lineno))
    return sites


def report(cases: list[Case]) -> int:
    """Print the census; 1 if any version's digest differs from its pin in OUTCOMES."""
    classes = Counter((c.outcome.split(":")[0], c.version) for c in cases)
    print(f"{len(cases)} damaged archives")
    print(f"{'outcome':<20}" + "".join(f"{'v%d' % v:>8}" for v in VERSIONS))
    for name in sorted({name for name, _ in classes}):
        print(f"{name:<20}" + "".join(f"{classes[name, v]:>8}" for v in VERSIONS))
    wrong = sum(c.outcome == "wrong" for c in cases)
    bare = sum(c.outcome.startswith("bare ") for c in cases)
    print(f"wrong output: {wrong}; bare exceptions: {bare}")
    slow = max(cases, key=lambda c: c.seconds)
    print(f"slowest: {slow.seconds * 1e3:.1f} ms, {slow.archive}, {slow.damage}: {slow.outcome}")
    found = digests(cases)
    for version, digest in found.items():
        verdict = "pinned" if digest == OUTCOMES[version] else f"DIFFERS from the pin {OUTCOMES[version]}"
        print(f"v{version} outcomes sha256 {digest} ({verdict})")
    reached = Counter((f"{c.site[0]}.py", c.line) for c in cases if c.site is not None)
    sites = raise_sites()
    print(f"reader-side raise sites reached: {len(sites & set(reached))} of {len(sites)}")
    for file, line in sorted(sites | set(reached)):
        mark = "" if (file, line) in sites else "  (not a reader-side raise)"
        print(f"  {file}:{line} {reached[file, line]}{mark}")
    return 1 if found != OUTCOMES else 0


def outcomes_with(root: Path) -> dict[tuple[int, str, str], tuple[str, str | None]]:
    """{(version, archive, damage): (outcome, owner)} of the census of the
    checkout at root, run in a child process that puts root's src and tests
    first on its path. The owner is "module.function" of the error's
    innermost frame, or None."""
    paths = [str(root / "src"), str(root / "tests")]
    child = (
        f"import sys; sys.path[:0] = {paths!r}; import json, damage; "
        "print(json.dumps([[c.version, c.archive, c.damage, c.outcome, c.site and '.'.join(map(str, c.site))]"
        " for c in damage.census()]))"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    if proc.returncode:
        sys.exit(f"the census of {root} failed:\n{proc.stderr}")
    rows = json.loads(proc.stdout)
    return {(v, archive, damage): (outcome, owner) for v, archive, damage, outcome, owner in rows}


def _print_groups(groups: dict, what: str) -> None:
    for (was, now), cases in sorted(groups.items(), key=lambda item: -len(item[1])):
        print(f"{len(cases)} cases: {was} -> {now}")
        for version, archive, damage in cases:
            print(f"  {archive}, {damage}")
    print(f"{sum(map(len, groups.values()))} cases {what}")


def compare(base: str) -> int:
    """Print the cases whose outcome differs between base and the working tree,
    then those whose outcome held but whose owner moved; 1 if any outcome differs."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = ["git", "-C", str(ROOT), "archive", "--format=zip", base, "src", "tests"]
        zipped = subprocess.run(archive, stdout=subprocess.PIPE)
        if zipped.returncode:
            sys.exit(f"git archive could not read {base}")
        zipfile.ZipFile(io.BytesIO(zipped.stdout)).extractall(tmp)
        if not (Path(tmp) / "tests" / "damage.py").exists():
            sys.exit(f"{base} has no tests/damage.py, so it has no census to compare with")
        before = outcomes_with(Path(tmp))
    after = outcomes_with(ROOT)
    both = {v for v, _, _ in before} & {v for v, _, _ in after}
    before = {case: seen for case, seen in before.items() if case[0] in both}
    after = {case: seen for case, seen in after.items() if case[0] in both}
    moved = defaultdict(list)
    owners = defaultdict(list)
    absent = ("absent", None)
    for case in {**before, **after}:  # census order
        (was, was_owner), (now, now_owner) = before.get(case, absent), after.get(case, absent)
        if was != now:
            moved[was, now].append(case)
        elif was_owner != now_owner:
            owners[was_owner, now_owner].append(case)
    print(f"versions {sorted(both)}: {len(before)} cases at {base}, {len(after)} in the working tree")
    _print_groups(moved, "differ")
    _print_groups(owners, "keep their outcome under another owner")
    return 1 if moved else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Damage census of small fans archives.")
    parser.add_argument("--base", metavar="REV", help="compare each case's outcome with the fans at REV")
    args = parser.parse_args()
    if args.base:
        sys.exit(compare(args.base))
    sys.exit(report(census()))
