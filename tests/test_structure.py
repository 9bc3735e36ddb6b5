"""Module boundaries: no private cross-module access, no process starts, one module
that imports the coders, no replay-only wrapper used outside its own module, no
varint code outside the container, no import from outside the standard library, no
error class that nothing raises, a small resolvable public API, and a benchmark
replay that matches the pipeline."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import fans
from fans import fam_model, pipeline
from fans.container import unpack_archive
from fans.tokenizer import TokenizerMode

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fans"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _violations(path: Path) -> list[str]:
    """Imports of, and attribute reads on, another fans module's private names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules: set[str] = set()  # local names bound to fans modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "fans"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                if node.module in (None, "fans"):  # from . import bench
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fans":
                    modules.add(alias.asname or "fans")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and ast.unparse(node.value).split(".")[0] in modules
        ):
            found.append(f"{path.name}:{node.lineno} reads {ast.unparse(node)}")
    return found


def test_no_module_reaches_into_another_modules_private_names():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [v for path in sources for v in _violations(path)] == []


def test_guard_flags_private_access(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .fam_codec import _encode_core\n"
        "from . import bench\n"
        "import fans.static_codec as sc\n"
        "bench._map_ids([])\n"
        "sc._decode_core\n"
        "import fans.cli\n"
        "fans.cli._compress_bytes\n"
        "bench.bench_file\n"
    )
    assert len(_violations(sample)) == 4


def _process_starts(path: Path) -> list[str]:
    """Imports of subprocess and calls of os.system/os.popen."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call):
            names = [ast.unparse(node.func)]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "subprocess" or name in ("os.system", "os.popen"):
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_library_starts_no_process():
    sources = sorted(PACKAGE.glob("*.py"))
    assert [v for path in sources for v in _process_starts(path)] == []


def test_guard_flags_process_starts(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import subprocess\n"
        "from subprocess import run\n"
        "from os import popen\n"
        "import os\n"
        "os.system('true')\n"
        "os.getcwd()\n"
    )
    assert len(_process_starts(sample)) == 4


def _coder_imports(path: Path) -> list[str]:
    """Imports of fam_codec or static_codec anywhere in the file, lazy ones included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            continue
        for name in names:
            if {"fam_codec", "static_codec"} & set(name.split(".")):
                found.append(f"{path.name}:{node.lineno} {name}")
                break
    return found


def test_only_pipeline_imports_the_coders():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "pipeline.py")
    assert sources
    assert [v for path in sources for v in _coder_imports(path)] == []
    assert _coder_imports(PACKAGE / "pipeline.py")


def test_guard_flags_coder_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .fam_codec import fam_encode\n"
        "from . import static_codec\n"
        "import fans.fam_codec\n"
        "from fans.static_codec import build_spread\n"
        "def lazy():\n"
        "    from .static_codec import count_frequencies\n"
        "from .pipeline import encode_ids\n"
        "from .bitio import pack\n"
    )
    assert len(_coder_imports(sample)) == 5


# Token-level wrappers and shims that only the tests and the benchmark's
# replay (perfbench/tracing.py) call; the library goes through the id-level
# functions.
_REPLAY_ONLY = {
    "pack",
    "unpack",
    "tokenize",
    "detokenize",
    "build_dictionary",
    "fam_encode",
    "fam_decode",
    "count_frequencies",
    "build_spread",
    "static_encode",
    "static_decode",
}


def _name_uses(path: Path) -> list[str]:
    """Imports, definitions and mentions of a replay-only name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names if name in _REPLAY_ONLY]
    return found


def _replay_only_uses(sources: list[Path]) -> list[str]:
    """Uses of a replay-only name outside the module that defines it at top level."""
    home = {}
    for path in sources:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in _REPLAY_ONLY:
                home.setdefault(node.name, path.name)
    return [
        use
        for path in sources
        for use in _name_uses(path)
        if home.get(use.split()[-1]) != path.name
    ]


def test_id_level_path_takes_no_bit_stack():
    # Every coder, wrapper and container trades ids and ByteImages. bitio's
    # pack/unpack shims and the token-level wrappers stay only for the
    # benchmark's replay; no module but the one that defines such a name
    # uses it.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert _replay_only_uses(sources) == []


def test_guard_flags_bit_stacks(tmp_path):
    home = tmp_path / "home.py"
    home.write_text(
        "def pack(stack):\n"
        "    return stack\n"
        "def unpack(code):\n"
        "    return pack(code)\n"
    )
    user = tmp_path / "user.py"
    user.write_text(
        "from .home import pack, pack_bits\n"
        "from fans.tokenizer import tokenize as t, iter_tokens\n"
        "from .container import unpack_archive, pack_archive\n"
        "def decode(code):\n"
        "    return home.unpack(static_encode(code))\n"
        "def count_frequencies(tokens):\n"
        "    return tokens\n"
        "def encode_ids(bits):\n"
        "    def build_spread():\n"
        "        return pack_bits(bits)\n"
    )
    # pack_bits, iter_tokens, pack_archive and unpack_archive pass, as do
    # home's own uses and user's top-level count_frequencies.
    flagged = [v.split(":")[1] for v in _replay_only_uses([home, user])]
    want = ["1 pack", "2 tokenize", "5 static_encode", "5 unpack", "9 build_spread"]
    assert sorted(flagged) == want


def _varint_names(path: Path) -> list[str]:
    """Imports, definitions and bindings of a name containing "varint", in any case."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [alias.asname for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno} {name}" for name in names if name and "varint" in name.lower()
        ]
    return found


def test_only_the_container_holds_varint_code():
    # The varint is part of the archive format, so its one writer and one
    # reader live in container.py. errors.py only names the error class the
    # reader raises.
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("container.py", "errors.py"))
    assert sources
    assert [v for path in sources for v in _varint_names(path)] == []
    assert [v.split()[-1] for v in _varint_names(PACKAGE / "errors.py")] == ["OverlongVarint"]
    assert _varint_names(PACKAGE / "container.py")


def test_guard_flags_varint_code(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .container import read_varints, unpack_archive\n"
        "from .errors import OverlongVarint as Overlong\n"
        "import fans.container as varint_codec\n"
        "def put_varint(out, value):\n"
        "    for varint in value:\n"
        "        pass\n"
        "class VarintError(Exception): pass\n"
        "_VARINT_MAX_BYTES = 10\n"
        "out = container.varints(values)\n"
        "# a varint in a comment\n"
    )
    flagged = [v.split(":")[1] for v in _varint_names(sample)]
    want = [
        "1 read_varints",
        "2 OverlongVarint",
        "3 varint_codec",
        "4 put_varint",
        "5 varint",
        "7 VarintError",
        "8 _VARINT_MAX_BYTES",
    ]
    assert sorted(flagged) == want


def _literal_typecode_arrays(path: Path) -> list[str]:
    """array() calls whose typecode is a literal.

    Every coder table takes its typecode from bitio.table_typecode, which
    gives 4-byte entries wherever the table's bound allows; a literal "Q"
    spends 8 bytes on each.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "array"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            found.append(f"{path.name}:{node.lineno} array({node.args[0].value!r})")
    return found


def test_library_creates_no_signed_array():
    # A literal typecode is flagged whether signed or not: a signed array
    # converts every stored int through a format string, and an unsigned
    # one should still be as narrow as its bound allows.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [v for path in sources for v in _literal_typecode_arrays(path)] == []


def test_guard_flags_signed_arrays(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from array import array\n"
        "import array as arr\n"
        "a = array('q')\n"
        "b = arr.array('l', [1])\n"
        "c = [array('i') for _ in range(3)]\n"
        "d = array('Q')\n"
        "e = array(table_typecode(n))\n"
        "f = array(code)\n"
    )
    flagged = sorted(v.split()[-1] for v in _literal_typecode_arrays(sample))
    assert flagged == ["array('Q')", "array('i')", "array('l')", "array('q')"]


def _third_party_imports(path: Path) -> list[str]:
    """Imports, lazy ones included, of anything but the standard library and fans."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "fans" and top not in sys.stdlib_module_names:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_library_imports_only_the_standard_library():
    # fans has no runtime dependency; pyproject.toml declares none.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [v for path in sources for v in _third_party_imports(path)] == []


def test_guard_flags_third_party_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import numpy as np\n"
        "from numpy.lib import stride_tricks\n"
        "import os.path, yaml\n"
        "def lazy():\n"
        "    import zstandard\n"
        "from __future__ import annotations\n"
        "from array import array\n"
        "from . import bench\n"
        "from .bitio import pack\n"
        "import fans.cli\n"
    )
    assert len(_third_party_imports(sample)) == 4


def _renumber_uses(path: Path) -> list[str]:
    """Imports and calls of fam_model.renumber, under its own name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call):
            names = [ast.unparse(node.func).split(".")[-1]]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names if name == "renumber"]
    return found


def test_compress_and_the_cli_number_once():
    # Both coders take first-sighting ids, so compress and `fans entropy`
    # number each stream once; renumbering into dictionary ids is for the
    # benchmark and the tests, whose decoded ids come back in them.
    assert _renumber_uses(PACKAGE / "pipeline.py") == []
    assert _renumber_uses(PACKAGE / "cli.py") == []
    assert _renumber_uses(PACKAGE / "bench.py")
    assert not hasattr(fam_model, "map_ids")


def test_guard_flags_renumbering(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .fam_model import number_ids, renumber\n"
        "from fans.fam_model import renumber as dictionary_ids\n"
        "import fans.fam_model as fm\n"
        "ids = fm.renumber(first, order)\n"
        "ids = renumber(first, order)\n"
        "renumbered = number_ids(tokens)\n"
        "renumber_later = True\n"
    )
    flagged = sorted(v.split(":")[1] for v in _renumber_uses(sample))
    assert flagged == ["1 renumber", "2 renumber", "4 renumber", "5 renumber"]


def _unraised_errors(errors: Path, sources: list[Path]) -> list[str]:
    """FansError subclasses defined in `errors` that no `raise` in `sources` names."""
    classes = {"FansError"}
    for node in ast.parse(errors.read_text(), filename=str(errors)).body:
        if isinstance(node, ast.ClassDef) and {ast.unparse(b) for b in node.bases} & classes:
            classes.add(node.name)
    raised = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).split(".")[-1])
    return sorted(classes - raised - {"FansError"})


def test_every_error_class_is_raised():
    sources = sorted(PACKAGE.glob("*.py"))
    assert _unraised_errors(PACKAGE / "errors.py", sources) == []


def test_guard_flags_unraised_errors(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text(
        "class FansError(Exception): pass\n"
        "class Raised(FansError): pass\n"
        "class RaisedBare(FansError): pass\n"
        "class Dead(FansError): pass\n"
        "class DeadChild(Dead): pass\n"
        "class Unrelated(Exception): pass\n"
    )
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import errors\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise errors.Raised('bad')\n"
        "    raise RaisedBare\n"
        "try:\n"
        "    f(0)\n"
        "except Dead:\n"
        "    raise\n"
    )
    assert _unraised_errors(errors, [errors, sample]) == ["Dead", "DeadChild"]


def test_public_names_resolve():
    assert sorted(fans.__all__) == ["FansError", "TokenizerMode", "compress", "decompress"]
    for name in fans.__all__:
        assert getattr(fans, name) is not None, name


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_replay_imports():
    # The benchmark's traced replay calls the public coder API directly.
    module = _load_tracing()
    assert callable(module.compress) and callable(module.decompress)


def test_benchmark_replay_matches_the_pipeline(tmp_path):
    # The replay writes the pipeline's archives and outputs, and counts each
    # coder's bits as len() of the wrappers' code, which must be the bit
    # count the archive records.
    tracing = _load_tracing()
    raw = (ROOT / "tests" / "data" / "corpus" / "alice29.txt").read_bytes()[:6000]
    src = tmp_path / "in.txt"
    src.write_bytes(raw)
    tr = tracing.Tracer()
    want = {"fam_codec.bits": 0, "static_codec.bits": 0}

    def code_bits(algo, mode):
        bits = unpack_archive(pipeline.compress(raw, algo, mode)).code.bit_length
        want["fam_codec.bits" if algo == "fam" else "static_codec.bits"] += bits

    for algo, mode, others in [
        ("fam", "lossless", ["ranged", "uniform"]),
        ("ranged", "paper", ["fam"]),
        ("uniform", "paper", ["fam"]),
        ("ranged", "lossless", ["fam"]),
    ]:
        arc, out = tmp_path / f"{algo}.fans", tmp_path / f"{algo}.out"
        tokens, w0 = tracing.compress(tr, ["compress", "-a", algo, "-m", mode, "-o", str(arc), str(src)])
        tracing.decompress(tr, ["decompress", "-o", str(out), str(arc)])
        data = pipeline.compress(raw, algo, TokenizerMode(mode))
        assert arc.read_bytes() == data
        assert out.read_bytes() == pipeline.decompress(data)
        code_bits(algo, TokenizerMode(mode))
        if algo == "fam":  # as perfbench/run.py does: fam's own order is not the static one
            w0 = tracing.standalone_dictionary(tr, tokens)
        for other in others:
            tracing.compare(tr, other, tokens, w0)
            code_bits(other, TokenizerMode(mode))
    assert want["fam_codec.bits"] and want["static_codec.bits"]
    assert {name: tr.counts[name] for name in want} == want
