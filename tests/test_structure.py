"""Module boundaries: no private cross-module access, no process starts, one module
that imports the coders, no import from outside the standard library, no error
class that nothing raises, a small resolvable public API."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import fans

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


SIGNED_TYPECODES = set("bhilq")


def _signed_arrays(path: Path) -> list[str]:
    """array() calls with a signed integer typecode.

    A signed array converts every stored int through a format string; "Q"
    holds the same non-negative values and appends in about half the time.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "array"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in SIGNED_TYPECODES
        ):
            found.append(f"{path.name}:{node.lineno} array({node.args[0].value!r})")
    return found


def test_library_creates_no_signed_array():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [v for path in sources for v in _signed_arrays(path)] == []


def test_guard_flags_signed_arrays(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from array import array\n"
        "import array as arr\n"
        "a = array('q')\n"
        "b = arr.array('l', [1])\n"
        "c = [array('i') for _ in range(3)]\n"
        "d = array('Q')\n"
        "e = array('d', [0.5])\n"
        "f = array(code)\n"
    )
    assert len(_signed_arrays(sample)) == 3


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


def test_benchmark_replay_imports():
    # The benchmark's traced replay calls the public coder API directly.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.compress) and callable(module.decompress)
