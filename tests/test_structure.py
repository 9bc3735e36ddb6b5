"""Module boundaries: no private cross-module access, no process starts, one module
that imports the coders, a small resolvable public API."""

from __future__ import annotations

import ast
import importlib.util
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
