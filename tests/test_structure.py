"""Module boundaries: no private cross-module access, a resolvable public API."""

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


def test_public_names_resolve():
    for name in fans.__all__:
        assert getattr(fans, name) is not None, name


def test_benchmark_replay_imports():
    # The benchmark's traced replay calls the public coder API directly.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.compress) and callable(module.decompress)
