"""numpy is the one runtime dependency: every import of `src/sgns/*.py` is
of the standard library, numpy or sgns itself, and `pyproject.toml` names
numpy alone under `[project] dependencies`.  scipy, the oracle of the noise
sups and of the trend test, is a test dependency only.  The check reads the
sources with `ast` and runs nothing."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_src_imports_only_the_standard_library_numpy_and_sgns():
    foreign = []
    for path in sorted((ROOT / "src" / "sgns").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ("numpy", "sgns"):
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert foreign == []


def test_numpy_is_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
