"""The packaging metadata declares everything the test suite imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
# imported by the suite without being installed: the package under test and
# the suite's own modules
LOCAL = {"hiergru", "helpers", "conftest"}


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _declared() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    return {
        re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0].lower().replace("-", "_")
        for r in requirements
    }


def test_every_test_import_is_declared():
    declared = _declared()
    missing = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for name in _top_level_imports(path):
            if name in sys.stdlib_module_names or name in LOCAL:
                continue
            if name.lower() not in declared:
                missing.setdefault(name, []).append(path.name)
    assert not missing, f"imported by tests but not declared in pyproject.toml: {missing}"
