"""Four checks on the source text: the packaging metadata declares
everything the test suite imports, every exception the package raises by
name is a ``HiergruError``, every error type the package defines is
raised or warned somewhere, and every dataclass the package defines is
frozen."""

import ast
import importlib
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


def test_every_raise_names_a_hiergru_error():
    """Each ``raise Name(...)`` in ``src/hiergru`` names a subclass of
    ``HiergruError``, the name resolved in the raising module or in
    ``hiergru.errors``.  Re-raises of a stored error (``raise failures[0]``,
    a bare ``raise``) are not checked."""
    errors = importlib.import_module("hiergru.errors")
    foreign = []
    for path in sorted((ROOT / "src" / "hiergru").glob("*.py")):
        module = importlib.import_module(
            "hiergru" if path.stem == "__init__" else f"hiergru.{path.stem}"
        )
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                continue
            name = node.exc.func.id
            cls = getattr(module, name, getattr(errors, name, None))
            if not (isinstance(cls, type) and issubclass(cls, errors.HiergruError)):
                foreign.append(f"{path.name}:{node.lineno} raises {name}")
    assert not foreign, f"raises outside the HiergruError hierarchy: {foreign}"


def test_every_error_type_is_raised_or_warned():
    """Each exception and warning class that ``hiergru.errors`` defines is
    constructed (``Name(...)``), or passed to ``warnings.warn``, by name in
    another module of ``src/hiergru``; a type that nothing raises is one
    that callers catch in vain."""
    package = ROOT / "src" / "hiergru"
    defined = {
        node.name
        for node in ast.parse((package / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    used = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                used.add(node.func.id)
            elif ast.unparse(node.func) == "warnings.warn":
                args = node.args + [k.value for k in node.keywords]
                used.update(a.id for a in args if isinstance(a, ast.Name))
    assert not defined - used, f"never raised or warned: {sorted(defined - used)}"


def test_every_dataclass_is_frozen():
    """Each ``@dataclass`` in ``src/hiergru`` is declared ``frozen=True``:
    a config or a node model that a caller can assign to would let one
    run leave state behind for the next."""
    thawed = []
    for path in sorted((ROOT / "src" / "hiergru").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                name = ast.unparse(call.func if call else dec)
                if name not in ("dataclass", "dataclasses.dataclass"):
                    continue
                frozen = call and any(
                    k.arg == "frozen" and ast.unparse(k.value) == "True"
                    for k in call.keywords
                )
                if not frozen:
                    thawed.append(f"{path.name}:{node.lineno} {node.name}")
    assert not thawed, f"dataclasses not declared frozen=True: {thawed}"
