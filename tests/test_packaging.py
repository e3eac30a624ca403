"""The declared runtime dependencies are exactly what the package imports."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

REPO = Path(__file__).resolve().parents[1]


def _declared():
    with open(REPO / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    # the distribution names in use are also their import names
    return [re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in deps]


def _imported_by_package():
    """Top-level names of every absolute import under src/symcube, lazy ones included."""
    names = set()
    for path in (REPO / "src" / "symcube").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("name", _declared())
def test_declared_dependency_is_installed_and_used(name):
    importlib.import_module(name)
    assert name in _imported_by_package()


def test_package_imports_only_stdlib_and_declared_dependencies():
    undeclared = _imported_by_package() - set(sys.stdlib_module_names) - set(_declared())
    assert not undeclared


@pytest.mark.parametrize("module", ["localfactor", "satake", "monomial", "intertwining"])
def test_scalar_modules_import_nothing_from_cyclo(module):
    """These modules take the ring's 0 and 1 from the values, not from a scalar
    class, so any commutative ring with int operands runs through; only cyclo
    and ingest know Cyclo."""
    tree = ast.parse((REPO / "src" / "symcube" / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("cyclo" in name.split(".") for name in names), ast.dump(node)
