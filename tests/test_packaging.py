"""Every declared runtime dependency is installed and imported by the package."""

import ast
import importlib
import re
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
