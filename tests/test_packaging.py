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


def _unused_imports(source: str):
    """Names a module imports and never reads (``__all__`` counts as a read)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_finder_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "from typing import Iterator, List\n"
              "from . import a as b\n"
              "def f(x: List[int]) -> None:\n"
              "    return os.sep\n")
    assert _unused_imports(source) == [(3, "Iterator"), (4, "b")]


@pytest.mark.parametrize("path", sorted((REPO / "src" / "symcube").rglob("*.py")),
                         ids=lambda path: path.name)
def test_modules_import_no_name_they_never_use(path):
    """An unused import costs import time and memory at every start (an
    annotation-only import included), and says nothing."""
    assert _unused_imports(path.read_text()) == []


def _imports_of(module: str, source: str):
    """Lines that import the module or a name from it, lazy ones included."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import) and any(
                      a.name.split(".")[0] == module for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == module)


def test_random_import_finder_sees_every_spelling():
    source = ("import random\n"
              "import os, random as rnd\n"
              "from random import Random\n"
              "def f():\n"
              "    import random\n"
              "from . import random_walk\n"
              "from .random import x\n"
              "import randomness\n"
              "random = 3\n")
    assert _imports_of("random", source) == [1, 2, 3, 5]


@pytest.mark.parametrize("path", sorted((REPO / "src" / "symcube").rglob("*.py")),
                         ids=lambda path: path.name)
def test_only_the_cli_draws_random_numbers(path):
    """The library decides what it checks; only the cli samples, with draws
    its --seed fixes."""
    if path.name != "cli.py":
        assert _imports_of("random", path.read_text()) == []


@pytest.mark.parametrize("path", sorted((REPO / "src" / "symcube").rglob("*.py")),
                         ids=lambda path: path.name)
def test_only_analytic_imports_dataclasses(path):
    """dataclasses loads inspect, ast, dis and tokenize, about 6.5 ms of a cold
    command; analytic's commands load numpy, which imports inspect anyway."""
    if path.name != "analytic.py":
        assert _imports_of("dataclasses", path.read_text()) == []


def _unbounded_caches(source: str):
    """Lines of `cache` and `lru_cache(maxsize=None)` (or `lru_cache(None)`),
    bare or as `functools.` attributes, decorators and calls alike."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    found = []
    for node in ast.walk(ast.parse(source)):
        applied = list(getattr(node, "decorator_list", []))
        if isinstance(node, ast.Call):
            applied.append(node.func)
        found.extend(f.lineno for f in applied if name(f) == "cache")
        if isinstance(node, ast.Call) and name(node.func) == "lru_cache":
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and size.value is None:
                found.append(node.lineno)
    return sorted(found)


def test_unbounded_cache_finder_sees_every_spelling():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def a(): pass\n"
              "@lru_cache(None)\n"
              "def b(): pass\n"
              "@functools.cache\n"
              "def c(): pass\n"
              "d = lru_cache(maxsize=None)(len)\n"
              "@lru_cache(maxsize=4)\n"
              "def e(): pass\n"
              "@lru_cache\n"
              "def f(): pass\n"
              "g = cache(len)\n"
              "cache = {}\n")
    assert _unbounded_caches(source) == [3, 5, 7, 9, 14]


@pytest.mark.parametrize("path", sorted((REPO / "src" / "symcube").rglob("*.py")),
                         ids=lambda path: path.name)
def test_modules_hold_no_unbounded_cache(path):
    """A cache without a bound grows with every distinct argument for the life
    of the process; every cache in the package names its size."""
    assert _unbounded_caches(path.read_text()) == []


def _dead_helpers(sources):
    """``(module, name)`` of every module-level ``_private`` function, class or
    constant that no module of ``sources`` (name -> source) reads.  Reads are
    matched by name, as a bare name or an attribute; a function's calls to
    itself do not count."""
    defined, read = set(), set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update((module, n) for n in names
                           if n.startswith("_") and not n.startswith("__"))
            here = {node.id for node in ast.walk(top)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            here.update(node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute))
            read |= here - {getattr(top, "name", None)}
    return sorted((module, name) for module, name in defined if name not in read)


def test_dead_helper_finder_sees_unread_private_names():
    sources = {"a": ("import b\n"
                     "_USED, _UNUSED = 1, 2\n"
                     "_ANNOTATED: int = 3\n"
                     "__version__ = '1'\n"
                     "def _helper(): return _USED + b._REMOTE\n"
                     "def _recursive(n): return _recursive(n - 1)\n"
                     "class _Unused: pass\n"
                     "def public(): return _helper()\n"),
               "b": "_REMOTE = 4\n_ONLY_HERE = 5\ndef _f(): pass\nx = [_f]\n"}
    assert _dead_helpers(sources) == [("a", "_ANNOTATED"), ("a", "_UNUSED"),
                                      ("a", "_Unused"), ("a", "_recursive"),
                                      ("b", "_ONLY_HERE")]


def test_package_defines_no_private_name_it_never_reads():
    """A private helper or constant that nothing under src/ reads is dead code
    (tests may still import it; they test what the package runs)."""
    sources = {path.name: path.read_text()
               for path in sorted((REPO / "src" / "symcube").rglob("*.py"))}
    assert _dead_helpers(sources) == []


_FRACTION_SLOTS = {"_numerator", "_denominator"}


def _fraction_slot_reads(source: str):
    """Lines that read a Fraction slot, ``x._numerator`` or ``x._denominator``,
    as an attribute or through ``getattr`` with a constant name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            name = node.args[1].value
        else:
            continue
        if name in _FRACTION_SLOTS:
            found.append(node.lineno)
    return sorted(found)


def test_fraction_slot_finder_sees_reads_and_passes_over_the_rest():
    source = ("a = f._numerator\n"
              "b = g(x)._denominator * 2\n"
              "c = getattr(f, '_numerator', None)\n"
              "d = f.numerator + f.denominator\n"
              "e = f.as_integer_ratio()\n"
              "self._numerator = 1\n"
              "_denominator = 3\n"
              "h = getattr(f, '_numerator_count')\n"
              "i = '_denominator'\n")
    assert _fraction_slot_reads(source) == [1, 2, 3]


def test_only_intertwining_reads_fraction_slots():
    """Fraction's slots are an implementation detail of CPython's fractions
    module.  The rs-plane classifiers read them on their hot path, and the
    tests there pin the slots' names and values; no other module may."""
    readers = {path.name for path in (REPO / "src" / "symcube").rglob("*.py")
               if _fraction_slot_reads(path.read_text())}
    assert readers <= {"intertwining.py"}


def _table_metadata_keywords(source: str):
    """Lines of calls that pass a rep_tag= or source= keyword."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and any(kw.arg in ("rep_tag", "source") for kw in node.keywords))


def test_table_metadata_finder_sees_calls_and_passes_over_the_rest():
    source = ("f(1, rep_tag=t)\n"
              "x.y(n=2,\n"
              "    source='a')\n"
              "def g(rep_tag=None, source=''): pass\n"
              "h(source_path='p', tag=t)\n"
              "source = rep_tag = 1\n")
    assert _table_metadata_keywords(source) == [1, 2]


def test_only_dirichlet_coeffs_passes_table_metadata():
    """Nothing reads CoefficientTable's rep_tag and source.  No call under
    src/ or tests/ fills them in but dirichlet_coeffs passing on what perfbench
    gives it, so both can go by editing analytic, tests and perfbench."""
    calls = {str(path.relative_to(REPO)): len(_table_metadata_keywords(path.read_text()))
             for top in ("src", "tests") for path in (REPO / top).rglob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"src/symcube/analytic.py": 1}


def _record_rule_breaks(source: str):
    """For each class that derives from Record (directly or through a class
    of ``source``), the lines that break the rule that a record's fields are
    the parameters of its ``__init__``: a ``set_field`` outside ``__init__``
    or naming no parameter of it, an ``__init__`` whose first ``set_field``
    of each field is not in the parameters' order, and a ``cached_property``."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    records, found = {"Record"}, {}
    for cls in ast.parse(source).body:
        if not (isinstance(cls, ast.ClassDef) and any(name(b) in records for b in cls.bases)):
            continue
        records.add(cls.name)
        init = next((f for f in cls.body
                     if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None)
        params = [a.arg for a in init.args.args[1:] + init.args.kwonlyargs] if init else []
        inside = {id(node) for node in ast.walk(init)} if init else set()
        lines, order = found.setdefault(cls.name, []), []
        for node in sorted((n for n in ast.walk(cls) if hasattr(n, "lineno")),
                           key=lambda n: (n.lineno, n.col_offset)):
            if name(node) == "cached_property":
                lines.append(node.lineno)
            elif isinstance(node, ast.Call) and name(node.func) == "set_field":
                field = getattr(node.args[1], "value", None) if len(node.args) > 1 else None
                if id(node) not in inside or field not in params:
                    lines.append(node.lineno)
                elif field not in order:
                    order.append(field)
        if init and order != params:
            lines.append(init.lineno)
    return {cls: sorted(lines) for cls, lines in found.items()}


def test_record_rule_finder_sees_each_break_and_passes_over_the_rest():
    source = ("class Record: pass\n"
              "class A(Record):\n"
              "    def __init__(self, x, y=0):\n"
              "        set_field(self, 'x', x)\n"
              "        set_field(self, 'y', y)\n"
              "        set_field(self, 'x', -x)\n"
              "    @property\n"
              "    def z(self): return self.x\n"
              "class B(A):\n"
              "    def __init__(self, x, *, y):\n"
              "        set_field(self, 'y', y)\n"
              "        set_field(self, 'x', x)\n"
              "        set_field(self, 'w', 0)\n"
              "    def bump(self):\n"
              "        set_field(self, 'x', 1)\n"
              "    @functools.cached_property\n"
              "    def z(self): return 0\n"
              "class C(satake.Record):\n"
              "    def __init__(self, x, y):\n"
              "        set_field(self, 'x', x)\n"
              "class D:\n"
              "    def __init__(self, y):\n"
              "        set_field(self, 'x', y)\n")
    assert _record_rule_breaks(source) == {"A": [], "B": [10, 13, 15, 16], "C": [19]}


def test_each_record_sets_its_init_parameters_in_order():
    """A record's fields are what its __init__ sets (Record reads __dict__),
    so a set_field anywhere else, or a cached_property, would add a field."""
    found = {}
    for path in (REPO / "src" / "symcube").rglob("*.py"):
        found.update(_record_rule_breaks(path.read_text()))
    assert found == dict.fromkeys(
        ["HeckeLocalData", "ParsedForm", "ParsedHeckeData", "PoleVerdict", "PrincipalParams",
         "ReciprocalPoly", "RootVector", "SatakeClass", "WeylElement"], [])
