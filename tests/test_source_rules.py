"""Rules the package source keeps, checked on its syntax trees."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import brieskorn

SOURCES = sorted(Path(brieskorn.__file__).parent.glob("*.py"))


def test_package_source_has_no_assert():
    # `python -O` strips assert statements, so validation written as one
    # would silently stop running; the package raises explicit errors instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []


def _positive_int(node) -> bool:
    # a literal integer expression such as 2**16, evaluated without names
    try:
        value = eval(compile(ast.Expression(node), "<maxsize>", "eval"), {"__builtins__": {}})
    except Exception:
        return False
    return type(value) is int and value > 0


def unbounded_caches(source: str) -> list[int]:
    """Lines that use `functools.cache`, or `lru_cache` without a finite
    integer `maxsize` given as its first argument or by keyword."""
    tree = ast.parse(source)
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and (
            isinstance(node.value, ast.Name) and node.value.id == "functools"
        ):
            found.append(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == "lru_cache") or (
            isinstance(node, ast.Attribute) and node.attr == "lru_cache"
        ):
            call = calls.get(id(node))
            sizes = [k.value for k in call.keywords if k.arg == "maxsize"] if call else []
            if call and call.args:
                sizes.append(call.args[0])
            if len(sizes) != 1 or not _positive_int(sizes[0]):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "source, lines",
    [
        ("from functools import lru_cache\n@lru_cache(maxsize=2**16)\ndef f(x): pass", []),
        ("import functools\n@functools.lru_cache(128)\ndef f(x): pass", []),
        ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass", [2]),
        ("from functools import lru_cache\n@lru_cache(None)\ndef f(x): pass", [2]),
        ("from functools import lru_cache\n@lru_cache\ndef f(x): pass", [2]),
        ("import functools\nf = functools.lru_cache(maxsize=N)(len)", [2]),
        ("from functools import cache\n@cache\ndef f(x): pass", [1]),
        ("import functools\n@functools.cache\ndef f(x): pass", [2]),
    ],
)
def test_unbounded_cache_rule(source, lines):
    assert unbounded_caches(source) == lines


def test_package_caches_are_bounded():
    # no cache grows without bound in a long-lived process
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in unbounded_caches(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def _is_named_tuple(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "NamedTuple") or (
        isinstance(node, ast.Attribute) and node.attr == "NamedTuple"
    )


def _declares_empty_slots(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(stmt, ast.Assign)
        and [getattr(t, "id", None) for t in stmt.targets] == ["__slots__"]
        and isinstance(stmt.value, ast.Tuple) and not stmt.value.elts
        for stmt in cls.body
    )


def record_rule_faults(source: str) -> list[int]:
    """Lines that import `dataclasses`, and lines of classes that subclass a
    `NamedTuple` record of the same module, directly or through another
    subclass, without declaring `__slots__ = ()`."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
            alias.name.partition(".")[0] == "dataclasses" for alias in node.names
        ):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == (
            "dataclasses"
        ) and not node.level:
            found.append(node.lineno)
    records = set()
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        if any(_is_named_tuple(base) for base in cls.bases):
            records.add(cls.name)
        elif any(isinstance(base, ast.Name) and base.id in records for base in cls.bases):
            records.add(cls.name)
            if not _declares_empty_slots(cls):
                found.append(cls.lineno)
    return sorted(found)


@pytest.mark.parametrize(
    "source, lines",
    [
        ("from typing import NamedTuple\nclass A(NamedTuple):\n    x: int", []),
        ("import typing\nclass A(typing.NamedTuple):\n    x: int\n"
         "class B(A):\n    __slots__ = ()", []),
        ("from dataclasses import dataclass\n@dataclass(frozen=True)\nclass A: pass", [1]),
        ("import os, dataclasses\n", [1]),
        ("import math\nfrom dataclasses import replace as r", [2]),
        ("from typing import NamedTuple\nclass A(NamedTuple):\n    x: int\n"
         "class B(A):\n    pass", [4]),
        ("from typing import NamedTuple\nclass A(NamedTuple):\n    x: int\n"
         "class B(A):\n    __slots__ = ('y',)", [4]),
        ("from typing import NamedTuple\nclass A(NamedTuple):\n    x: int\n"
         "class B(A):\n    __slots__ = ()\nclass C(B):\n    y = 1", [6]),
        ("class A(tuple):\n    pass\nclass B(A):\n    pass", []),
    ],
)
def test_record_rule(source, lines):
    assert record_rule_faults(source) == lines


def test_package_records_are_slotted_named_tuples():
    # the package's records are values: a subclass without `__slots__ = ()`
    # gets an instance dict, so it could be given attributes after the checks
    # made when it was built; and `dataclasses` would import inspect, ast and
    # dis into every process that imports the package
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in record_rule_faults(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def default_limits_uses(source: str) -> list[int]:
    """Lines that use `DEFAULT_LIMITS` other than as a parameter's default,
    its module-level definition or an import."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            allowed.update(id(d) for d in node.args.defaults + node.args.kw_defaults)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            allowed.update(id(t) for t in node.targets)
    return [
        node.lineno
        for node in ast.walk(tree)
        if ((isinstance(node, ast.Name) and node.id == "DEFAULT_LIMITS")
            or (isinstance(node, ast.Attribute) and node.attr == "DEFAULT_LIMITS"))
        and id(node) not in allowed
    ]


@pytest.mark.parametrize(
    "source, lines",
    [
        ("def f(a, limits=DEFAULT_LIMITS): pass", []),
        ("def f(a, *, limits: Limits = DEFAULT_LIMITS): pass", []),
        ("from .limits import DEFAULT_LIMITS, Limits", []),
        ("DEFAULT_LIMITS = Limits()", []),
        ("def f(a):\n    return g(a, DEFAULT_LIMITS)", [2]),
        ("def f(a, limits=DEFAULT_LIMITS):\n    return g(a, DEFAULT_LIMITS)", [2]),
        ("def f(a, limits=None):\n    limits = limits or DEFAULT_LIMITS", [2]),
        ("import brieskorn.limits as bl\nx = g(bl.DEFAULT_LIMITS)", [2]),
        ("def f():\n    DEFAULT_LIMITS = Limits(subset_cap=99)", [2]),
    ],
)
def test_default_limits_rule(source, lines):
    assert default_limits_uses(source) == lines


def test_package_passes_its_limits_on():
    # a call that reads DEFAULT_LIMITS itself ignores the caps its caller was given
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in default_limits_uses(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def non_stdlib_imports(source: str, package: str = "brieskorn") -> list[int]:
    """Lines of an `import` or absolute `from` naming a top-level module that
    is neither in the standard library nor `package` itself."""
    allowed = set(sys.stdlib_module_names) | {package}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        if any(name.partition(".")[0] not in allowed for name in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "source, lines",
    [
        ("from __future__ import annotations\nimport math\nfrom itertools import chain", []),
        ("from .errors import BrieskornError\nfrom . import topology", []),
        ("import brieskorn.topology\nfrom brieskorn.reeb import mean_euler", []),
        ("import numpy", [1]),
        ("import os, hypothesis", [1]),
        ("from hypothesis import given", [1]),
        ("import math\nif True:\n    import sympy.ntheory as nt", [3]),
        ("from brieskornx import f", [1]),
    ],
)
def test_stdlib_only_rule(source, lines):
    assert non_stdlib_imports(source) == lines


def test_package_imports_only_the_standard_library():
    # the runtime has no dependencies beyond Python itself
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in non_stdlib_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# the private names one module may import from another: the table-level
# seams that let a caller build one subset lattice or one set of masks and
# read several quantities from it
PRIVATE_SEAMS = frozenset({
    "_mean_euler", "_chi_m", "_chi_numerator", "_frequencies", "_build_strata", "_chi_s1",
})


def private_imports(source: str, package: str = "brieskorn") -> list[int]:
    """Lines of a `from` import out of the package (relative, or naming
    `package`) that brings in a private name other than the seams."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").partition(".")[0] == package):
            continue
        if any(alias.name.startswith("_") and alias.name not in PRIVATE_SEAMS
               for alias in node.names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "source, lines",
    [
        ("from .topology import ExponentTuple, _verdict", [1]),
        ("from .reeb import _mean_euler\nfrom .topology import _chi_s1", []),
        ("from __future__ import annotations\nfrom os import _exit", []),
        ("from .certify import _certificate_lines", [1]),
        ("import math\nfrom .topology import (\n    ExponentTuple,\n    _adjacency,\n)", [2]),
        ("from brieskorn.certify import _parse_tuple", [1]),
        ("from ..brieskorn import _x", [1]),
        ("from .reeb import _chi_m", []),
        ("from .reeb import _strata_rows, chi_m", [1]),
        ("from .reeb import _build_strata, _chi_numerator\nfrom .topology import _bits", [2]),
        ("from .reeb import _frequencies, _build_strata", []),
    ],
)
def test_private_import_rule(source, lines):
    assert private_imports(source) == lines


def test_package_modules_import_only_public_names_and_seams():
    # another module's private helper is an implementation detail; only the
    # listed seams may cross a module boundary
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in private_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def all_mismatches(source: str) -> list[str]:
    """Names in a module's literal `__all__` that are not its public top-level
    functions and classes, and those missing from it; none without `__all__`."""
    tree = ast.parse(source)
    listed = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            listed = set(ast.literal_eval(node.value))
    if listed is None:
        return []
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    return sorted(listed ^ public)


@pytest.mark.parametrize(
    "source, names",
    [
        ("def f(): pass\ndef _g(): pass", []),
        ('__all__ = ["A", "f"]\nclass A: pass\ndef f(): pass\ndef _g(): pass', []),
        ('__all__ = ["f", "gone"]\ndef f(): pass', ["gone"]),
        ('__all__ = ("f",)\ndef f(): pass\nclass B: pass', ["B"]),
        ('__all__ = ["_g"]\ndef _g(): pass', ["_g"]),
    ],
)
def test_all_rule(source, names):
    assert all_mismatches(source) == names


def test_package_all_lists_exactly_the_public_names():
    # a name removed from a module cannot linger in its `__all__`, and a new
    # public function or class is listed
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in all_mismatches(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# items 8 and 6 of verify-paper compare the subset lattice with oracles: the
# claiming count and the recurrence of the frequencies, and the positions by
# division and the stratified sum; they are a second route only while they
# read nothing from the package
ORACLES = ("_direct_frequencies", "_recurrence_frequencies", "_stratified_route")


def package_names_in(source: str, package: str = "brieskorn") -> list[int]:
    """Lines inside the definitions of the `ORACLES` functions that use a
    name the module imports from `package` (by a relative or absolute
    import)."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == package
        ):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(
                alias.asname or alias.name.partition(".")[0]
                for alias in node.names
                if alias.name.partition(".")[0] == package
            )
    return sorted(
        inner.lineno
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ORACLES
        for inner in ast.walk(node)
        if isinstance(inner, ast.Name) and inner.id in imported
    )


@pytest.mark.parametrize(
    "source, lines",
    [
        ("import math\ndef _recurrence_frequencies(p):\n    return math.lcm(*p)", []),
        ("from .reeb import frequencies\ndef _item_8(t):\n    return frequencies(t)", []),
        ("from .reeb import frequencies\ndef _recurrence_frequencies(p):\n"
         "    return frequencies(p)", [3]),
        ("from brieskorn.topology import subset_lattice as sl\n"
         "def _direct_frequencies(p):\n    return sl(p)[1]", [3]),
        ("import brieskorn.reeb\ndef _direct_frequencies(p):\n"
         "    return brieskorn.reeb.frequencies(p)", [3]),
        ("from .topology import ExponentTuple\n"
         "def _direct_frequencies(p, t=ExponentTuple):\n    return p", [2]),
    ],
)
def test_oracle_independence_rule(source, lines):
    assert package_names_in(source) == lines


def test_items_6_and_8_oracles_read_nothing_from_the_package():
    # the claiming count and the period recurrence use only the periods,
    # and item 6's stratified route only the entries and the strata, with
    # the standard library, so they stay off the subset lattice they check
    source = (Path(brieskorn.__file__).parent / "verify.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert set(ORACLES) <= defined
    assert package_names_in(source) == []
