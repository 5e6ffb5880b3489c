"""Rules the package source keeps, checked on its syntax trees."""

from __future__ import annotations

import ast
from pathlib import Path

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
