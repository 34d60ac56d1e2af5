"""The package states its invariants as raised errors, never as bare asserts.

`python -O` strips `assert` statements, so an invariant written as one would
silently stop being checked; broken invariants raise LemmaViolated or
MissingClasses instead.
"""

import ast
from pathlib import Path

import pytest

import wpp

SOURCES = sorted(Path(wpp.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: bare assert at lines {lines}"
