"""Every name a `wpp` module imports is used in that module.

An import left behind when its last caller goes hides dead code, and one kept
only so that something outside the package can patch it hides a missing
caller. Listing a name in `__all__` counts as a use (the package re-exports).
"""

import ast
from pathlib import Path

import pytest

import wpp

SOURCES = sorted(Path(wpp.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_sources_found():
    assert len(SOURCES) >= 10


def test_detects_an_unused_import():
    tree = ast.parse("from a import b, c\nimport d.e\n__all__ = ['c']\n")
    assert _unused_imports(tree) == ["b (line 1)", "d (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert unused == [], f"{path.name}: unused imports {unused}"
