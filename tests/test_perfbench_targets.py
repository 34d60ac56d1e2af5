"""The benchmark's span map names only functions that exist.

`perfbench/spans.py` wraps each layer through every module that calls it, as
(module, attribute) pairs. A refactor that drops such an import would make the
benchmark lose that layer without failing; this test fails instead. The file is
read as text and executed in a fresh namespace, so nothing under `perfbench/`
is imported as a package or written to.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    mod = types.ModuleType("perfbench_spans")
    mod.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), mod.__dict__)
    return mod


_spans = _load_spans()
TARGETS = sorted(
    {t for ts in _spans.LAYERS.values() for t in ts} | set(_spans.COUNTERS)
)


def test_map_is_not_empty():
    assert _spans.LAYERS and _spans.COUNTERS
    assert all(_spans.LAYERS.values())


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_target_resolves_to_a_callable(module, attr):
    mod = importlib.import_module(module)
    assert callable(getattr(mod, attr, None)), f"{module}.{attr} is missing"
