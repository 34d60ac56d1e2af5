"""In-memory span recorder that wraps `wpp` functions from outside the package.

`wpp` binds names with `from .x import f`, so a function is looked up in the
module of its caller, not the module that defines it. Each layer therefore
lists every (module, attribute) pair through which a caller reaches it, and
the recorder patches all of them. Modules are taken from `sys.modules`:
attribute access on the package can return a re-exported function instead
of the module (`wpp.polygon` is the function `polygon`).

A span is (op, name, start_ns, end_ns, parent): `op` is the index of the
benchmark op that caused it, so the spans of one op share an identifier, and
`parent` is the index of the enclosing span or -1. A layer's self time is the
duration of its spans minus the time covered by their child spans; spans nest
strictly because everything runs on one thread.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

# layer name -> every place a caller looks the function up
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "scan.check_triple": (("wpp.scan", "check_triple"),),
    "resolution.build_resolution": (
        ("wpp.scan", "build_resolution"),
        ("wpp.resolution", "build_resolution"),
    ),
    "polygon.chop_corner": (("wpp.resolution", "chop_corner"),),
    "polygon.edge_selfints": (
        ("wpp.resolution", "edge_selfints"),
        ("wpp.polygon", "edge_selfints"),
    ),
    # the contraction ledger; verification and edge_selfints are child spans
    "polygon.ledger": (("wpp.resolution", "assign_classes"),),
    "polygon.verify": (("wpp.polygon", "_verify_classes"),),
    # ruled-surface to CP^2 basis conversion
    "homlat.basis": (
        ("wpp.resolution", "to_cp2"),
        ("wpp.resolution", "mat_vec"),
        ("wpp.resolution", "transport_area"),
    ),
    # divisor predicates, sum bound, two-(-2) check and connector squares
    "resolution.predicates": tuple(
        (mod, name)
        for mod in ("wpp.scan", "wpp.report")
        for name in (
            "connector_selfints",
            "check_divisor_predicates",
            "check_sum_bound",
            "check_two_minus2",
        )
    )
    + (("wpp.scan", "divisor_predicates_hold"), ("wpp.resolution", "connector_selfints")),
    "rulings.ruling": (("wpp.scan", "ruling"), ("wpp.report", "ruling")),
    "rulings.ruling_resolution": (
        ("wpp.scan", "ruling_resolution"),
        ("wpp.report", "ruling_resolution"),
    ),
    "strings.resolution_fiber_class": (("wpp.rulings", "resolution_fiber_class"),),
    # wpp.arith itself: strings imports hj_expand inside a function body
    "arith.hj_expand": (
        ("wpp.arith", "hj_expand"),
        ("wpp.polygon", "hj_expand"),
        ("wpp.resolution", "hj_expand"),
    ),
    "homlat.exceptional_gap": (("wpp.homlat", "exceptional_gap"),),
    "homlat.enumerate_exceptional": (("wpp.homlat", "enumerate_exceptional"),),
    "report.make_report": (("wpp.report", "make_report"),),
    "report.serialize_report": (("wpp.report", "serialize_report"),),
}

# counters read off results at the same boundaries:
# target -> function of the result giving (counter, increment) pairs
COUNTERS = {
    ("wpp.scan", "check_triple"): lambda r: (("scan.violations", len(r["violations"])),),
    ("wpp.scan", "build_resolution"): lambda rp: (("resolution.rank_sum", rp.n),),
    ("wpp.resolution", "build_resolution"): lambda rp: (("resolution.rank_sum", rp.n),),
    ("wpp.homlat", "enumerate_exceptional"): lambda s: (
        ("homlat.enumerate_exceptional.classes", len(s.classes)),
    ),
    ("wpp.homlat", "connecting_log_exceptional"): lambda s: (
        ("homlat.exceptional_gap.kept", len(s.classes)),
    ),
    ("wpp.homlat", "exceptional_gap"): lambda g: (
        ("homlat.exceptional_gap.certified", int(g.certified)),
    ),
    ("wpp.report", "serialize_report"): lambda text: (("report.bytes", len(text)),),
}

ROOT = "op"


class Recorder:
    """Collects spans and counters while `patched()` is active."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one column per span field, so a long run stays small in memory
        self.op = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.op.append(self._op)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _count(self, counter, result) -> None:
        for key, value in counter(result):
            self.counters[key] = self.counters.get(key, 0) + value

    def run_op(self, op_index: int, fn):
        """Call fn() as benchmark op op_index under a root span."""
        self._op = op_index
        idx = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, name: str | None, fn, counter):
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
            if counter is not None:
                self._count(counter, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Wrap every layer target; restore the originals on exit."""
        targets: dict[tuple[str, str], str | None] = {
            t: layer for layer, ts in LAYERS.items() for t in ts
        }
        for t in COUNTERS:
            targets.setdefault(t, None)  # counter only, no span
        saved = []
        try:
            for (mod_name, attr), layer in targets.items():
                mod = sys.modules.get(mod_name)
                fn = getattr(mod, attr, None) if mod is not None else None
                if not callable(fn):
                    if f"{mod_name}.{attr}" not in self.missing:
                        self.missing.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(layer, fn, COUNTERS.get((mod_name, attr))))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (self seconds, calls), from the recorded spans."""
        covered = [0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[i] - self.start[i]
        totals = [[0, 0] for _ in self.names]
        for i, nid in enumerate(self.name):
            totals[nid][0] += self.end[i] - self.start[i] - covered[i]
            totals[nid][1] += 1
        return {name: (ns / 1e9, calls) for name, (ns, calls) in zip(self.names, totals)}

    def write(self, path) -> None:
        """Write the spans as JSON lines [op, name, start_ns, end_ns, parent],
        times relative to the first span."""
        t0 = self.start[0] if self.start else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                span = [self.op[i], self.names[self.name[i]], self.start[i] - t0,
                        self.end[i] - t0, self.parent[i]]
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
