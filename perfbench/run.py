"""Benchmark of `wpp`: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; `wpp` is imported from `src/` there. The
workloads and the reasons for them are in `workloads.py`, the layers in
`spans.py`.

A run repeats rounds for as long as `--seconds` allows, at least one: set
up (a fresh import of `wpp`, input generation, fixture builds), then one pass
that sends every op of the workload once, each after the previous one
returned. Each op's output is checked, and every pass must produce the same
output digest; for the default seed the digest must also equal the one
recorded in `digests.json`.

--trace 0 reports the end-to-end metrics, measured with tracing off. Every
time in them is scaled to a reference host speed by the probes of
`hostspeed.py`, taken between ops: on a shared host the speed drifts by up to
half within seconds, and the scaled times stay within a few percent where
the measured ones do not. An op's latency is the median of its scaled
executions across passes, and set-up is repeated at least five times.
  setup_s         median set-up time
  ops_per_s       ops / sum of the op latencies
  latency_ms_p50  median op latency (one sample per op)
  latency_ms_p90  90th percentile op latency (every workload has >= 100 ops)
  ok_frac         op executions that returned and passed their check /
                  op executions attempted
  peak_rss_mb     peak resident set size of the process
Both percentiles are Harrell-Davis estimates: a weighted mean of all sorted
op latencies, with the weights concentrated around the percentile. A single
order statistic would move with the noise of the one or two ops that land
on it.
--trace 1 runs every op both untraced and traced, back to back, and reports
the per-layer metrics: self time and calls per traced pass for each layer,
counters, and the tracing overhead. Spans are written to .perfbench/ at the
end.

The last line of standard output is the result object; the line before it
holds the host and input facts (core count, Python, platform, median probe
time, the unscaled times, thread count at the end, seed, op count, passes,
latency sample count, rank histogram, digest).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5  # at least, one more before every pass
SPAN_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

# per-layer metrics read off the spans: <layer>.self_s is the layer's self
# time and <layer>.calls its span count, each per traced pass
LAYER_METRICS = (
    "polygon.chop_corner.self_s",
    "polygon.chop_corner.calls",
    "polygon.edge_selfints.self_s",
    "polygon.ledger.self_s",
    "polygon.verify.self_s",
    "polygon.verify.calls",
    "homlat.basis.self_s",
    "homlat.basis.calls",
    "resolution.build_resolution.self_s",
    "resolution.build_resolution.calls",
    "resolution.predicates.self_s",
    "rulings.ruling.self_s",
    "rulings.ruling_resolution.self_s",
    "rulings.ruling_resolution.calls",
    "strings.resolution_fiber_class.self_s",
    "arith.hj_expand.self_s",
    "arith.hj_expand.calls",
    "homlat.exceptional_gap.self_s",
    "homlat.enumerate_exceptional.self_s",
    "homlat.enumerate_exceptional.calls",
    "report.make_report.self_s",
    "report.serialize_report.self_s",
    "scan.check_triple.self_s",
)
# counters per traced pass, with their units
COUNTER_UNITS = {
    "resolution.rank_sum": "count",
    "homlat.enumerate_exceptional.classes": "count",
    "report.bytes": "bytes",
    "scan.violations": "count",
}


class SetupError(Exception):
    """The checkout does not hold the program's sources."""


@dataclass
class Pass:
    traced: bool
    times: list[float] = field(default_factory=list)  # seconds, one per op
    starts: list[float] = field(default_factory=list)  # perf_counter() at each op start
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""


@dataclass
class Run:
    setups: list[tuple[float, float]]  # (perf_counter() at start, seconds)
    passes: list[Pass]
    ops: list[workloads.Op]  # of the last round
    host: hostspeed.HostSpeed


# --- set-up ---------------------------------------------------------------------


def load_wpp() -> None:
    """Import `wpp` afresh from the checkout's sources."""
    if not (SRC / "wpp" / "__init__.py").is_file():
        raise SetupError(f"no wpp sources under {SRC}")
    for name in [m for m in sys.modules if m == "wpp" or m.startswith("wpp.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    wpp = importlib.import_module("wpp")
    if Path(wpp.__file__).resolve().parent != (SRC / "wpp").resolve():
        raise SetupError(f"wpp was imported from {wpp.__file__}, not {SRC}")


def setup(workload: str, seed: int) -> list[workloads.Op]:
    load_wpp()
    return workloads.OPS[workload](workloads.inputs(workload, seed))


# --- measurement ----------------------------------------------------------------


def run_op(i: int, op: workloads.Op, result: Pass, digest, recorder=None) -> None:
    """Time op i, check its output and add the output to the pass digest."""
    t0 = time.perf_counter()
    result.starts.append(t0)
    try:
        out = op.run() if recorder is None else recorder.run_op(i, op.run)
        result.times.append(time.perf_counter() - t0)
        text = op.check(out)
    except Exception as exc:  # one bad op must not end the run
        if len(result.times) == i:
            result.times.append(time.perf_counter() - t0)
        result.failed += 1
        if not result.errors:
            traceback.print_exc(file=sys.stderr)
        result.errors.append(f"{op.triple}: {type(exc).__name__}: {exc}")
        text = f"failed {op.triple}"
    digest.update(text.encode())
    digest.update(b"\n")


def run_pass(ops: list[workloads.Op], host: hostspeed.HostSpeed) -> Pass:
    """Send every op once, in order, each after the previous one returned;
    probe the host between ops."""
    result, digest = Pass(traced=False), hashlib.sha256()
    for i, op in enumerate(ops):
        host.maybe_probe()
        run_op(i, op, result, digest)
    result.digest = digest.hexdigest()
    return result


def run_paired_passes(ops: list[workloads.Op], recorder: spans.Recorder) -> list[Pass]:
    """An untraced and a traced pass, interleaved op by op so that both see
    the host in the same state; which of the two goes first alternates."""
    plain, traced = Pass(traced=False), Pass(traced=True)
    plain_digest, traced_digest = hashlib.sha256(), hashlib.sha256()

    def run_traced(i: int, op: workloads.Op) -> None:
        with recorder.patched():
            run_op(i, op, traced, traced_digest, recorder)

    for i, op in enumerate(ops):
        if i % 2:
            run_traced(i, op)
        run_op(i, op, plain, plain_digest)
        if not i % 2:
            run_traced(i, op)
    plain.digest = plain_digest.hexdigest()
    traced.digest = traced_digest.hexdigest()
    return [plain, traced]


def measure(make_ops, seconds: float, recorder: spans.Recorder | None = None) -> Run:
    """Set up, then run one pass (a traced and an untraced one with a
    recorder); repeat while the next round is expected to fit in `seconds`.

    Every round starts from a fresh import, so all passes see the program in
    the same state (a cold start, as a new process would) and the set-up
    repetitions are spread over the run.
    """
    host = hostspeed.HostSpeed()
    setups: list[tuple[float, float]] = []
    passes: list[Pass] = []

    def set_up() -> list[workloads.Op]:
        host.maybe_probe()
        t0 = time.perf_counter()
        ops = make_ops()
        setups.append((t0, time.perf_counter() - t0))
        return ops

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = set_up()
        if recorder is None:
            passes.append(run_pass(ops, host))
        else:
            passes.extend(run_paired_passes(ops, recorder))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    while len(setups) < SETUP_REPS:
        ops = set_up()
    host.probe_point()
    return Run(setups, passes, ops, host)


# --- metrics ----------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def unscaled(start: float, end: float) -> float:
    return 1.0


def op_latencies(passes: list[Pass], scale=unscaled) -> list[float]:
    """Each op's median execution time across passes, every execution
    multiplied by scale(its start, its end)."""
    return [
        statistics.median(t * scale(at, at + t) for t, at in execs)
        for execs in zip(*(zip(p.times, p.starts) for p in passes))
    ]


def quantile(values: list[float], p: float, steps: int = 8) -> float:
    """The Harrell-Davis estimate of the p-quantile: the sorted values
    weighted by the Beta((n + 1)p, (n + 1)(1 - p)) probability of each
    interval [i / n, (i + 1) / n], integrated by Simpson's rule."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    simpson = [1] + [4 if k % 2 else 2 for k in range(1, steps)] + [1]
    weights = [
        sum(w * density((i + k / steps) / n) for k, w in enumerate(simpson))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def timings(per_op: list[float], setups: list[tuple[float, float]], scale) -> dict:
    return {
        "setup_s": metric(
            statistics.median(secs * scale(at, at + secs) for at, secs in setups), "s"
        ),
        "ops_per_s": metric(len(per_op) / sum(per_op), "1/s"),
        "latency_ms_p50": metric(1000 * quantile(per_op, 0.5), "ms"),
        "latency_ms_p90": metric(1000 * quantile(per_op, 0.9), "ms"),
    }


def end_to_end(run: Run) -> dict:
    attempted = sum(len(p.times) for p in run.passes)
    failed = sum(p.failed for p in run.passes)
    return {
        **timings(op_latencies(run.passes, run.host.scale), run.setups, run.host.scale),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer(passes: list[Pass], recorder: spans.Recorder) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    k = len(traced)
    layer = recorder.self_times()
    out = {}
    for name in LAYER_METRICS:
        layer_name, kind = name.rsplit(".", 1)
        secs, calls = layer.get(layer_name, (0.0, 0))
        out[name] = metric(secs / k, "s") if kind == "self_s" else metric(calls / k, "count")
    for name, unit in COUNTER_UNITS.items():
        out[name] = metric(recorder.counters.get(name, 0) / k, unit)
    gaps = layer.get("homlat.exceptional_gap", (0.0, 0))[1]
    classes = recorder.counters.get("homlat.enumerate_exceptional.classes", 0)
    kept = recorder.counters.get("homlat.exceptional_gap.kept", 0)
    certified = recorder.counters.get("homlat.exceptional_gap.certified", 0)
    out["homlat.exceptional_gap.kept_ratio"] = metric(kept / classes if classes else 0.0, "ratio")
    out["homlat.exceptional_gap.certified_frac"] = metric(certified / gaps if gaps else 0.0, "ratio")
    out["trace.overhead_frac"] = metric(
        sum(op_latencies(traced)) / sum(op_latencies(untraced)) - 1, "ratio"
    )
    out["trace.op_s"] = metric(sum(sum(p.times) for p in traced) / k, "s")
    # time inside ops but outside every layer span: the root spans' self time
    outside, _ = layer.get(spans.ROOT, (0.0, 0))
    out["trace.unattributed_s"] = metric(outside / k, "s")
    return out


def facts(workload: str, seed: int, run: Run, digest_ok) -> dict:
    ops, passes = run.ops, run.passes
    measured = timings(op_latencies(passes), run.setups, unscaled)
    ranks = Counter(
        workloads.rank(op.triple) for op in ops if workloads.pairwise_coprime(*op.triple)
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "ops": len(ops),
        "distinct_triples": len({op.triple for op in ops}),
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "latency_samples": len(ops),
        "probe_ms_median": run.host.median_ms(),
        "probe_points": len(run.host.at),
        "unscaled": {name: m["value"] for name, m in measured.items()},
        "threads_at_end": threading.active_count(),
        "rank_histogram": {str(n): count for n, count in sorted(ranks.items())},
        "digest": passes[0].digest,
        "digest_checked": digest_ok is not None,
        "errors": [e for p in passes for e in p.errors][:5],
    }


def expected_digest(workload: str, seed: int) -> str | None:
    if seed != workloads.DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    recorder = spans.Recorder() if args.trace else None
    try:
        run = measure(lambda: setup(args.workload, args.seed), args.seconds, recorder)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    want = expected_digest(args.workload, args.seed)
    passes = run.passes
    digest_ok = None if want is None else passes[0].digest == want
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    correct = (
        failed == 0
        and len({p.digest for p in passes}) == 1
        and digest_ok is not False
    )
    if recorder is not None:
        metrics = per_layer(passes, recorder)
        SPAN_DIR.mkdir(exist_ok=True)
        recorder.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(run)
    info = facts(args.workload, args.seed, run, digest_ok)
    if recorder is not None:
        info["missing_targets"] = recorder.missing
    print(json.dumps({"facts": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
