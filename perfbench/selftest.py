"""Self-test of the benchmark on small inputs.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that inputs follow the seed, that
every metric named in BENCHMARK.json is printed with its unit, that a bad
input is counted as failed without ending the run, that every layer span
fires on the workload where it does most of the work and records no calls
where the layer is absent, that traced and untraced passes give the same
outputs, that times are scaled by the host probes around them, and that the
percentiles are Harrell-Davis estimates.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = {"scan": 4, "resolve": 2, "exceptional": 12}
NOT_COPRIME = (2, 4, 7)

# layers that must record calls on a workload, and layers that must record none
BUSY = {
    "scan": (
        "scan.check_triple", "resolution.build_resolution", "polygon.chop_corner",
        "polygon.edge_selfints", "polygon.ledger", "polygon.verify", "homlat.basis",
        "resolution.predicates", "rulings.ruling", "rulings.ruling_resolution",
        "strings.resolution_fiber_class", "arith.hj_expand",
    ),
    "resolve": (
        "resolution.build_resolution", "polygon.chop_corner", "polygon.verify",
        "homlat.basis", "report.make_report", "report.serialize_report",
    ),
    "exceptional": ("homlat.exceptional_gap", "homlat.enumerate_exceptional"),
}
IDLE = {
    "scan": ("homlat.exceptional_gap", "homlat.enumerate_exceptional",
             "report.make_report", "report.serialize_report"),
    "resolve": ("scan.check_triple", "homlat.exceptional_gap",
                "homlat.enumerate_exceptional"),
    "exceptional": tuple(
        layer for layer in spans.LAYERS
        if layer not in ("homlat.exceptional_gap", "homlat.enumerate_exceptional")
    ),
}


def make_ops(workload: str, triples=None):
    def make():
        run.load_wpp()
        chosen = triples or workloads.inputs(workload, 3)[: SMALL[workload]]
        return workloads.OPS[workload](chosen)

    return make


def traced_run(workload: str):
    recorder = spans.Recorder()
    return run.measure(make_ops(workload), 0, recorder).passes, recorder


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in workloads.OPS:
            with self.subTest(workload=workload):
                first = workloads.inputs(workload, 5)
                self.assertEqual(first, workloads.inputs(workload, 5))
                self.assertNotEqual(first, workloads.inputs(workload, 6))

    def test_inputs_keep_the_documented_shape(self):
        resolve = workloads.inputs("resolve", 5)
        self.assertEqual(len(resolve), len(workloads.RESOLVE_TARGETS))
        self.assertEqual(len(set(resolve)), len(resolve))
        self.assertTrue(all(80 <= workloads.rank(t) <= 300 for t in resolve))
        exceptional = workloads.inputs("exceptional", 5)
        self.assertTrue(all(6 <= workloads.rank(t) <= 10 for t in exceptional))
        self.assertEqual(len(workloads.inputs("scan", 5)), workloads.SCAN_OPS)


class Failures(unittest.TestCase):
    def test_bad_input_is_counted_and_the_run_goes_on(self):
        for workload in ("scan", "resolve"):
            with self.subTest(workload=workload):
                good = workloads.inputs(workload, 3)[:2]
                make = make_ops(workload, [good[0], NOT_COPRIME, good[1]])
                measured = run.measure(make, 0)
                passes = measured.passes
                metrics = run.end_to_end(measured)
                self.assertEqual([p.failed for p in passes], [1] * len(passes))
                self.assertAlmostEqual(metrics["ok_frac"]["value"], 2 / 3)
                self.assertEqual(len(passes[0].times), 3)


class Layers(unittest.TestCase):
    def test_layer_spans_fire_where_the_work_is_and_only_there(self):
        for workload in workloads.OPS:
            with self.subTest(workload=workload):
                passes, recorder = traced_run(workload)
                self.assertEqual(recorder.missing, [])
                calls = {name: c for name, (_s, c) in recorder.self_times().items()}
                for layer in BUSY[workload]:
                    self.assertGreater(calls.get(layer, 0), 0, layer)
                for layer in IDLE[workload]:
                    self.assertEqual(calls.get(layer, 0), 0, layer)

    def test_traced_and_untraced_outputs_are_identical(self):
        for workload in workloads.OPS:
            with self.subTest(workload=workload):
                passes, _ = traced_run(workload)
                self.assertEqual({p.traced for p in passes}, {False, True})
                self.assertEqual(len({p.digest for p in passes}), 1)
                self.assertEqual(sum(p.failed for p in passes), 0)

    def test_patching_is_undone(self):
        run.load_wpp()
        polygon = sys.modules["wpp.polygon"]
        original = polygon._verify_classes
        with spans.Recorder().patched():
            self.assertIs(polygon._verify_classes.__wrapped__, original)
        self.assertIs(polygon._verify_classes, original)


class Scaling(unittest.TestCase):
    def test_scale_follows_the_probe_points_around_an_execution(self):
        ref = hostspeed.REFERENCE_PROBE_S
        host = hostspeed.HostSpeed()
        host.at = [float(i) for i in range(10)]
        # the host halves its speed at t = 5
        host.took = [[ref] * 3] * 5 + [[2 * ref] * 3] * 5
        self.assertEqual(host.scale(-1.0), 1.0)
        self.assertEqual(host.scale(2.5, 2.6), 1.0)
        self.assertEqual(host.scale(7.5, 8.5), 0.5)
        self.assertEqual(host.scale(100.0), 0.5)
        # straddling the change: the median of three slow and three fast probes
        self.assertAlmostEqual(host.scale(4.5, 4.9), 2 / 3)

    def test_a_run_probes_the_host(self):
        measured = run.measure(make_ops("scan"), 0)
        self.assertGreater(len(measured.host.at), 1)
        start, took = measured.passes[0].starts[0], measured.passes[0].times[0]
        self.assertGreater(measured.host.scale(start, start + took), 0)

    def test_quantile_is_the_harrell_davis_estimate(self):
        values = [float(x) for x in range(1, 102)]
        self.assertAlmostEqual(run.quantile(values, 0.5), 51.0, places=6)
        self.assertAlmostEqual(run.quantile(values, 0.9), 91.0, delta=0.5)
        self.assertAlmostEqual(run.quantile([3.0] * 40, 0.9), 3.0)


class Output(unittest.TestCase):
    """One full run per mode of the cheapest workload, through the command."""

    def run_command(self, trace: int) -> dict:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "exceptional",
             "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True,
        )
        lines = out.stdout.strip().splitlines()
        facts = json.loads(lines[-2])["facts"]
        for key in ("nproc", "python", "platform", "seed", "ops", "rank_histogram"):
            self.assertIn(key, facts)
        return json.loads(lines[-1])

    def check_metrics(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_end_to_end_metrics_print_with_units(self):
        self.check_metrics(self.run_command(0), BENCHMARK["end_to_end"])

    def test_per_layer_metrics_print_with_units(self):
        self.check_metrics(self.run_command(1), BENCHMARK["per_layer"])


if __name__ == "__main__":
    unittest.main()
