"""Command line contract: exit codes, JSON/text output, scan determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import wpp.cli
import wpp.report
import wpp.scan
from wpp.cli import main
from wpp.render import render
from wpp.report import make_report, parse_report, serialize_report
from wpp.resolution import build_resolution


def run_main(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["resolve", "2", "4", "6"],          # not pairwise coprime
            ["resolve", "1", "2", "3"],          # weight below 2
            ["resolve", "2", "3", "5", "--presentation", "9"],
            ["resolve", "2", "3", "5", "--eps", "nonsense"],
            ["resolve", "2", "3", "5", "--eps", "2,1/2"],  # ratio out of range
            ["render", "1", "1", "5"],
            ["scan", "--max-c", "1"],
        ],
    )
    def test_user_errors_exit_2(self, capsys, argv):
        rc, _, err = run_main(capsys, argv)
        assert rc == 2
        assert "error" in err.lower()

    def test_bad_env_schedule_in_scan_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("WPP_EPS_SCHEDULE", "2,1/2")
        rc, out, err = run_main(capsys, ["scan", "--max-c", "7"])
        assert rc == 2
        assert out == ""
        assert "epsilon schedule" in err
        assert "violation" not in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_scan_jobs_below_one_exits_2(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(wpp.scan, "Pool", no_pool)
        rc, out, err = run_main(capsys, ["scan", "--max-c", "12", "--jobs", jobs])
        assert rc == 2
        assert out == ""
        assert "--jobs must be at least 1" in err

    def test_overlapping_schedule_exits_3(self, capsys):
        rc, _, err = run_main(
            capsys, ["resolve", "2", "3", "5", "--eps", "99/100,99/100"]
        )
        assert rc == 3
        assert "inconsistency" in err

    def test_argparse_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "2", "3", "5", "--json", "--text"])
        assert exc.value.code == 2

    def test_success_exit_0(self, capsys):
        rc, out, _ = run_main(capsys, ["resolve", "2", "3", "5"])
        assert rc == 0
        assert out.strip()


class TestResolveJson:
    def test_report_shape(self, capsys):
        rc, out, _ = run_main(capsys, ["resolve", "2", "3", "5", "--json"])
        assert rc == 0
        rep = json.loads(out)
        assert rep["schema_version"] == 1
        assert rep["triple"] == [2, 3, 5]
        assert rep["n"] == 6
        assert rep["k_squared"] == 3
        assert rep["terminal_model"] == {"kind": "hirz", "k": 2}
        assert rep["checks"]["predicates"]["kodaira"] == "-inf"
        assert rep["checks"]["sum_bound"]["holds"] is True
        assert rep["ruling"]["case"] == "EmbeddedFiber"
        assert rep["ruling_resolution"] is None
        assert rep["timing"]["seconds"] >= 0

    def test_round_trip(self, capsys):
        rc, out, _ = run_main(capsys, ["resolve", "11", "13", "14", "--json"])
        assert rc == 0
        rep = json.loads(out)
        assert parse_report(serialize_report(rep)) == rep
        assert rep["ruling"]["case"] == "Unicuspidal"
        rr = rep["ruling_resolution"]
        assert rr["multiplicities"] == [2, 1, 1]
        assert rr["final_rank"] == 16
        assert rr["last_meeting"] == 7

    def test_fractions_serialized_as_strings(self, capsys):
        _, out, _ = run_main(capsys, ["resolve", "2", "3", "5", "--json"])
        rep = json.loads(out)
        assert rep["connectors"]["N_a"]["area"] == "383/288"
        assert rep["connectors"]["N_c"]["area"] == "15/4"
        assert rep["checks"]["predicates"]["gaps"]["ab"] == "0"

    def test_input_order_kept(self, capsys):
        _, out, _ = run_main(capsys, ["resolve", "14", "11", "13", "--json"])
        rep = json.loads(out)
        assert rep["triple"] == [14, 11, 13]
        assert rep["weights"] == {"a": 11, "b": 13, "c": 14}


    @pytest.mark.parametrize("pres", [1, 4])
    def test_stdout_is_the_serialized_report_timing_aside(self, capsys, pres):
        argv = ["resolve", "11", "13", "14", "--presentation", str(pres)]
        rc, out, _ = run_main(capsys, argv)
        assert rc == 0
        rep = make_report(build_resolution(11, 13, 14, presentation=pres))
        rep["timing"] = json.loads(out)["timing"]
        assert out == serialize_report(rep) + "\n"

    def test_a_failure_while_writing_the_report_prints_nothing(self, capsys, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("synthetic")

        # the class vectors are written after the report's first keys
        monkeypatch.setattr(wpp.report, "_write_slots", broken)
        rc, out, err = run_main(capsys, ["resolve", "11", "13", "14"])
        assert rc == 3
        assert out == ""
        assert err.startswith("internal error: ZeroDivisionError: synthetic")


class TestResolveText:
    def test_summary_lines(self, capsys):
        rc, out, _ = run_main(capsys, ["resolve", "2", "3", "5", "--text"])
        assert rc == 0
        assert "CP(2,3,5)" in out
        assert "K^2 = 3" in out
        assert "13 >= 12" in out
        assert "EmbeddedFiber" in out

    def test_unicuspidal_line(self, capsys):
        _, out, _ = run_main(capsys, ["resolve", "11", "13", "14", "--text"])
        assert "Unicuspidal" in out
        assert "30 >= 30" in out


class TestScan:
    def test_small_scan(self, capsys):
        rc, out, _ = run_main(capsys, ["scan", "--max-c", "5"])
        assert rc == 0
        d = json.loads(out)
        assert d["schema_version"] == 1
        assert d["triple_count"] == 2
        assert d["violation_count"] == 0
        assert sorted(tuple(r["triple"]) for r in d["rows"]) == [
            (2, 3, 5), (3, 4, 5),
        ]
        assert d["case_table"] == {"EmbeddedFiber": 1, "Unicuspidal": 1}

    def test_deterministic_across_jobs(self, capsys):
        _, out1, _ = run_main(capsys, ["scan", "--max-c", "7", "--jobs", "1"])
        _, out2, _ = run_main(capsys, ["scan", "--max-c", "7", "--jobs", "4"])
        assert out1 == out2

    def test_check_subset(self, capsys):
        rc, out, _ = run_main(capsys, ["scan", "--max-c", "5", "--check", "lemma32"])
        assert rc == 0
        d = json.loads(out)
        assert d["checks"] == ["lemma32"]
        assert d["violation_count"] == 0

    def test_violations_exit_3_with_reproducer(self, capsys, monkeypatch):
        fake = {
            "schema_version": 1,
            "max_c": 5,
            "checks": ["all"],
            "triple_count": 2,
            "violation_count": 1,
            "violations": [
                {"triple": [2, 3, 5], "presentation": 4, "error": "synthetic"}
            ],
            "case_table": {},
            "rows": [],
        }
        monkeypatch.setattr(wpp.cli, "run_scan", lambda *a, **k: fake)
        rc, _, err = run_main(capsys, ["scan", "--max-c", "5"])
        assert rc == 3
        assert "wpp resolve 2 3 5 --presentation 4" in err


class TestEnvSchedule:
    def test_reaches_scan_and_render(self, capsys, monkeypatch):
        monkeypatch.delenv("WPP_EPS_SCHEDULE", raising=False)
        default_svg = run_main(capsys, ["render", "2", "3", "5"])[1]
        monkeypatch.setenv("WPP_EPS_SCHEDULE", "1/3,1/5")
        rc, svg, _ = run_main(capsys, ["render", "2", "3", "5"])
        sched = (Fraction(1, 3), Fraction(1, 5))
        assert rc == 0
        assert svg == render(build_resolution(2, 3, 5, schedule=sched), "polygon", "svg")
        assert svg != default_svg
        # chop depths that overlap: every presentation of every triple fails
        monkeypatch.setenv("WPP_EPS_SCHEDULE", "99/100,99/100")
        rc, out, _ = run_main(capsys, ["scan", "--max-c", "5", "--jobs", "1"])
        assert rc == 3
        violations = json.loads(out)["violations"]
        assert len(violations) == 12
        assert all(v["error"].startswith("ChopsOverlap") for v in violations)

    def test_scan_reproducer_carries_the_schedule(self, capsys, monkeypatch):
        monkeypatch.setenv("WPP_EPS_SCHEDULE", "99/100,99/100")
        rc, _, err = run_main(capsys, ["scan", "--max-c", "5", "--jobs", "1"])
        assert rc == 3
        line = err.split("reproduce the first with: ", 1)[1].strip()
        assert line.startswith("wpp resolve ")
        assert "--eps 99/100,99/100" in line
        # the line alone rebuilds the failing resolution in a clean shell
        monkeypatch.delenv("WPP_EPS_SCHEDULE")
        rc, _, err = run_main(capsys, line.split()[1:])
        assert rc == 3
        assert "chop depths too large" in err


class TestInternalErrors:
    def test_scan_records_unexpected_exception(self, monkeypatch):
        from wpp import scan

        base = scan.run_scan(7, jobs=1)
        real = scan.build_resolution

        def flaky(a, b, c, presentation=1, **kwargs):
            if (a, b, c, presentation) == (2, 5, 7, 3):
                raise ZeroDivisionError("synthetic")
            return real(a, b, c, presentation=presentation, **kwargs)

        monkeypatch.setattr(scan, "build_resolution", flaky)
        result = scan.run_scan(7, jobs=1)
        assert result["violations"] == [
            {
                "triple": [2, 5, 7],
                "presentation": 3,
                "error": "internal: ZeroDivisionError: synthetic",
            }
        ]
        assert result["violation_count"] == 1
        assert result["rows"] == base["rows"]
        assert result["case_table"] == base["case_table"]

    def test_cli_maps_unexpected_exception_to_exit_3(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("synthetic")

        monkeypatch.setattr(wpp.cli, "build_resolution", broken)
        rc, out, err = run_main(capsys, ["resolve", "2", "3", "5"])
        assert rc == 3
        assert out == ""
        assert err.startswith("internal error: ZeroDivisionError: synthetic")
        assert "Traceback" in err


class TestRender:
    def test_svg_polygon(self, capsys):
        rc, out, _ = run_main(capsys, ["render", "2", "3", "5"])
        assert rc == 0
        assert out.startswith("<?xml")
        assert "<svg" in out and "</svg>" in out
        assert 'data-triple="2,3,5"' in out

    def test_tikz_polygon(self, capsys):
        rc, out, _ = run_main(
            capsys, ["render", "2", "3", "5", "--format", "tikz"]
        )
        assert rc == 0
        assert out.startswith("\\documentclass")
        assert "\\draw" in out

    def test_strings_and_ruling_views(self, capsys):
        for what in ("strings", "ruling"):
            rc, out, _ = run_main(
                capsys, ["render", "11", "13", "14", "--what", what]
            )
            assert rc == 0
            assert "<svg" in out

    def test_presentation_flag(self, capsys):
        rc, out, _ = run_main(
            capsys, ["render", "2", "3", "5", "--presentation", "4"]
        )
        assert rc == 0
        assert 'data-presentation="4"' in out


def _child_env(**overrides):
    """The caller's environment with the imported wpp first on PYTHONPATH.

    The child then runs the same wpp as this process, whatever the working
    directory. A key set to None is removed.
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(wpp.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


class TestEntryPoint:
    def test_module_invocation(self):
        r = subprocess.run(
            [sys.executable, "-m", "wpp", "resolve", "2", "3", "5", "--json"],
            capture_output=True,
            text=True,
            env=_child_env(WPP_EPS_SCHEDULE=None),
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["n"] == 6

    def test_env_schedule_respected(self):
        r = subprocess.run(
            [sys.executable, "-m", "wpp", "resolve", "2", "3", "5"],
            capture_output=True,
            text=True,
            env=_child_env(WPP_EPS_SCHEDULE="2,1/2"),
        )
        assert r.returncode == 2
        assert "epsilon schedule" in r.stderr
