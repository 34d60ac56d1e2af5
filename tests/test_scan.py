"""Scan entry points: the weight triple, check names, the chop schedule and
the job count are validated before any check runs."""

from fractions import Fraction

import pytest

from wpp import scan
from wpp.errors import DegenerateWeight, NotPairwiseCoprime, UserInputError


@pytest.fixture
def no_builds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_resolution ran")

    monkeypatch.setattr(scan, "build_resolution", refuse)


@pytest.mark.parametrize("checks", [("bogus",), ("all", "bogus"), ("def13", "Lemma32")])
def test_check_triple_rejects_unknown_names(checks, no_builds):
    with pytest.raises(UserInputError, match="unknown check"):
        scan.check_triple((2, 3, 5), checks)


def test_run_scan_rejects_unknown_names(no_builds):
    with pytest.raises(UserInputError, match="unknown check 'bogus'"):
        scan.run_scan(7, jobs=1, checks=("bogus",))


@pytest.mark.parametrize("sched", [(Fraction(2), Fraction(1, 2)), (Fraction(1, 4), Fraction(0))])
def test_bad_schedule_rejected_before_any_build(sched, no_builds):
    with pytest.raises(UserInputError, match="epsilon schedule"):
        scan.check_triple((2, 3, 5), schedule=sched)
    with pytest.raises(UserInputError, match="epsilon schedule"):
        scan.run_scan(7, jobs=1, schedule=sched)


@pytest.mark.parametrize("triple, error", [
    ((2, 4, 5), NotPairwiseCoprime),
    ((1, 3, 5), DegenerateWeight),
    ((0, 3, 5), DegenerateWeight),
    ((2, 3), UserInputError),
    ((2, 3, 5, 7), UserInputError),
])
def test_check_triple_rejects_bad_triples(triple, error, no_builds):
    with pytest.raises(error):
        scan.check_triple(triple)


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_scan_rejects_jobs_below_one(jobs, no_builds, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(scan, "Pool", no_pool)
    with pytest.raises(UserInputError, match="--jobs must be at least 1"):
        scan.run_scan(12, jobs=jobs)


def test_known_names_accepted():
    for name in scan.CHECK_CHOICES:
        result = scan.check_triple((2, 3, 5), (name,))
        assert result["violations"] == []
        assert result["row"]["triple"] == [2, 3, 5]
