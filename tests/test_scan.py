"""Scan entry points: check names are validated before any check runs."""

import pytest

from wpp import scan
from wpp.errors import UserInputError


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


def test_known_names_accepted():
    for name in scan.CHECK_CHOICES:
        result = scan.check_triple((2, 3, 5), (name,))
        assert result["violations"] == []
        assert result["row"]["triple"] == [2, 3, 5]
