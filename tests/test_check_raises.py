"""The scan's structural checks fire on a corrupted record.

On every admissible triple these checks pass, so a test reaches each raise
by corrupting one record: a connector or string square of a replaced
ResolutionPair for connector_selfints and check_two_minus2, and a failing
predicate or sum-bound record returned through wpp.scan's bindings for
check_triple, which records the violation with its exact text and still
runs every presentation.
"""

import re
from dataclasses import replace

import pytest

from wpp import scan
from wpp.errors import LemmaViolated
from wpp.resolution import build_resolution, check_two_minus2, connector_selfints


def _raises(message):
    return pytest.raises(LemmaViolated, match=f"^{re.escape(message)}$")


def _with_connector(rp, label, selfint):
    connectors = {**rp.connectors, label: replace(rp.connectors[label], selfint=selfint)}
    return replace(rp, connectors=connectors)


def _with_string(rp, role, selfints):
    strings = {**rp.strings, role: replace(rp.strings[role], selfints=selfints)}
    return replace(rp, strings=strings)


def test_connector_squares_are_checked():
    rp = build_resolution(2, 3, 5)
    assert connector_selfints(rp) == (-1, -1, 0)
    with _raises("connector squares (-2, -1) differ from (-1, -1)"):
        connector_selfints(_with_connector(rp, "N_a", -2))
    with _raises("connector squares (-1, 0) differ from (-1, -1)"):
        connector_selfints(_with_connector(rp, "N_b", 0))
    with _raises("third connector square -2 below -1"):
        connector_selfints(_with_connector(rp, "N_c", -2))


def test_two_minus2_strings_are_checked():
    """(2, 3, 7) has the (-2)-chains of weights 3 and 2, and its third string
    reads (-3, -2, -2) reversed, as 7 = 2 * 3 * 2 - 3 - 2 predicts."""
    rp = build_resolution(2, 3, 7)
    assert {r: sd.selfints for r, sd in rp.strings.items()} == {
        "a": (-2,), "b": (-2, -2), "c": (-2, -2, -3)}
    with _raises("(-2)-string test disagrees with the classification at (3,2,7)"):
        check_two_minus2(_with_string(rp, "b", (-3,)))
    with _raises("(-2)-string test disagrees with the classification at (7,3,2)"):
        check_two_minus2(_with_string(rp, "c", (-2, -2)))
    with _raises("third string (-5,) differs from prediction (-3, -2, -2)"):
        check_two_minus2(_with_string(rp, "c", (-5,)))


@pytest.fixture
def builds(monkeypatch):
    """The presentations check_triple builds, in order."""
    seen = []
    original = scan.build_resolution

    def counted(*args, **kwargs):
        rp = original(*args, **kwargs)
        seen.append(rp.presentation)
        return rp

    monkeypatch.setattr(scan, "build_resolution", counted)
    return seen


@pytest.mark.parametrize("field, text", [
    ("full", "full=False type=True gap=True toric=True"),
    ("sub_toric", "full=True type=True gap=True toric=False"),
], ids=["full", "toric"])
def test_failed_divisor_predicates_are_recorded(field, text, builds, monkeypatch):
    original = scan.check_divisor_predicates
    monkeypatch.setattr(scan, "check_divisor_predicates",
                        lambda rp: replace(original(rp), **{field: False}))
    result = scan.check_triple((2, 3, 5))
    error = f"LemmaViolated: divisor predicates failed: {text} kodaira=-inf"
    assert result["violations"] == [
        {"triple": [2, 3, 5], "presentation": pres, "error": error} for pres in range(1, 7)]
    assert builds == [1, 2, 3, 4, 5, 6]
    assert result["row"] == {"triple": [2, 3, 5]}


@pytest.mark.parametrize("field", ["identity_ok", "bound_ok"])
def test_failed_sum_bound_is_recorded(field, builds, monkeypatch):
    original = scan.check_sum_bound
    monkeypatch.setattr(scan, "check_sum_bound",
                        lambda rp: replace(original(rp), **{field: False}))
    result = scan.check_triple((2, 3, 5))
    error = "LemmaViolated: entry sum 13 under bound 12"
    assert result["violations"] == [
        {"triple": [2, 3, 5], "presentation": pres, "error": error} for pres in range(1, 7)]
    assert builds == [1, 2, 3, 4, 5, 6]
    # the sum-bound record is read only by the cor34 check
    assert scan.check_triple((2, 3, 5), ("def13", "lemma32", "prop51"))["violations"] == []
