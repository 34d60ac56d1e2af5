"""Exact rationals past the interpreter's limit on int-to-text conversion.

Python refuses to write an int of more than 4,300 digits as text (the limit
that sys.set_int_max_str_digits sets). A chop schedule whose ratio is
1/10^1500 gives (2, 3, 5) a common denominator of more than 6,000 digits;
`wpp resolve` and `wpp render` (SVG and TikZ) must still write every vertex
as str(Fraction(x, den)) would without the limit. The expected strings are
computed here with the limit lifted, and the limit is restored after.
"""

import re
import sys
from fractions import Fraction

import pytest

from wpp.cli import main
from wpp.report import parse_report, ratio_str, serialize_report
from wpp.resolution import build_resolution, parse_schedule

EPS = "1/4,1/1" + "0" * 1500
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _expected_vertices() -> list[tuple[str, str]]:
    p = build_resolution(2, 3, 5, schedule=parse_schedule(EPS)).polygon
    sys.set_int_max_str_digits(0)
    try:
        return [(str(Fraction(x, p.den)), str(Fraction(y, p.den))) for x, y in p.ipts]
    finally:
        sys.set_int_max_str_digits(LIMIT)


@pytest.fixture(scope="module")
def expected():
    if not LIMIT:
        pytest.skip("this interpreter has no int-to-text digit limit")
    vertices = _expected_vertices()
    assert max(len(t) for v in vertices for t in v) > LIMIT
    return vertices


def _run(capsys, argv) -> str:
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


def test_resolve_writes_vertices_past_the_limit(expected, capsys):
    text = _run(capsys, ["resolve", "2", "3", "5", "--eps", EPS])
    report = parse_report(text)
    assert [tuple(v) for v in report["polygon"]["vertices"]] == expected
    assert serialize_report(report) + "\n" == text


@pytest.mark.parametrize("fmt", ("svg", "tikz"))
def test_render_writes_vertices_past_the_limit(expected, fmt, capsys, monkeypatch):
    monkeypatch.setenv("WPP_EPS_SCHEDULE", EPS)
    text = _run(capsys, ["render", "2", "3", "5", "--format", fmt])
    if fmt == "svg":
        field = re.search(r' data-vertices="([^"]*)"', text).group(1)
        got = [tuple(v.split(",")) for v in field.split(";")]
    else:
        field = re.search(r"^% exact vertices: (.*)$", text, re.M).group(1)
        got = [tuple(v.strip("()").split(",")) for v in field.split("; ")]
    assert got == expected


def test_ratio_str_past_the_limit():
    if not LIMIT:
        pytest.skip("this interpreter has no int-to-text digit limit")
    cases = [(10**5000, 1), (-(10**5000) - 7, 3), (7**9000, 2**3000 * 3), (1, 10**9001 + 2)]
    sys.set_int_max_str_digits(0)
    try:
        want = [str(Fraction(num, den)) for num, den in cases]
    finally:
        sys.set_int_max_str_digits(LIMIT)
    assert [ratio_str(num, den) for num, den in cases] == want
