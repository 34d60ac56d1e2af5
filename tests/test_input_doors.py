"""Public entry points reject bad input with UserInputError and a message.

Each test names the exception class and the whole message: exact-int
arguments at build_resolution, presentation, check_triple, run_scan,
coprime_triples, weight_triple, hj_expand, hj_dual and weight_sequence (a
bool is not an integer here, and a str is not a sequence of check names),
and the other input checks of the continued-fraction helpers and render.
Per-corner chop depths are checked where they enter, in build_resolution
(a dict of corner labels) and chop_corner (a list or tuple of finite real
numbers, none a bool or a str); a wrong count or a nonpositive depth stays
a ChopsOverlap of the chop.
"""

import importlib
import re
from fractions import Fraction

import pytest

from wpp.arith import hj_dual, hj_expand, weight_sequence, weight_triple
from wpp.errors import ChopsOverlap, DegenerateWeight, InvalidFraction, NotCoprime, UserInputError
from wpp.render import render
from wpp.resolution import build_resolution
from wpp.scan import check_triple, coprime_triples, run_scan

polygon_mod = importlib.import_module("wpp.polygon")
resolution_mod = importlib.import_module("wpp.resolution")


def _raises(exc, message):
    return pytest.raises(exc, match=f"^{re.escape(message)}$")


# --- exact ints at the doors -----------------------------------------------------------


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
def test_build_resolution_takes_an_int_presentation(bad):
    with _raises(UserInputError, f"presentation must be 1..6, got {bad!r}"):
        build_resolution(2, 3, 5, presentation=bad)


@pytest.mark.parametrize("bad", [0, 7, True, 2.0])
def test_presentation_takes_an_int_index(bad):
    w = weight_triple(2, 3, 5)
    with _raises(UserInputError, f"presentation must be 1..6, got {bad!r}"):
        polygon_mod.presentation(w, bad)


def test_an_int_presentation_still_builds():
    assert build_resolution(2, 3, 5, presentation=6).presentation == 6


def test_check_triple_rejects_a_string_of_checks():
    with _raises(UserInputError, "checks is a sequence of check names, got the string 'all'"):
        check_triple((2, 3, 5), checks="all")


def test_run_scan_rejects_a_string_of_checks():
    with _raises(UserInputError, "checks is a sequence of check names, got the string 'def13'"):
        run_scan(8, jobs=1, checks="def13")


@pytest.mark.parametrize("triple", [(2, 3, True), (True, 3, 5), (2, False, 5)])
def test_weight_triple_rejects_a_bool_weight(triple):
    bad = next(w for w in triple if isinstance(w, bool))
    with _raises(DegenerateWeight, f"weights must be positive integers, got {bad!r}"):
        weight_triple(*triple)


def test_a_unit_weight_is_still_named_as_such():
    with _raises(DegenerateWeight, "(1, 3, 5) contains a unit weight"):
        weight_triple(1, 3, 5)


# --- per-corner chop depths --------------------------------------------------------


@pytest.mark.parametrize("bad", ["AB", ["A"]], ids=["str", "list"])
def test_build_resolution_takes_a_dict_of_epsilons(bad):
    with _raises(UserInputError,
                 f"epsilons map corner labels A, B, C to lists of depths, got {bad!r}"):
        build_resolution(2, 3, 5, epsilons=bad)


@pytest.mark.parametrize("bad", ["1/3", 5], ids=["str", "int"])
def test_a_corner_takes_a_list_of_depths(bad):
    with _raises(UserInputError, f"chop depths are a list of numbers, got {bad!r}"):
        build_resolution(2, 3, 5, epsilons={"A": bad})


@pytest.mark.parametrize(
    "bad", [True, "1/3", float("nan"), float("inf"), 1j],
    ids=["bool", "str", "nan", "inf", "complex"],
)
def test_a_chop_depth_is_a_finite_real_number(bad):
    with _raises(UserInputError, f"a chop depth is a finite real number, got {bad!r}"):
        build_resolution(2, 3, 5, epsilons={"A": [bad]})


@pytest.mark.parametrize("bad, message", [
    ("1/3", "chop depths are a list of numbers, got '1/3'"),
    ((True,), "a chop depth is a finite real number, got True"),
    ([Fraction(1, 9), float("-inf")], "a chop depth is a finite real number, got -inf"),
], ids=["str", "bool", "inf"])
def test_chop_corner_checks_its_own_depths(bad, message):
    p = polygon_mod.presentation(weight_triple(2, 3, 5), 1).polygon
    with _raises(UserInputError, message):
        polygon_mod.chop_corner(p, 0, "prev", epsilons=bad)


def test_a_later_corner_is_checked_before_any_chop(monkeypatch):
    calls = []
    monkeypatch.setattr(resolution_mod, "chop_corner", lambda *a, **k: calls.append(a))
    with _raises(UserInputError, "a chop depth is a finite real number, got '1'"):
        build_resolution(2, 3, 5, epsilons={"A": [Fraction(1, 9)], "C": ["1"]})
    assert calls == []


@pytest.mark.parametrize("eps", [[], [Fraction(1, 9)] * 9, [Fraction(0)], [-1.5]],
                         ids=["empty", "long", "zero", "negative"])
def test_a_wrong_count_or_sign_stays_a_chop_overlap(eps):
    pres = polygon_mod.presentation(weight_triple(2, 3, 5), 1)
    k = len(hj_expand(*polygon_mod.corner_type(pres.polygon, 0, "prev")))
    with _raises(ChopsOverlap, f"need {k} positive chop depths, got {eps}"):
        polygon_mod.chop_corner(pres.polygon, 0, "prev", epsilons=eps)
    label = next(lab for lab, v in pres.corner_vertex.items() if v == 0)
    with pytest.raises(ChopsOverlap, match=r"^need \d+ positive chop depths, got "):
        build_resolution(2, 3, 5, epsilons={label: eps})


def test_floats_tuples_and_fractions_still_build_alike():
    w = weight_triple(5, 7, 9)
    ks = {lab: len(hj_expand(*wr))
          for lab, wr in (("A", (w.a, w.a_b)), ("B", (w.b, w.b_c)), ("C", (w.c, w.c_a)))}
    exact = {lab: [Fraction(1, 64)] * k for lab, k in ks.items()}
    mixed = {"A": (0.015625,) * ks["A"], "B": [0.015625] * ks["B"],
             "C": [Fraction(1, 64)] * (ks["C"] - 1) + [0.015625]}
    assert (build_resolution(5, 7, 9, epsilons=mixed).polygon
            == build_resolution(5, 7, 9, epsilons=exact).polygon)


# --- the input checks of the continued-fraction helpers and render -------------------


@pytest.mark.parametrize("fn", [hj_expand, hj_expand.__wrapped__, hj_dual])
@pytest.mark.parametrize("p, q", [(5, 5), (5, 0), (2.0, 1), (5, 2.0)])
def test_continued_fraction_helpers_need_p_above_q_at_least_one(fn, p, q):
    with _raises(InvalidFraction, f"need integers p > q >= 1, got {p}/{q}"):
        fn(p, q)


@pytest.mark.parametrize("fn", [hj_expand, hj_expand.__wrapped__, hj_dual])
def test_continued_fraction_helpers_need_lowest_terms(fn):
    with _raises(InvalidFraction, "6/4 is not in lowest terms"):
        fn(6, 4)


@pytest.mark.parametrize("fn", [weight_sequence, weight_sequence.__wrapped__])
@pytest.mark.parametrize("p, q", [(0, 2), (-3, 2), (3.0, 2), (3, 0)])
def test_weight_sequence_needs_positive_ints(fn, p, q):
    with _raises(NotCoprime, f"need nonnegative coprime (p, q), got ({p}, {q})"):
        fn(p, q)


@pytest.mark.parametrize("fn", [weight_sequence, weight_sequence.__wrapped__])
def test_weight_sequence_needs_coprime_ints(fn):
    with _raises(NotCoprime, "(6, 4) is not coprime"):
        fn(6, 4)


# a bool is not an entry: the typed caches keep (2, True) apart from a cached
# (2, 1), so each call below is checked even after the int call is cached


def test_hj_expand_rejects_a_bool():
    assert hj_expand(2, 1) == (2,)
    with _raises(InvalidFraction, "need integers p > q >= 1, got 2/True"):
        hj_expand(2, True)


def test_hj_dual_rejects_a_bool():
    assert hj_dual(3, 1) == 1
    with _raises(InvalidFraction, "need integers p > q >= 1, got 3/True"):
        hj_dual(3, True)


@pytest.mark.parametrize("p, q", [(3, True), (False, True), (True, False), (0.0, 1)])
def test_weight_sequence_rejects_a_bool_or_a_float(p, q):
    assert weight_sequence(3, 1) == (1, 1, 1) and weight_sequence(0, 1) == ()
    with _raises(NotCoprime, f"need nonnegative coprime (p, q), got ({p}, {q})"):
        weight_sequence(p, q)


@pytest.mark.parametrize("bad", [True, 8.5, "8", None])
def test_coprime_triples_takes_an_int_max_c(bad):
    with _raises(UserInputError, f"--max-c must be an integer, got {bad!r}"):
        coprime_triples(bad)
    with _raises(UserInputError, f"--max-c must be an integer, got {bad!r}"):
        run_scan(bad, jobs=1)


@pytest.mark.parametrize("bad", [True, False, 2.0, "2"])
def test_run_scan_takes_an_int_jobs(bad):
    with _raises(UserInputError, f"--jobs must be an integer, got {bad!r}"):
        run_scan(6, jobs=bad)


def test_render_names_an_unknown_kind():
    rp = build_resolution(2, 3, 5)
    with _raises(UserInputError, "unknown picture kind 'triangle'"):
        render(rp, "triangle", "svg")


def test_render_names_an_unknown_format():
    rp = build_resolution(2, 3, 5)
    with _raises(UserInputError, "unknown format 'png'"):
        render(rp, "polygon", "png")
