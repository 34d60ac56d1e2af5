"""The report writer against the json module it replaces.

dumps_indented must give exactly json.dumps(x, sort_keys=True, indent=2) for
every report, every scan and any JSON tree, and a report's text must parse
back to the report; ratio_str must give exactly
str(Fraction(num, den)).
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden_outputs import REPORT_DIGESTS, SCHEDULES
from wpp.report import dumps_indented, make_report, parse_report, ratio_str, serialize_report
from wpp.resolution import build_resolution
from wpp.scan import run_scan, serialize_scan

HIGH_RANK = ((163, 283, 369), (2, 149, 151), (247, 250, 253))


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("triple", sorted(REPORT_DIGESTS))
def test_golden_reports(triple):
    for idx in range(1, 7):
        for sched in SCHEDULES:
            rep = make_report(build_resolution(*triple, presentation=idx, schedule=sched))
            text = serialize_report(rep)
            assert text == oracle(rep)
            assert parse_report(text) == rep


@pytest.mark.parametrize("triple", HIGH_RANK)
def test_high_rank_reports(triple):
    rp = build_resolution(*triple)
    assert rp.n >= 150
    rep = make_report(rp)
    text = serialize_report(rep)
    assert text == oracle(rep)
    assert parse_report(text) == rep


def test_scan():
    result = run_scan(12, jobs=1)
    assert serialize_scan(result) == oracle(result)


EDGE_CASES = [
    [],
    {},
    [[]],
    [{}],
    [1, []],
    [1, {}],
    [1, [2, 3]],
    [[1, 2], 3],
    {"a": [], "b": {}, "c": [[]]},
    (1, 2, 3),
    [(1, 2), (3, (4,))],
    {"t": ()},
    [1, True, False, None, 2],
    [None],
    [True, [False]],
    [0.5, float("inf"), float("-inf"), float("nan"), 1e-05, 1e300, -0.0],
    {"f": 1e-05, "g": [2.5, 3]},
    ["a, b", "c"],
    [1, "x, y", 2],
    [1, ", "],
    ['say "hi"', "back\\slash", "new\nline", "tab\t", "café", "☃", "\U0001f600"],
    {'k "q"': 1, "k\\b": 2, "k\nl": 3, "é": 4},
    "plain",
    'quote " and , space',
    7,
    -3,
    2**80,
    1.5,
    True,
    None,
    [[1, [2, [3, []]]]],
    {"z": 1, "a": {"y": [1, 2], "b": [{"c": None}]}},
    # lists of strings only, written in one join
    ["a, b", ", ", ",", " ,"],
    ['"', 'say "hi", twice', '\\"', "\\"],
    ["café", "☃", "\U0001f600", "\x7f\x00\x1f"],
    [""],
    ["", "", "x"],
    ["1/2", "-3", "5"],
    [["a, b", "c"], {"k": ["", '"']}],
    ("tuple", "of, strings"),
    # ints mixed with bools and the other scalars
    [1, True, 0, False],
    [True, 1, False, 0],
    [False],
    [0, -1, 2**70, True, None, 1.0],
    {"n": 0, "b": True, "m": -2**65, "l": [True, 0, "s"]},
    # long, mostly-zero int lists, as the class vectors of a report
    [0] * 300,
    (0,) * 141 + (2**70,),
    [-1] + [0] * 200 + [-2**70],
    [0, 0, 5, 0, 0],
    [0, 0, False, 0],
    {"a": [[0, 0, 3], (0, -0.0, 0)], "b": {"c": [0, None, 0]}},
]


@pytest.mark.parametrize("obj", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_edge_cases(obj):
    assert dumps_indented(obj) == oracle(obj)


# keys json converts: sorted as given, then written as their scalar text
NON_STR_KEYS = [
    {1: "a", 10: "b", 2: "c"},
    {-1.5: 0, 2.25: [1, 2]},
    {float("inf"): 1, float("-inf"): 2},
    {True: 1, False: 0},
    {None: [1]},
    {"outer": {3: {4: []}, 1: None}},
    [{2**70: 1, 0: 2}],
]


@pytest.mark.parametrize("obj", NON_STR_KEYS, ids=range(len(NON_STR_KEYS)))
def test_non_str_keys_match_json(obj):
    assert dumps_indented(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [{1: 0, "a": 1}, {None: 0, 1: 1}, {(1, 2): 0}, [1, object()]])
def test_unencodable_raises_like_json(obj):
    with pytest.raises(TypeError):
        oracle(obj)
    with pytest.raises(TypeError):
        dumps_indented(obj)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
trees = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_random_trees(obj):
    assert dumps_indented(obj) == oracle(obj)


def test_ratio_str():
    cases = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 4), (-6, 4), (-6, 3), (7, 7), (1, 2**64)]
    rng = random.Random(10)
    cases += [(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(2000)]
    for num, den in cases:
        assert ratio_str(num, den) == str(Fraction(num, den)), (num, den)


class _Str(str):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize("obj", [
    [_Str("a"), "b"],
    ["a", _Str('x, "y"')],
    _Str("solo"),
    [_Int(3), 4],
    {"k": _Int(-7)},
    [True, _Int(1)],
    [1, 0, _Int(0), 0],
])
def test_subclasses_take_the_encoder_like_json(obj):
    assert dumps_indented(obj) == oracle(obj)


# --- long, mostly-zero int lists: the class vectors of a report ---------------------

# what must not be written as an int: bools, floats, None and an int subclass
NOT_INTS = (False, True, 0.0, -0.0, None, _Int(0))
nonzeros = st.integers(-10**6, 10**6).filter(bool) | st.sampled_from([2**70, -2**70, -1, 1])


@st.composite
def sparse_int_lists(draw):
    n = draw(st.integers(0, 300))
    xs = [0] * n
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=12)) if n else ():
        xs[i] = draw(nonzeros)
    for junk in draw(st.lists(st.sampled_from(NOT_INTS), max_size=2)):
        xs.insert(draw(st.integers(0, len(xs))), junk)
    return tuple(xs) if draw(st.booleans()) else xs


nested_int_lists = st.recursive(
    sparse_int_lists(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def assert_like_json(obj):
    """Equal text, or the same exception type from both."""
    try:
        expected = oracle(obj)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(type(exc)):
            dumps_indented(obj)
        return
    assert dumps_indented(obj) == expected


@settings(max_examples=300, deadline=None)
@given(nested_int_lists)
def test_sparse_int_lists(obj):
    assert_like_json(obj)


def test_int_past_the_digit_limit_raises_like_json():
    obj = [0, 10**5000]
    with pytest.raises(ValueError):
        oracle(obj)
    with pytest.raises(ValueError):
        dumps_indented(obj)


# --- the one-type test of a list: the first item's exact type, counted --------------


class _Falsy(int):
    """A nonzero int subclass that is falsy: a list holding one must not reach
    the int writer, which skips the falsy items as zeros."""

    def __bool__(self):
        return False


@pytest.mark.parametrize("obj", [
    [1, True],
    [0, 0, False],
    [3, 0, 2.0],
    [0, -0.0],
    [7, _Falsy(5)],
    [0, _Int(2), 0],
    ("a", _Str("b")),
    ["a", 1],
    [1, "a"],
])
def test_first_exact_item_with_a_later_other_type_takes_the_general_writer(obj, monkeypatch):
    import wpp.report as report

    calls = []
    monkeypatch.setattr(report, "_write_ints", lambda *a: calls.append(a))
    assert dumps_indented(obj) == oracle(obj)
    assert calls == []


@pytest.mark.parametrize("obj", [[5], [0, 1, 2**70], (0,) * 5])
def test_exact_int_lists_take_the_int_writer(obj, monkeypatch):
    import wpp.report as report

    calls = []
    write_ints = report._write_ints
    monkeypatch.setattr(report, "_write_ints", lambda *a: calls.append(a) or write_ints(*a))
    assert dumps_indented(obj) == oracle(obj)
    assert len(calls) == 1
