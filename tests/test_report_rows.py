"""Report class vectors written from their nonzero slots.

make_report puts each class vector into the report as a _Row, a list that
also keeps the sorted slots of its sparse class; dumps_indented writes such a
row from those slots. Whatever is done to a report, its text must stay
json.dumps(report, sort_keys=True, indent=2) and parse back to the report:
here for rows of every rank up to 300, after each list method that changes a
row, and after a deepcopy or a pickle of the report. A spy shows that the
rows of a report never reach the scanning writer _write_ints.
"""

import copy
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wpp.report as report
from wpp.errors import RankMismatch
from wpp.report import _class_row, _Row, dumps_indented, make_report, parse_report
from wpp.resolution import build_resolution


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def assert_written_like_json(rep):
    text = dumps_indented(rep)
    assert text == oracle(rep)
    assert parse_report(text) == rep


def class_vectors(rep) -> list:
    """Every class vector of a report: string classes, connector classes and
    the ruling fiber, and the resolved fiber when the ruling is unicuspidal."""
    rows = [row for sd in rep["strings"].values() for row in sd["classes"]]
    rows += [cd["class"] for cd in rep["connectors"].values()]
    rows.append(rep["ruling"]["fiber"])
    if rep["ruling_resolution"] is not None:
        rows.append(rep["ruling_resolution"]["fiber"])
    return rows


@pytest.fixture(scope="module")
def resolution():
    """(11, 13, 14), n = 12: its ruling is unicuspidal, so the report holds
    both fibers."""
    return build_resolution(11, 13, 14)


def test_every_class_vector_is_a_row_that_knows_its_slots(resolution):
    rep = make_report(resolution)
    rows = class_vectors(rep)
    assert len(rows) == resolution.n + 3 + 2  # n string spheres, 3 connectors, 2 fibers
    for row in rows:
        assert type(row) is _Row
        assert row.slots == [i for i, v in enumerate(row) if v]


def test_report_rows_never_reach_the_scanning_writer(resolution, monkeypatch):
    rep = make_report(resolution)
    seen = []
    write_ints = report._write_ints
    monkeypatch.setattr(report, "_write_ints", lambda obj, *a: seen.append(obj) or write_ints(obj, *a))
    assert_written_like_json(rep)
    assert seen  # the plain int lists of the report still go there
    assert not any(type(obj) is _Row for obj in seen)


# --- rows of any rank -----------------------------------------------------------------

coefficients = st.integers(-10**6, 10**6).filter(bool) | st.sampled_from([2**70, -2**70, -1, 1])


@st.composite
def sparse_classes(draw):
    """(x, rank): a sparse class of up to 12 nonzeros in rank 1..300, with
    slot 0 and the last slot each drawn in or out."""
    rank = draw(st.integers(1, 300))
    slots = set(draw(st.lists(st.integers(0, rank - 1), max_size=12)))
    if draw(st.booleans()):
        slots.add(0)
    if draw(st.booleans()):
        slots.add(rank - 1)
    return {i: draw(coefficients) for i in draw(st.permutations(sorted(slots)))}, rank


@settings(max_examples=300, deadline=None)
@given(sparse_classes())
@example(({}, 1))
@example(({}, 300))
@example(({0: 5}, 1))
@example(({0: -1}, 300))
@example(({299: 2**70}, 300))
@example(({0: 1, 299: -1}, 300))
def test_rows_are_written_like_json(case):
    x, rank = case
    row = _class_row(x, rank)
    assert type(row) is _Row and row == [x.get(i, 0) for i in range(rank)]
    assert_written_like_json({"class": row, "classes": [row, list(row)], "rank": rank})


def test_a_row_needs_its_slots_in_rank():
    with pytest.raises(RankMismatch):
        _class_row({3: 1}, 3)
    with pytest.raises(RankMismatch):
        _class_row({-1: 1}, 3)


@pytest.mark.parametrize("coeff", [True, False, 1.0, 0.0])
def test_a_class_with_a_coefficient_that_is_no_exact_int_stays_a_plain_list(coeff):
    row = _class_row({0: 2, 2: coeff}, 4)
    assert type(row) is list
    assert_written_like_json({"class": row})


# --- a changed row is written from its items -------------------------------------------

# each changes the row in place; the class of N_a in the report of (11, 13, 14)
# has only its last slot nonzero, so the scalars go into a zero and a nonzero slot
MUTATIONS = {
    "setitem 1 at 0": lambda r: r.__setitem__(0, 1),
    "setitem 0 at -1": lambda r: r.__setitem__(-1, 0),
    "setitem False at 0": lambda r: r.__setitem__(0, False),
    "setitem False at -1": lambda r: r.__setitem__(-1, False),
    "setitem 0.0 at 0": lambda r: r.__setitem__(0, 0.0),
    "setitem 0.0 at -1": lambda r: r.__setitem__(-1, 0.0),
    "setitem slice": lambda r: r.__setitem__(slice(0, 2), [7]),
    "delitem": lambda r: r.__delitem__(-1),
    "iadd": lambda r: r.__iadd__([3]),
    "imul": lambda r: r.__imul__(2),
    "append": lambda r: r.append(5),
    "extend": lambda r: r.extend([0, 4]),
    "insert": lambda r: r.insert(0, 9),
    "pop": lambda r: r.pop(),
    "pop 0": lambda r: r.pop(0),
    "remove": lambda r: r.remove(0),
    "clear": lambda r: r.clear(),
    "sort": lambda r: r.sort(),
    "reverse": lambda r: r.reverse(),
    "init": lambda r: r.__init__([0, 1, 0]),
    "init from a failing iterator": lambda r: r.__init__(1 // (2 - i) for i in range(3)),
    "extend from a failing iterator": lambda r: r.extend(1 // (2 - i) for i in range(3)),
}


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_a_changed_row_is_written_like_json(resolution, mutate):
    rep = make_report(resolution)
    row = rep["connectors"]["N_a"]["class"]
    assert row.slots == [len(row) - 1]
    try:
        mutate(row)
    except ZeroDivisionError:
        pass  # the items before the failure are in the row
    assert row.slots is None
    assert_written_like_json(rep)
    assert dumps_indented(row) == oracle(row)


def test_in_place_operators_on_a_row_keep_it_a_row(resolution):
    rep = make_report(resolution)
    row = rep["connectors"]["N_a"]["class"]
    row += [1]
    row *= 2
    assert rep["connectors"]["N_a"]["class"] is row and row.slots is None
    assert_written_like_json(rep)


# --- copies -------------------------------------------------------------------------------


@pytest.mark.parametrize("clone", [copy.deepcopy, copy.copy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["deepcopy", "copy", "pickle"])
def test_a_cloned_report_is_written_like_the_report(resolution, clone):
    rep = make_report(resolution)
    twin = clone(rep)
    assert twin == rep
    assert dumps_indented(twin) == dumps_indented(rep)
    assert_written_like_json(twin)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["deepcopy", "pickle"])
def test_a_cloned_report_holds_plain_lists_apart_from_the_report(resolution, clone):
    rep = make_report(resolution)
    twin = clone(rep)
    for row in class_vectors(twin):
        assert type(row) is list
    before = list(class_vectors(rep)[0])
    class_vectors(twin)[0][0] += 5
    assert class_vectors(rep)[0] == before and class_vectors(rep)[0].slots is not None
    assert_written_like_json(twin)
    assert_written_like_json(rep)
