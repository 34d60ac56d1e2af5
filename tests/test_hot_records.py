"""The records made per sphere, chop and ruling step, and the memoized
string arithmetic.

The hot records take their __init__ from wpp.records.hot_record. Each is
compared with a plain frozen dataclass of the same name and fields:
construction by position and by keyword, ==, repr, vars, hash and
dataclasses.replace behave the same, a missing or an extra argument raises
the same TypeError text, pickle and copy round-trips give an equal record of
the same type, and assigning or deleting a field still raises
FrozenInstanceError. A scan of the package's source keeps the table
complete: the classes decorated @hot_record are exactly those in HOT, and
no other __init__ writes into self.__dict__.

weight_triple, hj_expand, weight_sequence and delta_sequence keep a bounded
cache; each is compared with its uncached __wrapped__ on the same inputs,
twice, so that the second answer comes from the cache. Bad inputs, also those equal to a cached
good input, raise on every call.
"""

import ast
import copy
import importlib
import pickle
import re
from dataclasses import FrozenInstanceError, fields, make_dataclass, replace
from fractions import Fraction
from pathlib import Path

import pytest

import wpp
from wpp.arith import MEMO_SIZE, hj_expand, weight_sequence, weight_triple
from wpp.errors import (
    DegenerateWeight,
    InvalidFraction,
    NotCoprime,
    NotPairwiseCoprime,
    UserInputError,
)
from wpp.homlat import cp2_lattice
from wpp.polygon import ChopResult, LatticePolygon
from wpp.resolution import (
    ConnectorData,
    DivisorPredicates,
    StringData,
    TwoMinus2Data,
    build_resolution,
    check_divisor_predicates,
    check_two_minus2,
)
from wpp.rulings import (
    ApproachData,
    CombinedString,
    CycleElement,
    RulingData,
    boundary_elements,
    ruling,
)
from wpp.scan import check_triple, coprime_triples
from wpp.strings import Component, DivisorConfig, FiberData, delta_sequence

arith = importlib.import_module("wpp.arith")

_EL = CycleElement("string", "S_a[1]", "a", 1, 7, {1: -1, 2: 1}, -2)
_POLY = LatticePolygon(((0, 0), (2, 0), (0, 1)), 1)

# (record type, two different argument tuples)
HOT = [
    (Component, ("v1", {1: 1}), ("v2", {1: 1})),
    (CycleElement, ("connector", "N_c", None, None, 6, {0: 1}, 0),
     ("string", "S_b[2]", "b", 2, 3, {0: 1}, -3)),
    (CombinedString, ("forward", "c", (_EL,)), ("backward", "c", (_EL,))),
    (FiberData, ({1: 2}, (1, 2, 0), 2, 0, 1), ({1: 2}, (1, 2, 0), 2, 1, 1)),
    (ApproachData, (None, None, (1, 2), None, None, False, None),
     (None, None, (1, 2), 1, 1, True, None)),
    (LatticePolygon, (((0, 0), (1, 0), (0, 1)), 1), (((0, 0), (1, 0), (0, 1)), 2)),
    (ChopResult, (_POLY, (1, 2), {0: 0}, (2,), (2, 1)), (_POLY, (1, 2), {0: 0}, (3,), (3, 1))),
    (StringData, ("a", 5, 2, (1, 2), (-3, -2)), ("a", 5, 3, (1, 2), (-2, -3))),
    (ConnectorData, ("N_a", 4, -1), ("N_b", 4, -1)),
    (TwoMinus2Data, (5, 3, 7, False, None, None), (5, 3, 8, True, 1, (-4,))),
    (RulingData, ("c", "a", -1, "EmbeddedFiber", 1, 2, {1: 1}, 2, 1, 1, 2, 2, -4, None, 2,
                  None, None, ()),
     ("b", "c", -2, "Unicuspidal", 2, 3, {2: 1}, 3, 2, 2, 3, 6, -8, (2, 3), None,
      None, None, ("profile",))),
    (DivisorPredicates, (True, True, True, True, {"ab": Fraction(1, 2)}, Fraction(-3), -5,
                         True, 1),
     (False, True, False, True, {"ab": Fraction(1, 3)}, Fraction(-2), -4, False, None)),
]
IDS = [cls.__name__ for cls, _, _ in HOT]


def plain(cls):
    """A frozen dataclass with cls's name and fields and the generated __init__."""
    return make_dataclass(cls.__name__, [(f.name, f.type) for f in fields(cls)], frozen=True)


@pytest.mark.parametrize("cls, args, other", HOT, ids=IDS)
def test_hot_record_behaves_like_a_frozen_dataclass(cls, args, other):
    ref = plain(cls)
    names = [f.name for f in fields(cls)]
    x = cls(*args)
    assert x == cls(**dict(zip(names, args)))
    assert x != cls(*other)
    assert repr(x) == repr(ref(*args))
    assert vars(x) == vars(ref(*args))
    try:
        want = hash(ref(*args))
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want
    for name, value in zip(names, other):
        y = replace(x, **{name: value})
        assert type(y) is cls
        assert getattr(y, name) is value
        assert repr(y) == repr(replace(ref(*args), **{name: value}))
    with pytest.raises(TypeError):
        replace(x, no_such_field=1)
    for name, value in zip(names, other):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
    assert x == cls(*args)
    for bad in (args[:-1], (*args, None)):
        with pytest.raises(TypeError) as got:
            cls(*bad)
        with pytest.raises(TypeError) as want:
            ref(*bad)
        assert str(got.value) == str(want.value)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls
        assert y == x


def _hot_sources():
    for path in sorted(Path(wpp.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_hot_record_is_in_the_table():
    decorated = {
        node.name
        for _, tree in _hot_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "hot_record" for d in node.decorator_list)
    }
    assert decorated == set(IDS)


def test_no_hand_written_init_writes_the_instance_dict():
    found = [
        f"{path.name}:{sub.lineno}"
        for path, tree in _hot_sources() if path.name != "records.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr == "__dict__"
        and isinstance(sub.value, ast.Name) and sub.value.id == "self"
    ]
    assert found == []


def test_records_made_by_a_build_stay_frozen():
    rp = build_resolution(11, 13, 14)
    rd = ruling(rp, "c")
    made = [
        *boundary_elements(rp), rd.forward, rd.forward.combined, rd.forward.fiber,
        rp.polygon, *rp.strings.values(), *rp.connectors.values(),
        *check_two_minus2(rp), rd.forward.config.components[0],
        rd, check_divisor_predicates(rp),
    ]
    for rec in made:
        name = fields(rec)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(rec, name, None)
        assert replace(rec) == rec


def test_a_cycle_element_is_a_component():
    """label is the name: a config reads label and cls alone."""
    cfg = DivisorConfig(cp2_lattice(3), (_EL, Component("x", {3: 1})))
    assert [c.label for c in cfg.components] == ["S_a[1]", "x"]
    assert _EL.label == _EL.name
    assert "label" not in [f.name for f in fields(CycleElement)]
    with pytest.raises(AttributeError):
        _EL.label = "y"


# --- memoized string arithmetic ---------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)


def _chain_inputs():
    """Every chain and string selfint tuple the rulings and predicates of
    coprime_triples(12) read, and their reversals."""
    out = set()
    for t in coprime_triples(12):
        rp = build_resolution(*t)
        for target in "abc":
            rd = ruling(rp, target)
            out.add(rd.forward.combined.selfints)
            out.add(rd.backward.combined.selfints)
        for sd in rp.strings.values():
            out.update((sd.selfints, sd.selfints[::-1]))
    return sorted(out)


PAIRS = [(p, q) for p in range(1, 40) for q in range(0, 40)]


def test_hj_expand_matches_uncached():
    for _ in range(2):
        for p, q in PAIRS:
            assert _outcome(hj_expand, p, q) == _outcome(hj_expand.__wrapped__, p, q)


def test_weight_sequence_matches_uncached():
    for _ in range(2):
        for p, q in PAIRS:
            assert _outcome(weight_sequence, p, q) == _outcome(weight_sequence.__wrapped__, p, q)


def ref_weight_triple(a, b, c):
    """weight_triple with no cache: its type check, then the uncached body."""
    for w in (a, b, c):
        if isinstance(w, bool) or not isinstance(w, int) or w < 1:
            raise DegenerateWeight(f"weights must be positive integers, got {w!r}")
    return arith._weight_triple.__wrapped__(a, b, c)


def test_weight_triple_matches_uncached():
    triples = [(a, b, c) for a in range(0, 9) for b in range(0, 9) for c in (5, 7, 8, 9, 12)]
    bad = [(2, 3, True), (2.0, 3, 5), (3, 2, 5), (_Int(2), 3, 5), ([2], 3, 5), (2, 3, {5: 1})]
    for _ in range(2):
        for t in triples + bad:
            assert _outcome(weight_triple, *t) == _outcome(ref_weight_triple, *t)


@pytest.mark.parametrize("good, bad, exc", [
    ((2, 3, 5), (2.0, 3, 5), DegenerateWeight),
    ((2, 3, 5), (2, 3, True), DegenerateWeight),
    ((2, 3, 5), ([2], 3, 5), DegenerateWeight),
    ((2, 3, 5), (4, 3, 6), NotPairwiseCoprime),
    ((2, 3, 5), (1, 3, 5), DegenerateWeight),
])
def test_bad_weight_triple_raises_every_time(good, bad, exc):
    weight_triple(*good)
    for _ in range(3):
        with pytest.raises(exc):
            weight_triple(*bad)
        with pytest.raises(exc):
            ref_weight_triple(*bad)


def test_weight_triple_cache_is_bounded_and_serves_the_six_presentations():
    cache = arith._weight_triple
    assert cache.cache_info().maxsize == MEMO_SIZE
    for c in range(5, 600, 6):
        weight_triple(2, 3, c)
    assert cache.cache_info().currsize == MEMO_SIZE
    cache.cache_clear()
    check_triple((11, 13, 14))
    # check_triple validates the triple once, and each presentation again
    assert cache.cache_info()[:2] == (6, 1)


def test_delta_sequence_matches_uncached():
    inputs = _chain_inputs() + [(), (-1,), (0, 0), (-2, 1, -2), (3, -1, 2, 5)]
    assert len(inputs) > 100
    for _ in range(2):
        for s in inputs:
            assert delta_sequence(s) == delta_sequence.__wrapped__(s)
            assert delta_sequence(list(s)) == delta_sequence.__wrapped__(s)


class _Int(int):
    pass


@pytest.mark.parametrize("good, bad, exc", [
    ((5, 2), (5.0, 2), InvalidFraction),
    ((5, 2), (5, 2.0), InvalidFraction),
    ((5, 2), (Fraction(5), 2), InvalidFraction),
    ((6, 5), (6, 4), InvalidFraction),
    ((2, 1), (1, 1), InvalidFraction),
])
def test_bad_hj_input_raises_every_time(good, bad, exc):
    hj_expand(*good)
    for _ in range(3):
        with pytest.raises(exc):
            hj_expand(*bad)
        with pytest.raises(exc):
            hj_expand.__wrapped__(*bad)


@pytest.mark.parametrize("good, bad", [
    ((3, 2), (3.0, 2)),
    ((3, 2), (3, 2.0)),
    ((3, 2), (Fraction(3), 2)),
    ((3, 2), (6, 4)),
    ((3, 2), (-3, 2)),
])
def test_bad_weight_input_raises_every_time(good, bad):
    weight_sequence(*good)
    for _ in range(3):
        with pytest.raises(NotCoprime):
            weight_sequence(*bad)


@pytest.mark.parametrize("bad", [
    (-2.0, -2),
    (-2, Fraction(-2)),
    [-2, -2.0],
    (-2, "x"),
    (_Int(-3), True, -2),
])
def test_bad_deltas_input_raises_every_time(bad):
    """An entry that is not an int, or is a bool, is the caller's error."""
    entry = next(x for x in bad if isinstance(x, bool) or not isinstance(x, int))
    message = f"^self-intersections must be ints, got {re.escape(repr(entry))}$"
    delta_sequence((-2, -2))
    with pytest.raises(UserInputError, match=message):
        delta_sequence.__wrapped__(bad)
    for _ in range(3):
        with pytest.raises(UserInputError, match=message):
            delta_sequence(bad)


def test_int_subclasses_answer_as_uncached():
    args = (_Int(7), _Int(3))
    for _ in range(2):
        assert hj_expand(*args) == hj_expand.__wrapped__(*args)
        assert weight_sequence(*args) == weight_sequence.__wrapped__(*args)
        seq = (_Int(-3), -2)
        assert delta_sequence(seq) == delta_sequence.__wrapped__(seq)


def test_caches_are_bounded_and_serve_the_six_presentations():
    for fn in (hj_expand, weight_sequence, delta_sequence):
        assert fn.cache_info().maxsize == MEMO_SIZE
    for p in range(2, 300):
        hj_expand(p, 1)
        delta_sequence((-2,) * p)
    assert hj_expand.cache_info().currsize == MEMO_SIZE
    assert delta_sequence.cache_info().currsize == MEMO_SIZE
    for fn in (hj_expand, weight_sequence, delta_sequence):
        fn.cache_clear()
    check_triple((11, 13, 14))
    # each presentation reads the same strings and chains as the first
    for fn in (hj_expand, delta_sequence):
        info = fn.cache_info()
        assert info.hits >= 5 * info.misses > 0
