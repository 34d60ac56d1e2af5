"""Differential tests: the ruling layer and the predicates on the build's own
records against the paths they replaced.

`resolution_fiber_class` grows the lattice by all of its slots at once and
runs the subtraction-pair steps on working classes; `ref_node_blowups` is the
earlier loop of `toric_blowup` calls on the node piece. `Lattice.pairing`
pairs a fixed class through its signed row; `Lattice.pair` is the definition.
`check_divisor_predicates` compares integer areas over the form's positive
denominator; `ref_check_divisor_predicates` is the earlier version, which
compared `Fraction` areas. `build_resolution` checks every edge class against
the rank once, where the rulings' configs used to check them per chain.
"""

import dataclasses
import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpp.errors import MissingClasses, NotAdjacent, RankMismatch, Unclassified, WppError
from wpp.homlat import (
    AreaForm,
    Lattice,
    class_sum,
    cp2_lattice,
    generic_lattice,
    hirz_lattice,
    log_kodaira,
)
from wpp.resolution import (
    DivisorPredicates,
    _abc_type,
    build_resolution,
    check_divisor_predicates,
)
from wpp.scan import coprime_triples
from wpp.strings import (
    DivisorConfig,
    FiberData,
    chain_config,
    delta_sequence,
    resolution_fiber_class,
    toric_blowup,
)

# the module, not a function of the same name that the package re-exports
resolution_mod = importlib.import_module("wpp.resolution")


# --- reference: the replaced paths -----------------------------------------------------


def ref_node_blowups(cfg, upto, pairs):
    """The fiber blowups one toric_blowup at a time on the node piece."""
    node = DivisorConfig._grown(cfg.lattice, cfg.components[upto - 1:upto + 1], ())
    res = toric_blowup(node, 0, 1, label="C1")
    for i, (a, b) in enumerate(pairs[:-1], start=2):
        left = res.position - 1 if a > b else res.position
        res = toric_blowup(res.config, left, left + 1, label=f"C{i}")
    return res


def ref_check_divisor_predicates(rp):
    """The Fraction version of check_divisor_predicates."""
    forward = [delta_sequence(sd.selfints) for sd in rp.strings.values()]
    full = rp.n == sum(len(sd.edge_ids) for sd in rp.strings.values()) and all(
        ds.is_negative_definite for ds in forward
    )
    abc_type = _abc_type(rp, forward)
    lat, area, cls = rp.lattice, rp.area, rp.edge_classes
    if lat.canonical is None:
        raise MissingClasses("resolution lattice has no canonical class")
    adjoint = class_sum(
        [lat.canonical] + [cls[i] for sd in rp.strings.values() for i in sd.edge_ids]
    )
    adjoint_area = area.area(adjoint)
    adjoint_square = lat.sq(adjoint)
    conn_area = {
        name: area.area(cls[rp.connectors[name].edge_id]) for name in ("N_a", "N_b", "N_c")
    }
    area_identity = adjoint_area == -(
        conn_area["N_a"] + conn_area["N_b"] + conn_area["N_c"]
    )
    gaps = {
        "bc": conn_area["N_a"],
        "ac": conn_area["N_b"],
        "ab": conn_area["N_c"] if rp.connectors["N_c"].selfint == -1 else Fraction(0),
    }
    pair_of = {"a": ("ab", "ac"), "b": ("ab", "bc"), "c": ("ac", "bc")}
    gap_admissible = all(
        adjoint_area < -(gaps[p1] + gaps[p2]) for p1, p2 in pair_of.values()
    )
    try:
        kod = log_kodaira(adjoint_area, adjoint_square)
    except Unclassified:
        kod = None
    return DivisorPredicates(
        full=full,
        abc_type=abc_type,
        gap_admissible=gap_admissible,
        sub_toric=True,
        gaps=gaps,
        adjoint_area=adjoint_area,
        adjoint_square=adjoint_square,
        area_identity=area_identity,
        kodaira=kod,
    )


# --- the fiber blowups in one pass -------------------------------------------------------


def test_non_adjacent_node_raises_the_toric_blowup_text():
    """A node pair that does not meet once stops the first blowup, with the
    exception and text toric_blowup gives on the same node piece."""
    cfg = chain_config(cp2_lattice(3), [{1: 1}, {2: 1}, {3: 1}], validate=False)
    fd = FiberData({1: 1}, (1, 1, 0, -1), 1, 1, 1)
    with pytest.raises(NotAdjacent) as ref:
        ref_node_blowups(cfg, fd.upto, [(1, 1)])
    with pytest.raises(NotAdjacent, match="^components 0 and 1 do not meet once$") as got:
        resolution_fiber_class(cfg, fd)
    assert str(got.value) == str(ref.value)


# (how the lattice is made, the lattice)
LATTICES = (
    ("cp2", cp2_lattice(4)),
    ("hirz", hirz_lattice(3, 2)),
    ("hirz", Lattice(((0, 1), (1, -1)), 4, canonical={0: -3, 1: -2, 2: 1, 3: 2})),
    ("cp2", Lattice(((1,),), 3)),
    ("generic", generic_lattice(((0, 1), (1, -2)), canonical={0: -4, 1: -2})),
)


@pytest.mark.parametrize(
    "lat", [lat for _kind, lat in LATTICES], ids=[f"{kind}-{lat.rank}" for kind, lat in LATTICES]
)
@pytest.mark.parametrize("count", (1, 2, 7))
def test_blowup_by_count_matches_single_blowups(lat, count):
    want = lat
    for _ in range(count):
        want = want.blowup()
    got = lat.blowup(count)
    assert got == want
    assert got._kc == want._kc


def test_blowup_count_below_one_is_rejected():
    with pytest.raises(WppError, match="^blowup count must be at least 1, got 0$"):
        cp2_lattice(2).blowup(0)


# --- pairing a fixed class through one row --------------------------------------------------


def _classes(rank):
    return st.dictionaries(
        st.integers(0, rank - 1), st.integers(-5, 5).filter(bool), max_size=rank
    )


@st.composite
def lattice_and_classes(draw):
    kind = draw(st.sampled_from(("cp2", "hirz", "generic")))
    rank = draw(st.integers(2, 8))
    if kind == "cp2":
        lat = cp2_lattice(rank - 1)
    elif kind == "hirz":
        lat = hirz_lattice(draw(st.integers(0, 5)), rank - 2)
    else:
        entries = st.integers(-3, 3)
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                g[i][j] = g[j][i] = draw(entries)
        lat = generic_lattice(g)
    x = draw(_classes(rank))
    if draw(st.booleans()):
        x.pop(0, None)  # a class without slot 0 gets no head term
    ys = draw(st.lists(_classes(rank), min_size=1, max_size=6))
    return lat, x, ys


@settings(max_examples=300, deadline=None)
@given(lattice_and_classes())
def test_pairing_matches_pair(data):
    lat, x, ys = data
    pair_x = lat.pairing(x)
    for y in ys + [x, {}]:
        assert pair_x(y) == lat.pair(x, y)


def test_pairing_matches_pair_on_builds():
    """The boundary classes of the builds with c <= 12, each paired with all."""
    for t in coprime_triples(12):
        for idx in (1, 4):
            rp = build_resolution(*t, presentation=idx)
            lat = rp.lattice
            for x in rp.edge_classes:
                pair_x = lat.pairing(x)
                assert [pair_x(y) for y in rp.edge_classes] == [
                    lat.pair(x, y) for y in rp.edge_classes
                ]


# --- integer areas in the predicates ---------------------------------------------------------


def test_predicates_match_fractions():
    """Every presentation of coprime_triples(30)."""
    count = 0
    for t in coprime_triples(30):
        for idx in range(1, 7):
            rp = build_resolution(*t, presentation=idx)
            assert check_divisor_predicates(rp) == ref_check_divisor_predicates(rp), (t, idx)
            count += 1
    assert count == 6 * len(coprime_triples(30))


@pytest.mark.parametrize("den", (0, -3))
def test_area_form_needs_a_positive_denominator(den):
    """The predicates read signs and orders off the scaled areas."""
    with pytest.raises(WppError, match=f"^area denominator {den} is not positive$"):
        AreaForm.from_scaled((1, 2), den)


# --- the slot check where the classes enter -----------------------------------------------------


def test_edge_class_outside_the_rank_raises(monkeypatch):
    assign = resolution_mod.assign_classes

    def widened(poly):
        pc = assign(poly)
        cls = list(pc.edge_classes)
        cls[2] = {**cls[2], pc.lattice.rank: 1}
        return dataclasses.replace(pc, edge_classes=tuple(cls))

    monkeypatch.setattr(resolution_mod, "assign_classes", widened)
    for t, idx in (((2, 3, 5), 1), ((11, 13, 14), 4)):
        with pytest.raises(RankMismatch, match="^edge 2 has a slot outside rank "):
            build_resolution(*t, presentation=idx)
