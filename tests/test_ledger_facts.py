"""The ledger stage decides each fact once.

_verify_classes checks the labelled intersection form of the edge classes,
their areas and that they sum to -K; adjunction and K^2 follow and are no
longer re-derived. LatticePolygon.selfints tests each corner once,
build_resolution converts only the classes holding a slot of the conversion
block, and the standard lattice factories build their rank-1 or rank-2 form
and blow it up. Each test below runs the replaced computation as an oracle:
the per-edge adjunction and K^2, edge_selfint edge by edge, the conversion
of every class, and the direct Lattice construction. The schedule checks
at the entry points and to_cp2 on heads with trailing (-1) slots are tested
here too.
"""

import dataclasses
from fractions import Fraction

import pytest

from wpp import resolution as resolution_mod
from wpp.errors import LemmaViolated, NotDelzantNeighborhood, UserInputError, WppError
from wpp.homlat import (
    CP2_HEAD,
    AreaForm,
    Lattice,
    cp2_lattice,
    enumerate_exceptional,
    generic_lattice,
    hirz_lattice,
    mat_vec,
    sparse,
    to_cp2,
    transport_area,
)
from wpp.polygon import LatticePolygon, _verify_classes, assign_classes, edge_selfint
from wpp.resolution import build_resolution
from wpp.scan import check_triple, coprime_triples, run_scan

GOLDEN_TRIPLES = ((2, 3, 5), (3, 4, 5), (5, 7, 9), (11, 13, 14), (2, 39, 41), (5, 33, 49))


# --- adjunction and K^2 follow from the gram and the sum ------------------------------


def test_implied_adjunction_and_canonical_square_hold():
    """The two checks _verify_classes dropped, re-run on every ledger."""
    seen = set()
    for t in coprime_triples(15):
        for pres in range(1, 7):
            rp = build_resolution(*t, presentation=pres)
            pc = assign_classes(rp.polygon)
            lat = pc.lattice
            for x, s in zip(pc.edge_classes, rp.edge_sels):
                assert lat.k_pair(x) == -2 - s
            assert lat.sq(lat.canonical) == 9 - (lat.rank - 1) == 12 - rp.polygon.n
            seen.add(pc.terminal)
    assert seen == {"cp2", "hirz"}


def _tail_slot(lat, x):
    return next((s for s in x if s >= len(lat.head)), None)


@pytest.mark.parametrize("triple", GOLDEN_TRIPLES)
@pytest.mark.parametrize("pres", (1, 4))
def test_broken_adjunction_is_still_rejected(triple, pres):
    """Negate one tail coefficient of one edge class: its square stays s_i,
    K.x_i moves off -2 - s_i, and the verification still raises."""
    p = build_resolution(*triple, presentation=pres).polygon
    pc = assign_classes(p)
    lat, cls, sels = pc.lattice, pc.edge_classes, p.selfints
    tried = 0
    for i, x in enumerate(cls):
        s = _tail_slot(lat, x)
        if s is None:
            continue
        bad_i = {**x, s: -x[s]}
        assert lat.sq(bad_i) == sels[i]
        assert lat.k_pair(bad_i) != -2 - sels[i]
        bad = cls[:i] + (bad_i,) + cls[i + 1:]
        with pytest.raises(LemmaViolated):
            _verify_classes(p, sels, dataclasses.replace(pc, edge_classes=bad))
        tried += 1
    assert tried > 0


@pytest.mark.parametrize("triple", GOLDEN_TRIPLES)
def test_a_canonical_class_off_the_sum_is_rejected(triple):
    """Move K on one tail slot: the classes and their gram are unchanged, so
    only the sum check sees that K.x_i = -2 - s_i fails for the edges there."""
    p = build_resolution(*triple).polygon
    pc = assign_classes(p)
    lat = pc.lattice
    slot = lat.rank - 1
    moved = Lattice(lat.head, lat.rank, canonical={**lat.canonical, slot: 3})
    held = [i for i, x in enumerate(pc.edge_classes) if slot in x]
    assert held and all(moved.k_pair(pc.edge_classes[i]) != -2 - p.selfints[i] for i in held)
    with pytest.raises(LemmaViolated, match="^edge classes do not sum to the anticanonical"):
        _verify_classes(p, p.selfints, dataclasses.replace(pc, lattice=moved))


@pytest.mark.parametrize("triple, pres", [((2, 3, 5), 2), ((2, 5, 7), 4), ((11, 13, 14), 1)])
def test_terminal_lengths_are_decided_by_the_area_check(triple, pres):
    """The ledger no longer compares the terminal model's edge lengths: an
    area form read off unequal terminal edges fails the area check, on the
    projective plane and on F_k."""
    p = build_resolution(*triple, presentation=pres).polygon
    pc = assign_classes(p)
    vals = list(pc.area._ints)
    for slot in range(len(pc.lattice.head)):
        off = vals[:slot] + [vals[slot] + 1] + vals[slot + 1:]
        bad = dataclasses.replace(pc, area=AreaForm.from_scaled(off, pc.area.denominator))
        with pytest.raises(LemmaViolated, match="area does not match edge length$"):
            _verify_classes(p, p.selfints, bad)


# --- one walk of the direction table ----------------------------------------------------


def ref_selfints(p):
    """Edge by edge, through edge_selfint, with the sum rule."""
    out = tuple(edge_selfint(p, i) for i in range(p.n))
    if sum(out) != 12 - 3 * p.n:
        raise LemmaViolated("edge self-intersections violate the smooth toric sum rule")
    return out


def _outcome(fn, p):
    try:
        return fn(p)
    except NotDelzantNeighborhood as exc:
        return str(exc)


class _Stop(Exception):
    pass


def test_one_pass_selfints_match_edge_selfint_on_every_chop_polygon(monkeypatch):
    """Every polygon a build chops or makes, on coprime_triples(30) x 6
    presentations: the triangle and the partly chopped polygons are not
    Delzant, and the one-pass walk names the same first corner."""
    polys = []
    chop = resolution_mod.chop_corner

    def recording(p, *args, **kwargs):
        res = chop(p, *args, **kwargs)
        if p.n == 3:  # the triangle; every later input is an earlier result
            polys.append(p)
        polys.append(res.polygon)
        return res

    def stop(p):
        raise _Stop

    monkeypatch.setattr(resolution_mod, "chop_corner", recording)
    monkeypatch.setattr(resolution_mod, "edge_selfints", stop)
    for t in coprime_triples(30):
        for pres in range(1, 7):
            with pytest.raises(_Stop):
                build_resolution(*t, presentation=pres)
    rejected = 0
    for p in polys:
        want = _outcome(ref_selfints, p)
        # a fresh polygon: no cached edge table or self-intersections
        assert _outcome(lambda q: q.selfints, LatticePolygon(p.ipts, p.den)) == want
        rejected += isinstance(want, str)
    assert rejected > 0 and rejected < len(polys)


# --- the conversion touches only the block's classes ---------------------------------------


def test_block_only_conversion_matches_converting_every_class():
    parities = set()
    converted = []
    for t in (*coprime_triples(14), (2, 149, 151), (247, 250, 253)):
        for pres in range(1, 7):
            rp = build_resolution(*t, presentation=pres)
            if rp.terminal == "cp2":
                continue
            pc = assign_classes(rp.polygon)
            lat, t_mat, t_inv = to_cp2(pc.lattice)
            assert rp.lattice == lat
            assert rp.edge_classes == tuple(mat_vec(t_mat, x) for x in pc.edge_classes)
            assert rp.area == transport_area(pc.area, t_inv)
            parities.add(rp.terminal_k % 2)
            converted.append(sum(min(x) < len(t_mat) for x in pc.edge_classes))
    assert parities == {0, 1}
    assert max(converted) <= 7


# --- the standard lattice factories -----------------------------------------------------------


def test_factories_match_the_direct_construction():
    for n in range(41):
        k = dict.fromkeys(range(n + 1), 1)
        k[0] = -3
        direct = Lattice(CP2_HEAD, n + 1, canonical=k)
        lat = cp2_lattice(n)
        assert lat == direct and lat._kc == direct._kc and lat._rows == direct._rows
        assert lat.sq(lat.canonical) == 9 - n
        assert all(lat.k_pair({j: 1}) == -1 == lat.pair(lat.canonical, {j: 1})
                   for j in range(1, n + 1))
        for kh in range(10):
            direct = Lattice(((0, 1), (1, -kh)), n + 2,
                             canonical=sparse((-(kh + 2), -2) + (1,) * n))
            lat = hirz_lattice(kh, n)
            assert lat == direct and lat._kc == direct._kc and lat._rows == direct._rows
            assert lat.sq(lat.canonical) == 8 - n
            assert all(lat.k_pair({j: 1}) == -1 == lat.pair(lat.canonical, {j: 1})
                       for j in range(2, n + 2))


# --- the schedule is checked where it enters -------------------------------------------------

BAD_SCHEDULES = (
    (Fraction(1, 2),),
    (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)),
    ("1/4", "1/3"),
    (True, Fraction(1, 3)),
    (Fraction(1, 4), False),
    "ab",
    Fraction(1, 4),
)


@pytest.mark.parametrize("sched", BAD_SCHEDULES, ids=repr)
def test_schedules_that_are_not_two_ratios_are_user_errors(sched):
    with pytest.raises(UserInputError, match="^an epsilon schedule is two ratios"):
        build_resolution(2, 3, 5, schedule=sched)
    with pytest.raises(UserInputError, match="^an epsilon schedule is two ratios"):
        check_triple((2, 3, 5), schedule=sched)
    with pytest.raises(UserInputError, match="^an epsilon schedule is two ratios"):
        run_scan(7, jobs=1, schedule=sched)


def test_a_schedule_list_builds_as_its_tuple():
    sched = (Fraction(1, 3), Fraction(1, 5))
    a = build_resolution(11, 13, 14, schedule=sched)
    b = build_resolution(11, 13, 14, schedule=list(sched))
    assert a.polygon == b.polygon and a.edge_classes == b.edge_classes


# --- to_cp2 strips trailing (-1) head slots ---------------------------------------------------


def test_cp2_head_with_trailing_minus_one_slots_converts():
    lat = generic_lattice(((1, 0, 0), (0, -1, 0), (0, 0, -1)), canonical={0: -3, 1: 1, 2: 1})
    assert lat != cp2_lattice(2)  # the head is kept as given
    assert lat.gram_rows() == cp2_lattice(2).gram_rows()
    out, t, t_inv = to_cp2(lat)
    assert out == cp2_lattice(2) and t == t_inv == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    got = enumerate_exceptional(lat)
    want = enumerate_exceptional(cp2_lattice(2))
    assert len(got.classes) == 3 and got == want


def _ruled_with_trailing_slot(k, m):
    """F_k blown up m >= 1 times, its first exceptional slot in the head."""
    ref = hirz_lattice(k, m)
    return Lattice(((0, 1, 0), (1, -k, 0), (0, 0, -1)), m + 2, canonical=ref.canonical), ref


@pytest.mark.parametrize("k", range(6))
def test_ruled_head_with_a_trailing_minus_one_slot_matches_hirz(k):
    for m in range(1, 5):
        lat, ref = _ruled_with_trailing_slot(k, m)
        assert lat != ref and lat.gram_rows() == ref.gram_rows()
        assert to_cp2(lat) == to_cp2(ref)
        area = AreaForm.from_scaled((3, 2 + k) + tuple(range(1, m + 1))[::-1], 4)
        assert enumerate_exceptional(lat, area) == enumerate_exceptional(ref, area)


def test_stripped_slots_keep_the_canonical_certificate():
    lat = generic_lattice(((1, 0, 0, 0),) + tuple(
        tuple(-(i == j) for j in range(4)) for i in range(1, 4)), canonical={0: -3, 1: 1, 2: 1, 3: 5})
    with pytest.raises(WppError, match="^canonical class does not convert"):
        to_cp2(lat)
    # a (-1) row that meets another slot is not a tail slot
    linked = generic_lattice(((1, 0, 0), (0, -1, 1), (0, 1, -1)), canonical={0: -3, 1: 1, 2: 1})
    with pytest.raises(WppError, match="^no canonical cp2 form"):
        to_cp2(linked)
