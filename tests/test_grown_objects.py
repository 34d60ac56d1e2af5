"""Differential tests: objects grown from checked ones against a full re-check.

A chop grows its polygon from the one it starts from and tests only the turns
it makes; a blowup copies its lattice's checks; transport_area keeps its form
in lowest terms without a gcd pass; to_cp2 compares a canonical class that
holds 1 on every tail slot on the conversion block alone. The reference functions below are the paths
they replaced: the earlier chop through the global check of _validated, the blowup
through the public Lattice constructor, the area form through from_scaled and
the canonical certificate by converting the whole class.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpp import homlat
from wpp.arith import hj_expand, weight_triple
from wpp.errors import ChopsOverlap, WppError
from wpp.homlat import (
    AreaForm,
    Lattice,
    _hirz_block,
    cp2_lattice,
    generic_lattice,
    hirz_lattice,
    mat_vec,
    to_cp2,
    transport_area,
)
from wpp.polygon import (
    CORNER_CYCLE,
    assign_classes,
    chop_corner,
    corner_type,
    presentation,
)
from wpp.resolution import build_resolution
from wpp.scan import coprime_triples

import test_chop_division

OVERLAP = (Fraction(99, 100), Fraction(99, 100))


# --- reference: the replaced paths ---------------------------------------------------


def ref_chop_corner(*args, **kwargs):
    """The earlier chop of test_chop_division with every result sent through
    the global check: _validated over the whole polygon, then the reorder
    check."""
    with mock.patch.object(test_chop_division, "ref_grown", lambda *a: None):
        return test_chop_division.ref_chop_corner(*args, **kwargs)


def ref_edges(p):
    """The edge table recomputed from the vertices, one gcd per edge."""
    dirs, lens = [], []
    for (ax, ay), (bx, by) in zip(p.ipts, p.ipts[1:] + p.ipts[:1]):
        g = math.gcd(bx - ax, by - ay)
        dirs.append(((bx - ax) // g, (by - ay) // g))
        lens.append(g)
    return tuple(dirs), tuple(lens)


def ref_blowup(lat):
    """The blowup through the public constructor and its O(rank) checks."""
    k = None if lat.canonical is None else {**lat.canonical, lat.rank: 1}
    return Lattice(lat.head, lat.rank + 1, canonical=k)


def ref_transport_area(area, t_inv):
    b = len(t_inv)
    ints = area._ints
    head = tuple(sum(ints[i] * t_inv[i][j] for i in range(b)) for j in range(b))
    return AreaForm.from_scaled(head + ints[b:], area._den)


# --- chops ------------------------------------------------------------------------------


def _outcome(fn, *args, **kwargs):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(*args, **kwargs), None
    except WppError as exc:
        return None, (type(exc), str(exc))


def _assert_same_chop(got, ref):
    (res, err), (rres, rerr) = got, ref
    assert err == rerr
    if res is None:
        return
    assert (res.polygon.ipts, res.polygon.den) == (rres.polygon.ipts, rres.polygon.den)
    assert (res.new_edge_indices, res.edge_map) == (rres.new_edge_indices, rres.edge_map)
    assert (res.entries, res.corner) == (rres.entries, rres.corner)
    # the seeded edge table is the one recomputed from the vertices
    assert res.polygon._edges == ref_edges(res.polygon) == rres.polygon._edges


def _chop_all(w, idx, schedule):
    """The chops of build_resolution at corners A, B, C, each run both ways on
    the same polygon; stops at the first rejected chop. Returns the outcomes."""
    pres = presentation(w, idx)
    label_at = {v: lab for lab, v in pres.corner_vertex.items()}
    side = [0, 1, 2]
    cur = pres.polygon
    seen = []
    for lab in "ABC":
        v0 = pres.corner_vertex[lab]
        u_side = "next" if label_at[(v0 + 1) % 3] == CORNER_CYCLE[lab] else "prev"
        got = _outcome(chop_corner, cur, side[v0], u_side, schedule=schedule)
        _assert_same_chop(got, _outcome(ref_chop_corner, cur, side[v0], u_side,
                                        schedule=schedule))
        res, err = got
        seen.append(err)
        if res is None:
            break
        side = [res.edge_map[i] for i in side]
        cur = res.polygon
    return seen


def test_every_chop_matches_the_global_check():
    """Every chop of coprime_triples(24) x 6 presentations, under the default
    and the overlapping schedule: the same polygon, edge maps and seeded edge
    table, or the same exception type and message."""
    counts = {"accepted": 0, "rejected": 0}
    for t in coprime_triples(24):
        w = weight_triple(*t)
        for idx in range(1, 7):
            for schedule in (None, OVERLAP):
                for err in _chop_all(w, idx, schedule):
                    counts["rejected" if err else "accepted"] += 1
    assert counts["accepted"] > 10_000 and counts["rejected"] > 1_000


def test_accepted_chop_comes_with_its_edge_table():
    """The table is seeded, not computed on first read; a rejected chop's
    global check would leave it unset."""
    p = presentation(weight_triple(11, 13, 14), 4).polygon
    for vertex in range(3):
        res = chop_corner(p, vertex, "prev")
        assert "_edges" in res.polygon.__dict__
        assert res.polygon._edges == ref_edges(res.polygon)
        assert "_edges" not in ref_chop_corner(p, vertex, "prev").polygon.__dict__


@settings(max_examples=150, deadline=None)
@given(
    t=st.sampled_from(((2, 3, 5), (2, 3, 7), (3, 4, 5), (5, 7, 9), (4, 9, 11), (7, 8, 15))),
    idx=st.integers(1, 6),
    vertex=st.integers(0, 2),
    u_side=st.sampled_from(("prev", "next")),
    eps=st.lists(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(60)),
                 min_size=1, max_size=12),
)
@example(t=(2, 3, 5), idx=1, vertex=1, u_side="next", eps=[Fraction(7)])
@example(t=(2, 3, 5), idx=1, vertex=0, u_side="prev", eps=[Fraction(3)] * 4)
@example(t=(2, 3, 5), idx=1, vertex=2, u_side="prev", eps=[Fraction(3)])
def test_triangle_chops_with_drawn_depths_match_the_global_check(t, idx, vertex, u_side, eps):
    """Arbitrary positive depths at a triangle corner, often past both of its
    edges: the chop agrees with the global check, including its repeated
    vertex rejection (a new edge of length zero lies in every cone, so only
    the turn test sees it) and the reorder check that only depths past both
    edges of a triangle corner reach."""
    p = presentation(weight_triple(*t), idx).polygon
    r, q = corner_type(p, vertex, u_side)
    if r == 1:
        return
    eps = (eps * len(hj_expand(r, q)))[:len(hj_expand(r, q))]
    _assert_same_chop(_outcome(chop_corner, p, vertex, u_side, epsilons=eps),
                      _outcome(ref_chop_corner, p, vertex, u_side, epsilons=eps))


def test_reorder_rejection_is_reachable():
    p = presentation(weight_triple(2, 3, 5), 1).polygon
    res, err = _outcome(chop_corner, p, 1, "next", epsilons=[Fraction(7)])
    assert res is None and err == (ChopsOverlap, "chop at vertex 1 broke the vertex cycle")


# --- blowups ------------------------------------------------------------------------------


# (index, how the lattice is made, the lattice); the rank-1 source with a ruled
# head (index 7) is gone: a head larger than the rank is refused
BLOWUP_SOURCES = (
    (0, "cp2", cp2_lattice(0)),
    (1, "cp2", cp2_lattice(6)),
    (2, "hirz", hirz_lattice(0, 1)),
    (3, "hirz", hirz_lattice(3, 4)),
    (4, "hirz", Lattice(((0, 1), (1, -1)), 4, canonical={0: -3, 1: -2, 2: 1, 3: 2})),
    (5, "hirz", Lattice(((0, 1), (1, -2)), 3, canonical={0: -4, 1: -2})),
    (6, "cp2", Lattice(((1,),), 4, canonical={0: -3, 1: 1, 2: 1})),
    (8, "cp2", Lattice(((1,),), 3)),
    (9, "hirz", Lattice(((0, 1), (1, -5)), 2)),
    (10, "generic", generic_lattice(((0, 1), (1, -2)), canonical={0: -4, 1: -2})),
    (11, "generic", generic_lattice(((1,),))),
)


@pytest.mark.parametrize(
    "lat",
    [lat for _i, _kind, lat in BLOWUP_SOURCES],
    ids=[f"{i}-{kind}-{lat.rank}" for i, kind, lat in BLOWUP_SOURCES],
)
def test_blowup_matches_a_fresh_lattice(lat):
    """Five blowups in a row, each equal to the lattice the public constructor
    builds from the same fields, with the same closed-form canonical pairing."""
    for _ in range(5):
        got, ref = lat.blowup(), ref_blowup(lat)
        fresh = Lattice(got.head, got.rank, canonical=got.canonical)
        assert got == ref == fresh
        assert got._kc == ref._kc == fresh._kc
        assert got._rows == ref._rows == fresh._rows
        lat = got


def test_blowup_keeps_the_standard_flag_of_ledger_lattices():
    assert cp2_lattice(4).blowup()._kc == (-2,)
    assert hirz_lattice(2, 3).blowup()._kc == (-1, 1)
    assert Lattice(((0, 1), (1, -1)), 4, canonical={0: -3, 1: -2, 2: 1, 3: 2}).blowup()._kc is None


# --- area transport -----------------------------------------------------------------------


def _converted_areas():
    for t in ((2, 3, 5), (5, 7, 9), (11, 13, 14), (2, 39, 41), (5, 33, 49)):
        for idx in range(1, 7):
            for sched in (None, (Fraction(1, 3), Fraction(1, 5))):
                rp = build_resolution(*t, presentation=idx, schedule=sched)
                if rp.terminal == "hirz":
                    pc = assign_classes(rp.polygon)
                    yield pc.area, to_cp2(pc.lattice)[2]


def test_transport_area_matches_from_scaled_on_ledger_forms():
    n = 0
    for area, t_inv in _converted_areas():
        got, ref = transport_area(area, t_inv), ref_transport_area(area, t_inv)
        assert (got._ints, got._den) == (ref._ints, ref._den)
        n += 1
    assert n > 20


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(0, 9),
    ints=st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=12),
    den=st.integers(1, 10**4),
)
def test_transport_area_matches_from_scaled_on_drawn_forms(k, ints, den):
    area = AreaForm.from_scaled(ints, den)
    t_inv = _hirz_block(k, 3)[1]
    got, ref = transport_area(area, t_inv), ref_transport_area(area, t_inv)
    assert (got._ints, got._den) == (ref._ints, ref._den)


# --- the canonical certificate ------------------------------------------------------------


@pytest.mark.parametrize("k", range(8))
def test_block_certificate_agrees_with_the_full_comparison(k, monkeypatch):
    """Both parities of k at ranks 2..40: to_cp2 accepts the standard class
    exactly when converting the whole class matches the returned one, for
    the standard cp2 class and for targets off by one in a block slot (the
    last slot, when it lies in the block). A target off the block is not
    the certificate's to catch: the returned lattice is cp2_lattice(rank -
    1), which has that rank and holds 1 on every tail slot, as checked
    here."""
    targets = {}
    monkeypatch.setattr(homlat, "cp2_lattice", lambda n: targets[n + 1])
    for rank in range(2, 41):
        if k % 2 == 0 and rank < 3:
            continue
        lat = hirz_lattice(k, rank - 2)
        b = min(3, rank)
        t = _hirz_block(k, b)[0]
        real = cp2_lattice(rank - 1)
        assert real.rank == rank
        assert real.canonical == {0: -3, **dict.fromkeys(range(1, rank), 1)}
        std = real.canonical
        slots = sorted({0, 1, rank - 1} & set(range(b)))
        variants = [std] + [{**std, s: std.get(s, 0) + 1} for s in slots]
        for kt in variants:
            targets[rank] = Lattice(((1,),), rank, canonical=kt)
            full = mat_vec(t, lat.canonical) == kt
            assert full == (kt is std)
            if full:
                assert to_cp2(lat)[0].canonical == kt
            else:
                with pytest.raises(WppError, match="^canonical class does not convert"):
                    to_cp2(lat)


def test_block_certificate_rejects_a_wrong_head(monkeypatch):
    """A wrong cached T fails the certificate: the head of T K is converted
    from K's head on every call, not cached."""
    _t, t_inv, images, gram = _hirz_block(3, 3)
    wrong = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    monkeypatch.setitem(homlat._BLOCK_CACHE, (3, 3), (wrong, t_inv, images, gram))
    with pytest.raises(WppError, match="^canonical class does not convert"):
        to_cp2(hirz_lattice(3, 4))


def test_nonstandard_canonical_class_is_compared_in_full():
    """A K off 1 on a tail slot cannot convert to the standard class, whose
    tail holds 1 everywhere, and is rejected."""
    lat = Lattice(((0, 1), (1, -1)), 5, canonical={0: -3, 1: -2, 2: 1, 3: 1, 4: 2})
    assert lat._kc is None
    with pytest.raises(WppError, match="^canonical class does not convert"):
        to_cp2(lat)
    _out, t, _t_inv = to_cp2(Lattice(((0, 1), (1, -1)), 5))
    assert mat_vec(t, lat.canonical) != cp2_lattice(4).canonical
