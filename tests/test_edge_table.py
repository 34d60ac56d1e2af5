"""Differential and mutation tests: edge data read from the direction table.

Self-intersections come from determinants of the primitive edge directions,
and build_resolution finds corners and connectors by tracking the three
triangle sides through the chop edge maps. The reference functions below are
copies of the earlier implementation: self-intersections from the normal
relation n_{i-1} + n_{i+1} = -s n_i, and corners and connectors found by a
geometric search over the vertices of each polygon.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

from wpp import resolution
from wpp.arith import hj_expand, weight_triple
from wpp.errors import LemmaViolated, NotDelzantNeighborhood
from wpp.polygon import (
    CORNER_CYCLE,
    LatticePolygon,
    chop_corner,
    corner_type,
    edge_selfint,
    edge_selfints,
    polygon,
    presentation,
)
from wpp.resolution import CONNECTOR_OF_PAIR, build_resolution
from wpp.rulings import boundary_elements

# the triples whose reports tests/test_golden_outputs.py pins
GOLDEN_TRIPLES = (
    (2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7), (3, 5, 7), (5, 7, 9), (4, 9, 11),
    (7, 8, 15), (11, 13, 14), (2, 9, 19), (13, 17, 19), (2, 39, 41), (5, 33, 49),
)
SCHEDULES = (None, (Fraction(1, 3), Fraction(1, 5)))


# --- reference: normal relation and geometric search ----------------------------


def ref_inward_normal(p, i):
    dx, dy = p.direction(i)
    return (-dy, dx)


def ref_edge_selfint(p, i):
    """The earlier edge_selfint: solve n_{i-1} + n_{i+1} = -s n_i."""
    i %= p.n
    for v_idx in (i, (i + 1) % p.n):
        if corner_type(p, v_idx, "prev")[0] != 1:
            raise NotDelzantNeighborhood(f"corner at vertex {v_idx} is not Delzant")
    n_prev, n_cur, n_next = (ref_inward_normal(p, j) for j in (i - 1, i, i + 1))
    x = (n_prev[0] + n_next[0], n_prev[1] + n_next[1])
    s_num, s_den = (-x[0], n_cur[0]) if n_cur[0] else (-x[1], n_cur[1])
    if s_num % s_den:
        raise LemmaViolated(f"normal relation not integral at edge {i}")
    s = s_num // s_den
    if (-s * n_cur[0], -s * n_cur[1]) != x:
        raise LemmaViolated(f"normal relation inconsistent at edge {i}")
    return s


def ref_primitive(dx, dy):
    g = math.gcd(dx, dy)
    return (dx // g, dy // g)


def ref_chop_all(w, idx, schedule=None, epsilons=None):
    """The earlier corner and connector search of build_resolution: each
    corner's vertex by its rescaled point, its u side by comparing the
    direction toward the next corner with both edges, and each connector as
    the one edge collinear with a triangle side. Returns the final polygon,
    the string edge ids per corner label and the connector edge ids."""
    pres = presentation(w, idx)
    poly0 = pres.polygon
    corner_pos = {lab: poly0.ipts[v] for lab, v in pres.corner_vertex.items()}
    cur = poly0
    chop_edges = {}
    for lab in "ABC":
        x, y = corner_pos[lab]
        vi = cur.ipts.index((x * cur.den // poly0.den, y * cur.den // poly0.den))
        tx, ty = corner_pos[CORNER_CYCLE[lab]]
        u_target = ref_primitive(tx - x, ty - y)
        back = cur.direction(vi - 1)
        if u_target == (-back[0], -back[1]):
            u_side = "prev"
        elif u_target == cur.direction(vi):
            u_side = "next"
        else:
            raise LemmaViolated(f"corner {lab}: no edge toward {CORNER_CYCLE[lab]}")
        eps = None if epsilons is None else epsilons.get(lab)
        res = chop_corner(cur, vi, u_side, epsilons=eps, schedule=schedule)
        for lst in chop_edges.values():
            lst[:] = [res.edge_map[i] for i in lst]
        chop_edges[lab] = list(res.new_edge_indices)
        cur = res.polygon

    pos_to_label = {pt: lab for lab, pt in corner_pos.items()}
    d0, d1 = poly0.den, cur.den
    connectors = {}
    for e in range(3):
        aa, bb = poly0.ipts[e], poly0.ipts[(e + 1) % 3]
        name = CONNECTOR_OF_PAIR[frozenset({pos_to_label[aa], pos_to_label[bb]})]
        sx, sy = ref_primitive(bb[0] - aa[0], bb[1] - aa[1])
        hits = [
            i
            for i, (d, va) in enumerate(zip(cur.directions, cur.ipts))
            if (d == (sx, sy) or d == (-sx, -sy))
            and (va[0] * d0 - aa[0] * d1) * sy == (va[1] * d0 - aa[1] * d1) * sx
        ]
        if len(hits) != 1:
            raise LemmaViolated(f"connector {name}: {len(hits)} candidate edges")
        connectors[name] = hits[0]
    return cur, chop_edges, connectors


def assert_matches_reference(rp, ref):
    cur, chop_edges, connectors = ref
    assert rp.polygon == cur
    assert rp.edge_sels == tuple(ref_edge_selfint(cur, i) for i in range(cur.n))
    for lab, role in (("A", "a"), ("B", "b"), ("C", "c")):
        assert rp.strings[role].edge_ids == tuple(chop_edges[lab])
    assert {k: c.edge_id for k, c in rp.connectors.items()} == connectors
    assert list(rp.connectors) == list(connectors)


def assert_cycle_walks_the_polygon(rp):
    """Consecutive boundary elements are consecutive polygon edges, all
    stepped in one direction around the polygon."""
    ids = [el.edge_id for el in boundary_elements(rp)]
    m = rp.polygon.n
    assert sorted(ids) == list(range(m))
    steps = {(ids[(k + 1) % m] - ids[k]) % m for k in range(m)}
    assert steps in ({1}, {m - 1})


# --- differential tests ----------------------------------------------------------


@pytest.mark.parametrize("triple", GOLDEN_TRIPLES)
@pytest.mark.parametrize("sched", SCHEDULES, ids=("default", "third-fifth"))
def test_build_matches_reference(triple, sched):
    w = weight_triple(*triple)
    for idx in range(1, 7):
        rp = build_resolution(*triple, presentation=idx, schedule=sched)
        assert_matches_reference(rp, ref_chop_all(w, idx, schedule=sched))
        assert_cycle_walks_the_polygon(rp)


def test_explicit_epsilons_match_reference():
    """The per-corner depths of the explicit-epsilon build in
    tests/test_integer_geometry.py, on every presentation they fit."""
    w = weight_triple(5, 7, 9)
    residues = {"A": (w.a, w.a_b), "B": (w.b, w.b_c), "C": (w.c, w.c_a)}
    eps = {
        lab: [Fraction(1, 7 + 2 * j + ord(lab)) / (j + 1) for j in range(len(hj_expand(*wr)))]
        for lab, wr in residues.items()
    }
    for idx in range(1, 7):
        rp = build_resolution(5, 7, 9, presentation=idx, epsilons=eps)
        assert rp.polygon.den > 1
        assert_matches_reference(rp, ref_chop_all(w, idx, epsilons=eps))


def test_selfints_match_reference_on_small_polygons():
    for pts in ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (1, 1), (0, 1)],
                [(0, 0), (2, 0), (1, 1), (0, 1)], [(0, 0), (3, 0), (3, 1), (0, 4)]):
        q = polygon(pts)
        assert edge_selfints(q) == tuple(ref_edge_selfint(q, i) for i in range(q.n))


# --- mutations -------------------------------------------------------------------


def test_non_delzant_far_corner_only():
    # vertex 0 is Delzant, vertex 1 = (1, 0) has type (2, 1): edge 0 has a
    # smooth start and a singular end
    q = polygon([(0, 0), (1, 0), (0, 2)])
    assert q.ipts[0] == (0, 0) and q.ipts[1] == (1, 0)
    assert corner_type(q, 0) == (1, 0) and corner_type(q, 1)[0] == 2
    for impl in (edge_selfint, ref_edge_selfint):
        with pytest.raises(NotDelzantNeighborhood, match="vertex 1 "):
            impl(q, 0)


def _patch_chop(monkeypatch, wrap):
    """Route the chops of build_resolution through wrap(k, real, ...), where
    k counts the chops from 1 and real is the library chop_corner."""
    real = resolution.chop_corner
    calls = itertools.count(1)

    def chop(p, i, u_side, **kwargs):
        return wrap(next(calls), real, p, i, u_side, **kwargs)

    monkeypatch.setattr(resolution, "chop_corner", chop)


@pytest.mark.parametrize("idx", range(1, 7))
def test_flipped_u_side_fails_the_corner_type_check(monkeypatch, idx):
    # corner A of (11, 13, 14) has type (11, 7); from its other side it reads
    # (11, 8), since 7 * 8 = 1 mod 11
    flip = {"prev": "next", "next": "prev"}
    _patch_chop(monkeypatch, lambda k, real, p, i, u, **kw: real(p, i, flip[u], **kw))
    with pytest.raises(LemmaViolated, match=r"corner A has type \(11, 8\)"):
        build_resolution(11, 13, 14, presentation=idx)


@pytest.mark.parametrize("triple", ((2, 3, 5), (3, 8, 11)))
@pytest.mark.parametrize("idx", range(1, 7))
def test_flipped_u_side_at_self_inverse_corners_fails_the_orientation_check(
    monkeypatch, triple, idx
):
    # every corner type (r, q) of these triples has q^2 = 1 mod r, so a chop
    # from the wrong side keeps the type; the string then starts at the
    # wrong connector
    flip = {"prev": "next", "next": "prev"}
    _patch_chop(monkeypatch, lambda k, real, p, i, u, **kw: real(p, i, flip[u], **kw))
    with pytest.raises(LemmaViolated, match=r"string c: edge \d+ does not meet N_b"):
        build_resolution(*triple, presentation=idx)


@pytest.mark.parametrize("triple", ((2, 3, 5), (11, 13, 14)))
@pytest.mark.parametrize("shift", (1, -1))
def test_connector_on_a_neighbouring_edge_is_rejected(monkeypatch, triple, shift):
    for idx in range(1, 7):
        good = build_resolution(*triple, presentation=idx)
        for name, conn in good.connectors.items():
            def wrap(k, real, p, i, u, _target=conn.edge_id, **kw):
                res = real(p, i, u, **kw)
                if k < 3:
                    return res
                n = res.polygon.n
                edge_map = {
                    j: (t + shift) % n if t == _target else t for j, t in res.edge_map.items()
                }
                return dataclasses.replace(res, edge_map=edge_map)

            with monkeypatch.context() as mp:
                _patch_chop(mp, wrap)
                with pytest.raises(LemmaViolated, match=f"connector {name}: edge"):
                    build_resolution(*triple, presentation=idx)


@pytest.mark.parametrize("idx", range(1, 7))
def test_connector_off_its_triangle_line_is_rejected(monkeypatch, idx):
    """Translating the final polygon by (1, 0) keeps every direction, so only
    the check that a connector starts on its side's line can catch it."""
    def wrap(k, real, p, i, u, **kw):
        res = real(p, i, u, **kw)
        if k < 3:
            return res
        q = res.polygon
        moved = LatticePolygon(tuple((x + q.den, y) for x, y in q.ipts), q.den)
        return dataclasses.replace(res, polygon=moved)

    _patch_chop(monkeypatch, wrap)
    with pytest.raises(LemmaViolated, match="off its triangle side"):
        build_resolution(2, 3, 5, presentation=idx)
