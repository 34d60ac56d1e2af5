"""Moment polygons: corner types, corner chops, edge classes."""

import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpp.arith import hj_expand, weight_triple
from wpp.errors import (
    ChopsOverlap,
    InvalidPolygon,
    NotDelzantNeighborhood,
    UserInputError,
)
from wpp.homlat import CP2_HEAD, AreaForm, cp2_lattice, hirz_lattice
from wpp.polygon import (
    PolygonClasses,
    _cross_sum,
    _validated,
    assign_classes,
    chop_corner,
    corner_type,
    edge_selfint,
    edge_selfints,
    polygon,
    presentation,
)
from wpp.resolution import build_resolution
from wpp.scan import coprime_triples
from test_build_fast_paths import ref_chop_depths

W235 = weight_triple(2, 3, 5)
W11 = weight_triple(11, 13, 14)


# --- copies of product code that only tests called ------------------------------


def ref_edge_length(p, i):
    """Lattice length: the edge vector divided by its primitive direction."""
    return Fraction(p.length_scaled(i), p.den)


def ref_area2(p):
    return Fraction(_cross_sum(p.ipts), p.den * p.den)


def ref_default_epsilons(p, i, k, schedule=None):
    """The chop depths a build takes, as Fractions."""
    return [Fraction(num, den) for num, den in ref_chop_depths(p, i, k, schedule)]


def ref_presentations(w):
    """The six moment triangles of a weight triple."""
    return tuple(presentation(w, i) for i in range(1, 7))


def chop_all_corners(w, pres):
    """Chop every corner of a moment triangle, tracking edge ids per corner."""
    w_expected = {
        "A": (w.a, w.a_b),
        "B": (w.b, w.b_c),
        "C": (w.c, w.c_a),
    }
    cur = pres.polygon
    corner_pos = {lab: cur.vertices[i] for lab, i in pres.corner_vertex.items()}
    chops = {}
    for lab in "ABC":
        vi = cur.vertices.index(corner_pos[lab])
        chosen = None
        for side in ("prev", "next"):
            r = chop_corner(cur, vi, side)
            if r.corner == w_expected[lab]:
                chosen = r
                break
        assert chosen is not None
        for k in chops:
            chops[k] = [chosen.edge_map[i] for i in chops[k]]
        chops[lab] = list(chosen.new_edge_indices)
        cur = chosen.polygon
    return cur, chops


class TestFactory:
    def test_rejects_degenerate(self):
        with pytest.raises(InvalidPolygon):
            polygon([(0, 0), (1, 0)])
        with pytest.raises(InvalidPolygon):
            polygon([(0, 0), (1, 0), (2, 0), (0, 1)])  # collinear triple
        with pytest.raises(InvalidPolygon):
            polygon([(0, 0), (1, 0), (1, 0), (0, 1)])  # repeated vertex

    def test_normalizes_orientation(self):
        q = polygon([(0, 0), (0, 1), (1, 0)])
        assert ref_area2(q) == 1
        # stored counterclockwise regardless of input order
        cross = (
            (q.vertices[1][0] - q.vertices[0][0]) * (q.vertices[2][1] - q.vertices[1][1])
            - (q.vertices[1][1] - q.vertices[0][1]) * (q.vertices[2][0] - q.vertices[1][0])
        )
        assert cross > 0

    def test_fractional_vertices(self):
        q = polygon([(0, 0), (Fraction(3, 2), 0), (0, Fraction(1, 2))])
        assert ref_area2(q) == Fraction(3, 4)

    def test_basic_accessors(self):
        q = polygon([(0, 0), (2, 0), (0, 2)])
        assert q.n == 3
        assert q.direction(0) == (1, 0)
        assert q.direction(3) == q.direction(0)
        assert ref_edge_length(q, 0) == 2


class TestCornerType:
    def test_first_triangle_golden(self):
        pres = presentation(W235, 1)
        poly = pres.polygon
        assert corner_type(poly, pres.corner_vertex["A"]) == (2, 1)
        assert corner_type(poly, pres.corner_vertex["B"]) == (3, 1)
        assert corner_type(poly, pres.corner_vertex["C"]) == (5, 4)

    def test_side_gives_inverse_residue(self):
        pres = presentation(W11, 1)
        poly = pres.polygon
        ai = pres.corner_vertex["A"]
        types = {corner_type(poly, ai, "prev"), corner_type(poly, ai, "next")}
        assert types == {(11, 7), (11, 8)}
        assert (7 * 8) % 11 == 1

    def test_smooth_corner(self):
        q = polygon([(0, 0), (1, 0), (0, 1)])
        for i in range(3):
            assert corner_type(q, i) == (1, 0)


class TestChop:
    def test_chop_smooth_weight_corner(self):
        pres = presentation(W235, 1)
        res = chop_corner(pres.polygon, pres.corner_vertex["A"], "prev")
        assert res.corner == (2, 1)
        assert res.entries == (2,)
        assert len(res.new_edge_indices) == 1
        assert res.polygon.n == 4

    def test_chop_hj_corner(self):
        pres = presentation(W235, 1)
        res = chop_corner(pres.polygon, pres.corner_vertex["C"], "prev")
        assert res.corner == (5, 4)
        assert res.entries == tuple(hj_expand(5, 4))
        assert res.new_edge_indices == (0, 1, 2, 3)
        # surviving old edges shift past the inserted ones
        assert res.edge_map == {0: 4, 1: 5, 2: 6}

    def test_area_drops_by_chop(self):
        pres = presentation(W235, 1)
        res = chop_corner(pres.polygon, pres.corner_vertex["C"], "prev")
        assert ref_area2(res.polygon) < ref_area2(pres.polygon)

    def test_epsilon_overlap_detected(self):
        pres = presentation(W235, 1)
        with pytest.raises(ChopsOverlap):
            chop_corner(
                pres.polygon,
                pres.corner_vertex["C"],
                "prev",
                epsilons=[Fraction(10)] * 4,
            )

    def test_default_epsilons_strictly_shrink(self):
        pres = presentation(W235, 1)
        eps = ref_default_epsilons(pres.polygon, 0, 4)
        assert len(eps) == 4
        assert all(e > 0 for e in eps)
        assert all(eps[i] > eps[i + 1] for i in range(3))


class TestFullChopSequence:
    def test_nine_edges_and_selfints(self):
        pres = presentation(W235, 1)
        cur, chops = chop_all_corners(W235, pres)
        assert cur.n == 9
        sels = edge_selfints(cur)
        assert sels == (-2, -2, -2, -2, -1, -3, 0, -2, -1)
        assert chops == {"A": [7], "B": [5], "C": [0, 1, 2, 3]}
        # string selfints land where the weights say
        assert [sels[i] for i in chops["A"]] == [-2]
        assert [sels[i] for i in chops["B"]] == [-3]
        assert [sels[i] for i in chops["C"]] == [-2, -2, -2, -2]

    def test_noether_sum(self):
        for w in (W235, W11):
            for idx in (1, 4):
                cur, _ = chop_all_corners(w, presentation(w, idx))
                sels = edge_selfints(cur)
                assert sum(sels) == 12 - 3 * cur.n

    def test_selfint_requires_smooth_corners(self):
        pres = presentation(W235, 1)
        with pytest.raises(NotDelzantNeighborhood):
            edge_selfint(pres.polygon, 0)


class TestAssignClasses:
    def test_projective_plane(self):
        pc = assign_classes(polygon([(0, 0), (1, 0), (0, 1)]))
        assert pc.lattice.head == CP2_HEAD
        assert pc.lattice.rank == 1
        assert pc.edge_classes == ({0: 1}, {0: 1}, {0: 1})
        assert pc.terminal == "cp2"
        assert pc.terminal_k == 0
        assert pc.contraction_ids == ()

    def test_product_quadric(self):
        pc = assign_classes(polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert pc.lattice.head == ((0, 1), (1, 0))
        assert pc.lattice.rank == 2
        assert pc.edge_classes == ({0: 1}, {1: 1}, {0: 1}, {1: 1})
        assert pc.terminal == "hirz"

    def test_one_point_blowup(self):
        q = polygon([(0, 0), (2, 0), (1, 1), (0, 1)])
        assert edge_selfints(q) == (1, 0, -1, 0)
        pc = assign_classes(q)
        assert pc.lattice.head == CP2_HEAD
        assert pc.lattice.rank == 2
        assert pc.contraction_ids == (2,)
        assert pc.terminal == "cp2"
        # the -1 edge is the exceptional class
        assert pc.lattice.sq(pc.edge_classes[2]) == -1

    def test_classes_reproduce_intersections(self):
        pres = presentation(W235, 1)
        cur, _ = chop_all_corners(W235, pres)
        pc = assign_classes(cur)
        lat = pc.lattice
        sels = edge_selfints(cur)
        m = cur.n
        for i in range(m):
            assert lat.sq(pc.edge_classes[i]) == sels[i]
            for j in range(m):
                if i == j:
                    continue
                adjacent = (j - i) % m in (1, m - 1)
                assert lat.pair(pc.edge_classes[i], pc.edge_classes[j]) == (
                    1 if adjacent else 0
                )

    def test_terminal_model_golden(self):
        pres = presentation(W235, 1)
        cur, _ = chop_all_corners(W235, pres)
        pc = assign_classes(cur)
        assert pc.terminal == "hirz"
        assert pc.terminal_k == 2
        assert len(pc.contraction_ids) == cur.n - 4

    def test_area_form_positive_on_edges(self):
        pres = presentation(W235, 1)
        cur, _ = chop_all_corners(W235, pres)
        pc = assign_classes(cur)
        for i, cls in enumerate(pc.edge_classes):
            assert pc.area.area(cls) == ref_edge_length(cur, i)


class TestPresentations:
    def test_six_per_triple(self):
        ps = ref_presentations(W11)
        assert len(ps) == 6
        assert [p.index for p in ps] == [1, 2, 3, 4, 5, 6]
        for p in ps:
            assert ref_area2(p.polygon) == 11 * 13 * 14
            assert set(p.corner_vertex) == {"A", "B", "C"}

    def test_triangles_differ(self):
        ps = ref_presentations(W11)
        assert len({p.polygon.vertices for p in ps}) == 6

    def test_index_range(self):
        for bad in (0, 7, -3):
            with pytest.raises(UserInputError):
                presentation(W235, bad)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(2, 3, 5), (2, 3, 7), (3, 4, 5), (11, 13, 14), (5, 7, 9)]),
           st.integers(1, 6))
    def test_corner_types_are_weight_residues(self, triple, idx):
        w = weight_triple(*triple)
        pres = presentation(w, idx)
        got = set()
        for lab, vi in pres.corner_vertex.items():
            p, _ = corner_type(pres.polygon, vi)
            got.add(p)
        assert got == {w.a, w.b, w.c}


# --- the contraction ledger against the list loop it replaced ------------------


def ref_assign_classes(p):
    """The earlier assign_classes, without its verification: each step scans
    every remaining entry for (-1) edges and walks the list to remove the
    chosen one, O(n^2) in all."""
    sels = edge_selfints(p)
    m = p.n
    entries = [{"id": i, "s": sels[i], "len": p.length_scaled(i)} for i in range(m)]
    steps = []
    terminal_k = 0
    while True:
        cur = len(entries)
        if cur == 3:
            assert all(e["s"] == 1 for e in entries)
            assert len({e["len"] for e in entries}) == 1
            terminal = "cp2"
            break
        if cur == 4 and all(e["s"] != -1 for e in entries):
            ok_rot = next(
                i0
                for i0 in range(4)
                if entries[i0]["s"] == 0
                and entries[(i0 + 2) % 4]["s"] == 0
                and entries[(i0 + 1) % 4]["s"] == -entries[(i0 + 3) % 4]["s"] >= 0
            )
            terminal = "hirz"
            terminal_k = entries[(ok_rot + 1) % 4]["s"]
            entries = entries[ok_rot:] + entries[:ok_rot]
            break
        chosen = min((e for e in entries if e["s"] == -1), key=lambda e: e["id"])
        pos = entries.index(chosen)
        left = entries[(pos - 1) % cur]
        right = entries[(pos + 1) % cur]
        steps.append((chosen["id"], left["id"], right["id"], chosen["len"]))
        for e in (left, right):
            e["s"] += 1
            e["len"] += chosen["len"]
        entries.pop(pos)
    n_steps = len(steps)
    rank0 = 1 if terminal == "cp2" else 2
    classes = {}
    area_vals = [0] * (rank0 + n_steps)
    if terminal == "cp2":
        for e in entries:
            classes[e["id"]] = {0: 1}
        area_vals[0] = entries[0]["len"]
        lat = cp2_lattice(n_steps)
    else:
        f0, top, f1, bot = entries
        classes[f0["id"]] = {0: 1}
        classes[f1["id"]] = {0: 1}
        classes[top["id"]] = {0: terminal_k, 1: 1} if terminal_k else {1: 1}
        classes[bot["id"]] = {1: 1}
        area_vals[0] = f0["len"]
        area_vals[1] = bot["len"]
        lat = hirz_lattice(terminal_k, n_steps)
    for t in range(n_steps - 1, -1, -1):
        eid, lid, rid, ln = steps[t]
        b_idx = rank0 + (n_steps - 1 - t)
        classes[eid] = {b_idx: 1}
        classes[lid][b_idx] = -1
        classes[rid][b_idx] = -1
        area_vals[b_idx] = ln
    return PolygonClasses(
        lat,
        AreaForm.from_scaled(tuple(area_vals), p.den),
        tuple(classes[i] for i in range(m)),
        terminal,
        terminal_k,
        tuple(st[0] for st in steps),
    )


# the triples of the golden report digests, and the top of the resolve ladder
GOLDEN_TRIPLES = (
    (2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7), (3, 5, 7), (5, 7, 9), (4, 9, 11),
    (7, 8, 15), (11, 13, 14), (2, 9, 19), (13, 17, 19), (2, 39, 41), (5, 33, 49),
)


@pytest.mark.parametrize("w", GOLDEN_TRIPLES + ((2, 999, 1001),))
def test_ledger_matches_list_loop(w):
    terminals = set()
    for pres in range(1, 7):
        polygon_ = build_resolution(*w, presentation=pres).polygon
        got = assign_classes(polygon_)
        assert got == ref_assign_classes(polygon_), (w, pres)
        terminals.add(got.terminal)
    if w == (2, 3, 5):
        assert terminals == {"cp2", "hirz"}


# --- the vertex cycle turns once around -------------------------------------------------

PENTAGRAM = [(10, 0), (-8, 6), (3, -10), (3, 10), (-8, -6)]


def star(n, m, radius=10**6, phase=0.0, shift=(0, 0)):
    """The vertices of the star polygon {n/m}, rounded to integers: vertex j
    sits at angle 2 pi j m / n, so the cycle winds m times around its centre."""
    return [
        (round(radius * math.cos(phase + 2 * math.pi * j * m / n)) + shift[0],
         round(radius * math.sin(phase + 2 * math.pi * j * m / n)) + shift[1])
        for j in range(n)
    ]


def test_pentagram_is_rejected():
    """Every turn of the pentagram is a strict left turn, and its cross sum is
    positive; only the winding tells it from a convex pentagon."""
    with pytest.raises(InvalidPolygon, match="^edge directions turn 2 times around$"):
        polygon(PENTAGRAM)
    with pytest.raises(InvalidPolygon, match="^edge directions turn 2 times around$"):
        polygon(PENTAGRAM[::-1])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 13),
    m=st.integers(1, 6),
    phase=st.floats(0, 2 * math.pi),
    shift=st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    rev=st.booleans(),
)
def test_star_cycles_are_rejected(n, m, phase, shift, rev):
    """{n/m} with m > 1 turns m times around and is rejected; m = 1 is a
    convex polygon and is accepted, in either orientation."""
    if not (2 * m < n and math.gcd(n, m) == 1):
        return
    pts = star(n, m, phase=phase, shift=shift)
    if rev:
        pts = pts[::-1]
    if m == 1:
        assert polygon(pts).n == n
    else:
        with pytest.raises(InvalidPolygon, match=f"^edge directions turn {m} times around$"):
            polygon(pts)


def test_presentations_and_their_chops_turn_once(monkeypatch):
    """Every presentation triangle of coprime_triples(24), and every polygon
    the default chops of build_resolution make from it, passes _validated as
    it is: the winding test rejects none of them."""
    resolution_mod = importlib.import_module("wpp.resolution")
    made = []

    def spy(p, *args, **kwargs):
        res = chop_corner(p, *args, **kwargs)
        made.extend((p, res.polygon))
        return res

    monkeypatch.setattr(resolution_mod, "chop_corner", spy)
    for t in coprime_triples(24):
        for idx in range(1, 7):
            build_resolution(*t, presentation=idx)
    monkeypatch.undo()
    assert len(made) == 2 * 3 * 6 * len(coprime_triples(24))
    for p in made:
        assert _validated(list(p.ipts), p.den) == p
