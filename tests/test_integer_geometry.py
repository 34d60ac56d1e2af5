"""Differential tests: integer polygon geometry against the Fraction geometry
it replaced, and the slot-indexed nonadjacency check against the full
O(m^2) pair loop.

The reference functions below are copies of the earlier implementation, which
stored every vertex coordinate as a Fraction: validation, primitive
directions, lattice lengths, the corner chop, and the contraction ledger.
"""

import math
from fractions import Fraction

import pytest

from wpp.arith import ext_gcd, hj_expand, weight_triple
from wpp.errors import ChopsOverlap, InvalidPolygon, LemmaViolated
from wpp.homlat import AreaForm, dense, vadd
from wpp.polygon import (
    CORNER_CYCLE,
    assign_classes,
    chop_corner,
    corner_type,
    edge_selfints,
    polygon,
    presentation,
)
from test_build_fast_paths import ref_chop_depths
from test_verify_sweep import ref_reject_nonadjacent
from wpp.resolution import build_resolution

TRIPLES = ((2, 3, 5), (3, 4, 5), (5, 7, 9), (7, 8, 15), (11, 13, 14), (5, 33, 49), (2, 39, 41))
SCHEDULES = (None, (Fraction(1, 3), Fraction(1, 5)))


# --- reference: the Fraction geometry -------------------------------------------


def ref_validate(verts):
    """Counterclockwise strictly convex vertex tuple, or InvalidPolygon."""
    verts = [(Fraction(x), Fraction(y)) for x, y in verts]
    n = len(verts)
    if n < 3:
        raise InvalidPolygon("need at least three vertices")
    for i in range(n):
        if verts[i] == verts[(i + 1) % n]:
            raise InvalidPolygon("repeated consecutive vertex")
    s = sum(
        verts[i][0] * verts[(i + 1) % n][1] - verts[i][1] * verts[(i + 1) % n][0]
        for i in range(n)
    )
    if s == 0:
        raise InvalidPolygon("degenerate polygon")
    if s < 0:
        verts.reverse()
    for i in range(n):
        a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
        if (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) <= 0:
            raise InvalidPolygon(f"not strictly convex at vertex {(i + 1) % n}")
    return tuple(verts)


def ref_primitive(dx, dy):
    m = math.lcm(dx.denominator, dy.denominator)
    ix, iy = int(dx * m), int(dy * m)
    g = math.gcd(ix, iy)
    return (ix // g, iy // g)


def ref_edge(verts, i):
    n = len(verts)
    a, b = verts[i % n], verts[(i + 1) % n]
    return (b[0] - a[0], b[1] - a[1])


def ref_direction(verts, i):
    return ref_primitive(*ref_edge(verts, i))


def ref_length(verts, i):
    ev = ref_edge(verts, i)
    d = ref_direction(verts, i)
    return ev[0] / d[0] if d[0] else ev[1] / d[1]


def ref_chop(verts, i, u_side, eps):
    """The earlier chop_corner on a Fraction vertex tuple: the new vertices."""
    n = len(verts)
    back = ref_direction(verts, i - 1)
    toward_prev, toward_next = (-back[0], -back[1]), ref_direction(verts, i)
    u, w = (toward_prev, toward_next) if u_side == "prev" else (toward_next, toward_prev)
    r = abs(u[0] * w[1] - u[1] * w[0])
    if r == 1:
        raise AssertionError("reference chop called on a Delzant corner")
    _, gamma, delta = ext_gcd(u[0], u[1])
    q = (gamma * w[0] + delta * w[1]) % r
    entries = hj_expand(r, q)
    assert len(eps) == len(entries) and all(e > 0 for e in eps)
    dirs = [(-u[0], -u[1]), ((w[0] - q * u[0]) // r, (w[1] - q * u[1]) // r)]
    for b in entries[:-1]:
        prev, cur = dirs[-2], dirs[-1]
        dirs.append((b * cur[0] - prev[0], b * cur[1] - prev[1]))
    v = verts[i]
    chain = []
    rj, qj = r, q
    uu = u
    for j, b in enumerate(entries):
        e = Fraction(eps[j])
        chain.append((v[0] + e * uu[0], v[1] + e * uu[1]))
        v = (v[0] + (e / qj) * w[0], v[1] + (e / qj) * w[1])
        uu = (-dirs[j + 1][0], -dirs[j + 1][1])
        rj, qj = qj, b * qj - rj
    chain.append(v)
    ordered = chain if u_side == "prev" else list(reversed(chain))
    new_verts = list(verts[:i]) + ordered + list(verts[i + 1:])
    try:
        out = ref_validate(new_verts)
    except InvalidPolygon as exc:
        raise ChopsOverlap(str(exc)) from exc
    if out != tuple(new_verts):
        raise ChopsOverlap("broke the vertex cycle")
    assert len(out) == n + len(entries)
    return out


def ref_ledger(verts, sels):
    """The earlier contraction ledger on Fraction lengths: (contraction ids,
    area values, edge classes)."""
    m = len(verts)
    entries = [{"id": i, "s": sels[i], "len": ref_length(verts, i)} for i in range(m)]
    steps = []
    while True:
        cur = len(entries)
        if cur == 3:
            terminal, k = "cp2", 0
            assert len({e["len"] for e in entries}) == 1
            break
        if cur == 4 and all(e["s"] != -1 for e in entries):
            for i0 in range(4):
                s = [entries[(i0 + t) % 4]["s"] for t in range(4)]
                if s[0] == 0 and s[2] == 0 and s[1] == -s[3] and s[1] >= 0:
                    break
            terminal, k = "hirz", entries[(i0 + 1) % 4]["s"]
            entries = [entries[(i0 + t) % 4] for t in range(4)]
            break
        chosen = min((e for e in entries if e["s"] == -1), key=lambda e: e["id"])
        pos = entries.index(chosen)
        left, right = entries[(pos - 1) % cur], entries[(pos + 1) % cur]
        steps.append((chosen["id"], left["id"], right["id"], chosen["len"]))
        for nb in (left, right):
            nb["s"] += 1
            nb["len"] += chosen["len"]
        entries.pop(pos)
    rank0 = 1 if terminal == "cp2" else 2
    rank = rank0 + len(steps)
    vals = [Fraction(0)] * rank
    classes = {}
    if terminal == "cp2":
        for e in entries:
            classes[e["id"]] = [1] + [0] * (rank - 1)
        vals[0] = entries[0]["len"]
    else:
        f0, top, f1, bot = entries
        classes[f0["id"]] = [1, 0] + [0] * (rank - 2)
        classes[f1["id"]] = [1, 0] + [0] * (rank - 2)
        classes[top["id"]] = [k, 1] + [0] * (rank - 2)
        classes[bot["id"]] = [0, 1] + [0] * (rank - 2)
        vals[0], vals[1] = f0["len"], bot["len"]
    for t in range(len(steps) - 1, -1, -1):
        eid, lid, rid, ln = steps[t]
        b_idx = rank0 + (len(steps) - 1 - t)
        classes[eid] = [0] * rank
        classes[eid][b_idx] = 1
        classes[lid][b_idx] -= 1
        classes[rid][b_idx] -= 1
        vals[b_idx] = ln
    cls = tuple(tuple(classes[i]) for i in range(m))
    return tuple(s[0] for s in steps), tuple(vals), cls


def ref_nonadjacent_ok(lat, cls):
    """The earlier full-mode check: every nonadjacent pair, O(m^2)."""
    m = len(cls)
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            if lat.pair(cls[i], cls[j]) != 0:
                return False
    return True


def ref_check_nonadjacent(lat, cls):
    """The product's former nonadjacency check: LemmaViolated naming the first
    nonzero sparse gram entry of two nonadjacent edges of the cycle cls."""
    ref_reject_nonadjacent(lat.sparse_gram(cls), len(cls))


# --- copies of product code that only tests called ------------------------------


def ref_edge_length(p, i):
    """Lattice length: the edge vector divided by its primitive direction."""
    return Fraction(p.length_scaled(i), p.den)


def ref_default_epsilons(p, i, k, schedule=None):
    """The chop depths a build takes, as Fractions."""
    return [Fraction(num, den) for num, den in ref_chop_depths(p, i, k, schedule)]


def ref_values(area):
    return tuple(Fraction(v, area.denominator) for v in area._ints)


def ref_AreaForm(values):
    """The form of the Fraction values: over their least common denominator,
    in lowest terms."""
    den = math.lcm(*(v.denominator for v in values)) if values else 1
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = math.gcd(den, *ints)
    return AreaForm._lowest(tuple(v // g for v in ints), den // g)


# --- helpers ---------------------------------------------------------------------


def lcd(verts):
    return math.lcm(*(c.denominator for v in verts for c in v))


def assert_same_geometry(p, ref_verts):
    assert p.vertices == ref_verts
    assert p.den == lcd(ref_verts)
    assert math.gcd(p.den, *(c for pt in p.ipts for c in pt)) == 1
    for i in range(p.n):
        assert p.direction(i) == ref_direction(ref_verts, i)
        assert ref_edge_length(p, i) == ref_length(ref_verts, i)
        assert p.length_scaled(i) == ref_edge_length(p, i) * p.den
        # the edge vector is its primitive direction times its lattice length
        assert tuple(c * ref_edge_length(p, i) for c in p.direction(i)) == ref_edge(ref_verts, i)


def chop_sides(w, pres):
    """(label, corner point, u side) of each corner in chop order, as
    build_resolution picks them: the u side is the edge toward the next
    corner of the cycle A -> B -> C -> A."""
    verts = pres.polygon.vertices
    out = []
    for lab in "ABC":
        vi = pres.corner_vertex[lab]
        target = verts[pres.corner_vertex[CORNER_CYCLE[lab]]]
        toward = ref_primitive(target[0] - verts[vi][0], target[1] - verts[vi][1])
        side = "next" if toward == ref_direction(verts, vi) else "prev"
        out.append((lab, verts[vi], side))
    return out


def walk(triple, idx, eps_for):
    """Chop all three corners with both implementations; eps_for(p, vi, k)
    gives the depths. Returns the final polygon and its reference vertices."""
    w = weight_triple(*sorted(triple))
    pres = presentation(w, idx)
    cur = pres.polygon
    ref = ref_validate(cur.vertices)
    assert_same_geometry(cur, ref)
    for lab, pt, side in chop_sides(w, pres):
        vi = cur.vertices.index(pt)
        k = len(hj_expand(*corner_type(cur, vi, side)))
        eps = eps_for(cur, vi, k)
        ref = ref_chop(ref, vi, side, eps)
        cur = chop_corner(cur, vi, side, epsilons=eps).polygon
        assert_same_geometry(cur, ref)
    return cur, ref


# --- tests -----------------------------------------------------------------------


class TestFactory:
    def test_den_is_least_common_denominator(self):
        q = polygon([(Fraction(1, 6), 0), (Fraction(3, 2), Fraction(1, 4)), (0, Fraction(2, 3))])
        assert q.den == 12
        assert q.ipts == ((2, 0), (18, 3), (0, 8))
        assert_same_geometry(q, ref_validate(q.vertices))

    def test_integer_polygon_has_den_one(self):
        q = polygon([(0, 0), (0, 3), (6, 0)])
        assert q.den == 1
        assert q.ipts == ((6, 0), (0, 3), (0, 0))  # reversed to counterclockwise
        assert [q.length_scaled(i) for i in range(3)] == [3, 3, 6]
        assert_same_geometry(q, ref_validate([(0, 0), (0, 3), (6, 0)]))

    def test_chop_drops_the_denominator_of_the_removed_vertex(self):
        # the only half-integral vertex is the one chopped away: the result
        # is an integer polygon again
        q = polygon([(Fraction(1, 2), Fraction(1, 2)), (-3, -3), (-2, 3)])
        vi = q.vertices.index((Fraction(1, 2), Fraction(1, 2)))
        assert q.den == 2 and corner_type(q, vi) == (2, 1)
        cases = ((Fraction(1, 2), ((0, 0), (0, 1))), (Fraction(3, 2), ((-1, -1), (-1, 2))))
        for eps, tail in cases:
            out = chop_corner(q, vi, "prev", epsilons=[eps]).polygon
            assert out.den == 1
            assert out.ipts == ((-2, 3), (-3, -3)) + tail
            assert_same_geometry(out, ref_chop(q.vertices, vi, "prev", [eps]))

    def test_same_rejections(self):
        for pts in ([(0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0), (0, 1)],
                    [(0, 0), (1, 0), (1, 0), (0, 1)],
                    [(0, 0), (2, 0), (1, Fraction(1, 3)), (2, 2), (0, 2)]):
            with pytest.raises(InvalidPolygon):
                ref_validate(pts)
            with pytest.raises(InvalidPolygon):
                polygon(pts)


@pytest.mark.parametrize("triple", TRIPLES)
@pytest.mark.parametrize("sched", SCHEDULES, ids=("default", "third-fifth"))
def test_default_chops_and_ledger_match_reference(triple, sched):
    for idx in range(1, 7):
        cur, ref = walk(triple, idx, lambda p, vi, k: ref_default_epsilons(p, vi, k, sched))
        pc = assign_classes(cur)
        ids, vals, cls = ref_ledger(ref, edge_selfints(cur))
        assert pc.contraction_ids == ids
        assert tuple(dense(x, pc.lattice.rank) for x in pc.edge_classes) == cls
        assert ref_values(pc.area) == vals
        old_form = ref_AreaForm(vals)
        assert (pc.area._ints, pc.area._den) == (old_form._ints, old_form._den)
        # and the build itself uses the same geometry
        rp = build_resolution(*triple, presentation=idx, schedule=sched)
        assert rp.polygon == cur


@pytest.mark.parametrize("triple", ((2, 3, 5), (5, 7, 9), (11, 13, 14), (2, 39, 41)))
def test_explicit_epsilons_match_reference(triple):
    """Depths with unrelated denominators: the shared denominator grows and
    is reduced back to the least one after every chop."""
    def eps_for(p, vi, k):
        short = min(ref_edge_length(p, vi - 1), ref_edge_length(p, vi))
        return [short * Fraction(2, 7) / (j + 2) ** 2 for j in range(k)]

    for idx in range(1, 7):
        cur, ref = walk(triple, idx, eps_for)
        ids, vals, _ = ref_ledger(ref, edge_selfints(cur))
        pc = assign_classes(cur)
        assert pc.contraction_ids == ids
        assert ref_values(pc.area) == vals


def test_explicit_epsilons_through_build_resolution():
    w = weight_triple(5, 7, 9)
    residues = {"A": (w.a, w.a_b), "B": (w.b, w.b_c), "C": (w.c, w.c_a)}
    eps = {
        lab: [Fraction(1, 7 + 2 * j + ord(lab)) / (j + 1) for j in range(len(hj_expand(*wr)))]
        for lab, wr in residues.items()
    }
    rp = build_resolution(5, 7, 9, epsilons=eps)
    assert rp.polygon.den == lcd(rp.polygon.vertices)
    assert rp.polygon.den > 1


@pytest.mark.parametrize("triple", ((2, 3, 5), (11, 13, 14), (5, 33, 49)))
@pytest.mark.parametrize("scale", (Fraction(1), Fraction(3, 2), Fraction(10)))
def test_oversized_depths_overlap_in_both(triple, scale):
    """Depths of a whole adjacent edge or more break convexity or the vertex
    cycle; both implementations reject them with ChopsOverlap."""
    w = weight_triple(*triple)
    for idx in (1, 4):
        pres = presentation(w, idx)
        cur = pres.polygon
        for lab, pt, side in chop_sides(w, pres):
            vi = cur.vertices.index(pt)
            k = len(hj_expand(*corner_type(cur, vi, side)))
            longest = max(ref_edge_length(cur, vi - 1), ref_edge_length(cur, vi))
            eps = [longest * scale] * k
            with pytest.raises(ChopsOverlap):
                ref_chop(cur.vertices, vi, side, eps)
            with pytest.raises(ChopsOverlap):
                chop_corner(cur, vi, side, epsilons=eps)
            cur = chop_corner(cur, vi, side).polygon


# --- nonadjacent pairs -------------------------------------------------------------

VERIFY_TRIPLES = ((2, 3, 5), (3, 4, 5), (11, 13, 14), (5, 33, 49), (2, 15, 17), (2, 39, 41))


@pytest.mark.parametrize("triple", VERIFY_TRIPLES)
def test_linked_pairs_cover_every_nonzero_pair(triple):
    """On every build the sparse gram pass, which pairs only the classes
    linked by a shared slot, gives exactly the nonzero entries of the full
    O(m^2) pair loop, in ledger form and after conversion to cp2 form; so
    the sparse check and the full loop agree, at ranks up to 16 and above."""
    for idx in range(1, 7):
        rp = build_resolution(*triple, presentation=idx)
        pc = assign_classes(rp.polygon)
        for lat, cls in ((pc.lattice, pc.edge_classes), (rp.lattice, rp.edge_classes)):
            m = len(cls)
            full = {
                (i, j): g
                for i in range(m)
                for j in range(i, m)
                if (g := lat.pair(cls[i], cls[j]))
            }
            assert lat.sparse_gram(cls) == full
            assert ref_nonadjacent_ok(lat, cls)
            ref_check_nonadjacent(lat, cls)


def test_verify_triples_reach_ranks_above_16():
    ranks = {build_resolution(*t, presentation=i).lattice.rank
             for t in VERIFY_TRIPLES for i in range(1, 7)}
    assert min(ranks) <= 16 < max(ranks)


def _corrupt(cls, i, slot, delta=1):
    return cls[:i] + (vadd(cls[i], {slot: delta}),) + cls[i + 1:]


def test_hand_corrupted_class_rejected_by_both():
    # (2,3,5), first triangle: ruled terminal model F_2 blown up, edges
    # 0..8. Adding F to edge 4 makes it meet every edge carrying B, among
    # them nonadjacent ones: only the slot-0/slot-1 link reveals this.
    rp = build_resolution(2, 3, 5)
    pc = assign_classes(rp.polygon)
    lat, cls = pc.lattice, pc.edge_classes
    assert lat.head == ((0, 1), (1, -2))
    bad = _corrupt(cls, 4, 0)
    assert 1 not in bad[4] and any(1 in c and 0 not in c for c in bad)
    assert not ref_nonadjacent_ok(lat, bad)
    with pytest.raises(LemmaViolated, match="unexpected intersection"):
        ref_check_nonadjacent(lat, bad)


@pytest.mark.parametrize("triple,idx", (((2, 3, 5), 1), ((2, 3, 5), 4), ((3, 4, 5), 2),
                                        ((5, 7, 9), 1), ((5, 7, 9), 6)))
def test_every_single_slot_corruption_agrees(triple, idx):
    """Add +1 or -1 at each slot of each class: the sparse check rejects
    exactly the corruptions the full loop rejects, in both lattice forms."""
    rp = build_resolution(*triple, presentation=idx)
    pc = assign_classes(rp.polygon)
    for lat, cls in ((pc.lattice, pc.edge_classes), (rp.lattice, rp.edge_classes)):
        rejected = 0
        for i in range(len(cls)):
            for slot in range(lat.rank):
                for delta in (1, -1):
                    bad = _corrupt(cls, i, slot, delta)
                    ok = ref_nonadjacent_ok(lat, bad)
                    rejected += not ok
                    if ok:
                        ref_check_nonadjacent(lat, bad)
                    else:
                        with pytest.raises(LemmaViolated):
                            ref_check_nonadjacent(lat, bad)
        assert rejected > 0

