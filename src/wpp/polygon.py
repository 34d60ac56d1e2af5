"""Rational convex polygons over the integer lattice.

Vertices are exact rational points, counterclockwise, stored as integer points
over their least common denominator: chopping, edge lengths and the ledger run
on plain ints, and the Fraction vertices are a derived view. Corners are
classified up to integral affine equivalence by a pair (r, q); non-Delzant
corners are smoothed by chains of chops whose data reproduces the
continued-fraction expansion of r/q. Once every corner is Delzant, edges acquire integer
self-intersections, and a combinatorial contraction ledger assigns a homology
class and exact area to every edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, compress
from typing import Sequence

from .arith import WeightTriple, ext_gcd, hj_expand
from .errors import (
    ChopsOverlap,
    InvalidPolygon,
    LemmaViolated,
    MissingClasses,
    NoMinusOneEdge,
    NotDelzantNeighborhood,
    UserInputError,
    WppError,
)
from .homlat import AreaForm, Lattice, Vec, cp2_lattice, hirz_lattice

__all__ = [
    "Point",
    "IVec",
    "primitive",
    "LatticePolygon",
    "polygon",
    "corner_type",
    "ChopResult",
    "chop_corner",
    "default_epsilons",
    "edge_selfint",
    "edge_selfints",
    "PolygonClasses",
    "assign_classes",
    "Presentation",
    "presentations",
    "CORNER_CYCLE",
]

Point = tuple[Fraction, Fraction]
IVec = tuple[int, int]

CORNER_CYCLE = {"A": "B", "B": "C", "C": "A"}


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _det(u: IVec, w: IVec) -> int:
    return u[0] * w[1] - u[1] * w[0]


def primitive(dx: int, dy: int) -> IVec:
    """Primitive integer vector along the nonzero integer vector (dx, dy)."""
    g = math.gcd(dx, dy)
    if g == 0:
        raise InvalidPolygon("zero direction vector")
    return (dx // g, dy // g)


@dataclass(frozen=True)
class LatticePolygon:
    """Strictly convex polygon, counterclockwise, with rational vertices
    stored as integer points ipts over their least common denominator den."""

    ipts: tuple[IVec, ...]
    den: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.ipts)

    @property
    def vertices(self) -> tuple[Point, ...]:
        val = self._cache.get("vertices")
        if val is None:
            d = self.den
            val = tuple((Fraction(x, d), Fraction(y, d)) for x, y in self.ipts)
            self._cache["vertices"] = val
        return val

    def vertex(self, i: int) -> Point:
        return self.vertices[i % self.n]

    def edge_vector(self, i: int) -> tuple[Fraction, Fraction]:
        a = self.vertex(i)
        b = self.vertex(i + 1)
        return (b[0] - a[0], b[1] - a[1])

    def _edges(self) -> tuple[tuple[IVec, ...], tuple[int, ...]]:
        """Primitive direction and scaled lattice length of every edge."""
        val = self._cache.get("edges")
        if val is None:
            pts = self.ipts
            dirs = []
            lens = []
            for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
                dx, dy = bx - ax, by - ay
                g = math.gcd(dx, dy)
                dirs.append((dx // g, dy // g))
                lens.append(g)
            val = (tuple(dirs), tuple(lens))
            self._cache["edges"] = val
        return val

    @property
    def directions(self) -> tuple[IVec, ...]:
        """Primitive integer direction of every edge."""
        return self._edges()[0]

    def direction(self, i: int) -> IVec:
        dirs = self._edges()[0]
        return dirs[i % len(dirs)]

    def length_scaled(self, i: int) -> int:
        """Lattice length of edge i times den: the gcd of its integer vector."""
        lens = self._edges()[1]
        return lens[i % len(lens)]

    def edge_length(self, i: int) -> Fraction:
        """Lattice length: the edge vector divided by its primitive direction."""
        return Fraction(self.length_scaled(i), self.den)

    def inward_normal(self, i: int) -> IVec:
        dx, dy = self.direction(i)
        return (-dy, dx)

    def area2(self) -> Fraction:
        return Fraction(_cross_sum(self.ipts), self.den * self.den)


_flat = chain.from_iterable  # the coordinates of a sequence of points


def _cross_sum(pts: Sequence[IVec]) -> int:
    """Twice the signed area of the integer polygon pts."""
    return sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(pts, pts[1:] + pts[:1]))


def _validated(ipts: list[IVec], den: int) -> LatticePolygon:
    """The polygon ipts / den, reordered counterclockwise; raises
    InvalidPolygon unless it is strictly convex."""
    n = len(ipts)
    if n < 3:
        raise InvalidPolygon("need at least three vertices")
    for i in range(n):
        if ipts[i] == ipts[(i + 1) % n]:
            raise InvalidPolygon("repeated consecutive vertex")
    s = _cross_sum(ipts)
    if s == 0:
        raise InvalidPolygon("degenerate polygon")
    if s < 0:
        ipts = ipts[::-1]
    for i in range(n):
        a = ipts[i]
        b = ipts[(i + 1) % n]
        c = ipts[(i + 2) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 0:
            raise InvalidPolygon(f"not strictly convex at vertex {(i + 1) % n}")
    return LatticePolygon(tuple(ipts), den)


def polygon(points: Sequence[tuple]) -> LatticePolygon:
    """Canonicalise to counterclockwise order and validate strict convexity."""
    verts = [(_fr(p[0]), _fr(p[1])) for p in points]
    den = math.lcm(1, *(c.denominator for v in verts for c in v))
    ipts = [
        (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
        for x, y in verts
    ]
    return _validated(ipts, den)


def _corner_dirs(p: LatticePolygon, i: int, u_side: str) -> tuple[IVec, IVec]:
    back = p.direction(i - 1)
    toward_prev = (-back[0], -back[1])
    toward_next = p.direction(i)
    if u_side == "prev":
        return toward_prev, toward_next
    if u_side == "next":
        return toward_next, toward_prev
    raise WppError(f"u_side must be 'prev' or 'next', got {u_side!r}")


def corner_type(p: LatticePolygon, i: int, u_side: str = "prev") -> tuple[int, int]:
    """Integral affine type (r, q) of the corner at vertex i.

    The corner is mapped so the u-side edge goes up from the origin and the
    w-side edge leaves along (r, q) with 0 <= q < r; Delzant corners give
    (1, 0). The type depends on which edge plays u: swapping sides replaces q
    by its inverse mod r.
    """
    key = ("corner", i % p.n, u_side)
    cached = p._cache.get(key)
    if cached is not None:
        return cached
    u, w = _corner_dirs(p, i, u_side)
    d = _det(u, w)
    r = abs(d)
    if r == 0:
        raise InvalidPolygon("flat corner")
    if r == 1:
        p._cache[key] = (1, 0)
        return (1, 0)
    g, gamma, delta = ext_gcd(u[0], u[1])
    if g != 1:
        raise LemmaViolated(f"edge direction {u} is not primitive")
    y_w = gamma * w[0] + delta * w[1]
    q = y_w % r
    if math.gcd(q, r) != 1:
        raise LemmaViolated(f"corner type ({r}, {q}) is not coprime")
    p._cache[key] = (r, q)
    return (r, q)


def default_epsilons(p: LatticePolygon, i: int, k: int,
                     schedule: tuple[Fraction, Fraction] | None = None) -> list[Fraction]:
    """Chop depths that provably fit: start at a quarter of the shorter
    adjacent edge and shrink by thirds."""
    init_ratio, ratio = schedule if schedule is not None else (Fraction(1, 4), Fraction(1, 3))
    if not (0 < init_ratio < 1 and 0 < ratio < 1):
        raise UserInputError("epsilon schedule ratios must lie in (0, 1)")
    shortest = Fraction(min(p.length_scaled(i - 1), p.length_scaled(i)), p.den)
    eps0 = shortest * init_ratio
    out = []
    e = eps0
    for _ in range(k):
        out.append(e)
        e = e * ratio
    return out


@dataclass(frozen=True)
class ChopResult:
    polygon: LatticePolygon
    new_edge_indices: tuple[int, ...]  # u-side first, matching the expansion
    edge_map: dict  # old edge index -> new edge index (for surviving edges)
    entries: tuple[int, ...]  # continued-fraction entries of r/q
    corner: tuple[int, int]  # (r, q) that was smoothed


def chop_corner(
    p: LatticePolygon,
    i: int,
    u_side: str,
    epsilons: Sequence[Fraction] | None = None,
    schedule: tuple[Fraction, Fraction] | None = None,
) -> ChopResult:
    """Smooth the corner at vertex i by the chain of chops encoded by r/q.

    Each chop cuts depth epsilon along the u side and epsilon/q along the w
    side of the current corner, then continues at the new w-side vertex. The
    resulting edge directions obey e_{j+1} = b_j e_j - e_{j-1} and the new
    edges acquire self-intersections (-b_1, ..., -b_k), u side first.
    """
    i %= p.n
    u, w = _corner_dirs(p, i, u_side)
    r, q = corner_type(p, i, u_side)
    if r == 1:
        raise WppError("corner is already Delzant; nothing to chop")
    entries = hj_expand(r, q)
    k = len(entries)
    if epsilons is None:
        epsilons = default_epsilons(p, i, k, schedule)
    eps = [_fr(e) for e in epsilons]
    if len(eps) != k or any(e.numerator <= 0 for e in eps):
        raise ChopsOverlap(f"need {k} positive chop depths, got {list(epsilons)}")

    # predicted directions: e_0 = -u, e_1 = (w - q u)/r, e_{j+1} = b_j e_j - e_{j-1}
    e1_x, e1_y = w[0] - q * u[0], w[1] - q * u[1]
    if e1_x % r or e1_y % r:
        raise LemmaViolated("first chop direction is not integral")
    dirs: list[IVec] = [(-u[0], -u[1]), (e1_x // r, e1_y // r)]
    for b in entries[:-1]:
        prev, cur = dirs[-2], dirs[-1]
        dirs.append((b * cur[0] - prev[0], b * cur[1] - prev[1]))
    bk = entries[-1]
    exit_dir = (bk * dirs[-1][0] - dirs[-2][0], bk * dirs[-1][1] - dirs[-2][1])
    if exit_dir != w:
        raise LemmaViolated("chop chain does not exit along the far edge")

    # q_j of the corner met by chop j: (r, q) -> (q, b q - r) after each chop
    qs = []
    rj, qj = r, q
    for b in entries:
        qs.append(qj)
        rj, qj = qj, b * qj - rj
    if (rj, qj) != (1, 0):
        raise LemmaViolated(f"chop chain ended on ({rj}, {qj}), expected (1, 0)")

    # chop j moves eps_j along the u side and eps_j / q_j along w; put the
    # old vertices and every move over one denominator and chain in ints
    steps = []  # eps_j / q_j in lowest terms
    for e, qj in zip(eps, qs):
        g = math.gcd(e.numerator, qj)
        steps.append((e.numerator // g, e.denominator * (qj // g)))
    den = math.lcm(p.den, *(sd for _, sd in steps))
    scale = den // p.den
    vx, vy = p.ipts[i]
    vx, vy = vx * scale, vy * scale
    chain: list[IVec] = []
    for d, e, (sn, sd) in zip(dirs, eps, steps):
        ue = e.numerator * (den // e.denominator)
        wf = sn * (den // sd)
        chain.append((vx - ue * d[0], vy - ue * d[1]))
        vx, vy = vx + wf * w[0], vy + wf * w[1]
    chain.append((vx, vy))

    # reduce to the least common denominator; the kept old vertices share
    # the factor g0 with p.den, so their scaled coordinates share scale * g0
    head, tail = p.ipts[:i], p.ipts[i + 1:]
    g0 = math.gcd(p.den, *_flat(head), *_flat(tail))
    g = math.gcd(scale * g0, *_flat(chain))
    if g > 1:
        den //= g
        chain = [(x // g, y // g) for x, y in chain]
    if scale != g:
        head = tuple((x * scale // g, y * scale // g) for x, y in head)
        tail = tuple((x * scale // g, y * scale // g) for x, y in tail)
    ordered = chain if u_side == "prev" else chain[::-1]
    new_ipts = [*head, *ordered, *tail]
    try:
        p2 = _validated(new_ipts, den)
    except InvalidPolygon as exc:
        raise ChopsOverlap(f"chop depths too large at vertex {i}: {exc}") from exc
    if p2.ipts != tuple(new_ipts):
        # canonicalisation must not have reordered anything
        raise ChopsOverlap(f"chop at vertex {i} broke the vertex cycle")

    if u_side == "prev":
        new_ids = tuple(range(i, i + k))
    else:
        new_ids = tuple(range(i + k - 1, i - 1, -1))
    n_old = p.n
    edge_map: dict[int, int] = {}
    for j in range(n_old):
        if j == (i - 1) % n_old:
            edge_map[j] = (i - 1) if i >= 1 else n_old + k - 1
        elif j == i:
            edge_map[j] = i + k
        elif i >= 1 and j < i - 1:
            edge_map[j] = j
        else:
            edge_map[j] = j + k

    return ChopResult(p2, new_ids, edge_map, entries, (r, q))


def edge_selfint(p: LatticePolygon, i: int) -> int:
    """Self-intersection of the sphere over edge i, from the normal relation.

    Requires Delzant corners at both ends: then n_{i-1} + n_{i+1} = -s n_i has
    a unique integer solution s.
    """
    i %= p.n
    for v_idx, side in ((i, "prev"), ((i + 1) % p.n, "prev")):
        if corner_type(p, v_idx, side)[0] != 1:
            raise NotDelzantNeighborhood(f"corner at vertex {v_idx} is not Delzant")
    n_prev = p.inward_normal(i - 1)
    n_cur = p.inward_normal(i)
    n_next = p.inward_normal(i + 1)
    x = (n_prev[0] + n_next[0], n_prev[1] + n_next[1])
    if n_cur[0]:
        s_num, s_den = -x[0], n_cur[0]
    else:
        s_num, s_den = -x[1], n_cur[1]
    if s_num % s_den:
        raise LemmaViolated(f"normal relation not integral at edge {i}")
    s = s_num // s_den
    if (-s * n_cur[0], -s * n_cur[1]) != x:
        raise LemmaViolated(f"normal relation inconsistent at edge {i}")
    return s


def edge_selfints(p: LatticePolygon) -> tuple[int, ...]:
    out = p._cache.get("selfints")
    if out is None:
        out = tuple(edge_selfint(p, i) for i in range(p.n))
        if sum(out) != 12 - 3 * p.n:
            raise LemmaViolated("edge self-intersections violate the smooth toric sum rule")
        p._cache["selfints"] = out
    return out


# --- class assignment by contraction ledger ------------------------------------


@dataclass(frozen=True)
class PolygonClasses:
    lattice: Lattice
    area: AreaForm
    edge_classes: tuple[Vec, ...]
    terminal: str  # "cp2" | "hirz"
    terminal_k: int
    contraction_ids: tuple[int, ...]


def assign_classes(p: LatticePolygon) -> PolygonClasses:
    """Assign homology classes to edges by contracting (-1) edges to a minimal
    model, then replaying the contractions as blowups.

    Contracting the (-1) edge of smallest original index at every step makes
    the basis deterministic. Ends on a triangle (projective plane) or on a
    ruled quadrilateral; each replayed blowup restores one edge as a basis
    (-1) vector and corrects its two neighbours. Lengths are carried as
    integers over p.den throughout.
    """
    sels = edge_selfints(p)
    m = p.n
    entries = [
        {"id": i, "s": sels[i], "len": p.length_scaled(i)} for i in range(m)
    ]
    steps: list[tuple[int, int, int, int]] = []
    terminal = ""
    terminal_k = 0
    while True:
        cur = len(entries)
        if cur == 3:
            if any(e["s"] != 1 for e in entries):
                raise LemmaViolated("terminal triangle is not the projective plane")
            if len({e["len"] for e in entries}) != 1:
                raise LemmaViolated("terminal triangle has unequal edges")
            terminal = "cp2"
            break
        if cur == 4 and all(e["s"] != -1 for e in entries):
            ok_rot = None
            for i0 in range(4):
                s0 = entries[i0]["s"]
                s1 = entries[(i0 + 1) % 4]["s"]
                s2 = entries[(i0 + 2) % 4]["s"]
                s3 = entries[(i0 + 3) % 4]["s"]
                if s0 == 0 and s2 == 0 and s1 == -s3 and s1 >= 0:
                    ok_rot = i0
                    break
            if ok_rot is None:
                raise LemmaViolated("terminal quadrilateral is not a ruled surface")
            terminal = "hirz"
            terminal_k = entries[(ok_rot + 1) % 4]["s"]
            f0, top = entries[ok_rot], entries[(ok_rot + 1) % 4]
            f1, bot = entries[(ok_rot + 2) % 4], entries[(ok_rot + 3) % 4]
            if f0["len"] != f1["len"]:
                raise LemmaViolated("ruled terminal model has unequal fibers")
            if top["len"] != bot["len"] + terminal_k * f0["len"]:
                raise LemmaViolated("ruled terminal model has inconsistent sections")
            entries = [f0, top, f1, bot]  # fixed rotation for seeding below
            break
        candidates = [e for e in entries if e["s"] == -1]
        if not candidates:
            raise NoMinusOneEdge(f"no (-1) edge among {cur} edges")
        chosen = min(candidates, key=lambda e: e["id"])
        pos = entries.index(chosen)
        left = entries[(pos - 1) % cur]
        right = entries[(pos + 1) % cur]
        steps.append((chosen["id"], left["id"], right["id"], chosen["len"]))
        left["s"] += 1
        right["s"] += 1
        left["len"] += chosen["len"]
        right["len"] += chosen["len"]
        entries.pop(pos)

    n_steps = len(steps)
    rank0 = 1 if terminal == "cp2" else 2
    rank = rank0 + n_steps
    classes: dict[int, list[int]] = {}
    area_vals = [0] * rank
    if terminal == "cp2":
        for e in entries:
            classes[e["id"]] = [1] + [0] * (rank - 1)
        area_vals[0] = entries[0]["len"]
        lat = cp2_lattice(n_steps)
    else:
        f0, top, f1, bot = entries
        classes[f0["id"]] = [1, 0] + [0] * (rank - 2)
        classes[f1["id"]] = [1, 0] + [0] * (rank - 2)
        classes[top["id"]] = [terminal_k, 1] + [0] * (rank - 2)
        classes[bot["id"]] = [0, 1] + [0] * (rank - 2)
        area_vals[0] = f0["len"]
        area_vals[1] = bot["len"]
        lat = hirz_lattice(terminal_k, n_steps)

    for t in range(n_steps - 1, -1, -1):
        eid, lid, rid, ln = steps[t]
        b_idx = rank0 + (n_steps - 1 - t)
        vec = [0] * rank
        vec[b_idx] = 1
        classes[eid] = vec
        classes[lid][b_idx] -= 1
        classes[rid][b_idx] -= 1
        area_vals[b_idx] = ln

    edge_classes = tuple(tuple(classes[i]) for i in range(m))
    area = AreaForm.from_scaled(tuple(area_vals), p.den)
    pc = PolygonClasses(lat, area, edge_classes, terminal, terminal_k,
                        tuple(s[0] for s in steps))
    _verify_classes(p, sels, pc)
    return pc


def _verify_classes(p: LatticePolygon, sels: tuple[int, ...], pc: PolygonClasses) -> None:
    """Check squares, adjunction, areas, the anticanonical sum and every
    pairing between edge classes: 1 for adjacent edges, 0 otherwise."""
    lat, area, cls = pc.lattice, pc.area, pc.edge_classes
    m = p.n
    for i in range(m):
        if lat.sq(cls[i]) != sels[i]:
            raise LemmaViolated(f"edge {i}: square {lat.sq(cls[i])} != {sels[i]}")
        if lat.adjunction_defect(cls[i]) != 0:
            raise LemmaViolated(f"edge {i}: adjunction defect nonzero")
        if area.area_scaled(cls[i]) * p.den != p.length_scaled(i) * area.denominator:
            raise LemmaViolated(f"edge {i}: area does not match edge length")
        if lat.pair(cls[i], cls[(i + 1) % m]) != 1:
            raise LemmaViolated(f"edges {i},{(i + 1) % m}: not adjacent in homology")
    if lat.canonical is None:
        raise MissingClasses("ledger lattice has no canonical class")
    if tuple(map(sum, zip(*cls))) != tuple(-c for c in lat.canonical):
        raise LemmaViolated("edge classes do not sum to the anticanonical class")
    if lat.sq(lat.canonical) != 9 - (lat.rank - 1):
        raise LemmaViolated("canonical square does not match the rank")
    _check_nonadjacent(lat, cls)


def _check_nonadjacent(lat: Lattice, cls: Sequence[Vec]) -> None:
    """Classes of nonadjacent edges of the cycle cls pair to zero.

    The cp2 gram is diagonal, so only classes sharing a nonzero slot can
    meet; the ruled-surface gram also links slot 0 with slot 1. Only those
    pairs are computed: the ledger touches each exceptional slot from at most
    three edges, so there are O(rank) of them.
    """
    m = len(cls)
    for i, j in sorted(_linked_pairs(lat, cls)):
        if (j - i) % m in (1, m - 1):
            continue
        if lat.pair(cls[i], cls[j]) != 0:
            raise LemmaViolated(
                f"edges {i},{j}: unexpected intersection {lat.pair(cls[i], cls[j])}"
            )


def _linked_pairs(lat: Lattice, cls: Sequence[Vec]) -> set[tuple[int, int]]:
    """Index pairs i < j whose classes the gram matrix can pair nonzero."""
    if lat.tag not in ("cp2", "hirz"):
        raise WppError(f"no sparse pairing structure for a {lat.tag} lattice")
    by_slot: dict[int, list[int]] = {}
    slots = range(lat.rank)
    for i, x in enumerate(cls):
        for s in compress(slots, x):
            by_slot.setdefault(s, []).append(i)
    linked = {pair for bucket in by_slot.values() for pair in combinations(bucket, 2)}
    if lat.tag == "hirz":
        linked.update(
            (min(i, j), max(i, j))
            for i in by_slot.get(0, ())
            for j in by_slot.get(1, ())
            if i != j
        )
    return linked


# --- the six weight presentations ----------------------------------------------


@dataclass(frozen=True)
class Presentation:
    index: int
    polygon: LatticePolygon
    corner_vertex: dict  # label "A"|"B"|"C" -> vertex index


def _presentation_tables(w: WeightTriple) -> list[dict]:
    a, b, c = w.a, w.b, w.c
    return [
        {"A": (0, 0), "B": (0, c), "C": (a * b, w.a_b * b)},
        {"A": (0, 0), "C": (0, b), "B": (a * c, w.a_c * c)},
        {"B": (0, 0), "A": (0, c), "C": (b * a, w.b_a * a)},
        {"B": (0, 0), "C": (0, a), "A": (b * c, w.b_c * c)},
        {"C": (0, 0), "A": (0, b), "B": (c * a, w.c_a * a)},
        {"C": (0, 0), "B": (0, a), "A": (c * b, w.c_b * b)},
    ]


def presentation(w: WeightTriple, index: int) -> Presentation:
    """One of the six moment triangles, index in 1..6."""
    if not 1 <= index <= 6:
        raise UserInputError(f"presentation index must be 1..6, got {index}")
    table = _presentation_tables(w)[index - 1]
    poly = polygon(list(table.values()))
    corner_vertex = {
        label: poly.ipts.index((x * poly.den, y * poly.den))
        for label, (x, y) in table.items()
    }
    if poly.area2() != w.a * w.b * w.c:
        raise LemmaViolated(f"presentation {index} has wrong area")
    return Presentation(index, poly, corner_vertex)


def presentations(w: WeightTriple) -> tuple[Presentation, ...]:
    """The six moment triangles of a weight triple, one per choice of
    distinguished corner and orientation. Corner labels carry the stabiliser
    order: the corner labelled A has type (a, a_b) for the cycle edge rule."""
    return tuple(presentation(w, i) for i in range(1, 7))
