"""Rational convex polygons over the integer lattice.

Vertices are exact rational points, counterclockwise. Corners are classified
up to integral affine equivalence by a pair (r, q); non-Delzant corners are
smoothed by chains of chops whose data reproduces the continued-fraction
expansion of r/q. Once every corner is Delzant, edges acquire integer
self-intersections, and a combinatorial contraction ledger assigns a homology
class and exact area to every edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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


def primitive(dx: Fraction, dy: Fraction) -> IVec:
    """Primitive integer vector along the nonzero rational vector (dx, dy)."""
    m = math.lcm(dx.denominator, dy.denominator)
    ix, iy = int(dx * m), int(dy * m)
    g = math.gcd(ix, iy)
    if g == 0:
        raise InvalidPolygon("zero direction vector")
    return (ix // g, iy // g)


@dataclass(frozen=True)
class LatticePolygon:
    """Strictly convex polygon, rational vertices, counterclockwise."""

    vertices: tuple[Point, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> Point:
        return self.vertices[i % self.n]

    def edge_vector(self, i: int) -> tuple[Fraction, Fraction]:
        a = self.vertex(i)
        b = self.vertex(i + 1)
        return (b[0] - a[0], b[1] - a[1])

    def direction(self, i: int) -> IVec:
        i %= self.n
        key = ("dir", i)
        val = self._cache.get(key)
        if val is None:
            val = primitive(*self.edge_vector(i))
            self._cache[key] = val
        return val

    def edge_length(self, i: int) -> Fraction:
        """Lattice length: the edge vector divided by its primitive direction."""
        i %= self.n
        key = ("len", i)
        val = self._cache.get(key)
        if val is None:
            ev = self.edge_vector(i)
            d = self.direction(i)
            val = ev[0] / d[0] if d[0] else ev[1] / d[1]
            self._cache[key] = val
        return val

    def inward_normal(self, i: int) -> IVec:
        dx, dy = self.direction(i)
        return (-dy, dx)

    def area2(self) -> Fraction:
        s = Fraction(0)
        for i in range(self.n):
            a, b = self.vertex(i), self.vertex(i + 1)
            s += a[0] * b[1] - a[1] * b[0]
        return s


def polygon(points: Sequence[tuple]) -> LatticePolygon:
    """Canonicalise to counterclockwise order and validate strict convexity."""
    verts = [( _fr(p[0]), _fr(p[1]) ) for p in points]
    if len(verts) < 3:
        raise InvalidPolygon("need at least three vertices")
    # validate on a cleared-denominator copy: plain int arithmetic avoids the
    # per-operation normalisation cost of Fraction cross products
    den = 1
    for x, y in verts:
        den = math.lcm(den, x.denominator, y.denominator)
    iverts = [(int(x * den), int(y * den)) for x, y in verts]
    n = len(verts)
    for i in range(n):
        if iverts[i] == iverts[(i + 1) % n]:
            raise InvalidPolygon("repeated consecutive vertex")
    s = 0
    for i in range(n):
        a, b = iverts[i], iverts[(i + 1) % n]
        s += a[0] * b[1] - a[1] * b[0]
    if s == 0:
        raise InvalidPolygon("degenerate polygon")
    if s < 0:
        verts.reverse()
        iverts.reverse()
    for i in range(n):
        a = iverts[i]
        b = iverts[(i + 1) % n]
        c = iverts[(i + 2) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 0:
            raise InvalidPolygon(f"not strictly convex at vertex {(i + 1) % n}")
    return LatticePolygon(tuple(verts))


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
    shortest = min(p.edge_length(i - 1), p.edge_length(i))
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
    if len(eps) != k or any(e <= 0 for e in eps):
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

    v = p.vertex(i)
    chain: list[Point] = []
    rj, qj = r, q
    uu: IVec = u
    for j, b in enumerate(entries):
        e = eps[j]
        chain.append((v[0] + e * uu[0], v[1] + e * uu[1]))
        v = (v[0] + (e / qj) * w[0], v[1] + (e / qj) * w[1])
        uu = (-dirs[j + 1][0], -dirs[j + 1][1])
        rj, qj = qj, b * qj - rj
    if (rj, qj) != (1, 0):
        raise LemmaViolated(f"chop chain ended on ({rj}, {qj}), expected (1, 0)")
    chain.append(v)

    ordered = chain if u_side == "prev" else list(reversed(chain))
    verts = list(p.vertices)
    new_verts = verts[:i] + ordered + verts[i + 1:]
    try:
        p2 = polygon(new_verts)
    except InvalidPolygon as exc:
        raise ChopsOverlap(f"chop depths too large at vertex {i}: {exc}") from exc
    if p2.vertices != tuple(new_verts):
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
    out = tuple(edge_selfint(p, i) for i in range(p.n))
    if sum(out) != 12 - 3 * p.n:
        raise LemmaViolated("edge self-intersections violate the smooth toric sum rule")
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


def assign_classes(p: LatticePolygon, verify: str = "auto") -> PolygonClasses:
    """Assign homology classes to edges by contracting (-1) edges to a minimal
    model, then replaying the contractions as blowups.

    Contracting the (-1) edge of smallest original index at every step makes
    the basis deterministic. Ends on a triangle (projective plane) or on a
    ruled quadrilateral; each replayed blowup restores one edge as a basis
    (-1) vector and corrects its two neighbours. verify is "full", "light" or
    "auto" (full up to rank 16).
    """
    sels = edge_selfints(p)
    m = p.n
    entries = [
        {"id": i, "s": sels[i], "len": p.edge_length(i)} for i in range(m)
    ]
    steps: list[tuple[int, int, int, Fraction]] = []
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
    area_vals: list[Fraction] = [Fraction(0)] * rank
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
    area = AreaForm(tuple(area_vals))
    pc = PolygonClasses(lat, area, edge_classes, terminal, terminal_k,
                        tuple(s[0] for s in steps))
    _verify_classes(p, sels, pc, verify)
    return pc


def _verify_classes(p: LatticePolygon, sels: tuple[int, ...],
                    pc: PolygonClasses, mode: str) -> None:
    lat, area, cls = pc.lattice, pc.area, pc.edge_classes
    m = p.n
    if mode == "auto":
        mode = "full" if lat.rank <= 16 else "light"
    total = [0] * lat.rank
    for i in range(m):
        if lat.sq(cls[i]) != sels[i]:
            raise LemmaViolated(f"edge {i}: square {lat.sq(cls[i])} != {sels[i]}")
        if lat.adjunction_defect(cls[i]) != 0:
            raise LemmaViolated(f"edge {i}: adjunction defect nonzero")
        if area.area(cls[i]) != p.edge_length(i):
            raise LemmaViolated(f"edge {i}: area does not match edge length")
        if lat.pair(cls[i], cls[(i + 1) % m]) != 1:
            raise LemmaViolated(f"edges {i},{(i + 1) % m}: not adjacent in homology")
        for r in range(lat.rank):
            total[r] += cls[i][r]
    if lat.canonical is None:
        raise MissingClasses("ledger lattice has no canonical class")
    if tuple(total) != tuple(-c for c in lat.canonical):
        raise LemmaViolated("edge classes do not sum to the anticanonical class")
    if lat.sq(lat.canonical) != 9 - (lat.rank - 1):
        raise LemmaViolated("canonical square does not match the rank")
    if mode == "full":
        for i in range(m):
            for j in range(i + 2, m):
                if i == 0 and j == m - 1:
                    continue
                if lat.pair(cls[i], cls[j]) != 0:
                    raise LemmaViolated(
                        f"edges {i},{j}: unexpected intersection {lat.pair(cls[i], cls[j])}"
                    )


# --- the six weight presentations ----------------------------------------------


@dataclass(frozen=True)
class Presentation:
    index: int
    polygon: LatticePolygon
    corner_vertex: dict  # label "A"|"B"|"C" -> vertex index

    def vertex_of(self, label: str) -> int:
        return self.corner_vertex[label]


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
    corner_vertex = {}
    for label, pt in table.items():
        pt_f = (_fr(pt[0]), _fr(pt[1]))
        corner_vertex[label] = poly.vertices.index(pt_f)
    if poly.area2() != w.a * w.b * w.c:
        raise LemmaViolated(f"presentation {index} has wrong area")
    return Presentation(index, poly, corner_vertex)


def presentations(w: WeightTriple) -> tuple[Presentation, ...]:
    """The six moment triangles of a weight triple, one per choice of
    distinguished corner and orientation. Corner labels carry the stabiliser
    order: the corner labelled A has type (a, a_b) for the cycle edge rule."""
    return tuple(presentation(w, i) for i in range(1, 7))
