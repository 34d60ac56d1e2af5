"""Rational convex polygons over the integer lattice.

Vertices are exact rational points, counterclockwise, stored as integer points
over their least common denominator: chopping, edge lengths and the ledger run
on plain ints, and the Fraction vertices are a derived view. Every edge has a
primitive integer direction d_i, read from one cached edge table. Corners are
classified up to integral affine equivalence by a pair (r, q); non-Delzant
corners are smoothed by chains of chops whose data reproduces the
continued-fraction expansion of r/q. Once every corner is Delzant
(det(d_{i-1}, d_i) = 1), edge i carries the integer self-intersection
det(d_{i+1}, d_{i-1}), and a combinatorial contraction ledger assigns a
homology class and exact area to every edge. The ledger checks the classes'
labelled intersection form, areas and sum -K, which imply adjunction K.x_i =
-(s_i + 2) and K^2 = 10 - rank, in one sweep over the classes' slot buckets
(_verify_classes): squares and neighbour pairings are kept by edge, and only
the pairings of non-adjacent edges, which must vanish, are hashed.

Every polygon the package chops is strictly convex and counterclockwise: a
presentation triangle, which passes the global check of _validated, or the
result of a chop, which is grown from the polygon the chop starts from. A
chop tests only the turns it makes and keeps the edge table of the edges it
keeps; chop_corner says why that decides what the global check would.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from numbers import Real
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
from .homlat import AreaForm, Lattice, Vec, cp2_lattice, hirz_lattice, vneg

__all__ = [
    "Point",
    "IVec",
    "LatticePolygon",
    "polygon",
    "corner_type",
    "ChopResult",
    "chop_corner",
    "check_schedule",
    "explicit_depths",
    "check_presentation",
    "edge_selfint",
    "edge_selfints",
    "PolygonClasses",
    "assign_classes",
    "Presentation",
    "CORNER_CYCLE",
]

Point = tuple[Fraction, Fraction]
IVec = tuple[int, int]

CORNER_CYCLE = {"A": "B", "B": "C", "C": "A"}


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _det(u: IVec, w: IVec) -> int:
    return u[0] * w[1] - u[1] * w[0]


@dataclass(frozen=True, init=False)
class LatticePolygon:
    """Strictly convex polygon, counterclockwise, with rational vertices
    stored as integer points ipts over their least common denominator den.

    The package makes polygons through _validated, which requires every turn
    to be a strict left turn, the signed area to be positive and the edge
    directions to turn once around, and through chop_corner, which tests the
    turns it changes (_grown) and keeps that invariant. The constructor
    itself checks nothing; it writes the two fields straight into the
    instance __dict__, as every record made per chop does."""

    ipts: tuple[IVec, ...]
    den: int

    def __init__(self, ipts: tuple[IVec, ...], den: int) -> None:
        d = self.__dict__
        d["ipts"] = ipts
        d["den"] = den

    @property
    def n(self) -> int:
        return len(self.ipts)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        d = self.den
        return tuple((Fraction(x, d), Fraction(y, d)) for x, y in self.ipts)

    @cached_property
    def _edges(self) -> tuple[tuple[IVec, ...], tuple[int, ...]]:
        """Primitive direction and scaled lattice length of every edge."""
        pts = self.ipts
        dirs = []
        lens = []
        for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
            dx, dy = bx - ax, by - ay
            g = math.gcd(dx, dy)
            dirs.append((dx // g, dy // g))
            lens.append(g)
        return tuple(dirs), tuple(lens)

    @property
    def directions(self) -> tuple[IVec, ...]:
        """Primitive integer direction of every edge."""
        return self._edges[0]

    def direction(self, i: int) -> IVec:
        return self._edges[0][i % len(self.ipts)]

    def length_scaled(self, i: int) -> int:
        """Lattice length of edge i times den: the gcd of its integer vector."""
        return self._edges[1][i % len(self.ipts)]

    @cached_property
    def selfints(self) -> tuple[int, ...]:
        """edge_selfint of every edge in one walk, each corner tested once, in
        order; checked against the smooth toric sum rule 12 - 3n."""
        dirs = self.directions
        out = []
        for i, ((px, py), (cx, cy), (nx, ny)) in enumerate(
                zip(dirs[-1:] + dirs[:-1], dirs, dirs[1:] + dirs[:1])):
            if px * cy - py * cx != 1:
                raise NotDelzantNeighborhood(f"corner at vertex {i} is not Delzant")
            out.append(nx * py - ny * px)
        if sum(out) != 12 - 3 * self.n:
            raise LemmaViolated("edge self-intersections violate the smooth toric sum rule")
        return tuple(out)

    @classmethod
    def _grown(cls, p: "LatticePolygon", i: int, ipts: list[IVec], den: int,
               cdirs: list[IVec], s: int, t: int) -> "LatticePolygon | None":
        """The chop of p at vertex i as the polygon ipts / den, or None when
        a local test fails (chop_corner says why the tests suffice).

        ipts holds p's vertices but i, times s / t, with the chain C_0..C_k
        in place of vertex i. Only the k + 2 edges from vertex i - 1 to
        vertex i + k + 1 are new, and cdirs holds the primitive direction
        the chop predicts for each. The cone and turn tests run on these
        directions; each new edge must then be a positive multiple of its
        direction, and that multiple, one exact division, is its lattice
        length. The other edges are p's, scaled, so they keep their primitive
        direction, and their lattice length becomes length * s / t."""
        n, m = p.n, len(ipts)
        dirs, lens = p._edges
        (lx, ly), (hx, hy) = dirs[i - 1], dirs[i]  # the cone at vertex i
        ux, uy = dirs[(i - 2) % n]  # the edge before, for the turn test
        for x, y in cdirs:
            if lx * y - ly * x < 0 or x * hy - y * hx < 0 or ux * y - uy * x <= 0:
                return None
            ux, uy = x, y
        wx, wy = dirs[(i + 1) % n]
        if ux * wy - uy * wx <= 0:
            return None
        clens = []
        ax, ay = ipts[i - 1]
        for j, (x, y) in enumerate(cdirs, i):
            bx, by = ipts[j % m]
            vx, vy = bx - ax, by - ay
            ln = vx // x if x else vy // y
            if ln <= 0 or vx != ln * x or vy != ln * y:
                return None
            clens.append(ln)
            ax, ay = bx, by
        if t != 1:
            lens = tuple(ln // t * s for ln in lens)
        elif s != 1:
            lens = tuple(ln * s for ln in lens)
        if i:
            table = (*dirs[:i - 1], *cdirs, *dirs[i + 1:]), (*lens[:i - 1], *clens, *lens[i + 1:])
        else:  # the edge into C_0 closes the cycle
            table = (*cdirs[1:], *dirs[1:-1], cdirs[0]), (*clens[1:], *lens[1:-1], clens[0])
        out = cls(tuple(ipts), den)
        out.__dict__["_edges"] = table  # seeds the cached property
        return out


_flat = chain.from_iterable  # the coordinates of a sequence of points


def _cross_sum(pts: Sequence[IVec]) -> int:
    """Twice the signed area of the integer polygon pts."""
    return sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(pts, pts[1:] + pts[:1]))


def _validated(ipts: list[IVec], den: int) -> LatticePolygon:
    """The polygon ipts / den, reordered counterclockwise; raises
    InvalidPolygon unless it is strictly convex: every turn strictly left
    and the vertex cycle turning once around."""
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
    # every turn is a strict left turn, by less than half a turn, so the edge
    # directions turn once around exactly when they cross (1, 0) once: an
    # edge in the upper half-plane {y > 0 or y = 0 < x} follows one outside
    # it once (a pentagram crosses twice)
    upper = [
        dy > 0 or (dy == 0 and dx > 0)
        for dx, dy in ((b[0] - a[0], b[1] - a[1]) for a, b in zip(ipts, ipts[1:] + ipts[:1]))
    ]
    turns = sum(1 for i in range(n) if upper[i] and not upper[i - 1])
    if turns != 1:
        raise InvalidPolygon(f"edge directions turn {turns} times around")
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
    u, w = _corner_dirs(p, i, u_side)
    d = _det(u, w)
    r = abs(d)
    if r == 0:
        raise InvalidPolygon("flat corner")
    if r == 1:
        return (1, 0)
    g, gamma, delta = ext_gcd(u[0], u[1])
    if g != 1:
        raise LemmaViolated(f"edge direction {u} is not primitive")
    y_w = gamma * w[0] + delta * w[1]
    q = y_w % r
    if math.gcd(q, r) != 1:
        raise LemmaViolated(f"corner type ({r}, {q}) is not coprime")
    return (r, q)


def check_schedule(schedule: tuple[Fraction, Fraction] | None) -> None:
    """Raise UserInputError unless the schedule is None or two real numbers,
    neither a bool nor a str, each in (0, 1)."""
    if schedule is None:
        return
    if not (isinstance(schedule, (tuple, list)) and len(schedule) == 2 and all(
            isinstance(x, Real) and not isinstance(x, bool) for x in schedule)):
        raise UserInputError(f"an epsilon schedule is two ratios, got {schedule!r}")
    if not all(0 < x < 1 for x in schedule):
        raise UserInputError("epsilon schedule ratios must lie in (0, 1)")


def _schedule_ratios(schedule: tuple[Fraction, Fraction] | None
                     ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The initial and shrink ratios of a checked schedule as (num, den)
    pairs in lowest terms; 1/4 and 1/3 by default."""
    if schedule is None:
        return (1, 4), (1, 3)
    return tuple((x.numerator, x.denominator) for x in map(_fr, schedule))


def explicit_depths(epsilons: Sequence[Fraction]) -> list[tuple[int, int]]:
    """Explicit chop depths as (num, den) pairs in lowest terms; raises
    UserInputError unless epsilons is a list or tuple of finite real
    numbers, none of them a bool or a str. Their count and sign are the
    chop's to judge."""
    if not isinstance(epsilons, (list, tuple)):
        raise UserInputError(f"chop depths are a list of numbers, got {epsilons!r}")
    out = []
    for e in epsilons:
        if not isinstance(e, Real) or isinstance(e, bool):
            raise UserInputError(f"a chop depth is a finite real number, got {e!r}")
        try:
            e = _fr(e)
        except (ValueError, OverflowError) as exc:  # nan, inf
            raise UserInputError(f"a chop depth is a finite real number, got {e!r}") from exc
        out.append((e.numerator, e.denominator))
    return out


def _chop_depths(p: LatticePolygon, i: int, k: int,
                 schedule: tuple[Fraction, Fraction] | None = None) -> list[tuple[int, int]]:
    """The default chop depths at vertex i as (num, den) pairs in lowest
    terms: the first is the initial ratio (1/4 by default) of the shorter
    adjacent edge, each next one the shrink ratio (1/3) of the one before.
    The edge lengths are integers over p.den, so this is integer work.

    Only the first pair takes a gcd of two big ints. With num / den and
    c / d each in lowest terms, the gcd of num c and den d is gcd(num, d)
    gcd(c, den): a prime dividing num divides neither den nor, if it
    divides c, d. Each of those is a gcd with a small int."""
    check_schedule(schedule)
    (a, b), (c, d) = _schedule_ratios(schedule)
    num = min(p.length_scaled(i - 1), p.length_scaled(i)) * a
    den = p.den * b
    g = math.gcd(num, den)
    num, den = num // g, den // g
    out = []
    for _ in range(k):
        out.append((num, den))
        gn, gd = math.gcd(num, d), math.gcd(c, den)
        num, den = num // gn * (c // gd), den // gd * (d // gn)
    return out


@dataclass(frozen=True, init=False)
class ChopResult:
    polygon: LatticePolygon
    new_edge_indices: tuple[int, ...]  # u-side first, matching the expansion
    edge_map: dict  # old edge index -> new edge index (for surviving edges)
    entries: tuple[int, ...]  # continued-fraction entries of r/q
    corner: tuple[int, int]  # (r, q) that was smoothed

    def __init__(self, polygon: LatticePolygon, new_edge_indices: tuple[int, ...],
                 edge_map: dict, entries: tuple[int, ...], corner: tuple[int, int]) -> None:
        d = self.__dict__
        d["polygon"] = polygon
        d["new_edge_indices"] = new_edge_indices
        d["edge_map"] = edge_map
        d["entries"] = entries
        d["corner"] = corner


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

    The chain checks that e_1 is integral and that e_{k+1} = b_k e_k -
    e_{k-1} is w. The second implies that the corner types end on (1, 0):
    write e_j = alpha_j w + beta_j u. Then beta_j = -q_{j-1} / r (with
    q_{-1} = r), since beta and q obey the same recursion from the same
    start, and det(e_j, e_{j+1}) = det(e_0, e_1) = -det(u, w) / r for every
    j. So e_{k+1} = w gives beta_{k+1} = 0, that is q_k = 0, and
    beta_k det(u, w) = det(e_k, w) = -det(u, w) / r, that is q_{k-1} = 1.

    p must be strictly convex and counterclockwise, every turn strictly left
    and the edge directions turning once around, as _validated checks and
    every LatticePolygon the package makes is. The result is then checked
    locally (_grown), on the primitive directions the chain predicts for
    the k + 2 new edges, from vertex i - 1 through C_0..C_k to vertex
    i + 1: e_0, e_1, ..., e_k, w, or their negatives in reverse when u is
    the next edge. Each must lie in the closed cone spanned by p's edges at
    vertex i, the k + 3 turns at C_0..C_k and at the two kept neighbours
    must be strict left turns, and each new edge must be its direction
    times a positive length, which one exact division gives. A positive
    multiple keeps the sign of every cone and turn test, so the tests say
    the same of the edges as of their directions. Every other turn is a
    turn of p, scaled by a positive factor, so it is a strict left turn
    too. Measure edge angles from the edge into vertex i, and let the old
    corner turn by theta < pi, the neighbours by alpha and beta. New edges
    in the cone have angles in [0, theta], so a strict left turn between
    two of them is their angle difference, the one at i - 1 is alpha plus
    the first angle, and the one at i + 1 is theta + beta minus the last:
    each lies in (0, 2 pi), and a strict left turn is below pi. The turns
    add up to alpha + theta + beta, as in p, so the result turns once
    around with every turn strictly left: it is strictly convex and
    counterclockwise, and the global check of _validated accepts it in its
    order. When a local test fails, that global check decides, so a
    rejected chop raises ChopsOverlap with the message it names. The edge
    table of the result is seeded, with no gcd of a big vector.

    The result is reduced to its least common denominator by one running
    gcd of den and the coordinates, which CPython's math.gcd stops taking
    once it reaches 1. It starts at C_k, the deepest vertex: its reduced
    denominator is the largest, so its coordinates share little of den and
    the running value is small after a step or two. From C_0 the running
    value would stay near den for most of the chain, each step a full gcd
    of two big ints, quadratic in the digit count.
    """
    i %= p.n
    u, w = _corner_dirs(p, i, u_side)
    r, q = corner_type(p, i, u_side)
    if r == 1:
        raise WppError("corner is already Delzant; nothing to chop")
    entries = hj_expand(r, q)
    k = len(entries)
    if epsilons is None:
        depths = _chop_depths(p, i, k, schedule)
    else:
        depths = explicit_depths(epsilons)
        if len(depths) != k or any(num <= 0 for num, _ in depths):
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

    # q_j of the corner met by chop j: (r, q) -> (q, b q - r) after each chop;
    # the exit check above implies the chain ends on (1, 0) (see docstring)
    qs = []
    rj, qj = r, q
    for b in entries:
        qs.append(qj)
        rj, qj = qj, b * qj - rj

    # chop j moves eps_j along the u side and eps_j / q_j along w; put the
    # old vertices and every move over one denominator and chain in ints.
    # den is a common multiple of p.den and of the denominator of every
    # eps_j / q_j, so ue_j = eps_j den and wf_j = ue_j / q_j are integers.
    # Under a schedule eps_j = eps_0 (c/d)^j, so eden_0 d^(k-1) times the
    # lcm of the q_j is such a multiple, and ue_j = ue_{j-1} c / d exactly
    if epsilons is None:
        (num, eden), (c, d) = depths[0], _schedule_ratios(schedule)[1]
        den = math.lcm(p.den, eden * d ** (k - 1) * math.lcm(*qs))
        ues = [num * (den // eden)]
        for _ in range(k - 1):
            ues.append(ues[-1] * c // d)
    else:
        den = math.lcm(p.den, *(eden * (qj // math.gcd(num, qj))
                                for (num, eden), qj in zip(depths, qs)))
        ues = [num * (den // eden) for num, eden in depths]
    scale = den // p.den
    vx, vy = p.ipts[i]
    vx, vy = vx * scale, vy * scale
    chain: list[IVec] = []
    for (dx, dy), ue, qj in zip(dirs, ues, qs):
        wf = ue // qj
        chain.append((vx - ue * dx, vy - ue * dy))
        vx, vy = vx + wf * w[0], vy + wf * w[1]
    chain.append((vx, vy))

    # reduce to the least common denominator, den / g with g the gcd of den
    # and every coordinate. The running gcd starts at the deepest vertex C_k
    # (see docstring) and stops at 1. Only when it stays above 1, at x, do
    # the kept old vertices count, their coordinates c scaled: gcd(x,
    # scale c_1, scale c_2, ...) = gcd(x, scale gcd(x, c_1, c_2, ...)), so
    # that gcd too starts from x. It takes the kept vertices from the last
    # one back: on the builds of the resolve benchmark's seed-1 triples, the
    # running value's digits summed over the steps are 12x fewer that way
    g = math.gcd(den, *_flat(reversed(chain)))
    head, tail = p.ipts[:i], p.ipts[i + 1:]
    if g > 1:
        g = math.gcd(g, scale * math.gcd(g, *_flat(reversed(tail)), *_flat(reversed(head))))
        den //= g
        chain = [(x // g, y // g) for x, y in chain]
    # the kept vertices scale by scale / g = s / t in lowest terms; t divides
    # every one of their coordinates. It is 1 unless the new denominator
    # misses a factor of p.den, which only vertex i needed
    t = math.gcd(scale, g)
    s, t = scale // t, g // t
    if t != 1:
        head = tuple((x // t * s, y // t * s) for x, y in head)
        tail = tuple((x // t * s, y // t * s) for x, y in tail)
    elif s != 1:
        head = tuple((x * s, y * s) for x, y in head)
        tail = tuple((x * s, y * s) for x, y in tail)
    # the new edges run along e_0, e_1, ..., e_k, w from vertex i - 1 to
    # vertex i + 1, or along their negatives in reverse when u is the next edge
    cdirs = [*dirs, w]
    if u_side == "prev":
        ordered = chain
    else:
        ordered = chain[::-1]
        cdirs = [(-x, -y) for x, y in reversed(cdirs)]
    new_ipts = [*head, *ordered, *tail]
    p2 = LatticePolygon._grown(p, i, new_ipts, den, cdirs, s, t)
    if p2 is None:
        try:
            p2 = _validated(new_ipts, den)
        except InvalidPolygon as exc:
            raise ChopsOverlap(f"chop depths too large at vertex {i}: {exc}") from exc
        if p2.ipts != tuple(new_ipts):
            # depths past both edges of a triangle corner turn every turn right
            raise ChopsOverlap(f"chop at vertex {i} broke the vertex cycle")

    if u_side == "prev":
        new_ids = tuple(range(i, i + k))
    else:
        new_ids = tuple(range(i + k - 1, i - 1, -1))
    # edges before vertex i keep their index, the others move up by k; at
    # i = 0 that includes the last edge, which now ends at C_0
    n_old = p.n
    edge_map = dict(zip(range(n_old), [*range(i), *range(i + k, n_old + k)]))

    return ChopResult(p2, new_ids, edge_map, entries, (r, q))


def edge_selfint(p: LatticePolygon, i: int) -> int:
    """Self-intersection of the sphere over edge i, from the edge directions.

    Requires Delzant corners at both ends, det(d_{i-1}, d_i) = 1 and
    det(d_i, d_{i+1}) = 1. Then d_{i-1} + d_{i+1} = -s d_i for an integer s,
    and s = det(d_{i+1}, d_{i-1}).
    """
    dirs = p.directions
    n = len(dirs)
    i %= n
    prev, cur, nxt = dirs[i - 1], dirs[i], dirs[(i + 1) % n]
    if _det(prev, cur) != 1:
        raise NotDelzantNeighborhood(f"corner at vertex {i} is not Delzant")
    if _det(cur, nxt) != 1:
        raise NotDelzantNeighborhood(f"corner at vertex {(i + 1) % n} is not Delzant")
    return _det(nxt, prev)


def edge_selfints(p: LatticePolygon) -> tuple[int, ...]:
    """Self-intersections of all edges, computed once per polygon."""
    return p.selfints


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

    The contraction runs in O(n log n): the remaining edges form a ring of
    prev/next links, and a min-heap holds the ids of (-1) edges. An edge's
    self-intersection only rises (by 1 per contracted neighbour), so it
    enters the heap once, when it reaches -1, and an id whose edge has since
    risen past -1 is dropped when it comes to the top.

    The terminal model's squares and lengths are not compared here: the
    square and area checks of _verify_classes decide them.
    """
    sels = edge_selfints(p)
    m = p.n
    sel = list(sels)  # current self-intersections
    ln = list(p._edges[1])  # current lengths
    prev = [(i - 1) % m for i in range(m)]
    nxt = [(i + 1) % m for i in range(m)]
    minus_one = [i for i in range(m) if sel[i] == -1]  # ascending, so a heap
    steps: list[tuple[int, int, int, int]] = []
    cur = m
    while True:
        while minus_one and sel[minus_one[0]] != -1:
            heapq.heappop(minus_one)
        if cur == 3 or (cur == 4 and not minus_one):
            break
        if not minus_one:
            raise NoMinusOneEdge(f"no (-1) edge among {cur} edges")
        e = heapq.heappop(minus_one)
        left, right = prev[e], nxt[e]
        steps.append((e, left, right, ln[e]))
        for x in (left, right):
            sel[x] += 1
            ln[x] += ln[e]
            if sel[x] == -1:
                heapq.heappush(minus_one, x)
        nxt[left], prev[right] = right, left
        cur -= 1
    # the remaining edges in cyclic order from the smallest id
    removed = {st[0] for st in steps}
    ring = [next(i for i in range(m) if i not in removed)]
    while len(ring) < cur:
        ring.append(nxt[ring[-1]])
    n_steps = len(steps)
    if cur == 3:
        terminal, terminal_k = "cp2", 0
        classes: dict[int, Vec] = {e: {0: 1} for e in ring}
        area_vals = [ln[ring[0]]]
        lat = cp2_lattice(n_steps)
    else:
        # fibers f0, f1 of square 0 and sections top, bot of squares k, -k
        quads = [ring[i:] + ring[:i] for i in range(4)]
        ruled = [q for q in quads if sel[q[0]] == sel[q[2]] == 0 and sel[q[1]] == -sel[q[3]] >= 0]
        if not ruled:
            raise LemmaViolated("terminal quadrilateral is not a ruled surface")
        f0, top, f1, bot = ruled[0]
        terminal, terminal_k = "hirz", sel[top]
        classes = {f0: {0: 1}, f1: {0: 1}, bot: {1: 1},
                   top: {0: terminal_k, 1: 1} if terminal_k else {1: 1}}
        area_vals = [ln[f0], ln[bot]]
        lat = hirz_lattice(terminal_k, n_steps)

    # each replayed blowup opens a fresh slot: the restored edge is that basis
    # vector, and its two neighbours lose it, so their coefficient there is -1
    for eid, lid, rid, length in reversed(steps):
        b_idx = len(area_vals)
        classes[eid] = {b_idx: 1}
        classes[lid][b_idx] = -1
        classes[rid][b_idx] = -1
        area_vals.append(length)

    edge_classes = tuple(classes[i] for i in range(m))
    area = AreaForm.from_scaled(tuple(area_vals), p.den)
    pc = PolygonClasses(lat, area, edge_classes, terminal, terminal_k,
                        tuple(s[0] for s in steps))
    _verify_classes(p, sels, pc)
    return pc


def _verify_classes(p: LatticePolygon, sels: tuple[int, ...], pc: PolygonClasses) -> None:
    """Check the edge classes' labelled intersection form, areas and sum -K;
    adjunction and K^2 follow, so they are not re-derived.

    One sweep over the slot buckets of the m edge classes (one class per
    edge, every slot in the rank) gives every pairing. Off the head the gram
    is diagonal, so only classes sharing a slot, or holding two head slots
    the head links, meet. Each bucket adds its slot's square term to each
    class's square and its term for each pair it holds: a pair of cyclic
    neighbours goes to the list of pairings x_i.x_{i+1}, and every other pair
    is hashed by its edges. The ledger's tail buckets hold exactly three
    classes, the edge a blowup restored and its two neighbours, so only the
    neighbours' pair is hashed; it cancels against the head and later slots.
    The same sweep adds the scaled areas and each slot's class sum.

    Entry (i, i) must be s_i = sels[i], adjacent edges must pair to 1 and
    every hashed pairing must end zero. The scaled area is compared with the
    scaled edge length directly when the area form's denominator is p.den,
    as on every ledger assign_classes makes of a chopped presentation;
    otherwise both are cross-multiplied. With sum_j x_j = -K and sum_i s_i =
    12 - 3m (the toric sum rule selfints checks), K.x_i = -sum_j x_j.x_i =
    -(s_i + 2), which is adjunction, and K^2 = sum_{i,j} x_i.x_j = sum_i s_i
    + 2m = 12 - m. The ledger opens one slot per edge past its three (cp2)
    or four (F_k) terminal edges, over a rank-1 or rank-2 head, so m = rank
    + 2 and K^2 = 10 - rank: only m = rank + 2 is compared."""
    lat, area, cls = pc.lattice, pc.area, pc.edge_classes
    m = p.n
    by_slot: dict[int, list[tuple[int, int]]] = {}
    for i, x in enumerate(cls):
        for s, v in x.items():
            by_slot.setdefault(s, []).append((i, v))
    head, vals = lat.head, area._ints
    b = len(head)
    sq = [0] * m  # x_i.x_i
    nb = [0] * m  # x_i.x_{i+1}
    ar = [0] * m  # area_scaled(x_i)
    far: dict[tuple[int, int], int] = {}  # every other pairing
    total: Vec = {}  # the class sum
    for s, bucket in by_slot.items():
        w = head[s][s] if s < b else -1
        a = vals[s]
        t = 0
        for i, vi in bucket:
            t += vi
            ar[i] += a * vi
        if t:
            total[s] = t
        if not w:
            continue
        for c, (i, vi) in enumerate(bucket, 1):
            wv = w * vi
            sq[i] += wv * vi
            for j, vj in bucket[c:]:  # j > i: buckets are in edge order
                d = j - i
                if d == 1:
                    nb[i] += wv * vj
                elif d == m - 1:
                    nb[j] += wv * vj
                else:
                    far[i, j] = far.get((i, j), 0) + wv * vj
    for s in range(b):
        for t in range(s + 1, b):
            g = head[s][t]
            if not g:
                continue
            for i, vi in by_slot.get(s, ()):
                gv = g * vi
                for j, vj in by_slot.get(t, ()):
                    if i == j:
                        sq[i] += 2 * gv * vj
                        continue
                    lo, hi = (i, j) if i < j else (j, i)
                    d = hi - lo
                    if d == 1:
                        nb[lo] += gv * vj
                    elif d == m - 1:
                        nb[hi] += gv * vj
                    else:
                        far[lo, hi] = far.get((lo, hi), 0) + gv * vj
    den, aden = p.den, area.denominator
    for i, (q, s, x, ln, y) in enumerate(zip(sq, sels, ar, p._edges[1], nb)):
        if q != s:
            raise LemmaViolated(f"edge {i}: square {q} != {s}")
        if (x != ln) if den == aden else (x * den != ln * aden):
            raise LemmaViolated(f"edge {i}: area does not match edge length")
        if y != 1:
            raise LemmaViolated(f"edges {i},{(i + 1) % m}: not adjacent in homology")
    if lat.canonical is None:
        raise MissingClasses("ledger lattice has no canonical class")
    if total != vneg(lat.canonical):
        raise LemmaViolated("edge classes do not sum to the anticanonical class")
    if m != lat.rank + 2:
        raise LemmaViolated("canonical square does not match the rank")
    bad = [key for key, g in far.items() if g]
    if bad:
        i, j = min(bad)
        raise LemmaViolated(f"edges {i},{j}: unexpected intersection {far[i, j]}")


# --- the six weight presentations ----------------------------------------------


@dataclass(frozen=True)
class Presentation:
    index: int
    polygon: LatticePolygon
    corner_vertex: dict  # label "A"|"B"|"C" -> vertex index


# the corners (origin, on the vertical axis, far) of each presentation; the
# far corner of (X, Y, Z) lies at (x y, x_y y) and Y at (0, z)
_LAYOUTS = ("ABC", "ACB", "BAC", "BCA", "CAB", "CBA")


def check_presentation(index: int) -> None:
    """Raise UserInputError unless index is an int in 1..6, not a bool."""
    if isinstance(index, bool) or not isinstance(index, int) or not 1 <= index <= 6:
        raise UserInputError(f"presentation must be 1..6, got {index!r}")


def presentation(w: WeightTriple, index: int) -> Presentation:
    """One of the six moment triangles, index in 1..6."""
    check_presentation(index)
    x, y, z = _LAYOUTS[index - 1]
    wx, wy = getattr(w, x.lower()), getattr(w, y.lower())
    table = {
        x: (0, 0),
        y: (0, getattr(w, z.lower())),
        z: (wx * wy, getattr(w, f"{x}_{y}".lower()) * wy),
    }
    poly = _validated(list(table.values()), 1)
    corner_vertex = {label: poly.ipts.index(p) for label, p in table.items()}
    if _cross_sum(poly.ipts) != w.a * w.b * w.c:
        raise LemmaViolated(f"presentation {index} has wrong area")
    return Presentation(index, poly, corner_vertex)

