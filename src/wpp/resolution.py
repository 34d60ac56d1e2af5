"""Minimal symplectic resolutions of weighted projective planes.

A resolution is assembled by smoothing the three corners of one of the six
moment triangles. The boundary becomes a cycle of spheres: three singularity
strings joined by three connector spheres, each edge carrying an exact class
in a blown-up projective plane together with its symplectic area. Structural
facts (connector squares, adjunction, sum rules, adjoint positivity) are
machine-checked on every build; the predicate reports below re-derive them
from the stored data without assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .arith import WeightTriple, hj_expand, weight_triple
from .errors import (
    LemmaViolated,
    MissingClasses,
    Unclassified,
    UserInputError,
    WppError,
)
from .homlat import (
    AreaForm,
    Lattice,
    NEG_INF,
    Vec,
    log_kodaira,
    mat_vec,
    to_cp2,
    transport_area,
    unit,
    vadd,
)
from .polygon import (
    CORNER_CYCLE,
    LatticePolygon,
    assign_classes,
    chop_corner,
    edge_selfints,
    presentation as presentation_of,
    primitive,
)
from .strings import OrientedString, delta_sequence

__all__ = [
    "StringData",
    "ConnectorData",
    "ResolutionPair",
    "build_resolution",
    "connector_selfints",
    "DivisorPredicates",
    "check_divisor_predicates",
    "divisor_predicates_hold",
    "SumBoundResult",
    "check_sum_bound",
    "TwoMinus2Data",
    "two_minus2_strings",
    "check_two_minus2",
    "TorelliResult",
    "torelli_compare",
    "parse_schedule",
]

ROLE_RESIDUE = {"a": "a_b", "b": "b_c", "c": "c_a"}
CONNECTOR_OF_PAIR = {
    frozenset({"A", "B"}): "N_c",
    frozenset({"B", "C"}): "N_a",
    frozenset({"A", "C"}): "N_b",
}


@dataclass(frozen=True)
class StringData:
    """One singularity string: role, orientation residue, and its edges."""

    role: str  # "a" | "b" | "c"
    weight: int
    residue: int
    edge_ids: tuple[int, ...]  # final polygon edges, expansion order
    selfints: tuple[int, ...]


@dataclass(frozen=True)
class ConnectorData:
    label: str  # "N_a" | "N_b" | "N_c"
    edge_id: int
    selfint: int


@dataclass(frozen=True)
class ResolutionPair:
    weights_input: tuple[int, int, int]
    weights: WeightTriple  # role-sorted: a < b < c
    presentation: int
    polygon: LatticePolygon
    lattice: Lattice  # always cp2 form
    area: AreaForm
    edge_classes: tuple[Vec, ...]
    edge_sels: tuple[int, ...]
    strings: dict  # role -> StringData
    connectors: dict  # label -> ConnectorData
    terminal: str
    terminal_k: int

    @property
    def n(self) -> int:
        """Number of exceptional curves in the resolution."""
        return self.lattice.rank - 1

    def string_classes(self, role: str) -> tuple[Vec, ...]:
        sd = self.strings[role]
        return tuple(self.edge_classes[i] for i in sd.edge_ids)

    def connector_class(self, label: str) -> Vec:
        return self.edge_classes[self.connectors[label].edge_id]

    def edge_area(self, edge_id: int) -> Fraction:
        return self.area.area(self.edge_classes[edge_id])


def parse_schedule(text: str) -> tuple[Fraction, Fraction]:
    """Parse 'p/q,r/s' into the (initial ratio, shrink ratio) chop schedule."""
    try:
        left, right = text.split(",")
        sched = (Fraction(left.strip()), Fraction(right.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise UserInputError(f"bad epsilon schedule {text!r}") from exc
    return sched


def build_resolution(
    a: int,
    b: int,
    c: int,
    presentation: int = 1,
    schedule: tuple[Fraction, Fraction] | None = None,
    epsilons: dict | None = None,
) -> ResolutionPair:
    """Resolve the weighted projective plane with the given weights.

    presentation selects one of the six moment triangles. schedule or
    per-corner epsilons control chop depths; the default schedule always
    fits. The result depends on the arguments only: the environment is not
    read here (the CLI turns WPP_EPS_SCHEDULE into a schedule). Ratios
    outside (0, 1) raise UserInputError (CLI exit code 2). Weights are
    sorted into roles a < b < c internally; the input order is kept for
    reporting.
    """
    if not 1 <= presentation <= 6:
        raise UserInputError(f"presentation must be 1..6, got {presentation}")
    w = weight_triple(*sorted((a, b, c)))
    pres = presentation_of(w, presentation)
    poly0 = pres.polygon

    # corners as integer points over poly0.den; an unchopped corner sits in
    # a later polygon at the same point over that polygon's denominator
    corner_pos = {lab: poly0.ipts[idx] for lab, idx in pres.corner_vertex.items()}

    expected = {
        "A": (w.a, w.a_b),
        "B": (w.b, w.b_c),
        "C": (w.c, w.c_a),
    }
    cur = poly0
    chop_edges: dict[str, list[int]] = {}
    for lab in "ABC":
        x, y = corner_pos[lab]
        vi = cur.ipts.index((x * cur.den // poly0.den, y * cur.den // poly0.den))
        tx, ty = corner_pos[CORNER_CYCLE[lab]]
        u_target = primitive(tx - x, ty - y)
        back = cur.direction(vi - 1)
        if u_target == (-back[0], -back[1]):
            u_side = "prev"
        elif u_target == cur.direction(vi):
            u_side = "next"
        else:
            raise LemmaViolated(f"corner {lab}: no edge toward {CORNER_CYCLE[lab]}")
        eps = None if epsilons is None else epsilons.get(lab)
        res = chop_corner(cur, vi, u_side, epsilons=eps, schedule=schedule)
        if res.corner != expected[lab]:
            raise LemmaViolated(
                f"corner {lab} has type {res.corner}, expected {expected[lab]}"
            )
        for lst in chop_edges.values():
            lst[:] = [res.edge_map[i] for i in lst]
        chop_edges[lab] = list(res.new_edge_indices)
        cur = res.polygon

    # connector edge ids by geometry: the unique surviving edge on each
    # original triangle side, compared over the common denominator
    pos_to_label = {pt: lab for lab, pt in corner_pos.items()}
    d0, d1 = poly0.den, cur.den
    conn_final: dict[str, int] = {}
    for e in range(3):
        aa = poly0.ipts[e]
        bb = poly0.ipts[(e + 1) % 3]
        name = CONNECTOR_OF_PAIR[frozenset({pos_to_label[aa], pos_to_label[bb]})]
        sx, sy = primitive(bb[0] - aa[0], bb[1] - aa[1])
        hits = [
            i
            for i, (d, va) in enumerate(zip(cur.directions, cur.ipts))
            if (d == (sx, sy) or d == (-sx, -sy))
            and (va[0] * d0 - aa[0] * d1) * sy == (va[1] * d0 - aa[1] * d1) * sx
        ]
        if len(hits) != 1:
            raise LemmaViolated(f"connector {name}: {len(hits)} candidate edges")
        conn_final[name] = hits[0]

    sels = edge_selfints(cur)
    pc = assign_classes(cur)
    lat, area, classes = pc.lattice, pc.area, pc.edge_classes
    if lat.tag == "hirz":
        lat2, t_mat, t_inv = to_cp2(lat)
        classes = tuple(mat_vec(t_mat, x) for x in classes)
        area = transport_area(area, t_inv)
        for i in range(cur.n):
            if lat2.sq(classes[i]) != sels[i]:
                raise LemmaViolated("basis conversion broke a self-intersection")
            if area.area_scaled(classes[i]) * cur.den != cur.length_scaled(i) * area.denominator:
                raise LemmaViolated("basis conversion broke an area")
        lat = lat2

    strings: dict[str, StringData] = {}
    for lab, role in (("A", "a"), ("B", "b"), ("C", "c")):
        ids = tuple(chop_edges[lab])
        ss = tuple(sels[i] for i in ids)
        weight = getattr(w, role)
        residue = getattr(w, ROLE_RESIDUE[role])
        if ss != tuple(-e for e in hj_expand(weight, residue)):
            raise LemmaViolated(
                f"string {role} self-intersections do not match {weight}/{residue}"
            )
        strings[role] = StringData(role, weight, residue, ids, ss)
    connectors = {
        name: ConnectorData(name, eid, sels[eid]) for name, eid in conn_final.items()
    }

    rp = ResolutionPair(
        weights_input=(a, b, c),
        weights=w,
        presentation=presentation,
        polygon=cur,
        lattice=lat,
        area=area,
        edge_classes=classes,
        edge_sels=sels,
        strings=strings,
        connectors=connectors,
        terminal=pc.terminal,
        terminal_k=pc.terminal_k,
    )
    n = rp.n
    if lat.tag != "cp2" or lat.rank != n + 1:
        raise LemmaViolated("resolution is not a blown-up projective plane")
    if n != sum(len(s.edge_ids) for s in strings.values()):
        raise LemmaViolated("exceptional count does not match string lengths")
    if cur.n != n + 3:
        raise LemmaViolated("edge count does not match n + 3")
    connector_selfints(rp)
    return rp


def connector_selfints(rp: ResolutionPair) -> tuple[int, int, int]:
    """Connector squares in role order, with the structural bounds asserted:
    the connectors opposite the two short strings are (-1) spheres and the
    third has square at least -1."""
    out = (
        rp.connectors["N_a"].selfint,
        rp.connectors["N_b"].selfint,
        rp.connectors["N_c"].selfint,
    )
    if out[0] != -1 or out[1] != -1:
        raise LemmaViolated(f"connector squares {out[:2]} differ from (-1, -1)")
    if out[2] < -1:
        raise LemmaViolated(f"third connector square {out[2]} below -1")
    return out


# --- divisor predicate checks ---------------------------------------------------


@dataclass(frozen=True)
class DivisorPredicates:
    """The four structural predicates of a resolution divisor, with the data
    backing the admissibility decision. Nothing here is assumed from the
    construction; every field is recomputed from classes and areas."""

    full: bool
    abc_type: bool
    gap_admissible: bool
    sub_toric: bool
    gaps: dict  # "ab" | "ac" | "bc" -> Fraction
    adjoint_area: Fraction
    adjoint_square: int
    area_identity: bool  # adjoint area equals minus the total connector area
    kodaira: float | int | None


def _abc_type(rp: ResolutionPair) -> bool:
    """Does some labelling and orientation of the strings realise the three
    singularity fractions of the weight triple?"""
    w = rp.weights
    targets = [
        Fraction(getattr(w, role), getattr(w, ROLE_RESIDUE[role])) for role in "abc"
    ]
    values = []
    for sd in rp.strings.values():
        s = OrientedString(sd.selfints)
        values.append({s.value(), s.reversed_().value()})
    if len(values) != len(targets):
        return False
    return any(
        all(targets[i] in values[p[i]] for i in range(3))
        for p in permutations(range(3))
    )


def check_divisor_predicates(rp: ResolutionPair) -> DivisorPredicates:
    """Evaluate full / type / gap-admissible / sub-toric on a resolution.

    The three pairwise gap values equal the connector areas, the third one
    only while its connector is a (-1) sphere; admissibility compares the
    adjoint area against the pairwise gap sums. The adjoint class is the
    canonical class plus the string components only.
    """
    full = rp.n == sum(len(sd.edge_ids) for sd in rp.strings.values()) and all(
        delta_sequence(sd.selfints).is_negative_definite
        for sd in rp.strings.values()
    )
    abc_type = _abc_type(rp)

    lat, area = rp.lattice, rp.area
    d_total = [0] * lat.rank
    for sd in rp.strings.values():
        for eid in sd.edge_ids:
            cls = rp.edge_classes[eid]
            for r in range(lat.rank):
                d_total[r] += cls[r]
    if lat.canonical is None:
        raise MissingClasses("resolution lattice has no canonical class")
    adjoint = vadd(lat.canonical, tuple(d_total))
    adjoint_area = area.area(adjoint)
    adjoint_square = lat.sq(adjoint)
    conn_area = {
        name: area.area(rp.connector_class(name)) for name in ("N_a", "N_b", "N_c")
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
        sub_toric=True,  # constructed from a moment polygon
        gaps=gaps,
        adjoint_area=adjoint_area,
        adjoint_square=adjoint_square,
        area_identity=area_identity,
        kodaira=kod,
    )


def divisor_predicates_hold(pred: DivisorPredicates) -> bool:
    return (
        pred.full
        and pred.abc_type
        and pred.gap_admissible
        and pred.sub_toric
        and pred.area_identity
        and pred.kodaira == NEG_INF
    )


@dataclass(frozen=True)
class SumBoundResult:
    total_b: int
    lower_bound: int
    identity_ok: bool  # total equals 3n - 3 + sum of connector squares
    bound_ok: bool


def check_sum_bound(rp: ResolutionPair) -> SumBoundResult:
    """Sum of string entries b_i against 3n - 6, with the exact edge-sum identity."""
    total_b = -sum(sum(sd.selfints) for sd in rp.strings.values())
    n = rp.n
    s_conn = sum(rp.connectors[name].selfint for name in ("N_a", "N_b", "N_c"))
    identity_ok = total_b == 3 * n - 3 + s_conn
    bound_ok = total_b >= 3 * n - 6
    return SumBoundResult(total_b, 3 * n - 6, identity_ok, bound_ok)


# --- the two-(-2)-string classification ------------------------------------------


@dataclass(frozen=True)
class TwoMinus2Data:
    x: int
    y: int
    z: int
    both_minus2: bool
    k: int | None
    predicted_third: tuple[int, ...] | None


def two_minus2_strings(x: int, y: int, z: int) -> TwoMinus2Data:
    """When are the strings of weights x and y both (-2)-chains, and what is
    the third string then? Requires x > y > 1; z is the remaining weight.

    Both are (-2)-chains exactly when z = k*x*y - x - y for some k >= 1; the
    third string is then (-x, -k, -y) for k >= 2, (1-x, 1-y) for k = 1 and
    y > 2, and the single entry (2-x) for k = 1 and y = 2.
    """
    if not x > y > 1:
        raise WppError(f"need x > y > 1, got ({x}, {y})")
    if (z + x + y) % (x * y) != 0:
        return TwoMinus2Data(x, y, z, False, None, None)
    k = (z + x + y) // (x * y)
    if k < 1:
        return TwoMinus2Data(x, y, z, False, None, None)
    if k >= 2:
        pred: tuple[int, ...] = (-x, -k, -y)
    elif y != 2:
        pred = (1 - x, 1 - y)
    else:
        pred = (2 - x,)
    return TwoMinus2Data(x, y, z, True, k, pred)


def check_two_minus2(rp: ResolutionPair) -> tuple[TwoMinus2Data, ...]:
    """Cross-check the classification against the built strings, on all three
    ways of picking the pair (x, y). Raises on any inconsistency."""
    by_weight = {sd.weight: sd for sd in rp.strings.values()}
    ws = sorted(by_weight)
    rows = []
    for x, y in ((ws[2], ws[1]), (ws[2], ws[0]), (ws[1], ws[0])):
        z = next(v for v in ws if v not in (x, y))
        data = two_minus2_strings(x, y, z)
        actual_both = all(s == -2 for s in by_weight[x].selfints) and all(
            s == -2 for s in by_weight[y].selfints
        )
        if data.both_minus2 != actual_both:
            raise LemmaViolated(
                f"(-2)-string test disagrees with the classification at ({x},{y},{z})"
            )
        if data.both_minus2:
            sz = by_weight[z].selfints
            if data.predicted_third not in (sz, tuple(reversed(sz))):
                raise LemmaViolated(
                    f"third string {sz} differs from prediction {data.predicted_third}"
                )
        rows.append(data)
    return tuple(rows)


# --- isometry search between two resolutions -------------------------------------


@dataclass(frozen=True)
class TorelliResult:
    found: bool
    permutation: tuple[int, ...] | None  # image slot of each exceptional vector


def torelli_compare(r1: ResolutionPair, r2: ResolutionPair) -> TorelliResult:
    """Search the restricted isometry family (permutations of the exceptional
    basis vectors fixing the line class) for one matching both area forms and
    every correspondingly-labelled boundary class.

    A negative answer means no isometry within this family, not that none
    exists at all.
    """
    if r1.weights != r2.weights:
        raise WppError("resolutions have different weight triples")
    lat1, lat2 = r1.lattice, r2.lattice
    if lat1.rank != lat2.rank:
        return TorelliResult(False, None)

    def labelled(rp: ResolutionPair) -> list[Vec]:
        out = []
        for role in "abc":
            out.extend(rp.string_classes(role))
        for name in ("N_a", "N_b", "N_c"):
            out.append(rp.connector_class(name))
        return out

    cls1, cls2 = labelled(r1), labelled(r2)
    if len(cls1) != len(cls2):
        return TorelliResult(False, None)
    if any(x[0] != y[0] for x, y in zip(cls1, cls2)):
        return TorelliResult(False, None)
    rank = lat1.rank
    if r1.area.area(unit(rank, 0)) != r2.area.area(unit(rank, 0)):
        return TorelliResult(False, None)
    n = rank - 1
    e_area1 = [r1.area.area(unit(rank, i)) for i in range(1, rank)]
    e_area2 = [r2.area.area(unit(rank, i)) for i in range(1, rank)]
    cand = [
        [
            j
            for j in range(n)
            if e_area2[j] == e_area1[i]
            and all(x[i + 1] == y[j + 1] for x, y in zip(cls1, cls2))
        ]
        for i in range(n)
    ]

    assign: list[int | None] = [None] * n
    used = [False] * n

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        for j in cand[i]:
            if not used[j]:
                used[j] = True
                assign[i] = j
                if backtrack(i + 1):
                    return True
                used[j] = False
                assign[i] = None
        return False

    if backtrack(0):
        return TorelliResult(True, tuple(assign))  # type: ignore[arg-type]
    return TorelliResult(False, None)
