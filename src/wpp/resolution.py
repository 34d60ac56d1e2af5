"""Minimal symplectic resolutions of weighted projective planes.

A resolution is assembled by smoothing the three corners of one of the six
moment triangles. The boundary becomes a cycle of spheres: three singularity
strings joined by three connector spheres, each edge carrying an exact class
in a blown-up projective plane together with its symplectic area. Structural
facts (connector squares, adjunction, sum rules, adjoint positivity) are
machine-checked on every build, each once where it is decided. The ledger
checks the edge classes' intersection form, areas and sum -K, which imply
adjunction K.x_i = -(s_i + 2) and K^2 = 10 - rank (_verify_classes). A
ruled-surface ledger reaches the projective plane through to_cp2, whose
block depends on the degree k alone and is certified on every call as an
isometry; only the classes holding a block slot are converted. The
predicate reports below re-derive the predicates from the stored data
without assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .arith import WeightTriple, hj_expand, weight_triple
from .errors import (
    InvalidFraction,
    LemmaViolated,
    MissingClasses,
    RankMismatch,
    Unclassified,
    UserInputError,
    WppError,
)
from .homlat import (
    CP2_HEAD,
    AreaForm,
    Dense,
    Lattice,
    NEG_INF,
    Vec,
    class_sum,
    dense,
    in_rank,
    log_kodaira,
    mat_vec,
    to_cp2,
    transport_area,
    vneg,
)
from .polygon import (
    CORNER_CYCLE,
    LatticePolygon,
    assign_classes,
    check_presentation,
    check_schedule,
    chop_corner,
    edge_selfints,
    explicit_depths,
    presentation as presentation_of,
)
from .strings import DeltaSeq, delta_sequence

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
    "torelli_compare",
    "parse_schedule",
]

ROLE_RESIDUE = {"a": "a_b", "b": "b_c", "c": "c_a"}
CONNECTOR_OF_PAIR = {
    frozenset({"A", "B"}): "N_c",
    frozenset({"B", "C"}): "N_a",
    frozenset({"A", "C"}): "N_b",
}


@dataclass(frozen=True, init=False)
class StringData:
    """One singularity string: role, orientation residue, and its edges.

    Like the other records made per string or connector of every build, it
    writes its fields straight into the instance __dict__ and stays frozen."""

    role: str  # "a" | "b" | "c"
    weight: int
    residue: int
    edge_ids: tuple[int, ...]  # final polygon edges, expansion order
    selfints: tuple[int, ...]

    def __init__(self, role: str, weight: int, residue: int, edge_ids: tuple[int, ...],
                 selfints: tuple[int, ...]) -> None:
        d = self.__dict__
        d["role"] = role
        d["weight"] = weight
        d["residue"] = residue
        d["edge_ids"] = edge_ids
        d["selfints"] = selfints


@dataclass(frozen=True, init=False)
class ConnectorData:
    label: str  # "N_a" | "N_b" | "N_c"
    edge_id: int
    selfint: int

    def __init__(self, label: str, edge_id: int, selfint: int) -> None:
        d = self.__dict__
        d["label"] = label
        d["edge_id"] = edge_id
        d["selfint"] = selfint


@dataclass(frozen=True)
class ResolutionPair:
    weights_input: tuple[int, int, int]
    weights: WeightTriple  # role-sorted: a < b < c
    presentation: int
    polygon: LatticePolygon
    lattice: Lattice  # always cp2 form
    area: AreaForm
    edge_classes: tuple[Vec, ...]  # sparse, one per polygon edge
    edge_sels: tuple[int, ...]
    strings: dict  # role -> StringData
    connectors: dict  # label -> ConnectorData
    terminal: str
    terminal_k: int

    @property
    def n(self) -> int:
        """Number of exceptional curves in the resolution."""
        return self.lattice.rank - 1

    def string_classes(self, role: str) -> tuple[Dense, ...]:
        """The string's classes as dense tuples of length rank."""
        r = self.lattice.rank
        return tuple(dense(self.edge_classes[i], r) for i in self.strings[role].edge_ids)

    def connector_class(self, label: str) -> Dense:
        """The connector's class as a dense tuple of length rank."""
        return dense(self.edge_classes[self.connectors[label].edge_id], self.lattice.rank)


def parse_schedule(text: str) -> tuple[Fraction, Fraction]:
    """Parse 'p/q,r/s' into the (initial ratio, shrink ratio) chop schedule."""
    try:
        left, right = text.split(",")
        sched = (Fraction(left.strip()), Fraction(right.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise UserInputError(f"bad epsilon schedule {text!r}") from exc
    check_schedule(sched)
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
    per-corner epsilons, keyed by corner label "A", "B" or "C", control chop
    depths; the default schedule always fits. The result depends on the
    arguments only: the environment is not read here (the CLI turns
    WPP_EPS_SCHEDULE into a schedule). Ratios outside (0, 1), epsilons
    that are not a dict, other epsilons keys and a corner's depths that are
    not a list or tuple of finite real numbers raise UserInputError (CLI
    exit code 2); a wrong count or a nonpositive depth is a ChopsOverlap
    of that corner's chop. Weights are
    sorted into roles a < b < c internally; the input order is kept for
    reporting.
    """
    check_presentation(presentation)
    check_schedule(schedule)
    w = weight_triple(*sorted((a, b, c)))
    if epsilons is not None:
        if not isinstance(epsilons, dict):
            raise UserInputError(
                f"epsilons map corner labels A, B, C to lists of depths, got {epsilons!r}")
        unknown = set(epsilons) - set(CORNER_CYCLE)
        if unknown:
            raise UserInputError(
                f"epsilons for unknown corners {sorted(map(repr, unknown))}; labels are A, B, C"
            )
        for eps in epsilons.values():
            if eps is not None:
                explicit_depths(eps)
    pres = presentation_of(w, presentation)
    poly0 = pres.polygon
    label_at = {v: lab for lab, v in pres.corner_vertex.items()}

    expected = {
        "A": (w.a, w.a_b),
        "B": (w.b, w.b_c),
        "C": (w.c, w.c_a),
    }
    # side[e]: current index of the edge on triangle side e, which runs from
    # triangle vertex e to e + 1. An unchopped corner v starts edge side[v],
    # and its u side is the one toward the next corner of the cycle.
    side = [0, 1, 2]
    cur = poly0
    chop_edges: dict[str, list[int]] = {}
    for lab in "ABC":
        v0 = pres.corner_vertex[lab]
        u_side = "next" if label_at[(v0 + 1) % 3] == CORNER_CYCLE[lab] else "prev"
        eps = None if epsilons is None else epsilons.get(lab)
        res = chop_corner(cur, side[v0], u_side, epsilons=eps, schedule=schedule)
        if res.corner != expected[lab]:
            raise LemmaViolated(
                f"corner {lab} has type {res.corner}, expected {expected[lab]}"
            )
        for lst in (side, *chop_edges.values()):
            lst[:] = [res.edge_map[i] for i in lst]
        chop_edges[lab] = list(res.new_edge_indices)
        cur = res.polygon

    # each connector is the tracked side: it keeps the side's direction and
    # starts on the side's line, compared over the common denominator
    d0, d1 = poly0.den, cur.den
    conn_final: dict[str, int] = {}
    for e, eid in enumerate(side):
        name = CONNECTOR_OF_PAIR[frozenset({label_at[e], label_at[(e + 1) % 3]})]
        sx, sy = poly0.direction(e)
        (ax, ay), (vx, vy) = poly0.ipts[e], cur.ipts[eid]
        on_line = (vx * d0 - ax * d1) * sy == (vy * d0 - ay * d1) * sx
        if cur.direction(eid) != (sx, sy) or not on_line:
            raise LemmaViolated(f"connector {name}: edge {eid} is off its triangle side")
        conn_final[name] = eid

    sels = edge_selfints(cur)
    pc = assign_classes(cur)
    lat, area, classes = pc.lattice, pc.area, pc.edge_classes
    if lat.head != CP2_HEAD:
        # the ledger's squares and areas carry over without a re-check: to_cp2
        # certifies T as an isometry, and transport_area through its checked
        # inverse gives area(T x) = area(x). T is the identity past its
        # block: the other classes (all but about five) are shared as they are
        lat, t_mat, t_inv = to_cp2(lat)
        classes = tuple([mat_vec(t_mat, x) if min(x) < len(t_mat) else x for x in classes])
        area = transport_area(area, t_inv)
    # the one slot-range check of the edge classes, on the union of their
    # slots: the rulings' configs and every pairing downstream trust it
    if not in_rank(set().union(*classes), lat.rank):
        eid = next(i for i, x in enumerate(classes) if not in_rank(x, lat.rank))
        raise RankMismatch(f"edge {eid} has a slot outside rank {lat.rank}")

    # a string runs from the connector toward the next corner of the cycle to
    # the other connector at its corner; a chop from the wrong side at a
    # corner type (r, q) with q^2 = 1 mod r keeps the type but not this order
    prev_corner = {nxt: lab for lab, nxt in CORNER_CYCLE.items()}
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
        for end, other in ((ids[0], CORNER_CYCLE[lab]), (ids[-1], prev_corner[lab])):
            conn = CONNECTOR_OF_PAIR[frozenset({lab, other})]
            if (end - conn_final[conn]) % cur.n not in (1, cur.n - 1):
                raise LemmaViolated(f"string {role}: edge {end} does not meet {conn}")
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
    # to_cp2 returns a cp2 head, and the ledger checked cur.n = rank + 2: the
    # chops add one edge per string sphere, so n = cur.n - 3 is their count
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


@dataclass(frozen=True, init=False)
class DivisorPredicates:
    """The four structural predicates of a resolution divisor, with the data
    backing the admissibility decision. Nothing here is assumed from the
    construction; every field is recomputed from classes and areas. Made
    once per check and read a few times, it writes its fields straight into
    the instance __dict__."""

    full: bool
    abc_type: bool
    gap_admissible: bool
    sub_toric: bool
    gaps: dict  # "ab" | "ac" | "bc" -> Fraction
    adjoint_area: Fraction
    adjoint_square: int
    area_identity: bool  # adjoint area equals minus the total connector area
    kodaira: float | int | None

    def __init__(self, full: bool, abc_type: bool, gap_admissible: bool, sub_toric: bool,
                 gaps: dict, adjoint_area: Fraction, adjoint_square: int,
                 area_identity: bool, kodaira: float | int | None) -> None:
        d = self.__dict__
        d["full"] = full
        d["abc_type"] = abc_type
        d["gap_admissible"] = gap_admissible
        d["sub_toric"] = sub_toric
        d["gaps"] = gaps
        d["adjoint_area"] = adjoint_area
        d["adjoint_square"] = adjoint_square
        d["area_identity"] = area_identity
        d["kodaira"] = kodaira


def _string_values(selfints: tuple[int, ...], forward: DeltaSeq) -> set[tuple[int, int]]:
    """The values of the string read both ways, [b_1, ..., b_n] and [b_n,
    ..., b_1] with b = -selfints, as (num, den) pairs in lowest terms with
    den > 0, from the determinants of its blocks: forward d_n / det(b_2..b_n)
    and reversed d_n / d_{n-1}, d being the delta sequence forward and
    det(b_2..b_n) the entry n - 1 of the reversed one. A negative den flips
    both signs, as in eval_neg_cf; consecutive minors are coprime, so the
    pairs are in lowest terms. Like eval_neg_cf, raises InvalidFraction when
    a proper tail of either reading has determinant zero."""
    n = len(selfints)
    fwd = forward.deltas
    bwd = delta_sequence(selfints[::-1]).deltas
    if 0 in fwd[1:n] or 0 in bwd[1:n]:
        raise InvalidFraction(f"zero tail convergent in {tuple(-s for s in selfints)}")
    out = set()
    for den in (bwd[n - 1], fwd[n - 1]):
        out.add((fwd[n], den) if den > 0 else (-fwd[n], -den))
    return out


def _abc_type(rp: ResolutionPair, forward: Sequence[DeltaSeq]) -> bool:
    """Does some labelling and orientation of the strings realise the three
    singularity fractions of the weight triple? forward holds the delta
    sequences of the strings, in the order of rp.strings."""
    w = rp.weights
    targets = [(getattr(w, role), getattr(w, ROLE_RESIDUE[role])) for role in "abc"]
    values = [
        _string_values(sd.selfints, ds) for sd, ds in zip(rp.strings.values(), forward, strict=True)
    ]
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
    # areas in units of 1 / area.denominator, which is positive: the
    # comparisons and the sign log_kodaira reads are those of the areas
    adjoint_area = area.area_scaled(adjoint)
    adjoint_square = lat.sq(adjoint)
    conn_area = {
        name: area.area_scaled(cls[rp.connectors[name].edge_id])
        for name in ("N_a", "N_b", "N_c")
    }
    area_identity = adjoint_area == -(
        conn_area["N_a"] + conn_area["N_b"] + conn_area["N_c"]
    )

    gaps = {
        "bc": conn_area["N_a"],
        "ac": conn_area["N_b"],
        "ab": conn_area["N_c"] if rp.connectors["N_c"].selfint == -1 else 0,
    }
    pair_of = {"a": ("ab", "ac"), "b": ("ab", "bc"), "c": ("ac", "bc")}
    gap_admissible = all(
        adjoint_area < -(gaps[p1] + gaps[p2]) for p1, p2 in pair_of.values()
    )
    try:
        kod = log_kodaira(adjoint_area, adjoint_square)
    except Unclassified:
        kod = None
    den = area.denominator
    return DivisorPredicates(
        full=full,
        abc_type=abc_type,
        gap_admissible=gap_admissible,
        sub_toric=True,  # constructed from a moment polygon
        gaps={name: Fraction(g, den) for name, g in gaps.items()},
        adjoint_area=Fraction(adjoint_area, den),
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


@dataclass(frozen=True, init=False)
class TwoMinus2Data:
    x: int
    y: int
    z: int
    both_minus2: bool
    k: int | None
    predicted_third: tuple[int, ...] | None

    def __init__(self, x: int, y: int, z: int, both_minus2: bool, k: int | None,
                 predicted_third: tuple[int, ...] | None) -> None:
        d = self.__dict__
        d["x"] = x
        d["y"] = y
        d["z"] = z
        d["both_minus2"] = both_minus2
        d["k"] = k
        d["predicted_third"] = predicted_third


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


# --- Torelli comparison of two resolutions ---------------------------------------


def torelli_compare(r1: ResolutionPair, r2: ResolutionPair) -> bool:
    """Does the label map between the boundary classes of two resolutions of
    one weight triple extend to an isometry of H_2 fixing K and the area form?

    The labels are the components of S_a, S_b, S_c in expansion order, then
    N_a, N_b, N_c. On a smooth toric surface the boundary classes generate
    H_2 over Z and sum to -K, so the label map extends to at most one linear
    map. The form is nondegenerate, so the map exists and is an isometry
    exactly when the labelled gram matrices agree; it is integral since both
    sets generate, fixes K = -(sum of the classes), and preserves area exactly
    when the labelled areas agree. This is the paper's Torelli-type theorem:
    the homological data of the three strings and their connectors determine
    the configuration.
    """
    if r1.weights != r2.weights:
        raise WppError("resolutions have different weight triples")
    return _labelled_data(r1) == _labelled_data(r2)


def _labelled_data(rp: ResolutionPair) -> tuple[dict, tuple[Fraction, ...]]:
    """Nonzero labelled gram entries and the labelled areas."""
    ids = [i for role in "abc" for i in rp.strings[role].edge_ids]
    ids += [rp.connectors[name].edge_id for name in ("N_a", "N_b", "N_c")]
    cls = [rp.edge_classes[i] for i in ids]
    lat = rp.lattice
    if class_sum(cls) != vneg(lat.canonical):
        raise LemmaViolated("labelled boundary classes do not sum to -K")
    return lat.sparse_gram(cls), tuple(rp.area.area(x) for x in cls)
