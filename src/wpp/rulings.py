"""Affine ruling data read off the boundary cycle of a resolution.

The boundary spheres form a cycle: three strings alternating with three
connectors. Walking the cycle both ways from the connector opposite a chosen
string produces two overlapping chains; each has a determinant sign change,
and the weighted partial sum there is a fiber class. The two chains single
out the same class, which meets the cycle only in the opposite connector and
in one node of the chosen string; blowing up along the multiplicity sequence
of its local type turns it into an honest square-zero fiber.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import weight_sequence
from .errors import LemmaViolated, MissingClasses, NoSignChange, WppError
from .homlat import Vec
from .resolution import ResolutionPair
from .strings import (
    DivisorConfig,
    ResolvedFiber,
    chain_config,
    delta_sequence,
    fiber_class,
    is_negative_definite,
    resolution_fiber_class,
)

__all__ = [
    "CycleElement",
    "boundary_elements",
    "CombinedString",
    "combined_strings",
    "nu_indices",
    "ApproachData",
    "RulingData",
    "ruling",
    "RulingResolution",
    "ruling_resolution",
]

# connector that does not flank the target string
OPPOSITE_CONNECTOR = {"a": "N_a", "b": "N_b", "c": "N_c"}


@dataclass(frozen=True)
class CycleElement:
    kind: str  # "connector" | "string"
    name: str  # "N_a" or "S_a[3]"
    role: str | None  # string role, None for connectors
    stored_index: int | None  # 1-based position within its string
    edge_id: int
    cls: Vec
    selfint: int


def boundary_elements(rp: ResolutionPair) -> tuple[CycleElement, ...]:
    """The boundary cycle in the fixed label order N_c, S_a, N_b, S_c, N_a, S_b."""
    out: list[CycleElement] = []
    for conn_label, role in (("N_c", "a"), ("N_b", "c"), ("N_a", "b")):
        cd = rp.connectors[conn_label]
        out.append(
            CycleElement("connector", conn_label, None, None, cd.edge_id,
                         rp.edge_classes[cd.edge_id], cd.selfint)
        )
        sd = rp.strings[role]
        for pos, eid in enumerate(sd.edge_ids, start=1):
            out.append(
                CycleElement("string", f"S_{role}[{pos}]", role, pos, eid,
                             rp.edge_classes[eid], rp.edge_sels[eid])
            )
    return tuple(out)


@dataclass(frozen=True)
class CombinedString:
    """A walk through two strings and the connector between them, ending in
    the target string; elements carry provenance back to the cycle."""

    direction: str  # "forward" | "backward"
    target: str
    elements: tuple[CycleElement, ...]

    @property
    def selfints(self) -> tuple[int, ...]:
        return tuple(el.selfint for el in self.elements)

    def classes(self) -> tuple[Vec, ...]:
        return tuple(el.cls for el in self.elements)

    def labels(self) -> tuple[str, ...]:
        return tuple(el.name for el in self.elements)


def _chains(cycle: tuple[CycleElement, ...], target: str) -> tuple[CombinedString, CombinedString]:
    """Both approach chains toward target, cut from one path.

    The path is the cycle without the opposite connector, read from just after
    it. The forward chain is the path cut after the target string's last
    component; the backward chain is the reversed path cut after its first.
    """
    opp = OPPOSITE_CONNECTOR.get(target)
    if opp is None:
        raise WppError(f"target must be one of a, b, c, got {target!r}")
    start = next(i for i, el in enumerate(cycle) if el.name == opp)
    path = cycle[start + 1:] + cycle[:start]
    hits = [i for i, el in enumerate(path) if el.role == target]
    return (CombinedString("forward", target, path[: hits[-1] + 1]),
            CombinedString("backward", target, path[hits[0]:][::-1]))


def combined_strings(rp: ResolutionPair, target: str = "c") -> tuple[CombinedString, CombinedString]:
    """The two approach chains for a target string: walking the cycle forward
    and backward from the opposite connector. The backward walk traverses the
    other strings in reversed orientation."""
    return _chains(boundary_elements(rp), target)


def _nu_scan(chains: tuple[CombinedString, CombinedString]) -> tuple[int, int]:
    """Stored index of the first target component, along each chain, whose
    truncation of the chain there is not negative definite."""
    out = []
    for cs in chains:
        sels = cs.selfints
        nus = (el.stored_index for k, el in enumerate(cs.elements, start=1)
               if el.role == cs.target and not is_negative_definite(sels[:k]))
        nu = next(nus, None)
        if nu is None:
            raise NoSignChange(f"every truncation toward {cs.target} is negative definite")
        out.append(nu)
    return out[0], out[1]


def nu_indices(rp: ResolutionPair, target: str = "c") -> tuple[int, int]:
    """Truncation indices into the target string, by definiteness scanning.

    The first index is the least nu for which the forward chain truncated at
    stored index nu stops being negative definite; the second is the largest
    nu for which the backward chain truncated from stored index nu up is not
    negative definite. Both point into the same stored numbering.
    """
    return _nu_scan(combined_strings(rp, target))


@dataclass(frozen=True)
class ApproachData:
    """Sign-change data of one approach chain."""

    combined: CombinedString
    config: DivisorConfig  # the chain with its classes
    deltas: tuple[int, ...]
    sign_change: int | None  # count of leading positive minors
    nu: int | None  # stored index of the chain node, when it lies in the target
    in_range: bool  # node and its chain successor both in the target string
    fiber: Vec | None
    p: int | None
    q: int | None


def _approach(rp: ResolutionPair, cs: CombinedString) -> ApproachData:
    cfg = chain_config(rp.lattice, list(cs.classes()), labels=list(cs.labels()),
                       validate=False)
    ds = delta_sequence(cs.selfints)
    big_k = ds.first_sign_change()
    if big_k is None:
        return ApproachData(cs, cfg, ds.deltas, None, None, False, None, None, None)
    node = cs.elements[big_k - 1]
    nu = node.stored_index if node.role == cs.target else None
    in_range = (
        node.role == cs.target
        and big_k < len(cs.elements)
        and cs.elements[big_k].role == cs.target
    )
    fd = fiber_class(cfg, big_k)
    return ApproachData(cs, cfg, ds.deltas, big_k, nu, in_range, fd.fclass, fd.p, fd.q)


@dataclass(frozen=True)
class RulingData:
    """Common fiber class of the two approaches with its case data.

    nu_a / nu_b are the truncation indices of the forward / backward
    approaches; pa, qa and pb, qb their local types at the sign change. For
    the Unicuspidal case the cusp sits at the node between stored components
    nu_a and nu_b of the target string; for EmbeddedFiber the fiber meets the
    single component nu_a + 1.
    """

    target: str
    opposite: str
    opposite_selfint: int
    case: str  # "EmbeddedFiber" | "Unicuspidal" | "NoSignChange" | "OutOfRange"
    nu_a: int | None
    nu_b: int | None
    fiber: Vec | None
    pa: int | None
    qa: int | None
    pb: int | None
    qb: int | None
    selfint: int | None  # fiber square, equals pa * qa
    canonical_pairing: int | None
    cusp_location: tuple[int, int] | None  # (nu_a, nu_b) when Unicuspidal
    meet_component: int | None  # nu_a + 1 when EmbeddedFiber
    forward: ApproachData
    backward: ApproachData
    violations: tuple[str, ...]


def ruling(rp: ResolutionPair, target: str = "c") -> RulingData:
    """Fiber-class data for the ruling missing the target string.

    For the default target (the largest weight) every structural claim is
    asserted: matching fibers, the case split against the opposite connector
    square, the index gap, the normal forms of the local types, the canonical
    and square identities, and the full intersection profile along the cycle.
    For the permuted targets the same data is computed and any failed claim is
    recorded in violations instead of raised.
    """
    cycle = boundary_elements(rp)
    chains = _chains(cycle, target)
    strict = target == "c"
    opp = OPPOSITE_CONNECTOR[target]
    s_opp = rp.connectors[opp].selfint
    fwd, bwd = (_approach(rp, cs) for cs in chains)
    violations: list[str] = []

    def fail(tag: str, msg: str) -> None:
        if strict:
            raise LemmaViolated(msg)
        violations.append(tag)

    if fwd.sign_change is None or bwd.sign_change is None:
        if strict:
            raise NoSignChange(f"no determinant sign change approaching {target}")
        return RulingData(target, opp, s_opp, "NoSignChange", fwd.nu, bwd.nu,
                          None, None, None, None, None, None, None, None, None,
                          fwd, bwd, ("no_sign_change",))

    if not (fwd.in_range and bwd.in_range):
        fail("out_of_range", f"sign change lands outside string {target}")
        return RulingData(target, opp, s_opp, "OutOfRange", fwd.nu, bwd.nu,
                          None, fwd.p, fwd.q, bwd.p, bwd.q, None, None, None,
                          None, fwd, bwd, tuple(violations))

    nu_a, nu_b = fwd.nu, bwd.nu
    if nu_a is None or nu_b is None:
        raise LemmaViolated(f"sign change approaching {target} has no index")
    # independent route: definiteness scanning over truncations
    if (nu_a, nu_b) != _nu_scan(chains):
        fail("nu_scan", "truncation scan disagrees with the sign-change indices")

    if fwd.fiber != bwd.fiber:
        fail("fiber_mismatch", "forward and backward fibers differ")
    fiber = fwd.fiber
    p, q = fwd.p, fwd.q
    if fiber is None or p is None or q is None:
        raise MissingClasses(f"sign change approaching {target} has no fiber data")

    if s_opp >= 0:
        case = "EmbeddedFiber"
        shape_ok = (
            nu_b - nu_a == 2
            and (p, q) == (0, 1)
            and (bwd.p, bwd.q) == (0, 1)
        )
    else:
        case = "Unicuspidal"
        shape_ok = (
            nu_b - nu_a == 1 and (p, q) == (bwd.q, bwd.p) and p >= 1 and q >= 1
        )
    if not shape_ok:
        fail("case_shape", f"{case} data out of shape for target {target}")

    lat = rp.lattice
    square = lat.sq(fiber)
    kf = lat.k_pair(fiber)
    if square != p * q:
        fail("square", f"fiber square {square} differs from {p * q}")
    if kf != -p - q - 1:
        fail("canonical", f"canonical pairing {kf} differs from {-p - q - 1}")
    if lat.sw_index(fiber) != (p + 1) * (q + 1):
        fail("sw_index", "fiber index differs from (p+1)(q+1)")
    if rp.area.area(fiber) <= 0:
        fail("area", "fiber class has nonpositive area")

    profile_ok = True
    for el in cycle:
        want = 0
        if el.name == opp:
            want = 1
        elif el.role == target and el.stored_index == nu_a:
            want = p
        elif el.role == target and el.stored_index == nu_a + 1:
            want = q
        if lat.pair(fiber, el.cls) != want:
            profile_ok = False
    if not profile_ok:
        fail("profile", "fiber meets the cycle outside the expected components")

    return RulingData(
        target=target,
        opposite=opp,
        opposite_selfint=s_opp,
        case=case,
        nu_a=nu_a,
        nu_b=nu_b,
        fiber=fiber,
        pa=p,
        qa=q,
        pb=bwd.p,
        qb=bwd.q,
        selfint=square,
        canonical_pairing=kf,
        cusp_location=(nu_a, nu_b) if case == "Unicuspidal" else None,
        meet_component=nu_a + 1 if case == "EmbeddedFiber" else None,
        forward=fwd,
        backward=bwd,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class RulingResolution:
    """Result of resolving a unicuspidal fiber into a square-zero class."""

    ruling: RulingData
    config: DivisorConfig  # transformed forward chain with exceptional spheres
    resolved: ResolvedFiber
    multiplicities: tuple[int, ...]
    final_rank: int


def ruling_resolution(rp: ResolutionPair, rd: RulingData) -> RulingResolution:
    """Blow up the cusp node along the multiplicity sequence of (p, q).

    Requires a Unicuspidal ruling with clean data. The resolved class has
    square zero and canonical pairing -2, meets the last exceptional sphere
    once, keeps its single intersection with the opposite connector, and
    stays disjoint from every other cycle sphere.
    """
    if rd.case != "Unicuspidal":
        raise WppError(f"ruling resolution needs a Unicuspidal ruling, got {rd.case}")
    if rd.violations:
        raise WppError(f"ruling data carries violations {rd.violations}")
    fwd = rd.forward
    if fwd.sign_change is None:
        raise LemmaViolated("Unicuspidal ruling has no forward sign change")
    rf = resolution_fiber_class(fwd.config, fwd.sign_change)
    if rd.pa is None or rd.qa is None:
        raise MissingClasses("Unicuspidal ruling has no cusp fraction")
    if rf.multiplicities != weight_sequence(rd.pa, rd.qa):
        raise LemmaViolated("resolution multiplicities differ from the weight sequence")
    lat2 = rf.config.lattice
    chain_names = {el.name for el in fwd.combined.elements}
    for el in boundary_elements(rp):
        if el.name in chain_names:
            continue
        padded = el.cls + (0,) * (lat2.rank - len(el.cls))
        want = 1 if el.name == rd.opposite else 0
        got = lat2.pair(rf.fclass, padded)
        if got != want:
            raise LemmaViolated(
                f"resolved fiber pairs {got} with {el.name}, expected {want}"
            )
    return RulingResolution(rd, rf.config, rf, rf.multiplicities, lat2.rank)
