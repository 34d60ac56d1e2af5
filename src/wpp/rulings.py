"""Affine ruling data read off the boundary cycle of a resolution.

The boundary spheres form a cycle: three strings alternating with three
connectors. Walking the cycle both ways from the connector opposite a chosen
string produces two overlapping chains; each has a determinant sign change,
and the weighted partial sum there is a fiber class. The two chains single
out the same class, which meets the cycle only in the opposite connector and
in one node of the chosen string; blowing up along the multiplicity sequence
of its local type turns it into an honest square-zero fiber.

There is one record per cycle sphere, its CycleElement: the cycle, both
chains, both chain configs and the resolved chain of ruling_resolution hold
the same records, with no slot-range check here: the spheres carry the edge
classes, and build_resolution checks once that each lies in the rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LemmaViolated, NoSignChange, WppError
from .homlat import Vec
from .records import hot_record
from .resolution import ResolutionPair
from .strings import (
    DivisorConfig,
    FiberData,
    ResolvedFiber,
    delta_sequence,
    fiber_class,
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


@hot_record
class CycleElement:
    """One sphere of the boundary cycle, the only record of it: it is also
    the sphere's component in the chain configs (a config reads a label and
    a class, and label is the name)."""

    kind: str  # "connector" | "string"
    name: str  # "N_a" or "S_a[3]"
    role: str | None  # string role, None for connectors
    stored_index: int | None  # 1-based position within its string
    edge_id: int
    cls: Vec  # sparse, shared with ResolutionPair.edge_classes
    selfint: int

    @property
    def label(self) -> str:
        return self.name


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


@hot_record
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


def combined_strings(rp: ResolutionPair, target: str = "c") -> tuple[CombinedString, CombinedString]:
    """Both approach chains toward target: the boundary cycle walked forward
    and backward from the opposite connector, cut from one path. The backward
    walk traverses the other strings in reversed orientation.

    The path is the cycle without the opposite connector, read from just after
    it. The forward chain is the path cut after the target string's last
    component; the backward chain is the reversed path cut after its first.
    """
    opp = OPPOSITE_CONNECTOR.get(target)
    if opp is None:
        raise WppError(f"target must be one of a, b, c, got {target!r}")
    cycle = boundary_elements(rp)
    start = next(i for i, el in enumerate(cycle) if el.name == opp)
    path = cycle[start + 1:] + cycle[:start]
    hits = [i for i, el in enumerate(path) if el.role == target]
    return (CombinedString("forward", target, path[: hits[-1] + 1]),
            CombinedString("backward", target, path[hits[0]:][::-1]))


def _chain_nu(cs: CombinedString) -> int:
    """Stored index of the first target component at or after the chain's sign
    change, where its prefixes stop being negative definite."""
    big_k = delta_sequence(cs.selfints).first_sign_change()
    if big_k is not None:
        for el in cs.elements[big_k - 1:]:
            if el.role == cs.target:
                return el.stored_index
    raise NoSignChange(f"every truncation toward {cs.target} is negative definite")


def nu_indices(rp: ResolutionPair, target: str = "c") -> tuple[int, int]:
    """Truncation indices into the target string, from one delta sequence per chain.

    The first index is the least nu for which the forward chain truncated at
    stored index nu stops being negative definite; the second is the largest
    nu for which the backward chain truncated from stored index nu up is not
    negative definite. Both point into the same stored numbering.
    """
    fwd, bwd = combined_strings(rp, target)
    return _chain_nu(fwd), _chain_nu(bwd)


@hot_record
class ApproachData:
    """Sign-change data of one approach chain."""

    combined: CombinedString
    config: DivisorConfig  # the chain with its classes
    deltas: tuple[int, ...]
    sign_change: int | None  # count of leading positive minors
    nu: int | None  # stored index of the chain node, when it lies in the target
    in_range: bool  # node and its chain successor both in the target string
    fiber: FiberData | None  # fiber class at the sign change, with its (p, q)


def _approach(rp: ResolutionPair, cs: CombinedString) -> ApproachData:
    """The data of chain cs, whose config holds the chain's own cycle
    records as its components; their slots were checked against the rank by
    build_resolution."""
    cfg = DivisorConfig._grown(rp.lattice, cs.elements, ())
    ds = delta_sequence(cs.selfints)
    big_k = ds.first_sign_change()
    if big_k is None:
        return ApproachData(cs, cfg, ds.deltas, None, None, False, None)
    node = cs.elements[big_k - 1]
    nu = node.stored_index if node.role == cs.target else None
    in_range = (
        node.role == cs.target
        and big_k < len(cs.elements)
        and cs.elements[big_k].role == cs.target
    )
    return ApproachData(cs, cfg, ds.deltas, big_k, nu, in_range,
                        fiber_class(cfg, ds.deltas, big_k))


@hot_record
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

    For the default target (the largest weight) every claim left to decide
    is asserted: a sign change on both chains, in range of the target
    string, with matching fibers and the case split against the opposite
    connector square (the index gap and the normal forms of the local
    types). For the permuted targets the same data is computed and a failed
    claim is recorded in violations instead of raised, under one of the tags
    no_sign_change, out_of_range, fiber_mismatch and case_shape. The square
    identity F.F = p * q is fiber_class's own check, which raises for every
    target.

    The other claims need no lattice work here; they follow from facts the
    build already proved. Let x_1 .. x_m be the forward chain, x_1 next to
    the opposite connector N, b_i = -s_i, and k the sign change: delta_0 ..
    delta_{k-1} > 0 >= delta_k, p = -delta_k, q = delta_{k-1}, and F = sum
    delta_{i-1} x_i over i <= k, with delta_{-1} = 0 and delta_i = b_i
    delta_{i-1} - delta_{i-2}. _verify_classes proved on the ledger that x_i
    . x_i = s_i, that cycle neighbours pair to 1 and other spheres to 0,
    that K.x_i = -(s_i + 2) and that area(x_i) is the edge's positive
    length; the conversion to the CP^2 basis keeps all four (to_cp2's
    certificate, transport_area's checked inverse), and build_resolution's
    string-end checks make boundary_elements the cycle's edge order.

    - Profile: F.x_j = delta_{j-2} - b_j delta_{j-1} + delta_j = 0 for j <
      k, F.x_k = -delta_k = p, F.x_{k+1} = delta_{k-1} = q and F.N =
      delta_0 = 1, as x_1 is the only x_i (i <= k) next to N: in_range puts
      x_{k+1} in the chain, so x_k does not end the path. F pairs 0 with
      every other sphere. x_k and x_{k+1} are the target's stored nu_a and
      nu_a + 1, as the forward chain reads the target string in order.
    - Canonical: K.F = sum delta_{i-1} (b_i - 2) = delta_k - delta_{k-1} -
      1 = -p - q - 1, since b_i delta_{i-1} = delta_i + delta_{i-2}
      telescopes (as in resolution_fiber_class), so the index F.F - K.F is
      (p + 1)(q + 1).
    - Area: area(F) = sum delta_{i-1} area(x_i) > 0, every term positive.
    - Indices: in_range puts each node in the target string, where every
      sphere has a stored index, so nu_a and nu_b are set; the prefixes
      before a node are negative definite and the one ending there is not,
      so nu_indices gives (nu_a, nu_b) by construction.

    The chain configs hold the cycle's own records, one per sphere, and
    trust the slot range of its class: build_resolution checks every edge
    class against the rank.
    """
    fwd, bwd = (_approach(rp, cs) for cs in combined_strings(rp, target))
    strict = target == "c"
    opp = OPPOSITE_CONNECTOR[target]
    s_opp = rp.connectors[opp].selfint
    violations: list[str] = []

    def fail(tag: str, msg: str) -> None:
        if strict:
            raise LemmaViolated(msg)
        violations.append(tag)

    fa, fb = fwd.fiber, bwd.fiber
    if fa is None or fb is None:  # a chain without sign change has no fiber
        if strict:
            raise NoSignChange(f"no determinant sign change approaching {target}")
        return RulingData(target, opp, s_opp, "NoSignChange", fwd.nu, bwd.nu,
                          None, None, None, None, None, None, None, None, None,
                          fwd, bwd, ("no_sign_change",))

    if not (fwd.in_range and bwd.in_range):
        fail("out_of_range", f"sign change lands outside string {target}")
        return RulingData(target, opp, s_opp, "OutOfRange", fwd.nu, bwd.nu,
                          None, fa.p, fa.q, fb.p, fb.q, None, None, None,
                          None, fwd, bwd, tuple(violations))

    nu_a, nu_b = fwd.nu, bwd.nu
    if fa.fclass != fb.fclass:
        fail("fiber_mismatch", "forward and backward fibers differ")
    fiber, p, q = fa.fclass, fa.p, fa.q

    if s_opp >= 0:
        case = "EmbeddedFiber"
        shape_ok = (
            nu_b - nu_a == 2
            and (p, q) == (0, 1)
            and (fb.p, fb.q) == (0, 1)
        )
    else:
        case = "Unicuspidal"
        shape_ok = (
            nu_b - nu_a == 1 and (p, q) == (fb.q, fb.p) and p >= 1 and q >= 1
        )
    if not shape_ok:
        fail("case_shape", f"{case} data out of shape for target {target}")

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
        pb=fb.p,
        qb=fb.q,
        # fiber_class raised unless F.F = -delta_{k-1} * delta_k, which is p * q
        selfint=p * q,
        canonical_pairing=-p - q - 1,  # K.F, by the docstring
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


def ruling_resolution(rd: RulingData) -> RulingResolution:
    """Blow up the cusp node along the multiplicity sequence of (p, q).

    Requires a Unicuspidal ruling with clean data. The resolved class has
    square zero and canonical pairing -2, meets the last exceptional sphere
    once, keeps its single intersection with the opposite connector, and
    stays disjoint from every other cycle sphere.

    resolution_fiber_class checks the pairings with the transformed forward
    chain. The other cycle spheres (the opposite connector and those past the
    target string) are zero on the new exceptional slots, so the resolved
    fiber pairs with each of them as the fiber did: 1 with the opposite
    connector and 0 with the rest, by the profile that ruling's docstring
    derives from the ledger's verified gram.
    """
    if rd.case != "Unicuspidal":
        raise WppError(f"ruling resolution needs a Unicuspidal ruling, got {rd.case}")
    if rd.violations:
        raise WppError(f"ruling data carries violations {rd.violations}")
    fwd = rd.forward
    if fwd.fiber is None:
        raise LemmaViolated("Unicuspidal ruling has no forward sign change")
    # implied, so not re-checked: the multiplicities are weight_sequence(pa,
    # qa) by resolution_fiber_class's subtraction-pair check on the forward
    # (p, q); pa and qa are set on every Unicuspidal ruling; the pairings off
    # the chain are ruling's profile, proved from the ledger (see the docstring)
    rf = resolution_fiber_class(fwd.config, fwd.fiber)
    return RulingResolution(rd, rf.config, rf, rf.multiplicities, rf.config.lattice.rank)
