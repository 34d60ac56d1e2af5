"""Linear sphere strings, determinant sequences, and blowup/blowdown moves.

A string is recorded by its self-intersection sequence; when it lives in an
ambient lattice it is a DivisorConfig whose components carry homology classes.
The determinant sequence of a string drives everything: definiteness, fiber
classes at sign changes, and the multiplicity data of fiber resolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .arith import eval_neg_cf, weight_sequence
from .errors import (
    BadIndex,
    LemmaViolated,
    NotAdjacent,
    NotAtSignChange,
    NotBlowdownable,
    RankMismatch,
    WppError,
)
from .homlat import (
    Lattice,
    Vec,
    cp2_lattice,
    dot,
    functional_kernel_basis,
    generic_lattice,
    mat_inverse_int,
    unit,
    vsub,
)

__all__ = [
    "OrientedString",
    "DeltaSeq",
    "delta_sequence",
    "is_negative_definite",
    "string_from_fraction",
    "Component",
    "DivisorConfig",
    "chain_config",
    "abstract_chain",
    "MoveResult",
    "BlowdownResult",
    "toric_blowup",
    "half_toric_blowup",
    "non_toric_blowup",
    "exterior_blowup",
    "blowdown",
    "FiberData",
    "fiber_class",
    "fiber_profile",
    "ResolvedFiber",
    "resolution_fiber_class",
    "xi_invariant",
    "selfint_blowdown_moves",
    "adjacent_ones_check",
    "verify_endpoint_unit",
]


@dataclass(frozen=True)
class OrientedString:
    """Self-intersection sequence of a linear chain of spheres, read in order."""

    selfints: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.selfints)

    def bs(self) -> tuple[int, ...]:
        """Entries b_i = -s_i of the continued fraction."""
        return tuple(-s for s in self.selfints)

    def reversed_(self) -> "OrientedString":
        return OrientedString(tuple(reversed(self.selfints)))

    def value(self) -> Fraction:
        """[b_1, ..., b_n] as an exact rational."""
        return eval_neg_cf(self.bs())


def string_from_fraction(p: int, q: int) -> OrientedString:
    """The chain of spheres resolving a p/q cyclic quotient point."""
    from .arith import hj_expand

    return OrientedString(tuple(-b for b in hj_expand(p, q)))


@dataclass(frozen=True)
class DeltaSeq:
    """Determinants of the leading principal blocks of the negated chain form.

    deltas[l-1] holds the determinant of the (l-1) x (l-1) leading block, so
    deltas = (1, b_1, b_1 b_2 - 1, ...) has n+1 entries for a length-n string.
    """

    deltas: tuple[int, ...]

    def first_sign_change(self) -> int | None:
        """Largest K with deltas[0..K-1] all positive and deltas[K] <= 0.

        Returns None when every entry is positive (negative definite chain).
        """
        for i, d in enumerate(self.deltas):
            if d <= 0:
                return i
        return None

    @property
    def is_negative_definite(self) -> bool:
        return all(d > 0 for d in self.deltas)

    @property
    def det(self) -> int:
        """Determinant of the full negated intersection matrix."""
        return self.deltas[-1]


def delta_sequence(selfints: tuple[int, ...] | list[int]) -> DeltaSeq:
    """Recurrence d_{l+1} = b_l d_l - d_{l-1} with d_0 = 1, b_l = -s_l."""
    out = [1]
    prev, cur = 0, 1
    for s in selfints:
        prev, cur = cur, (-s) * cur - prev
        out.append(cur)
        if math.gcd(prev, cur) != 1:  # consecutive minors stay coprime
            raise LemmaViolated(f"consecutive minors {prev}, {cur} share a factor")
    return DeltaSeq(tuple(out))


def is_negative_definite(selfints: tuple[int, ...] | list[int]) -> bool:
    return delta_sequence(selfints).is_negative_definite


# --- sphere configurations -----------------------------------------------------


@dataclass(frozen=True)
class Component:
    label: str
    cls: Vec


@dataclass(frozen=True)
class DivisorConfig:
    """Ordered components with homology classes in a common lattice.

    canonical = None on the lattice marks an abstract configuration; canonical
    pairings with components are then recovered from adjunction, each
    component being an embedded sphere.
    """

    lattice: Lattice
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        for comp in self.components:
            if len(comp.cls) != self.lattice.rank:
                raise RankMismatch(f"component {comp.label} has wrong class length")

    def __len__(self) -> int:
        return len(self.components)

    def classes(self) -> tuple[Vec, ...]:
        return tuple(c.cls for c in self.components)

    def selfint(self, i: int) -> int:
        return self.lattice.sq(self.components[i].cls)

    def selfints(self) -> tuple[int, ...]:
        return tuple(self.selfint(i) for i in range(len(self.components)))

    def pair(self, i: int, j: int) -> int:
        return self.lattice.pair(self.components[i].cls, self.components[j].cls)

    def k_of(self, i: int) -> int:
        """Canonical pairing with component i (adjunction when canonical unknown)."""
        if self.lattice.canonical is not None:
            return self.lattice.k_pair(self.components[i].cls)
        return -2 - self.selfint(i)

    def validate_chain(self) -> None:
        n = len(self.components)
        for i in range(n):
            for j in range(i + 1, n):
                expected = 1 if j == i + 1 else 0
                if self.pair(i, j) != expected:
                    raise NotAdjacent(
                        f"components {i},{j} pair to {self.pair(i, j)}, expected {expected}"
                    )


def chain_config(lattice: Lattice, classes: list[Vec], labels: list[str] | None = None,
                 validate: bool = True) -> DivisorConfig:
    if labels is None:
        labels = [f"v{i+1}" for i in range(len(classes))]
    cfg = DivisorConfig(lattice, tuple(Component(l, tuple(c)) for l, c in zip(labels, classes, strict=True)))
    if validate:
        cfg.validate_chain()
    return cfg


def abstract_chain(selfints: tuple[int, ...] | list[int],
                   labels: list[str] | None = None) -> DivisorConfig:
    """Chain with the tautological basis: gram is the chain intersection form."""
    n = len(selfints)
    gram = [[0] * n for _ in range(n)]
    for i, s in enumerate(selfints):
        gram[i][i] = s
        if i + 1 < n:
            gram[i][i + 1] = gram[i + 1][i] = 1
    lat = generic_lattice(gram, canonical=None)
    if labels is None:
        labels = [f"v{i+1}" for i in range(n)]
    comps = tuple(Component(labels[i], unit(n, i)) for i in range(n))
    return DivisorConfig(lat, comps)


# --- blowup moves --------------------------------------------------------------


@dataclass(frozen=True)
class MoveResult:
    config: DivisorConfig
    e_index: int  # basis index of the fresh (-1) vector
    position: int | None  # where the new component sits, when one is added


@dataclass(frozen=True)
class BlowdownResult:
    config: DivisorConfig
    kind: str  # "toric" | "half_toric" | "exterior"


def _pad(x: Vec, rank: int) -> Vec:
    return x + (0,) * (rank - len(x))


def _blowup(cfg: DivisorConfig, hit: tuple[int, ...], pos: int | None,
            label: str | None) -> MoveResult:
    """Grow the lattice by a fresh (-1) vector e, pad every component, subtract
    e from the hit components and, unless pos is None, insert a sphere of
    class e at pos, labelled e<index> when no label is given."""
    lat2 = cfg.lattice.blowup()
    t = lat2.rank - 1
    e = unit(lat2.rank, t)
    comps = [Component(c.label, _pad(c.cls, lat2.rank)) for c in cfg.components]
    for i in hit:
        comps[i] = Component(comps[i].label, vsub(comps[i].cls, e))
    if pos is not None:
        comps.insert(pos, Component(f"e{t}" if label is None else label, e))
    return MoveResult(DivisorConfig(lat2, tuple(comps)), t, pos)


def toric_blowup(cfg: DivisorConfig, i: int, j: int, label: str | None = None) -> MoveResult:
    """Blow up the transverse intersection of adjacent components i and j.

    Both classes lose the new basis vector; a fresh (-1) component appears
    between them when they are consecutive in the list, else at the end.
    """
    n = len(cfg.components)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise BadIndex(f"bad component pair ({i}, {j})")
    if cfg.pair(i, j) != 1:
        raise NotAdjacent(f"components {i} and {j} do not meet once")
    return _blowup(cfg, (i, j), max(i, j) if abs(i - j) == 1 else n, label)


def half_toric_blowup(cfg: DivisorConfig, i: int, label: str | None = None) -> MoveResult:
    """Blow up a free point of component i; the new sphere hangs off it."""
    n = len(cfg.components)
    if not 0 <= i < n:
        raise BadIndex(f"bad component index {i}")
    return _blowup(cfg, (i,), 0 if i == 0 else n, label)


def non_toric_blowup(cfg: DivisorConfig, i: int) -> MoveResult:
    """Blow up a free point of component i without recording the new sphere."""
    if not 0 <= i < len(cfg.components):
        raise BadIndex(f"bad component index {i}")
    return _blowup(cfg, (i,), None, None)


def exterior_blowup(cfg: DivisorConfig, include_component: bool = False,
                    label: str | None = None) -> MoveResult:
    """Blow up a point away from every component.

    include_component decides whether the free (-1) sphere joins the
    configuration or only the lattice grows.
    """
    return _blowup(cfg, (), len(cfg.components) if include_component else None, label)


def _contract_lattice(lat: Lattice, e: Vec) -> tuple[Lattice, Callable[[Vec], Vec]]:
    """Lattice orthogonal to the (-1) class e, with the coefficient map.

    When e is a basis vector the orthogonal complement has the tautological
    basis (e_j + (e_j.e) e), so new coordinates are just the old ones with
    slot t dropped; the gram picks up G_ij + G_it G_jt. Otherwise the lattice
    is split along the pairing functional of e.
    """
    rank = lat.rank
    t = e.index(1) if (sum(abs(c) for c in e) == 1 and 1 in e) else None
    if t is not None:
        if lat.tag == "generic":
            ok = lat.gram_rows()[t][t] == -1
        else:
            ok = (lat.tag == "cp2" and t >= 1) or (lat.tag == "hirz" and t >= 2)
        if ok:

            def drop(x: Vec, _t: int = t) -> Vec:
                return x[:_t] + x[_t + 1:]

            k2 = None if lat.canonical is None else drop(lat.canonical)
            if lat.tag == "cp2":
                lat2 = cp2_lattice(rank - 2) if k2 is not None else Lattice("cp2", rank - 1)
                if k2 is not None and lat2.canonical != k2:
                    raise LemmaViolated("contracted canonical class is not standard")
            elif lat.tag == "hirz":
                lat2 = Lattice("hirz", rank - 1, k_hirz=lat.k_hirz, canonical=k2)
            else:
                g = lat.gram_rows()
                idx = [i for i in range(rank) if i != t]
                g2 = tuple(
                    tuple(g[i][j] + g[i][t] * g[j][t] for j in idx) for i in idx
                )
                lat2 = generic_lattice(g2, canonical=k2)
            return lat2, drop
    # general path: split Z^rank along the pairing functional of e
    g_rows = lat.gram_rows()
    func = tuple(dot(g_rows[i], e) for i in range(rank))
    kernel, _witness = functional_kernel_basis(func)
    full = kernel + (_witness,)
    inv = mat_inverse_int(full)
    inv_t = tuple(zip(*inv))

    def to_new(x: Vec) -> Vec:
        xe = lat.pair(x, e)
        x_perp = tuple(a + xe * b for a, b in zip(x, e))
        coords = tuple(dot(inv_t[i], x_perp) for i in range(rank))
        if coords[-1] != 0:
            raise WppError("projection left the orthogonal complement")
        return coords[:-1]

    gram2 = tuple(
        tuple(lat.pair(kernel[i], kernel[j]) for j in range(rank - 1))
        for i in range(rank - 1)
    )
    k2 = None if lat.canonical is None else to_new(vsub(lat.canonical, e))
    return generic_lattice(gram2, canonical=k2), to_new


def blowdown(cfg: DivisorConfig, i: int) -> BlowdownResult:
    """Contract component i, a (-1) sphere meeting at most two neighbours once.

    Dispatch on the neighbour count: two gives the inverse of a toric blowup,
    one of a half-toric blowup, zero of an exterior blowup. Neighbours absorb
    the class of the contracted sphere.
    """
    n = len(cfg.components)
    if not 0 <= i < n:
        raise BadIndex(f"bad component index {i}")
    e = cfg.components[i].cls
    if cfg.lattice.sq(e) != -1:
        raise NotBlowdownable(f"component {i} has square {cfg.lattice.sq(e)}")
    if cfg.lattice.canonical is not None and cfg.lattice.k_pair(e) != -1:
        raise NotBlowdownable(f"component {i} has canonical pairing {cfg.lattice.k_pair(e)}")
    neighbours = []
    for j in range(n):
        if j == i:
            continue
        p = cfg.pair(i, j)
        if p == 0:
            continue
        if p != 1:
            raise NotBlowdownable(f"components {i},{j} pair to {p}")
        neighbours.append(j)
    if len(neighbours) > 2:
        raise NotBlowdownable(f"component {i} has {len(neighbours)} neighbours")
    kind = {2: "toric", 1: "half_toric", 0: "exterior"}[len(neighbours)]
    lat2, to_new = _contract_lattice(cfg.lattice, e)
    comps = []
    for j in range(n):
        if j == i:
            continue
        x = cfg.components[j].cls
        xe = cfg.lattice.pair(x, e)
        x_perp = tuple(a + xe * b for a, b in zip(x, e))
        comps.append(Component(cfg.components[j].label, to_new(x_perp)))
    return BlowdownResult(DivisorConfig(lat2, tuple(comps)), kind)


# --- fiber classes at determinant sign changes ---------------------------------


@dataclass(frozen=True)
class FiberData:
    fclass: Vec
    deltas: tuple[int, ...]
    upto: int  # number of leading components summed
    p: int  # -delta_{upto+1}
    q: int  # delta_upto


def fiber_class(cfg: DivisorConfig, upto: int) -> FiberData:
    """Weighted partial sum F = sum_{i<=upto} delta_i [S_i] along a chain.

    The square is checked against -delta_upto * delta_{upto+1} exactly.
    """
    n = len(cfg.components)
    if not 1 <= upto <= n:
        raise BadIndex(f"upto = {upto} outside 1..{n}")
    ds = delta_sequence(cfg.selfints()).deltas
    rank = cfg.lattice.rank
    f = [0] * rank
    for idx in range(upto):
        d = ds[idx]
        cls = cfg.components[idx].cls
        for r in range(rank):
            if cls[r]:
                f[r] += d * cls[r]
    fv = tuple(f)
    if cfg.lattice.sq(fv) != -ds[upto - 1] * ds[upto]:
        raise LemmaViolated("fiber class square disagrees with the minor product")
    return FiberData(fv, ds, upto, -ds[upto], ds[upto - 1])


def fiber_profile(cfg: DivisorConfig, fd: FiberData) -> tuple[int, ...]:
    """Pairings of the fiber class with every component, in order."""
    return tuple(cfg.lattice.pair(fd.fclass, c.cls) for c in cfg.components)


@dataclass(frozen=True)
class ResolvedFiber:
    config: DivisorConfig
    fclass: Vec
    base: FiberData
    multiplicities: tuple[int, ...]
    exceptional_positions: tuple[int, ...]
    exceptional_basis: tuple[int, ...]
    last_meeting: int | None


def resolution_fiber_class(cfg: DivisorConfig, upto: int) -> ResolvedFiber:
    """Resolve the fiber at a determinant sign change into a square-zero class.

    Repeated blowups along the chain node, following the subtraction pattern
    of the multiplicity sequence of (p, q), make the fiber class disjoint from
    the transformed chain except for a single transverse point on the last
    exceptional sphere.
    """
    fd = fiber_class(cfg, upto)
    p, q = fd.p, fd.q
    if not (q > 0 and p >= 0):
        raise NotAtSignChange(f"minors ({fd.deltas[upto-1]}, {fd.deltas[upto]}) at position {upto}")
    # canonical pairing of F through adjunction on the chain components
    orig_selfints = cfg.selfints()
    kf_base = sum(fd.deltas[i] * (-2 - orig_selfints[i]) for i in range(upto))
    mults = weight_sequence(p, q)
    big_l = len(mults)
    if big_l == 0:
        # (p, q) = (0, 1): the fiber already has square zero
        last = upto if upto < len(cfg.components) else None
        rf = ResolvedFiber(cfg, fd.fclass, fd, (), (), (), last)
        _verify_resolved_fiber(rf, kf_base)
        return rf
    if upto >= len(cfg.components):
        raise BadIndex("sign-change node has no right neighbour to blow up")
    # subtraction pairs in (left, right) order along the chain: at each node
    # the larger side keeps the excess, the new sphere takes min(a, b)
    pairs = [(p, q)]
    while pairs[-1] != (1, 1):
        a, b = pairs[-1]
        pairs.append((a - b, b) if a > b else (a, b - a))
    if len(pairs) != big_l or [min(a, b) for a, b in pairs] != list(mults):
        raise LemmaViolated(f"subtraction pairs of ({p}, {q}) miss the weight sequence")

    cur = cfg
    res = toric_blowup(cur, upto - 1, upto, label="C1")
    cur = res.config
    c_pos = res.position
    exc_positions = [c_pos]
    exc_basis = [res.e_index]
    for i in range(1, big_l):
        a, b = pairs[i - 1]
        if a > b:
            res = toric_blowup(cur, c_pos - 1, c_pos, label=f"C{i+1}")
            new_pos = res.position
        else:
            res = toric_blowup(cur, c_pos, c_pos + 1, label=f"C{i+1}")
            new_pos = res.position
        cur = res.config
        for idx in range(len(exc_positions)):
            if exc_positions[idx] >= new_pos:
                exc_positions[idx] += 1
        exc_positions.append(new_pos)
        exc_basis.append(res.e_index)
        c_pos = new_pos
    rank2 = cur.lattice.rank
    f = list(_pad(fd.fclass, rank2))
    for m, eb in zip(mults, exc_basis):
        f[eb] -= m
    fv = tuple(f)
    rf = ResolvedFiber(cur, fv, fd, tuple(mults), tuple(exc_positions),
                       tuple(exc_basis), exc_positions[-1])
    _verify_resolved_fiber(rf, kf_base + sum(mults))
    return rf


def _verify_resolved_fiber(rf: ResolvedFiber, kf_adjunction: int) -> None:
    cfg = rf.config
    lat = cfg.lattice
    if lat.sq(rf.fclass) != 0:
        raise LemmaViolated("resolved fiber class has nonzero square")
    # canonical pairing must be -2: use the canonical class when known, else
    # the adjunction value accumulated from the defining combination
    kf = lat.k_pair(rf.fclass) if lat.canonical is not None else kf_adjunction
    if kf != -2:
        raise LemmaViolated(f"resolved fiber class has canonical pairing {kf}")
    for pos, comp in enumerate(cfg.components):
        got = lat.pair(rf.fclass, comp.cls)
        want = 1 if pos == rf.last_meeting else 0
        if got != want:
            raise LemmaViolated(
                f"resolved fiber pairs {got} with component {comp.label} (expected {want})"
            )


# --- selfint-level moves and small structure lemmas ----------------------------


def xi_invariant(selfints: tuple[int, ...] | list[int]) -> int:
    """-3 * length - sum of entries; unchanged by toric blowdown, +1 under half-toric."""
    return -3 * len(selfints) - sum(selfints)


def selfint_blowdown_moves(seq: tuple[int, ...]):
    """All toric/half-toric blowdowns available on a self-intersection sequence."""
    n = len(seq)
    for i, s in enumerate(seq):
        if s != -1:
            continue
        if n == 1:
            continue  # exterior blowdown leaves the chain category
        if i == 0:
            yield "half_toric", i, (seq[1] + 1,) + seq[2:]
        elif i == n - 1:
            yield "half_toric", i, seq[: n - 2] + (seq[n - 2] + 1,)
        else:
            yield "toric", i, seq[: i - 1] + (seq[i - 1] + 1, seq[i + 1] + 1) + seq[i + 2:]


def adjacent_ones_check(seq: tuple[int, ...]) -> int:
    """Explore every toric/half-toric blowdown descendant of a one-unit chain.

    Verifies each reachable sequence has at most two entries equal to -1, and
    that two such entries are adjacent. Returns the number of distinct
    sequences visited; raises LemmaViolated on any counterexample.
    """
    if seq.count(-1) != 1:
        raise WppError("start sequence must contain exactly one -1 entry")
    seen: set[tuple[int, ...]] = set()
    stack = [seq]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        ones = [i for i, s in enumerate(cur) if s == -1]
        if len(ones) > 2:
            raise LemmaViolated(f"{cur} has {len(ones)} unit entries")
        if len(ones) == 2 and ones[1] - ones[0] != 1:
            raise LemmaViolated(f"{cur} has non-adjacent unit entries")
        for _kind, _i, nxt in selfint_blowdown_moves(cur):
            if nxt not in seen:
                stack.append(nxt)
    return len(seen)


def verify_endpoint_unit(selfints: tuple[int, ...]) -> None:
    """A chain whose first entry is -1 and rest are <= -2 is negative definite."""
    if not selfints or selfints[0] != -1 or any(s > -2 for s in selfints[1:]):
        raise WppError("expected (-1, <= -2, ..., <= -2)")
    if not is_negative_definite(selfints):
        raise LemmaViolated(f"{selfints} is not negative definite")
