"""Linear sphere strings, determinant sequences, and blowup/blowdown moves.

A string is recorded by its self-intersection sequence; when it lives in an
ambient lattice it is a DivisorConfig whose components carry homology classes.
The determinant sequence of a string drives everything: definiteness, fiber
classes at sign changes, and the multiplicity data of fiber resolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from operator import countOf
from typing import Callable, Iterable

from .arith import MEMO_SIZE, _is_int, weight_sequence
from .errors import (
    BadIndex,
    LemmaViolated,
    NotAdjacent,
    NotAtSignChange,
    NotBlowdownable,
    RankMismatch,
    UserInputError,
    WppError,
)
from .homlat import (
    Lattice,
    Vec,
    dense,
    dot,
    functional_kernel_basis,
    generic_lattice,
    in_rank,
    mat_inverse_int,
    sparse,
    vadd,
    vsub,
)
from .records import hot_record

__all__ = [
    "DeltaSeq",
    "delta_sequence",
    "is_negative_definite",
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


def _memo_int_tuples(fn: Callable[[tuple[int, ...]], DeltaSeq]):
    """fn with a bounded cache of MEMO_SIZE results, consulted only for a
    tuple of exact ints. Any other sequence (a list, or one holding a float,
    a bool or an int subclass, which can compare equal to a cached tuple)
    goes to fn itself, so it answers or raises as fn does; a call that
    raises is never stored. __wrapped__ is fn."""
    cached = lru_cache(maxsize=MEMO_SIZE)(fn)

    @wraps(fn)
    def memo(selfints):
        if type(selfints) is tuple and countOf(map(type, selfints), int) == len(selfints):
            return cached(selfints)
        return fn(selfints)

    memo.cache_info = cached.cache_info
    memo.cache_clear = cached.cache_clear
    return memo


def _check_selfints(selfints: Iterable[int]) -> None:
    """Raise UserInputError unless every self-intersection is an int, not a
    bool."""
    for s in selfints:
        if not _is_int(s):
            raise UserInputError(f"self-intersections must be ints, got {s!r}")


@_memo_int_tuples
def delta_sequence(selfints: tuple[int, ...] | list[int]) -> DeltaSeq:
    """Recurrence d_{l+1} = b_l d_l - d_{l-1} with d_0 = 1, b_l = -s_l.

    Memoized on tuples of exact ints: the six presentations of a triple read
    the same chains and strings, and a DeltaSeq is immutable. The entries are
    checked on a miss and on any other sequence, not on a hit."""
    _check_selfints(selfints)
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


@hot_record
class Component:
    """A sphere of a configuration: its label and its sparse class. A config
    reads only these two attributes, so any record carrying them serves as a
    component (the rulings use the boundary cycle's own CycleElements)."""

    label: str
    cls: Vec


def _check_slots(components: Iterable[Component], rank: int) -> None:
    """RankMismatch unless every slot of every class lies in 0..rank-1."""
    for comp in components:
        if not in_rank(comp.cls, rank):
            raise RankMismatch(f"component {comp.label} has a slot outside rank {rank}")


@dataclass(frozen=True)
class DivisorConfig:
    """Ordered components with sparse homology classes in a common lattice.

    canonical = None on the lattice marks an abstract configuration; canonical
    pairings with components are then recovered from adjunction, each
    component being an embedded sphere. Every class slot must lie in the
    lattice's rank (RankMismatch otherwise); the pairings trust that.
    """

    lattice: Lattice
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        _check_slots(self.components, self.lattice.rank)

    @classmethod
    def _grown(cls, lattice: Lattice, components: tuple[Component, ...],
               fresh: tuple[Component, ...]) -> "DivisorConfig":
        """The config of components in lattice, validating only fresh, the
        components made or changed for it. Every other component must come
        from a config validated in a lattice of no larger rank, or carry a
        class checked against such a rank where it was made (the edge
        classes of build_resolution), so its slots lie in this one's too."""
        _check_slots(fresh, lattice.rank)
        cfg = object.__new__(cls)
        object.__setattr__(cfg, "lattice", lattice)
        object.__setattr__(cfg, "components", components)
        return cfg

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
    cfg = DivisorConfig(lattice, tuple(Component(l, c) for l, c in zip(labels, classes, strict=True)))
    if validate:
        cfg.validate_chain()
    return cfg


def abstract_chain(selfints: tuple[int, ...] | list[int],
                   labels: list[str] | None = None) -> DivisorConfig:
    """Chain with the tautological basis: gram is the chain intersection form."""
    _check_selfints(selfints)
    n = len(selfints)
    gram = [[0] * n for _ in range(n)]
    for i, s in enumerate(selfints):
        gram[i][i] = s
        if i + 1 < n:
            gram[i][i + 1] = gram[i + 1][i] = 1
    lat = generic_lattice(gram, canonical=None)
    if labels is None:
        labels = [f"v{i+1}" for i in range(n)]
    comps = tuple(Component(labels[i], {i: 1}) for i in range(n))
    return DivisorConfig(lat, comps)


# --- blowup moves --------------------------------------------------------------


@dataclass(frozen=True)
class MoveResult:
    """The blown-up configuration; its fresh (-1) vector is the last basis vector."""

    config: DivisorConfig
    position: int | None  # where the new component sits, when one is added


@dataclass(frozen=True)
class BlowdownResult:
    config: DivisorConfig
    kind: str  # "toric" | "half_toric" | "exterior"


def _blowup(cfg: DivisorConfig, hit: tuple[int, ...], pos: int | None,
            label: str | None) -> MoveResult:
    """Grow the lattice by a fresh (-1) vector e as its last basis vector,
    subtract e from the hit components and, unless pos is None, insert a
    sphere of class e at pos, labelled e<index> when no label is given. The
    slot of e is new, so the other classes are kept as they are and each hit
    class gains the key with coefficient -1. Only the hit and the new
    components are validated: the kept ones were validated in cfg, whose
    lattice has a smaller rank."""
    lat2 = cfg.lattice.blowup()
    t = lat2.rank - 1
    comps = list(cfg.components)
    fresh = []
    for i in hit:
        comps[i] = Component(comps[i].label, {**comps[i].cls, t: -1})
        fresh.append(comps[i])
    if pos is not None:
        comps.insert(pos, Component(f"e{t}" if label is None else label, {t: 1}))
        fresh.append(comps[pos])
    return MoveResult(DivisorConfig._grown(lat2, tuple(comps), tuple(fresh)), pos)


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

    When e is a basis vector e_t with e_t.e_t = -1 the orthogonal complement
    has the tautological basis (e_j + (e_j.e) e), so new coordinates are
    just the old ones with slot t dropped. A tail slot meets no other slot,
    so the form keeps its head; a head slot leaves the head G_ij + G_it G_jt
    on the other head slots. Otherwise the lattice is split along the
    pairing functional of e.
    """
    rank = lat.rank
    head = lat.head
    b = len(head)
    t = next(iter(e)) if len(e) == 1 and 1 in e.values() else None
    if t is not None and (t >= b or head[t][t] == -1):

        def drop(x: Vec, _t: int = t) -> Vec:
            return {(i - 1 if i > _t else i): v for i, v in x.items() if i != _t}

        if t < b:
            idx = [i for i in range(b) if i != t]
            head = tuple(tuple(head[i][j] + head[i][t] * head[j][t] for j in idx) for i in idx)
        k2 = None if lat.canonical is None else drop(lat.canonical)
        return Lattice(head, rank - 1, canonical=k2), drop
    # general path: split Z^rank along the pairing functional of e, densely
    g_rows, ed = lat.gram_rows(), dense(e, rank)
    func = tuple(dot(row, ed) for row in g_rows)
    kernel, _witness = functional_kernel_basis(func)
    full = kernel + (_witness,)
    inv = mat_inverse_int(full)
    inv_t = tuple(zip(*inv))

    def to_new(x: Vec) -> Vec:
        x_perp = dense(_project(lat, x, e), rank)
        coords = tuple(dot(inv_t[i], x_perp) for i in range(rank))
        if coords[-1] != 0:
            raise WppError("projection left the orthogonal complement")
        return sparse(coords[:-1])

    kern = [sparse(k) for k in kernel]
    gram2 = tuple(
        tuple(lat.pair(kern[i], kern[j]) for j in range(rank - 1))
        for i in range(rank - 1)
    )
    k2 = None if lat.canonical is None else to_new(vsub(lat.canonical, e))
    return generic_lattice(gram2, canonical=k2), to_new


def _project(lat: Lattice, x: Vec, e: Vec) -> Vec:
    """x + (x.e) e: the projection of x orthogonal to the (-1) class e."""
    xe = lat.pair(x, e)
    return vadd(x, {i: xe * v for i, v in e.items()}) if xe else x


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
        x_perp = _project(cfg.lattice, cfg.components[j].cls, e)
        comps.append(Component(cfg.components[j].label, to_new(x_perp)))
    return BlowdownResult(DivisorConfig(lat2, tuple(comps)), kind)


# --- fiber classes at determinant sign changes ---------------------------------


@hot_record
class FiberData:
    fclass: Vec
    deltas: tuple[int, ...]
    upto: int  # number of leading components summed
    p: int  # -delta_{upto+1}
    q: int  # delta_upto


def fiber_class(cfg: DivisorConfig, deltas: tuple[int, ...], upto: int) -> FiberData:
    """Weighted partial sum F = sum_{i<=upto} delta_i [S_i] along a chain.

    deltas is the chain's delta sequence, computed by the caller from the
    self-intersections it already holds (len(cfg) + 1 entries). The square of
    F is checked against -delta_upto * delta_{upto+1} in the lattice, which
    ties the supplied deltas to the component classes.
    """
    n = len(cfg.components)
    if len(deltas) != n + 1:
        raise RankMismatch(f"{len(deltas)} deltas for a chain of {n} components")
    if not 1 <= upto <= n:
        raise BadIndex(f"upto = {upto} outside 1..{n}")
    f: dict[int, int] = {}
    for d, comp in zip(deltas, cfg.components[:upto]):
        for r, v in comp.cls.items():
            f[r] = f.get(r, 0) + d * v
    fv = {r: v for r, v in f.items() if v}
    if cfg.lattice.sq(fv) != -deltas[upto - 1] * deltas[upto]:
        raise LemmaViolated("fiber class square disagrees with the minor product")
    return FiberData(fv, deltas, upto, -deltas[upto], deltas[upto - 1])


def fiber_profile(cfg: DivisorConfig, fd: FiberData) -> tuple[int, ...]:
    """Pairings of the fiber class with every component, in order."""
    return tuple(cfg.lattice.pair(fd.fclass, c.cls) for c in cfg.components)


@dataclass(frozen=True)
class ResolvedFiber:
    """A fiber class made square-zero by toric blowups C1..CB at its chain node."""

    config: DivisorConfig  # the chain with C1..CB between the node spheres
    fclass: Vec  # the resolved fiber, in config's lattice
    base: FiberData  # the fiber before the blowups
    multiplicities: tuple[int, ...]  # weight sequence of (p, q): C_t takes m_t
    last_meeting: int | None  # index of the one component the fiber meets, if any


def resolution_fiber_class(cfg: DivisorConfig, fd: FiberData) -> ResolvedFiber:
    """Resolve fd, the fiber_class of cfg at a sign change, into a square-zero class.

    Repeated blowups at the chain node, following the subtraction pattern
    of the multiplicity sequence of (p, q), make the fiber class disjoint from
    the transformed chain except for a single transverse point on the last
    exceptional sphere. Every blowup lies on the two node spheres or on the
    spheres it created, so the blowups run on those two alone; the rest of
    the chain is zero on the new slots and is kept as it is.

    The B blowups run in one pass, each the toric_blowup of two adjacent
    spheres of the node piece: the lattice grows by its B slots at once
    (Lattice.blowup(B)), each step checks that its two spheres meet once
    and subtracts its slot from their working classes, and the B + 2
    components of the piece are made and validated once, when it is
    spliced into one grown config.
    """
    upto, p, q = fd.upto, fd.p, fd.q
    if not (q > 0 and p >= 0):
        raise NotAtSignChange(f"minors ({q}, {-p}) at position {upto}")
    # canonical pairing of F by adjunction on the chain components:
    # sum_{i<upto} d_i (b_i - 2) telescopes through b_i d_i = d_{i+1} + d_{i-1}
    # to d_upto - d_{upto-1} - d_0 = -p - q - 1
    kf_base = -p - q - 1
    mults = weight_sequence(p, q)
    if not mults:
        # (p, q) = (0, 1): the fiber already has square zero
        last = upto if upto < len(cfg.components) else None
        rf = ResolvedFiber(cfg, fd.fclass, fd, (), last)
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
    if [min(a, b) for a, b in pairs] != list(mults):
        raise LemmaViolated(f"subtraction pairs of ({p}, {q}) miss the weight sequence")

    # C1 goes between the node spheres; after C_i with pair (a, b) the next
    # blowup is at C_i's left node when a > b, else at its right node. Each
    # step's slot t is new to the classes it pairs, so their pairing in the
    # fully grown lattice is the one toric_blowup takes in its step's lattice
    rank = cfg.lattice.rank
    lat = cfg.lattice.blowup(len(mults))
    comps = cfg.components
    labels = [comps[upto - 1].label, comps[upto].label]
    classes = [dict(comps[upto - 1].cls), dict(comps[upto].cls)]
    left = 0  # the blowup is at spheres left, left + 1 of the node piece
    for t, (a, b) in enumerate(pairs, start=rank):
        if lat.pair(classes[left], classes[left + 1]) != 1:
            raise NotAdjacent(f"components {left} and {left + 1} do not meet once")
        classes[left][t] = classes[left + 1][t] = -1
        classes.insert(left + 1, {t: 1})
        labels.insert(left + 1, f"C{t - rank + 1}")
        if a <= b:
            left += 1
    # the last pair is (1, 1), so left ends on the last new sphere
    piece = tuple(map(Component, labels, classes))
    spliced = (*comps[:upto - 1], *piece, *comps[upto + 1:])
    f = dict(fd.fclass)
    for t, m in enumerate(mults, start=rank):
        f[t] = -m  # each blowup appends its (-1) vector to the basis
    rf = ResolvedFiber(DivisorConfig._grown(lat, spliced, piece), f, fd, mults,
                       upto - 1 + left)
    _verify_resolved_fiber(rf, kf_base + sum(mults))
    return rf


def _verify_resolved_fiber(rf: ResolvedFiber, kf_adjunction: int) -> None:
    cfg = rf.config
    lat = cfg.lattice
    pair_f = lat.pairing(rf.fclass)
    if pair_f(rf.fclass) != 0:
        raise LemmaViolated("resolved fiber class has nonzero square")
    # canonical pairing must be -2: use the canonical class when known, else
    # the adjunction value accumulated from the defining combination
    kf = lat.k_pair(rf.fclass) if lat.canonical is not None else kf_adjunction
    if kf != -2:
        raise LemmaViolated(f"resolved fiber class has canonical pairing {kf}")
    for pos, comp in enumerate(cfg.components):
        got = pair_f(comp.cls)
        want = 1 if pos == rf.last_meeting else 0
        if got != want:
            raise LemmaViolated(
                f"resolved fiber pairs {got} with component {comp.label} (expected {want})"
            )


# --- selfint-level moves and small structure lemmas ----------------------------


def xi_invariant(selfints: tuple[int, ...] | list[int]) -> int:
    """-3 * length - sum of entries; unchanged by toric blowdown, +1 under half-toric."""
    _check_selfints(selfints)
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
