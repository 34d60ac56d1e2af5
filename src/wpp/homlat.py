"""Integral lattices with distinguished bases, canonical classes, area forms.

A homology class is a sparse Vec: a dict from basis slot to its coefficient
in the lattice's distinguished basis, holding only the nonzero coefficients,
so dict equality is class equality. A boundary class touches a handful of
the rank slots, so pairings, areas and blowups cost O(nonzeros), not
O(rank). The rank is not carried by the class: it is checked where classes
are made, by sparse(x, rank), dense(x, rank), DivisorConfig and, for the
edge classes of a resolution, build_resolution, and the pairings trust it.
Classes are shared between results and never mutated once made.

Dense int vectors remain only at the doors: the report's class vectors
(lists, from dense_list), ResolutionPair.string_classes / connector_class,
and the exceptional search, which takes and returns dense tuples
(enumerate_exceptional and its callers). dense and sparse convert between
the two; in_rank is the one slot-range check.

Every lattice is one form: a head block, the b x b gram of slots 0..b-1,
over a tail of (-1) vectors, one per slot from b up, orthogonal to all
other slots. Blowing up grows the tail and keeps the head. The forms of
the package are

  cp2: head ((1,),): basis (H, e_1, ..., e_n), gram diag(1, -1, ..., -1)
  ruled surface F_k: head ((0, 1), (1, -k)): basis (F, B, e_1, ..., e_m)
  abstract chain: the whole gram as the head, with no tail

and pairings, the sparse gram, blowups and contractions each have one
formula for all of them.

The canonical class, when known, is stored as a sparse class; abstract
sphere configurations carry canonical = None and recover canonical pairings
from adjunction componentwise instead.

Objects made from checked ones carry their checks over instead of repeating
them: a blowup, by one slot or several at once, keeps its lattice's
slot-range check and K's closed-form pairing coefficients,
transport_area keeps its form in lowest terms, and to_cp2 compares a
canonical class that holds 1 on every tail slot on the conversion block
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Collection, Iterable, Sequence

from .arith import ext_gcd
from .errors import (
    LemmaViolated,
    MissingClasses,
    RankMismatch,
    Unclassified,
    UserInputError,
    WppError,
)

__all__ = [
    "Vec",
    "Dense",
    "Lattice",
    "CP2_HEAD",
    "cp2_lattice",
    "hirz_lattice",
    "generic_lattice",
    "AreaForm",
    "ExcSearch",
    "GapResult",
    "sparse",
    "dense",
    "dense_list",
    "in_rank",
    "class_sum",
    "vadd",
    "vsub",
    "vneg",
    "unit",
    "zero",
    "dot",
    "log_kodaira",
    "enumerate_exceptional",
    "log_exceptional",
    "connecting_log_exceptional",
    "exceptional_gap",
    "to_cp2",
    "transport_area",
    "NEG_INF",
]

Vec = dict[int, int]  # sparse class: slot -> nonzero coefficient
Dense = tuple[int, ...]  # dense coefficient vector, one entry per slot

NEG_INF = float("-inf")


def sparse(x: Sequence[int], rank: int | None = None) -> Vec:
    """The sparse class of the dense vector x; RankMismatch unless x has
    rank entries, when rank is given."""
    if rank is not None and len(x) != rank:
        raise RankMismatch(f"vector of length {len(x)} in rank {rank}")
    return {i: v for i, v in enumerate(x) if v}


def in_rank(x: Collection[int], rank: int) -> bool:
    """Whether every slot of x (a sparse class or a slot set) lies in 0..rank-1."""
    return not x or (min(x) >= 0 and max(x) < rank)


def dense_list(x: Vec, rank: int) -> list[int]:
    """The dense vector of the sparse class x as a new list; RankMismatch for
    a slot outside 0..rank-1."""
    if not in_rank(x, rank):
        raise RankMismatch(f"class has a slot outside rank {rank}")
    out = [0] * rank
    for i, v in x.items():
        out[i] = v
    return out


def dense(x: Vec, rank: int) -> Dense:
    """The dense vector of the sparse class x; RankMismatch for a slot
    outside 0..rank-1."""
    return tuple(dense_list(x, rank))


def class_sum(xs: Iterable[Vec]) -> Vec:
    """Sum of sparse classes in O(total nonzeros), zero coefficients dropped."""
    out: dict[int, int] = {}
    for x in xs:
        for i, v in x.items():
            out[i] = out.get(i, 0) + v
    return {i: v for i, v in out.items() if v}


def vadd(x: Vec, y: Vec) -> Vec:
    return class_sum((x, y))


def vneg(x: Vec) -> Vec:
    return {i: -v for i, v in x.items()}


def vsub(x: Vec, y: Vec) -> Vec:
    return vadd(x, vneg(y))


def unit(rank: int, i: int) -> Dense:
    """The dense i-th basis vector of length rank."""
    return (0,) * i + (1,) + (0,) * (rank - i - 1)


def zero(rank: int) -> Dense:
    return (0,) * rank


def dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


def _sdot(x: Vec, y: Vec) -> int:
    """Sum of x_i y_i over the slots of x, the sparser operand by choice."""
    if len(x) > len(y):
        x, y = y, x
    return sum(map(mul, x.values(), map(y.get, x, repeat(0))))


CP2_HEAD: tuple[Dense, ...] = ((1,),)  # H.H = 1: the head of a blown-up CP^2

HeadRows = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
_HEAD_ROWS: dict[tuple[Dense, ...], HeadRows] = {}


def _head_rows(head: tuple[Dense, ...]) -> HeadRows:
    """(i, ((j, H_ij), ...)) for each slot i of a square symmetric head whose
    row of H = head + I is nonzero, the nonzero entries only; RankMismatch
    for a head that is not square, WppError for one not symmetric. Depends
    on the head alone, so Lattice caches it per head."""
    b = len(head)
    if any(len(row) != b for row in head):
        raise RankMismatch("head gram is not square")
    if any(head[i][j] != head[j][i] for i in range(b) for j in range(i)):
        raise WppError("head gram is not symmetric")
    rows = (
        (i, tuple((j, h) for j, g in enumerate(row) if (h := g + (i == j))))
        for i, row in enumerate(head)
    )
    return tuple(r for r in rows if r[1])


@dataclass(frozen=True)
class Lattice:
    """The form on Z^rank with head block `head`, the gram of slots 0..b-1;
    every slot from b up is a (-1) vector orthogonal to all other slots. With
    H = head + I on the head slots the form is

        x.y = sum_{i, j < b} x_i H_ij y_j - sum_i x_i y_i,

    the second sum over every slot. The constructor rejects a head that is
    not square, not symmetric or larger than the rank, and a canonical class
    with a slot outside the rank."""

    head: tuple[Dense, ...]
    rank: int
    canonical: Vec | None = None
    # _head_rows(head): the nonzero entries of H by row
    _rows: HeadRows = field(init=False, compare=False, repr=False, default=())
    # when the canonical class K holds 1 on every slot from b up, K.x =
    # sum_{j < b} c_j x_j - sum_j x_j with c = K_head G + 1: the b entries of
    # c; None for any other K and when there is none
    _kc: Dense | None = field(
        init=False, compare=False, repr=False, default=None)

    def __post_init__(self) -> None:
        head = tuple(map(tuple, self.head))
        b, r = len(head), self.rank
        if b > r:
            raise RankMismatch(f"head of size {b} exceeds rank {r}")
        rows = _HEAD_ROWS.get(head)
        if rows is None:
            rows = _HEAD_ROWS[head] = _head_rows(head)
        k = self.canonical
        kc = None
        if k is not None:
            if not in_rank(k, r):
                raise RankMismatch("canonical class has a slot outside the rank")
            kh = [k.get(i, 0) for i in range(b)]
            # with every slot in the rank, the tail holds 1 iff its 1s add up
            if list(k.values()).count(1) - kh.count(1) == r - b:
                kc = tuple([dot(kh, col) + 1 for col in zip(*head)])
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_kc", kc)

    def pair(self, x: Vec, y: Vec) -> int:
        """x.y in O(min nonzeros + the nonzeros of H); the slots are trusted
        to lie in the rank."""
        s = -_sdot(x, y)
        for i, row in self._rows:
            v = x.get(i)
            if v:
                for j, h in row:
                    w = y.get(j)
                    if w:
                        s += v * h * w
        return s

    def sq(self, x: Vec) -> int:
        return self.pair(x, x)

    def sparse_gram(self, xs: Sequence[Vec]) -> dict[tuple[int, int], int]:
        """Every nonzero gram entry (i, j): xs[i].xs[j], i <= j, in one pass.

        The classes are bucketed by slot. Off the head the gram is diagonal,
        so only classes sharing a slot, or holding two head slots the head
        links, can meet. Each bucket adds its slot's diagonal entry times the
        two coefficients to every pair it holds, in O(sum of squared bucket
        sizes): O(total nonzeros) when each slot is held by a bounded number
        of classes, as on the boundary cycle. Each nonzero off-diagonal head
        entry G_st then adds G_st times the coefficients at s and t, twice on
        the diagonal.
        """
        by_slot: dict[int, list[tuple[int, int]]] = {}
        for i, x in enumerate(xs):
            for s, v in x.items():
                by_slot.setdefault(s, []).append((i, v))
        head = self.head
        b = len(head)
        gram: dict[tuple[int, int], int] = {}
        get = gram.get
        for s, bucket in by_slot.items():
            w = head[s][s] if s < b else -1
            if not w:
                continue
            for a, (i, vi) in enumerate(bucket):
                wv = w * vi
                for j, vj in bucket[a:]:
                    gram[i, j] = get((i, j), 0) + wv * vj
        for s in range(b):
            for t in range(s + 1, b):
                g = head[s][t]
                if not g:
                    continue
                for i, vi in by_slot.get(s, ()):
                    for j, vj in by_slot.get(t, ()):
                        key = (i, j) if i <= j else (j, i)
                        gram[key] = get(key, 0) + (2 if i == j else 1) * g * vi * vj
        return {key: g for key, g in gram.items() if g}

    def k_pair(self, x: Vec) -> int:
        """Canonical class paired with x; requires an explicit canonical class.
        A K holding 1 on every tail slot pairs in closed form, O(nonzeros of
        x): -2 x_0 - sum x on cp2 and -x_0 + (k - 1) x_1 - sum x on F_k."""
        kc = self._kc
        if kc is None:
            if self.canonical is None:
                raise MissingClasses("lattice has no canonical class")
            return self.pair(self.canonical, x)
        s = -sum(x.values())
        for j, c in enumerate(kc):
            v = x.get(j)
            if v:
                s += c * v
        return s

    def gram_rows(self) -> tuple[Dense, ...]:
        """Materialise the gram matrix in the distinguished basis."""
        head, b, r = self.head, len(self.head), self.rank
        return tuple(row + zero(r - b) for row in head) + tuple(
            zero(i) + (-1,) + zero(r - i - 1) for i in range(b, r)
        )

    def gram_row(self, x: Vec) -> list[int]:
        """x's row of the gram, x.e_j for every slot j, in O(rank + the
        nonzeros of H)."""
        row = [0] * self.rank
        for i, v in x.items():
            row[i] = -v
        for i, hrow in self._rows:
            v = x.get(i)
            if v:
                for j, h in hrow:
                    row[j] += v * h
        return row

    def pairing(self, x: Vec) -> Callable[[Vec], int]:
        """y -> self.pair(x, y) for a fixed x paired with many classes: x's
        gram row is made once, and each pairing is one sum over the slots of
        y. The slots of y are trusted to lie in the rank."""
        get = self.gram_row(x).__getitem__
        return lambda y: sum(map(mul, y.values(), map(get, y)))

    def blowup(self, count: int = 1) -> "Lattice":
        """Extend the tail by count (-1) basis vectors, at slots
        rank..rank+count-1, orthogonal to each other and to the old ones;
        canonical gains coefficient +1 on each. One call equals count blowups
        in a row, with one copy of the canonical class.

        The result skips __post_init__'s O(rank) scans: this lattice passed
        them, the head is kept, and the new slots lie in the new rank and hold
        1, so the canonical class stays in range and holds 1 on every tail
        slot exactly when this one does: _kc is copied."""
        if count < 1:
            raise WppError(f"blowup count must be at least 1, got {count}")
        r = self.rank
        k = None
        if self.canonical is not None:
            k = {**self.canonical, **dict.fromkeys(range(r, r + count), 1)}
        out = object.__new__(Lattice)
        for name, v in (("head", self.head), ("rank", r + count), ("canonical", k),
                        ("_rows", self._rows), ("_kc", self._kc)):
            object.__setattr__(out, name, v)
        return out


def cp2_lattice(n_exceptional: int) -> Lattice:
    """Blowup of the projective plane: basis (H, e_1, ..., e_n); the checked
    rank-1 form, blown up n times (blowup carries the checks over)."""
    lat = Lattice(CP2_HEAD, 1, canonical={0: -3})
    return lat.blowup(n_exceptional) if n_exceptional else lat


def hirz_lattice(k: int, n_exceptional: int = 0) -> Lattice:
    """Ruled surface lattice: basis (F, B, e_1, ..., e_m) with B.B = -k; the
    checked rank-2 form, blown up m times."""
    lat = Lattice(((0, 1), (1, -k)), 2, canonical=sparse((-(k + 2), -2)))
    return lat.blowup(n_exceptional) if n_exceptional else lat


def generic_lattice(gram: Sequence[Sequence[int]], canonical: Vec | None = None) -> Lattice:
    """The lattice whose head is the whole gram matrix, with no (-1) tail."""
    return Lattice(tuple(map(tuple, gram)), len(gram), canonical=canonical)


@dataclass(frozen=True, init=False)
class AreaForm:
    """Symplectic area functional: exact rational value on each basis vector,
    stored as integers _ints over one common positive denominator _den in
    lowest terms, so the scaled areas compare and take signs as the areas do.
    Forms are made by from_scaled."""

    _ints: tuple[int, ...]
    _den: int

    @classmethod
    def from_scaled(cls, ints: Sequence[int], den: int) -> "AreaForm":
        """The form with values ints[i] / den, built without Fraction arithmetic.

        The gcd runs from the last slot back, and math.gcd stops taking it
        once it reaches 1. A ledger's last slots hold the edges it
        contracted first, and from there the running gcd falls sooner: on
        the default build at n = 4002 it reaches 1 after 1,332 of the 4,003
        values, and after 4,002 from the first slot."""
        if den <= 0:
            raise WppError(f"area denominator {den} is not positive")
        g = math.gcd(den, *reversed(ints))
        return cls._lowest(tuple(v // g for v in ints), den // g)

    @classmethod
    def _lowest(cls, ints: tuple[int, ...], den: int) -> "AreaForm":
        """The form with values ints[i] / den, already in lowest terms."""
        form = object.__new__(cls)
        object.__setattr__(form, "_ints", ints)
        object.__setattr__(form, "_den", den)
        return form

    @property
    def rank(self) -> int:
        return len(self._ints)

    def area(self, x: Vec) -> Fraction:
        return Fraction(self.area_scaled(x), self._den)

    def area_scaled(self, x: Vec) -> int:
        """Integer area in units of 1/denominator, in O(nonzeros); orders
        match .area exactly."""
        return sum(map(mul, x.values(), map(self._ints.__getitem__, x)))

    @property
    def denominator(self) -> int:
        return self._den


def log_kodaira(area: Fraction | int, square: Fraction | int) -> float | int:
    """Log Kodaira dimension from (area, square) of an adjoint class.

    Negative area or negative square gives -inf; (0, 0) gives 0; positive area
    with zero square gives 1; positive area and square give 2. The remaining
    pattern (zero area, positive square) is outside the table.
    """
    if area < 0 or square < 0:
        return NEG_INF
    if area == 0:
        if square == 0:
            return 0
        raise Unclassified(f"(area, square) = (0, {square}) is not classified")
    return 1 if square == 0 else 2


# --- exceptional class enumeration ------------------------------------------


@dataclass(frozen=True)
class ExcSearch:
    """Result of a bounded search for exceptional classes.

    complete is True only when the degree range certified by Cauchy-Schwarz
    fits inside the coefficient bound (possible only for b2 - 1 <= 8); then
    the returned set is exactly the set of solutions, not just a sample.

    nodes is the number of search-tree nodes visited: calls of the recursion
    over the exceptional slots, summed over the degrees tried. It is a work
    count, the same on every run for fixed inputs, and takes no part in
    equality. Each condition the search enforces is a functional g with
    offset + g.x >= 0; a node with m open slots, whose coefficients must sum
    to s with squares summing to q, is dropped when g has reached a value v
    there with L = m v + G1 s < 0 and L^2 > (m G2 - G1^2)(m q - s^2), G1 and
    G2 being the sums of g and g^2 over the open slots (at m = 0: when
    v < 0). _cp2_exceptional_raw derives this bound.
    """

    classes: tuple[Dense, ...]
    complete: bool
    nodes: int = field(compare=False)


@dataclass(frozen=True)
class GapResult:
    value: Fraction
    certified: bool
    witness: Dense | None


_FEASIBLE_CACHE: dict[int, list[dict[int, int]]] = {}
_CANDIDATE_CACHE: dict[int, dict[int, tuple[tuple[int, int, int, int], ...]]] = {}
_DEGREE_CACHE: dict[tuple[int, int], tuple[tuple[tuple[int, int, int, int], ...], bool]] = {}


def _check_key_bounds(n: int, coeff_bound: int) -> None:
    """Reject searches whose states overflow the packed candidate-cache keys.

    A key packs the remaining square-sum, at most coeff_bound^2 + 1, into 10
    bits; that is below 1024 exactly for coeff_bound <= 31. The remaining sum
    is stored offset by 512, and by Cauchy-Schwarz its absolute value is at
    most sqrt(n * (coeff_bound^2 + 1)), below 512 exactly when the second
    condition holds. A bound that is not an int, or is a bool, is rejected
    before either test.
    """
    if isinstance(coeff_bound, bool) or not isinstance(coeff_bound, int):
        raise UserInputError(f"coeff_bound must be an int, got {coeff_bound!r}")
    if not 0 <= coeff_bound <= 31:
        raise UserInputError(f"coeff_bound must lie in 0..31, got {coeff_bound}")
    if n * (coeff_bound * coeff_bound + 1) >= 512 * 512:
        raise UserInputError(
            f"{n} exceptional slots with coeff_bound {coeff_bound} overflow the "
            "search keys: need n * (coeff_bound^2 + 1) < 512^2"
        )


def _feasible_states(coeff_bound: int, max_slots: int) -> list[dict[int, int]]:
    """F[k] maps each sum s of exactly k coefficients bounded by coeff_bound
    to a bit mask over square-sums: bit q is set when some such k
    coefficients have sum s and square-sum q, for q <= coeff_bound^2 + 1.

    (F[k].get(s, 0) >> q) & 1 is the exact completability test for the
    recursion below. One int per sum keeps a layer to a few hundred bytes.
    """
    full = (1 << (coeff_bound * coeff_bound + 2)) - 1
    layers = _FEASIBLE_CACHE.setdefault(coeff_bound, [{0: 1}])
    while len(layers) <= max_slots:
        nxt: dict[int, int] = {}
        for s, mask in layers[-1].items():
            for c in range(-coeff_bound, coeff_bound + 1):
                shifted = (mask << (c * c)) & full
                if shifted:
                    nxt[s + c] = nxt.get(s + c, 0) | shifted
        layers.append(nxt)
    return layers


def _degrees(n: int, coeff_bound: int) -> tuple[tuple[tuple[int, int, int, int], ...], bool]:
    """The degree level of a search over n exceptional slots: (d, s, q, n q -
    s^2) for each degree d the recursion starts at, s = 1 - 3d and q = d^2 + 1
    being the sum and square-sum its slots must reach, and the complete flag.
    Cached per (n, coeff_bound): it depends on nothing else."""
    key = (n, coeff_bound)
    cached = _DEGREE_CACHE.get(key)
    if cached is not None:
        return cached
    # (1-3d)^2 <= n (d^2+1) is necessary; scan a window comfortably containing
    # every integer solution that could also satisfy |d| <= coeff_bound
    feasible_d = [
        d for d in range(-coeff_bound - 8, coeff_bound + 9) if (1 - 3 * d) ** 2 <= n * (d * d + 1)
    ]
    complete = n <= 8 and all(abs(d) <= coeff_bound for d in feasible_d)
    if complete:
        cmax = max((math.isqrt(d * d + 1) for d in feasible_d), default=0)
        complete = cmax <= coeff_bound
    top = _feasible_states(coeff_bound, n)[n]
    starts = []
    for d in feasible_d:
        s0, q0 = 1 - 3 * d, d * d + 1
        # n >= 1 past this test: with no exceptional slot 1 - 3d would be 0
        if abs(d) <= coeff_bound and (top.get(s0, 0) >> q0) & 1:
            starts.append((d, s0, q0, n * q0 - s0 * s0))
    out = _DEGREE_CACHE[key] = (tuple(starts), complete)
    return out


def _slot_order(n: int, supports: list[int]) -> list[int]:
    """The exceptional slots 1..n in the order the search assigns them.

    supports are the conditions' exceptional supports as bit masks, bit p
    set when the condition touches slot p. Greedily take the condition with
    the fewest unplaced slots (the first one on a tie) and place its
    unplaced slots next, in increasing order, so its exact end-of-support
    rejection fires high in the tree; the slots no condition touches come
    last. A support holding all n slots is left out: when it has the fewest
    unplaced slots, every other open support holds all of them too, and any
    choice places them in increasing order, as the tail does.
    """
    unplaced = (1 << (n + 1)) - 2
    supports = [r for r in supports if r != unplaced]
    order: list[int] = []
    while True:
        best, fewest = 0, n + 1
        for r in supports:
            left = r & unplaced
            if left:
                count = left.bit_count()
                if count < fewest:
                    best, fewest = left, count
        if not best:
            break
        unplaced ^= best
        while best:
            low = best & -best
            order.append(low.bit_length() - 1)
            best ^= low
    order.extend(p for p in range(1, n + 1) if (unplaced >> p) & 1)
    return order


def _cp2_exceptional_raw(
    n: int,
    coeff_bound: int,
    conds: Sequence[tuple[int, Vec]] = (),
) -> tuple[list[Dense], bool, int]:
    """All (d, c_1..c_n) with d^2 - sum c^2 = -1 and -3d - sum c = -1, |coeffs| <= bound.

    conds are (offset, f) pairs, f a sparse class on the slots 0..n (slot 0
    is H); every solution x satisfies offset + f.x >= 0 in the cp2 form, that
    is offset + g.x >= 0 for the functional g with g_0 = f_0 and g_i = -f_i.
    They are enforced inside the recursion, which drops a node as soon as no
    completion of its prefix can satisfy one of them. Returns the sorted
    solutions, the complete flag and the number of nodes visited.

    The pruning bound. At a node m exceptional slots are still open, and the
    two equations fix the sum s and the square-sum q of their coefficients.
    Let v be the value a functional has reached (offset included) and G1, G2
    the sums of its coefficients and of their squares over the open slots,
    zero coefficients counted. Write the open coefficients as c = (s/m)1 + u
    with u orthogonal to 1; then |u|^2 = q - s^2/m, and g.c = s G1/m + g'.u
    with g' = g - (G1/m)1, |g'|^2 = G2 - G1^2/m. By Cauchy-Schwarz, the
    largest value of g.c over real c with these two sums is
        s G1/m + sqrt((G2 - G1^2/m)(q - s^2/m)),
    so no completion, integral or not, reaches v + g.c >= 0 when (times m)
        L = m v + G1 s < 0   and   L^2 > (m G2 - G1^2)(m q - s^2).
    That is the test below, in exact integers. It is never weaker than the
    plain Cauchy-Schwarz test v^2 > G2 q, which ignores the fixed sum. When
    m = 0 the value is final and the node is dropped iff v < 0; the formula
    reads 0 > 0 there and would keep every node, so that case is a branch of
    its own. Past the end of a functional's support G1 = G2 = 0 and the test
    is v < 0 as well, exactly.

    The first failure decides. A candidate coefficient is tested against the
    conditions touching its depth without writing anything, and the first
    condition that fails rejects it; most candidates are rejected, so most
    tests stop early. Only an accepted candidate writes its terms into the
    running values (partial), and takes them out again after its subtree.
    At m = 0 nothing below reads the running values, so the last slot
    writes none: a candidate is kept when each value it completes is >= 0.
    The nodes visited are those of a search that tests every condition.
    """
    found: list[list[int]] = []
    starts, complete = _degrees(n, coeff_bound)
    # at_slot[p]: (index, g_p) for each condition touching exceptional slot p;
    # masks: each condition's exceptional support, bit p for slot p
    at_slot: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    masks = []
    for fi, (_off, f) in enumerate(conds):
        mask = 0
        for p, v in f.items():
            if p:
                at_slot[p].append((fi, -v))
                mask |= 1 << p
        masks.append(mask)
    order = _slot_order(n, masks)
    # active[j]: (index, g coefficient, G1, m G2 - G1^2) for each condition
    # touching the slot assigned at depth j (order[j - 1]), the tails taken
    # over the m = n - j depths after it; heads: (offset, g_0, and the same
    # tails over all n depths) for the d level. A condition is tested only
    # where its coefficient is nonzero: its value moves only there, and its
    # last nonzero depth carries the exact end-of-support test
    g1s = [0] * len(conds)
    g2s = [0] * len(conds)
    active: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n + 2)]
    for j in range(n, 0, -1):
        m = n - j
        for fi, gv in at_slot[order[j - 1]]:
            g1, g2 = g1s[fi], g2s[fi]
            active[j].append((fi, gv, g1, m * g2 - g1 * g1))
            g1s[fi] = g1 + gv
            g2s[fi] = g2 + gv * gv
    # the d level tests the conditions last to first: the meets and area
    # conditions, listed last, drop most degrees, and the components rarely do
    heads = [
        (fi, off, f.get(0, 0), g1s[fi], n * g2s[fi] - g1s[fi] * g1s[fi])
        for fi, (off, f) in enumerate(conds)
    ][::-1]
    partial = [0] * len(conds)
    nodes = 0

    layers = _feasible_states(coeff_bound, n)
    # candidates at (slots, srem, qrem): (c, s, q, m q - s^2) for each
    # completable coefficient c, with s, q the sums left for the m = slots - 1
    # slots after it
    cand_cache = _CANDIDATE_CACHE.setdefault(coeff_bound, {})

    def rec(i: int, srem: int, qrem: int, prefix: list[int]) -> None:
        nonlocal nodes
        nodes += 1
        if i == n:
            if srem == 0 and qrem == 0:
                found.append(list(prefix))
            return
        slots = n - i
        m = slots - 1
        key = (slots << 20) | ((srem + 512) << 10) | qrem
        cands = cand_cache.get(key)
        if cands is None:
            feas = layers[m]
            lim = min(coeff_bound, math.isqrt(qrem))
            out = []
            for c in range(lim, -lim - 1, -1):
                q2 = qrem - c * c
                s2 = srem - c
                if (feas.get(s2, 0) >> q2) & 1:
                    out.append((c, s2, q2, m * q2 - s2 * s2))
            cands = tuple(out)
            cand_cache[key] = cands
        touched = active[i + 1]  # depth being assigned
        if not m:
            # the last slot: nothing below reads the partial sums, so a
            # candidate is kept when every value it completes is >= 0
            for c, _s2, _q2, _w in cands:
                for fi, gv, _g1, _disc in touched:
                    if partial[fi] + gv * c < 0:
                        break
                else:
                    nodes += 1
                    found.append([*prefix, c])
            return
        for c, s2, q2, w in cands:
            for fi, gv, g1, disc in touched:
                lin = m * (partial[fi] + gv * c) + g1 * s2
                if lin < 0 and lin * lin > disc * w:
                    break
            else:
                for fi, gv, _g1, _disc in touched:
                    partial[fi] += gv * c
                prefix.append(c)
                rec(i + 1, s2, q2, prefix)
                prefix.pop()
                for fi, gv, _g1, _disc in touched:
                    partial[fi] -= gv * c

    for d, s0, q0, w0 in starts:
        for fi, off, gd, g1, disc in heads:
            value = off + gd * d
            lin = n * value + g1 * s0
            if lin < 0 and lin * lin > disc * w0:
                break
            partial[fi] = value
        else:
            rec(0, s0, q0, [d])
    # back from depth order to slot order; pos[p] is the depth of slot p, and
    # pos[0] = 0 keeps d in front
    pos = [0] * (n + 1)
    for j, p in enumerate(order, 1):
        pos[p] = j
    return sorted(tuple(x[j] for j in pos) for x in found), complete, nodes


def enumerate_exceptional(
    lat: Lattice,
    area: AreaForm | None = None,
    area_cap: Fraction | None = None,
    coeff_bound: int = 12,
    constraints: Sequence[Dense] | None = None,
    meets: Sequence[Dense] | None = None,
) -> ExcSearch:
    """Bounded enumeration of classes with square -1 and canonical pairing -1.

    With an area form, only classes of positive area (and area <= area_cap if
    given) are returned; a cap without an area form is rejected. Non-cp2 lattices
    are converted first when possible. Every returned class pairs
    nonnegatively with each class in `constraints` and at least 1 with each
    class in `meets`. Both go into the search as functionals instead of
    filters applied afterwards, so it prunes on them, which matters above
    rank 9. The search is dense at its doors: constraints, meets and the
    returned classes are dense tuples of length rank. Each class is made
    sparse and converted to the cp2 basis once. An area form of another rank
    than the lattice's raises RankMismatch.
    """
    if area is None and area_cap is not None:
        raise UserInputError("area_cap needs an area form")
    r = lat.rank
    if area is not None and area.rank != r:
        raise RankMismatch(f"area form of rank {area.rank} on a lattice of rank {r}")
    _check_key_bounds(r - 1, coeff_bound)
    converted = lat.head != CP2_HEAD
    if converted:
        lat, t_mat, t_inv = to_cp2(lat)
        area = transport_area(area, t_inv) if area is not None else None
    k = lat.canonical
    if k is None or k.get(0) != -3 or lat._kc is None:
        raise MissingClasses("enumeration needs the standard canonical class")

    def cp2_class(f: Dense) -> Vec:
        x = sparse(f, r)
        return mat_vec(t_mat, x) if converted else x

    conds = [(0, cp2_class(f)) for f in constraints or ()]
    conds += [(-1, cp2_class(f)) for f in meets or ()]
    if area is not None:
        # positive area, and the cap when given, in scaled integer units, as
        # pairings with the area class W (W.x = area of x): W_0 = a_0 and W_i
        # = -a_i. Every solution meets them exactly: W.x - 1 >= 0 is area >=
        # 1/den > 0, and floor(cap den) - W.x >= 0 is area <= floor(cap
        # den)/den <= cap, so no filter follows the search
        w = {i: -v for i, v in enumerate(area._ints) if v}
        if 0 in w:
            w[0] = area._ints[0]
        conds.append((-1, w))
        if area_cap is not None:
            conds.append((math.floor(area_cap * area.denominator), vneg(w)))
    raw, complete, nodes = _cp2_exceptional_raw(r - 1, coeff_bound, conds)
    if converted:
        raw = sorted(dense(mat_vec(t_inv, sparse(x)), r) for x in raw)
    return ExcSearch(tuple(raw), complete, nodes)


def _recheck(
    lat: Lattice,
    classes: Sequence[Dense],
    component_classes: Sequence[Dense],
    groups: Sequence[Sequence[Dense]] = (),
) -> None:
    """Re-check the dense search results: each pairs nonnegatively with every
    component and at least 1 with the sum of each group, else LemmaViolated.
    Each found class x is paired with a dense class by one dot product with
    x's gram row, made once (Lattice.gram_row)."""
    for x in classes:
        row = lat.gram_row(sparse(x))
        if any(dot(row, c) < 0 for c in component_classes):
            raise LemmaViolated("constrained search returned a non-log class")
        if any(sum(dot(row, c) for c in g) < 1 for g in groups):
            raise LemmaViolated("connecting search returned a class missing a group")


def log_exceptional(
    lat: Lattice,
    area: AreaForm | None,
    component_classes: Sequence[Dense],
    area_cap: Fraction | None = None,
    coeff_bound: int = 12,
) -> ExcSearch:
    """Exceptional classes pairing nonnegatively with every listed component."""
    base = enumerate_exceptional(
        lat, area, area_cap, coeff_bound, constraints=component_classes
    )
    _recheck(lat, base.classes, component_classes)
    return base


def connecting_log_exceptional(
    lat: Lattice,
    area: AreaForm | None,
    component_classes: Sequence[Dense],
    group_i: Sequence[Dense],
    group_j: Sequence[Dense],
    area_cap: Fraction | None = None,
    coeff_bound: int = 12,
) -> ExcSearch:
    """Log exceptional classes meeting both listed groups at least once.

    A class meets a group when its pairings with the group's classes sum to
    at least 1, that is, when it pairs at least 1 with the sum of the group.
    The search takes three `meets` classes, functionals with offset -1, beside
    the components as `constraints` with offset 0: the two group sums, and
    the connector bound

        D = K + sum group_i + sum group_j + sum R,

    R being the multiset of components left after taking away one copy of
    each class of either group, where the components hold it. Every class E
    the search may return has E.D >= 1:
      - E.K = -1, which the search's two equations fix;
      - E.(sum group) >= 1 for each group, the meets conditions;
      - E.c >= 0 for each c in R, since each is a component;
    so E.D >= -1 + 1 + 1 + 0 = 1. This holds for any arguments, so there is
    one code path. When the groups are disjoint strings among the components
    and K = -(sum of the boundary classes), as for the boundary of a
    resolution, D = -(N_a + N_b + N_c): every connecting class pairs
    negatively with the connectors, E.(N_a + N_b + N_c) <= -1. The condition
    is implied, but the search prunes one functional at a time, so handing it
    over prunes far more than the group sums alone, or than K + sum group_i
    + sum group_j without R.

    The search prunes on all of them with the bound derived in
    _cp2_exceptional_raw. The components and both groups are re-checked on
    the result, and a class failing either raises LemmaViolated. E.D >= 1
    is not re-checked: the two re-checks and E.K = -1 imply it. A component
    or group class of another length than the rank raises RankMismatch.
    """
    if lat.canonical is None:
        raise MissingClasses("enumeration needs the standard canonical class")
    rank = lat.rank
    for x in (*component_classes, *group_i, *group_j):
        if len(x) != rank:
            raise RankMismatch(f"class of length {len(x)} in rank {rank}")
    sums = tuple(
        tuple(map(sum, zip(zero(rank), *group, strict=True))) for group in (group_i, group_j)
    )
    rest = list(component_classes)
    for c in (*group_i, *group_j):
        if c in rest:
            rest.remove(c)
    bound = tuple(map(sum, zip(dense(lat.canonical, rank), *sums, *rest, strict=True)))
    base = enumerate_exceptional(
        lat, area, area_cap, coeff_bound, constraints=component_classes, meets=(*sums, bound)
    )
    _recheck(lat, base.classes, component_classes, (group_i, group_j))
    return base


def exceptional_gap(
    lat: Lattice,
    area: AreaForm,
    component_classes: Sequence[Dense],
    group_i: Sequence[Dense],
    group_j: Sequence[Dense],
    area_cap: Fraction | None = None,
    coeff_bound: int = 12,
) -> GapResult:
    """Supremum of areas of connecting log exceptional classes (0 when none).

    The classes are those connecting_log_exceptional returns. Each pairs at
    least 1 with the connector bound D = K + sum group_i + sum group_j + sum
    R (see there), since E.K = -1, E meets both groups and pairs
    nonnegatively with every component; on the boundary of a resolution D =
    -(N_a + N_b + N_c). The search prunes on D as well, which changes its
    work but not its classes, so the value is the one without D. certified
    is False when the enumeration was bounded, in which case the value is
    only a lower bound for the true supremum. The value needs an area form:
    area=None raises UserInputError before any search. A component or group
    class of another length than the rank raises RankMismatch, as there.
    """
    if area is None:
        raise UserInputError("exceptional_gap needs an area form")
    search = connecting_log_exceptional(
        lat, area, component_classes, group_i, group_j, area_cap, coeff_bound
    )
    if not search.classes:
        return GapResult(Fraction(0), search.complete, None)
    best = max(search.classes, key=lambda x: dot(area._ints, x))
    return GapResult(Fraction(dot(area._ints, best), area.denominator), search.complete, best)


# --- basis conversions --------------------------------------------------------

Mat = tuple[Dense, ...]


def mat_vec(blk: Mat, x: Vec) -> Vec:
    """Apply the matrix whose leading b x b block is blk and which is the
    identity beyond it to the sparse class x: slots 0..b-1 are rewritten,
    the others kept, in O(nonzeros). A class with no slot in 0..b-1 is
    returned as it is, not copied: classes are never mutated, so the result
    may share it."""
    b = len(blk)
    if x.keys().isdisjoint(range(b)):
        return x
    out = dict(x)
    head = [x.get(j, 0) for j in range(b)]
    for i, row in enumerate(blk):
        v = dot(row, head)
        if v:
            out[i] = v
        else:
            out.pop(i, None)
    return out


def _block_mul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def mat_inverse_int(m: Mat) -> Mat:
    """Inverse of a unimodular integer matrix, computed exactly."""
    r = len(m)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(r)] for i, row in enumerate(m)]
    for col in range(r):
        piv = next((i for i in range(col, r) if aug[i][col] != 0), None)
        if piv is None:
            raise WppError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    out = []
    for i in range(r):
        row = aug[i][r:]
        if any(v.denominator != 1 for v in row):
            raise WppError("matrix is not unimodular")
        out.append(tuple(int(v) for v in row))
    return tuple(out)


# (T, T^-1, the images T e_i, the gram entries (i, j, e_i.e_j)) per (k, b)
HirzBlock = tuple[Mat, Mat, tuple[Vec, ...], tuple[tuple[int, int, int], ...]]
_BLOCK_CACHE: dict[tuple[int, int], HirzBlock] = {}


def _hirz_block(k: int, b: int) -> HirzBlock:
    """The leading b x b blocks of T and T^-1 for the ruled-surface form of
    degree k, the images T e_i of the block's basis vectors, and the gram
    entries (i, j, e_i.e_j), i <= j < b, of the ruled-surface form.

    T is a shear (x, y) -> (x - fl y, y), fl = k // 2, making B.B equal
    -(k mod 2), then the standard elementary transformation: for odd k H' =
    F + B', slot 1 becoming the section class; for even k a map that
    consumes the first exceptional vector, so b = 3. The inverse is
    checked. All of it depends on (k, b) alone, so it is derived once per
    process and cached; to_cp2 runs both certificates on every call.
    """
    key = (k, b)
    cached = _BLOCK_CACHE.get(key)
    if cached is not None:
        return cached
    fl = k // 2
    shear: Mat = ((1, -fl, 0), (0, 1, 0), (0, 0, 1))
    unshear: Mat = ((1, fl, 0), (0, 1, 0), (0, 0, 1))
    if k % 2 == 1:
        m1: Mat = ((1, 0, 0), (-1, 1, 0), (0, 0, 1))
        m1_inv: Mat = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
    else:
        m1 = ((1, 1, 1), (0, -1, -1), (-1, 0, -1))
        m1_inv = ((1, 1, 0), (1, 0, 1), (-1, -1, -1))

    def lead(m: Mat) -> Mat:
        return tuple(row[:b] for row in m[:b])

    t = _block_mul(lead(m1), lead(shear))
    t_inv = _block_mul(lead(unshear), lead(m1_inv))
    if _block_mul(t, t_inv) != tuple(unit(b, i) for i in range(b)):
        raise WppError("basis conversion inverse check failed")
    src = hirz_lattice(k, b - 2)
    heads = [{i: 1} for i in range(b)]
    gram = tuple(
        (i, j, src.pair(heads[i], heads[j])) for i in range(b) for j in range(i, b)
    )
    images = tuple(mat_vec(t, x) for x in heads)
    out = _BLOCK_CACHE[key] = (t, t_inv, images, gram)
    return out


def to_cp2(lat: Lattice) -> tuple[Lattice, Mat, Mat]:
    """Isometry onto a cp2-form lattice: returns (lattice, T, T^-1).

    T maps coefficient vectors of the source basis to the cp2 basis. It
    differs from the identity only in its leading b x b block, b = min(3,
    rank), so T and T^-1 are returned as those blocks; mat_vec applies them.
    Trailing head slots that are (-1) vectors orthogonal to all others, tail
    slots but in name, are stripped before the head is matched. A cp2 head
    gives the identity blocks (and lat when nothing was stripped). A
    ruled-surface head ((0, 1), (1, -k)) gives a shear making B.B even or odd
    small, then the standard elementary transformation; the even case
    consumes one exceptional basis vector and so needs rank >= 3. Any other
    head has no conversion (WppError).

    The blocks depend on (k, b) alone and are derived once per process
    (_hirz_block). The conversion is certified on every call against the
    lattice it returns: T e_i . T e_j must equal e_i . e_j for i, j < b, else
    LemmaViolated, and T K must be the returned canonical class. Past the
    block T is the identity and both forms are -1 on the diagonal and
    orthogonal to the block, so the certificate makes T an isometry on every
    class. Past the block T K keeps K's coefficients, so the K certificate
    asks that both classes hold 1 on every tail slot and stripped slot, as
    the standard cp2 class does, that the ranks agree and that T times K's
    first b coefficients equal the returned class's: only the b head slots
    are converted and compared.
    """
    r = lat.rank
    b = min(3, r)
    head = lat.head
    while len(head) > 1 and head[-1][-1] == -1 and not any(head[-1][:-1]):
        head = tuple(row[:-1] for row in head[:-1])  # symmetric: row = column
    if head == CP2_HEAD:
        t = t_inv = tuple(unit(b, i) for i in range(b))
        if len(lat.head) == 1:
            return lat, t, t_inv
        gram: tuple[tuple[int, int, int], ...] = ()  # the stripped form is cp2's
    elif len(head) != 2 or head[0] != (0, 1):
        raise WppError("no canonical cp2 form for this lattice")
    elif head[1][1] > 0:
        raise WppError("normalise k >= 0 before converting")
    elif head[1][1] % 2 == 0 and r < 3:
        raise WppError("even-k conversion needs an exceptional basis vector")
    else:
        t, t_inv, images, gram = _hirz_block(-head[1][1], b)
    out = cp2_lattice(r - 1)
    for i, j, g in gram:
        if out.pair(images[i], images[j]) != g:
            raise LemmaViolated(f"basis conversion changes the pairing of e_{i}, e_{j}")
    kk, kt = lat.canonical, out.canonical
    if kk is not None:
        kh = [kk.get(i, 0) for i in range(b)]
        if not (
            lat._kc is not None and out._kc is not None and out.rank == r
            and [dot(row, kh) for row in t] == [kt.get(i, 0) for i in range(b)]
            and all(kk.get(i) == 1 for i in range(b, len(lat.head)))
        ):
            raise WppError("canonical class does not convert to the standard one")
    return out, t, t_inv


def transport_area(area: AreaForm, t_inv: Mat) -> AreaForm:
    """Area form in the target basis of a conversion with inverse block t_inv.

    The new value on basis vector j is the old area of T^-1 e_j; beyond the
    block that is e_j itself, so only the first b values are recomputed.
    t_inv must be the inverse block of a conversion, which _hirz_block checks
    to be an integer inverse, so it is unimodular: the new head has the old
    head's content and the tail is shared, so the form stays in lowest terms
    and skips the gcd pass over the rank.
    """
    b = len(t_inv)
    ints = area._ints
    head = tuple(sum(ints[i] * t_inv[i][j] for i in range(b)) for j in range(b))
    return AreaForm._lowest(head + ints[b:], area._den)


# --- integer kernel of a primitive functional ---------------------------------


def functional_kernel_basis(g: Dense) -> tuple[tuple[Dense, ...], Dense]:
    """Unimodular splitting of Z^n along an integer functional of content 1.

    Returns (kernel_rows, witness): kernel_rows span {x : g.x = 0} and witness
    satisfies g.witness = 1; together they form a basis of Z^n.
    """
    n = len(g)
    rows: list[Dense] = [unit(n, i) for i in range(n)]
    h = list(g)
    piv = next((i for i in range(n) if h[i] != 0), None)
    if piv is None:
        raise WppError("zero functional has no splitting")
    for j in range(n):
        if j == piv or h[j] == 0:
            continue
        d, u, v = ext_gcd(h[piv], h[j])
        a, b = h[piv] // d, h[j] // d
        r_p, r_j = rows[piv], rows[j]
        rows[piv] = tuple(u * x + v * y for x, y in zip(r_p, r_j))
        rows[j] = tuple(-b * x + a * y for x, y in zip(r_p, r_j))
        h[piv], h[j] = d, 0
    if h[piv] == -1:
        rows[piv] = tuple(-v for v in rows[piv])
        h[piv] = 1
    if h[piv] != 1:
        raise WppError(f"functional has content {abs(h[piv])}, expected 1")
    kernel = tuple(rows[i] for i in range(n) if i != piv)
    return kernel, rows[piv]

