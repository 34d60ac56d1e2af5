"""Integral lattices with distinguished bases, canonical classes, area forms.

Homology classes are plain int tuples of coefficients in the lattice's
distinguished basis. Three basis conventions are supported:

  cp2:  basis (H, e_1, ..., e_n), gram diag(1, -1, ..., -1)
  hirz: basis (F, B, e_1, ..., e_m), F.F = 0, F.B = 1, B.B = -k, e_i.e_i = -1
  generic: explicit gram matrix

The canonical class, when known, is stored as a coefficient vector; abstract
sphere configurations carry canonical = None and recover canonical pairings
from adjunction componentwise instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

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
    "Lattice",
    "cp2_lattice",
    "hirz_lattice",
    "generic_lattice",
    "AreaForm",
    "ExcSearch",
    "GapResult",
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

Vec = tuple[int, ...]

NEG_INF = float("-inf")


def vadd(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vsub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vneg(x: Vec) -> Vec:
    return tuple(-a for a in x)


def unit(rank: int, i: int) -> Vec:
    return (0,) * i + (1,) + (0,) * (rank - i - 1)


def zero(rank: int) -> Vec:
    return (0,) * rank


def dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


@dataclass(frozen=True)
class Lattice:
    tag: str  # "cp2" | "hirz" | "generic"
    rank: int
    k_hirz: int = 0
    gram: tuple[Vec, ...] | None = None
    canonical: Vec | None = None
    _std_k: bool = field(init=False, compare=False, repr=False, default=False)

    def __post_init__(self) -> None:
        if self.tag not in ("cp2", "hirz", "generic"):
            raise WppError(f"unknown lattice tag {self.tag!r}")
        if self.canonical is not None and len(self.canonical) != self.rank:
            raise RankMismatch("canonical class has wrong length")
        std = (
            self.tag == "cp2"
            and self.canonical is not None
            and self.canonical[0] == -3
            and all(c == 1 for c in self.canonical[1:])
        )
        object.__setattr__(self, "_std_k", std)

    def pair(self, x: Vec, y: Vec) -> int:
        if len(x) != self.rank or len(y) != self.rank:
            raise RankMismatch(f"vectors of length {len(x)},{len(y)} in rank {self.rank}")
        if self.tag == "cp2":
            return 2 * x[0] * y[0] - dot(x, y)
        if self.tag == "hirz":
            s = x[0] * y[1] + x[1] * y[0] - self.k_hirz * x[1] * y[1]
            return s - dot(x[2:], y[2:])
        if self.gram is None:
            raise MissingClasses("generic lattice has no gram matrix")
        return sum(x[i] * dot(self.gram[i], y) for i in range(self.rank) if x[i])

    def sq(self, x: Vec) -> int:
        return self.pair(x, x)

    def k_pair(self, x: Vec) -> int:
        """Canonical class paired with x; requires an explicit canonical class."""
        if self.canonical is None:
            raise MissingClasses("lattice has no canonical class")
        if self._std_k:
            if len(x) != self.rank:
                raise RankMismatch(f"vector of length {len(x)} in rank {self.rank}")
            return -2 * x[0] - sum(x)
        return self.pair(self.canonical, x)

    def adjunction_defect(self, x: Vec) -> int:
        """x.x + K.x + 2; zero exactly for embedded rational curve classes."""
        return self.sq(x) + self.k_pair(x) + 2

    def sw_index(self, x: Vec) -> int:
        """x.x - K.x; equals 2 for fiber classes of rational ruled surfaces."""
        return self.sq(x) - self.k_pair(x)

    def is_exceptional_class(self, x: Vec) -> bool:
        return self.sq(x) == -1 and self.k_pair(x) == -1

    def gram_rows(self) -> tuple[Vec, ...]:
        """Materialise the gram matrix in the distinguished basis."""
        if self.gram is not None:
            return self.gram
        return tuple(
            tuple(self.pair(unit(self.rank, i), unit(self.rank, j)) for j in range(self.rank))
            for i in range(self.rank)
        )

    def blowup(self) -> "Lattice":
        """Extend by one (-1) basis vector; canonical gains coefficient +1 there."""
        k = None if self.canonical is None else self.canonical + (1,)
        if self.tag == "generic":
            if self.gram is None:
                raise MissingClasses("generic lattice has no gram matrix")
            g = tuple(row + (0,) for row in self.gram)
            g = g + (zero(self.rank) + (-1,),)
            return Lattice("generic", self.rank + 1, gram=g, canonical=k)
        return Lattice(self.tag, self.rank + 1, k_hirz=self.k_hirz, canonical=k)


def cp2_lattice(n_exceptional: int) -> Lattice:
    """Blowup of the projective plane: basis (H, e_1, ..., e_n)."""
    k = (-3,) + (1,) * n_exceptional
    return Lattice("cp2", n_exceptional + 1, canonical=k)


def hirz_lattice(k: int, n_exceptional: int = 0) -> Lattice:
    """Ruled surface lattice: basis (F, B, e_1, ..., e_m) with B.B = -k."""
    kv = (-(k + 2), -2) + (1,) * n_exceptional
    return Lattice("hirz", n_exceptional + 2, k_hirz=k, canonical=kv)


def generic_lattice(gram: Sequence[Sequence[int]], canonical: Vec | None = None) -> Lattice:
    g = tuple(tuple(row) for row in gram)
    r = len(g)
    for row in g:
        if len(row) != r:
            raise RankMismatch("gram matrix is not square")
    for i in range(r):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise WppError("gram matrix is not symmetric")
    return Lattice("generic", r, gram=g, canonical=canonical)


@dataclass(frozen=True)
class AreaForm:
    """Symplectic area functional: exact rational value on each basis vector."""

    values: tuple[Fraction, ...]
    _den: int = field(init=False, compare=False, repr=False, default=1)
    _ints: tuple[int, ...] = field(init=False, compare=False, repr=False, default=())

    def __post_init__(self) -> None:
        den = math.lcm(*(v.denominator for v in self.values)) if self.values else 1
        ints = tuple(int(v * den) for v in self.values)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_ints", ints)

    @classmethod
    def from_scaled(cls, ints: Sequence[int], den: int) -> "AreaForm":
        """The form with values ints[i] / den, built without Fraction arithmetic."""
        g = math.gcd(den, *ints)
        if g > 1:
            ints = [v // g for v in ints]
            den //= g
        form = object.__new__(cls)
        object.__setattr__(form, "values", tuple(Fraction(v, den) for v in ints))
        object.__setattr__(form, "_den", den)
        object.__setattr__(form, "_ints", tuple(ints))
        return form

    @property
    def rank(self) -> int:
        return len(self.values)

    def area(self, x: Vec) -> Fraction:
        if len(x) != len(self.values):
            raise RankMismatch("class has wrong length for area form")
        return Fraction(dot(self._ints, x), self._den)

    def area_scaled(self, x: Vec) -> int:
        """Integer area in units of 1/denominator; orders match .area exactly."""
        if len(x) != len(self.values):
            raise RankMismatch("class has wrong length for area form")
        return dot(self._ints, x)

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
    """

    classes: tuple[Vec, ...]
    complete: bool


@dataclass(frozen=True)
class GapResult:
    value: Fraction
    certified: bool
    witness: Vec | None


_FEASIBLE_CACHE: dict[int, list[set[int]]] = {}
_CANDIDATE_CACHE: dict[int, dict[int, tuple[tuple[int, int, int], ...]]] = {}


def _check_key_bounds(n: int, coeff_bound: int) -> None:
    """Reject searches whose states overflow the packed integer keys.

    A key packs the remaining square-sum, at most coeff_bound^2 + 1, into 10
    bits; that is below 1024 exactly for coeff_bound <= 31. The remaining sum
    is stored offset by 512, and by Cauchy-Schwarz its absolute value is at
    most sqrt(n * (coeff_bound^2 + 1)), below 512 exactly when the second
    condition holds.
    """
    if not 0 <= coeff_bound <= 31:
        raise UserInputError(f"coeff_bound must lie in 0..31, got {coeff_bound}")
    if n * (coeff_bound * coeff_bound + 1) >= 512 * 512:
        raise UserInputError(
            f"{n} exceptional slots with coeff_bound {coeff_bound} overflow the "
            "search keys: need n * (coeff_bound^2 + 1) < 512^2"
        )


def _feasible_states(coeff_bound: int, max_slots: int) -> list[set[int]]:
    """F[k] = encoded (sum, square-sum) pairs reachable with exactly k
    coefficients bounded by coeff_bound, square-sum capped at coeff_bound^2+1.

    Keys are ((sum + 512) << 10) | square_sum; membership is the exact
    completability test for the recursion below, much sharper than the
    Cauchy-Schwarz bound it replaces.
    """
    qmax = coeff_bound * coeff_bound + 1
    layers = _FEASIBLE_CACHE.setdefault(coeff_bound, [{(512 << 10) | 0}])
    while len(layers) <= max_slots:
        prev = layers[-1]
        nxt: set[int] = set()
        for key in prev:
            s_enc = key >> 10
            q = key & 1023
            for c in range(-coeff_bound, coeff_bound + 1):
                q2 = q + c * c
                if q2 <= qmax:
                    nxt.add(((s_enc + c) << 10) | q2)
        layers.append(nxt)
    return layers


def _cp2_exceptional_raw(
    n: int,
    coeff_bound: int,
    constraints: Sequence[Vec] | None = None,
    raw_funcs: Sequence[tuple[int, tuple[int, ...]]] | None = None,
) -> tuple[list[Vec], bool]:
    """All (d, c_1..c_n) with d^2 - sum c^2 = -1 and -3d - sum c = -1, |coeffs| <= bound.

    Each constraint is a class the solutions must pair nonnegatively with;
    raw_funcs are (offset, coefficients) pairs required to satisfy
    offset + dot(coefficients, x) >= 0 on the raw coordinate vector. Both are
    enforced inside the recursion with a remaining-budget bound, which prunes
    the search far below the unconstrained tree.
    """
    found: list[Vec] = []
    feasible_d: list[int] = []
    # (1-3d)^2 <= n (d^2+1) is necessary; scan a window comfortably containing
    # every integer solution that could also satisfy |d| <= coeff_bound
    for d in range(-coeff_bound - 8, coeff_bound + 9):
        if (1 - 3 * d) ** 2 <= n * (d * d + 1):
            feasible_d.append(d)
    complete = n <= 8 and all(abs(d) <= coeff_bound for d in feasible_d)
    if complete:
        cmax = max((math.isqrt(d * d + 1) for d in feasible_d), default=0)
        complete = cmax <= coeff_bound

    # unify both kinds into (offset, coefficient-vector) form; pairing against
    # (d, c_1..c_n) in the standard diagonal form enters the d slot positively
    # and every exceptional slot negatively
    offsets: list[int] = []
    funcs: list[tuple[int, ...]] = []
    for f in constraints or ():
        offsets.append(0)
        funcs.append((f[0],) + tuple(-v for v in f[1:]))
    for off, coeffs in raw_funcs or ():
        offsets.append(off)
        funcs.append(tuple(coeffs))

    # assign slots in an order that closes constraint supports early: greedily
    # take the functional with the fewest unplaced slots and place its support
    # next, so its exact end-of-support rejection fires high in the tree
    order = list(range(1, n + 1))
    if funcs:
        remaining = [set(p for p in range(1, n + 1) if g[p]) for g in funcs]
        placed: list[int] = []
        placed_set: set[int] = set()
        while True:
            open_funcs = [r for r in remaining if r]
            if not open_funcs:
                break
            best = min(open_funcs, key=len)
            for p in sorted(best):
                placed.append(p)
                placed_set.add(p)
                for r in remaining:
                    r.discard(p)
        placed.extend(p for p in range(1, n + 1) if p not in placed_set)
        order = placed
        funcs = [
            (g[0],) + tuple(g[order[j]] for j in range(n)) for g in funcs
        ]
    # sum_sq[fi][p]: total squared coefficient mass of slots p..n; by
    # Cauchy-Schwarz the unassigned slots can lower a running value by at most
    # sqrt(sum_sq * remaining-square-budget), and the test value^2 > sum_sq * q
    # is exact integer arithmetic, with sum_sq = 0 an exact test at support end
    sum_sq: list[list[int]] = []
    for g in funcs:
        tails = [0] * (n + 2)
        for i in range(n, 0, -1):
            tails[i] = tails[i + 1] + g[i] * g[i]
        sum_sq.append(tails)
    # only functionals with a nonzero coefficient at a slot need their running
    # value updated there; ones that are merely "still open" get re-checked at
    # their next nonzero slot, which keeps the exact end-of-support rejection
    active: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 2)]
    for fi, g in enumerate(funcs):
        for pos in range(1, n + 1):
            if g[pos]:
                active[pos].append((fi, g[pos], sum_sq[fi][pos + 1]))
    partial = [0] * len(funcs)

    layers = _feasible_states(coeff_bound, n)
    cand_cache = _CANDIDATE_CACHE.setdefault(coeff_bound, {})

    def rec(i: int, srem: int, qrem: int, prefix: list[int]) -> None:
        if i == n:
            if srem == 0 and qrem == 0:
                found.append(tuple(prefix))
            return
        slots = n - i
        key = (slots << 20) | ((srem + 512) << 10) | qrem
        cands = cand_cache.get(key)
        if cands is None:
            feas = layers[slots - 1]
            s_base = srem + 512
            lim = min(coeff_bound, math.isqrt(qrem))
            out = []
            for c in range(lim, -lim - 1, -1):
                q2 = qrem - c * c
                if ((s_base - c) << 10) | q2 in feas:
                    out.append((c, q2))
            cands = tuple(out)
            cand_cache[key] = cands
        touched = active[i + 1]  # slot being assigned
        for c, q2 in cands:
            ok = True
            for fi, gv, sqtail in touched:
                value = partial[fi] + gv * c
                partial[fi] = value
                if value < 0 and value * value > sqtail * q2:
                    ok = False
            if ok:
                prefix.append(c)
                rec(i + 1, srem - c, q2, prefix)
                prefix.pop()
            for fi, gv, _sqtail in touched:
                partial[fi] -= gv * c

    for d in feasible_d:
        if abs(d) > coeff_bound:
            continue
        if ((1 - 3 * d + 512) << 10) | (d * d + 1) not in layers[n]:
            continue
        q0 = d * d + 1
        skip = False
        for fi, g in enumerate(funcs):
            value = offsets[fi] + g[0] * d
            partial[fi] = value
            if value < 0 and value * value > sum_sq[fi][1] * q0:
                skip = True
        if not skip:
            rec(0, 1 - 3 * d, d * d + 1, [d])
    if order != list(range(1, n + 1)):
        remapped = []
        for x in found:
            y = [x[0]] + [0] * n
            for j in range(n):
                y[order[j]] = x[j + 1]
            remapped.append(tuple(y))
        found = remapped
    found.sort()
    return found, complete


def enumerate_exceptional(
    lat: Lattice,
    area: AreaForm | None = None,
    area_cap: Fraction | None = None,
    coeff_bound: int = 12,
    constraints: Sequence[Vec] | None = None,
) -> ExcSearch:
    """Bounded enumeration of classes with square -1 and canonical pairing -1.

    With an area form, only classes of positive area (and area <= area_cap if
    given) are kept. Non-cp2 lattices are converted first when possible.
    Classes in `constraints` restrict the search to solutions pairing
    nonnegatively with each of them; passing them here instead of filtering
    afterwards lets the search prune, which matters above rank 9.
    """
    _check_key_bounds(lat.rank - 1, coeff_bound)
    if lat.tag != "cp2":
        lat2, t_mat, t_inv = to_cp2(lat)
        area2 = transport_area(area, t_inv) if area is not None else None
        cons2 = (
            tuple(mat_vec(t_mat, f) for f in constraints) if constraints else None
        )
        inner = enumerate_exceptional(lat2, area2, area_cap, coeff_bound, cons2)
        back = tuple(mat_vec(t_inv, x) for x in inner.classes)
        return ExcSearch(tuple(sorted(back)), inner.complete)
    if lat.canonical is None or not lat._std_k:
        raise MissingClasses("enumeration needs the standard canonical class")
    raw_funcs: list[tuple[int, tuple[int, ...]]] = []
    if area is not None:
        # positive area, and the cap when given, in scaled integer units; the
        # same conditions are re-checked below, these only steer the search
        raw_funcs.append((-1, tuple(area._ints)))
        if area_cap is not None:
            cap_scaled = math.floor(area_cap * area.denominator)
            raw_funcs.append((cap_scaled, tuple(-v for v in area._ints)))
    raw, complete = _cp2_exceptional_raw(
        lat.rank - 1, coeff_bound, constraints, raw_funcs
    )
    if area is not None:
        kept = []
        for x in raw:
            a = area.area_scaled(x)
            if a <= 0:
                continue
            if area_cap is not None and area.area(x) > area_cap:
                continue
            kept.append(x)
        raw = kept
    return ExcSearch(tuple(raw), complete)


def log_exceptional(
    lat: Lattice,
    area: AreaForm | None,
    component_classes: Sequence[Vec],
    area_cap: Fraction | None = None,
    coeff_bound: int = 12,
) -> ExcSearch:
    """Exceptional classes pairing nonnegatively with every listed component."""
    base = enumerate_exceptional(
        lat, area, area_cap, coeff_bound, constraints=component_classes
    )
    kept = tuple(
        x for x in base.classes if all(lat.pair(x, c) >= 0 for c in component_classes)
    )
    if kept != base.classes:
        raise LemmaViolated("constrained search returned a non-log class")
    return ExcSearch(kept, base.complete)


def connecting_log_exceptional(
    lat: Lattice,
    area: AreaForm | None,
    component_classes: Sequence[Vec],
    group_i: Sequence[Vec],
    group_j: Sequence[Vec],
    area_cap: Fraction | None = None,
    coeff_bound: int = 12,
) -> ExcSearch:
    """Log exceptional classes meeting both listed groups at least once."""
    base = log_exceptional(lat, area, component_classes, area_cap, coeff_bound)
    kept = tuple(
        x
        for x in base.classes
        if sum(lat.pair(x, c) for c in group_i) >= 1
        and sum(lat.pair(x, c) for c in group_j) >= 1
    )
    return ExcSearch(kept, base.complete)


def exceptional_gap(
    lat: Lattice,
    area: AreaForm,
    component_classes: Sequence[Vec],
    group_i: Sequence[Vec],
    group_j: Sequence[Vec],
    area_cap: Fraction | None = None,
    coeff_bound: int = 12,
) -> GapResult:
    """Supremum of areas of connecting log exceptional classes (0 when none).

    certified is False when the enumeration was bounded, in which case the
    value is only a lower bound for the true supremum.
    """
    search = connecting_log_exceptional(
        lat, area, component_classes, group_i, group_j, area_cap, coeff_bound
    )
    if not search.classes:
        return GapResult(Fraction(0), search.complete, None)
    best = max(search.classes, key=area.area_scaled)
    return GapResult(area.area(best), search.complete, best)


# --- basis conversions --------------------------------------------------------

Mat = tuple[Vec, ...]


def mat_vec(blk: Mat, x: Vec) -> Vec:
    """Apply the matrix whose leading b x b block is blk and which is the
    identity beyond it: blk . x[:b] followed by x[b:] unchanged, in O(rank)."""
    b = len(blk)
    head = x[:b]
    return tuple(dot(row, head) for row in blk) + x[b:]


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


def to_cp2(lat: Lattice) -> tuple[Lattice, Mat, Mat]:
    """Isometry onto a cp2-form lattice: returns (lattice, T, T^-1).

    T maps coefficient vectors of the source basis to the cp2 basis. It
    differs from the identity only in its leading b x b block, b = min(3,
    rank), so T and T^-1 are returned as those blocks; mat_vec applies them.
    For a ruled-surface lattice T is a shear making B.B even or odd small,
    then the standard elementary transformation; the even case consumes one
    exceptional basis vector and so needs rank >= 3.
    """
    r = lat.rank
    b = min(3, r)
    if lat.tag == "cp2":
        ident = tuple(unit(b, i) for i in range(b))
        return lat, ident, ident
    if lat.tag != "hirz":
        raise WppError("no canonical cp2 form for a generic lattice")
    if r < 2:
        raise RankMismatch("a ruled-surface lattice has rank at least 2")
    k = lat.k_hirz
    if k < 0:
        raise WppError("normalise k >= 0 before converting")
    fl = k // 2
    # shear (x, y) -> (x - fl*y, y) so B.B becomes -(k mod 2)
    shear: Mat = ((1, -fl, 0), (0, 1, 0), (0, 0, 1))
    unshear: Mat = ((1, fl, 0), (0, 1, 0), (0, 0, 1))
    if k % 2 == 1:
        # H' = F + B', slot 1 becomes the section class
        m1: Mat = ((1, 0, 0), (-1, 1, 0), (0, 0, 1))
        m1_inv: Mat = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
    else:
        if r < 3:
            raise WppError("even-k conversion needs an exceptional basis vector")
        m1 = ((1, 1, 1), (0, -1, -1), (-1, 0, -1))
        m1_inv = ((1, 1, 0), (1, 0, 1), (-1, -1, -1))

    def lead(m: Mat) -> Mat:
        return tuple(row[:b] for row in m[:b])

    t = _block_mul(lead(m1), lead(shear))
    t_inv = _block_mul(lead(unshear), lead(m1_inv))
    if _block_mul(t, t_inv) != tuple(unit(b, i) for i in range(b)):
        raise WppError("basis conversion inverse check failed")
    out = cp2_lattice(r - 1)
    if lat.canonical is not None:
        if mat_vec(t, lat.canonical) != out.canonical:
            raise WppError("canonical class does not convert to the standard one")
    return out, t, t_inv


def transport_area(area: AreaForm, t_inv: Mat) -> AreaForm:
    """Area form in the target basis of a conversion with inverse block t_inv.

    The new value on basis vector j is the old area of T^-1 e_j; beyond the
    block that is e_j itself, so only the first b values are recomputed.
    """
    b = len(t_inv)
    ints = area._ints
    head = tuple(sum(ints[i] * t_inv[i][j] for i in range(b)) for j in range(b))
    return AreaForm.from_scaled(head + ints[b:], area._den)


# --- integer kernel of a primitive functional ---------------------------------


def functional_kernel_basis(g: Vec) -> tuple[tuple[Vec, ...], Vec]:
    """Unimodular splitting of Z^n along an integer functional of content 1.

    Returns (kernel_rows, witness): kernel_rows span {x : g.x = 0} and witness
    satisfies g.witness = 1; together they form a basis of Z^n.
    """
    n = len(g)
    rows: list[Vec] = [unit(n, i) for i in range(n)]
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
        rows[piv] = vneg(rows[piv])
        h[piv] = 1
    if h[piv] != 1:
        raise WppError(f"functional has content {abs(h[piv])}, expected 1")
    kernel = tuple(rows[i] for i in range(n) if i != piv)
    return kernel, rows[piv]

