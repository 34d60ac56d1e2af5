"""Exact arithmetic for weight triples and Hirzebruch-Jung continued fractions.

Everything here is integer or Fraction arithmetic; no floats. The weight
triple bookkeeping fixes, once and for all, the six modular residues that
orient every continued-fraction expansion used downstream.

weight_triple (past its type check), hj_expand and weight_sequence keep a
bounded cache of MEMO_SIZE results: a scan checks each triple in six
presentations, which validate the same weights, expand the same corner
types and resolve the same fiber types, and their results are immutable (a
frozen WeightTriple or a tuple). The cache is typed, so a float or bool
argument never reuses an int's entry, and an argument that raises is never
stored; __wrapped__ is the uncached function (_weight_triple.__wrapped__ for
weight_triple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DegenerateWeight,
    InvalidFraction,
    LemmaViolated,
    NotCoprime,
    NotPairwiseCoprime,
)

__all__ = [
    "WeightTriple",
    "weight_triple",
    "hj_expand",
    "eval_neg_cf",
    "hj_dual",
    "weight_sequence",
    "ext_gcd",
    "MEMO_SIZE",
]

# entries per memo cache: one triple needs a handful (three corner types, a
# few fiber types), so this spans the six presentations of several triples
MEMO_SIZE = 64


@dataclass(frozen=True)
class WeightTriple:
    """Pairwise coprime weights (a, b, c), all >= 2, with their six residues.

    Residue x_y is the unique integer in (0, x) with x_y * y congruent to z
    mod x, where z is the remaining weight. The two residues attached to a
    fixed weight are mutually inverse mod that weight.
    """

    a: int
    b: int
    c: int
    a_b: int
    a_c: int
    b_a: int
    b_c: int
    c_a: int
    c_b: int


def _residue(x: int, y: int, z: int) -> int:
    # unique r in (0, x) with r*y == z mod x; x >= 2 and gcd(x, y) = 1
    r = (z * pow(y, -1, x)) % x
    if r == 0:
        r = x  # z == 0 mod x cannot happen for pairwise coprime weights >= 2
    return r


def _is_int(x) -> bool:
    """Whether x is an int and not a bool: a bool is not a weight or an entry."""
    return isinstance(x, int) and not isinstance(x, bool)


def weight_triple(a: int, b: int, c: int) -> WeightTriple:
    """Validate (a, b, c) and compute all six residues.

    Raises NotPairwiseCoprime or DegenerateWeight (weights of 1 leave fewer
    than three singular points, so the triple is out of scope; a bool is not
    a weight). The weights are type-checked before the cache is consulted,
    so an unhashable argument raises DegenerateWeight too.
    """
    for w in (a, b, c):
        if not _is_int(w) or w < 1:
            raise DegenerateWeight(f"weights must be positive integers, got {w!r}")
    return _weight_triple(a, b, c)


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def _weight_triple(a: int, b: int, c: int) -> WeightTriple:
    """weight_triple past its type check."""
    if math.gcd(a, b) != 1 or math.gcd(b, c) != 1 or math.gcd(a, c) != 1:
        raise NotPairwiseCoprime(f"({a}, {b}, {c}) is not pairwise coprime")
    if min(a, b, c) == 1:
        raise DegenerateWeight(f"({a}, {b}, {c}) contains a unit weight")
    t = WeightTriple(
        a=a, b=b, c=c,
        a_b=_residue(a, b, c), a_c=_residue(a, c, b),
        b_a=_residue(b, a, c), b_c=_residue(b, c, a),
        c_a=_residue(c, a, b), c_b=_residue(c, b, a),
    )
    # mutual-inverse sanity: the two residues at each weight invert each other
    for x, r1, r2 in ((a, t.a_b, t.a_c), (b, t.b_a, t.b_c), (c, t.c_a, t.c_b)):
        if (r1 * r2) % x != 1 % x:
            raise LemmaViolated(f"residues {r1}, {r2} at weight {x} are not inverse")
    return t


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def hj_expand(p: int, q: int) -> tuple[int, ...]:
    """Hirzebruch-Jung expansion p/q = [b_1, ..., b_k], all b_i >= 2.

    Requires p > q >= 1 and gcd(p, q) = 1.
    """
    if not (_is_int(p) and _is_int(q) and p > q >= 1):
        raise InvalidFraction(f"need integers p > q >= 1, got {p}/{q}")
    if math.gcd(p, q) != 1:
        raise InvalidFraction(f"{p}/{q} is not in lowest terms")
    entries: list[int] = []
    while q > 0:
        b = -(-p // q)  # ceil(p / q)
        entries.append(b)
        p, q = q, b * q - p
    if p != 1:
        raise LemmaViolated(f"expansion ended on remainder {p}, expected 1")
    return tuple(entries)


def eval_neg_cf(entries: tuple[int, ...] | list[int]) -> Fraction:
    """Value of [b_1, ..., b_k] = b_1 - 1/(b_2 - 1/(... - 1/b_k)), exactly.

    Works for arbitrary integer entries as long as no tail convergent hits
    zero where a reciprocal is needed.
    """
    if not entries:
        raise InvalidFraction("empty continued fraction has no value")
    num, den = entries[-1], 1
    for b in reversed(entries[:-1]):
        if num == 0:
            raise InvalidFraction(f"zero tail convergent in {tuple(entries)}")
        num, den = b * num - den, num
    if den < 0:
        num, den = -num, -den
    if math.gcd(num, den) != 1:  # consecutive convergents are coprime
        raise LemmaViolated(f"convergent {num}/{den} is not in lowest terms")
    return Fraction(num, den)


def hj_dual(p: int, q: int) -> int:
    """The q' in (0, p) with q*q' == 1 mod p.

    Reversing the expansion of p/q yields the expansion of p/q'.
    """
    if not (_is_int(p) and _is_int(q) and p > q >= 1):
        raise InvalidFraction(f"need integers p > q >= 1, got {p}/{q}")
    if math.gcd(p, q) != 1:
        raise InvalidFraction(f"{p}/{q} is not in lowest terms")
    return pow(q, -1, p)


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def weight_sequence(p: int, q: int) -> tuple[int, ...]:
    """Multiplicity sequence W(p, q) of the (p, q) model curve.

    Iterate (p, q) -> (|p - q|, min(p, q)), recording min(p, q) at each step,
    until p = q (then record that and stop). (0,1) and (1,0) give the empty
    sequence. Batched: a run of j equal subtractions is emitted at once.
    """
    ints = _is_int(p) and _is_int(q)
    if ints and (p, q) in ((0, 1), (1, 0)):
        return ()
    if not (ints and p >= 1 and q >= 1):
        raise NotCoprime(f"need nonnegative coprime (p, q), got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"({p}, {q}) is not coprime")
    out: list[int] = []
    while True:
        if p == q:  # coprimality forces p == q == 1
            out.append(p)
            break
        hi, lo = (p, q) if p > q else (q, p)
        if lo == 1:
            # descend (hi,1) -> (hi-1,1) -> ... -> (1,1): hi copies of 1 total
            out.extend([1] * hi)
            break
        j = hi // lo  # hi mod lo is in [1, lo-1] by coprimality
        out.extend([lo] * j)
        p, q = hi - j * lo, lo
    return tuple(out)


def ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with u*x + v*y = g = gcd(x, y) >= 0."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
