"""Differential test: checks deleted as implied still hold when re-run.

Each check below used to run on every build. It was deleted because an
earlier check already proves its fact. Here it runs again as an oracle:

- the square and area of every edge class after the F_k -> CP^2 conversion,
  implied by to_cp2's block certificate and transport_area's checked inverse;
- the fiber square p * q of every in-range ruling, implied by fiber_class's
  square check;
- the canonical pairing K.F = -p - q - 1 (so the index (p + 1)(q + 1)), the
  positive area and the cycle profile of the fiber, and the stored indices
  (nu_a, nu_b), set and equal to those nu_indices finds, on every in-range
  ruling toward a, b and c: implied by the ledger's verified gram, areas
  and adjunction, as ruling's docstring proves (ruling_facts);
- the multiplicities of a resolved unicuspidal fiber and its pairings with
  the cycle spheres off the forward chain, implied by resolution_fiber_class's
  subtraction pairs and the profile.

The rulings cover coprime_triples(20) in all six presentations, two
high-rank triples and the seed-7 hold-out band of the criterion-4 CI step,
which also runs ruling_facts on both of its bands. The fault-injection tests
at the end show that the oracle and the certificate fire.
"""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

import wpp.homlat as homlat
from wpp.arith import weight_sequence
from wpp.errors import LemmaViolated
from wpp.homlat import AreaForm, generic_lattice, hirz_lattice, to_cp2
from wpp.resolution import build_resolution
from wpp.rulings import boundary_elements, nu_indices, ruling, ruling_resolution
from wpp.scan import coprime_triples


def holdout_band(seed: int, lo: int, hi: int, count: int = 300) -> list[tuple[int, int, int]]:
    """count pairwise coprime triples a < b < c with lo <= c <= hi, drawn by
    random.Random(seed), as the criterion-4 hold-out CI step draws them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = rng.randint(lo, hi)
        b = rng.randint(3, c - 1)
        a = rng.randint(2, b - 1)
        if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
            out.append((a, b, c))
    return out


def ruling_facts(rp, rd) -> list[str]:
    """The claims ruling no longer checks, re-run on its in-range ruling rd
    of rp in the lattice: the tags of those that fail, none when all hold.
    No assert, so the step that runs it under python -O still checks."""
    lat, fiber, p, q = rp.lattice, rd.fiber, rd.pa, rd.qa
    bad = []
    kf = lat.k_pair(fiber)
    if not kf == rd.canonical_pairing == -p - q - 1:
        bad.append("canonical")
    if lat.sq(fiber) - kf != (p + 1) * (q + 1):
        bad.append("index")
    if rp.area.area(fiber) <= 0:
        bad.append("area")
    for el in boundary_elements(rp):
        want = 0
        if el.name == rd.opposite:
            want = 1
        elif el.role == rd.target and el.stored_index == rd.nu_a:
            want = p
        elif el.role == rd.target and el.stored_index == rd.nu_a + 1:
            want = q
        if lat.pair(fiber, el.cls) != want:
            bad.append("profile")
            break
    if None in (rd.nu_a, rd.nu_b) or (rd.nu_a, rd.nu_b) != nu_indices(rp, rd.target):
        bad.append("nu")
    return bad


def _recheck(rp, seen: Counter) -> None:
    lat, area, poly = rp.lattice, rp.area, rp.polygon
    for i, cls in enumerate(rp.edge_classes):
        assert lat.sq(cls) == rp.edge_sels[i]
        assert area.area_scaled(cls) * poly.den == poly.length_scaled(i) * area.denominator
    seen["converted"] += rp.terminal != "cp2"

    for target in "abc":
        rd = ruling(rp, target)
        seen[target, rd.case] += 1
        if rd.case not in ("EmbeddedFiber", "Unicuspidal"):
            continue
        p, q, fiber = rd.pa, rd.qa, rd.fiber
        assert lat.sq(fiber) == p * q == rd.selfint
        assert ruling_facts(rp, rd) == [], (rp.weights_input, rp.presentation, target)
        if rd.case != "Unicuspidal":
            continue
        rr = ruling_resolution(rd)
        assert rr.multiplicities == weight_sequence(p, q)
        lat2 = rr.config.lattice
        chain = {el.name for el in rd.forward.combined.elements}
        for el in boundary_elements(rp):
            if el.name in chain:
                continue
            # a sparse class is zero on the new exceptional slots as it stands
            want = 1 if el.name == rd.opposite else 0
            assert lat2.pair(rr.resolved.fclass, el.cls) == want, el.name
            seen["off_chain"] += 1


def _cases(seen: Counter) -> dict:
    """The (target, case) counts of seen."""
    return {key: n for key, n in seen.items() if isinstance(key, tuple)}


def test_implied_checks_hold_up_to_c20():
    seen: Counter = Counter()
    for t in coprime_triples(20):
        for pres in range(1, 7):
            _recheck(build_resolution(*t, presentation=pres), seen)
    assert seen["converted"] > 0 and seen["off_chain"] > 0
    # a and b are out of range exactly where c's fiber is embedded
    assert _cases(seen) == {
        ("a", "Unicuspidal"): 1170, ("a", "OutOfRange"): 612,
        ("b", "Unicuspidal"): 1170, ("b", "OutOfRange"): 612,
        ("c", "Unicuspidal"): 1170, ("c", "EmbeddedFiber"): 612,
    }


HIGH_RANK_CASES = {
    (2, 149, 151): {("a", "OutOfRange"): 6, ("b", "OutOfRange"): 6, ("c", "EmbeddedFiber"): 6},
    (247, 250, 253): {(t, "Unicuspidal"): 6 for t in "abc"},
}


@pytest.mark.parametrize("triple", list(HIGH_RANK_CASES))
def test_implied_checks_hold_at_high_rank(triple):
    seen: Counter = Counter()
    for pres in range(1, 7):
        _recheck(build_resolution(*triple, presentation=pres), seen)
    assert seen["converted"] > 0
    assert _cases(seen) == HIGH_RANK_CASES[triple]


def test_implied_checks_hold_on_the_seed7_holdout_band():
    """Presentation 1 of the 300 triples with 61 <= c <= 400 (n up to 160)."""
    seen: Counter = Counter()
    for t in holdout_band(7, 61, 400):
        _recheck(build_resolution(*t), seen)
    assert _cases(seen) == {
        ("a", "Unicuspidal"): 228, ("a", "OutOfRange"): 72,
        ("b", "Unicuspidal"): 228, ("b", "OutOfRange"): 72,
        ("c", "Unicuspidal"): 228, ("c", "EmbeddedFiber"): 72,
    }


def test_ruling_facts_name_a_wrong_ruling():
    rp = build_resolution(3, 4, 5)
    rd = ruling(rp, "c")
    assert ruling_facts(rp, rd) == []
    kf = rd.canonical_pairing + 1
    assert ruling_facts(rp, replace(rd, canonical_pairing=kf)) == ["canonical"]
    assert ruling_facts(rp, replace(rd, nu_a=rd.nu_a - 1)) == ["profile", "nu"]
    assert ruling_facts(rp, replace(rd, nu_b=None)) == ["nu"]
    assert ruling_facts(rp, replace(rd, pa=rd.pa + 1)) == ["canonical", "index", "profile"]
    negated = AreaForm.from_scaled([-v for v in rp.area._ints], rp.area.denominator)
    assert ruling_facts(replace(rp, area=negated), rd) == ["area"]


def test_certificate_rejects_a_wrong_target_form(monkeypatch):
    """A cp2 lattice with one wrong head gram entry fails the certificate."""
    original = homlat.cp2_lattice

    def skewed(n_exceptional):
        lat = original(n_exceptional)
        gram = [list(row) for row in lat.gram_rows()]
        gram[1][1] = -2
        return generic_lattice(gram, canonical=lat.canonical)

    monkeypatch.setattr(homlat, "cp2_lattice", skewed)
    match = "^basis conversion changes the pairing"
    with pytest.raises(LemmaViolated, match=match):
        to_cp2(hirz_lattice(1, 2))
    with pytest.raises(LemmaViolated, match=match):
        build_resolution(11, 13, 14)
