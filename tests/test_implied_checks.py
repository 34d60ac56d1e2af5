"""Differential test: checks deleted as implied still hold when re-run.

Each check below used to run on every build. It was deleted because an
earlier check already proves its fact. Here it runs again as an oracle:

- the square and area of every edge class after the F_k -> CP^2 conversion,
  implied by to_cp2's block certificate and transport_area's checked inverse;
- the fiber square p * q and the index (p + 1)(q + 1) of the target-c ruling,
  implied by fiber_class's square check and ruling's canonical check;
- the multiplicities of a resolved unicuspidal fiber and its pairings with
  the cycle spheres off the forward chain, implied by resolution_fiber_class's
  subtraction pairs and ruling's profile check.

The fault-injection test at the end shows that the certificate itself fires.
"""

from collections import Counter

import pytest

import wpp.homlat as homlat
from wpp.arith import weight_sequence
from wpp.errors import LemmaViolated
from wpp.homlat import generic_lattice, hirz_lattice, to_cp2
from wpp.resolution import build_resolution
from wpp.rulings import boundary_elements, ruling, ruling_resolution
from wpp.scan import coprime_triples


def _recheck(rp, seen: Counter) -> None:
    lat, area, poly = rp.lattice, rp.area, rp.polygon
    for i, cls in enumerate(rp.edge_classes):
        assert lat.sq(cls) == rp.edge_sels[i]
        assert area.area_scaled(cls) * poly.den == poly.length_scaled(i) * area.denominator
    seen["converted"] += rp.terminal != "cp2"

    rd = ruling(rp, "c")
    p, q, fiber = rd.pa, rd.qa, rd.fiber
    assert lat.sq(fiber) == p * q == rd.selfint
    assert lat.sq(fiber) - lat.k_pair(fiber) == (p + 1) * (q + 1)
    if rd.case != "Unicuspidal":
        return
    seen["unicuspidal"] += 1
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


def test_implied_checks_hold_up_to_c20():
    seen: Counter = Counter()
    for t in coprime_triples(20):
        for pres in range(1, 7):
            _recheck(build_resolution(*t, presentation=pres), seen)
    assert seen["converted"] > 0 and seen["unicuspidal"] > 0 and seen["off_chain"] > 0


@pytest.mark.parametrize("triple", [(2, 149, 151), (247, 250, 253)])
def test_implied_checks_hold_at_high_rank(triple):
    seen: Counter = Counter()
    for pres in range(1, 7):
        _recheck(build_resolution(*triple, presentation=pres), seen)
    assert seen["converted"] > 0


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
