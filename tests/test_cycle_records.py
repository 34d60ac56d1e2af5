"""One record per boundary sphere, and the claims ruling raises or records.

`wpp.rulings` uses each sphere's CycleElement as its component in both chain
configs and in the resolved chain. The reference below is the earlier chain
config, which held a Component twin (label and class) of each sphere; the
rulings and their resolutions must write the same report bytes either way.

The strict branch of ruling (target c) raises LemmaViolated on a failed
claim; the permuted targets record the claim's tag instead. A patched
approach record makes one claim fail.
"""

import re
from dataclasses import replace

import pytest

import wpp.rulings as rulings
from wpp.errors import LemmaViolated, NoSignChange
from wpp.report import (
    _ruling_json,
    _ruling_resolution_json,
    dumps_indented,
    make_report,
    serialize_report,
)
from wpp.resolution import build_resolution
from wpp.rulings import ApproachData, ruling, ruling_resolution
from wpp.scan import coprime_triples
from wpp.strings import Component, DivisorConfig, delta_sequence, fiber_class

TRIPLES_30 = coprime_triples(30)


def twin_approach(rp, cs):
    """The chain data with a Component twin of each cycle sphere as its
    config's components, as the chain configs were made before."""
    twins = tuple(Component(el.name, el.cls) for el in cs.elements)
    cfg = DivisorConfig._grown(rp.lattice, twins, ())
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


def ruling_bytes(rp, target):
    """The report text of the ruling toward target and of its resolution, or
    the exception the ruling raises."""
    try:
        rd = ruling(rp, target)
    except (LemmaViolated, NoSignChange) as exc:
        return f"{type(exc).__name__}: {exc}"
    rr = None
    if rd.case == "Unicuspidal" and not rd.violations:
        rr = _ruling_resolution_json(ruling_resolution(rd))
    return dumps_indented({"ruling": _ruling_json(rd, rp.lattice.rank), "resolution": rr})


@pytest.mark.parametrize("pres", range(1, 7))
def test_one_record_matches_component_twins(pres, monkeypatch):
    compared = 0
    for triple in TRIPLES_30:
        rp = build_resolution(*triple, presentation=pres)
        for target in ("a", "b", "c"):
            got = ruling_bytes(rp, target)
            with monkeypatch.context() as m:
                m.setattr(rulings, "_approach", twin_approach)
                assert got == ruling_bytes(rp, target), (triple, pres, target)
            compared += 1
    assert compared == 3 * 1037


@pytest.mark.parametrize("triple", ((2, 3, 5), (3, 4, 5), (11, 13, 14), (7, 8, 15)))
def test_reports_match_component_twins(triple, monkeypatch):
    for pres in range(1, 7):
        rp = build_resolution(*triple, presentation=pres)
        got = serialize_report(make_report(rp))
        with monkeypatch.context() as m:
            m.setattr(rulings, "_approach", twin_approach)
            assert got == serialize_report(make_report(rp))


def test_spheres_are_one_record_each():
    rp = build_resolution(11, 13, 14)
    cycle = rulings.boundary_elements(rp)
    rd = ruling(rp, "c")
    rr = ruling_resolution(rd)
    ids = {id(el) for el in rd.forward.combined.elements + rd.backward.combined.elements}
    for ap in (rd.forward, rd.backward):
        assert ap.config.components is ap.combined.elements
    # the resolved chain keeps the forward chain's records off the node piece
    lo = rd.forward.fiber.upto - 1
    kept = rr.config.components[:lo] + rr.config.components[lo + len(rr.multiplicities) + 2:]
    assert kept and all(id(el) in ids for el in kept)
    assert {el.name for el in cycle} >= {el.label for el in kept}


# --- the claims of ruling: raised for target c, recorded for a and b -------------


def _patched_backward(monkeypatch, change):
    """Make rulings._approach return the backward chain's data passed through
    change, the forward chain's as it is."""
    original = rulings._approach

    def patched(rp, cs):
        ap = original(rp, cs)
        return change(ap) if cs.direction == "backward" else ap

    monkeypatch.setattr(rulings, "_approach", patched)


def _moved_fiber(ap):
    fd = ap.fiber
    return replace(ap, fiber=replace(fd, fclass={**fd.fclass, 0: fd.fclass.get(0, 0) + 1}))


def _moved_node(ap):
    return replace(ap, nu=ap.nu + 1)


@pytest.mark.parametrize("target", ("c", "a"))
@pytest.mark.parametrize("change, tag, message", [
    (_moved_fiber, "fiber_mismatch", "forward and backward fibers differ"),
    (_moved_node, "case_shape", "Unicuspidal data out of shape for target {}"),
], ids=["fiber_mismatch", "case_shape"])
def test_failed_claim(target, change, tag, message, monkeypatch):
    """A backward chain whose fiber or node moved fails one claim: raised
    for target c, recorded for a with the rest of the data as it was."""
    rp = build_resolution(3, 4, 5)
    clean = ruling(rp, target)
    assert clean.case == "Unicuspidal" and clean.violations == ()
    _patched_backward(monkeypatch, change)
    if target == "c":
        with pytest.raises(LemmaViolated, match=f"^{re.escape(message.format(target))}$"):
            ruling(rp, target)
        return
    rd = ruling(rp, target)
    assert rd.violations == (tag,)
    assert rd.backward == change(clean.backward)
    assert replace(rd, violations=(), backward=clean.backward, nu_b=clean.nu_b,
                   cusp_location=clean.cusp_location) == clean
