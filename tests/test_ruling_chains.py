"""Differential tests: approach chains cut from one boundary cycle against the
two directional walks they replaced, and the number of cycle constructions
per ruling.

The reference functions below are copies of the earlier implementation, which
rebuilt the boundary cycle for each walk, walked it forward and backward from
the opposite connector with two separate loops, and cross-checked the
sign-change indices by truncating each chain at every stored index of the
target string.
"""

import pytest

import wpp.rulings as rulings
from wpp.errors import LemmaViolated, MissingClasses, NoSignChange
from wpp.resolution import build_resolution
from wpp.rulings import (
    OPPOSITE_CONNECTOR,
    ApproachData,
    CombinedString,
    RulingData,
    boundary_elements,
    combined_strings,
    nu_indices,
    ruling,
    ruling_resolution,
)
from wpp.strings import chain_config, delta_sequence, fiber_class, is_negative_definite

TRIPLES = ((2, 3, 5), (3, 4, 5), (11, 13, 14), (7, 8, 15), (2, 39, 41), (5, 33, 49), (13, 17, 19))


# --- reference: the two directional walks ---------------------------------------


def ref_combined(rp, target, direction):
    cycle = boundary_elements(rp)
    m = len(cycle)
    opp = OPPOSITE_CONNECTOR[target]
    start = next(i for i, el in enumerate(cycle) if el.name == opp)
    k_t = len(rp.strings[target].edge_ids)
    elements = []
    if direction == "forward":
        i = start + 1
        while True:
            el = cycle[i % m]
            elements.append(el)
            if el.role == target and el.stored_index == k_t:
                break
            i += 1
    else:
        i = start - 1
        while True:
            el = cycle[i % m]
            elements.append(el)
            if el.role == target and el.stored_index == 1:
                break
            i -= 1
    return CombinedString(direction, target, tuple(elements))


def ref_prefix_length(cs, nu):
    count = 0
    for el in cs.elements:
        if el.role != cs.target:
            count += 1
            continue
        keep = el.stored_index <= nu if cs.direction == "forward" else el.stored_index >= nu
        if keep:
            count += 1
    return count


def ref_nu_indices(rp, target):
    fwd, bwd = ref_combined(rp, target, "forward"), ref_combined(rp, target, "backward")
    k_t = len(rp.strings[target].edge_ids)
    nu_fwd = None
    for nu in range(1, k_t + 1):
        if not is_negative_definite(fwd.selfints[: ref_prefix_length(fwd, nu)]):
            nu_fwd = nu
            break
    nu_bwd = None
    for nu in range(k_t, 0, -1):
        if not is_negative_definite(bwd.selfints[: ref_prefix_length(bwd, nu)]):
            nu_bwd = nu
            break
    if nu_fwd is None or nu_bwd is None:
        raise NoSignChange(f"every truncation toward {target} is negative definite")
    return nu_fwd, nu_bwd


def ref_approach(rp, cs):
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


def ref_ruling(rp, target):
    strict = target == "c"
    opp = OPPOSITE_CONNECTOR[target]
    s_opp = rp.connectors[opp].selfint
    fwd = ref_approach(rp, ref_combined(rp, target, "forward"))
    bwd = ref_approach(rp, ref_combined(rp, target, "backward"))
    violations = []

    def fail(tag, msg):
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
    if (nu_a, nu_b) != ref_nu_indices(rp, target):
        fail("nu_scan", "truncation scan disagrees with the sign-change indices")
    if fwd.fiber != bwd.fiber:
        fail("fiber_mismatch", "forward and backward fibers differ")
    fiber, p, q = fwd.fiber, fwd.p, fwd.q
    if fiber is None:
        raise MissingClasses("no fiber data")
    if s_opp >= 0:
        case = "EmbeddedFiber"
        shape_ok = nu_b - nu_a == 2 and (p, q) == (0, 1) and (bwd.p, bwd.q) == (0, 1)
    else:
        case = "Unicuspidal"
        shape_ok = nu_b - nu_a == 1 and (p, q) == (bwd.q, bwd.p) and p >= 1 and q >= 1
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
    for el in boundary_elements(rp):
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
        target, opp, s_opp, case, nu_a, nu_b, fiber, p, q, bwd.p, bwd.q, square, kf,
        (nu_a, nu_b) if case == "Unicuspidal" else None,
        nu_a + 1 if case == "EmbeddedFiber" else None,
        fwd, bwd, tuple(violations),
    )


def _outcome(fn, *args):
    """fn(*args), or the type and message of the LemmaViolated or NoSignChange
    it raises."""
    try:
        return fn(*args)
    except (LemmaViolated, NoSignChange) as exc:
        return type(exc), str(exc)


# --- the chains and the scan -----------------------------------------------------


@pytest.mark.parametrize("triple", TRIPLES)
def test_chains_match_reference_walks(triple):
    for idx in range(1, 7):
        rp = build_resolution(*triple, presentation=idx)
        for target in ("a", "b", "c"):
            fwd, bwd = combined_strings(rp, target)
            ref_fwd = ref_combined(rp, target, "forward")
            ref_bwd = ref_combined(rp, target, "backward")
            for cs, ref in ((fwd, ref_fwd), (bwd, ref_bwd)):
                assert cs.labels() == ref.labels()
                assert cs.selfints == ref.selfints
                assert cs.classes() == ref.classes()
                assert cs == ref
            assert _outcome(nu_indices, rp, target) == _outcome(ref_nu_indices, rp, target)


@pytest.mark.parametrize("triple", TRIPLES)
def test_ruling_matches_reference(triple):
    for idx in range(1, 7):
        rp = build_resolution(*triple, presentation=idx)
        for target in ("a", "b", "c"):
            got = _outcome(ruling, rp, target)
            assert got == _outcome(ref_ruling, rp, target)
            if target == "c":
                assert isinstance(got, RulingData) and got.violations == ()


def test_scan_without_sign_change_raises():
    rp = build_resolution(2, 3, 5)
    fwd, bwd = combined_strings(rp, "c")
    lone = CombinedString("forward", "c", fwd.elements[-1:])  # one sphere of square <= -2
    with pytest.raises(NoSignChange):
        rulings._nu_scan((lone, bwd))


# --- cycle constructions per build -------------------------------------------------


@pytest.fixture
def cycle_calls(monkeypatch):
    calls = []
    original = rulings.boundary_elements

    def counted(rp):
        calls.append(rp)
        return original(rp)

    monkeypatch.setattr(rulings, "boundary_elements", counted)
    return calls


@pytest.mark.parametrize("triple", ((2, 3, 5), (11, 13, 14), (2, 39, 41)))
def test_one_cycle_per_ruling(triple, cycle_calls):
    for idx in range(1, 7):
        rp = build_resolution(*triple, presentation=idx)
        del cycle_calls[:]
        rd = ruling(rp)
        assert len(cycle_calls) == 1
        if rd.case == "Unicuspidal":
            ruling_resolution(rp, rd)
        assert len(cycle_calls) <= 2


def test_resolution_reuses_forward_config(cycle_calls):
    rp = build_resolution(11, 13, 14)
    rd = ruling(rp)
    cs = rd.forward.combined
    assert rd.forward.config == chain_config(rp.lattice, list(cs.classes()),
                                             labels=list(cs.labels()), validate=False)
    ruling_resolution(rp, rd)
    assert len(cycle_calls) == 2
