"""Differential tests: the exceptional-class search against the search it
replaced.

The reference functions below are copies of the earlier implementation. It
pruned each functional with the plain Cauchy-Schwarz test v^2 > G2 q, which
ignores that the open coefficients have a fixed sum, and it found connecting
classes by enumerating every log class and filtering afterwards. A node
counter is added to the copy so the two searches' work can be compared.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpp import homlat
from wpp.arith import hj_expand, weight_triple
from wpp.errors import LemmaViolated, RankMismatch, UserInputError
from wpp.homlat import (
    CP2_HEAD,
    AreaForm,
    ExcSearch,
    _cp2_exceptional_raw,
    class_sum,
    connecting_log_exceptional,
    cp2_lattice,
    enumerate_exceptional,
    exceptional_gap,
    hirz_lattice,
    dense,
    dot,
    log_exceptional,
    mat_vec,
    sparse,
    to_cp2,
    transport_area,
    vneg,
)
from wpp.polygon import assign_classes
from wpp.resolution import build_resolution
from wpp.scan import coprime_triples

CONNECTOR_ENDS = {"N_a": ("b", "c"), "N_b": ("a", "c"), "N_c": ("a", "b")}


# the search takes and returns dense tuples; these give the reference its
# dense pairing, area and conversion on top of the sparse class operations
def _pair(lat, x, y):
    return lat.pair(sparse(x), sparse(y))


def _area_scaled(area, x):
    return dot(area._ints, x)


def _area(area, x):
    return Fraction(_area_scaled(area, x), area.denominator)


def _mat_vec(blk, x):
    return dense(mat_vec(blk, sparse(x)), len(x))


# --- reference: plain Cauchy-Schwarz, connecting filter after the search -------

_REF_FEASIBLE: dict[int, list[set[int]]] = {}
_REF_CANDIDATES: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}


def ref_feasible_states(coeff_bound, max_slots):
    qmax = coeff_bound * coeff_bound + 1
    layers = _REF_FEASIBLE.setdefault(coeff_bound, [{(512 << 10) | 0}])
    while len(layers) <= max_slots:
        prev = layers[-1]
        nxt = set()
        for key in prev:
            s_enc = key >> 10
            q = key & 1023
            for c in range(-coeff_bound, coeff_bound + 1):
                q2 = q + c * c
                if q2 <= qmax:
                    nxt.add(((s_enc + c) << 10) | q2)
        layers.append(nxt)
    return layers


def ref_raw(n, coeff_bound, constraints=None, raw_funcs=None):
    """Returns (solutions, complete, nodes)."""
    found = []
    feasible_d = []
    for d in range(-coeff_bound - 8, coeff_bound + 9):
        if (1 - 3 * d) ** 2 <= n * (d * d + 1):
            feasible_d.append(d)
    complete = n <= 8 and all(abs(d) <= coeff_bound for d in feasible_d)
    if complete:
        cmax = max((math.isqrt(d * d + 1) for d in feasible_d), default=0)
        complete = cmax <= coeff_bound

    offsets = []
    funcs = []
    for f in constraints or ():
        offsets.append(0)
        funcs.append((f[0],) + tuple(-v for v in f[1:]))
    for off, coeffs in raw_funcs or ():
        offsets.append(off)
        funcs.append(tuple(coeffs))

    order = list(range(1, n + 1))
    if funcs:
        remaining = [set(p for p in range(1, n + 1) if g[p]) for g in funcs]
        placed = []
        placed_set = set()
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
        funcs = [(g[0],) + tuple(g[order[j]] for j in range(n)) for g in funcs]
    sum_sq = []
    for g in funcs:
        tails = [0] * (n + 2)
        for i in range(n, 0, -1):
            tails[i] = tails[i + 1] + g[i] * g[i]
        sum_sq.append(tails)
    active = [[] for _ in range(n + 2)]
    for fi, g in enumerate(funcs):
        for pos in range(1, n + 1):
            if g[pos]:
                active[pos].append((fi, g[pos], sum_sq[fi][pos + 1]))
    partial = [0] * len(funcs)
    nodes = 0

    layers = ref_feasible_states(coeff_bound, n)
    cand_cache = _REF_CANDIDATES.setdefault(coeff_bound, {})

    def rec(i, srem, qrem, prefix):
        nonlocal nodes
        nodes += 1
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
        touched = active[i + 1]
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
    return found, complete, nodes


def ref_enumerate(lat, area=None, area_cap=None, coeff_bound=12, constraints=None):
    """Returns (classes, complete, nodes)."""
    if lat.head != CP2_HEAD:
        lat2, t_mat, t_inv = to_cp2(lat)
        area2 = transport_area(area, t_inv) if area is not None else None
        cons2 = tuple(_mat_vec(t_mat, f) for f in constraints) if constraints else None
        classes, complete, nodes = ref_enumerate(lat2, area2, area_cap, coeff_bound, cons2)
        back = tuple(_mat_vec(t_inv, x) for x in classes)
        return tuple(sorted(back)), complete, nodes
    raw_funcs = []
    if area is not None:
        raw_funcs.append((-1, tuple(area._ints)))
        if area_cap is not None:
            cap_scaled = math.floor(area_cap * area.denominator)
            raw_funcs.append((cap_scaled, tuple(-v for v in area._ints)))
    raw, complete, nodes = ref_raw(lat.rank - 1, coeff_bound, constraints, raw_funcs)
    if area is not None:
        raw = [
            x
            for x in raw
            if _area_scaled(area, x) > 0 and (area_cap is None or _area(area, x) <= area_cap)
        ]
    return tuple(raw), complete, nodes


def ref_log(lat, area, comps, area_cap=None, coeff_bound=12):
    classes, complete, nodes = ref_enumerate(lat, area, area_cap, coeff_bound, comps)
    assert all(_pair(lat, x, c) >= 0 for x in classes for c in comps)
    return classes, complete, nodes


def ref_connecting(lat, area, comps, gi, gj, area_cap=None, coeff_bound=12):
    classes, complete, nodes = ref_log(lat, area, comps, area_cap, coeff_bound)
    kept = tuple(
        x
        for x in classes
        if sum(_pair(lat, x, c) for c in gi) >= 1 and sum(_pair(lat, x, c) for c in gj) >= 1
    )
    return kept, complete, nodes


def ref_gap(lat, area, comps, gi, gj, area_cap=None, coeff_bound=12):
    kept, complete, _nodes = ref_connecting(lat, area, comps, gi, gj, area_cap, coeff_bound)
    if not kept:
        return Fraction(0), complete, None
    best = max(kept, key=lambda x: _area_scaled(area, x))
    return _area(area, best), complete, best


# --- the forms a build is searched in ---------------------------------------------


def lattice_forms(rp):
    """(lattice, area, dense edge classes) of a build: its cp2 form, and its
    ruled-surface form as assigned before conversion when it has one."""
    forms = [(rp.lattice, rp.area, dense_classes(rp.lattice, rp.edge_classes))]
    if rp.terminal == "hirz":
        pc = assign_classes(rp.polygon)
        forms.append((pc.lattice, pc.area, dense_classes(pc.lattice, pc.edge_classes)))
    return forms


def dense_classes(lat, classes):
    return tuple(dense(x, lat.rank) for x in classes)


def searches(rp, lat, area, classes):
    """Components, the largest connector area, and per connector its label and
    the two groups it must meet, in the given form."""
    groups = {r: tuple(classes[i] for i in rp.strings[r].edge_ids) for r in "abc"}
    comps = tuple(x for r in "abc" for x in groups[r])
    cap = max(_area(area, classes[rp.connectors[lab].edge_id]) for lab in CONNECTOR_ENDS)
    ends = [(lab, groups[ri], groups[rj]) for lab, (ri, rj) in CONNECTOR_ENDS.items()]
    return comps, cap, ends


# most presentations of these end on a ruled surface, so both lattice forms are
# searched; n runs from 6 to 10, which the reference covers in a few seconds
DIFF_TRIPLES = ((2, 3, 5), (3, 4, 5), (2, 5, 7), (3, 5, 7), (4, 5, 7), (2, 7, 9))


def test_triple_set_covers_both_forms_and_ranks():
    head_sizes, ranks = set(), set()
    for w in DIFF_TRIPLES:
        for pres in range(1, 7):
            rp = build_resolution(*w, presentation=pres)
            ranks.add(rp.n)
            head_sizes.update(len(lat.head) for lat, _a, _c in lattice_forms(rp))
    assert head_sizes == {1, 2}
    assert min(ranks) <= 6 and max(ranks) >= 9


@pytest.mark.parametrize("w", DIFF_TRIPLES)
def test_public_searches_match_reference(w):
    for pres in range(1, 7):
        rp = build_resolution(*w, presentation=pres)
        for lat, area, classes in lattice_forms(rp):
            comps, cap, ends = searches(rp, lat, area, classes)
            for ac in (None, cap):
                got = enumerate_exceptional(lat, area, ac, constraints=comps)
                assert (got.classes, got.complete) == ref_enumerate(lat, area, ac, 12, comps)[:2]
                got = log_exceptional(lat, area, comps, ac)
                assert (got.classes, got.complete) == ref_log(lat, area, comps, ac)[:2]
                for label, gi, gj in ends:
                    got = connecting_log_exceptional(lat, area, comps, gi, gj, ac)
                    want = ref_connecting(lat, area, comps, gi, gj, ac)
                    assert (got.classes, got.complete) == want[:2], (w, pres, lat.head, label, ac)
                    gap = exceptional_gap(lat, area, comps, gi, gj, ac)
                    assert (gap.value, gap.certified, gap.witness) == ref_gap(
                        lat, area, comps, gi, gj, ac
                    )


@pytest.mark.parametrize("n", range(0, 8))
def test_unconstrained_enumeration_matches_reference(n):
    area = AreaForm.from_scaled((3 * n + 1,) + tuple(range(1, n + 1)), 1)
    for ac in (None, Fraction(n + 1)):
        got = enumerate_exceptional(cp2_lattice(n), area, ac)
        assert (got.classes, got.complete) == ref_enumerate(cp2_lattice(n), area, ac)[:2]
    for lat in (cp2_lattice(n), hirz_lattice(1, n)):
        got = enumerate_exceptional(lat)
        assert (got.classes, got.complete) == ref_enumerate(lat)[:2]


# --- reference: the kernel that tested every condition -----------------------------
#
# A copy of _cp2_exceptional_raw and _slot_order as they were before the
# first failing condition decided a candidate and slots were ordered on bit
# masks: every condition touching a depth was written into the running values
# and tested, then undone, and the slot order kept its supports as sets. The
# new kernel must return the same solutions, complete flag and node count.

_PREV_CANDIDATES: dict[int, dict[int, tuple[tuple[int, int, int, int], ...]]] = {}


def ref_set_slot_order(n, supports):
    supports = [r for r in supports if len(r) < n]
    holders = {}
    for r in supports:
        for p in r:
            holders.setdefault(p, []).append(r)
    order = []
    while supports := [r for r in supports if r]:
        for p in sorted(min(supports, key=len)):
            order.append(p)
            for r in holders[p]:
                r.discard(p)
    placed = set(order)
    order.extend(p for p in range(1, n + 1) if p not in placed)
    return order


def ref_every_condition_raw(n, coeff_bound, conds=()):
    found = []
    starts, complete = homlat._degrees(n, coeff_bound)
    order = ref_set_slot_order(n, [f.keys() - {0} for _off, f in conds])
    at_slot = [[] for _ in range(n + 1)]
    for fi, (_off, f) in enumerate(conds):
        for p, v in f.items():
            if p:
                at_slot[p].append((fi, -v))
    g1s = [0] * len(conds)
    g2s = [0] * len(conds)
    active = [[] for _ in range(n + 2)]
    for j in range(n, 0, -1):
        m = n - j
        for fi, gv in at_slot[order[j - 1]]:
            g1, g2 = g1s[fi], g2s[fi]
            active[j].append((fi, gv, g1, m * g2 - g1 * g1))
            g1s[fi] = g1 + gv
            g2s[fi] = g2 + gv * gv
    heads = [
        (fi, off, f.get(0, 0), g1s[fi], n * g2s[fi] - g1s[fi] * g1s[fi])
        for fi, (off, f) in enumerate(conds)
    ][::-1]
    partial = [0] * len(conds)
    nodes = 0
    layers = homlat._feasible_states(coeff_bound, n)
    cand_cache = _PREV_CANDIDATES.setdefault(coeff_bound, {})

    def rec(i, srem, qrem, prefix):
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
        touched = active[i + 1]
        for c, s2, q2, w in cands:
            ok = True
            for fi, gv, g1, disc in touched:
                value = partial[fi] + gv * c
                partial[fi] = value
                if m:
                    lin = m * value + g1 * s2
                    if lin < 0 and lin * lin > disc * w:
                        ok = False
                elif value < 0:
                    ok = False
            if ok:
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
    pos = [0] * (n + 1)
    for j, p in enumerate(order, 1):
        pos[p] = j
    return sorted(tuple(x[j] for j in pos) for x in found), complete, nodes


# --- random functionals -------------------------------------------------------------


@st.composite
def functionals(draw):
    """n, coefficient bound and one to three (offset, g) pairs on (d, c_1..c_n).

    Supports are drawn as a mask over the slots, so full supports (the last
    slot then closes a functional: the m = 0 case) and supports that end
    before the last slot (the end-of-support case) both occur often.
    """
    n = draw(st.integers(0, 7))
    bound = draw(st.sampled_from((1, 2, 3, 12)))
    count = draw(st.integers(1, 3))
    funcs = []
    for _ in range(count):
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        coeffs = [draw(st.integers(-3, 3))]
        coeffs += [draw(st.integers(-3, 3).filter(bool)) if on else 0 for on in mask]
        funcs.append((draw(st.integers(-6, 6)), tuple(coeffs)))
    return n, bound, funcs


@settings(max_examples=300, deadline=None)
@given(functionals())
# the second functional is decided by the last slot alone (m = 0): the first
# closes slot 1, and only the m = 0 test drops c_2 > 0
@example((2, 12, [(0, (0, 2, 0)), (0, (0, 0, -1))]))
# completions reaching exactly 0 at the maximum of the bound must be kept, at
# an exceptional slot and at the d level
@example((3, 12, [(-3, (0, -2, -1, 0))]))
@example((2, 12, [(0, (-1, 0, -2))]))
# a support ending before the last slot, next to one that reaches it
@example((5, 12, [(-1, (0, 1, 0, 0, 0, 0)), (0, (1, 0, -1, -1, -1, -1))]))
def test_raw_search_matches_reference(case):
    n, bound, funcs = case
    # the search takes each condition as the sparse class f with f.x = g.x in
    # the cp2 form: f_0 = g_0 and f_i = -g_i
    conds = [(off, sparse((g[0],) + tuple(-v for v in g[1:]))) for off, g in funcs]
    found, complete, nodes = _cp2_exceptional_raw(n, bound, conds)
    ref_found, ref_complete, _ref_nodes = ref_raw(n, bound, None, funcs)
    assert found == ref_found
    assert complete == ref_complete
    # the same nodes as the kernel that tested every condition
    assert (found, complete, nodes) == ref_every_condition_raw(n, bound, conds)
    for x in found:
        assert all(off + sum(g * v for g, v in zip(gs, x)) >= 0 for off, gs in funcs)


@st.composite
def slot_supports(draw):
    """n and up to six exceptional supports over the slots 1..n. Empty
    supports, supports holding all n slots and supports nested in an earlier
    one are drawn on purpose; ties in size come often at these sizes."""
    n = draw(st.integers(0, 10))
    every = set(range(1, n + 1))
    supports = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("any", "empty", "full", "nested")))
        if kind == "empty":
            supports.append(set())
        elif kind == "full":
            supports.append(set(every))
        elif kind == "nested" and supports:
            outer = sorted(draw(st.sampled_from(supports)))
            supports.append(set(draw(st.lists(st.sampled_from(outer), unique=True))) if outer else set())
        else:
            supports.append(draw(st.sets(st.sampled_from(sorted(every)))) if n else set())
    return n, supports


@settings(max_examples=300, deadline=None)
@given(slot_supports())
@example((0, [set(), set()]))
# an empty support and one holding every slot are both left out
@example((4, [set(), {1, 2, 3, 4}, {2, 3}]))
# ties: the first listed goes first, {4, 5} then {2, 3}; {1} is all {1, 2} has left
@example((5, [{4, 5}, {2, 3}, {1, 2}]))
# nested supports: the innermost is placed first
@example((6, [{1, 2, 3, 4}, {2, 3}, {3}]))
def test_slot_order_on_masks_matches_sets(case):
    n, supports = case
    masks = [sum(1 << p for p in r) for r in supports]
    want = ref_set_slot_order(n, [set(r) for r in supports])
    assert homlat._slot_order(n, masks) == want
    assert sorted(want) == list(range(1, n + 1))


# --- post-search checks and input checks ---------------------------------------------


def test_post_search_checks_raise(monkeypatch):
    lat = cp2_lattice(2)
    area = AreaForm.from_scaled((3, 1, 1), 1)
    real = homlat.enumerate_exceptional

    def unconstrained(lat, area, area_cap, coeff_bound, constraints=None, meets=None):
        return real(lat, area, area_cap, coeff_bound)

    monkeypatch.setattr(homlat, "enumerate_exceptional", unconstrained)
    # e1 and e2 each pair -1 with the group holding themselves
    with pytest.raises(LemmaViolated):
        connecting_log_exceptional(lat, area, [], [(0, 1, 0)], [(0, 0, 1)])
    # H - e1 - e2 pairs -1 with itself
    with pytest.raises(LemmaViolated):
        log_exceptional(lat, area, [(1, -1, -1)])


def test_cap_without_area_is_rejected():
    with pytest.raises(UserInputError):
        enumerate_exceptional(cp2_lattice(3), area_cap=Fraction(1))
    with pytest.raises(UserInputError):
        enumerate_exceptional(hirz_lattice(1, 3), None, Fraction(1))
    with pytest.raises(UserInputError):
        log_exceptional(cp2_lattice(3), None, [], area_cap=Fraction(1))


def test_classes_of_another_length_are_rank_mismatches():
    """A short group, a short component or a long class raises RankMismatch at
    the entry of the connecting search and of the gap, as a constraint of
    the wrong length does in enumerate_exceptional."""
    lat = cp2_lattice(3)
    area = AreaForm.from_scaled((8, 2, 3, 1), 2)
    e1, e2, _e3, l12 = CP2_3[:4]
    cases = (
        ([l12], [(0, 1, 0)], [e2]),  # a short group class
        ([(1, -1, -1)], [e1], [e2]),  # a short component
        ([l12], [e1], [e2, (0, 0, 0, 1, 0)]),  # a long group class
        ([l12, (1, 0, 0, 0, 0)], [e1], [e2]),  # a long component
    )
    for comps, gi, gj in cases:
        with pytest.raises(RankMismatch, match="^class of length"):
            connecting_log_exceptional(lat, area, comps, gi, gj)
        with pytest.raises(RankMismatch, match="^class of length"):
            exceptional_gap(lat, area, comps, gi, gj)
    # the same call with every class in rank searches
    assert connecting_log_exceptional(lat, area, [l12], [e1], [e2]).complete
    with pytest.raises(RankMismatch):
        enumerate_exceptional(lat, area, constraints=[(1, -1, -1)])


@pytest.mark.parametrize("bound", (True, False, 2.0, 12.0, "12"))
def test_bounds_that_are_not_ints_are_user_errors(bound):
    """A bool passed as 0 or 1 and a float or string that would fail later
    are rejected before any search, at every entry."""
    lat = cp2_lattice(3)
    area = AreaForm.from_scaled((8, 2, 3, 1), 2)
    e1, e2 = CP2_3[:2]
    with pytest.raises(UserInputError, match="^coeff_bound must be an int"):
        enumerate_exceptional(lat, area, coeff_bound=bound)
    with pytest.raises(UserInputError, match="^coeff_bound must be an int"):
        exceptional_gap(lat, area, [], [e1], [e2], coeff_bound=bound)


def test_gap_without_area_is_rejected_before_any_search(monkeypatch):
    """connecting_log_exceptional accepts area=None, but a gap is an area:
    exceptional_gap rejects it before the search runs."""

    def no_search(*args, **kwargs):
        raise AssertionError("searched without an area form")

    monkeypatch.setattr(homlat, "connecting_log_exceptional", no_search)
    for lat in (cp2_lattice(3), hirz_lattice(1, 3)):
        with pytest.raises(UserInputError, match="^exceptional_gap needs an area form$"):
            exceptional_gap(lat, None, [], [(0, 1, 0, 0)], [(0, 0, 1, 0)])


# --- node counts ------------------------------------------------------------------------


def _string_length_sum(w):
    t = weight_triple(*w)
    return sum(len(hj_expand(x, r)) for x, r in zip(w, (t.a_b, t.b_c, t.c_a)))


def mid_triples():
    """Criterion 5's spot checks above rank 9: the three lexicographically
    first triples of coprime_triples(60) for every n from 9 through 14, and
    (11, 13, 14)."""
    strata = {n: [] for n in range(9, 15)}
    for w in coprime_triples(60):
        n = _string_length_sum(w)
        if n in strata and len(strata[n]) < 3:
            strata[n].append(w)
    return [w for n in range(9, 15) for w in strata[n]] + [(11, 13, 14)]


def test_node_count_is_deterministic(monkeypatch):
    rp = build_resolution(11, 13, 14)
    comps, cap, ends = searches(rp, rp.lattice, rp.area, dense_classes(rp.lattice, rp.edge_classes))

    def counts():
        return [
            connecting_log_exceptional(rp.lattice, rp.area, comps, gi, gj, ac).nodes
            for _label, gi, gj in ends
            for ac in (None, cap)
        ]

    warm = counts()
    monkeypatch.setattr(homlat, "_CANDIDATE_CACHE", {})
    monkeypatch.setattr(homlat, "_FEASIBLE_CACHE", {})
    assert counts() == warm == counts()
    assert all(warm)
    search = enumerate_exceptional(cp2_lattice(3))
    assert search == ExcSearch(search.classes, search.complete, search.nodes + 1)


def test_fewer_nodes_than_reference_on_mid_triples():
    mid = mid_triples()
    assert len(mid) == 19
    for w in mid:
        rp = build_resolution(*w)
        comps, cap, ends = searches(rp, rp.lattice, rp.area, dense_classes(rp.lattice, rp.edge_classes))
        # the reference needs up to 23 s per uncapped search above n = 11
        caps = (None, cap) if rp.n <= 11 or w == (11, 13, 14) else (cap,)
        for ac in caps:
            for label, gi, gj in ends:
                got = connecting_log_exceptional(rp.lattice, rp.area, comps, gi, gj, ac)
                _kept, _complete, ref_nodes = ref_connecting(
                    rp.lattice, rp.area, comps, gi, gj, ac
                )
                assert got.nodes < ref_nodes, (w, label, ac, got.nodes, ref_nodes)


# --- the connector bound: against the search without it ---------------------------
#
# connecting_log_exceptional hands the search one more meets class, D = K +
# sum group_i + sum group_j + sum R (R: the components left after taking away
# one copy of each group class). The reference below is the search without
# it: enumerate_exceptional with the components as constraints and the two
# group sums as meets, the call connecting_log_exceptional made before D.


def group_sums(gi, gj):
    return tuple(tuple(map(sum, zip(*g))) for g in (gi, gj))


def connector_bound(lat, comps, gi, gj):
    """D, computed here from a Counter difference of the dense classes."""
    rest = Counter(comps) - Counter(gi) - Counter(gj)
    return class_sum([lat.canonical, *map(sparse, (*gi, *gj, *rest.elements()))])


def a12_cap(area):
    """A_12, the area below which coefficient bound 12 holds for every
    exceptional class, on the area form's grid. With W the area class (W.x =
    area of x) and N(x) = 2 (W.x)^2 / W^2 - x.x, |x.y| <= sqrt(N(x) N(y)) for
    all x, y. An exceptional class E of area A has N(E) = 2 A^2 / W^2 + 1,
    and its coefficients are +-E.t for the basis vectors t, so they stay
    within 12 while N(E) N(t) < 13^2 for every t."""
    ints, den = area._ints, area.denominator
    w2 = ints[0] ** 2 - sum(v * v for v in ints[1:])  # W^2 in units of 1/den^2
    # N(t) = 2 area(t)^2 / W^2 - t.t, with H.H = 1 and e_i.e_i = -1
    widest = max(2 * v * v / w2 - (1 if t == 0 else -1) for t, v in enumerate(ints))
    return Fraction(math.floor(math.sqrt(w2 * (169 / widest - 1) / 2)), den)


def rank_searches(n):
    """Per rank-n triple of coprime_triples(60): the build, its dense
    components and, per connector, the label and the two groups it joins."""
    for w in coprime_triples(60):
        if _string_length_sum(w) != n:
            continue
        rp = build_resolution(*w)
        groups = {r: rp.string_classes(r) for r in "abc"}
        comps = tuple(x for r in "abc" for x in groups[r])
        yield w, rp, comps, [(lab, groups[ri], groups[rj]) for lab, (ri, rj) in CONNECTOR_ENDS.items()]


@pytest.mark.parametrize("n", range(6, 11))
def test_connector_bound_matches_search_without_it(n):
    """Every connector of every rank-n triple, uncapped and capped at A_12:
    the same classes and complete flag as the search without D, never more
    nodes, and below rank 9 the same as the filtering reference."""
    fewer = 0
    for w, rp, comps, ends in rank_searches(n):
        lat, area = rp.lattice, rp.area
        for ac in (None, a12_cap(area)):
            for label, gi, gj in ends:
                want = enumerate_exceptional(lat, area, ac, constraints=comps, meets=group_sums(gi, gj))
                got = connecting_log_exceptional(lat, area, comps, gi, gj, ac)
                assert (got.classes, got.complete) == (want.classes, want.complete), (w, label, ac)
                assert got.nodes <= want.nodes, (w, label, ac, got.nodes, want.nodes)
                fewer += got.nodes < want.nodes
                if n <= 8:
                    assert (got.classes, got.complete) == ref_connecting(lat, area, comps, gi, gj, ac)[:2]
    assert fewer


@pytest.mark.parametrize("n", range(6, 11))
def test_connector_bound_is_implied(n):
    """Every returned class pairs at least 1 with D, and D is minus the sum of
    the three connectors, so E.(N_a + N_b + N_c) <= -1: the components' and
    groups' re-checks, with E.K = -1, imply the bound, and it is not
    re-checked."""
    checked = 0
    for w, rp, comps, ends in rank_searches(n):
        lat, area = rp.lattice, rp.area
        connectors = class_sum(sparse(rp.connector_class(lab)) for lab in CONNECTOR_ENDS)
        for ac in (None, a12_cap(area)):
            for label, gi, gj in ends:
                bound = connector_bound(lat, comps, gi, gj)
                assert bound == vneg(connectors), (w, label)
                for x in connecting_log_exceptional(lat, area, comps, gi, gj, ac).classes:
                    assert lat.pair(sparse(x), bound) >= 1, (w, label, x)
                    assert lat.pair(sparse(x), connectors) <= -1, (w, label, x)
                    checked += 1
    assert checked


@pytest.mark.parametrize("n", range(6, 11))
def test_kernel_matches_the_every_condition_kernel_on_connectors(n, monkeypatch):
    """Every connector of every rank-n triple, uncapped and at A_12: each
    kernel call returns the solutions, complete flag and node count of the
    kernel that tested every condition touching a depth."""
    real = homlat._cp2_exceptional_raw
    calls = 0

    def both(n_slots, coeff_bound, conds=()):
        nonlocal calls
        got = real(n_slots, coeff_bound, conds)
        assert got == ref_every_condition_raw(n_slots, coeff_bound, conds), conds
        calls += 1
        return got

    monkeypatch.setattr(homlat, "_cp2_exceptional_raw", both)
    for _w, rp, comps, ends in rank_searches(n):
        for ac in (None, a12_cap(rp.area)):
            for _label, gi, gj in ends:
                connecting_log_exceptional(rp.lattice, rp.area, comps, gi, gj, ac)
    assert calls


# classes of the blown-up plane at three points: e_1, e_2, e_3, the lines
# through two of the points, and H
CP2_3 = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1), (1, 0, 0, 0))


def small_cases():
    """Components and groups in cp2_lattice(3) that need not be boundary
    strings: groups outside the components, shared between the two groups,
    or repeated, and components that no group holds."""
    e1, e2, e3, l12, l13, l23, h = CP2_3
    comp_sets = ((), (l12,), (l12, e3), (e1, e2, e3), (l12, l13, l23), (h, e1))
    group_sets = ((e1,), (e2,), (e1, e2), (l12,), (e3, l12), (e1, e1))
    return [(c, gi, gj) for c, gi, gj in product(comp_sets, group_sets, group_sets)]


def test_connector_bound_outside_the_boundary():
    lat = cp2_lattice(3)
    area = AreaForm.from_scaled((8, 2, 3, 1), 2)
    returned = 0
    for comps, gi, gj in small_cases():
        bound = connector_bound(lat, comps, gi, gj)
        for ac in (None, Fraction(2)):
            want = enumerate_exceptional(lat, area, ac, constraints=comps, meets=group_sums(gi, gj))
            got = connecting_log_exceptional(lat, area, comps, gi, gj, ac)
            assert (got.classes, got.complete) == (want.classes, want.complete), (comps, gi, gj, ac)
            assert (got.classes, got.complete) == ref_connecting(lat, area, comps, gi, gj, ac)[:2]
            assert got.nodes <= want.nodes, (comps, gi, gj, ac)
            for x in got.classes:
                assert lat.pair(sparse(x), bound) >= 1, (comps, gi, gj, x)
                returned += 1
    assert returned


# --- the area filter the search replaced ----------------------------------------


def ref_area_filter(area, area_cap, classes):
    """The filter enumerate_exceptional ran after the search: drop classes of
    area <= 0, and above area_cap when given."""
    kept = []
    for x in classes:
        a = dot(area._ints, x)
        if a <= 0:
            continue
        if area_cap is not None and Fraction(a, area.denominator) > area_cap:
            continue
        kept.append(x)
    return tuple(kept)


@pytest.mark.parametrize("n", range(6, 10))
def test_area_conditions_leave_the_filter_nothing_to_drop(n):
    """The search's conditions (-1, W) and (floor(cap den), -W) force 0 <
    area <= cap, so the old filter keeps every class: on every rank-n
    triple, uncapped and at caps A_12, 3 and 1, for the log search and each
    connector's connecting search. The unconstrained search is checked too,
    except uncapped and at A_12 on rank 9, where it returns 3.1 and 0.66
    million classes (15 s and 4 s)."""
    kept = 0
    for w, rp, comps, ends in rank_searches(n):
        lat, area = rp.lattice, rp.area
        caps = ((None, n <= 8), (a12_cap(area), n <= 8), (Fraction(3), True), (Fraction(1), True))
        for ac, unconstrained in caps:
            found = [log_exceptional(lat, area, comps, ac)]
            found += [connecting_log_exceptional(lat, area, comps, gi, gj, ac) for _l, gi, gj in ends]
            if unconstrained:
                found.append(enumerate_exceptional(lat, area, ac))
            for search in found:
                assert ref_area_filter(area, ac, search.classes) == search.classes, (w, ac)
                kept += len(search.classes)
    assert kept
