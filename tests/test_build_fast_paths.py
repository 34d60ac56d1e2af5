"""Differential tests: the fast paths of a build against the paths they replaced.

- integer chop depths against the Fraction depths of the earlier
  default_epsilons, and the chain a chop carries from the first of them
  against the division formula over all of them, on every corner a build
  chops;
- the sparse gram pass against pairwise Lattice.pair on ledgers in both forms;
- the per-k cached F_k -> CP^2 blocks against a fresh derivation per call;
- mat_vec sharing a class it leaves unchanged;
- the integer string values of _abc_type against the Fraction values;
- fiber blowups that validate only the classes they make, while a
  DivisorConfig built from outside still validates every class;
- the report's resolved chain squares against the lattice squares;
- the integer presentation triangle against the Fraction path of polygon();
- the closed-form ruled-surface K.x against Lattice.pair with the canonical
  class;
- the report's class lists (dense_list) against the dense tuples.

The reference functions are copies of the earlier implementation.
"""

import importlib
import math
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wpp.homlat as homlat
from wpp.arith import eval_neg_cf, hj_expand, weight_triple
from wpp.errors import InvalidFraction, RankMismatch, WppError
from wpp.homlat import (
    _block_mul,
    Lattice,
    cp2_lattice,
    dense,
    dense_list,
    generic_lattice,
    hirz_lattice,
    mat_vec,
    to_cp2,
    unit,
)
from wpp.polygon import _cross_sum, assign_classes, corner_type, polygon, presentation
from wpp.report import _chain_selfints
from wpp.resolution import (
    ROLE_RESIDUE,
    _abc_type,
    _string_values,
    build_resolution,
)
from wpp.rulings import ruling, ruling_resolution
from wpp.scan import coprime_triples
from wpp.strings import (
    Component,
    DivisorConfig,
    chain_config,
    delta_sequence,
    toric_blowup,
)

SCHEDULES = (None, (Fraction(1, 3), Fraction(1, 5)))
# the module, not the function wpp.polygon that the package re-exports
polygon_mod = importlib.import_module("wpp.polygon")
resolution_mod = importlib.import_module("wpp.resolution")


def builds(max_c, schedule=None):
    for t in coprime_triples(max_c):
        for pres in range(1, 7):
            yield t, pres, build_resolution(*t, presentation=pres, schedule=schedule)


# --- chop depths ------------------------------------------------------------------


def ref_default_epsilons(p, i, k, schedule=None):
    """The Fraction depths: a quarter of the shorter adjacent edge, then thirds."""
    init_ratio, ratio = schedule if schedule is not None else (Fraction(1, 4), Fraction(1, 3))
    e = Fraction(min(p.length_scaled(i - 1), p.length_scaled(i)), p.den) * init_ratio
    out = []
    for _ in range(k):
        out.append(e)
        e = e * ratio
    return out


def ref_chop_depths(p, i, k, schedule=None):
    """The deleted polygon._chop_depths: the default chop depths at vertex i
    as (num, den) pairs in lowest terms, the first the initial ratio (1/4 by
    default) of the shorter adjacent edge, each next one the shrink ratio
    (1/3) of the one before. chop_corner reads only the first and carries
    the rest along its chain."""
    polygon_mod.check_schedule(schedule)
    (a, b), (c, d) = polygon_mod._schedule_ratios(schedule)
    num = min(p.length_scaled(i - 1), p.length_scaled(i)) * a
    den = p.den * b
    g = math.gcd(num, den)
    num, den = num // g, den // g
    out = []
    for _ in range(k):
        out.append((num, den))
        gn, gd = math.gcd(num, d), math.gcd(c, den)
        num, den = num // gn * (c // gd), den // gd * (d // gn)
    return out


def ref_fraction_depths(p, i, k, schedule=None):
    """The Fractions of ref_chop_depths, as the deleted
    polygon.default_epsilons gave them."""
    return [Fraction(num, den) for num, den in ref_chop_depths(p, i, k, schedule)]


def spy_chops(monkeypatch):
    """Record (p, i, u_side, epsilons, schedule, result) for every chop of
    build_resolution until monkeypatch.undo."""
    calls = []
    real = resolution_mod.chop_corner

    def spy(p, i, u_side, epsilons=None, schedule=None):
        res = real(p, i, u_side, epsilons=epsilons, schedule=schedule)
        calls.append((p, i % p.n, u_side, epsilons, schedule, res))
        return res

    monkeypatch.setattr(resolution_mod, "chop_corner", spy)
    return calls


def chop_chain(p, i, u_side, res):
    """The chain C_0..C_k of a chop at vertex i, u side first, as Fraction
    points."""
    chain = list(res.polygon.vertices[i:i + len(res.entries) + 1])
    return chain if u_side == "prev" else chain[::-1]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=("default", "third-fifth"))
def test_integer_depths_match_fraction_depths(schedule, monkeypatch):
    """Every corner chopped by the builds with c <= 30: ref_chop_depths gives
    the Fraction depths in lowest terms; the chop cuts the first of them
    along the u side, and the chain it carries from that pair holds the
    vertices of the division formula over all k pairs."""
    calls = spy_chops(monkeypatch)
    for _ in builds(30, schedule):
        pass
    monkeypatch.undo()
    assert len(calls) == 3 * 6 * len(coprime_triples(30))
    for p, i, u_side, epsilons, sched, res in calls:
        assert (epsilons, sched) == (None, schedule)
        k = len(res.entries)
        want = ref_default_epsilons(p, i, k, sched)
        depths = ref_chop_depths(p, i, k, sched)
        assert depths == [(e.numerator, e.denominator) for e in want]
        assert ref_fraction_depths(p, i, k, sched) == want
        chain = chop_chain(p, i, u_side, res)
        (ux, uy), _ = polygon_mod._corner_dirs(p, i, u_side)
        vx, vy = p.vertices[i]
        assert chain[0] == (vx + want[0] * ux, vy + want[0] * uy)
        assert chain == ref_division_chain(p, i, u_side, depths), (p, i, u_side)


def ref_division_chain(p, i, u_side, depths):
    """The chain C_0..C_k that chop_corner builds at vertex i, as Fraction
    points, by the division formula it replaced: over den, the least common
    multiple of p.den and every step denominator, chop j moves ue_j = num_j
    (den // eden_j) along u and wf_j = sn_j (den // sd_j) along w, sn_j /
    sd_j being eps_j / q_j in lowest terms."""
    u, w = polygon_mod._corner_dirs(p, i, u_side)
    r, q = corner_type(p, i, u_side)
    entries = hj_expand(r, q)
    dirs = [(-u[0], -u[1]), ((w[0] - q * u[0]) // r, (w[1] - q * u[1]) // r)]
    for b in entries[:-1]:
        dirs.append((b * dirs[-1][0] - dirs[-2][0], b * dirs[-1][1] - dirs[-2][1]))
    qs, rj, qj = [], r, q
    for b in entries:
        qs.append(qj)
        rj, qj = qj, b * qj - rj
    steps = []
    for (num, eden), qj in zip(depths, qs, strict=True):
        g = math.gcd(num, qj)
        steps.append((num // g, eden * (qj // g)))
    den = math.lcm(p.den, *(sd for _, sd in steps))
    vx, vy = (c * (den // p.den) for c in p.ipts[i])
    chain = []
    for d, (num, eden), (sn, sd) in zip(dirs, depths, steps):
        ue, wf = num * (den // eden), sn * (den // sd)
        chain.append((vx - ue * d[0], vy - ue * d[1]))
        vx, vy = vx + wf * w[0], vy + wf * w[1]
    chain.append((vx, vy))
    return [(Fraction(x, den), Fraction(y, den)) for x, y in chain]


def explicit_epsilons_579():
    """Per-corner depths with unrelated denominators for (5, 7, 9), those of
    test_explicit_epsilons_through_build_resolution."""
    w = weight_triple(5, 7, 9)
    residues = {"A": (w.a, w.a_b), "B": (w.b, w.b_c), "C": (w.c, w.c_a)}
    return {
        lab: [Fraction(1, 7 + 2 * j + ord(lab)) / (j + 1) for j in range(len(hj_expand(*wr)))]
        for lab, wr in residues.items()
    }


@pytest.mark.parametrize(
    "schedule",
    (None, (Fraction(2, 5), Fraction(3, 7)), (Fraction(1, 2), Fraction(5, 6)), "explicit"),
    ids=("default", "two-fifths-three-sevenths", "half-five-sixths", "explicit"),
)
def test_chop_chain_matches_division_formula(schedule, monkeypatch):
    """Every chop of the builds of coprime_triples(16) at presentations 1 and
    4 under three schedules, and of (5, 7, 9) at every presentation under
    explicit epsilons: the chain chop_corner carries from step to step holds
    the vertices of the division formula, in order."""
    calls = spy_chops(monkeypatch)
    if schedule == "explicit":
        for pres in range(1, 7):
            build_resolution(5, 7, 9, presentation=pres, epsilons=explicit_epsilons_579())
    else:
        for t in coprime_triples(16):
            for pres in (1, 4):
                build_resolution(*t, presentation=pres, schedule=schedule)
    monkeypatch.undo()
    assert calls
    for p, i, u_side, epsilons, sched, res in calls:
        k = len(res.entries)
        if epsilons is None:
            depths = ref_chop_depths(p, i, k, sched)
        else:
            depths = [(e.numerator, e.denominator) for e in map(Fraction, epsilons)]
        assert chop_chain(p, i, u_side, res) == ref_division_chain(p, i, u_side, depths), (
            p, i, u_side)


# --- the sparse gram ----------------------------------------------------------------


def full_gram(lat, cls):
    m = len(cls)
    return {
        (i, j): g for i in range(m) for j in range(i, m) if (g := lat.pair(cls[i], cls[j]))
    }


def test_sparse_gram_matches_pairwise_on_ledgers():
    """The ledger of every build with c <= 20, in its own form (cp2 or a
    ruled surface) and converted to cp2."""
    head_sizes = set()
    for _t, _pres, rp in builds(20):
        pc = assign_classes(rp.polygon)
        for lat, cls in ((pc.lattice, pc.edge_classes), (rp.lattice, rp.edge_classes)):
            head_sizes.add(len(lat.head))
            assert lat.sparse_gram(cls) == full_gram(lat, cls)
    assert head_sizes == {1, 2}


@pytest.mark.parametrize("k", range(5))
def test_sparse_gram_on_dense_classes(k):
    """Classes touching every slot, so every bucket holds every class and
    slots 0 and 1 meet on the diagonal too."""
    for lat in (hirz_lattice(k, 3), cp2_lattice(4)):
        cls = [{s: (3 * i + 2 * s + k) % 5 - 2 for s in range(lat.rank)} for i in range(6)]
        cls = [{s: v for s, v in x.items() if v} for x in cls]
        assert lat.sparse_gram(cls) == full_gram(lat, cls)


def test_sparse_gram_on_an_abstract_chain_head():
    """A whole gram as the head: every off-diagonal head entry links two
    slots, and a zero diagonal entry adds nothing."""
    lat = generic_lattice(((-2, 1, 0), (1, 0, 3), (0, 3, -1))).blowup(2)
    cls = [{0: 1}, {1: 2, 3: -1}, {0: -1, 2: 1, 4: 2}, {1: 1, 2: 1}, {}]
    assert lat.sparse_gram(cls) == full_gram(lat, cls)


# --- the F_k -> CP^2 blocks ---------------------------------------------------------


def fresh_to_cp2(lat):
    """The conversion derived and certified from scratch on every call."""
    r = lat.rank
    b = min(3, r)
    k = -lat.head[1][1]
    fl = k // 2
    shear = ((1, -fl, 0), (0, 1, 0), (0, 0, 1))
    unshear = ((1, fl, 0), (0, 1, 0), (0, 0, 1))
    if k % 2 == 1:
        m1 = ((1, 0, 0), (-1, 1, 0), (0, 0, 1))
        m1_inv = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
    else:
        if r < 3:
            raise WppError("even-k conversion needs an exceptional basis vector")
        m1 = ((1, 1, 1), (0, -1, -1), (-1, 0, -1))
        m1_inv = ((1, 1, 0), (1, 0, 1), (-1, -1, -1))

    def lead(m):
        return tuple(row[:b] for row in m[:b])

    t = _block_mul(lead(m1), lead(shear))
    t_inv = _block_mul(lead(unshear), lead(m1_inv))
    assert _block_mul(t, t_inv) == tuple(unit(b, i) for i in range(b))
    out = cp2_lattice(r - 1)
    heads = [{i: 1} for i in range(b)]
    for i in range(b):
        for j in range(i, b):
            assert out.pair(mat_vec(t, heads[i]), mat_vec(t, heads[j])) == lat.pair(heads[i], heads[j])
    assert mat_vec(t, lat.canonical) == out.canonical
    return out, t, t_inv


@pytest.mark.parametrize("k", range(7))
def test_cached_blocks_match_a_fresh_derivation(k, monkeypatch):
    """An empty cache, then a filled one: both give the fresh conversion."""
    monkeypatch.setattr(homlat, "_BLOCK_CACHE", {})
    for _round in range(2):
        for extra in range(6):
            lat = hirz_lattice(k, extra)
            if k % 2 == 0 and extra == 0:
                with pytest.raises(WppError):
                    fresh_to_cp2(lat)
                with pytest.raises(WppError):
                    to_cp2(lat)
                continue
            assert to_cp2(lat) == fresh_to_cp2(lat)
    assert {key[0] for key in homlat._BLOCK_CACHE} == {k}


def test_mat_vec_shares_an_untouched_class():
    blk = ((1, 2, 0), (0, 1, 0), (1, 1, 1))
    x = {3: 1, 7: -2}
    assert mat_vec(blk, x) is x
    y = {1: 1, 7: -2}
    got = mat_vec(blk, y)
    assert got == {0: 2, 1: 1, 2: 1, 7: -2}
    assert y == {1: 1, 7: -2}


# --- string values over the integers ------------------------------------------------


def ref_values(selfints):
    """The string's values read both ways, as the OrientedString type had them."""
    bs = tuple(-s for s in selfints)
    return {eval_neg_cf(bs), eval_neg_cf(bs[::-1])}


def ref_abc_type(rp):
    """The Fraction version: string values against Fraction targets."""
    w = rp.weights
    targets = [Fraction(getattr(w, role), getattr(w, ROLE_RESIDUE[role])) for role in "abc"]
    values = [ref_values(sd.selfints) for sd in rp.strings.values()]
    if len(values) != len(targets):
        return False
    return any(
        all(targets[i] in values[p[i]] for i in range(3)) for p in permutations(range(3))
    )


def abc_type(rp):
    return _abc_type(rp, [delta_sequence(sd.selfints) for sd in rp.strings.values()])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(-6, 3), min_size=1, max_size=7))
@example([-2, -3, -5])
@example([-1])
@example([0])
@example([-1, -1])  # zero tail determinant: neither version has a value
@example([1, -3, 2, -1])
@example([-2, 1, -2])  # not negative definite, every tail nonzero
def test_string_values_match_fractions(selfints):
    s = tuple(selfints)
    try:
        want = {(v.numerator, v.denominator) for v in ref_values(s)}
    except InvalidFraction:
        with pytest.raises(InvalidFraction):
            _string_values(s, delta_sequence(s))
        return
    assert _string_values(s, delta_sequence(s)) == want


def fake_pair(weights, strings):
    residues = ("a_b", "b_c", "c_a")
    w = SimpleNamespace(**dict(zip("abc", (p for p, _q in weights))),
                        **dict(zip(residues, (q for _p, q in weights))))
    return SimpleNamespace(
        weights=w,
        strings={role: SimpleNamespace(selfints=tuple(s)) for role, s in zip("abc", strings)},
    )


coprime_pair = st.tuples(st.integers(2, 30), st.integers(1, 29)).filter(
    lambda pq: pq[1] < pq[0] and Fraction(*pq).denominator == pq[1]
)
entries = st.lists(st.integers(-6, 2), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(coprime_pair, min_size=3, max_size=3),
    st.lists(st.one_of(entries, st.none()), min_size=3, max_size=3),
    st.permutations(range(3)),
    st.lists(st.booleans(), min_size=3, max_size=3),
)
# every target realised, in a permuted order and partly reversed: True
@example([(5, 2), (7, 3), (11, 4)], [None, None, None], [2, 0, 1], [True, False, True])
# one string replaced: False
@example([(5, 2), (7, 3), (11, 4)], [None, [-2, -2], None], [2, 0, 1], [True, False, True])
def test_abc_type_matches_fractions(weights, strings, order, flips):
    """Strings are random, or the expansion of a permuted target, maybe
    reversed, so both answers occur."""
    made = []
    for i, s in enumerate(strings):
        if s is None:
            p, q = weights[order[i]]
            s = [-b for b in hj_expand(p, q)]
            if flips[i]:
                s.reverse()
        made.append(s)
    rp = fake_pair(weights, made)
    try:
        want = ref_abc_type(rp)
    except InvalidFraction:
        with pytest.raises(InvalidFraction):
            abc_type(rp)
        return
    assert abc_type(rp) == want


def test_abc_type_matches_fractions_on_builds():
    for t, pres, rp in builds(20):
        assert abc_type(rp) == ref_abc_type(rp) is True, (t, pres)


# --- validation of fiber blowups ------------------------------------------------------


def test_blowups_validate_what_they_make():
    lat = cp2_lattice(3)
    cfg = chain_config(lat, [{1: 1, 2: -1}, {2: 1}])
    res = toric_blowup(cfg, 0, 1)
    grown = res.config.lattice
    assert grown.rank == 5
    # the same config, every class validated
    assert DivisorConfig(grown, res.config.components) == res.config
    # built from outside, an out-of-rank class still raises
    with pytest.raises(RankMismatch):
        DivisorConfig(grown, res.config.components + (Component("x", {5: 1}),))
    with pytest.raises(RankMismatch):
        DivisorConfig(lat, res.config.components)
    # the grown path checks the classes handed to it as made or changed
    with pytest.raises(RankMismatch):
        DivisorConfig._grown(grown, res.config.components, (Component("x", {-1: 1}),))


# --- resolved chain squares ---------------------------------------------------------


def test_chain_selfints_match_lattice_squares():
    """Every unicuspidal ruling of the builds with c <= 30."""
    seen = 0
    for t, pres, rp in builds(30):
        rd = ruling(rp, "c")
        if rd.case != "Unicuspidal":
            continue
        rr = ruling_resolution(rd)
        assert _chain_selfints(rr) == list(rr.config.selfints()), (t, pres)
        seen += 1
    assert seen


# --- presentation triangles -----------------------------------------------------------


def ref_presentation(w, index):
    """The six tables built in full and the triangle sent through polygon()."""
    a, b, c = w.a, w.b, w.c
    table = [
        {"A": (0, 0), "B": (0, c), "C": (a * b, w.a_b * b)},
        {"A": (0, 0), "C": (0, b), "B": (a * c, w.a_c * c)},
        {"B": (0, 0), "A": (0, c), "C": (b * a, w.b_a * a)},
        {"B": (0, 0), "C": (0, a), "A": (b * c, w.b_c * c)},
        {"C": (0, 0), "A": (0, b), "B": (c * a, w.c_a * a)},
        {"C": (0, 0), "B": (0, a), "A": (c * b, w.c_b * b)},
    ][index - 1]
    poly = polygon(list(table.values()))
    corner_vertex = {
        label: poly.ipts.index((x * poly.den, y * poly.den)) for label, (x, y) in table.items()
    }
    assert Fraction(_cross_sum(poly.ipts), poly.den * poly.den) == a * b * c
    return poly, corner_vertex


def test_presentation_matches_the_polygon_path():
    """Every index 1-6 on every triple of coprime_triples(30)."""
    for t in coprime_triples(30):
        w = weight_triple(*t)
        for index in range(1, 7):
            got = presentation(w, index)
            poly, corner_vertex = ref_presentation(w, index)
            assert got.index == index
            assert (got.polygon.ipts, got.polygon.den) == (poly.ipts, poly.den), (t, index)
            assert got.corner_vertex == corner_vertex, (t, index)
            assert list(got.corner_vertex) == list(corner_vertex), (t, index)


# --- closed-form canonical pairing on a ruled surface ------------------------------------


classes = st.dictionaries(
    st.integers(0, 7), st.integers(-9, 9).filter(bool), max_size=8
)


@settings(max_examples=300, deadline=None)
@given(st.integers(-4, 8), st.integers(0, 6), st.lists(classes, min_size=1, max_size=4))
def test_hirz_k_pair_matches_pair(k, n, xs):
    lat = hirz_lattice(k, n)
    assert lat._kc is not None
    for x in xs:
        x = {i: v for i, v in x.items() if i < lat.rank}
        assert lat.k_pair(x) == lat.pair(lat.canonical, x), (k, n, x)


@pytest.mark.parametrize("canonical", [
    {0: -4, 1: -2, 2: 1, 3: 1},  # the F_2 head on F_3
    {0: -5, 1: -2, 2: 1},  # slot 3 missing
    {0: -5, 1: -2, 2: 1, 3: 2},
    {0: -5, 1: -1, 2: 1, 3: 1},
    {0: -4, 2: 1, 3: 1},
    {},
])
def test_other_hirz_canonical_classes_use_pair(canonical):
    """Any K on the F_3 head: the closed form when K holds 1 on both tail
    slots, Lattice.pair otherwise."""
    lat = Lattice(((0, 1), (1, -3)), 4, canonical=canonical)
    assert (lat._kc is None) == (canonical.get(2) != 1 or canonical.get(3) != 1)
    for x in ({0: 1}, {1: 1}, {0: 2, 1: -1, 3: 4}, {2: -3, 3: 1}):
        assert lat.k_pair(x) == lat.pair(canonical, x)


def test_standard_canonical_class_flag():
    """_kc, the closed-form K of a K holding 1 on every tail slot: (-2) on the
    cp2 head and (-1, k - 1) on the F_k head for the standard classes."""
    assert hirz_lattice(3, 4)._kc == (-1, 2)
    assert hirz_lattice(3, 4).blowup()._kc == (-1, 2)
    assert Lattice(((0, 1), (1, 3)), 4, canonical={0: 1, 1: -2, 2: 1, 3: 1})._kc == (-1, -4)
    # a head K off the standard one still pairs in closed form
    assert Lattice(((0, 1), (1, 3)), 4, canonical={1: -2, 2: 1, 3: 1})._kc == (-1, -5)
    assert Lattice(((0, 1), (1, 2)), 3, canonical={1: -2, 2: 1})._kc == (-1, -3)
    assert Lattice(((0, 1), (1, -3)), 3)._kc is None
    assert cp2_lattice(5)._kc == (-2,)
    assert Lattice(((1,),), 3, canonical={0: -3, 1: 1})._kc is None
    # the whole gram as the head: no tail, so every K pairs in closed form
    assert generic_lattice(((1, 0), (0, -1)), canonical={0: -3, 1: 1})._kc == (-2, 0)


# --- report class lists ------------------------------------------------------------------


def test_dense_list_matches_dense():
    for t, pres, rp in builds(15):
        r = rp.lattice.rank
        for x in rp.edge_classes:
            got = dense_list(x, r)
            assert type(got) is list and tuple(got) == dense(x, r), (t, pres)
    for bad in ({4: 1}, {-1: 1}, {0: 1, 9: 2}):
        with pytest.raises(RankMismatch):
            dense_list(bad, 4)
        with pytest.raises(RankMismatch):
            dense(bad, 4)
    assert dense_list({}, 3) == [0, 0, 0]
