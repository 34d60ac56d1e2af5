"""Differential tests: the chop against the big-integer chop it replaced.

chop_corner carries the depths, the new edges' lengths and their cone and
turn tests in one loop over the expansion, takes the running gcd from the
deepest vertex and walks the chain edge by edge along the directions it
predicts. ref_chop_corner and ref_grown below are an earlier implementation:
one gcd of the whole chain from C_0, the depths carried by cross-reduced
ratios, the chain placed by its w-moves, and the cone, turn and length of
every new edge read off its big vector. Every chop must give the same
ChopResult and seeded edge table, or raise the same exception class with the
same message.

The chain checks of chop_corner, the first direction and the exit
direction, are reached by patching the helpers that feed them; the exit
check, which chop_corner reads off the end state (1, 0) of the corner types,
is shown to be the same test as the exit direction itself, and the identity
the edge lengths rest on is checked on every corner type with r <= 40.
"""

import importlib
import math
from fractions import Fraction

import pytest

from wpp.arith import hj_expand, weight_triple
from wpp.errors import ChopsOverlap, InvalidPolygon, LemmaViolated, WppError
from wpp.polygon import (
    CORNER_CYCLE,
    ChopResult,
    LatticePolygon,
    _corner_dirs,
    _validated,
    chop_corner,
    corner_type,
    presentation,
)
from wpp.scan import coprime_triples
from test_build_fast_paths import ref_chop_depths

# the module, not the function wpp.polygon that the package re-exports
polygon_mod = importlib.import_module("wpp.polygon")

SCHEDULES = {
    "default": None,
    "two-fifths-three-sevenths": (Fraction(2, 5), Fraction(3, 7)),
    "half-five-sixths": (Fraction(1, 2), Fraction(5, 6)),
    "overlap": (Fraction(99, 100), Fraction(99, 100)),
    "nine-tenths-half": (Fraction(9, 10), Fraction(1, 2)),
    "quarter-tiny": (Fraction(1, 4), Fraction(1, 10**40)),
}


# --- reference: the replaced chop ----------------------------------------------------


def ref_grown(p, i, ipts, den, scale, g):
    """The earlier LatticePolygon._grown: cone and turn tests on the big
    vectors of the k + 2 new edges, and one gcd per new edge."""
    n, m = p.n, len(ipts)
    pos = [(i - 1 + t) % m for t in range(m - n + 3)]
    vecs = [(ipts[b][0] - ipts[a][0], ipts[b][1] - ipts[a][1])
            for a, b in zip(pos, pos[1:])]
    dirs, lens = p._edges
    (lx, ly), (hx, hy) = dirs[i - 1], dirs[i]
    ux, uy = dirs[(i - 2) % n]
    for x, y in vecs:
        if lx * y - ly * x < 0 or x * hy - y * hx < 0 or ux * y - uy * x <= 0:
            return None
        ux, uy = x, y
    wx, wy = dirs[(i + 1) % n]
    if ux * wy - uy * wx <= 0:
        return None
    cdirs, clens = [], []
    for x, y in vecs:
        c = math.gcd(x, y)
        cdirs.append((x // c, y // c))
        clens.append(c)
    if scale != g:
        lens = tuple(ln * scale // g for ln in lens)
    if i:
        table = (*dirs[:i - 1], *cdirs, *dirs[i + 1:]), (*lens[:i - 1], *clens, *lens[i + 1:])
    else:
        table = (*cdirs[1:], *dirs[1:-1], cdirs[0]), (*clens[1:], *lens[1:-1], clens[0])
    out = LatticePolygon(tuple(ipts), den)
    out.__dict__["_edges"] = table
    return out


def ref_chop_corner(p, i, u_side, epsilons=None, schedule=None):
    """The earlier chop_corner, calling ref_grown."""
    i %= p.n
    u, w = _corner_dirs(p, i, u_side)
    r, q = corner_type(p, i, u_side)
    if r == 1:
        raise WppError("corner is already Delzant; nothing to chop")
    entries = hj_expand(r, q)
    k = len(entries)
    if epsilons is None:
        depths = ref_chop_depths(p, i, k, schedule)
    else:
        depths = [(e.numerator, e.denominator) for e in map(Fraction, epsilons)]
        if len(depths) != k or any(num <= 0 for num, _ in depths):
            raise ChopsOverlap(f"need {k} positive chop depths, got {list(epsilons)}")
    e1_x, e1_y = w[0] - q * u[0], w[1] - q * u[1]
    if e1_x % r or e1_y % r:
        raise LemmaViolated("first chop direction is not integral")
    dirs = [(-u[0], -u[1]), (e1_x // r, e1_y // r)]
    for b in entries[:-1]:
        prev, cur = dirs[-2], dirs[-1]
        dirs.append((b * cur[0] - prev[0], b * cur[1] - prev[1]))
    bk = entries[-1]
    exit_dir = (bk * dirs[-1][0] - dirs[-2][0], bk * dirs[-1][1] - dirs[-2][1])
    if exit_dir != w:
        raise LemmaViolated("chop chain does not exit along the far edge")
    qs = []
    rj, qj = r, q
    for b in entries:
        qs.append(qj)
        rj, qj = qj, b * qj - rj
    if (rj, qj) != (1, 0):
        raise LemmaViolated(f"chop chain ended on ({rj}, {qj}), expected (1, 0)")
    den = math.lcm(p.den, *(eden * (qj // math.gcd(num, qj))
                            for (num, eden), qj in zip(depths, qs)))
    scale = den // p.den
    vx, vy = p.ipts[i]
    vx, vy = vx * scale, vy * scale
    chain = []
    ue, pnum, peden = den, 1, 1
    for d, (num, eden), qj in zip(dirs, depths, qs):
        gn, ge = math.gcd(num, pnum), math.gcd(eden, peden)
        ue = ue * (num // gn) * (peden // ge) // ((eden // ge) * (pnum // gn))
        pnum, peden = num, eden
        wf = ue // qj
        chain.append((vx - ue * d[0], vy - ue * d[1]))
        vx, vy = vx + wf * w[0], vy + wf * w[1]
    chain.append((vx, vy))
    head, tail = p.ipts[:i], p.ipts[i + 1:]
    g0 = math.gcd(p.den, *(c for v in head + tail for c in v))
    g = math.gcd(scale * g0, *(c for v in chain for c in v))
    if g > 1:
        den //= g
        chain = [(x // g, y // g) for x, y in chain]
    if scale != g:
        head = tuple((x * scale // g, y * scale // g) for x, y in head)
        tail = tuple((x * scale // g, y * scale // g) for x, y in tail)
    ordered = chain if u_side == "prev" else chain[::-1]
    new_ipts = [*head, *ordered, *tail]
    p2 = ref_grown(p, i, new_ipts, den, scale, g)
    if p2 is None:
        try:
            p2 = _validated(new_ipts, den)
        except InvalidPolygon as exc:
            raise ChopsOverlap(f"chop depths too large at vertex {i}: {exc}") from exc
        if p2.ipts != tuple(new_ipts):
            raise ChopsOverlap(f"chop at vertex {i} broke the vertex cycle")
    if u_side == "prev":
        new_ids = tuple(range(i, i + k))
    else:
        new_ids = tuple(range(i + k - 1, i - 1, -1))
    n_old = p.n
    edge_map = dict(zip(range(n_old), [*range(i), *range(i + k, n_old + k)]))
    return ChopResult(p2, new_ids, edge_map, entries, (r, q))


# --- the comparison ------------------------------------------------------------------


def _outcome(fn, *args, **kwargs):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(*args, **kwargs), None
    except WppError as exc:
        return None, (type(exc), str(exc))


def _same_chop(p, i, u_side, **kwargs):
    """Run both chops; assert the same outcome and return it."""
    res, err = _outcome(chop_corner, p, i, u_side, **kwargs)
    rres, rerr = _outcome(ref_chop_corner, p, i, u_side, **kwargs)
    assert err == rerr, (p, i, u_side, kwargs)
    if res is not None:
        got, ref = res.polygon, rres.polygon
        assert (got.ipts, got.den) == (ref.ipts, ref.den)
        assert (res.new_edge_indices, res.edge_map) == (rres.new_edge_indices, rres.edge_map)
        assert (res.entries, res.corner) == (rres.entries, rres.corner)
        # seeded exactly when the reference seeds it, and with the same table
        assert ("_edges" in got.__dict__) == ("_edges" in ref.__dict__)
        assert got._edges == ref._edges
    return res, err


def _build_chops(w, idx, schedule=None, epsilons=None):
    """The chops of build_resolution at corners A, B, C, each compared with
    the reference; stops at the first rejected chop. Returns the errors."""
    pres = presentation(w, idx)
    label_at = {v: lab for lab, v in pres.corner_vertex.items()}
    side = [0, 1, 2]
    cur = pres.polygon
    seen = []
    for lab in "ABC":
        v0 = pres.corner_vertex[lab]
        u_side = "next" if label_at[(v0 + 1) % 3] == CORNER_CYCLE[lab] else "prev"
        eps = None if epsilons is None else epsilons[lab]
        res, err = _same_chop(cur, side[v0], u_side, epsilons=eps, schedule=schedule)
        seen.append(err)
        if res is None:
            break
        side = [res.edge_map[i] for i in side]
        cur = res.polygon
    return seen


@pytest.mark.parametrize("schedule", list(SCHEDULES.values()), ids=list(SCHEDULES))
def test_every_build_chop_matches_the_reference(schedule):
    """Every chop of the builds of coprime_triples(16) x 6 presentations:
    2,142 chops, or 1,230 under the overlapping schedule, whose builds stop
    at the first of their 714 rejected chops."""
    errors = [err for t in coprime_triples(16) for idx in range(1, 7)
              for err in _build_chops(weight_triple(*t), idx, schedule)]
    rejected = sum(1 for err in errors if err)
    if schedule == SCHEDULES["overlap"]:
        assert (len(errors), rejected) == (1230, 714)
    else:
        assert (len(errors), rejected) == (2142, 0)


def _explicit_epsilons(w):
    """Per-corner depths with unrelated denominators, one per HJ entry."""
    residues = {"A": (w.a, w.a_b), "B": (w.b, w.b_c), "C": (w.c, w.c_a)}
    return {
        lab: [Fraction(1, 7 + 2 * j + ord(lab)) / (j + 1) for j in range(len(hj_expand(*wr)))]
        for lab, wr in residues.items()
    }


@pytest.mark.parametrize("variant", ["list", "reversed", "zeros", "one-short"])
def test_explicit_epsilon_chops_match_the_reference(variant):
    """(11, 13, 14) at every presentation under explicit depths: the list,
    its reverse, zeros and a list one short (both rejected with the same
    ChopsOverlap text)."""
    w = weight_triple(11, 13, 14)
    eps = {
        lab: {"list": lst, "reversed": lst[::-1], "zeros": [0] * len(lst),
              "one-short": lst[:-1]}[variant]
        for lab, lst in _explicit_epsilons(w).items()
    }
    errors = [err for idx in range(1, 7) for err in _build_chops(w, idx, epsilons=eps)]
    if variant == "list":
        assert errors == [None] * 18
    else:  # reversed, the deep depths come first and overlap
        assert len(errors) == 6 and all(err and err[0] is ChopsOverlap for err in errors)


@pytest.mark.parametrize("pts, eps", [
    (((0, 0), (3, 0), (Fraction(9, 2), Fraction(9, 2))), Fraction(1, 2)),
    (((0, 0), (9, 0), (9, Fraction(3, 2))), Fraction(1, 2)),
    (((0, 0), (5, 0), (Fraction(5, 2), Fraction(5, 2))), Fraction(3, 2)),
])
@pytest.mark.parametrize("u_side", ["prev", "next"])
def test_a_chop_that_removes_the_only_half_vertex_lowers_the_denominator(pts, eps, u_side):
    """The kept vertices scale by s / t with t > 1: the chop removes the one
    vertex with a half coordinate, and its chain is integral."""
    p = polygon_mod.polygon(pts)
    i = next(j for j, (x, y) in enumerate(p.ipts) if x % 2 or y % 2)
    res, err = _same_chop(p, i, u_side, epsilons=[eps])
    assert err is None and (p.den, res.polygon.den) == (2, 1)


# --- the chain checks ------------------------------------------------------------------


def _corner_of_type(r_min=5):
    """A corner of a (2, 3, 5) triangle whose type (r, q) has r >= r_min."""
    p = presentation(weight_triple(2, 3, 5), 1).polygon
    for i in range(3):
        for side in ("prev", "next"):
            r, q = corner_type(p, i, side)
            if r >= r_min:
                return p, i, side, r, q
    raise AssertionError("no such corner")


def test_a_wrong_corner_type_makes_the_first_direction_fractional(monkeypatch):
    p, i, side, r, q = _corner_of_type()
    wrong = next(x for x in range(1, r) if x != q and math.gcd(x, r) == 1)
    monkeypatch.setattr(polygon_mod, "corner_type", lambda *a: (r, wrong))
    with pytest.raises(LemmaViolated, match="^first chop direction is not integral$"):
        chop_corner(p, i, side)


def test_a_wrong_expansion_does_not_exit_along_the_far_edge(monkeypatch):
    p, i, side, r, q = _corner_of_type()
    entries = hj_expand(r, q)
    monkeypatch.setattr(polygon_mod, "hj_expand",
                        lambda *a: (*entries[:-1], entries[-1] + 1))
    with pytest.raises(LemmaViolated,
                       match="^chop chain does not exit along the far edge$"):
        chop_corner(p, i, side)


def _chain_end(r, q, entries):
    """Whether the chain of entries exits along w, and the (r_j, q_j) it ends
    on, in the frame where u goes up and w leaves along (r, q)."""
    u, w = (0, 1), (r, q)
    e = [(0, -1), ((w[0] - q * u[0]) // r, (w[1] - q * u[1]) // r)]
    for b in entries:
        e.append((b * e[-1][0] - e[-2][0], b * e[-1][1] - e[-2][1]))
    rj, qj = r, q
    for b in entries:
        rj, qj = qj, b * qj - rj
    return e[-1] == w, (rj, qj)


def test_exiting_along_the_far_edge_implies_the_end_state():
    """The proof in chop_corner's docstring, checked on every corner type
    with r <= 40 and every expansion one entry off its HJ string: the chain
    exits along w exactly when the corner types end on (1, 0), the state the
    exit check reads, and both fail on the changed expansions here."""
    exits = 0
    for r in range(2, 41):
        for q in range(1, r):
            if math.gcd(q, r) != 1:
                continue
            entries = hj_expand(r, q)
            assert _chain_end(r, q, entries) == (True, (1, 0))
            for j in range(len(entries)):
                for step in (-2, -1, 1, 2):
                    changed = (*entries[:j], entries[j] + step, *entries[j + 1:])
                    exit_ok, end = _chain_end(r, q, changed)
                    assert exit_ok == (end == (1, 0)), (r, q, changed)
                    exits += exit_ok
    assert exits == 0


def test_the_far_edge_is_a_step_identity():
    """The identity the new edge lengths rest on, w = q_{j-2} e_j - q_{j-1}
    e_{j-1} for j = 1..k+1 (q_{-1} = r), checked in the frame where u goes
    up and w leaves along (r, q), on every corner type with r <= 40 and
    every expansion one entry off its HJ string: it holds whatever the
    entries, as it follows from the two recursions alone."""
    checked = 0
    for r in range(2, 41):
        for q in range(1, r):
            if math.gcd(q, r) != 1:
                continue
            entries = hj_expand(r, q)
            for j in range(len(entries)):
                for step in (0, -1, 1):
                    changed = (*entries[:j], entries[j] + step, *entries[j + 1:])
                    w = (r, q)
                    e = [(0, -1), (1, 0)]  # e_0 = -u, e_1 = (w - q u) / r
                    qs = [r, q]  # q_{-1}, q_0
                    for b in changed:
                        e.append((b * e[-1][0] - e[-2][0], b * e[-1][1] - e[-2][1]))
                        qs.append(b * qs[-1] - qs[-2])
                    for m in range(1, len(changed) + 2):
                        (ax, ay), (bx, by) = e[m], e[m - 1]
                        qa, qb = qs[m - 1], qs[m]  # q_{m-2}, q_{m-1}
                        assert (qa * ax - qb * bx, qa * ay - qb * by) == w, (r, q, changed, m)
                        checked += 1
    assert checked > 10_000
