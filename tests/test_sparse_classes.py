"""Differential and fault tests: sparse classes against the dense code they replaced.

Every class is a dict from slot to nonzero coefficient. The reference below
is the dense representation: tuples of length rank, the contraction ledger
that filled them, the pairing and area of whole vectors, the block
conversion, and the fiber resolution that padded every class. On the golden
triples under both chop schedules and three triples of rank above 150, every
class, square, canonical pairing, area, linked pairing, ruling fiber and
resolved fiber must agree, and the report must be the same bytes. A
mutation of one class at rank above 150 must still be rejected.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden_outputs import REPORT_DIGESTS, SCHEDULES
from test_verify_sweep import ref_reject_nonadjacent
from wpp.arith import weight_sequence
from wpp.errors import LemmaViolated, RankMismatch
from wpp.homlat import (
    cp2_lattice,
    dense,
    generic_lattice,
    hirz_lattice,
    sparse,
    to_cp2,
)
from wpp.polygon import (
    _verify_classes,
    assign_classes,
    edge_selfints,
)
from wpp.report import make_report, ratio_str, serialize_report
from wpp.resolution import build_resolution
from wpp.rulings import boundary_elements, ruling, ruling_resolution
from wpp.strings import Component, DivisorConfig

HIGH_RANK = ((163, 283, 369), (2, 149, 151), (247, 250, 253))
INPUTS = [
    (t, idx, sched) for t in sorted(REPORT_DIGESTS) for idx in range(1, 7) for sched in SCHEDULES
] + [(t, 1, None) for t in HIGH_RANK]


# --- reference: the dense representation ------------------------------------------


def ref_check_nonadjacent(lat, cls):
    """The product's former nonadjacency check: LemmaViolated naming the first
    nonzero sparse gram entry of two nonadjacent edges of the cycle cls."""
    ref_reject_nonadjacent(lat.sparse_gram(cls), len(cls))


def ref_dot(x, y):
    return sum(map(mul, x, y))


def ref_pair(lat, x, y):
    """The dense Lattice.pair: O(rank) per call, the head gram on the head
    slots and -1 on the diagonal past them."""
    assert len(x) == len(y) == lat.rank
    b = len(lat.head)
    s = sum(x[i] * ref_dot(lat.head[i], y[:b]) for i in range(b) if x[i])
    return s - ref_dot(x[b:], y[b:])


def ref_linked_pairs(lat, cls):
    """Index pairs i < j whose classes share a slot, or hold two head slots
    with a nonzero gram entry (0 and 1 in the ruled-surface form): the pairs
    the gram can make nonzero."""
    by_slot = {}
    for i, x in enumerate(cls):
        for s in x:
            by_slot.setdefault(s, []).append(i)
    linked = {pair for bucket in by_slot.values() for pair in combinations(bucket, 2)}
    b = len(lat.head)
    for s in range(b):
        for t in range(s + 1, b):
            if lat.head[s][t]:
                linked.update(
                    (min(i, j), max(i, j))
                    for i in by_slot.get(s, ()) for j in by_slot.get(t, ()) if i != j
                )
    return linked


def ref_area_scaled(area, x):
    assert len(x) == area.rank
    return ref_dot(area._ints, x)


def ref_ledger(p):
    """The dense contraction ledger: (terminal, k, edge classes, area ints)."""
    sels = edge_selfints(p)
    entries = [{"id": i, "s": sels[i], "len": p.length_scaled(i)} for i in range(p.n)]
    steps = []
    while True:
        cur = len(entries)
        if cur == 3:
            terminal, k = "cp2", 0
            break
        if cur == 4 and all(e["s"] != -1 for e in entries):
            for i0 in range(4):
                s = [entries[(i0 + t) % 4]["s"] for t in range(4)]
                if s[0] == 0 and s[2] == 0 and s[1] == -s[3] and s[1] >= 0:
                    break
            terminal, k = "hirz", entries[(i0 + 1) % 4]["s"]
            entries = [entries[(i0 + t) % 4] for t in range(4)]
            break
        chosen = min((e for e in entries if e["s"] == -1), key=lambda e: e["id"])
        pos = entries.index(chosen)
        left, right = entries[(pos - 1) % cur], entries[(pos + 1) % cur]
        steps.append((chosen["id"], left["id"], right["id"], chosen["len"]))
        for nb in (left, right):
            nb["s"] += 1
            nb["len"] += chosen["len"]
        entries.pop(pos)
    rank0 = 1 if terminal == "cp2" else 2
    rank = rank0 + len(steps)
    vals = [0] * rank
    classes = {}
    if terminal == "cp2":
        for e in entries:
            classes[e["id"]] = [1] + [0] * (rank - 1)
        vals[0] = entries[0]["len"]
    else:
        f0, top, f1, bot = entries
        classes[f0["id"]] = [1, 0] + [0] * (rank - 2)
        classes[f1["id"]] = [1, 0] + [0] * (rank - 2)
        classes[top["id"]] = [k, 1] + [0] * (rank - 2)
        classes[bot["id"]] = [0, 1] + [0] * (rank - 2)
        vals[0], vals[1] = f0["len"], bot["len"]
    for t in range(len(steps) - 1, -1, -1):
        eid, lid, rid, ln = steps[t]
        b_idx = rank0 + (len(steps) - 1 - t)
        classes[eid] = [0] * rank
        classes[eid][b_idx] = 1
        classes[lid][b_idx] -= 1
        classes[rid][b_idx] -= 1
        vals[b_idx] = ln
    return terminal, k, tuple(tuple(classes[i]) for i in range(p.n)), vals


def ref_mat_vec(blk, x):
    """The dense block conversion: blk . x[:b] followed by x[b:]."""
    b = len(blk)
    return tuple(ref_dot(row, x[:b]) for row in blk) + x[b:]


def ref_fiber(classes, deltas, upto):
    f = [0] * len(classes[0])
    for d, x in zip(deltas, classes[:upto]):
        f = [a + d * v for a, v in zip(f, x)]
    return f


def ref_resolve(labels, classes, deltas, upto):
    """The dense fiber resolution on the whole chain: every blowup pads every
    class and the fiber. Returns (fiber, multiplicities, labelled classes,
    last meeting position)."""
    f = ref_fiber(classes, deltas, upto)
    p, q = -deltas[upto], deltas[upto - 1]
    mults = weight_sequence(p, q)
    comps = [[lab, list(x)] for lab, x in zip(labels, classes)]
    if not mults:
        return tuple(f), (), comps, (upto if upto < len(comps) else None)
    rank0 = len(f)
    pairs = [(p, q)]
    while pairs[-1] != (1, 1):
        a, b = pairs[-1]
        pairs.append((a - b, b) if a > b else (a, b - a))

    def blow(i, label):
        for comp in comps:
            comp[1].append(0)
        f.append(0)
        comps[i][1][-1] -= 1
        comps[i + 1][1][-1] -= 1
        comps.insert(i + 1, [label, [0] * (len(f) - 1) + [1]])
        return i + 1

    pos = blow(upto - 1, "C1")
    for n, (a, b) in enumerate(pairs[:-1], start=2):
        pos = blow(pos - 1 if a > b else pos, f"C{n}")
    for t, m in enumerate(mults):
        f[rank0 + t] -= m
    return tuple(f), tuple(mults), comps, pos


# --- helpers ------------------------------------------------------------------------


def no_zero(x):
    return all(x.values())


def check_form(lat, area, classes, ref_classes):
    """Every class, square, canonical pairing, area and linked pairing."""
    r = lat.rank
    k = dense(lat.canonical, r)
    assert no_zero(lat.canonical)
    for x, d in zip(classes, ref_classes, strict=True):
        assert no_zero(x)
        assert dense(x, r) == d
        assert lat.sq(x) == ref_pair(lat, d, d)
        assert lat.k_pair(x) == ref_pair(lat, k, d)
        assert area.area_scaled(x) == ref_area_scaled(area, d)
        assert area.area(x) == Fraction(ref_area_scaled(area, d), area.denominator)
    m = len(classes)
    linked = ref_linked_pairs(lat, classes)
    pairs = linked | {(i, (i + 1) % m) for i in range(m)}
    for i, j in pairs:
        assert lat.pair(classes[i], classes[j]) == ref_pair(lat, ref_classes[i], ref_classes[j])
    # the sparse gram: only linked pairs and squares can be nonzero, and each
    # entry is the dense pairing
    gram = lat.sparse_gram(classes)
    diag = {(i, i) for i in range(m)}
    assert gram.keys() <= linked | diag
    for i, j in linked | diag:
        assert gram.get((i, j), 0) == ref_pair(lat, ref_classes[i], ref_classes[j])


def build(triple, idx, sched):
    return build_resolution(*triple, presentation=idx, schedule=sched)


# --- differential ---------------------------------------------------------------------


@pytest.mark.parametrize("triple, idx, sched", INPUTS)
def test_classes_and_forms_match_dense(triple, idx, sched):
    rp = build(triple, idx, sched)
    pc = assign_classes(rp.polygon)
    terminal, k, ref_cls, vals = ref_ledger(rp.polygon)
    assert (pc.terminal, pc.terminal_k) == (terminal, k)
    assert list(pc.area._ints) == [v * pc.area._den // rp.polygon.den for v in vals]
    check_form(pc.lattice, pc.area, pc.edge_classes, ref_cls)
    if terminal == "hirz":
        _lat, t_mat, _t_inv = to_cp2(pc.lattice)
        ref_cls = tuple(ref_mat_vec(t_mat, d) for d in ref_cls)
    check_form(rp.lattice, rp.area, rp.edge_classes, ref_cls)
    r = rp.lattice.rank
    for role, sd in rp.strings.items():
        assert rp.string_classes(role) == tuple(ref_cls[i] for i in sd.edge_ids)
    for name, cd in rp.connectors.items():
        assert rp.connector_class(name) == ref_cls[cd.edge_id]
    for el in boundary_elements(rp):
        assert dense(el.cls, r) == ref_cls[el.edge_id]


@pytest.mark.parametrize("triple, idx, sched", INPUTS)
def test_fibers_and_report_match_dense(triple, idx, sched):
    rp = build(triple, idx, sched)
    r = rp.lattice.rank
    dense_of = {i: dense(x, r) for i, x in enumerate(rp.edge_classes)}
    rd = ruling(rp, "c")
    fwd = rd.forward
    labels = [el.name for el in fwd.combined.elements]
    classes = [dense_of[el.edge_id] for el in fwd.combined.elements]
    assert [c.label for c in fwd.config.components] == labels
    assert all(no_zero(c.cls) for c in fwd.config.components)
    if fwd.fiber is not None:
        assert no_zero(fwd.fiber.fclass)
        ref_f = ref_fiber(classes, fwd.deltas, fwd.fiber.upto)
        assert dense(fwd.fiber.fclass, r) == tuple(ref_f)
    if rd.fiber is not None:
        assert dense(rd.fiber, r) == tuple(ref_fiber(classes, fwd.deltas, fwd.fiber.upto))
    rr = ruling_resolution(rd) if rd.case == "Unicuspidal" else None
    if rr is not None:
        fiber, mults, comps, last = ref_resolve(labels, classes, fwd.deltas, fwd.fiber.upto)
        r2 = rr.final_rank
        assert no_zero(rr.resolved.fclass)
        assert dense(rr.resolved.fclass, r2) == fiber
        assert rr.multiplicities == mults
        assert rr.resolved.last_meeting == last
        got = [[c.label, list(dense(c.cls, r2))] for c in rr.config.components]
        assert got == comps
        assert all(no_zero(c.cls) for c in rr.config.components)
        lat2 = rr.config.lattice
        assert lat2.sq(rr.resolved.fclass) == ref_pair(lat2, fiber, fiber) == 0

    # the report with every class, area and fiber field taken from the
    # reference is the same bytes
    rep = make_report(rp)
    want = _with_reference_fields(rep, rp, dense_of, rd, rr)
    assert serialize_report(rep) == serialize_report(want)


def _with_reference_fields(rep, rp, dense_of, rd, rr):
    want = {**rep}
    den = rp.area.denominator

    def area_text(d):
        return ratio_str(ref_area_scaled(rp.area, d), den)

    want["strings"] = {
        role: {
            **rep["strings"][role],
            "classes": [list(dense_of[i]) for i in sd.edge_ids],
            "areas": [area_text(dense_of[i]) for i in sd.edge_ids],
        }
        for role, sd in rp.strings.items()
    }
    want["connectors"] = {
        name: {
            **rep["connectors"][name],
            "class": list(dense_of[cd.edge_id]),
            "area": area_text(dense_of[cd.edge_id]),
        }
        for name, cd in rp.connectors.items()
    }
    fwd = rd.forward
    classes = [dense_of[el.edge_id] for el in fwd.combined.elements]
    if rd.fiber is not None:
        want["ruling"] = {
            **rep["ruling"], "fiber": ref_fiber(classes, fwd.deltas, fwd.fiber.upto)
        }
    if rr is not None:
        labels = [el.name for el in fwd.combined.elements]
        fiber, _m, _c, _l = ref_resolve(labels, classes, fwd.deltas, fwd.fiber.upto)
        want["ruling_resolution"] = {**rep["ruling_resolution"], "fiber": list(fiber)}
    return want


def test_high_rank_inputs_are_high_rank():
    assert [build_resolution(*t).n for t in HIGH_RANK] == [168, 152, 253]


# --- the pairing itself ---------------------------------------------------------------


def _vectors(rank):
    return st.lists(st.integers(-4, 4), min_size=rank, max_size=rank).map(tuple)


@st.composite
def lattice_and_pair(draw):
    kind = draw(st.sampled_from(("cp2", "hirz", "generic")))
    if kind == "cp2":
        lat = cp2_lattice(draw(st.integers(0, 8)))
    elif kind == "hirz":
        lat = hirz_lattice(draw(st.integers(0, 5)), draw(st.integers(0, 7)))
    else:
        r = draw(st.integers(1, 6))
        upper = draw(st.lists(st.integers(-3, 3), min_size=r * r, max_size=r * r))
        gram = [[upper[min(i, j) * r + max(i, j)] for j in range(r)] for i in range(r)]
        lat = generic_lattice(gram)
    return lat, draw(_vectors(lat.rank)), draw(_vectors(lat.rank))


@settings(max_examples=400, deadline=None)
@given(lattice_and_pair())
def test_sparse_pair_equals_dense_pair(case):
    lat, x, y = case
    sx, sy = sparse(x, lat.rank), sparse(y, lat.rank)
    assert no_zero(sx) and no_zero(sy)
    assert dense(sx, lat.rank) == x
    assert lat.pair(sx, sy) == ref_pair(lat, x, y) == lat.pair(sy, sx)
    assert lat.sq(sx) == ref_pair(lat, x, x)
    if lat.canonical is not None:
        assert lat.k_pair(sx) == ref_pair(lat, dense(lat.canonical, lat.rank), x)


def test_slots_are_checked_where_classes_are_made():
    lat = cp2_lattice(3)
    with pytest.raises(RankMismatch):
        DivisorConfig(lat, (Component("v", {4: 1}),))
    with pytest.raises(RankMismatch):
        DivisorConfig(lat, (Component("v", {0: 1}), Component("w", {-1: 1})))
    with pytest.raises(RankMismatch):
        dense({4: 1}, 4)
    with pytest.raises(RankMismatch):
        sparse((1, 0, 0), 4)
    assert len(DivisorConfig(lat, (Component("v", {}), Component("w", {3: -1})))) == 2


# --- faults at high rank -----------------------------------------------------------------


def _nonadjacent_slot(cls, absent):
    """(i, s, j): a slot s that class i and a class j not next to i share,
    and that neither neighbour of i holds (absent=False); with absent=True,
    a slot of j that class i and both its neighbours lack."""
    m = len(cls)
    for i in range(m):
        near = cls[i - 1].keys() | cls[(i + 1) % m].keys()
        for j in range(m):
            if (j - i) % m in (0, 1, m - 1):
                continue
            for s in cls[j]:
                if s in near or (s in cls[i]) == absent:
                    continue
                return i, s, j
    raise AssertionError("no such slot")


@pytest.mark.parametrize("triple", [(2, 149, 151), (163, 283, 369)])
@pytest.mark.parametrize("absent", [False, True], ids=["flip", "stray"])
def test_mutation_at_high_rank_is_rejected(triple, absent):
    """flip: negate a coefficient only a nonadjacent pair sees. stray: add a
    slot that a nonadjacent class holds. Both change that pair alone among
    the pairings, the nonadjacent check finds it on the sparse keys, and
    the full verification rejects the class."""
    rp = build_resolution(*triple)
    p = rp.polygon
    pc = assign_classes(p)
    lat, cls = pc.lattice, pc.edge_classes
    assert lat.rank >= 150
    i, s, j = _nonadjacent_slot(cls, absent)
    bad_i = {**cls[i], s: 1} if absent else {**cls[i], s: -cls[i][s]}
    bad = cls[:i] + (bad_i,) + cls[i + 1:]
    m = len(cls)
    for nb in (i - 1, (i + 1) % m):
        assert lat.pair(bad[i], bad[nb]) == lat.pair(cls[i], cls[nb]) == 1
    assert lat.pair(bad[i], bad[j]) != 0
    with pytest.raises(LemmaViolated, match="unexpected intersection"):
        ref_check_nonadjacent(lat, bad)
    with pytest.raises(LemmaViolated):
        _verify_classes(p, edge_selfints(p), dataclasses.replace(pc, edge_classes=bad))
