"""The ledger verification is one sweep over the slot buckets.

_verify_classes adds each class's square, its pairing with the next edge,
its scaled area and each slot's class sum in one pass over the buckets of
the edge classes, and hashes only the pairings of non-adjacent edges. The
verifier it replaced took every pairing from Lattice.sparse_gram, every area
from AreaForm.area_scaled, the sum from class_sum and the non-adjacent
entries from a scan of the gram's keys; ref_verify_classes keeps it, and
every test below compares the two: both accept the same ledgers, and both
raise the same exception with the same message on a corrupted one.
"""

import dataclasses
import importlib

import pytest

from wpp.errors import LemmaViolated, MissingClasses
from wpp.homlat import AreaForm, Lattice, class_sum, vadd, vneg
from wpp.polygon import LatticePolygon, _verify_classes, assign_classes
from wpp.resolution import build_resolution
from wpp.scan import coprime_triples

polygon_mod = importlib.import_module("wpp.polygon")

SMALL = (((2, 3, 5), 1), ((2, 3, 5), 4), ((3, 4, 5), 2), ((5, 7, 9), 1), ((5, 7, 9), 6),
         ((11, 13, 14), 3))


# --- the verifier the sweep replaced --------------------------------------------------


def ref_reject_nonadjacent(gram, m):
    """LemmaViolated naming the first nonzero entry (i, j), i < j, of the
    sparse gram of an m-cycle whose edges i and j are not adjacent."""
    bad = [(i, j) for i, j in gram if i != j and (j - i) % m not in (1, m - 1)]
    if bad:
        i, j = min(bad)
        raise LemmaViolated(f"edges {i},{j}: unexpected intersection {gram[i, j]}")


def ref_verify_classes(p, sels, pc):
    """The verifier over Lattice.sparse_gram, area_scaled and class_sum."""
    lat, area, cls = pc.lattice, pc.area, pc.edge_classes
    m = p.n
    gram = lat.sparse_gram(cls)
    get, den, aden = gram.get, p.den, area.denominator
    for i, (x, s, ln) in enumerate(zip(cls, sels, p._edges[1])):
        sq = get((i, i), 0)
        if sq != s:
            raise LemmaViolated(f"edge {i}: square {sq} != {s}")
        if area.area_scaled(x) * den != ln * aden:
            raise LemmaViolated(f"edge {i}: area does not match edge length")
        j = (i + 1) % m
        if get((i, j) if i < j else (j, i), 0) != 1:
            raise LemmaViolated(f"edges {i},{j}: not adjacent in homology")
    if lat.canonical is None:
        raise MissingClasses("ledger lattice has no canonical class")
    if class_sum(cls) != vneg(lat.canonical):
        raise LemmaViolated("edge classes do not sum to the anticanonical class")
    if m != lat.rank + 2:
        raise LemmaViolated("canonical square does not match the rank")
    ref_reject_nonadjacent(gram, m)


def _outcome(fn, p, sels, pc):
    try:
        fn(p, sels, pc)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)
    return None


def _agree(p, sels, pc):
    """Both verifiers' outcome, asserted equal."""
    got = _outcome(_verify_classes, p, sels, pc)
    assert got == _outcome(ref_verify_classes, p, sels, pc)
    return got


def _ledger(triple, pres):
    p = build_resolution(*triple, presentation=pres).polygon
    return p, p.selfints, assign_classes(p)


def _with_class(pc, i, x):
    cls = pc.edge_classes
    return dataclasses.replace(pc, edge_classes=cls[:i] + (x,) + cls[i + 1:])


# --- both accept every ledger ----------------------------------------------------------


def test_both_accept_every_ledger_of_coprime_triples_30():
    terminals = set()
    same_den = 0
    for t in coprime_triples(30):
        for pres in range(1, 7):
            p, sels, pc = _ledger(t, pres)
            assert _agree(p, sels, pc) is None
            terminals.add(pc.terminal)
            same_den += pc.area.denominator == p.den
    assert terminals == {"cp2", "hirz"}
    assert same_den == 6 * len(coprime_triples(30))


def test_the_sweep_does_not_take_the_sparse_gram(monkeypatch):
    p, sels, pc = _ledger((11, 13, 14), 1)

    def refuse(self, xs):
        raise AssertionError("sparse_gram called")

    monkeypatch.setattr(Lattice, "sparse_gram", refuse)
    _verify_classes(p, sels, pc)


# --- both reject the same corruptions with the same message ---------------------------


@pytest.mark.parametrize("triple,pres", SMALL)
def test_every_single_coefficient_corruption_agrees(triple, pres):
    """Move one coefficient of one class by -1 or +1, or negate it."""
    p, sels, pc = _ledger(triple, pres)
    rejected = 0
    for i, x in enumerate(pc.edge_classes):
        for s, v in x.items():
            for new in (v - 1, v + 1, -v):
                bad = {**x, s: new} if new else {k: c for k, c in x.items() if k != s}
                rejected += _agree(p, sels, _with_class(pc, i, bad)) is not None
    assert rejected == 3 * sum(map(len, pc.edge_classes))


@pytest.mark.parametrize("triple,pres", SMALL)
def test_every_single_slot_corruption_agrees(triple, pres):
    """Add -1 or +1 at one slot of one class, held or not, and move one
    coefficient to another slot."""
    p, sels, pc = _ledger(triple, pres)
    rank = pc.lattice.rank
    for i, x in enumerate(pc.edge_classes):
        for slot in range(rank):
            for delta in (1, -1):
                assert _agree(p, sels, _with_class(pc, i, vadd(x, {slot: delta}))) is not None
            for s, v in x.items():
                if slot not in x:
                    moved = {**{k: c for k, c in x.items() if k != s}, slot: v}
                    assert _agree(p, sels, _with_class(pc, i, moved)) is not None


def test_a_non_adjacent_pairing_is_named_by_both():
    """Add a tail slot s to edge i and take it from a nonadjacent edge j,
    where no neighbour of either holds s: the sum -K holds, the neighbours'
    pairings do not move and the squares and areas are matched by hand, so
    only the non-adjacent check sees the pairings i and j gained, with each
    other and with the classes holding s."""
    p, sels, pc = _ledger((11, 13, 14), 1)
    cls, m, vals = pc.edge_classes, p.n, pc.area._ints
    holders = {}
    for e, x in enumerate(cls):
        for s in x:
            holders.setdefault(s, set()).add(e)
    i, j = 2, m // 2 + 2
    near = {(e + d) % m for e in (i, j) for d in (-1, 0, 1)}
    s = next(s for s in range(len(pc.lattice.head), pc.lattice.rank) if not holders[s] & near)
    bad = _with_class(_with_class(pc, i, vadd(cls[i], {s: 1})), j, vadd(cls[j], {s: -1}))
    lens = list(p._edges[1])
    lens[i] += vals[s]
    lens[j] -= vals[s]
    q = LatticePolygon(p.ipts, p.den)
    q.__dict__["_edges"] = (p.directions, tuple(lens))
    off = tuple(v - (e in (i, j)) for e, v in enumerate(sels))
    assert pc.area.denominator == p.den
    gained = {(i, j): 1}
    for h in holders[s]:
        gained[min(i, h), max(i, h)] = -cls[h][s]
        gained[min(j, h), max(j, h)] = cls[h][s]
    (a, b), g = min(gained.items())
    assert _agree(q, off, bad) == (LemmaViolated, f"edges {a},{b}: unexpected intersection {g}")


def test_corrupted_squares_area_form_and_canonical_agree():
    p, sels, pc = _ledger((11, 13, 14), 1)
    lat, vals = pc.lattice, list(pc.area._ints)
    for i in range(p.n):
        for d in (1, -1):
            off = sels[:i] + (sels[i] + d,) + sels[i + 1:]
            assert _agree(p, off, pc) == (LemmaViolated, f"edge {i}: square {sels[i]} != {off[i]}")
    for slot in range(lat.rank):
        off = vals[:slot] + [vals[slot] + 1] + vals[slot + 1:]
        bad = dataclasses.replace(pc, area=AreaForm.from_scaled(off, pc.area.denominator))
        assert _agree(p, sels, bad)[1].endswith("area does not match edge length")
    for slot in range(lat.rank):
        moved = Lattice(lat.head, lat.rank, canonical=vadd(lat.canonical, {slot: 1}))
        assert _agree(p, sels, dataclasses.replace(pc, lattice=moved)) == (
            LemmaViolated, "edge classes do not sum to the anticanonical class")
    bare = Lattice(lat.head, lat.rank)
    assert _agree(p, sels, dataclasses.replace(pc, lattice=bare)) == (
        MissingClasses, "ledger lattice has no canonical class")


def test_a_rank_off_by_one_agrees():
    """A lattice one slot larger, with K's extra slot cancelled so the sum
    holds: only the rank comparison sees it."""
    p, sels, pc = _ledger((5, 7, 9), 2)
    lat = pc.lattice
    wider = Lattice(lat.head, lat.rank + 1, canonical=lat.canonical)
    assert _agree(p, sels, dataclasses.replace(pc, lattice=wider)) == (
        LemmaViolated, "canonical square does not match the rank")


# --- the cross-multiplied area -----------------------------------------------------------


@pytest.mark.parametrize("triple,pres", SMALL)
def test_a_denominator_not_in_lowest_terms_cross_multiplies(triple, pres, monkeypatch):
    """Scale a chopped polygon's integer points and denominator by 6: the
    ledger's area form reduces to the old denominator, so the areas are
    cross-multiplied, and both verifiers agree on it and on a corruption."""
    q = build_resolution(*triple, presentation=pres).polygon
    p = LatticePolygon(tuple((6 * x, 6 * y) for x, y in q.ipts), 6 * q.den)
    cross = []
    real = polygon_mod._verify_classes

    def spy(p, sels, pc):
        cross.append(pc.area.denominator != p.den)
        return real(p, sels, pc)

    monkeypatch.setattr(polygon_mod, "_verify_classes", spy)
    pc = assign_classes(p)
    monkeypatch.undo()
    assert cross == [True] and pc.area.denominator == q.den
    sels = p.selfints
    assert _agree(p, sels, pc) is None
    vals = list(pc.area._ints)
    for slot in range(pc.lattice.rank):
        off = vals[:slot] + [vals[slot] - 1] + vals[slot + 1:]
        bad = dataclasses.replace(pc, area=AreaForm.from_scaled(off, pc.area.denominator))
        assert _agree(p, sels, bad)[1].endswith("area does not match edge length")
