"""Differential and mutation tests: the Torelli comparison decided exactly.

torelli_compare compares the labelled gram matrices and areas of the
boundary classes. Two references are kept here:

- a dense exact solve for the linear map M with M L1_i = L2_i on the
  labelled classes, which is then checked for integrality, the pairing, the
  canonical class and the area form;
- the earlier search over the permutations of the exceptional basis vectors
  that fix the line class, which can only find some of the isometries.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations

import pytest

from wpp.errors import LemmaViolated, WppError
from wpp.homlat import AreaForm, dense, sparse, unit, vadd, vsub
from wpp.resolution import build_resolution, torelli_compare
from wpp.scan import coprime_triples

THIRD_FIFTH = (Fraction(1, 3), Fraction(1, 5))


def labelled(rp):
    """The labelled classes as dense tuples, read through the dense doors."""
    out = [x for role in "abc" for x in rp.string_classes(role)]
    return out + [rp.connector_class(name) for name in ("N_a", "N_b", "N_c")]


def dense_pair(lat, x, y):
    return lat.pair(sparse(x), sparse(y))


def dense_area(area, x):
    return area.area(sparse(x))


def ref_values(area):
    """The area of every basis vector, as the deleted AreaForm.values gave it."""
    return tuple(Fraction(v, area.denominator) for v in area._ints)


# --- reference: dense solve ---------------------------------------------------------


def dense_label_map(r1, r2):
    """The r x r rational matrix M with M L1_i = L2_i for every label i, or
    None when the labelled relations differ. Gauss-Jordan on the rows of
    [L1 | L2], so that L1 M^T = L2."""
    rows = [[Fraction(v) for v in x + y] for x, y in zip(labelled(r1), labelled(r2))]
    r = r1.lattice.rank
    piv_row = 0
    for col in range(r):
        k = next((i for i in range(piv_row, len(rows)) if rows[i][col]), None)
        if k is None:
            return None  # the labelled classes do not span
        rows[piv_row], rows[k] = rows[k], rows[piv_row]
        p = rows[piv_row][col]
        rows[piv_row] = [v / p for v in rows[piv_row]]
        for i, row in enumerate(rows):
            if i != piv_row and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[piv_row])]
        piv_row += 1
    if any(any(row[r:]) for row in rows[r:]):
        return None
    mt = [row[r:] for row in rows[:r]]
    return [[mt[j][i] for j in range(r)] for i in range(r)]


def apply(m, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


def dense_properties(r1, r2):
    """(exists, integral, isometry, fixes K, preserves area) of the label map."""
    m = dense_label_map(r1, r2)
    if m is None:
        return (False, False, False, False, False)
    lat, r = r1.lattice, r1.lattice.rank
    cols = [apply(m, unit(r, i)) for i in range(r)]
    integral = all(v.denominator == 1 for row in m for v in row)
    isometry = all(
        dense_pair(lat, cols[i], cols[j]) == dense_pair(lat, unit(r, i), unit(r, j))
        for i in range(r) for j in range(i, r)
    )
    k = dense(lat.canonical, r)
    fixes_k = apply(m, k) == k
    area = all(dense_area(r2.area, cols[i]) == ref_values(r1.area)[i] for i in range(r))
    return (True, integral, isometry, fixes_k, area)


# --- reference: the permutation search ----------------------------------------------


def ref_permutation_search(r1, r2):
    """Image slot of each exceptional vector under a permutation fixing the
    line class that matches both area forms and every labelled class, or None."""
    cls1, cls2 = labelled(r1), labelled(r2)
    rank = r1.lattice.rank
    if rank != r2.lattice.rank or len(cls1) != len(cls2):
        return None
    if any(x[0] != y[0] for x, y in zip(cls1, cls2)):
        return None
    if ref_values(r1.area)[0] != ref_values(r2.area)[0]:
        return None
    n = rank - 1
    e1, e2 = ref_values(r1.area)[1:], ref_values(r2.area)[1:]
    cand = [
        [j for j in range(n)
         if e2[j] == e1[i] and all(x[i + 1] == y[j + 1] for x, y in zip(cls1, cls2))]
        for i in range(n)
    ]
    assign = [None] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            return True
        for j in cand[i]:
            if not used[j]:
                used[j] = True
                assign[i] = j
                if backtrack(i + 1):
                    return True
                used[j] = False
                assign[i] = None
        return False

    return tuple(assign) if backtrack(0) else None


def presentation_pairs(max_c):
    for t in coprime_triples(max_c):
        built = [build_resolution(*t, presentation=i) for i in range(1, 7)]
        for other in built[1:]:
            yield built[0], other


# --- differential tests -------------------------------------------------------------


def test_agrees_with_dense_map_up_to_c10():
    pairs = list(presentation_pairs(10))
    # pairs across the two schedules bring in maps that move area
    pairs += [
        (build_resolution(*t), build_resolution(*t, presentation=i, schedule=THIRD_FIFTH))
        for t in coprime_triples(10) for i in (1, 4)
    ]
    assert len(pairs) == 100 + 40
    verdicts = []
    for r1, r2 in pairs:
        props = dense_properties(r1, r2)
        assert torelli_compare(r1, r2) == all(props)
        verdicts.append(all(props))
        perm = ref_permutation_search(r1, r2)
        if perm is not None:
            # the search's permutation matrix is the forced label map
            r = r1.lattice.rank
            target = [0] + [j + 1 for j in perm]
            m = dense_label_map(r1, r2)
            assert all(m[target[i]][i] == 1 for i in range(r))
            assert sum(v != 0 for row in m for v in row) == r
    assert all(verdicts[:100]) and not all(verdicts[100:])


def test_every_presentation_pair_up_to_c20():
    found = 0
    for r1, r2 in presentation_pairs(20):
        assert torelli_compare(r1, r2)
        found += ref_permutation_search(r1, r2) is not None
    assert found == 193


# --- negative cases and mutations ---------------------------------------------------


def test_schedule_pair_is_not_isometric():
    """The label map between the default and the 1/3,1/5 resolutions of
    (2, 3, 5) is an integral isometry fixing K, but it moves area."""
    r1 = build_resolution(2, 3, 5)
    r2 = build_resolution(2, 3, 5, schedule=THIRD_FIFTH)
    assert dense_properties(r1, r2) == (True, True, True, True, False)
    assert not torelli_compare(r1, r2)
    assert not torelli_compare(r2, r1)


@pytest.mark.parametrize("triple", [(2, 3, 5), (11, 13, 14)])
def test_sum_and_area_preserving_class_corruption(triple):
    """Moving an area-zero class v from one labelled class to another keeps
    -K = sum of the classes and every labelled area; only the gram sees it."""
    rp = build_resolution(*triple)
    a1, a2 = (rp.area.area_scaled({s: 1}) for s in (1, 2))
    v = {1: a2, 2: -a1}
    ids = [i for role in "abc" for i in rp.strings[role].edge_ids]
    for i, j in combinations(ids[:4], 2):
        cls = list(rp.edge_classes)
        cls[i] = vadd(cls[i], v)
        cls[j] = vsub(cls[j], v)
        bad = dataclasses.replace(rp, edge_classes=tuple(cls))
        assert [dense_area(rp.area, x) for x in labelled(bad)] == [
            dense_area(rp.area, x) for x in labelled(rp)
        ]
        assert not torelli_compare(rp, bad)
        assert not torelli_compare(bad, rp)


def test_squares_alone_tell_a_reflected_labelling_apart():
    """Relabel (2, 3, 5) by the reflection of its boundary cycle that fixes
    N_c: S_a <-> S_b (one component each), N_a <-> N_b, S_c reversed. Every
    off-diagonal labelled entry and the class sum are kept, and with both
    area forms zeroed only the squares (S_a -2, S_b -3) differ."""
    rp = build_resolution(2, 3, 5)
    sa, sb, sc = (rp.strings[r] for r in "abc")
    na, nb = rp.connectors["N_a"], rp.connectors["N_b"]
    flat = AreaForm.from_scaled([0] * rp.lattice.rank, 1)
    plain = dataclasses.replace(rp, area=flat)
    mirrored = dataclasses.replace(
        plain,
        strings={
            "a": dataclasses.replace(sa, edge_ids=sb.edge_ids),
            "b": dataclasses.replace(sb, edge_ids=sa.edge_ids),
            "c": dataclasses.replace(sc, edge_ids=sc.edge_ids[::-1]),
        },
        connectors={**rp.connectors, "N_a": dataclasses.replace(na, edge_id=nb.edge_id),
                    "N_b": dataclasses.replace(nb, edge_id=na.edge_id)},
    )
    lat, x, y = rp.lattice, labelled(plain), labelled(mirrored)
    m = len(x)
    assert all(
        dense_pair(lat, x[i], x[j]) == dense_pair(lat, y[i], y[j])
        for i in range(m) for j in range(m) if i != j
    )
    assert [dense_pair(lat, v, v) for v in x] != [dense_pair(lat, v, v) for v in y]
    assert torelli_compare(plain, plain)
    assert not torelli_compare(plain, mirrored)


@pytest.mark.parametrize("slot", [0, 1, -1])
def test_area_corruption(slot):
    rp = build_resolution(11, 13, 14, presentation=3)
    # the area of one basis vector raised by 1/7, over the denominator 7 den
    ints = [7 * v for v in rp.area._ints]
    ints[slot] += rp.area.denominator
    bad = dataclasses.replace(rp, area=AreaForm.from_scaled(ints, 7 * rp.area.denominator))
    assert torelli_compare(rp, rp)
    assert not torelli_compare(rp, bad)


def test_class_sum_off_minus_k_raises():
    rp = build_resolution(5, 7, 9)
    eid = rp.strings["b"].edge_ids[0]
    cls = list(rp.edge_classes)
    cls[eid] = vadd(cls[eid], {0: 1})
    bad = dataclasses.replace(rp, edge_classes=tuple(cls))
    with pytest.raises(LemmaViolated, match="do not sum to -K"):
        torelli_compare(rp, bad)
    with pytest.raises(LemmaViolated, match="do not sum to -K"):
        torelli_compare(bad, rp)


def test_different_triples_raise():
    with pytest.raises(WppError, match="different weight triples"):
        torelli_compare(build_resolution(2, 3, 5), build_resolution(3, 4, 5))
