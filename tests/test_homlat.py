"""Intersection lattices, area forms, exceptional enumeration, conversions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wpp.errors import (
    MissingClasses,
    RankMismatch,
    Unclassified,
    UserInputError,
    WppError,
)
from wpp.homlat import (
    CP2_HEAD,
    NEG_INF,
    AreaForm,
    Lattice,
    _check_key_bounds,
    cp2_lattice,
    connecting_log_exceptional,
    dense,
    enumerate_exceptional,
    exceptional_gap,
    functional_kernel_basis,
    generic_lattice,
    hirz_lattice,
    log_exceptional,
    log_kodaira,
    mat_inverse_int,
    mat_vec,
    sparse,
    to_cp2,
    transport_area,
    unit,
)
from wpp.resolution import build_resolution


# reference copies of code that only these tests called


def ref_is_exceptional_class(lat, x):
    return lat.sq(x) == -1 and lat.k_pair(x) == -1


def ref_AreaForm(values):
    """The form of the Fraction values: over their least common denominator,
    in lowest terms."""
    den = math.lcm(*(v.denominator for v in values)) if values else 1
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = math.gcd(den, *ints)
    return AreaForm._lowest(tuple(v // g for v in ints), den // g)


def ref_values(area):
    return tuple(Fraction(v, area.denominator) for v in area._ints)


class TestLatticePairings:
    def test_cp2_diagonal(self):
        lat = cp2_lattice(3)
        h = sparse((1, 0, 0, 0))
        e1 = sparse((0, 1, 0, 0))
        e2 = sparse((0, 0, 1, 0))
        assert lat.sq(h) == 1
        assert lat.sq(e1) == -1
        assert lat.pair(h, e1) == 0
        assert lat.pair(e1, e2) == 0
        assert lat.k_pair(h) == -3
        assert lat.k_pair(e1) == -1
        assert lat.sq(lat.canonical) == 9 - 3

    def test_hirz_pairings(self):
        for k in range(0, 5):
            lat = hirz_lattice(k)
            f = sparse((1, 0))
            b = sparse((0, 1))
            assert lat.sq(f) == 0
            assert lat.sq(b) == -k
            assert lat.pair(f, b) == 1
            assert lat.k_pair(f) == -2
            assert lat.k_pair(b) == k - 2
            assert lat.sq(lat.canonical) == 8

    def test_generic_matches_gram(self):
        g = ((-2, 1), (1, -3))
        lat = generic_lattice(g, canonical=sparse((0, 1)))
        assert lat.sq(sparse((1, 0))) == -2
        assert lat.pair(sparse((1, 0)), sparse((0, 1))) == 1
        assert lat.pair(sparse((1, 1)), sparse((2, 1))) == -4  # (1, 1) . (-3, -1)
        assert lat.gram_rows() == g

    def test_rank_mismatch(self):
        # the rank is checked where a class is made, not on every pairing
        with pytest.raises(RankMismatch):
            sparse((1, 0, 0), 2)
        with pytest.raises(RankMismatch):
            dense({0: 1, 3: -1}, 3)
        with pytest.raises(RankMismatch):
            dense({-1: 1}, 3)
        with pytest.raises(RankMismatch):
            generic_lattice(((-2,),), canonical={1: 1})
        assert dense(sparse((0, 4, 0, -2)), 4) == (0, 4, 0, -2)
        assert sparse((0, 4, 0, -2), 4) == {1: 4, 3: -2}

    def test_adjunction_and_index(self):
        lat = cp2_lattice(2)
        line = sparse((1, 0, 0))
        conic = sparse((2, 0, 0))
        # adjunction x.x + K.x + 2 = 0 and the index x.x - K.x
        assert lat.sq(line) + lat.k_pair(line) + 2 == 0
        assert lat.sq(conic) + lat.k_pair(conic) + 2 == 0
        exc = sparse((0, 1, 0))
        assert ref_is_exceptional_class(lat, exc)
        assert not ref_is_exceptional_class(lat, line)
        assert lat.sq(line) - lat.k_pair(line) == 4

    def test_head_is_validated(self):
        # a head smaller than the rank leaves (-1) tail slots
        lat = Lattice(((1, 0), (0, -1)), 3)
        assert lat.sq({2: 1}) == -1 and lat.pair({0: 1, 2: 1}, {1: 1, 2: 1}) == -1
        assert lat.gram_rows() == ((1, 0, 0), (0, -1, 0), (0, 0, -1))
        with pytest.raises(RankMismatch, match="^head of size 2 exceeds rank 1$"):
            Lattice(((1, 0), (0, -1)), 1)
        with pytest.raises(RankMismatch, match="^head gram is not square$"):
            Lattice(((1, 0), (0,)), 3)
        with pytest.raises(RankMismatch, match="^head gram is not square$"):
            generic_lattice(((1, 0, 0), (0, -1, 0)))
        with pytest.raises(WppError, match="^head gram is not symmetric$"):
            Lattice(((1, 2), (0, -1)), 3)

    def test_generic_without_gram(self):
        # an empty head: every slot is a (-1) tail slot; no canonical class
        lat = Lattice((), 2)
        assert lat.pair({0: 1}, {1: 1}) == 0 and lat.sq({0: 1, 1: 1}) == -2
        assert lat.blowup().gram_rows() == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
        with pytest.raises(MissingClasses):
            lat.k_pair({0: 1})
        with pytest.raises(MissingClasses):
            lat.blowup().k_pair({0: 1})

    def test_blowup_extends(self):
        lat = cp2_lattice(1)
        lat2 = lat.blowup()
        assert lat2.rank == 3
        assert lat2.canonical == {0: -3, 1: 1, 2: 1}
        gen = generic_lattice(((-2,),), canonical={}).blowup()
        assert gen.canonical == {1: 1}
        assert gen.sq({1: 1}) == -1
        assert gen.pair({0: 1}, {1: 1}) == 0


# reference copy of the full r x r conversion that the leading-block path
# replaced; kept only to check the block path against it
def _ref_mat_vec(m, x):
    return tuple(sum(v * x[k] for k, v in enumerate(row) if v) for row in m)


def _ref_mat_mul(a, b):
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for k, v in enumerate(row):
            if v:
                acc = [x + v * y for x, y in zip(acc, b[k])]
        out.append(tuple(acc))
    return tuple(out)


def _ref_identity(r):
    return tuple(unit(r, i) for i in range(r))


def _ref_to_cp2(lat):
    r = lat.rank
    k = -lat.head[1][1]
    fl = k // 2
    shear = [list(unit(r, i)) for i in range(r)]
    shear[0][1] = -fl
    unshear = [list(unit(r, i)) for i in range(r)]
    unshear[0][1] = fl
    if k % 2 == 1:
        m1 = [list(unit(r, i)) for i in range(r)]
        m1[1][0] = -1
        m1_inv = [list(unit(r, i)) for i in range(r)]
        m1_inv[1][0] = 1
    else:
        if r < 3:
            raise WppError("even-k conversion needs an exceptional basis vector")
        m1 = [list(unit(r, i)) for i in range(r)]
        m1[0] = [1, 1, 1] + [0] * (r - 3)
        m1[1] = [0, -1, -1] + [0] * (r - 3)
        m1[2] = [-1, 0, -1] + [0] * (r - 3)
        m1_inv = [list(unit(r, i)) for i in range(r)]
        m1_inv[0] = [1, 1, 0] + [0] * (r - 3)
        m1_inv[1] = [1, 0, 1] + [0] * (r - 3)
        m1_inv[2] = [-1, -1, -1] + [0] * (r - 3)
    as_mat = lambda m: tuple(tuple(row) for row in m)  # noqa: E731
    t = _ref_mat_mul(as_mat(m1), as_mat(shear))
    t_inv = _ref_mat_mul(as_mat(unshear), as_mat(m1_inv))
    assert _ref_mat_mul(t, t_inv) == _ref_identity(r)
    return cp2_lattice(r - 1), t, t_inv


def _ref_transport_area(area, t_inv):
    r = len(t_inv)
    return ref_AreaForm(
        tuple(area.area(sparse(tuple(t_inv[i][j] for i in range(r)))) for j in range(r))
    )


class TestConversions:
    def test_mat_inverse_int(self):
        m = ((1, 2), (0, 1))
        inv = mat_inverse_int(m)
        assert inv == ((1, -2), (0, 1))
        with pytest.raises(WppError):
            mat_inverse_int(((2, 0), (0, 1)))  # determinant 2

    @pytest.mark.parametrize("k,extra", [(0, 1), (1, 0), (1, 3), (2, 2), (3, 1), (4, 2)])
    def test_to_cp2_preserves_pairings(self, k, extra):
        lat = hirz_lattice(k, extra)
        out, t, t_inv = to_cp2(lat)
        assert out.head == CP2_HEAD and out.rank == lat.rank
        r = lat.rank
        b = min(3, r)
        assert len(t) == len(t_inv) == b
        assert all(len(row) == b for row in t + t_inv)
        ident = tuple({i: 1} for i in range(r))
        for i in range(r):
            for j in range(r):
                x, y = ident[i], ident[j]
                assert lat.pair(x, y) == out.pair(mat_vec(t, x), mat_vec(t, y))
        assert mat_vec(t, lat.canonical) == out.canonical
        for i in range(r):
            assert mat_vec(t_inv, mat_vec(t, ident[i])) == ident[i]
            assert mat_vec(t, mat_vec(t_inv, ident[i])) == ident[i]

    def test_to_cp2_even_needs_rank3(self):
        with pytest.raises(WppError):
            to_cp2(hirz_lattice(2))

    def test_cp2_and_generic(self):
        lat = cp2_lattice(4)
        out, t, t_inv = to_cp2(lat)
        assert out is lat
        assert t == t_inv == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        x = sparse((3, -1, 2, 5, 7))
        assert mat_vec(t, x) == x
        with pytest.raises(WppError):
            to_cp2(generic_lattice(((-2,),)))

    def test_mat_vec_applies_the_block_only(self):
        blk = ((1, 2), (3, 4))
        assert mat_vec(blk, sparse((1, 1, 5, 6))) == sparse((3, 7, 5, 6))
        assert mat_vec(blk, sparse((1, 1))) == sparse((3, 7))
        assert mat_vec((), sparse((5, 6))) == sparse((5, 6))
        # a head slot that becomes zero is dropped, one that was absent appears
        assert mat_vec(((1, -1), (0, 1)), {0: 1, 1: 1, 7: 2}) == {1: 1, 7: 2}
        assert mat_vec(((1, 0), (1, 1)), {0: 2}) == {0: 2, 1: 2}

    def test_transport_area(self):
        lat = hirz_lattice(1, 1)
        area = AreaForm.from_scaled((4, 6, 1), 2)
        out, t, t_inv = to_cp2(lat)
        moved = transport_area(area, t_inv)
        for x in ((1, 0, 0), (0, 1, 0), (1, 1, 1)):
            assert area.area(sparse(x)) == moved.area(mat_vec(t, sparse(x)))

    @pytest.mark.parametrize("k", range(10))
    def test_blocks_match_full_matrices(self, k):
        for extra in range(21):
            lat = hirz_lattice(k, extra)
            r = lat.rank
            if k % 2 == 0 and extra == 0:
                with pytest.raises(WppError):
                    _ref_to_cp2(lat)
                with pytest.raises(WppError):
                    to_cp2(lat)
                continue
            ref_out, ref_t, ref_inv = _ref_to_cp2(lat)
            out, t, t_inv = to_cp2(lat)
            assert out == ref_out
            classes = [unit(r, i) for i in range(r)]
            classes.append(dense(lat.canonical, r))
            classes.append(tuple((3 * i + k) % 7 - 3 for i in range(r)))
            for x in classes:
                assert mat_vec(t, sparse(x)) == sparse(_ref_mat_vec(ref_t, x))
                assert mat_vec(t_inv, sparse(x)) == sparse(_ref_mat_vec(ref_inv, x))
            assert mat_vec(t, lat.canonical) == out.canonical
            area = ref_AreaForm(tuple(Fraction(i + 1, (i % 4) + 2) for i in range(r)))
            moved = transport_area(area, t_inv)
            ref_moved = _ref_transport_area(area, ref_inv)
            assert moved == ref_moved
            assert moved.denominator == ref_moved.denominator
            for x in classes:
                assert area.area(sparse(x)) == moved.area(mat_vec(t, sparse(x)))


class TestAreaForm:
    def test_basic(self):
        a = AreaForm.from_scaled((3, 2), 6)
        assert a.denominator == 6
        assert a.area(sparse((2, 3))) == 2
        assert a.area_scaled(sparse((2, 3))) == 12
        assert a.area_scaled({1: -3}) == -6
        assert a.area({}) == 0
        assert a.rank == 2

    def test_rank_check(self):
        # a class of the wrong length is refused where it is made sparse
        a = AreaForm.from_scaled((1,), 1)
        with pytest.raises(RankMismatch):
            a.area(sparse((1, 2), a.rank))

    @given(st.lists(st.integers(-500, 500), max_size=6), st.integers(1, 360))
    def test_from_scaled_matches_fraction_values(self, ints, den):
        a = AreaForm.from_scaled(ints, den)
        b = ref_AreaForm(tuple(Fraction(v, den) for v in ints))
        assert a == b
        assert (ref_values(a), a._ints, a.denominator) == (ref_values(b), b._ints, b.denominator)

    @given(st.lists(st.fractions(max_denominator=40), min_size=1, max_size=5))
    def test_scaled_orders_match(self, vals):
        a = ref_AreaForm(tuple(vals))
        xs = [{i: 1} for i in range(len(vals))]
        for i in range(len(vals)):
            for j in range(len(vals)):
                lhs = a.area(xs[i]) < a.area(xs[j])
                rhs = a.area_scaled(xs[i]) < a.area_scaled(xs[j])
                assert lhs == rhs


class TestLogKodaira:
    @pytest.mark.parametrize(
        "area,square,out",
        [
            (Fraction(-1), 5, NEG_INF),
            (Fraction(3), -1, NEG_INF),
            (Fraction(-2), -2, NEG_INF),
            (Fraction(0), 0, 0),
            (Fraction(5), 0, 1),
            (Fraction(5), 7, 2),
        ],
    )
    def test_table(self, area, square, out):
        assert log_kodaira(area, square) == out

    def test_unclassified(self):
        with pytest.raises(Unclassified):
            log_kodaira(Fraction(0), 3)


class TestExceptionalEnumeration:
    def test_cp2_two_points_golden(self):
        lat = cp2_lattice(2)
        found = enumerate_exceptional(lat)
        assert found.complete
        assert set(found.classes) == {(0, 0, 1), (0, 1, 0), (1, -1, -1)}

    def test_every_class_is_exceptional(self):
        for n in range(1, 7):
            lat = cp2_lattice(n)
            found = enumerate_exceptional(lat)
            assert found.complete
            for x in found.classes:
                assert ref_is_exceptional_class(lat, sparse(x))

    def test_count_grows_with_points(self):
        # classical counts of exceptional curves on del Pezzo blowups
        counts = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
        for n, expect in counts.items():
            lat = cp2_lattice(n)
            found = enumerate_exceptional(lat)
            assert found.complete
            assert len(found.classes) == expect

    def test_incomplete_beyond_eight(self):
        lat = cp2_lattice(9)
        found = enumerate_exceptional(lat, coeff_bound=12)
        assert not found.complete
        assert (0,) * 9 + (1,) in found.classes

    def test_area_filter(self):
        lat = cp2_lattice(2)
        area = AreaForm.from_scaled((3, 1, 5), 1)
        found = enumerate_exceptional(lat, area)
        # H - e1 - e2 has area -3 and is filtered out
        assert set(found.classes) == {(0, 0, 1), (0, 1, 0)}
        capped = enumerate_exceptional(lat, area, area_cap=Fraction(2))
        assert set(capped.classes) == {(0, 1, 0)}

    def test_log_and_connecting_filters(self):
        lat = cp2_lattice(2)
        area = AreaForm.from_scaled((3, 1, 1), 1)
        comp = [(1, -1, -1)]  # a boundary component separating e1, e2
        log = log_exceptional(lat, area, comp)
        assert (1, -1, -1) not in log.classes  # pairs -1 with itself
        conn = connecting_log_exceptional(lat, area, [], [(0, 1, 0)], [(0, 0, 1)])
        assert conn.classes == ((1, -1, -1),)

    def test_gap_result(self):
        lat = cp2_lattice(2)
        area = AreaForm.from_scaled((3, 1, 1), 1)
        gap = exceptional_gap(lat, area, [], [(0, 1, 0)], [(0, 0, 1)])
        assert gap.value == 1  # area of H - e1 - e2
        assert gap.certified
        assert gap.witness == (1, -1, -1)
        empty = exceptional_gap(
            lat, area, [], [(0, 1, 0)], [(0, 1, 0)], area_cap=Fraction(1, 100)
        )
        assert empty.value == 0 and empty.witness is None

    def test_area_form_of_another_rank_is_refused(self):
        """A form one slot short once gave the gap 0, certified, and one slot
        long an IndexError; both are refused before any search."""
        rp = build_resolution(2, 3, 5)
        lat, area = rp.lattice, rp.area
        groups = {r: rp.string_classes(r) for r in "abc"}
        comps = tuple(x for r in "abc" for x in groups[r])
        gap = exceptional_gap(lat, area, comps, groups["b"], groups["c"])
        assert (gap.value, gap.certified, gap.witness) == (Fraction(383, 288), True, unit(7, 6))
        for ints in (area._ints[:-1], area._ints + (1,)):
            bad = AreaForm.from_scaled(ints, area.denominator)
            msg = f"^area form of rank {len(ints)} on a lattice of rank 7$"
            with pytest.raises(RankMismatch, match=msg):
                exceptional_gap(lat, bad, comps, groups["b"], groups["c"])
            with pytest.raises(RankMismatch, match=msg):
                enumerate_exceptional(lat, bad)

    def test_needs_standard_canonical(self):
        lat = generic_lattice(((-1,),), canonical=None)
        with pytest.raises((MissingClasses, WppError)):
            enumerate_exceptional(lat)

    def test_ruled_surface_lattice_is_converted_and_back(self):
        # F_1 blown up five times is the cubic surface: 27 exceptional classes
        for k in (1, 2, 3):
            lat = hirz_lattice(k, 5)
            found = enumerate_exceptional(lat)
            assert found.complete
            assert len(found.classes) == 27
            assert all(ref_is_exceptional_class(lat, sparse(x)) for x in found.classes)
            assert list(found.classes) == sorted(found.classes)

    def test_packed_key_bounds(self):
        assert enumerate_exceptional(cp2_lattice(2), coeff_bound=31).complete
        # every exceptional class has a coefficient of absolute value 1
        assert enumerate_exceptional(cp2_lattice(2), coeff_bound=0).classes == ()
        for bad in (32, -1):
            with pytest.raises(UserInputError):
                enumerate_exceptional(cp2_lattice(2), coeff_bound=bad)
        # 272 * (31^2 + 1) = 261664 < 512^2 <= 273 * 962
        _check_key_bounds(272, 31)
        with pytest.raises(UserInputError):
            enumerate_exceptional(cp2_lattice(273), coeff_bound=31)
        with pytest.raises(UserInputError):
            enumerate_exceptional(hirz_lattice(1, 272), coeff_bound=31)
        _check_key_bounds(512 * 512 - 1, 0)
        with pytest.raises(UserInputError):
            _check_key_bounds(512 * 512, 0)
        with pytest.raises(UserInputError):
            _check_key_bounds(2, 32)


class TestKernelBasis:
    @given(
        st.lists(st.integers(-9, 9), min_size=2, max_size=6).filter(
            lambda g: any(g)
        )
    )
    def test_splitting(self, g):
        import math

        content = math.gcd(*[abs(v) for v in g])
        if content != 1:
            return
        gv = tuple(g)
        rows, witness = functional_kernel_basis(gv)
        assert len(rows) == len(gv) - 1
        for row in rows:
            assert sum(a * b for a, b in zip(row, gv)) == 0
        assert sum(a * b for a, b in zip(witness, gv)) == 1
        mat = list(rows) + [witness]
        assert abs(_det_int(mat)) == 1


def _det_int(rows) -> int:
    """Fraction-free determinant by Bareiss, for small integer matrices."""
    m = [list(r) for r in rows]
    n = len(m)
    denom = 1
    sign = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // denom
            m[i][k] = 0
        denom = m[k][k]
    return sign * m[n - 1][n - 1]
