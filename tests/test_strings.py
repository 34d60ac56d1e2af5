"""Determinant sequences, blowup moves, fiber classes at sign changes."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpp.arith import eval_neg_cf, hj_expand
from wpp.errors import (
    BadIndex,
    LemmaViolated,
    NotAdjacent,
    NotAtSignChange,
    NotBlowdownable,
    RankMismatch,
    WppError,
)
from wpp.homlat import cp2_lattice, dense, hirz_lattice, sparse
from wpp.strings import (
    DivisorConfig,
    abstract_chain,
    adjacent_ones_check,
    blowdown,
    chain_config,
    delta_sequence,
    exterior_blowup,
    fiber_class,
    fiber_profile,
    half_toric_blowup,
    is_negative_definite,
    non_toric_blowup,
    resolution_fiber_class,
    selfint_blowdown_moves,
    toric_blowup,
    verify_endpoint_unit,
    xi_invariant,
)


def tridiagonal_det(selfints) -> int:
    """Independent oracle: Bareiss determinant of the negated chain matrix.

    The matrix has diagonal -s_i and off-diagonal -1; its determinant must
    agree with the closed recurrence used everywhere else.
    """
    n = len(selfints)
    m = [[0] * n for _ in range(n)]
    for i, s in enumerate(selfints):
        m[i][i] = -s
        if i + 1 < n:
            m[i][i + 1] = m[i + 1][i] = -1
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
    return sign * m[n - 1][n - 1] if n else 1


class TestDeltaSequence:
    def test_golden_figure_chain(self):
        ds = delta_sequence((-3, -2, -1, -1, -2))
        assert ds.deltas == (1, 3, 5, 2, -3, -8)
        assert ds.first_sign_change() == 4
        assert not ds.is_negative_definite
        assert ds.det == -8

    def test_golden_truncated_combined(self):
        ds = delta_sequence((-2, -3, -2, -2, -1, -3))
        assert ds.deltas == (1, 2, 5, 8, 11, 3, -2)
        assert ds.first_sign_change() == 6

    def test_negative_definite_hj(self):
        assert is_negative_definite((-2, -2, -2))
        assert is_negative_definite((-3, -5))
        assert not is_negative_definite((-1, -1))

    def test_sign_change_none(self):
        assert delta_sequence((-2, -2)).first_sign_change() is None

    def test_against_bareiss_oracle(self):
        rng = random.Random(20260817)
        for _ in range(500):
            n = rng.randint(1, 10)
            s = tuple(rng.randint(-6, -1) for _ in range(n))
            ds = delta_sequence(s)
            assert ds.det == tridiagonal_det(s)
            # leading minors agree too
            for k in range(n + 1):
                assert ds.deltas[k] == tridiagonal_det(s[:k])

    @given(st.lists(st.integers(-9, 3), min_size=1, max_size=9))
    def test_consecutive_coprime_any_entries(self, s):
        ds = delta_sequence(tuple(s))
        import math

        for i in range(1, len(ds.deltas)):
            assert math.gcd(ds.deltas[i - 1], ds.deltas[i]) == 1

    def test_definite_iff_all_minors_positive(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 8)
            s = tuple(rng.randint(-5, -1) for _ in range(n))
            ds = delta_sequence(s)
            minors = [tridiagonal_det(s[:k]) for k in range(1, n + 1)]
            assert ds.is_negative_definite == all(v > 0 for v in minors)


@dataclass(frozen=True)
class ref_OrientedString:
    """Self-intersection sequence of a linear chain of spheres, read in order;
    the string type the package had before the integer string values."""

    selfints: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.selfints)

    def bs(self) -> tuple[int, ...]:
        """Entries b_i = -s_i of the continued fraction."""
        return tuple(-s for s in self.selfints)

    def reversed_(self) -> "ref_OrientedString":
        return ref_OrientedString(tuple(reversed(self.selfints)))

    def value(self) -> Fraction:
        """[b_1, ..., b_n] as an exact rational."""
        return eval_neg_cf(self.bs())


def ref_string_from_fraction(p: int, q: int) -> ref_OrientedString:
    """The chain of spheres resolving a p/q cyclic quotient point."""
    return ref_OrientedString(tuple(-b for b in hj_expand(p, q)))


class TestOrientedString:
    def test_from_fraction(self):
        assert ref_string_from_fraction(5, 4).selfints == (-2, -2, -2, -2)
        assert ref_string_from_fraction(14, 5).selfints == (-3, -5)

    def test_value_round_trip(self):
        s = ref_string_from_fraction(11, 7)
        assert s.value() == Fraction(11, 7)
        assert s.reversed_().value() == Fraction(11, pow(7, -1, 11))

    def test_reversal_involution(self):
        s = ref_OrientedString((-2, -3, -5))
        assert s.reversed_().reversed_() == s
        assert len(s) == 3


class TestConfigs:
    def test_abstract_chain(self):
        cfg = abstract_chain((-2, -3, -2))
        assert cfg.selfints() == (-2, -3, -2)
        assert cfg.pair(0, 1) == 1
        assert cfg.pair(0, 2) == 0
        cfg.validate_chain()
        assert cfg.k_of(1) == 1  # adjunction: -2 - (-3)

    def test_chain_config_rejects_non_chain(self):
        lat = cp2_lattice(2)
        with pytest.raises(NotAdjacent):
            chain_config(lat, [sparse((0, 1, 0)), sparse((0, 0, 1))])  # disjoint spheres

    def test_chain_config_latticed(self):
        lat = cp2_lattice(2)
        cfg = chain_config(lat, [sparse((0, 1, 0)), sparse((1, -1, -1))])
        assert cfg.selfints() == (-1, -1)
        assert cfg.k_of(0) == -1


class TestBlowupMoves:
    def test_toric_inserts_between(self):
        cfg = abstract_chain((-2, -3))
        res = toric_blowup(cfg, 0, 1)
        assert res.config.selfints() == (-3, -1, -4)
        assert res.position == 1
        assert res.config.components[1].label.startswith("e")
        res.config.validate_chain()

    def test_toric_requires_adjacency(self):
        cfg = abstract_chain((-2, -2, -2))
        with pytest.raises(NotAdjacent):
            toric_blowup(cfg, 0, 2)
        with pytest.raises(BadIndex):
            toric_blowup(cfg, 0, 0)

    def test_half_toric_endpoints(self):
        cfg = abstract_chain((-2, -3))
        res = half_toric_blowup(cfg, 0)
        assert res.config.selfints() == (-1, -3, -3)
        assert res.position == 0
        res2 = half_toric_blowup(cfg, 1)
        assert res2.config.selfints() == (-2, -4, -1)
        assert res2.position == 2

    def test_non_toric_no_component(self):
        cfg = abstract_chain((-2,))
        res = non_toric_blowup(cfg, 0)
        assert res.config.selfints() == (-3,)
        assert res.config.lattice.rank == 2

    def test_exterior(self):
        cfg = abstract_chain((-2,))
        res = exterior_blowup(cfg)
        assert len(res.config) == 1
        res2 = exterior_blowup(cfg, include_component=True)
        assert res2.config.selfints() == (-2, -1)
        assert res2.config.pair(0, 1) == 0

    def test_xi_under_moves(self):
        assert xi_invariant((-2, -1, -3)) == -3
        seen_kinds = set()
        for s in [(-2, -1, -3), (-1, -2, -2), (-2, -2, -1)]:
            for kind, _i, nxt in selfint_blowdown_moves(s):
                seen_kinds.add(kind)
                change = xi_invariant(nxt) - xi_invariant(s)
                assert change == (0 if kind == "toric" else 1)
        assert seen_kinds == {"toric", "half_toric"}


class TestBlowdown:
    def test_round_trip_toric(self):
        cfg = abstract_chain((-2, -3, -4))
        res = toric_blowup(cfg, 1, 2)
        back = blowdown(res.config, res.position)
        assert back.kind == "toric"
        assert back.config.selfints() == (-2, -3, -4)
        assert back.config.classes() == cfg.classes()

    def test_round_trip_half_toric(self):
        cfg = abstract_chain((-2, -3))
        res = half_toric_blowup(cfg, 0)
        back = blowdown(res.config, 0)
        assert back.kind == "half_toric"
        assert back.config.classes() == cfg.classes()

    def test_round_trip_exterior(self):
        cfg = abstract_chain((-5,))
        res = exterior_blowup(cfg, include_component=True)
        back = blowdown(res.config, 1)
        assert back.kind == "exterior"
        assert back.config.classes() == cfg.classes()

    def test_kind_mapping_on_latticed_chain(self):
        lat = cp2_lattice(2)
        cfg = chain_config(lat, [sparse((0, 1, 0)), sparse((1, -1, -1)), sparse((0, 0, 1))])
        # middle component is not a basis vector: exercises the general path
        res = blowdown(cfg, 1)
        assert res.kind == "toric"
        assert res.config.selfints() == (0, 0)
        assert res.config.pair(0, 1) == 1
        assert res.config.k_of(0) == -2 and res.config.k_of(1) == -2
        assert res.config.lattice.sq(res.config.lattice.canonical) == 8

    def test_f1_section_general_path(self):
        # B is the head slot 1 with B.B = -1: the head rule leaves the head
        # G_00 + G_01^2 = (1), the projective plane; the kernel path is
        # covered by test_kind_mapping_on_latticed_chain
        lat = hirz_lattice(1)
        cfg = chain_config(lat, [sparse((1, 0)), sparse((0, 1))])
        res = blowdown(cfg, 1)
        assert res.kind == "half_toric"
        assert res.config.selfints() == (1,)
        assert res.config.k_of(0) == -3
        assert res.config.lattice.sq(res.config.lattice.canonical) == 9
        assert res.config.lattice == cp2_lattice(0)

    def test_rejects_bad_squares(self):
        cfg = abstract_chain((-2, -1, -2))
        with pytest.raises(NotBlowdownable):
            blowdown(cfg, 0)

    def test_rejects_three_neighbours(self):
        gram = [
            [-1, 1, 1, 1],
            [1, -2, 0, 0],
            [1, 0, -2, 0],
            [1, 0, 0, -2],
        ]
        from wpp.homlat import generic_lattice
        from wpp.strings import Component

        lat = generic_lattice(gram)
        cfg = DivisorConfig(
            lat, tuple(Component(f"v{i}", {i: 1}) for i in range(4))
        )
        with pytest.raises(NotBlowdownable):
            blowdown(cfg, 0)

    def test_det_invariant_under_interior_blowdown(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(2, 9)
            s = [rng.randint(-5, -2) for _ in range(n)]
            j = rng.randrange(n - 1)
            cfg = abstract_chain(tuple(s))
            res = toric_blowup(cfg, j, j + 1)
            grown = res.config.selfints()
            assert delta_sequence(grown).det == delta_sequence(tuple(s)).det


def _chain_fiber(selfints, upto):
    """abstract_chain(selfints) with its fiber class at upto, computed from the
    delta sequence of the given self-intersections."""
    cfg = abstract_chain(selfints)
    return cfg, fiber_class(cfg, delta_sequence(selfints).deltas, upto)


class TestFiberClasses:
    def test_golden_sign_change(self):
        cfg, fd = _chain_fiber((-3, -2, -1, -1, -2), 4)
        assert dense(fd.fclass, 5) == (1, 3, 5, 2, 0)
        assert (fd.p, fd.q) == (3, 2)
        assert cfg.lattice.sq(fd.fclass) == 6
        assert fiber_profile(cfg, fd) == (0, 0, 0, 3, 2)

    def test_profile_structure(self):
        # sign change at the very end of the chain: only p shows up
        cfg, fd = _chain_fiber((-2, -3, -2, -2, -1, -3), 6)
        assert (fd.p, fd.q) == (2, 3)
        assert fiber_profile(cfg, fd) == (0, 0, 0, 0, 0, 2)
        # interior sign change: p on the last summed component, q on the next
        cfg2, fd2 = _chain_fiber((-2, -3, -2, -2, -1, -3, -5), 6)
        assert (fd2.p, fd2.q) == (2, 3)
        assert fiber_profile(cfg2, fd2) == (0, 0, 0, 0, 0, 2, 3)

    def test_bad_index(self):
        cfg = abstract_chain((-2, -2))
        with pytest.raises(BadIndex):
            fiber_class(cfg, delta_sequence((-2, -2)).deltas, 0)

    def test_deltas_length_checked(self):
        s = (-3, -2, -1, -1, -2)
        cfg = abstract_chain(s)
        ds = delta_sequence(s).deltas
        # deltas of a shorter or longer chain: the wrong length is refused
        # before any entry is read, never an IndexError or a silent sum
        for bad in (ds[:-1], ds[:-2], ds + (1,), ()):
            for upto in (4, 5):
                with pytest.raises(RankMismatch):
                    fiber_class(cfg, bad, upto)

    def test_resolution_golden(self):
        rf = resolution_fiber_class(*_chain_fiber((-3, -2, -1, -1, -2), 4))
        assert [c.label for c in rf.config.components] == [
            "v1", "v2", "v3", "v4", "C2", "C3", "C1", "v5",
        ]
        assert dense(rf.fclass, 8) == (1, 3, 5, 2, 0, -2, -1, -1)
        assert rf.multiplicities == (2, 1, 1)
        assert rf.config.lattice.sq(rf.fclass) == 0
        assert rf.last_meeting == 5
        assert rf.config.components[rf.last_meeting].label == "C3"

    def test_resolution_swapped_pq(self):
        rf = resolution_fiber_class(*_chain_fiber((-2, -3, -2, -2, -1, -3, -5), 6))
        assert rf.base.p == 2 and rf.base.q == 3
        assert rf.multiplicities == (2, 1, 1)
        lat = rf.config.lattice
        for pos, comp in enumerate(rf.config.components):
            want = 1 if pos == rf.last_meeting else 0
            assert lat.pair(rf.fclass, comp.cls) == want

    def test_zero_one_short_path(self):
        rf = resolution_fiber_class(*_chain_fiber((-1, -1), 2))
        assert rf.multiplicities == ()
        assert rf.last_meeting is None
        assert dense(rf.fclass, 2) == (1, 1)

    def test_zero_one_mid_chain(self):
        rf = resolution_fiber_class(*_chain_fiber((-1, -1, -2), 2))
        assert rf.multiplicities == ()
        assert rf.last_meeting == 2

    def test_not_at_sign_change(self):
        cfg, fd = _chain_fiber((-2, -2, -2), 2)
        with pytest.raises(NotAtSignChange):
            resolution_fiber_class(cfg, fd)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-5, -1), min_size=2, max_size=8))
    def test_resolution_when_sign_change_exists(self, s):
        ds = delta_sequence(tuple(s))
        big_k = ds.first_sign_change()
        if big_k is None or big_k == 0:
            return
        p, q = -ds.deltas[big_k], ds.deltas[big_k - 1]
        if q <= 0 or p < 0:
            return
        cfg = abstract_chain(tuple(s))
        if p > 0 and big_k >= len(s):
            return
        rf = resolution_fiber_class(cfg, fiber_class(cfg, ds.deltas, big_k))
        lat = rf.config.lattice
        assert lat.sq(rf.fclass) == 0
        for pos, comp in enumerate(rf.config.components):
            want = 1 if pos == rf.last_meeting else 0
            assert lat.pair(rf.fclass, comp.cls) == want


class TestStructureLemmas:
    def test_adjacent_ones_exhaustive_small(self):
        for seq in [
            (-1, -2, -2),
            (-2, -1, -2),
            (-2, -2, -1),
            (-3, -1, -2, -2),
            (-2, -2, -1, -3),
        ]:
            assert adjacent_ones_check(seq) >= 1

    def test_adjacent_ones_needs_single_unit(self):
        with pytest.raises(WppError):
            adjacent_ones_check((-1, -1, -2))

    def test_endpoint_unit(self):
        verify_endpoint_unit((-1, -2, -3))
        verify_endpoint_unit((-1,))
        with pytest.raises(WppError):
            verify_endpoint_unit((-2, -1))

    def test_endpoint_unit_exhaustive_small(self):
        import itertools

        for n in range(1, 6):
            for tail in itertools.product(range(-5, -1), repeat=n - 1):
                verify_endpoint_unit((-1,) + tail)
