"""Affine rulings: combined boundary strings, fiber cases, cusp resolution."""

import pytest

from wpp.errors import WppError
from wpp.homlat import dense
from wpp.resolution import build_resolution
from wpp.rulings import (
    boundary_elements,
    combined_strings,
    nu_indices,
    ruling,
    ruling_resolution,
)


@pytest.fixture(scope="module")
def rp11():
    return build_resolution(11, 13, 14)


@pytest.fixture(scope="module")
def rp235():
    return build_resolution(2, 3, 5)


class TestCombinedStrings:
    def test_forward_walk(self, rp11):
        fwd, _ = combined_strings(rp11)
        assert fwd.direction == "forward" and fwd.target == "c"
        assert [e.name for e in fwd.elements] == [
            "S_a[1]", "S_a[2]", "S_a[3]", "S_a[4]", "N_b", "S_c[1]", "S_c[2]",
        ]
        assert tuple(e.selfint for e in fwd.elements) == (-2, -3, -2, -2, -1, -3, -5)

    def test_backward_walk(self, rp11):
        _, bwd = combined_strings(rp11)
        assert bwd.direction == "backward"
        assert [e.name for e in bwd.elements] == [
            "S_b[6]", "S_b[5]", "S_b[4]", "S_b[3]", "S_b[2]", "S_b[1]",
            "N_a", "S_c[2]", "S_c[1]",
        ]
        assert tuple(e.selfint for e in bwd.elements) == (
            -3, -2, -2, -2, -2, -2, -1, -5, -3,
        )

    def test_walks_share_target_string(self, rp11):
        fwd, bwd = combined_strings(rp11)
        fwd_names = {e.name for e in fwd.elements}
        bwd_names = {e.name for e in bwd.elements}
        assert {"S_c[1]", "S_c[2]"} <= fwd_names & bwd_names
        # the two approaches come in along different connectors
        assert "N_b" in fwd_names and "N_a" in bwd_names

    def test_boundary_cycle(self, rp235):
        be = boundary_elements(rp235)
        assert len(be) == 9
        kinds = [e.kind for e in be]
        assert kinds.count("connector") == 3
        assert kinds.count("string") == 6
        names = [e.name for e in be]
        for want in ("N_a", "N_b", "N_c", "S_a[1]", "S_b[1]", "S_c[4]"):
            assert want in names


class TestApproachData:
    def test_forward_deltas(self, rp11):
        rd = ruling(rp11)
        assert rd.forward.deltas[:7] == (1, 2, 5, 8, 11, 3, -2)
        assert rd.forward.sign_change == 6
        assert rd.forward.nu == 1
        assert rd.forward.in_range
        assert (rd.forward.fiber.p, rd.forward.fiber.q) == (2, 3)

    def test_backward_deltas(self, rp11):
        rd = ruling(rp11)
        assert rd.backward.deltas[:9] == (1, 3, 5, 7, 9, 11, 13, 2, -3)
        assert rd.backward.sign_change == 8
        assert rd.backward.nu == 2
        assert (rd.backward.fiber.p, rd.backward.fiber.q) == (3, 2)

    def test_nu_indices(self, rp11, rp235):
        assert nu_indices(rp11) == (1, 2)
        assert nu_indices(rp235) == (1, 3)


class TestRulingCases:
    def test_unicuspidal_golden(self, rp11):
        rd = ruling(rp11)
        assert rd.case == "Unicuspidal"
        assert (rd.nu_a, rd.nu_b) == (1, 2)
        assert (rd.pa, rd.qa, rd.pb, rd.qb) == (2, 3, 3, 2)
        assert rd.cusp_location == (1, 2)
        assert rd.meet_component is None
        assert dense(rd.fiber, 13) == (5, 0, 0, 0, -2, -2, -1, -1, -3, 0, 0, 0, 0)
        assert rd.selfint == 6
        assert rd.canonical_pairing == -6
        assert rd.violations == ()

    def test_embedded_golden(self, rp235):
        rd = ruling(rp235)
        assert rd.case == "EmbeddedFiber"
        assert dense(rd.fiber, 7) == (1, 0, 0, -1, 0, 0, 0)
        assert rd.meet_component == 2
        assert rd.cusp_location is None
        # an embedded fiber is already a 0-sphere of genus zero
        assert rd.selfint == 0
        assert rd.canonical_pairing == -2
        assert rd.violations == ()

    def test_fiber_squares_from_lattice(self, rp11, rp235):
        for rp in (rp11, rp235):
            rd = ruling(rp)
            assert rp.lattice.sq(rd.fiber) == rd.selfint
            assert rp.lattice.pair(rd.fiber, rp.lattice.canonical) == (
                rd.canonical_pairing
            )

    def test_other_targets_out_of_range(self, rp235):
        for t in ("a", "b"):
            rd = ruling(rp235, t)
            assert rd.case == "OutOfRange"
            assert rd.opposite == f"N_{t}"
            assert rd.violations == ("out_of_range",)

    def test_opposite_connector(self, rp11, rp235):
        assert ruling(rp11).opposite == "N_c"
        assert ruling(rp11).opposite_selfint == -1
        assert ruling(rp235).opposite == "N_c"
        assert ruling(rp235).opposite_selfint == 0

    def test_bad_target_rejected(self, rp235):
        with pytest.raises(WppError):
            ruling(rp235, "x")


class TestRulingResolution:
    def test_golden(self, rp11):
        rd = ruling(rp11)
        rr = ruling_resolution(rd)
        assert rr.multiplicities == (2, 1, 1)
        assert rr.final_rank == 16
        assert [c.label for c in rr.config.components] == [
            "S_a[1]", "S_a[2]", "S_a[3]", "S_a[4]", "N_b", "S_c[1]",
            "C1", "C3", "C2", "S_c[2]",
        ]
        assert rr.config.selfints() == (-2, -3, -2, -2, -1, -4, -3, -1, -2, -7)
        assert dense(rr.resolved.fclass, 16) == (
            5, 0, 0, 0, -2, -2, -1, -1, -3, 0, 0, 0, 0, -2, -1, -1,
        )
        assert rr.resolved.last_meeting == 7
        assert rr.config.components[rr.resolved.last_meeting].label == "C3"

    def test_resolved_fiber_is_zero_sphere_section(self, rp11):
        rd = ruling(rp11)
        rr = ruling_resolution(rd)
        lat = rr.config.lattice
        assert lat.sq(rr.resolved.fclass) == 0
        for pos, comp in enumerate(rr.config.components):
            want = 1 if pos == rr.resolved.last_meeting else 0
            assert lat.pair(rr.resolved.fclass, comp.cls) == want

    def test_one_step_cusp(self):
        rp = build_resolution(3, 4, 5)
        rd = ruling(rp)
        assert rd.case == "Unicuspidal"
        assert rd.cusp_location == (1, 2)
        rr = ruling_resolution(rd)
        assert rr.multiplicities == (1,)
        assert rr.final_rank == 9
        assert rr.resolved.last_meeting == 4
        assert rr.config.lattice.sq(rr.resolved.fclass) == 0

    def test_requires_unicuspidal(self, rp235):
        rd = ruling(rp235)
        with pytest.raises(WppError):
            ruling_resolution(rd)

    def test_blowup_count_matches_rank_growth(self, rp11):
        rd = ruling(rp11)
        rr = ruling_resolution(rd)
        assert rr.final_rank == rp11.lattice.rank + len(rr.multiplicities)
        # fiber multiplicity data: gcd pattern of a (p, q) cusp
        assert sum(m * m for m in rr.multiplicities) == rd.pa * rd.qa


class TestConsistencyAcrossPresentations:
    @pytest.mark.parametrize("triple", [(2, 3, 5), (11, 13, 14), (3, 4, 5)])
    def test_case_independent_of_presentation(self, triple):
        cases = set()
        for idx in range(1, 7):
            rp = build_resolution(*triple, presentation=idx)
            rd = ruling(rp)
            cases.add((rd.case, rd.nu_a, rd.nu_b, rd.selfint, rd.canonical_pairing))
            assert rd.violations == ()
        assert len(cases) == 1
