"""End-to-end resolutions: boundary strings, predicates, isometry search."""

import dataclasses
import json
from fractions import Fraction

import pytest

from wpp import cli
from wpp.errors import LemmaViolated, UserInputError, WppError
from wpp.homlat import NEG_INF
from wpp.report import make_report, serialize_report
from wpp.resolution import (
    build_resolution,
    check_divisor_predicates,
    check_sum_bound,
    check_two_minus2,
    connector_selfints,
    divisor_predicates_hold,
    parse_schedule,
    torelli_compare,
    two_minus2_strings,
)


class TestSmallGolden:
    def test_strings(self):
        rp = build_resolution(2, 3, 5)
        assert rp.weights_input == (2, 3, 5)
        assert {k: v.selfints for k, v in rp.strings.items()} == {
            "a": (-2,),
            "b": (-3,),
            "c": (-2, -2, -2, -2),
        }
        assert rp.strings["c"].residue == 4
        assert rp.n == 6
        assert connector_selfints(rp) == (-1, -1, 0)
        assert rp.terminal == "hirz" and rp.terminal_k == 2

    def test_predicates(self):
        pred = check_divisor_predicates(build_resolution(2, 3, 5))
        assert pred.full and pred.abc_type and pred.sub_toric
        assert pred.gaps == {
            "bc": Fraction(383, 288),
            "ac": Fraction(15, 8),
            "ab": Fraction(0),
        }
        assert pred.adjoint_area == Fraction(-2003, 288)
        assert pred.adjoint_square == -2
        assert pred.area_identity
        assert pred.kodaira == NEG_INF
        assert divisor_predicates_hold(pred)

    def test_connector_areas(self):
        rp = build_resolution(2, 3, 5)
        assert rp.area.area(rp.connector_class("N_a")) == Fraction(383, 288)
        assert rp.area.area(rp.connector_class("N_b")) == Fraction(15, 8)
        assert rp.area.area(rp.connector_class("N_c")) == Fraction(15, 4)

    def test_sum_bound(self):
        sb = check_sum_bound(build_resolution(2, 3, 5))
        assert (sb.total_b, sb.lower_bound) == (13, 12)
        assert sb.identity_ok and sb.bound_ok

    def test_k_squared(self):
        rp = build_resolution(2, 3, 5)
        lat = rp.lattice
        assert lat.sq(lat.canonical) == 10 - lat.rank == 3
        rp11 = build_resolution(11, 13, 14)
        assert rp11.lattice.sq(rp11.lattice.canonical) == -3


class TestLargeGolden:
    def test_strings(self):
        rp = build_resolution(11, 13, 14)
        assert {k: v.selfints for k, v in rp.strings.items()} == {
            "a": (-2, -3, -2, -2),   # 11/7
            "b": (-2, -2, -2, -2, -2, -3),  # 13/11
            "c": (-3, -5),           # 14/5
        }
        assert connector_selfints(rp) == (-1, -1, -1)

    def test_predicates(self):
        pred = check_divisor_predicates(build_resolution(11, 13, 14))
        assert pred.gaps == {
            "bc": Fraction(1729, 240),
            "ac": Fraction(118487, 12096),
            "ab": Fraction(7724993, 748440),
        }
        assert pred.adjoint_area == Fraction(-23369443, 855360)
        assert pred.adjoint_square == -3
        assert pred.kodaira == NEG_INF
        assert divisor_predicates_hold(pred)

    def test_sum_bound(self):
        sb = check_sum_bound(build_resolution(11, 13, 14))
        assert (sb.total_b, sb.lower_bound) == (30, 30)
        assert sb.identity_ok and sb.bound_ok

    def test_input_order_preserved_weights_sorted(self):
        rp = build_resolution(14, 11, 13)
        assert rp.weights_input == (14, 11, 13)
        assert (rp.weights.a, rp.weights.b, rp.weights.c) == (11, 13, 14)


class TestPresentationsAgree:
    @pytest.mark.parametrize("triple", [(2, 3, 5), (2, 3, 7), (11, 13, 14)])
    def test_invariants_match_across_presentations(self, triple):
        base = build_resolution(*triple, presentation=1)
        base_pred = check_divisor_predicates(base)
        for idx in range(2, 7):
            rp = build_resolution(*triple, presentation=idx)
            assert {k: v.selfints for k, v in rp.strings.items()} == {
                k: v.selfints for k, v in base.strings.items()
            }
            assert connector_selfints(rp) == connector_selfints(base)
            pred = check_divisor_predicates(rp)
            assert pred == base_pred
            sb = check_sum_bound(rp)
            assert sb == check_sum_bound(base)

    def test_torelli_found_pairs(self):
        # the restricted family (exceptional-vector permutations fixing the
        # line class) connects these presentation pairs
        built = {i: build_resolution(2, 3, 5, presentation=i) for i in (1, 2, 4, 5, 6)}
        for i, j in [(1, 4), (1, 5), (2, 6)]:
            tr = torelli_compare(built[i], built[j])
            assert tr.found
            rank = built[i].lattice.rank
            assert sorted(tr.permutation) == list(range(rank - 1))

    def test_torelli_negative_is_silent(self):
        # a miss inside the restricted family reports found=False, no raise
        tr = torelli_compare(
            build_resolution(2, 3, 5, presentation=1),
            build_resolution(2, 3, 5, presentation=2),
        )
        assert not tr.found
        assert tr.permutation is None

    def test_torelli_self(self):
        rp = build_resolution(2, 3, 7)
        tr = torelli_compare(rp, rp)
        assert tr.found
        assert tr.permutation == tuple(range(rp.lattice.rank - 1))

    def test_torelli_rejects_different_triples(self):
        with pytest.raises(WppError):
            torelli_compare(build_resolution(2, 3, 5), build_resolution(2, 3, 7))


class TestTwoMinus2:
    def test_classification_function(self):
        t = two_minus2_strings(3, 2, 7)
        assert t.both_minus2 and t.k == 2
        assert t.predicted_third == (-3, -2, -2)
        t2 = two_minus2_strings(5, 2, 3)
        assert t2.both_minus2 and t2.k == 1
        assert t2.predicted_third == (-3,)
        t3 = two_minus2_strings(5, 3, 7)
        assert t3.both_minus2 and t3.k == 1
        assert t3.predicted_third == (-4, -2)
        assert not two_minus2_strings(3, 2, 2).both_minus2
        with pytest.raises(WppError):
            two_minus2_strings(2, 3, 5)

    def test_cross_check_on_resolutions(self):
        rows = check_two_minus2(build_resolution(2, 3, 7))
        hit = [r for r in rows if r.both_minus2]
        assert len(hit) == 1
        assert (hit[0].x, hit[0].y, hit[0].z) == (3, 2, 7)
        rp = build_resolution(2, 3, 7)
        assert tuple(reversed(rp.strings["c"].selfints)) == hit[0].predicted_third

    def test_identity_family(self):
        # z = k*x*y - x - y always classifies as a double (-2)-chain
        for x, y, k in [(3, 2, 1), (3, 2, 2), (5, 2, 3), (5, 3, 2), (7, 4, 1)]:
            z = k * x * y - x - y
            t = two_minus2_strings(x, y, z)
            assert t.both_minus2 and t.k == k

    @pytest.mark.parametrize("triple", [(2, 3, 5), (3, 4, 5), (11, 13, 14)])
    def test_never_raises_on_valid_triples(self, triple):
        rows = check_two_minus2(build_resolution(*triple))
        assert len(rows) == 3


class TestAdversarial:
    def test_dropped_string_not_full(self):
        rp = build_resolution(2, 3, 5)
        smaller = dict(rp.strings)
        del smaller["b"]
        pred = check_divisor_predicates(dataclasses.replace(rp, strings=smaller))
        assert not pred.full
        assert not divisor_predicates_hold(pred)

    def test_indefinite_string_not_full(self):
        rp = build_resolution(2, 3, 5)
        bad = dict(rp.strings)
        bad["a"] = dataclasses.replace(bad["a"], selfints=(0,))
        pred = check_divisor_predicates(dataclasses.replace(rp, strings=bad))
        assert not pred.full

    def test_rescaled_connector_breaks_identity(self):
        rp = build_resolution(2, 3, 5)
        ec = list(rp.edge_classes)
        eid = rp.connectors["N_a"].edge_id
        ec[eid] = tuple(2 * v for v in ec[eid])
        pred = check_divisor_predicates(
            dataclasses.replace(rp, edge_classes=tuple(ec))
        )
        assert not pred.area_identity
        assert not divisor_predicates_hold(pred)


class TestInputsAndSchedules:
    def test_rejects_bad_weights(self):
        with pytest.raises(UserInputError):
            build_resolution(2, 4, 6)
        with pytest.raises(UserInputError):
            build_resolution(1, 2, 3)

    def test_rejects_bad_presentation(self):
        with pytest.raises(UserInputError):
            build_resolution(2, 3, 5, presentation=0)
        with pytest.raises(UserInputError):
            build_resolution(2, 3, 5, presentation=9)

    def test_parse_schedule(self):
        assert parse_schedule("1/3,1/4") == (Fraction(1, 3), Fraction(1, 4))
        assert parse_schedule(" 1/2 , 2/7 ") == (Fraction(1, 2), Fraction(2, 7))
        for bad in ("1/3", "a,b", "1/0,1/2", ""):
            with pytest.raises(UserInputError):
                parse_schedule(bad)

    def test_explicit_schedule_same_combinatorics(self):
        # chop depths move symplectic areas but never the combinatorial data
        base = check_divisor_predicates(build_resolution(2, 3, 5))
        alt_rp = build_resolution(2, 3, 5, schedule=(Fraction(1, 3), Fraction(1, 5)))
        alt = check_divisor_predicates(alt_rp)
        assert alt.gaps != base.gaps  # areas do move
        for f in ("full", "abc_type", "gap_admissible", "sub_toric",
                  "adjoint_square", "area_identity", "kodaira"):
            assert getattr(alt, f) == getattr(base, f)
        assert divisor_predicates_hold(alt)
        assert connector_selfints(alt_rp) == (-1, -1, 0)

    def test_library_ignores_env_schedule(self, monkeypatch):
        monkeypatch.delenv("WPP_EPS_SCHEDULE", raising=False)
        base = serialize_report(make_report(build_resolution(2, 3, 5)))
        for value in ("1/3,1/5", "nonsense"):
            monkeypatch.setenv("WPP_EPS_SCHEDULE", value)
            assert serialize_report(make_report(build_resolution(2, 3, 5))) == base

    def test_cli_reads_env_schedule(self, monkeypatch, capsys):
        def resolve(*extra):
            rc = cli.main(["resolve", "2", "3", "5", *extra])
            out = capsys.readouterr().out
            assert rc == 0
            report = json.loads(out)
            report.pop("timing")
            return report

        monkeypatch.delenv("WPP_EPS_SCHEDULE", raising=False)
        explicit = resolve("--eps", "1/3,1/5")
        default = resolve()
        assert explicit != default
        monkeypatch.setenv("WPP_EPS_SCHEDULE", "1/3,1/5")
        assert resolve() == explicit
        monkeypatch.setenv("WPP_EPS_SCHEDULE", "nonsense")
        assert cli.main(["resolve", "2", "3", "5"]) == 2
        assert "bad epsilon schedule" in capsys.readouterr().err
