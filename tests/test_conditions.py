import numpy as np
import pytest

from areaflow.conditions import (
    audit_conditions,
    check_A,
    check_B,
    check_C,
    check_D,
    check_E,
    check_F,
    check_thm1_ii,
)
from areaflow.curvature import CurvatureBounds
from areaflow.spaces import ModelSpace, bounds as space_bounds


def const_bounds(dim, c):
    return CurvatureBounds(dim, c, c, (dim - 1) * c, (dim - 1) * c,
                           dim * (dim - 1) * c, dim * (dim - 1) * c,
                           2 * c, c if dim >= 4 else (dim - 1) * c)


UNIT_S3 = const_bounds(3, 1.0)
FLAT3 = const_bounds(3, 0.0)


class TestCheckA:
    def test_equal_unit_spheres_strict(self):
        rep = check_A(UNIT_S3, UNIT_S3, 3, 3)
        assert rep.holds and rep.strict
        assert rep.slack("ric_gap") == 0.0
        assert rep.slack("kappa_sum") == 2.0

    def test_hopf_fails_exactly(self):
        for n in (1, 2, 3):
            bm = space_bounds(ModelSpace("sphere", 2 * n + 1, scale=1.0))
            bn = space_bounds(ModelSpace("fubini", 2 * n, scale=4.0))
            rep = check_A(bm, bn, 2 * n + 1, 2 * n)
            assert not rep.holds
            assert rep.slack("ric_gap") == -1.0

    def test_flat_pair_holds_not_strict(self):
        rep = check_A(FLAT3, FLAT3, 3, 3)
        assert rep.holds and not rep.strict
        assert rep.slack("ric_gap") == 0.0 and rep.slack("kappa_sum") == 0.0


class TestCheckB:
    def test_sphere_to_smaller_sphere(self):
        for m, n in ((3, 3), (5, 3), (4, 3)):
            bm = const_bounds(m, 1.0)
            bn = const_bounds(n, 1.0)
            rep = check_B(bm, bn, m, n)
            assert rep.slack("sec_gap") == 2 * (m - n)
            assert rep.holds and rep.strict

    def test_hopf_fails(self):
        for n in (1, 2, 3):
            bm = space_bounds(ModelSpace("sphere", 2 * n + 1, scale=1.0))
            bn = space_bounds(ModelSpace("fubini", 2 * n, scale=4.0))
            rep = check_B(bm, bn, 2 * n + 1, 2 * n)
            assert not rep.holds
            assert rep.slack("sec_gap") == -6 * n + 5

    def test_zero_bounds_hold_not_strict(self):
        rep = check_B(FLAT3, FLAT3, 3, 3)
        assert rep.holds and not rep.strict

    def test_ell_one_rejected(self):
        with pytest.raises(ValueError):
            check_B(const_bounds(3, 1.0), const_bounds(2, 1.0), 3, 1)


class TestCheckCD:
    def test_shrinking_unit_spheres(self):
        rep = check_C(UNIT_S3, UNIT_S3, 3, 3)
        assert rep.holds and rep.slack("chi_sum") == 4.0

    def test_negative_target_curvature_strict_D(self):
        bn = const_bounds(3, -1.0)
        rep = check_D(UNIT_S3, bn, 3, 3)
        assert rep.holds and rep.slack("tau_N_nonpos") == 1.0

    def test_negative_chi_fails_C(self):
        bm = CurvatureBounds(4, -0.5, 1.0, -1.5, 3, -6, 12, -1.0, -1.0)
        rep = check_C(bm, FLAT3, 4, 3)
        assert not rep.holds


def ef(check, space_m, space_n):
    return check(space_bounds(space_m), space_bounds(space_n), space_m.dim, space_n.dim)


class TestCheckEF:
    def test_s4_to_s3(self):
        rep = ef(check_E, ModelSpace("sphere", 4, scale=1.0),
                 ModelSpace("sphere", 3, scale=1.0))
        assert rep.holds
        assert rep.slack("scalar_ratio") == 4.0
        assert rep.slack("kappa_N") == 1.0
        assert "M locally irreducible" in rep.unchecked_hypotheses

    def test_s3_to_s4_fails_scalar(self):
        rep = ef(check_E, ModelSpace("sphere", 3, scale=1.0),
                 ModelSpace("sphere", 4, scale=1.0))
        assert not rep.holds
        assert rep.slack("scalar_ratio") == -3.0

    def test_flat_target_F(self):
        rep = ef(check_F, ModelSpace("sphere", 4, scale=1.0),
                 ModelSpace("torus", 3, scale=6.0))
        assert rep.holds
        assert rep.slack("tau_N_nonpos") == 0.0

    def test_projective_source_E(self):
        rep = ef(check_E, ModelSpace("fubini", 4, scale=4.0),
                 ModelSpace("sphere", 4, scale=1.0))
        assert rep.slack("chi_ic1_M") == 0.0
        assert rep.holds  # scal 24 >= (4/4) * 12

    def test_non_einstein_target_fails(self):
        cb = CurvatureBounds(3, 0.5, 1.0, 1.2, 2.0, 4.0, 5.0, 1.0, 1.2)
        rep = ef(check_E, ModelSpace("sphere", 4, scale=1.0),
                 ModelSpace("custom", 3, bounds_override=cb))
        assert rep.slack("einstein_N") < 0
        assert not rep.holds


class TestProperties:
    def test_thm1_ii_implies_A_ric_slack(self):
        # submersion-side bound tuples (m >= n) with consistent Ricci bounds
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(10000):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 6))
            kap_m = rng.uniform(-1, 2)
            tau_m = kap_m + rng.uniform(0, 2)
            kap_n = rng.uniform(-2, 2)
            tau_n = kap_n + rng.uniform(0, 2)
            bm = CurvatureBounds(m, kap_m, tau_m,
                                 (m - 1) * kap_m + rng.uniform(0, 1),
                                 (m - 1) * tau_m + rng.uniform(0, 1) + 2,
                                 m * (m - 1) * kap_m, m * (m - 1) * tau_m + 9,
                                 2 * kap_m, (m - 1) * kap_m)
            bn = CurvatureBounds(n, kap_n, tau_n,
                                 (n - 1) * kap_n - rng.uniform(0, 1) - 2,
                                 (n - 1) * tau_n - rng.uniform(0, 1),
                                 n * (n - 1) * kap_n - 9, n * (n - 1) * tau_n,
                                 2 * kap_n, (n - 1) * kap_n)
            rep_b = check_thm1_ii(bm, bn, m, n)
            if rep_b.holds and rep_b.strict:
                checked += 1
                assert check_A(bm, bn, m, n).slack("ric_gap") >= -1e-12
        assert checked > 100

    def test_pass_monotone_in_kappa_m(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            kap = rng.uniform(-1, 1)
            bump = rng.uniform(0, 1)

            def mk(k):
                return CurvatureBounds(m, k, k + 2, (m - 1) * k, (m - 1) * (k + 2),
                                       m * (m - 1) * k, m * (m - 1) * (k + 2),
                                       2 * k, (m - 1) * k)

            bn = mk(rng.uniform(-1, 1))
            bn = CurvatureBounds(n, bn.kappa, bn.tau, bn.ric_min, bn.ric_max,
                                 bn.scal_min, bn.scal_max, bn.ric3_min, bn.chi_ic1)
            lo = check_A(mk(kap), bn, m, n)
            hi = check_A(mk(kap + bump), bn, m, n)
            if lo.holds:
                assert hi.holds
            lo_b = check_B(mk(max(kap, 0.0)), bn, m, n)
            hi_b = check_B(mk(max(kap, 0.0) + bump), bn, m, n)
            if lo_b.holds:
                assert hi_b.holds


class TestAudit:
    def test_orchestrator_runs_all(self):
        s3 = ModelSpace("sphere", 3, scale=1.0)
        reports = audit_conditions(s3, s3, ["A", "B", "C", "D", "Thm1_i", "Thm1_ii"])
        names = [r.condition for r in reports]
        assert names == ["A", "B", "C", "D", "Thm1_i", "Thm1_ii"]
        assert all(r.holds for r in reports[:3])
        assert not reports[3].holds  # tau_N = 1 > 0 breaks (D)

    def test_unknown_condition(self):
        s3 = ModelSpace("sphere", 3, scale=1.0)
        with pytest.raises(ValueError):
            audit_conditions(s3, s3, ["Z"])

    def test_report_roundtrip(self):
        s3 = ModelSpace("sphere", 3, scale=1.0)
        (rep,) = audit_conditions(s3, s3, ["A"])
        d = rep.to_dict()
        assert d["holds"] and d["strict"]
        assert {s["name"] for s in d["slacks"]} == {"ric_gap", "kappa_sum"}
