import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from areaflow.curvature import CurvatureBounds, bounds_of, ricci_matrix, sectional
from areaflow.spaces import (
    BackgroundPath,
    ModelSpace,
    at_time,
    bounds,
    curvature_at,
    scalar_hypothesis,
)


class TestCurvatureAt:
    def test_unit_sphere_sectional(self):
        r, g = curvature_at(ModelSpace("sphere", 3, scale=1.0))
        assert sectional(r, 0, 1) == pytest.approx(1.0, abs=1e-14)

    def test_radius_two_sphere(self):
        r, _ = curvature_at(ModelSpace("sphere", 3, scale=2.0))
        assert sectional(r, 0, 2) == pytest.approx(0.25, abs=1e-14)

    def test_fubini_bounds(self):
        b = bounds(ModelSpace("fubini", 4, scale=4.0))
        assert (b.kappa, b.tau) == (1.0, 4.0)
        assert b.ric_min == b.ric_max == 6.0
        assert b.scal_min == 24.0
        assert b.chi_ic1 == 0.0

    @pytest.mark.parametrize("dim", [4, 6, 8])
    def test_fubini_closed_form_matches_optimized_tensor(self, dim):
        space = ModelSpace("fubini", dim, scale=4.0)
        closed = bounds(space)
        measured = bounds_of(*curvature_at(space))
        for name in ("kappa", "tau", "ric_min", "ric_max", "scal_min",
                     "scal_max", "ric3_min", "chi_ic1"):
            a, b = getattr(closed, name), getattr(measured, name)
            # dim 4 reads the sectional range off the curvature operator
            tol = 1e-12 if dim == 4 and name in ("kappa", "tau") else 1e-6
            assert abs(a - b) <= tol * max(1.0, abs(a)), (name, a, b)

    def test_custom_has_no_tensor(self):
        cb = CurvatureBounds(3, 1, 4, 2, 2, 6, 6, 2.0, 2.0)
        with pytest.raises(ValueError):
            curvature_at(ModelSpace("custom", 3, bounds_override=cb))

    def test_einstein_consistency(self):
        for space in (ModelSpace("sphere", 3, scale=1.0),
                      ModelSpace("sphere", 4, scale=2.0),
                      ModelSpace("fubini", 4, scale=4.0),
                      ModelSpace("fubini", 6, scale=4.0)):
            r, _ = curvature_at(space)
            ric = ricci_matrix(r)
            assert abs(ric - space.einstein_const * np.eye(space.dim)).max() < 1e-10

    def test_negative_constant_curvature(self):
        space = ModelSpace("constant", 3, curvature=-1.0)
        r, _ = curvature_at(space)
        assert sectional(r, 0, 1) == pytest.approx(-1.0, abs=1e-14)
        assert bounds(space).tau == -1.0


class TestHomothety:
    def test_unit_s3_at_quarter(self):
        path = BackgroundPath(ModelSpace("sphere", 3, scale=1.0), "ricci")
        assert path.t_max == pytest.approx(0.5)
        sp = at_time(path, 0.25)
        assert path.metric_factor(0.25) == pytest.approx(0.5)
        r, _ = curvature_at(sp)
        assert sectional(r, 0, 1) == pytest.approx(2.0, rel=1e-12)

    def test_static_unchanged(self):
        path = BackgroundPath(ModelSpace("sphere", 3, scale=1.0), "static")
        assert at_time(path, 17.0) is path.base

    def test_extinction_rejected(self):
        path = BackgroundPath(ModelSpace("sphere", 3, scale=1.0), "ricci")
        with pytest.raises(ValueError):
            at_time(path, 0.5)

    def test_blowup_toward_extinction(self):
        path = BackgroundPath(ModelSpace("sphere", 3, scale=1.0), "ricci")
        r, _ = curvature_at(at_time(path, 0.4999))
        assert sectional(r, 0, 1) > 1e3

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 0.45, allow_nan=False))
    def test_curvature_scales_exactly(self, t):
        path = BackgroundPath(ModelSpace("sphere", 3, scale=1.0), "ricci")
        sp = at_time(path, t)
        r, _ = curvature_at(sp)
        assert sectional(r, 0, 1) == pytest.approx(
            1.0 / (1.0 - 2.0 * t), rel=1e-12)

    def test_einstein_rate_matches_ricci(self):
        # d/dt g = -Ric means the factor derivative is -(Einstein constant)
        path = BackgroundPath(ModelSpace("sphere", 4, scale=1.0), "ricci")
        eps = 1e-7
        rate = (path.metric_factor(eps) - path.metric_factor(0.0)) / eps
        assert rate == pytest.approx(-path.base.einstein_const, rel=1e-6)

    def test_custom_bounds_scaled(self):
        cb = CurvatureBounds(4, 1, 4, 6, 6, 24, 24, 2.0, 0.0, einstein_const=6.0)
        path = BackgroundPath(ModelSpace("custom", 4, bounds_override=cb), "ricci")
        sp = at_time(path, 0.1)
        f = 1 - 6.0 * 0.1
        assert bounds(sp).tau == pytest.approx(4.0 / f)


class TestScalarHypothesis:
    def test_equal_unit_s3(self):
        s = ModelSpace("sphere", 3, scale=1.0)
        assert scalar_hypothesis(s, s) == pytest.approx(0.0, abs=1e-14)

    def test_s4_vs_s3(self):
        assert scalar_hypothesis(ModelSpace("sphere", 4, scale=1.0),
                                 ModelSpace("sphere", 3, scale=1.0)) == pytest.approx(4.0)

    def test_big_s3_vs_unit_s3(self):
        assert scalar_hypothesis(ModelSpace("sphere", 3, scale=2.0),
                                 ModelSpace("sphere", 3, scale=1.0)) == pytest.approx(-4.5)

    def test_slack_nondecreasing_along_joint_shrink(self):
        # equal Einstein rates keep the ratio; a faster-shrinking source
        # only gains slack as both curvatures blow up
        pm = BackgroundPath(ModelSpace("sphere", 4, scale=1.0), "ricci")
        pn = BackgroundPath(ModelSpace("sphere", 3, scale=1.0), "ricci")
        ts = np.linspace(0.0, 0.3, 12)
        vals = [scalar_hypothesis(at_time(pm, t), at_time(pn, t)) for t in ts]
        assert (np.diff(vals) >= -1e-12).all()


class TestValidation:
    def test_fubini_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            ModelSpace("fubini", 5, scale=4.0)

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            ModelSpace("sphere", 3, scale=0.0)

    def test_ricci_path_needs_einstein(self):
        cb = CurvatureBounds(3, 0, 1, 0, 2, 0, 6, 0.0, 0.0)
        sp = ModelSpace("custom", 3, bounds_override=cb)
        with pytest.raises(ValueError):
            BackgroundPath(sp, "ricci")

    @pytest.mark.parametrize("kind", ["sphere", "fubini", "torus", "constant"])
    def test_explicit_einstein_only_for_custom(self, kind):
        # an explicit constant would contradict the curvature (sphere:3 with 5.0
        # once made the ricci path die at 0.2 instead of 1/2), so a space takes
        # none: its Einstein constant is its Ricci constant, or its override's
        kw = {"curvature": 1.0} if kind == "constant" else {}
        with pytest.raises(TypeError, match="einstein_const"):
            ModelSpace(kind, 4, einstein_const=5.0, **kw)
        space = ModelSpace(kind, 4, **kw)
        b = bounds(space)
        assert space.einstein_const == b.einstein_const == b.ric_min == b.ric_max
        assert BackgroundPath(ModelSpace("sphere", 3), "ricci").t_max == 0.5
        cb = CurvatureBounds(3, 0, 1, 2, 2, 0, 6, 0.0, 0.0, einstein_const=2.0)
        custom = ModelSpace("custom", 3, bounds_override=cb)
        assert custom.einstein_const == 2.0
        assert BackgroundPath(custom, "ricci").t_max == 0.5

    @pytest.mark.parametrize("kind,key", [("sphere", "scale"), ("fubini", "scale"),
                                          ("torus", "scale"), ("constant", "curvature"),
                                          ("sphere", "einstein_const")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_space_fields_rejected(self, kind, key, value):
        kw = {"curvature": 1.0} if kind == "constant" else {}
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            if key == "einstein_const":  # only an override carries one: the sphere's
                ModelSpace("custom", 4, bounds_override=replace(
                    bounds(ModelSpace(kind, 4)), einstein_const=value))
            else:
                ModelSpace(kind, 4, **dict(kw, **{key: value}))

    @pytest.mark.parametrize("ric,einstein", [((2, 2), 7.0), ((0, 2), 2.0), ((2, 2), 0.0),
                                              ((2, 2), 2.0 * (1 + 1e-11))])
    def test_einstein_const_off_the_ricci_constant_refused(self, ric, einstein):
        # Ric = L g makes ric_min = ric_max = L; a custom 7.0 on Ricci 2 made the
        # ricci path die at 1/7 while its bounds read Ricci 2
        with pytest.raises(ValueError, match="einstein_const"):
            CurvatureBounds(3, 0, 1, *ric, 0, 6, 0.0, 0.0, einstein_const=einstein)
        within = CurvatureBounds(3, 0, 1, 2, 2, 0, 6, 0.0, 0.0, einstein_const=2.0 * (1 + 1e-13))
        assert within.scaled(3.0).einstein_const == within.einstein_const * 3.0

    @pytest.mark.parametrize("space", [
        ModelSpace("sphere", 3, scale=2.0), ModelSpace("fubini", 4), ModelSpace("torus", 2),
        ModelSpace("constant", 3, curvature=-1.0),
        ModelSpace("custom", 4, bounds_override=CurvatureBounds(
            4, 1, 4, 6, 6, 24, 24, 2.0, 0.0, einstein_const=6.0))])
    def test_bounds_evaluated_once(self, space):
        assert bounds(space) is bounds(space)
        assert space.einstein_const == bounds(space).einstein_const
        assert space.describe()["einstein_const"] == bounds(space).ric_max
        assert len(fields(ModelSpace)) == 5

    @pytest.mark.parametrize("index", range(8))
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_bounds_rejected(self, index, value):
        names = ("kappa", "tau", "ric_min", "ric_max", "scal_min", "scal_max",
                 "ric3_min", "chi_ic1")
        vals = [0.0, 1.0, 0.0, 2.0, 0.0, 6.0, 0.0, 0.0]
        vals[index] = value
        with pytest.raises(ValueError, match=f"{names[index]} must be finite"):
            CurvatureBounds(3, *vals)
        with pytest.raises(ValueError, match="einstein_const must be finite"):
            CurvatureBounds(3, 0, 1, 0, 2, 0, 6, 0.0, 0.0, einstein_const=value)

    def test_surface_ric3_may_be_undefined(self):
        assert math.isnan(bounds(ModelSpace("sphere", 2)).ric3_min)
        with pytest.raises(ValueError, match="ric3_min must be finite"):
            CurvatureBounds(2, 1, 1, 1, 1, 2, 2, math.inf, 1.0)
