import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from areaflow.profile import (
    SingularProfile,
    classify,
    c_of,
    graph_frame,
    hopf_profile,
    m_monitor,
    s_of,
    singular_bases,
    singular_profile,
    theta_wedge_matrix,
)
from areaflow.curvature import (
    CurvatureTensor,
    SymBilinear,
    constant_curvature_tensor,
    pic1_defect,
)


def lambdas(m=4, hi=5.0):
    return st.lists(st.floats(0.0, hi, allow_nan=False), min_size=m, max_size=m).map(
        lambda v: np.sort(np.array(v))[::-1])


class TestSingularProfile:
    def test_zero_map(self):
        p = singular_profile(np.zeros((3, 2)))
        assert np.allclose(p.lam, 0.0)
        assert np.allclose(p.s_diag, 1.0)
        assert np.allclose(p.theta_eigs, 2.0)

    def test_identity(self):
        p = singular_profile(np.eye(3))
        assert np.allclose(p.lam, 1.0)
        assert np.allclose(p.s_diag, 0.0)
        assert np.allclose(p.theta_eigs, 0.0)

    def test_diag_2_third(self):
        p = singular_profile(np.diag([2.0, 1.0 / 3.0]))
        assert np.allclose(p.lam, [2.0, 1.0 / 3.0])
        assert np.allclose(p.s_diag, [-0.6, 0.8])
        assert np.allclose(p.c_diag, [0.8, 0.6])
        assert p.theta_min() == pytest.approx(0.2, abs=1e-14)

    def test_general_metrics(self):
        # pullback eigenvalues of g^{-1} df^T h df by direct construction
        rng = np.random.default_rng(0)
        df = rng.normal(size=(3, 3))
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        g = SymBilinear(np.eye(3) + 0.4 * a @ a.T)
        h = SymBilinear(np.eye(3) + 0.4 * b @ b.T)
        p = singular_profile(df, g, h)
        ref = np.sort(np.linalg.eigvals(
            np.linalg.solve(g.comp, df.T @ h.comp @ df)).real)[::-1]
        assert np.allclose(p.lam**2, ref, atol=1e-10)

    def test_negative_pullback_rejected(self):
        with pytest.raises(ValueError):
            singular_profile(np.eye(2), SymBilinear(np.diag([1.0, -1.0])))

    def test_rank_deficient_wide_map(self):
        p = singular_profile(np.array([[1.0, 0.5, 0.0]]))  # m=3 -> n=1
        assert p.lam[1] == 0.0 and p.lam[2] == 0.0


class TestHugeLambdas:
    """S and C where lambda^2 overflows: their limits -1 and 0, with no
    warning, and every finite lambda^2 as the formulas give it."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [1.4e154, 1e200, -1e200, 1.7e308, math.inf])
    def test_limits(self, lam):
        assert s_of(lam) == -1.0 and c_of(lam) == 0.0
        assert s_of([lam, 0.5])[0] == -1.0 and c_of([lam, 0.5])[0] == 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 3.0, 1e8, 2.0**27, 1e100, 1e150,
                                     1e151, 1.3e154])
    def test_finite_squares_keep_their_bits(self, lam):
        x = np.array([lam, -lam])
        assert s_of(x).tobytes() == ((1.0 - x**2) / (1.0 + x**2)).tobytes()
        assert c_of(x).tobytes() == (2.0 * x / (1.0 + x**2)).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_profile_of_a_huge_lambda(self):
        p = SingularProfile.from_lambdas([1e200, 1.0])
        assert p.s_diag.tolist() == [-1.0, 0.0] and p.c_diag.tolist() == [0.0, 1.0]
        assert p.theta_eigs.tolist() == [-1.0] and p.theta_min() == -1.0

    def test_nan_stays_nan(self):
        assert math.isnan(s_of(math.nan)) and math.isnan(c_of(math.nan))


class TestConstructor:
    """The constructor checks lambda and derives S, C and Theta from it, so a
    profile cannot disagree with its singular values."""

    def test_fields_derived_from_lam(self):
        p = SingularProfile(3, 2, np.array([2.0, 0.5, 0.0]))
        ref = SingularProfile.from_lambdas([2.0, 0.5, 0.0], n=2)
        for name in ("lam", "s_diag", "c_diag", "theta_eigs"):
            assert getattr(p, name).tobytes() == getattr(ref, name).tobytes(), name
        assert p.theta_eigs.tolist() == [s_of(2.0) + s_of(0.5), s_of(2.0) + 1.0,
                                         s_of(0.5) + 1.0]

    def test_derived_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            SingularProfile(2, 2, np.array([1.0, 0.5]), np.zeros(2), np.zeros(2), np.zeros(1))

    @pytest.mark.parametrize("m,n,lam,message", [
        (2, 2, [math.nan, 1.0], "finite"),
        (3, 3, [1.0, 0.5], "one singular value per domain dimension"),
        (2, 2, [1.0, -0.5], "nonnegative"),
        (2, 2, [0.5, 1.0], "nonincreasing"),
        (3, 2, [1.0, 0.5, 0.25], "must vanish")])
    def test_bad_lambdas_refused(self, m, n, lam, message):
        with pytest.raises(ValueError, match=message):
            SingularProfile(m, n, np.array(lam))


class TestClassify:
    def test_area_decreasing_but_not_distance(self):
        flags = classify(SingularProfile.from_lambdas([2.0, 1.0 / 3.0]))
        assert flags.area_decreasing and flags.area_nonincreasing
        assert not flags.distance_nonincreasing

    def test_boundary_identity(self):
        flags = classify(SingularProfile.from_lambdas([1.0, 1.0]))
        assert flags.area_nonincreasing and not flags.area_decreasing

    def test_product_above_one(self):
        flags = classify(SingularProfile.from_lambdas([3.0, 0.5]))
        assert not flags.area_nonincreasing

    @settings(max_examples=150, deadline=None)
    @given(lambdas())
    def test_flags_match_theta_and_s_signs(self, lam):
        p = SingularProfile.from_lambdas(lam)
        flags = classify(p)
        assert flags.area_nonincreasing == (min(p.theta_eigs) >= 0)
        assert flags.distance_nonincreasing == (min(p.s_diag) >= 0)


class TestIdentities:
    @settings(max_examples=200, deadline=None)
    @given(lambdas())
    def test_pythagoras(self, lam):
        assert abs(s_of(lam) ** 2 + c_of(lam) ** 2 - 1.0).max() < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(lambdas())
    def test_keystone(self, lam):
        s, c = s_of(lam), c_of(lam)
        for i in range(len(lam)):
            for j in range(len(lam)):
                if i == j:
                    continue
                th = s[i] + s[j]
                assert 2 * th * s[i] - (th**2 + c[j] ** 2 - c[i] ** 2) == pytest.approx(
                    0.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(lambdas(m=3))
    def test_wedge_eigenvalues(self, lam):
        p = SingularProfile.from_lambdas(lam)
        eigs = np.sort(np.linalg.eigvalsh(theta_wedge_matrix(p)))
        assert np.allclose(eigs, np.sort(p.theta_eigs), atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(lambdas(), st.floats(0.01, 2.0, allow_nan=False))
    def test_theta_floor_bounds_stretch(self, lam, delta):
        p = SingularProfile.from_lambdas(lam)
        if min(p.theta_eigs) >= delta:
            assert lam.max() <= 2.0 / delta + 1e-12


class TestGraphFrame:
    def test_zero_map_frame_is_split(self):
        p, u, v = singular_bases(np.zeros((2, 2)))
        fr = graph_frame(p, u, v)
        assert np.allclose(fr.e[:, 2:], 0.0)
        assert np.allclose(fr.nu[:, :2], 0.0)

    def test_isometry_diagonal(self):
        # at lambda = 1 the tangent frame splits evenly: e_i = (u_i + u_i)/sqrt(2)
        p, u, v = singular_bases(np.eye(2))
        fr = graph_frame(p, u, v)
        for i in range(2):
            assert np.allclose(fr.e[i, :2], fr.e[i, 2:])
            assert np.linalg.norm(fr.e[i, :2]) == pytest.approx(1 / math.sqrt(2))

    def test_orthonormal_and_s_components(self):
        rng = np.random.default_rng(1)
        for m, n in ((2, 2), (3, 2), (2, 4)):
            df = rng.normal(size=(n, m))
            p, u, v = singular_bases(df)
            fr = graph_frame(p, u, v)
            full = np.vstack([fr.e, fr.nu])
            assert abs(full @ full.T - np.eye(m + n)).max() < 1e-10
            s_mat = np.diag([1.0] * m + [-1.0] * n)
            lam_ext = np.zeros(max(m, n))
            lam_ext[:m] = p.lam
            for i in range(m):
                for a in range(n):
                    want = -2 * lam_ext[i] / (1 + lam_ext[i] ** 2) if i == a else 0.0
                    assert fr.e[i] @ s_mat @ fr.nu[a] == pytest.approx(want, abs=1e-10)

    def test_lambda_two_mixed_component(self):
        p, u, v = singular_bases(np.array([[2.0]]))
        fr = graph_frame(p, u, v)
        s_mat = np.diag([1.0, -1.0])
        assert fr.e[0] @ s_mat @ fr.nu[0] == pytest.approx(-0.8, abs=1e-14)


def _with_entry(a, index, x):
    a = np.array(a, dtype=float)
    a[index] = x
    return a


def _graph_frame_with_entry(basis, x):
    p, *uv = singular_bases(np.diag([2.0, 0.5]))
    uv[basis] = _with_entry(uv[basis], (0, 0), x)
    graph_frame(p, *uv)


NONFINITE_CHECKS = [
    pytest.param(lambda x: SymBilinear(_with_entry(np.eye(3), (1, 1), x)),
                 "SymBilinear components must be finite", id="SymBilinear"),
    pytest.param(lambda x: CurvatureTensor(x * constant_curvature_tensor(3, 1.0).comp),
                 "CurvatureTensor components must be finite", id="CurvatureTensor"),
    pytest.param(lambda x: pic1_defect(constant_curvature_tensor(4, 1.0),
                                       _with_entry(np.eye(4), (0, 0), x), 0.5),
                 "frame4 is not orthonormal", id="pic1_defect"),
    pytest.param(partial(_graph_frame_with_entry, 0), "u is not g-orthonormal",
                 id="graph_frame_u"),
    pytest.param(partial(_graph_frame_with_entry, 1), "v is not h-orthonormal",
                 id="graph_frame_v"),
    pytest.param(lambda x: SingularProfile.from_lambdas([x, 1.0]),
                 "singular values must be finite", id="from_lambdas"),
    pytest.param(lambda x: SingularProfile(2, 2, np.array([x, 1.0])),
                 "singular values must be finite", id="SingularProfile"),
]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("build, message", NONFINITE_CHECKS)
def test_nonfinite_input_refused(build, message, x):
    with pytest.raises(ValueError, match=message):
        build(x)


class TestMonitor:
    def test_constant_maps(self):
        profiles = [singular_profile(np.zeros((2, 2))) for _ in range(5)]
        assert m_monitor(profiles) == pytest.approx(2.0)

    def test_mixed_samples(self):
        a = SingularProfile.from_lambdas([2.0, 1.0 / 3.0])
        b = SingularProfile.from_lambdas([1.0, 1.0])
        assert m_monitor([a, b]) == pytest.approx(0.0, abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m_monitor([])


class TestHopf:
    def test_profile_values(self):
        for n in (1, 2, 3):
            p = hopf_profile(n)
            assert p.m == 2 * n + 1 and p.n == 2 * n
            assert np.allclose(p.lam[: 2 * n], 1.0) and p.lam[-1] == 0.0
            assert p.lam[0] * p.lam[1] == 1.0
            assert p.theta_min() == pytest.approx(0.0, abs=1e-14)
            flags = classify(p)
            assert flags.area_nonincreasing and not flags.area_decreasing

    def test_against_explicit_fibration_differential(self):
        # quadratic fibration S^3 -> S^2(1/2): dH/2 at tangent frames must
        # have singular values (1, 1, 0) for the half-radius round target
        rng = np.random.default_rng(4)

        def fib(x):
            z1r, z1i, z2r, z2i = x
            return np.array([
                z1r**2 + z1i**2 - z2r**2 - z2i**2,
                2 * (z1r * z2r + z1i * z2i),
                2 * (z1i * z2r - z1r * z2i),
            ])

        for _ in range(10):
            x = rng.normal(size=4)
            x /= np.linalg.norm(x)
            jac = np.empty((3, 4))
            eps = 1e-6
            for k in range(4):
                dx = np.zeros(4)
                dx[k] = eps
                jac[:, k] = (fib(x + dx) - fib(x - dx)) / (2 * eps)
            # tangent frames upstairs and downstairs
            q, _ = np.linalg.qr(np.column_stack([x, rng.normal(size=(4, 3))]))
            tan_up = q[:, 1:]
            y = fib(x)
            qd, _ = np.linalg.qr(np.column_stack([y, rng.normal(size=(3, 2))]))
            tan_dn = qd[:, 1:]
            # map into S^2(1/2): divide by 2
            d = tan_dn.T @ (jac / 2.0) @ tan_up
            sv = np.sort(np.linalg.svd(d, compute_uv=False))[::-1]
            assert np.allclose(sv, [1.0, 1.0], atol=1e-5)
            p = singular_profile(d)
            assert np.allclose(p.lam, hopf_profile(1).lam, atol=1e-5)
