from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from areaflow import curvature
from areaflow.curvature import (
    _contract,
    _curvature_operator,
    _pair_matrix,
    _partial,
    _pic1_ratio,
    _pic1_ratio_grad,
    _PIC1,
    _qr_frames,
    _RIC3,
    _SECTIONAL,
    _stiefel_gradient,
    _Terms,
    CurvatureTensor,
    SymBilinear,
    bounds_of,
    chi_ic1,
    constant_curvature_tensor,
    kulkarni_nomizu,
    minimize_over_frames,
    pic1_defect,
    product_curvature,
    ric3_min,
    ricci_matrix,
    sectional,
    sectional_range,
)
from areaflow.spaces import ModelSpace, curvature_at


def sym_matrices(dim, lo=-2.0, hi=2.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False), min_size=dim * dim, max_size=dim * dim
    ).map(lambda v: 0.5 * (np.array(v).reshape(dim, dim) + np.array(v).reshape(dim, dim).T))


def einsum_contract(comp, a, b, c, d):
    """The five-operand einsum the batched kernel replaced: the reference."""
    return np.einsum("ijkl,bi,bj,bk,bl->b", comp, a, b, c, d, optimize=True)


def random_tensor(dim, rng, terms=3):
    """A generic algebraic curvature tensor: sum of products h o k."""
    comp = np.zeros((dim,) * 4)
    for _ in range(terms):
        a, b = rng.normal(size=(2, dim, dim))
        comp += kulkarni_nomizu(SymBilinear(a + a.T), SymBilinear(b + b.T)).comp
    return CurvatureTensor(comp)


# (value, gradient, frame size k); the ids keep the test names the suite reports
OBJECTIVES = [
    pytest.param(_SECTIONAL.value, _SECTIONAL.gradient, 2,
                 id="_sectional_value-_sectional_grad-2"),
    pytest.param(_RIC3.value, _RIC3.gradient, 3, id="_ric3_value-_ric3_grad-3"),
    pytest.param(lambda m, x: _pic1_ratio(m, x)[0],
                 lambda m, x: _pic1_ratio_grad(m, x, _pic1_ratio(m, x)[1]), 4,
                 id="<lambda>-_pic1_ratio_grad-4"),
]


class TestKernel:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_contract_matches_einsum(self, dim):
        rng = np.random.default_rng(dim)
        r = random_tensor(dim, rng)
        m = _pair_matrix(r.comp)
        a, b, c, d = rng.normal(size=(4, 16, dim))
        ref = einsum_contract(r.comp, a, b, c, d)
        tol = 1e-12 * np.maximum(1.0, abs(ref))
        assert (abs(_contract(m, a, b, c, d) - ref) <= tol).all()
        # the partial R(., b, c, d) paired with a gives the same contraction
        assert (abs((_partial(m, b, c, d) * a).sum(axis=-1) - ref) <= tol).all()

    @pytest.mark.parametrize("value, grad, k", OBJECTIVES)
    @pytest.mark.parametrize("dim", [4, 6])
    def test_gradient_matches_central_differences(self, value, grad, k, dim):
        rng = np.random.default_rng(10 * dim + k)
        m = _pair_matrix(random_tensor(dim, rng).comp)
        x = _qr_frames(rng.normal(size=(32, dim, k)))
        g = grad(m, x)
        eps = 1e-5
        fd = np.zeros_like(x)
        for i in range(dim):
            for j in range(k):
                e = np.zeros((dim, k))
                e[i, j] = eps
                fd[:, i, j] = (value(m, x + e) - value(m, x - e)) / (2 * eps)
        scale = np.maximum(1.0, abs(g).max(axis=(1, 2)))[:, None, None]
        assert (abs(g - fd) <= 1e-6 * scale).all()

    def test_weighted_table_gradient_matches_central_differences(self):
        # two sums of mixed terms, one weight per sum and frame: the derivation
        # itself, beyond the three objective tables
        sums = ([(0, 1, 1, 0), (0, 2, 1, 3), (2, 3, 3, 2)], [(1, 2, 0, 3), (3, 0, 0, 1)])
        table = _Terms(*sums)
        rng = np.random.default_rng(33)
        dim = 5
        r = random_tensor(dim, rng)
        m = _pair_matrix(r.comp)
        x = rng.normal(size=(16, dim, 4))
        w = rng.normal(size=(2, 16))
        g = table.gradient(m, x, w)
        eps = 1e-5
        fd = np.zeros_like(x)
        for i in range(dim):
            for j in range(4):
                e = np.zeros((dim, 4))
                e[i, j] = eps
                diff = table.values(m, x + e) - table.values(m, x - e)
                fd[:, i, j] = (w * diff).sum(axis=0) / (2 * eps)
        scale = np.maximum(1.0, abs(g).max(axis=(1, 2)))[:, None, None]
        assert (abs(g - fd) <= 1e-6 * scale).all()
        # each sum adds up its terms' contractions
        for v, terms in zip(table.values(m, x), sums):
            ref = sum(einsum_contract(r.comp, *(x[:, :, c] for c in t)) for t in terms)
            assert (abs(v - ref) <= 1e-12 * np.maximum(1.0, abs(ref))).all()

    def test_partials_per_frame(self):
        # R(a, b, b, a) costs two partials; R_1234 four
        assert [t._coef.size for t in (_SECTIONAL, _RIC3, _PIC1)] == [2, 4, 12]

    def test_pic1_gradient_at_interior_mu(self):
        rng = np.random.default_rng(21)
        m = _pair_matrix(random_tensor(5, rng).comp)
        x = _qr_frames(rng.normal(size=(400, 5, 4)))
        _, mu = _pic1_ratio(m, x)
        x = x[(mu > 0.05) & (mu < 0.95)]
        assert len(x) >= 20
        g = _pic1_ratio_grad(m, x, _pic1_ratio(m, x)[1])
        eps = 1e-5
        for _ in range(10):
            e = eps * rng.normal(size=x.shape[1:])
            fd = (_pic1_ratio(m, x + e)[0] - _pic1_ratio(m, x - e)[0]) / 2
            exact = (g * e).sum(axis=(1, 2))
            assert (abs(exact - fd) <= 1e-6 * eps * np.maximum(1.0, abs(g).max())).all()

    def test_stiefel_step_is_tangent(self):
        rng = np.random.default_rng(4)
        for dim, k in ((2, 2), (4, 3), (6, 4)):
            x = _qr_frames(rng.normal(size=(16, dim, k)))
            g = rng.normal(size=x.shape)
            step = _stiefel_gradient(x, g)
            xs = np.swapaxes(x, 1, 2) @ step
            assert abs(xs + np.swapaxes(xs, 1, 2)).max() <= 1e-12
            # what is removed is normal: X S with S symmetric
            xn = np.swapaxes(x, 1, 2) @ (g - step)
            assert abs(xn - np.swapaxes(xn, 1, 2)).max() <= 1e-12
            assert abs(g - step - x @ xn).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [4, 5, 6, 7, 8])
    def test_gram_schmidt_matches_sign_fixed_lapack_qr(self, dim, k):
        rng = np.random.default_rng(10 * dim + k)
        x = _qr_frames(rng.normal(size=(200, dim, k)))
        mats = [rng.normal(size=x.shape), x]
        for t in (1e-3, 1.0, 10.0, 100.0, 1e3):  # trial frames X - tZ
            mats.append(x - t * _stiefel_gradient(x, rng.normal(size=x.shape)))
        for a in mats:
            q, r = np.linalg.qr(a)
            ref = q * np.sign(np.einsum("...ii->...i", r))[..., None, :]
            # both are backward stable, so they differ by O(eps) times the
            # condition number of the matrix; an orthonormal frame has cond 1
            err = abs(_qr_frames(a) - ref).max(axis=(1, 2))
            assert (err <= 1e-14 * np.linalg.cond(a)).all()


def sequential_minimize(objective, dim, k, *, gradient, n_starts=64, seed=0,
                        structured=None, max_iter=120, tol=1e-13):
    """The optimizer with one retraction and one objective call per halving,
    as it was before the batched ladder, under the same stall stop: the
    reference."""
    rng = np.random.default_rng(seed)
    x = _qr_frames(rng.standard_normal((n_starts, dim, k)))
    fx = objective(x)
    best_struct = None
    if structured is not None and len(structured):
        s = _qr_frames(np.asarray(structured, dtype=float))
        fs = objective(s)
        j = int(np.argmin(fs))
        best_struct = (float(fs[j]), s[j])
    lr = np.full(n_starts, 0.1)
    active = np.ones(n_starts, dtype=bool)
    best = [fx.min()]
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xa = x[idx]
        step = _stiefel_gradient(xa, gradient(xa))
        improved = np.zeros(idx.size, dtype=bool)
        lra = lr[idx].copy()
        for _ in range(25):
            todo = np.flatnonzero(~improved)
            if todo.size == 0:
                break
            trial = _qr_frames(x[idx[todo]] - lra[todo, None, None] * step[todo])
            ft = objective(trial)
            ref = fx[idx[todo]]
            better = ft < ref - tol * np.maximum(1.0, np.abs(ref))
            hit = idx[todo[better]]
            x[hit] = trial[better]
            fx[hit] = ft[better]
            improved[todo[better]] = True
            lra[todo[~better]] *= 0.5
        lr[idx] = np.where(improved, lra * 1.5, lra)
        active[idx] = improved  # all 25 halvings failed: converged
        best.append(fx.min())  # stop once the best value moved <= tol in 10 steps
        if it >= 10 and best[-11] - best[-1] <= tol * max(1.0, abs(best[-1])):
            break
    i = int(np.argmin(fx))
    out = (float(fx[i]), x[i])
    if best_struct is not None and best_struct[0] <= out[0]:
        out = best_struct
    return out


class TestLineSearch:
    @pytest.mark.parametrize("value, grad, k", OBJECTIVES)
    @pytest.mark.parametrize("dim, seed", [(4, 0), (4, 7), (5, 0), (5, 7)])
    def test_matches_sequential_backtracking(self, value, grad, k, dim, seed):
        m = _pair_matrix(random_tensor(dim, np.random.default_rng(100 + dim + seed)).comp)

        def each_alone(x):
            # a batched matmul may round a frame's value differently with the
            # batch around it; one frame per call takes the same path each time
            return np.array([value(m, f[None])[0] for f in x])

        kw = dict(gradient=partial(grad, m), n_starts=16, seed=seed)
        got, frame = minimize_over_frames(each_alone, dim, k, **kw)
        ref, ref_frame = sequential_minimize(each_alone, dim, k, **kw)
        assert got == ref
        assert np.array_equal(frame, ref_frame)
        assert frame.shape == (dim, k)
        assert abs(frame.T @ frame - np.eye(k)).max() <= 1e-12

    @pytest.mark.parametrize("rung", [2, 23, 24])
    def test_first_passing_rung_anywhere_on_the_ladder(self, rung):
        # -<x, D> + K |x - x0|^2 from the one start x0 decreases along the
        # descent step only for steps below 1 / K, first at lr / 2^rung
        dim, k, seed = 4, 2, 3
        x0 = _qr_frames(np.random.default_rng(seed).standard_normal((1, dim, k)))[0]
        d = np.random.default_rng(1).standard_normal((dim, k))
        big = 1.5 * 2.0 ** (rung - 1) / 0.1

        def value(x):
            return -np.einsum("bij,ij->b", x, d) + big * ((x - x0) ** 2).sum(axis=(1, 2))

        def grad(x):
            return -d + 2.0 * big * (x - x0)

        kw = dict(gradient=grad, n_starts=1, seed=seed)
        got, frame = minimize_over_frames(value, dim, k, **kw)
        ref, ref_frame = sequential_minimize(value, dim, k, **kw)
        assert got < value(x0[None])[0]
        assert got == ref
        assert np.array_equal(frame, ref_frame)

    @pytest.mark.parametrize("dim, seed", [(4, 0), (5, 7)])
    def test_aux_travels_with_its_frame(self, dim, seed):
        # chi_ic1's objective returns its minimising mu with the values; the
        # gradient at a frame gets the mu found there, which is what
        # recomputing it at that frame gives
        m = _pair_matrix(random_tensor(dim, np.random.default_rng(200 + seed)).comp)

        def each_alone(x):
            out = [_pic1_ratio(m, f[None]) for f in x]
            return np.array([v[0] for v, _ in out]), np.array([mu[0] for _, mu in out])

        def recomputed(x):
            return _pic1_ratio_grad(m, x, each_alone(x)[1])

        kw = dict(n_starts=16, seed=seed)
        got, frame = minimize_over_frames(each_alone, dim, 4,
                                          gradient=partial(_pic1_ratio_grad, m), **kw)
        ref, ref_frame = minimize_over_frames(lambda x: each_alone(x)[0], dim, 4,
                                              gradient=recomputed, **kw)
        assert got == ref
        assert np.array_equal(frame, ref_frame)

    def test_at_most_two_objective_calls_per_descent_step(self):
        m = _pair_matrix(random_tensor(5, np.random.default_rng(3)).comp)
        calls = {"objective": 0, "gradient": 0}

        def counted(name, fn):
            def wrapped(x):
                calls[name] += 1
                return fn(m, x)
            return wrapped

        minimize_over_frames(counted("objective", _RIC3.value), 5, 3,
                             gradient=counted("gradient", _RIC3.gradient),
                             structured=np.eye(5)[None, :, :3])
        assert calls["gradient"] >= 10
        # two initial evaluations: the random starts and the structured frames
        assert calls["objective"] <= 2 * calls["gradient"] + 2


def benchmark_tensor():
    """The dim-4 tensor of the benchmark's ``extremes`` job (its fixed seed):
    unit curvature plus three Kulkarni-Nomizu products of rotated pairs."""
    rng = np.random.default_rng(231210940)

    def sym():
        a = rng.normal(0.0, 0.15, (4, 4))
        return 0.5 * (a + a.T)

    pairs = [(sym(), sym()) for _ in range(3)]
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    rot = q * np.sign(np.diag(r))
    comp = constant_curvature_tensor(4, 1.0).comp.copy()
    for a, b in pairs:
        comp += kulkarni_nomizu(SymBilinear(rot @ a @ rot.T),
                                SymBilinear(rot @ b @ rot.T)).comp
    return CurvatureTensor(comp)


class TestStallStop:
    @pytest.mark.parametrize("fn, owner, grad", [(ric3_min, _RIC3, "gradient"),
                                                 (chi_ic1, curvature, "_pic1_ratio_grad")],
                             ids=["ric3_min-_ric3_grad", "chi_ic1-_pic1_ratio_grad"])
    def test_settled_runs_stop_early(self, fn, owner, grad, monkeypatch):
        # both settle their best value by about step 40 of 120
        calls = []
        inner = getattr(owner, grad)
        monkeypatch.setattr(owner, grad,
                            lambda m, x, *aux: calls.append(1) or inner(m, x, *aux))
        fn(benchmark_tensor())
        assert 10 <= len(calls) < 60

    def test_bounds_match_full_length_runs(self, monkeypatch):
        rng = np.random.default_rng(2024)
        tensors = [random_tensor(dim, rng) for dim in (4, 5, 6) * 3]
        got = [bounds_of(r) for r in tensors]
        monkeypatch.setattr(curvature, "_STALL", 10**6)  # every run takes 120 steps
        for r, b in zip(tensors, got):
            ref = bounds_of(r)
            for name in ("kappa", "tau", "ric3_min", "chi_ic1"):
                v, w = getattr(b, name), getattr(ref, name)
                assert abs(v - w) <= 1e-12 * max(1.0, abs(w)), (name, v, w)


def plane_dual(comp, iters=200):
    """max over mu of lambda_min(Op + mu *) by golden-section search on
    |mu| <= lambda_max(Op) - lambda_min(Op): the dual bound, from the Hodge
    star written out on the basis (01, 02, 03, 12, 13, 23)."""
    op = _curvature_operator(comp)
    star = np.zeros((6, 6))
    for a, b, sign in ((0, 5, 1), (1, 4, -1), (2, 3, 1)):
        star[a, b] = star[b, a] = sign
    w = np.linalg.eigvalsh(op)
    lo, hi = -(w[-1] - w[0]), w[-1] - w[0]

    def f(mu):
        return np.linalg.eigvalsh(op + mu * star)[0]

    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iters):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        lo, hi = (a, hi) if f(a) < f(b) else (lo, b)
    return max(f(lo), f(hi), f(0.0))


def refuse_optimizer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the frame optimizer ran")

    monkeypatch.setattr(curvature, "minimize_over_frames", refuse)


class TestSectionalDual:
    def test_random_dim4_matches_optimizer_and_dual(self, monkeypatch):
        rng = np.random.default_rng(44)
        tensors = [random_tensor(4, rng) for _ in range(30)] + [benchmark_tensor()]
        with monkeypatch.context() as mp:
            refuse_optimizer(mp)  # no witness falls back
            got = [sectional_range(r) for r in tensors]
        monkeypatch.setattr(curvature, "_plane_minimum", lambda comp: None)
        for r, (kappa, tau) in zip(tensors, got):
            ref_kappa, ref_tau = sectional_range(r)
            assert abs(kappa - ref_kappa) <= 1e-12 * max(1.0, abs(ref_kappa))
            assert abs(tau - ref_tau) <= 1e-12 * max(1.0, abs(ref_tau))
            # each witness is a plane, so it is never below the dual bound and
            # the bound certifies it; both sides round by a few ulps of the
            # operator's norm (at most 9 over 600 such extremes)
            norm = abs(np.linalg.eigvalsh(_curvature_operator(r.comp))).max()
            ulps = 16 * np.finfo(float).eps * norm
            for value, bound in ((kappa, plane_dual(r.comp)), (-tau, plane_dual(-r.comp))):
                assert bound - ulps <= value <= bound + 1e-12 * max(1.0, abs(value))

    def test_model_spaces_through_the_eigenspace_witness(self, monkeypatch):
        # the optimal eigenvalue is repeated on all of them; in a rotated
        # frame its copies differ by rounding
        refuse_optimizer(monkeypatch)
        cp2, g = curvature_at(ModelSpace("fubini", 4, scale=4.0))
        s2 = constant_curvature_tensor(2, 1.0)
        cases = ((constant_curvature_tensor(4, 1.0).comp, (1.0, 1.0)),
                 (np.zeros((4,) * 4), (0.0, 0.0)),
                 (curvature._orthonormalize_tensor(cp2, g), (1.0, 4.0)),
                 (product_curvature(s2, s2).comp, (0.0, 1.0)))
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
        for comp, expect in cases:
            for c in (comp, np.einsum("ijkl,ia,jb,kc,ld->abcd", comp, q, q, q, q)):
                got = sectional_range(CurvatureTensor(c))
                assert abs(np.subtract(got, expect)).max() <= 1e-14, (got, expect)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_low_dims_give_the_operator_eigenvalue_range(self, dim, monkeypatch):
        # every 2-vector is a plane below dim 4
        refuse_optimizer(monkeypatch)
        rng = np.random.default_rng(dim)
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        for _ in range(10):
            r = random_tensor(dim, rng)
            op = np.array([[r.comp[i, j, l, k] for k, l in pairs] for i, j in pairs])
            w = np.linalg.eigvalsh(op)
            kappa, tau = sectional_range(r)
            tol = 1e-13 * max(1.0, abs(w).max())
            assert abs(kappa - w[0]) <= tol and abs(tau - w[-1]) <= tol

    @pytest.mark.parametrize("dim", [3, 4, 5])
    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_bad_n_starts_refused_in_every_dim(self, dim, n_starts):
        m = _pair_matrix(constant_curvature_tensor(dim, 1.0).comp)
        with pytest.raises(ValueError, match="n_starts must be at least 1"):
            minimize_over_frames(partial(_SECTIONAL.value, m), dim, 2,
                                 gradient=partial(_SECTIONAL.gradient, m), n_starts=n_starts)

    def test_uncertified_witness_falls_back_to_the_optimizer(self, monkeypatch):
        r = benchmark_tensor()
        exact = sectional_range(r)
        monkeypatch.setattr(curvature, "_DUAL_ITER", 0)  # no dual step converges
        runs = []
        inner = curvature.minimize_over_frames
        monkeypatch.setattr(curvature, "minimize_over_frames",
                            lambda *a, **kw: runs.append(1) or inner(*a, **kw))
        got = sectional_range(r)
        assert len(runs) == 2
        assert abs(np.subtract(got, exact)).max() <= 1e-12


class TestKulkarniNomizu:
    def test_identity_pair_gives_twice_area(self):
        g = SymBilinear.identity(3)
        kn = kulkarni_nomizu(g, g)
        assert kn.comp[0, 1, 1, 0] == pytest.approx(2.0, abs=1e-14)

    def test_antisymmetry_in_last_slots(self):
        g = SymBilinear.identity(3)
        kn = kulkarni_nomizu(g, g)
        assert kn.comp[0, 1, 0, 1] == pytest.approx(-2.0, abs=1e-14)

    def test_diag_2_1_against_expansion(self):
        # hand expansion: S_11 T_22 + S_22 T_11 - 2 S_12 T_12 = 2 + 1
        s = SymBilinear(np.diag([2.0, 1.0]))
        t = SymBilinear.identity(2)
        assert kulkarni_nomizu(s, t).comp[0, 1, 1, 0] == pytest.approx(3.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kulkarni_nomizu(SymBilinear.identity(2), SymBilinear.identity(3))

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices(3), sym_matrices(3))
    def test_product_is_curvature_tensor(self, a, b):
        # constructor enforces all algebraic invariants
        kulkarni_nomizu(SymBilinear(a), SymBilinear(b))


class TestSectional:
    def test_unit_sphere(self):
        r = constant_curvature_tensor(4, 1.0)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert sectional(r, i, j) == pytest.approx(1.0, abs=1e-14)

    def test_zero_tensor(self):
        assert sectional(CurvatureTensor.zero(3), 0, 2) == 0.0

    def test_scaling(self):
        r = constant_curvature_tensor(3, -1.7)
        assert sectional(r, 1, 2) == pytest.approx(-1.7, abs=1e-14)

    def test_same_index_rejected(self):
        with pytest.raises(ValueError):
            sectional(constant_curvature_tensor(3, 1.0), 1, 1)


class TestPic1Defect:
    def test_constant_curvature_value(self):
        c = 0.7
        r = constant_curvature_tensor(5, c)
        frame = np.eye(5)[:4]
        for mu in (0.0, 0.3, 1.0):
            assert pic1_defect(r, frame, mu) == pytest.approx(
                2 * c * (1 + mu**2), abs=1e-12)

    def test_zero_tensor(self):
        assert pic1_defect(CurvatureTensor.zero(4), np.eye(4), 0.5) == 0.0

    def test_mu_zero_is_two_sectionals(self):
        rng = np.random.default_rng(3)
        r, _ = curvature_at(ModelSpace("fubini", 4, scale=4.0))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        frame = q.T
        expect = (np.einsum("ijkl,i,j,k,l->", r.comp, frame[0], frame[2], frame[2], frame[0])
                  + np.einsum("ijkl,i,j,k,l->", r.comp, frame[1], frame[2], frame[2], frame[1]))
        assert pic1_defect(r, frame, 0.0) == pytest.approx(expect, abs=1e-12)

    def test_non_orthonormal_frame_rejected(self):
        r = constant_curvature_tensor(4, 1.0)
        bad = np.eye(4)
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            pic1_defect(r, bad, 0.5)

    def test_swap_invariance_at_mu_one(self):
        rng = np.random.default_rng(11)
        r, _ = curvature_at(ModelSpace("fubini", 6, scale=4.0))
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
            f = q.T
            g = f[[0, 1, 3, 2]].copy()
            g[0] *= -1.0
            assert pic1_defect(r, g, 1.0) == pytest.approx(
                pic1_defect(r, f, 1.0), abs=1e-12)

    def test_swap_scaling_relation(self):
        # mu^2 * [defect combination of the swapped frame at 1/mu] equals the
        # defect at mu; 1/mu leaves the cone's mu-range so the swapped side is
        # assembled from raw components
        rng = np.random.default_rng(12)
        r, _ = curvature_at(ModelSpace("fubini", 4, scale=4.0))

        def raw(frame, mu):
            def c(a, b, cc, d):
                return np.einsum("ijkl,i,j,k,l->", r.comp, frame[a], frame[b],
                                 frame[cc], frame[d])

            return (c(0, 2, 2, 0) + mu**2 * c(0, 3, 3, 0)
                    + c(1, 2, 2, 1) + mu**2 * c(1, 3, 3, 1)
                    - 2 * mu * c(0, 1, 2, 3))

        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            f = q.T
            g = f[[0, 1, 3, 2]].copy()
            g[0] *= -1.0
            mu = rng.uniform(0.1, 1.0)
            assert mu**2 * raw(g, 1.0 / mu) == pytest.approx(
                pic1_defect(r, f, mu), abs=1e-10)


class TestChiIC1:
    def test_unit_sphere_is_one(self):
        r = constant_curvature_tensor(4, 1.0)
        assert chi_ic1(r, seed=0) == pytest.approx(1.0, abs=1e-3)

    def test_flat_is_zero_exactly(self):
        assert chi_ic1(CurvatureTensor.zero(4), seed=0) == 0.0

    def test_projective_plane_boundary(self):
        r, _ = curvature_at(ModelSpace("fubini", 4, scale=4.0))
        assert abs(chi_ic1(r, seed=0)) <= 1e-2

    def test_dim3_refused(self):
        with pytest.raises(ValueError):
            chi_ic1(constant_curvature_tensor(3, 1.0))

    @settings(max_examples=10, deadline=None)
    @given(st.floats(-2.0, 2.0, allow_nan=False))
    def test_matches_constant_curvature_scale(self, c):
        r = constant_curvature_tensor(4, c)
        assert chi_ic1(r, seed=1) == pytest.approx(c, abs=2e-3)


class TestRic3:
    def test_unit_sphere(self):
        assert ric3_min(constant_curvature_tensor(3, 1.0)) == pytest.approx(2.0, abs=1e-3)

    def test_flat(self):
        assert ric3_min(CurvatureTensor.zero(4)) == 0.0

    def test_constant_scaling(self):
        assert ric3_min(constant_curvature_tensor(4, -0.5), seed=2) == pytest.approx(
            -1.0, abs=2e-3)

    def test_at_least_twice_min_sectional(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(4, 4))
            r = kulkarni_nomizu(SymBilinear(0.5 * (a + a.T)), SymBilinear.identity(4))
            b = bounds_of(r, seed=3)
            assert b.ric3_min >= 2 * b.kappa - 1e-6

    def test_nonneg_chi_implies_nonneg_ric3(self):
        rng = np.random.default_rng(9)
        tried = 0
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            r = kulkarni_nomizu(SymBilinear(np.eye(4) + 0.2 * (a + a.T)),
                                SymBilinear.identity(4))
            chi = chi_ic1(r, seed=4)
            if chi >= 0:
                tried += 1
                assert ric3_min(r, seed=4) >= -1e-6
        assert tried > 0


class TestBoundsOf:
    def test_unit_sphere(self):
        n = 4
        b = bounds_of(constant_curvature_tensor(n, 1.0), seed=0)
        assert b.kappa == pytest.approx(1.0, rel=1e-3)
        assert b.tau == pytest.approx(1.0, rel=1e-3)
        assert b.ric_min == pytest.approx(n - 1, abs=1e-12)
        assert b.scal_min == pytest.approx(n * (n - 1), abs=1e-12)

    def test_flat(self):
        b = bounds_of(CurvatureTensor.zero(4), seed=0)
        for name in ("kappa", "tau", "ric_min", "ric_max", "scal_min", "scal_max",
                     "ric3_min", "chi_ic1"):
            assert getattr(b, name) == 0.0

    def test_projective_plane(self):
        r, g = curvature_at(ModelSpace("fubini", 4, scale=4.0))
        b = bounds_of(r, g, seed=0)
        assert b.kappa == pytest.approx(1.0, rel=1e-3)
        assert b.tau == pytest.approx(4.0, rel=1e-3)
        assert b.ric_min == pytest.approx(6.0, abs=1e-10)
        assert b.ric_max == pytest.approx(6.0, abs=1e-10)
        assert b.scal_min == pytest.approx(24.0, abs=1e-9)
        assert b.ric3_min == pytest.approx(2.0, abs=2e-3)

    def test_general_metric_orthonormalization(self):
        # sphere tensor expressed in a squashed basis must give the same bounds
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        g = SymBilinear(np.eye(4) + 0.3 * (a @ a.T))
        basis = np.linalg.cholesky(g.comp).T  # columns with Gram matrix g
        r0 = constant_curvature_tensor(4, 1.0)
        comp = np.einsum("ijkl,ia,jb,kc,ld->abcd", r0.comp, basis, basis, basis, basis)
        b = bounds_of(CurvatureTensor(comp), g, seed=1)
        assert b.kappa == pytest.approx(1.0, rel=1e-3)
        assert b.tau == pytest.approx(1.0, rel=1e-3)


class TestProductCurvature:
    def test_zero(self):
        r = product_curvature(CurvatureTensor.zero(2), CurvatureTensor.zero(2))
        assert abs(r.comp).max() == 0.0

    def test_sphere_pair_mixed_plane_flat(self):
        s2 = constant_curvature_tensor(2, 1.0)
        r = product_curvature(s2, s2)
        assert sectional(r, 0, 2) == 0.0
        assert sectional(r, 0, 1) == pytest.approx(1.0, abs=1e-14)
        assert sectional(r, 2, 3) == pytest.approx(1.0, abs=1e-14)

    def test_ricci_blocks(self):
        s3 = constant_curvature_tensor(3, 1.0)
        s2 = constant_curvature_tensor(2, 2.0)
        ric = ricci_matrix(product_curvature(s3, s2))
        assert np.allclose(np.diag(ric), [2, 2, 2, 2, 2])
