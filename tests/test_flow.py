import math

import numpy as np
import pytest

from areaflow import flow
from areaflow.flow import (
    EquivariantFlowState,
    FlowConfig,
    TorusFlowState,
    _stencil,
    _torus_sigma,
    _torus_term_one,
    equivariant_dt,
    equivariant_monitor,
    equivariant_rhs,
    equivariant_step,
    exp_monitor_nondecreasing,
    run,
    smallest_monotone_rate,
    torus_cfl_dt,
    torus_evolution_residual,
    torus_monitor,
    torus_rhs,
    torus_step,
)
from areaflow.profile import s_of


def torus_state(grid=24, lin=None, u=None, m=2, n=2):
    lin = np.zeros((n, m)) if lin is None else np.asarray(lin, dtype=float)
    u = np.zeros((n,) + (grid,) * m) if u is None else u
    return TorusFlowState(m, n, 2 * math.pi, lin, u)


# The per-component np.roll stencil and the point-major term I that the shared
# per-state geometry replaced: the references for the torus path.


def ref_d1(a, axis, h):
    return (np.roll(a, -1, axis) - np.roll(a, 1, axis)) / (2.0 * h)


def ref_d2(a, axis, h):
    return (np.roll(a, -1, axis) - 2.0 * a + np.roll(a, 1, axis)) / h**2


def ref_hessian(a, m, h):
    """(m, m, grid) Hessian of one scalar field, d_j d_i off the diagonal."""
    return np.stack([np.stack([ref_d2(a, i, h) if i == j else ref_d1(ref_d1(a, i, h), j, h)
                               for j in range(m)]) for i in range(m)])


def ref_df(st):
    grads = np.stack([np.stack([ref_d1(st.u[a], ax, st.h) for ax in range(st.m)])
                      for a in range(st.n)])
    return st.lin.reshape(st.lin.shape + (1,) * st.m) + grads


def ref_eta_inv(df, m):
    eta = np.eye(m).reshape((m, m) + (1,) * (df.ndim - 2)) + np.einsum(
        "ai...,aj...->ij...", df, df)
    inv = np.moveaxis(np.linalg.inv(np.moveaxis(eta, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    return eta, inv


def ref_rhs(st):
    _, inv = ref_eta_inv(ref_df(st), st.m)
    out = np.zeros_like(st.u)
    for a in range(st.n):
        out[a] = np.einsum("ij...,ij...->...", inv, ref_hessian(st.u[a], st.m, st.h))
    return out


def ref_sigma(st):
    _, inv = ref_eta_inv(ref_df(st), st.m)
    return 2.0 * np.einsum("ii...->...", inv) - st.m


def ref_term_one(st):
    m, n, h = st.m, st.n, st.h
    df = ref_df(st)
    eta, inv = ref_eta_inv(df, m)
    grid = st.u.shape[1:]
    p = int(np.prod(grid))
    hess = np.stack([ref_hessian(st.u[a], m, h) for a in range(n)])
    deta = np.empty((m, m, m) + grid)
    for k in range(m):
        for i in range(m):
            for j in range(m):
                deta[k, i, j] = ref_d1(eta[i, j], k, h)
    dfp = df.reshape(n, m, p).transpose(2, 0, 1)
    hessp = hess.reshape(n, m, m, p).transpose(3, 0, 1, 2)
    invp = inv.reshape(m, m, p).transpose(2, 0, 1)
    detap = deta.reshape(m, m, m, p).transpose(3, 0, 1, 2)
    gammap = 0.5 * (np.einsum("paq,pkql->pakl", invp, detap, optimize=True)
                    + np.einsum("paq,plqk->pakl", invp, detap, optimize=True)
                    - np.einsum("paq,pqkl->pakl", invp, detap, optimize=True))
    uu, sv, vt = np.linalg.svd(dfp)
    ell = min(m, n)
    lam = np.zeros((p, m))
    lam[:, :ell] = sv[:, :ell]
    lam_t = np.zeros((p, n))
    lam_t[:, :ell] = sv[:, :ell]
    e_hat = vt / np.sqrt(1.0 + lam**2)[:, :, None]
    nu_m = np.zeros((p, n, m))
    nu_m[:, :ell, :] = (-lam_t[:, :ell, None] * vt[:, :ell, :]
                        / np.sqrt(1.0 + lam_t[:, :ell, None] ** 2))
    nu_n = uu.transpose(0, 2, 1) / np.sqrt(1.0 + lam_t**2)[:, :, None]
    an = hessp - np.einsum("pqkl,pbq->pbkl", gammap, dfp)
    adot = (-np.einsum("pqkl,paq->pakl", gammap, nu_m)
            + np.einsum("pbkl,pab->pakl", an, nu_n))
    a2 = np.einsum("pik,plq,pakq->pail", e_hat, e_hat, adot)
    weight = s_of(lam)[:, None, :, None] + s_of(lam_t)[:, :, None, None]
    return 2.0 * np.einsum("pail,pail->p", weight * a2, a2).reshape(grid)


def ref_residual(prev, mid, nxt, dt):
    sig_m = ref_sigma(mid)
    _, inv = ref_eta_inv(ref_df(mid), mid.m)
    lap = np.einsum("ij...,ij...->...", inv, ref_hessian(sig_m, mid.m, mid.h))
    res = (ref_sigma(nxt) - ref_sigma(prev)) / (2.0 * dt) - lap - ref_term_one(mid)
    return float(abs(res).max())


def assert_close(got, ref):
    ref = np.asarray(ref)
    assert np.shape(got) == ref.shape
    assert (abs(got - ref) <= 1e-12 * np.maximum(1.0, abs(ref))).all()


def wound_state(m, n, seed=0):
    """A smooth random map with a nonzero winding on a small grid."""
    rng = np.random.default_rng([seed, m, n])
    grid = 12 if m == 2 else 8
    x = np.arange(grid) * (2 * math.pi / grid)
    mesh = np.meshgrid(*([x] * m), indexing="ij")
    u = np.zeros((n,) + (grid,) * m)
    for a in range(n):
        for d in range(m):
            ph, amp = rng.uniform(0, 2 * math.pi, 2), rng.uniform(-0.15, 0.15, 2)
            u[a] += amp[0] * np.sin(mesh[d] + ph[0]) * np.cos(mesh[(d + 1) % m] + ph[1])
    lin = np.zeros((n, m))
    lin[0, 0], lin[n - 1, m - 1] = 1.0, -1.0
    return torus_state(grid=grid, lin=lin, u=u, m=m, n=n)


SHAPES = [(2, 2), (3, 2), (2, 3)]


class TestTorusReference:
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_stencil(self, m, n):
        st = wound_state(m, n)
        grad, hess = _stencil(st.u, m, st.h)
        assert_close(grad, np.stack([np.stack([ref_d1(st.u[a], ax, st.h) for ax in range(m)])
                                     for a in range(n)]))
        assert_close(hess, np.stack([ref_hessian(st.u[a], m, st.h) for a in range(n)]))
        assert_close(st.geometry.df, ref_df(st))

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_rhs_sigma_term_one(self, m, n):
        st = wound_state(m, n)
        assert_close(torus_rhs(st), ref_rhs(st))
        assert_close(_torus_sigma(st), ref_sigma(st))
        assert_close(_torus_term_one(st), ref_term_one(st))

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_evolution_residual(self, m, n):
        prev = wound_state(m, n)
        dt = torus_cfl_dt(prev)
        mid = torus_step(prev, dt)
        nxt = torus_step(mid, dt)
        assert_close(torus_evolution_residual(prev, mid, nxt, dt),
                     ref_residual(prev, mid, nxt, dt))

    def test_read_geometry_steps_like_a_fresh_state(self):
        prev = wound_state(2, 2)
        dt = torus_cfl_dt(prev)
        mid = torus_step(prev, dt)
        nxt = torus_step(mid, dt)
        torus_monitor(mid)
        torus_evolution_residual(prev, mid, nxt, dt)
        fresh = TorusFlowState(mid.m, mid.n, mid.period, mid.lin, mid.u.copy(), mid.t)
        assert "geometry" in vars(mid) and "geometry" not in vars(fresh)
        assert np.array_equal(torus_step(mid, dt).u, torus_step(fresh, dt).u)
        with pytest.raises(ValueError, match="read-only"):
            mid.u[0] += 1.0


class TestTorusStep:
    def test_zero_map_fixed(self):
        st = torus_state()
        out = torus_step(st, 1e-3)
        assert abs(out.u).max() == 0.0

    def test_linear_map_fixed(self):
        st = torus_state(lin=[[1, 0], [0, 2]])
        out = torus_step(st, 1e-3)
        assert abs(out.u - st.u).max() == 0.0

    def test_small_sine_decays_like_heat(self):
        grid, eps = 32, 1e-5
        x = np.arange(grid) * (2 * math.pi / grid)
        u = np.zeros((2, grid, grid))
        u[0] = eps * np.sin(x)[:, None]
        st = torus_state(grid=grid, u=u)
        dt = torus_cfl_dt(st)
        out = torus_step(st, dt)
        mu = (2 - 2 * math.cos(st.h)) / st.h**2  # discrete sine eigenvalue
        heun = 1 - mu * dt + 0.5 * (mu * dt) ** 2
        assert out.u[0].max() == pytest.approx(eps * heun, rel=1e-7)
        assert out.u[0].max() < eps

    def test_monitor_of_linear_sine(self):
        cfg = FlowConfig(case="torus", grid=16, t_end=0.02, preset="linear_sine",
                         amplitude=0.1, monitor_every=5)
        series = run(cfg)
        assert series.abort_reason is None
        assert series.m_of_t[0] < 2.0
        assert (np.diff(series.m_of_t) >= -5 * series.meta["h"] ** 2).all()

    def test_lambda_bound_coupling(self):
        cfg = FlowConfig(case="torus", grid=16, t_end=0.02, preset="sine",
                         amplitude=0.3, monitor_every=5)
        series = run(cfg)
        for m_of, lmax in zip(series.m_of_t, series.lambda_max):
            if m_of > 0:
                assert lmax <= 2.0 / m_of + 1e-12

    def test_evolution_residual_refines(self):
        def worst(grid):
            cfg = FlowConfig(case="torus", grid=grid, t_end=0.02,
                             preset="linear_sine", amplitude=0.1, monitor_every=4)
            series = run(cfg)
            res = np.asarray(series.residual)
            return np.nanmax(res[1:])

        r1, r2 = worst(16), worst(32)
        assert math.log2(r1 / r2) >= 1.8

    def test_winding_override(self):
        cfg = FlowConfig(case="torus", grid=8, t_end=0.001, preset="sine",
                         amplitude=0.05, winding=((0, 1), (1, 0)), monitor_every=2)
        series = run(cfg)
        assert series.abort_reason is None


class TestEquivariantStep:
    def test_identity_stationary(self):
        th = np.linspace(0, math.pi, 257)
        st = EquivariantFlowState(3, 3, th.copy(), 1)
        rhs = equivariant_rhs(st, 1.0, 1.0)
        assert abs(rhs).max() <= 1e-10
        out = equivariant_step(st, 1e-5, lambda t: (1.0, 1.0))
        assert abs(out.rho - st.rho).max() <= 1e-10 * 1e-5

    def test_zero_map_stationary(self):
        st = EquivariantFlowState(3, 3, np.zeros(129), 0)
        assert abs(equivariant_rhs(st, 1.0, 1.0)).max() == 0.0

    def test_small_data_decay_rate(self):
        # linearization about the constant map has first eigenvalue m on the
        # unit round domain
        eps, t_probe = 1e-3, 0.08
        th = np.linspace(0, math.pi, 193)
        st = EquivariantFlowState(3, 3, eps * np.sin(th), 0)
        while st.t < t_probe:
            dt = min(equivariant_dt(st, 1, 1), t_probe - st.t)
            st = equivariant_step(st, dt, lambda t: (1.0, 1.0))
        assert st.rho.max() / eps == pytest.approx(math.exp(-3 * t_probe), rel=1e-3)
        assert (np.diff([st.rho.max()]) <= 0).all()

    def test_sup_norm_monotone_for_small_data(self):
        th = np.linspace(0, math.pi, 129)
        st = EquivariantFlowState(3, 3, 0.2 * np.sin(th), 0)
        sups = [st.rho.max()]
        for _ in range(50):
            st = equivariant_step(st, equivariant_dt(st, 1, 1), lambda t: (1.0, 1.0))
            sups.append(st.rho.max())
        assert (np.diff(sups) < 0).all()

    def test_monitor_profile_values(self):
        th = np.linspace(0, math.pi, 257)
        st = EquivariantFlowState(3, 3, 0.8 * np.sin(th), 0)
        m_of, lmax, prod = equivariant_monitor(st, 1.0, 1.0)
        # at the pole both stretches equal 0.8
        s08 = (1 - 0.64) / (1 + 0.64)
        assert m_of == pytest.approx(2 * s08, abs=1e-3)
        assert lmax == pytest.approx(0.8, abs=1e-3)
        assert prod == pytest.approx(0.64, abs=1e-3)

    def test_boundary_class_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EquivariantFlowState(3, 3, np.linspace(0, 1.0, 65), 0)

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            EquivariantFlowState(4, 3, np.zeros(65), 0)


class TestRuns:
    def test_s3_contraction_short(self):
        cfg = FlowConfig(case="equivariant", m=3, n=3, grid=96, t_end=0.5,
                         preset="sine", amplitude=0.8, monitor_every=40)
        series = run(cfg)
        assert series.abort_reason is None
        m_of = np.asarray(series.m_of_t)
        assert (np.diff(m_of) >= -1e-9).all()
        assert m_of[-1] > m_of[0]

    def test_coupled_shrinking_pair_short(self):
        cfg = FlowConfig(case="equivariant", m=3, n=3, grid=96, preset="sine",
                         amplitude=0.8, background_m="ricci", background_n="ricci",
                         t_end_frac_of_extinction=0.5, t_end=0.0, monitor_every=40)
        series = run(cfg)
        assert series.abort_reason is None
        assert series.meta["a_used"] > 0
        assert exp_monitor_nondecreasing(series, series.meta["a_used"])
        assert series.scale_m[-1] == pytest.approx(1 - 2 * series.times[-1], rel=1e-12)

    def test_extinction_guard(self):
        cfg = FlowConfig(case="equivariant", m=3, n=3, grid=32, preset="sine",
                         amplitude=0.5, background_m="ricci", background_n="ricci",
                         t_end=0.7)
        with pytest.raises(ValueError):
            run(cfg)

    def test_smallest_monotone_rate(self):
        s = type("S", (), {})()
        from areaflow.flow import FlowSeries

        series = FlowSeries()
        for t, m in [(0.0, 1.0), (1.0, 0.5), (2.0, 0.6)]:
            series.append(t, m, 0, 0, 0, 1, 1)
        a = smallest_monotone_rate(series)
        assert a == pytest.approx(math.log(2.0), rel=1e-12)
        assert exp_monitor_nondecreasing(series, a + 1e-9)
        assert not exp_monitor_nondecreasing(series, a - 1e-3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(case="torus", preset="identity")
        with pytest.raises(ValueError):
            FlowConfig.from_dict({"case": "torus", "bogus": 1})

    @pytest.mark.parametrize("case", ["equivariant", "torus"])
    @pytest.mark.parametrize("cfl", [0.0, -0.4, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_cfl_rejected(self, case, cfl):
        with pytest.raises(ValueError, match="cfl"):
            FlowConfig(case=case, cfl=cfl)

    @pytest.mark.parametrize("amp", [math.nan, math.inf])
    def test_nonfinite_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match="amplitude"):
            FlowConfig(case="torus", amplitude=amp)

    def test_one_dimensional_torus_rejected(self):
        with pytest.raises(ValueError, match="m >= 2"):
            FlowConfig(case="torus", m=1)

    @pytest.mark.parametrize("t_end", [0.0, -0.1, math.nan])
    def test_nonpositive_t_end_rejected(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            FlowConfig(case="equivariant", t_end=t_end)
        # the extinction fraction replaces t_end, which is then free
        FlowConfig(case="equivariant", t_end=t_end, background_m="ricci",
                   background_n="ricci", t_end_frac_of_extinction=0.9)
        with pytest.raises(ValueError, match="t_end_frac_of_extinction"):
            FlowConfig(case="equivariant", background_m="ricci",
                       background_n="ricci", t_end_frac_of_extinction=t_end)

    @pytest.mark.parametrize("case", ["equivariant", "torus"])
    @pytest.mark.parametrize("grid", [-1, -64, 1, 2])
    def test_degenerate_grid_rejected(self, case, grid):
        with pytest.raises(ValueError, match="grid"):
            FlowConfig(case=case, grid=grid)

    def test_smallest_grid_runs(self):
        series = run(FlowConfig(case="torus", grid=3, t_end=0.001, monitor_every=2))
        assert series.abort_reason is None

    @pytest.mark.parametrize("case,grid", [("torus", 8), ("equivariant", 16)])
    def test_step_cap_refuses_a_tiny_cfl(self, case, grid):
        with pytest.raises(ValueError, match="cap"):
            run(FlowConfig(case=case, m=3, n=3, grid=grid, cfl=1e-12))

    def test_step_cap_aborts_a_run_that_outgrows_it(self, monkeypatch):
        # 120 record times force at least 120 steps; the CFL step alone needs fewer
        cfg = FlowConfig(case="equivariant", m=3, n=3, grid=8, t_end=0.5, preset="sine",
                         amplitude=0.5)
        st = flow._equivariant_initial(cfg)
        assert cfg.t_end / equivariant_dt(st, 1.0, 1.0, cfg.cfl) < 60
        monkeypatch.setattr(flow, "MAX_STEPS", 60)
        series = run(cfg)
        assert series.abort_reason.startswith("step cap 60")
        assert series.meta["steps"] == 60

    def test_equivariant_step_counters(self):
        series = run(FlowConfig(case="equivariant", m=3, n=3, grid=24, t_end=0.05,
                                amplitude=0.5, monitor_every=6))
        meta = series.meta
        assert meta["steps"] >= len(series.times) - 1
        assert 0 < meta["dt_min"] <= meta["dt_max"]
        assert meta["dt_max"] * meta["steps"] >= 0.05 - 1e-12
        assert meta["cfl_refreshes"] == math.ceil(meta["steps"] / 16)

    @pytest.mark.parametrize("key,value", [
        ("cfl", "0.4"), ("t_end", None), ("amplitude", [0.1]), ("grid", 64.0),
        ("m", True), ("seed", "0"), ("preset", 3), ("t_end_frac_of_extinction", "0.9"),
        ("winding", 5), ("winding", [[1, None]]),
    ])
    def test_wrong_field_types_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            FlowConfig.from_dict({"case": "torus", key: value})
