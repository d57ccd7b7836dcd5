import math

import numpy as np
import pytest

from areaflow.flow import (
    EquivariantFlowState,
    FlowConfig,
    TorusFlowState,
    equivariant_dt,
    equivariant_monitor,
    equivariant_rhs,
    equivariant_step,
    exp_monitor_nondecreasing,
    run,
    smallest_monotone_rate,
    torus_cfl_dt,
    torus_monitor,
    torus_step,
)


def torus_state(grid=24, lin=None, u=None, m=2, n=2):
    lin = np.zeros((n, m)) if lin is None else np.asarray(lin, dtype=float)
    u = np.zeros((n,) + (grid,) * m) if u is None else u
    return TorusFlowState(m, n, 2 * math.pi, lin, u)


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

    @pytest.mark.parametrize("key,value", [
        ("cfl", "0.4"), ("t_end", None), ("amplitude", [0.1]), ("grid", 64.0),
        ("m", True), ("seed", "0"), ("preset", 3), ("t_end_frac_of_extinction", "0.9"),
        ("winding", 5), ("winding", [[1, None]]),
    ])
    def test_wrong_field_types_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            FlowConfig.from_dict({"case": "torus", key: value})
