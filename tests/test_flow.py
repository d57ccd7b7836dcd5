import contextlib
import io
import json
import math
import os
import re
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

from areaflow import flow
from areaflow.cli import main as cli_main
from areaflow.flow import (
    EquivariantFlowState,
    FlowConfig,
    TorusFlowState,
    _stencil,
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
from areaflow.profile import SingularProfile, s_of
from areaflow.spaces import BackgroundPath


def torus_state(grid=24, lin=None, u=None, m=2, n=2):
    lin = np.zeros((n, m)) if lin is None else np.asarray(lin, dtype=float)
    u = np.zeros((n,) + (grid,) * m) if u is None else u
    return TorusFlowState(m, n, 2 * math.pi, lin, u)


# The per-component np.roll stencil, the point-major SVD-frame term I and the
# centered-difference residual across Heun steps that the shared per-state
# geometry, the frame-free term I and the chain-rule residual replaced: the
# references for the torus path.


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


def ref_frame(dfp):
    """Adapted graph frame per point of a point-major (p, n, m) differential:
    singular values on M and N, tangent e_hat (p, i, k), normals nu_m (p, a, k)
    and nu_n (p, a, b)."""
    p, n, m = dfp.shape
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
    return lam, lam_t, e_hat, nu_m, nu_n


def ref_term_one(st):
    """Term I with the Christoffel part of A kept (it is tangential)."""
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
    lam, lam_t, e_hat, nu_m, nu_n = ref_frame(dfp)
    an = hessp - np.einsum("pqkl,pbq->pbkl", gammap, dfp)
    adot = (-np.einsum("pqkl,paq->pakl", gammap, nu_m)
            + np.einsum("pbkl,pab->pakl", an, nu_n))
    a2 = np.einsum("pik,plq,pakq->pail", e_hat, e_hat, adot)
    weight = s_of(lam)[:, None, :, None] + s_of(lam_t)[:, :, None, None]
    return 2.0 * np.einsum("pail,pail->p", weight * a2, a2).reshape(grid)


def ref_zeta_term_one(g):
    """Term I from a geometry by the zeta form that pushing eta^{-1} through
    df replaced: zeta^{-1} = I - df eta^{-1} df^T by one three-operand einsum
    and zeta^{-2} - zeta^{-1} as its square less itself."""
    n = g.df.shape[0]
    z = -np.einsum("ai...,ij...,bj...->ab...", g.df, g.inv, g.df)
    for a in range(n):
        z[a, a] += 1.0
    gb = np.einsum("ij...,bjk...->bik...", g.inv, g.hess)
    k = np.einsum("ij...,bjk...->bik...", g.inv, gb)
    t = np.einsum("bij...,aji...->ab...", gb, gb)
    u = np.einsum("bij...,aji...->ab...", k, gb)
    zz = np.einsum("ab...,bc...->ac...", z, z) - z
    return 4.0 * (np.einsum("ab...,ab...->...", z, u) + np.einsum("ab...,ab...->...", zz, t))


def ref_eta_per_entry(plan, df, zeros):
    """``flow._torus_eta`` in the per-entry form the stacked products
    replaced: each entry of g = df^T df one product per component, summed in
    component order, eta's upper triangle g's with 1 + g_ii on its diagonal."""
    n, m, grid = df.shape[0], df.shape[1], df.shape[2:]
    eta, product, g = np.zeros((m, m) + grid), np.zeros(grid), np.zeros((m,) + grid)
    for i in range(m):
        for j in range(i, m):
            out = g[i] if i == j else eta[i, j]
            plan(np.multiply, df[0, i], df[0, j], out)
            for a in range(1, n):
                plan(np.add, out, plan(np.multiply, df[a, i], df[a, j], product), out)
        plan(np.add, g[i], 1.0, eta[i, i])
    return eta, g


def ref_monitor(st):
    """``torus_monitor`` in the form that read df before g joined the
    geometry: at m = 2 the three entries of g by one einsum each, at m >= 3 g
    by a point-major einsum into ``eigvalsh``."""
    df = st.geometry.df
    if st.m > 2:
        pts = df.reshape(st.n, st.m, -1).transpose(2, 0, 1)
        w = np.linalg.eigvalsh(np.einsum("pai,paj->pij", pts, pts))[:, ::-1]
        return s_and_products(np.sqrt(np.clip(w, 0.0, None)))
    g00, g11, g01 = (np.einsum("a...,a...->...", df[:, i], df[:, j])
                     for i, j in ((0, 0), (1, 1), (0, 1)))
    half_tr = np.add(g00, g11)
    half_tr *= 0.5
    top = np.subtract(g00, g11)
    top *= 0.5
    np.hypot(top, g01, out=top)
    top += half_tr
    lam_max = math.sqrt(max(float(top.max()), 0.0))
    det = np.multiply(g00, g11, out=g00)
    det -= np.square(g01, out=g01)
    np.maximum(det, 0.0, out=det)
    prod = math.sqrt(float(det.max()))
    eta_det = np.add(half_tr, half_tr, out=half_tr)
    eta_det += det
    eta_det += 1.0
    np.subtract(1.0, det, out=det)
    det *= 2.0
    det /= eta_det
    return float(det.min()), lam_max, prod


def ref_heun_step(st, dt):
    k1 = ref_rhs(st)
    mid = TorusFlowState(st.m, st.n, st.period, st.lin, st.u + dt * k1, st.t + dt)
    return TorusFlowState(st.m, st.n, st.period, st.lin,
                          st.u + 0.5 * dt * (k1 + ref_rhs(mid)), st.t + dt)


def ref_chain_residual(st):
    """The residual of one state as ``torus_evolution_residual`` defines it, with
    d_t sigma = -4 tr(eta^{-2} df^T d(f)) by the chain rule, from the np.roll
    stencils and the references above."""
    f = TorusFlowState(st.m, st.n, st.period, st.lin, ref_rhs(st), st.t)
    d_f = ref_df(f) - f.lin.reshape(f.lin.shape + (1,) * st.m)
    df = ref_df(st)
    _, inv = ref_eta_inv(df, st.m)
    inv2 = np.einsum("ij...,jk...->ik...", inv, inv)
    dt_sigma = -4.0 * np.einsum("ij...,aj...,ai...->...", inv2, df, d_f)
    lap = np.einsum("ij...,ij...->...", inv, ref_hessian(ref_sigma(st), st.m, st.h))
    return float(abs(dt_sigma - lap - ref_term_one(st)).max())


def ref_residual(prev, mid, nxt, dt):
    sig_m = ref_sigma(mid)
    _, inv = ref_eta_inv(ref_df(mid), mid.m)
    lap = np.einsum("ij...,ij...->...", inv, ref_hessian(sig_m, mid.m, mid.h))
    res = (ref_sigma(nxt) - ref_sigma(prev)) / (2.0 * dt) - lap - ref_term_one(mid)
    return float(abs(res).max())


def replayed(record, *args, **kw):
    """What ``record(plan, *args)`` writes, recorded into a plan of its own
    and run once."""
    plan = flow._Plan()
    out = record(plan, *args, **kw)
    plan.run()
    return out


def stencil(a, m, **parts):
    """``_stencil`` of a, over a ring of a's shape filled periodically, run once."""
    plan = flow._Plan()
    ring = flow._ringed(a.shape[:-m], a.shape[-m:])
    plan.append((flow._periodic([ring], m), ()))
    out = _stencil(plan, ring, m, **parts)
    np.copyto(ring[flow._inner(m)], a)
    plan.run()
    return out


def assert_close(got, ref):
    ref = np.asarray(ref)
    assert np.shape(got) == ref.shape
    assert (abs(got - ref) <= 1e-12 * np.maximum(1.0, abs(ref))).all()


def wound_state(m, n, seed=0, grid=None):
    """A smooth random map with a nonzero winding, on a small grid by default."""
    rng = np.random.default_rng([seed, m, n])
    grid = grid or {2: 12, 3: 8}.get(m, 5)
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


SHAPES = [(2, 2), (3, 2), (2, 3), (3, 3)]
# m = 4 takes its 3 x 3 cofactors from 2 x 2 minors of eta, m <= 3 from eta's entries
REFERENCE_SHAPES = SHAPES + [(4, 2), (4, 4)]


def assert_cofactors_match_lapack(st, rtol=1e-13):
    """c / d and d of a state's stage (``_torus_cofactors``) match LAPACK's
    inverse and determinant of eta to ``rtol`` relative on the interior, c / d
    relative to the largest entry of the point's inverse."""
    m, inner = st.m, flow._inner(st.m)
    field = flow._torus_field(st)
    field(st.u, st.t)
    _, _, adj, det, (eta, _) = field.stencil
    full = np.stack([np.stack([eta[min(i, j), max(i, j)][inner] for j in range(m)])
                     for i in range(m)])
    full = np.moveaxis(full, (0, 1), (-2, -1))
    inv, ref_det, det = np.linalg.inv(full), np.linalg.det(full), det[inner]
    assert (abs(det - ref_det) <= rtol * abs(ref_det)).all()
    scale = abs(inv).max(axis=(-2, -1))
    for i in range(m):
        for j in range(i, m):
            assert (abs(adj[i, j][inner] / det - inv[..., i, j]) <= rtol * scale).all()


class TestTorusReference:
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_stencil(self, m, n):
        # undivided differences, axis indices leading and ringed by one cell per
        # side: 2h d_i, h^2 d_i^2 on the diagonal and 4h^2 d_i d_j above it, on
        # the interior; either part alone is the same
        st = wound_state(m, n)
        h, inner = st.h, (Ellipsis,) + (slice(1, -1),) * m
        ref_grad = np.stack([np.stack([ref_d1(st.u[a], ax, h) for ax in range(m)])
                             for a in range(n)])
        ref_hess = np.stack([ref_hessian(st.u[a], m, h) for a in range(n)])
        grad, hess = (part[inner] for part in stencil(st.u, m))
        assert_close(np.moveaxis(grad, 0, 1) / (2 * h), ref_grad)
        for i in range(m):
            for j in range(i, m):
                assert_close(hess[i, j] / (h * h if i == j else 4 * h * h), ref_hess[:, i, j])
        only_grad, none = stencil(st.u, m, hess=False)
        none_, only_hess = stencil(st.u, m, grad=False)
        assert none is None and none_ is None
        assert np.array_equal(only_grad[inner], grad)
        assert all(np.array_equal(only_hess[inner][i, j], hess[i, j])
                   for i in range(m) for j in range(i, m))
        assert_close(st.geometry.df, ref_df(st))
        assert_close(st.geometry.hess, ref_hess)

    @pytest.mark.parametrize("m,n", REFERENCE_SHAPES)
    def test_rhs_sigma_term_one(self, m, n):
        st = wound_state(m, n)
        assert_cofactors_match_lapack(st)
        assert_close(torus_rhs(st), ref_rhs(st))
        assert_close(flow._torus_field(st)(st.u, 0.0), ref_rhs(st))
        assert_close(replayed(_torus_term_one, st.geometry,
                              replayed(flow._torus_pushed, st.geometry)[0], np.zeros),
                     ref_term_one(st))
        assert_close(torus_evolution_residual(st), ref_chain_residual(st))

    # the stacked products sum each entry of g as the per-entry form does, and
    # g read from the stage is the contraction the monitor took it by
    @pytest.mark.parametrize("m,n", REFERENCE_SHAPES)
    def test_stage_and_monitor_are_bit_identical_to_their_reference_forms(self, m, n,
                                                                         monkeypatch):
        st = wound_state(m, n)
        u_t, monitor, df = torus_rhs(st), torus_monitor(st), st.geometry.df
        assert np.array_equal(st.geometry.g, np.einsum("ai...,aj...->ij...", df, df))
        assert monitor == ref_monitor(st)
        monkeypatch.setattr(flow, "_torus_eta", ref_eta_per_entry)
        assert np.array_equal(torus_rhs(wound_state(m, n)), u_t)

    # one component steep enough that cond(eta) is about 1e4: a matrix form of
    # term I then loses digits to the cancellation between its two sums
    # (1e-9 to 1e-6 here), and Z = I - df W may lose at most twice what the
    # zeta form does; -df eta^{-2} df^T for zeta^{-2} - zeta^{-1} lost 2 to
    # 60 times more.  The cofactors lose digits too, each level of the
    # expansion to the cancellation of products of eta's large entries:
    # against a Gauss-Jordan elimination in extended precision they are at
    # most 2.5e-13 off at m = 2, 3.3e-10 at m = 3 and 7.1e-8 at m = 4, and
    # LAPACK 4.4e-13
    @pytest.mark.parametrize("m,n", REFERENCE_SHAPES)
    def test_term_one_at_a_large_condition_number(self, m, n):
        st = wound_state(m, n)
        u = st.u.copy()
        u[0] *= 700.0
        st = torus_state(grid=u.shape[1], lin=st.lin, u=u, m=m, n=n)
        eta = np.eye(m)[:, :, None] + np.einsum("ai...,aj...->ij...", st.geometry.df,
                                                 st.geometry.df).reshape(m, m, -1)
        assert 5e3 <= np.linalg.cond(np.moveaxis(eta, 2, 0)).max() <= 2.5e4
        assert_cofactors_match_lapack(st, rtol=1e-12 if m == 2 else 2e-7)
        ref = ref_term_one(st)

        def error(got):
            return (abs(got - ref) / np.maximum(1.0, abs(ref))).max()

        w = replayed(flow._torus_pushed, st.geometry)[0]
        got = replayed(_torus_term_one, st.geometry, w, np.zeros)
        assert error(got) <= max(1e-12, 2 * error(ref_zeta_term_one(st.geometry)))

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_evolution_residual(self, m, n):
        # the centered difference is O(dt^2) off d_t sigma; a quarter of the CFL
        # step keeps that below 1e-3 of the residual on these coarse grids
        prev = wound_state(m, n)
        dt = torus_cfl_dt(prev) / 4
        mid = ref_heun_step(prev, dt)
        nxt = ref_heun_step(mid, dt)
        assert torus_evolution_residual(mid) == pytest.approx(
            ref_residual(prev, mid, nxt, dt), rel=1e-3)

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_normal_frame_annihilates_tangent_vectors(self, m, n):
        # <nu_a, (e_p, d_p f)> = nuM[a,p] + nuN[a,b] df[b,p] = 0: why term I
        # needs no Christoffel symbols
        st = wound_state(m, n)
        dfp = ref_df(st).reshape(n, m, -1).transpose(2, 0, 1)
        _, _, _, nu_m, nu_n = ref_frame(dfp)
        assert abs(nu_m + np.einsum("pab,pbk->pak", nu_n, dfp)).max() <= 1e-12

    def test_read_geometry_steps_like_a_fresh_state(self):
        prev = wound_state(2, 2)
        dt = torus_cfl_dt(prev)
        mid = torus_step(prev, dt)
        torus_monitor(mid)
        torus_evolution_residual(mid)
        fresh = TorusFlowState(mid.m, mid.n, mid.period, mid.lin, mid.u.copy(), mid.t)
        assert "geometry" in vars(mid) and "geometry" not in vars(fresh)
        assert np.array_equal(torus_step(mid, dt).u, torus_step(fresh, dt).u)
        with pytest.raises(ValueError, match="read-only"):
            mid.u[0] += 1.0


def ref_lambdas(st):
    """Descending singular values per grid point by the batched eigvalsh of
    df^T df that the m = 2 closed form replaced: its reference."""
    pts = st.geometry.df.reshape(st.n, st.m, -1).transpose(2, 0, 1)
    w = np.linalg.eigvalsh(np.einsum("pai,paj->pij", pts, pts))
    return np.sqrt(np.clip(w, 0.0, None))[:, ::-1]


def s_and_products(lam):
    """The monitor triple from singular values: min S_11 + S_22, max lambda and
    max lambda_1 lambda_2."""
    s = s_of(lam)
    return float((s[:, 0] + s[:, 1]).min()), float(lam.max()), float((lam[:, 0] * lam[:, 1]).max())


class TestTorusWorkspace:
    """A run's stages write their geometry into the arrays of the run's plan,
    not a new state's."""

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_stage_is_the_rhs_of_a_fresh_state(self, m, n):
        st = wound_state(m, n)
        assert np.array_equal(flow._torus_field(st)(st.u, 0.0), torus_rhs(wound_state(m, n)))

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_stages_do_not_share_results(self, m, n):
        st = wound_state(m, n)
        u1, u2 = st.u, torus_step(st, torus_cfl_dt(st)).u
        field = flow._torus_field(st)
        first = field(u1, 0.0)
        kept = first.copy()
        second = field(u2, 0.0)
        again = field(u1, 0.0)
        assert np.array_equal(first, kept) and np.array_equal(again, kept)
        assert not np.array_equal(second, kept)

    def test_interleaved_fields_match_each_field_alone(self):
        # two runs of other grids, shapes and windings, stage by stage
        states = [wound_state(2, 2, seed=1, grid=12),
                  TorusFlowState(2, 3, 2 * math.pi, [[2, 0], [1, -1], [0, 3]],
                                 wound_state(2, 3, seed=2, grid=8).u)]

        def stages(field, u):
            for _ in range(3):
                f = field(u, 0.0)
                yield f
                u = u + 1e-3 * f

        alone = [[f.tobytes() for f in stages(flow._torus_field(st), st.u)] for st in states]
        both = zip(*(stages(flow._torus_field(st), st.u) for st in states))
        assert [[f.tobytes() for f in pair] for pair in both] == [list(p) for p in zip(*alone)]

    def test_overwritten_result_changes_no_later_stage(self):
        # _rkc_step scales the u_t a stage returns in place
        st = wound_state(2, 2)
        field = flow._torus_field(st)
        ref = flow._torus_field(st)(st.u, 0.0).tobytes()
        field(st.u, 0.0)[...] = math.nan
        assert field(st.u, 0.0).tobytes() == ref

    # numpy's ufunc iterator buffers up to 8192 elements per operand at every
    # call; on these grids the state is large enough to dwarf them
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_stage_allocates_only_its_result(self, m, n):
        st = wound_state(m, n, grid=96 if m == 2 else 24)
        field = flow._torus_field(st)
        field(st.u, 0.0)
        tracemalloc.start()
        try:
            field(st.u, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * st.u.nbytes


class TestTorusRecords:
    """A run's rows read the right-hand side of the march and the geometry its
    evaluation wrote, and give what the public functions give on a fresh state."""

    @staticmethod
    def run_holding_rows(m, n, monkeypatch):
        """A short run whose monitor keeps a fresh state of each row's u and t,
        and a copy of the row's geometry (which the next row overwrites);
        returns the series and the pairs (fresh state, geometry).  The run
        marches one slab, so the monitor reads the whole grid."""
        monkeypatch.setattr(flow, "_TWO_SLABS", math.inf)
        cfg = FlowConfig(case="torus", m=m, n=n, grid=12 if m == 2 else 8, t_end=0.2,
                         preset="linear_sine", amplitude=0.15, monitor_every=4)
        held = []
        monitor = flow.torus_monitor
        monkeypatch.setattr(flow, "torus_monitor", lambda st: held.append((
            TorusFlowState(m, n, st.period, st.lin, st.u.copy(), st.t),
            [a.copy() for a in st.geometry])) or monitor(st))
        series = run(cfg)
        monkeypatch.undo()
        assert series.abort_reason is None and len(held) == len(series.times) == 5
        return series, held

    # rows and fresh states form their geometry by one path, so the numbers are
    # the same to the bit
    @pytest.mark.parametrize("m,n", REFERENCE_SHAPES)
    def test_rows_match_the_public_functions(self, m, n, monkeypatch):
        series, held = self.run_holding_rows(m, n, monkeypatch)
        for i, (fresh, _) in enumerate(held):
            assert fresh.t == series.times[i]
            assert (series.m_of_t[i], series.lambda_max[i],
                    series.max_product[i]) == torus_monitor(fresh)
            assert series.residual[i] == torus_evolution_residual(fresh)

    @pytest.mark.parametrize("m,n", REFERENCE_SHAPES)
    def test_row_geometry_is_a_fresh_states(self, m, n, monkeypatch):
        _, held = self.run_holding_rows(m, n, monkeypatch)
        for fresh, geometry in held:
            for name, got, ref in zip(flow.TorusGeometry._fields, geometry, fresh.geometry):
                assert got.shape == ref.shape and np.array_equal(got, ref), name

    # every stage checks det eta once, so the checks count the stages
    def test_geometry_built_once_per_evaluation(self, monkeypatch):
        calls = []
        positive = flow._positive
        monkeypatch.setattr(flow, "_positive", lambda *a: calls.append(1) or positive(*a))
        series = run(FlowConfig(case="torus", grid=12, t_end=0.2, monitor_every=4))
        # the last row's right-hand side is the only one no step takes as a stage
        assert len(calls) == series.meta["rhs_evals"] + 1

    def test_fresh_residual_evaluates_one_stage(self, monkeypatch):
        # the geometry, u_t, monitor and residual of a fresh state all read
        # one stage of the row function the state builds
        calls = []
        positive = flow._positive
        monkeypatch.setattr(flow, "_positive", lambda *a: calls.append(1) or positive(*a))
        torus_evolution_residual(wound_state(2, 2, grid=8))
        assert len(calls) == 1
        for m in (2, 3):
            st = wound_state(m, 2)
            st.geometry, torus_rhs(st), torus_monitor(st), torus_evolution_residual(st)
        assert len(calls) == 3

    # the record's stencils, geometry (the pullback metric g with it), W and V,
    # Q = df W and term I write into arrays of the run's plans; what is left is
    # the monitor's pointwise arrays (half the trace of g, its larger root and
    # g_01^2), three grid fields, 1.5 states' worth at n = 2
    def test_record_allocates_bounded_memory(self):
        st = wound_state(2, 2, grid=96)
        field = flow._torus_field(st)
        record = flow._torus_record(st, field)
        record(st.u, 0.0, field(st.u, 0.0))
        f = field(st.u, 0.0)
        tracemalloc.start()
        try:
            record(st.u, 0.0, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * st.u.nbytes

    # the distinct arrays a grid-96 row's two plans hold, the stage's they read
    # included: 40.7 states' worth, term I's pairwise arrays and the
    # Laplacian's in arrays the residual has read
    def test_row_plans_hold_bounded_memory(self):
        st = wound_state(2, 2, grid=96)
        held = {}
        for plan in flow._torus_record(st, flow._torus_field(st)).plans:
            for _, args in plan:
                for a in args:
                    if isinstance(a, np.ndarray):
                        while a.base is not None:
                            a = a.base
                        held[id(a)] = a
        assert sum(a.nbytes for a in held.values()) <= 41 * st.u.nbytes


class TestTorusLambdas:
    """Singular values at m = 2 against the SVD reference, and the m = 2
    monitor, which reads the invariants of the pullback metric."""

    @staticmethod
    def assert_squares_close(st):
        got, ref = flow.torus_lambdas(st), ref_lambdas(st)
        assert got.shape == ref.shape and np.isfinite(got).all()
        assert abs(got**2 - ref**2).max() <= 1e-12 * max(1.0, (ref**2).max())

    @pytest.mark.parametrize("n", [2, 3])
    def test_wound_states(self, n):
        st = wound_state(2, n)
        self.assert_squares_close(st)
        got, ref = torus_monitor(st), s_and_products(ref_lambdas(st))
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_rank_one_differential(self):
        grid = 12
        x = np.arange(grid) * (2 * math.pi / grid)
        u = 0.2 * (np.sin(x)[:, None] * np.cos(x)[None, :])[None]
        self.assert_squares_close(torus_state(grid=grid, lin=[[1.0, -1.0]], u=u, n=1))

    def test_zero_map(self):
        st = torus_state(grid=8)
        self.assert_squares_close(st)
        assert (flow.torus_lambdas(st) == 0.0).all()
        assert torus_monitor(st) == (2.0, 0.0, 0.0)

    # lambda_i = 0 past rank min(m, n), where eigvalsh leaves rounding
    @pytest.mark.parametrize("m,n", [(3, 1), (3, 2), (4, 1), (4, 2)])
    def test_rows_are_singular_profiles(self, m, n):
        for row in flow.torus_lambdas(wound_state(m, n)):
            SingularProfile.from_lambdas(row, m, n)

    def test_rank_one_run_has_no_product(self):
        series = run(FlowConfig(case="torus", m=4, n=1, grid=6, t_end=0.05, monitor_every=5))
        assert series.abort_reason is None and series.max_product == [0.0] * 6


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
        mu = (2 - 2 * math.cos(st.h)) / st.h**2  # discrete sine eigenvalue
        for dt in torus_cfl_dt(st) * np.array([1.0, 10.0, 100.0]):
            out = torus_step(st, dt)
            # RKC2's amplification R_s(z) = a_s + b_s T_s(w0 + w1 z) at z = -mu dt
            s = flow._rkc_stages(dt, torus_cfl_dt(st), 10**7)
            w0 = 1 + (2 / 13) / s**2
            t_s, d1, d2 = ref_chebyshev(s, w0)
            b = d2 / d1**2
            amp = 1 - b * t_s + b * ref_chebyshev(s, w0 - d1 / d2 * mu * dt)[0]
            assert out.u[0].max() == pytest.approx(eps * amp, rel=1e-7)
            assert 0 < out.u[0].max() < eps

    def test_second_order_in_time(self):
        # the residual reads one state, so only this sees the time stepper; every
        # step here takes two stages, so the error constant stays put
        st = wound_state(2, 2)
        fine = torus_march(st, 0.04, 256).u
        errs = [abs(torus_march(st, 0.04, n).u - fine).max() for n in (2, 4, 8, 16)]
        assert all(3.5 <= a / b <= 4.5 for a, b in zip(errs, errs[1:]))

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

    def test_rows_land_on_the_record_grid(self):
        cfg = FlowConfig(case="torus", grid=16, t_end=0.02, preset="linear_sine",
                         amplitude=0.1, monitor_every=5)
        series = run(cfg)
        gap = cfg.t_end / cfg.monitor_every
        assert np.allclose(series.times, gap * np.arange(6), rtol=0, atol=1e-15)
        assert np.isfinite(series.residual).all()
        meta = series.meta
        assert meta["dt_min"] == meta["dt_max"] == pytest.approx(gap, rel=1e-15)
        assert meta["steps"] == meta["cfl_refreshes"] == 5
        assert meta["rhs_evals"] >= 2 * meta["steps"]

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

    def test_integral_float_winding_entries_become_ints(self):
        cfg = FlowConfig.from_dict({"case": "torus", "winding": [[1.0, 0], [-2.0, 1]]})
        assert cfg.winding == ((1, 0), (-2, 1))
        assert all(type(x) is int for row in cfg.winding for x in row)


# The explicit Heun loop the RKC2 stepper replaced, inlined as it was in
# ``_run_equivariant``, the CFL step as ``equivariant_dt`` computed it before
# the run's field took it over, and the right-hand side as the reduced
# equation reads, with divided differences: the references for the
# equivariant path.


def ref_eq_rhs(rho, dp, ddp, th, m, r_m, r_n):
    """rho_t on the interior nodes from rho, rho', rho'' and theta there."""
    diff = r_m**2 + r_n**2 * dp**2
    denom = r_m**2 * np.sin(th) ** 2 + r_n**2 * np.sin(rho) ** 2
    return ddp / diff + (m - 1) * (np.sin(th) * np.cos(th) * dp
                                   - np.sin(rho) * np.cos(rho)) / denom


def ref_equivariant_dt(st, r_m, r_n):
    th = st.theta[1:-1]
    dp, _ = flow._rho_derivatives(st.rho, st.boundary_class, st.h)
    diff = 1.0 / (r_m**2 + r_n**2 * dp[1:-1] ** 2)
    denom = r_m**2 * np.sin(th) ** 2 + r_n**2 * np.sin(st.rho[1:-1]) ** 2
    drift = abs((st.m - 1) * np.sin(th) * np.cos(th) / denom)
    rate = 2.0 * diff.max() / st.h**2 + drift.max() / st.h
    return flow.CFL / rate


def ref_heun_m_series(cfg):
    """Record times and m(t) of an equivariant run by Heun at the CFL step."""
    pm, pn = flow._paths(cfg)
    t_end = cfg.t_end
    if cfg.t_end_frac_of_extinction is not None:
        t_end = cfg.t_end_frac_of_extinction * min(pm.t_max, pn.t_max)

    def radii(t):
        f_m = pm.metric_factor(t) if pm.mode == "ricci" else 1.0
        f_n = pn.metric_factor(t) if pn.mode == "ricci" else 1.0
        return cfg.radius_m * math.sqrt(f_m), cfg.radius_n * math.sqrt(f_n)

    st = flow._equivariant_initial(cfg)
    times, m_of = [0.0], [equivariant_monitor(st, *radii(0.0))[0]]
    next_record = record_dt = t_end / (cfg.monitor_every or 120)
    h, cls, m = st.h, st.boundary_class, st.m
    th = st.theta[1:-1]
    rho, t = st.rho.copy(), 0.0
    dt = ref_equivariant_dt(st, *radii(0.0))
    refresh = 16
    while t < t_end - 1e-14:
        if refresh == 0:
            dt = ref_equivariant_dt(EquivariantFlowState(m, cfg.n, rho.copy(), cls, t),
                                    *radii(t))
            refresh = 16
        refresh -= 1
        step = min(dt, t_end - t, max(next_record - t, 1e-15))
        dp, ddp = flow._rho_derivatives(rho, cls, h)
        k1 = ref_eq_rhs(rho[1:-1], dp[1:-1], ddp[1:-1], th, m, *radii(t))
        mid = rho.copy()
        mid[1:-1] += step * k1
        dp, ddp = flow._rho_derivatives(mid, cls, h)
        k2 = ref_eq_rhs(mid[1:-1], dp[1:-1], ddp[1:-1], th, m, *radii(t + step))
        rho[1:-1] += 0.5 * step * (k1 + k2)
        t += step
        if t >= next_record - 1e-14 or t >= t_end - 1e-14:
            st = EquivariantFlowState(m, cfg.n, rho.copy(), cls, t)
            times.append(t)
            m_of.append(equivariant_monitor(st, *radii(t))[0])
            while next_record <= t + 1e-14:
                next_record += record_dt
    return np.asarray(times), np.asarray(m_of)


STATIC = dict(case="equivariant", m=3, n=3, t_end=0.5, preset="sine", amplitude=0.8,
              monitor_every=40)
COUPLED = dict(STATIC, t_end=0.0, background_m="ricci", background_n="ricci",
               t_end_frac_of_extinction=0.9)


def ref_chebyshev(s, w):
    """T_s, T_s', T_s'' at w by the three-term recurrence."""
    t, d1, d2 = [1.0, w], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        t.append(2 * w * t[-1] - t[-2])
        d1.append(2 * t[-2] + 2 * w * d1[-1] - d1[-2])
        d2.append(4 * d1[-2] + 2 * w * d2[-1] - d2[-2])
    return t[s], d1[s], d2[s]


def march(st, t_end, n, r_of_t):
    for _ in range(n):
        st = equivariant_step(st, t_end / n, r_of_t)
    return st


def torus_march(st, t_end, n):
    for _ in range(n):
        st = torus_step(st, t_end / n)
    return st


class TestEquivariantRKC:
    @pytest.mark.parametrize("grid", [64, 96])
    @pytest.mark.parametrize("kind", [STATIC, COUPLED], ids=["static", "coupled"])
    def test_m_series_matches_heun_to_h2(self, grid, kind):
        cfg = FlowConfig(grid=grid, **kind)
        series = run(cfg)
        times, m_ref = ref_heun_m_series(FlowConfig(grid=grid, **kind))
        assert series.abort_reason is None
        assert np.allclose(series.times, times, rtol=0, atol=1e-12)
        assert abs(np.asarray(series.m_of_t) - m_ref).max() <= series.meta["h"] ** 2

    @pytest.mark.parametrize("nodes", [257, 513, 1025])
    @pytest.mark.parametrize("dt", [1e-5, 1e-4, 1e-3])
    def test_identity_steps_stay_put(self, nodes, dt):
        ident = EquivariantFlowState(3, 3, np.linspace(0, math.pi, nodes), 1)
        out = equivariant_step(ident, dt, lambda t: (1.0, 1.0))
        assert abs(out.rho - ident.rho).max() <= 1e-10 * dt

    @pytest.mark.parametrize("s", [2, 3, 7, 40, 333])
    def test_beta_is_the_stability_interval(self, s):
        w0 = 1 + (2 / 13) / s**2
        _, d1, d2 = ref_chebyshev(s, w0)
        assert flow._rkc_beta(s) == pytest.approx((w0 + 1) * d2 / d1, rel=1e-12)
        assert flow._rkc_beta(s) == pytest.approx(0.653 * (s**2 - 1), rel=1e-2)

    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 1.9, 1.97, 2.0, 37.5, 537.0, 2845.0, 1e6])
    def test_fewest_stable_stages(self, ratio):
        step, dt_cfl = 0.01, 0.02 / ratio  # 2 step / dt_cfl = ratio
        s = flow._rkc_stages(step, dt_cfl, 10**7)
        assert s >= 2 and flow._rkc_beta(s) * dt_cfl >= 2 * step
        assert s == 2 or flow._rkc_beta(s - 1) * dt_cfl < 2 * step
        assert flow._rkc_stages(step, dt_cfl, s - 1) is None
        assert flow._rkc_stages(step, dt_cfl, s) == s

    @pytest.mark.parametrize("s", [2, 5, 40])
    def test_stage_times_are_consistent(self, s):
        *_, c = flow._rkc_coefficients(s)
        assert c[0] == 0 and c[s] == pytest.approx(1.0, abs=1e-13)
        assert all(np.diff(c) > 0)

    @pytest.mark.parametrize("r_of_t", [lambda t: (1.0, 1.0),
                                        lambda t: (math.sqrt(1 - 4 * t),) * 2],
                             ids=["static", "ricci"])
    def test_second_order_in_time(self, r_of_t):
        th = np.linspace(0, math.pi, 65)
        st = EquivariantFlowState(3, 3, 0.8 * np.sin(th), 0)
        # start past the sine profile's grid-scale transient (about 5e-6 at the
        # poles), which a large step damps over several steps, not at once
        st = march(st, 0.005, 16, r_of_t)
        fine = march(st, 0.04, 128, r_of_t).rho
        errs = [abs(march(st, 0.04, n, r_of_t).rho - fine).max() for n in (1, 2, 4, 8)]
        assert all(a >= 3 * b for a, b in zip(errs, errs[1:]))


def random_profile(rng, nodes, cls):
    """A smooth random profile of boundary class cls: cls theta plus six
    random sine modes, with the pole values pinned."""
    th = np.linspace(0.0, math.pi, nodes)
    rho = cls * th + rng.normal(0.0, 0.3, 6) @ np.sin(np.outer(np.arange(1, 7), th))
    rho[0], rho[-1] = 0.0, cls * math.pi
    return rho


# The RKC2 step as it was before its stages wrote into buffers: every stage
# evaluates a fresh y + d through the copying field and allocates mu d and
# gam f0, with the coefficients as floats.  The reference of the buffered one.
def ref_rkc_step(y, t, dt, s, rhs, y_t=None):
    mu, nu, mut, gam, c = ([float(x) for x in a] for a in flow._rkc_coefficients(s))
    f0 = dt * (rhs(y, t) if y_t is None else y_t)
    d_prev, d = 0.0, mut[1] * f0
    for j in range(2, s + 1):
        f = rhs(y + d, t + c[j - 1] * dt)
        f *= dt
        d_new = mu[j] * d
        d_prev *= nu[j]
        d_new += d_prev
        f *= mut[j]
        d_new += f
        d_new += gam[j] * f0
        d, d_prev = d_new, d
    return y + d


def shrinking(t):
    return (math.sqrt(1.0 - 0.5 * t), 1.5 * math.sqrt(1.0 - 0.25 * t))


def stepper_fields():
    """(name, field, y, t, dt_cfl) of the two reductions: equivariant grid-24
    fields with fixed and with shrinking radii, and torus fields of wound
    states with m = 2 and m = 3."""
    rng = np.random.default_rng(23)
    out = []
    for name, radii in (("static", (0.8, 1.2)), ("shrinking", shrinking)):
        rho = random_profile(rng, 25, 1)
        field = flow._eq_field(3, 25, radii)
        out.append((name, field, rho, 0.1, field.cfl_dt(rho, 0.1)))
    for m in (2, 3):
        st = wound_state(m, m)
        out.append((f"torus m{m}", flow._torus_field(st), st.u, 0.0, torus_cfl_dt(st)))
    return out


STEPPER_FIELDS = [pytest.param(*f[1:], id=f[0]) for f in stepper_fields()]
# numpy's ufunc iterator buffers 8192 elements of 8 bytes per operand, three at most
ITERATOR_BUFFERS = 3 * 8192 * 8


class TestBufferedStepper:
    """The RKC2 step whose stages write into the field's buffers gives the
    allocating step's bytes, and allocates nothing per stage."""

    @pytest.mark.parametrize("given", [False, True], ids=["fresh", "given"])
    @pytest.mark.parametrize("s", [2, 3, 10, 31])
    @pytest.mark.parametrize("field,y,t,dt_cfl", STEPPER_FIELDS)
    def test_step_matches_the_allocating_step(self, field, y, t, dt_cfl, s, given):
        dt = 0.45 * flow._rkc_beta(s) * dt_cfl  # inside the stability interval
        y_t = field(y, t) if given else None
        kept = None if y_t is None else y_t.copy()
        got = flow._rkc_step(y, t, dt, s, field, y_t)
        assert got.tobytes() == ref_rkc_step(y, t, dt, s, field, kept).tobytes()
        assert not np.array_equal(got, y)
        if given:  # the step reads a given y_t and leaves it as it was
            assert y_t.tobytes() == kept.tobytes()

    def test_interleaved_fields_match_each_field_alone(self):
        (_, a, ya, ta, dta), (_, b, yb, tb, dtb) = stepper_fields()[:2]

        def steps(field, y, t, dt_cfl):
            for _ in range(4):
                y = flow._rkc_step(y, t, dt_cfl, 5, field)
                t += dt_cfl
                yield y

        alone = [[y.tobytes() for y in steps(*args)]
                 for args in ((a, ya, ta, dta), (b, yb, tb, dtb))]
        both = zip(steps(a, ya, ta, dta), steps(b, yb, tb, dtb))
        assert [[y.tobytes() for y in pair] for pair in both] == [list(p) for p in zip(*alone)]

    @staticmethod
    def traced(fn, *args):
        """(bytes still held, peak) of fn(*args) under tracemalloc, after a
        first call that leaves every cache warm."""
        fn(*args)
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    # the equivariant stage's peak is a few Python floats; the torus stage's is
    # numpy's ufunc iterator buffers, which these states' grids outgrow
    @pytest.mark.parametrize("field,y,peak", [
        (flow._eq_field(3, 1025, (1.0, 1.0)), 0.8 * np.sin(np.linspace(0, math.pi, 1025)), 256),
        (flow._eq_field(3, 1025, shrinking), 0.8 * np.sin(np.linspace(0, math.pi, 1025)), 256),
        (flow._torus_field(wound_state(2, 2, grid=128)), wound_state(2, 2, grid=128).u,
         ITERATOR_BUFFERS),
        (flow._torus_field(wound_state(3, 3, grid=24)), wound_state(3, 3, grid=24).u,
         ITERATOR_BUFFERS)],
        ids=["static", "shrinking", "torus m2", "torus m3"])
    def test_stage_allocates_nothing(self, field, y, peak):
        np.copyto(field.y_in, y)
        held, got = self.traced(field.stage, 0.1)
        assert held == 0 and got <= peak < y.nbytes

    # at most the new state, whatever s is: f0, the increments and the gam f0
    # scratch are the field's work arrays
    @pytest.mark.parametrize("field,y,t,dt_cfl", STEPPER_FIELDS)
    def test_step_memory_does_not_grow_with_the_stages(self, field, y, t, dt_cfl):
        peaks = [self.traced(flow._rkc_step, y, t, 1e-3 * dt_cfl, s, field)[1] for s in (2, 31)]
        assert peaks[1] <= peaks[0] + 1024
        assert peaks[1] <= 6 * y.nbytes + ITERATOR_BUFFERS


class TestEquivariantKernel:
    """The buffered kernel with its folded scales against the reduced
    equation written out with divided differences."""

    @pytest.mark.parametrize("radii", [(1.0, 1.0), (0.7, 0.45)], ids=["unit", "shrunk"])
    @pytest.mark.parametrize("cls", [0, 1])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_the_formula(self, m, cls, radii):
        rng = np.random.default_rng([m, cls])
        for nodes in (33, 129, 513):
            rho = random_profile(rng, nodes, cls)
            st = EquivariantFlowState(m, 4, rho, cls)
            h, th = st.h, st.theta[1:-1]
            dp = (rho[2:] - rho[:-2]) / (2.0 * h)
            ddp = (rho[2:] - 2.0 * rho[1:-1] + rho[:-2]) / h**2
            ref = ref_eq_rhs(rho[1:-1], dp, ddp, th, m, *radii)
            got = equivariant_rhs(st, *radii)
            assert got[0] == got[-1] == 0.0
            assert abs(got[1:-1] - ref).max() <= 1e-13 * abs(ref).max()


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

    @pytest.mark.parametrize("preset", ["sine", "identity_sine"])
    @pytest.mark.parametrize("amp", [100.0, -100.0])
    def test_large_amplitudes_keep_the_pinned_poles(self, preset, amp):
        # amp * sin(pi) is about amp * 1.2e-16, past the 1e-14 pole check
        cfg = FlowConfig(case="equivariant", grid=16, preset=preset, amplitude=amp)
        st = flow._equivariant_initial(cfg)
        assert st.rho[0] == 0.0 and st.rho[-1] == st.boundary_class * math.pi
        assert run(cfg).abort_reason.startswith("lambda_max")


class TestEquivariantRecords:
    """A run takes its CFL steps from its field and builds a state only for a
    row, and both give what the public functions give on a fresh state."""

    @pytest.mark.parametrize("kind", [STATIC, COUPLED, dict(STATIC, m=2, n=3, radius_n=1.5),
                                      dict(STATIC, m=4, n=5)],
                             ids=["static", "coupled", "m2", "m4"])
    def test_steps_and_rows_match_the_public_functions(self, kind, monkeypatch):
        cfg = FlowConfig(**dict(kind, grid=24, monitor_every=5))
        steps, rows = [], []
        eq_field, monitor = flow._eq_field, flow.equivariant_monitor

        def field(*a):
            rhs = eq_field(*a)
            cfl_dt = rhs.cfl_dt
            rhs.cfl_dt = lambda y, t: steps.append((y.copy(), t, cfl_dt(y, t))) or steps[-1][2]
            return rhs

        monkeypatch.setattr(flow, "_eq_field", field)
        monkeypatch.setattr(flow, "equivariant_monitor",
                            lambda st, *r: rows.append((st.rho.copy(), st.t)) or monitor(st, *r))
        series = run(cfg)
        monkeypatch.undo()
        assert series.abort_reason is None and len(rows) == len(series.times) == 6
        assert len(steps) == series.meta["cfl_refreshes"] == series.meta["steps"]
        paths = flow._paths(cfg)
        cls = flow._equivariant_initial(cfg).boundary_class

        def fresh(rho, t):
            radii = [p.base.scale * math.sqrt(p.metric_factor(t)) for p in paths]
            return EquivariantFlowState(cfg.m, cfg.n, rho, cls, t), radii

        for rho, t, dt in steps:
            st, radii = fresh(rho, t)
            assert dt == equivariant_dt(st, *radii)
            # the field groups (m-1) sin th cos th as (m-1) (sin th cos th)
            ref = ref_equivariant_dt(st, *radii)
            exact = (cfg.m - 1) & (cfg.m - 2) == 0  # m - 1 a power of two
            assert dt == ref if exact else abs(dt - ref) <= math.ulp(ref)
        for i, (rho, t) in enumerate(rows):
            st, radii = fresh(rho, t)
            assert t == series.times[i]
            assert (series.m_of_t[i], series.lambda_max[i],
                    series.max_product[i]) == equivariant_monitor(st, *radii)
            assert series.residual[i] == abs(equivariant_rhs(st, *radii)).max()

    @pytest.mark.parametrize("kind", [STATIC, COUPLED], ids=["static", "coupled"])
    def test_states_only_for_rows(self, kind, monkeypatch):
        built = []
        init = EquivariantFlowState.__post_init__
        monkeypatch.setattr(EquivariantFlowState, "__post_init__",
                            lambda st: built.append(1) or init(st))
        series = run(FlowConfig(**dict(kind, grid=24, monitor_every=5)))
        # the initial state, then one per row
        assert len(built) <= len(series.times) + 1


# maps that leave the float range at once, so a run must end with a reason
OVERFLOWING = {
    "torus": {"case": "torus", "amplitude": 1e300},
    "torus_m4": {"case": "torus", "m": 4, "n": 2, "grid": 4, "amplitude": 1e160},
    "equivariant": {"case": "equivariant", "preset": "sine", "amplitude": 1e300},
}


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

    @pytest.mark.parametrize("key", ["background_m", "background_n"])
    @pytest.mark.parametrize("value", ["Ricci", "shrinking", ""])
    def test_unknown_background_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            FlowConfig(case="equivariant", **{key: value})

    @pytest.mark.parametrize("case", ["torus", "equivariant"])
    def test_other_case_fields_at_their_defaults_accepted(self, case):
        defaults = FlowConfig(case=case).to_dict()  # winding written as []
        assert FlowConfig.from_dict(defaults).to_dict() == defaults

    @pytest.mark.parametrize("case", ["torus", "equivariant"])
    @pytest.mark.parametrize("t_end", [0.0, -0.3, math.nan])
    def test_extinction_fraction_needs_a_shrinking_background(self, case, t_end):
        # neither a torus nor a static pair of spheres shrinks, so t_end counts
        with pytest.raises(ValueError, match="shrinking background"):
            FlowConfig(case=case, grid=8, t_end=t_end, t_end_frac_of_extinction=0.5,
                       monitor_every=4)

    @pytest.mark.parametrize("case", ["equivariant", "torus"])
    @pytest.mark.parametrize("cfl", [0.0, -0.4, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_cfl_rejected(self, case, cfl):
        with pytest.raises(ValueError, match="cfl"):
            FlowConfig.from_dict({"case": case, "cfl": cfl})

    @pytest.mark.parametrize("case", ["equivariant", "torus"])
    def test_cfl_is_not_a_config_key(self, case):
        # RKC2 steps at the fixed fraction flow.CFL of their stability interval
        with pytest.raises(ValueError, match="unknown config keys: \\['cfl'\\]"):
            FlowConfig.from_dict({"case": case, "cfl": flow.CFL})

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

    @pytest.mark.parametrize("case,key,value", [
        ("equivariant", "radius_m", math.nan), ("equivariant", "radius_n", math.inf),
        ("equivariant", "radius_m", 0.0), ("torus", "period", 0.0), ("torus", "period", -2.0),
        ("torus", "period", math.nan), ("equivariant", "monitor_every", -5), ("torus", "n", 0),
        # valid values of a field the case never reads
        ("torus", "background_m", "ricci"), ("torus", "background_n", "ricci"),
        ("torus", "radius_m", 5.0), ("torus", "radius_n", 0.5),
        ("equivariant", "winding", ((1, 0), (0, 1))), ("equivariant", "period", 3.0),
        # shapes a run would refuse only once it started
        ("equivariant", "m", 1), ("equivariant", "m", 4), ("torus", "winding", ((1, 0, 0),)),
        ("torus", "winding", ((1, 0), (0,))),
        # values a run would meet only as an OverflowError
        ("torus", "period", 1e300), ("torus", "winding", ((10**400, 0), (0, 1))),
    ])
    def test_unchecked_fields_rejected(self, case, key, value):
        with pytest.raises(ValueError, match=key):
            FlowConfig(case=case, **{key: value})

    # at m = 4 eta overflows to +inf, and the cofactors' products of +inf
    # entries give det eta NaN: a det of +inf would pass the check, and
    # eigvalsh would then raise in the monitor
    def test_infinite_metric_aborts_at_m4(self):
        series = run(FlowConfig.from_dict(OVERFLOWING["torus_m4"]))
        assert series.abort_reason == "induced metric is NaN: the map left the float range"
        assert series.times == [] and series.meta["steps"] == 0

    def test_huge_stretch_gives_a_short_reason(self):
        series = run(FlowConfig.from_dict(OVERFLOWING["equivariant"]))
        assert series.abort_reason == "lambda_max 1.000e+300 beyond guard"
        assert len(series.abort_reason) < 40

    # eta = I + df^T df overflows, so det eta is NaN, which fails every
    # comparison: only a test for NaN itself aborts the run
    def test_nan_metric_aborts_the_run(self):
        with np.errstate(over="ignore", invalid="ignore"):
            series = run(FlowConfig(case="torus", grid=8, amplitude=1e300, monitor_every=4))
        assert series.abort_reason == "induced metric is NaN: the map left the float range"
        assert series.times == [] and series.meta["steps"] == 0

    @pytest.mark.parametrize("case", ["torus", "equivariant"])
    def test_nan_stretch_aborts_the_run(self, case, monkeypatch):
        monitor = getattr(flow, f"{case}_monitor")
        monkeypatch.setattr(flow, f"{case}_monitor",
                            lambda *a: (monitor(*a)[0], math.nan, monitor(*a)[2]))
        series = run(FlowConfig(case=case, m=2, n=2, grid=8, monitor_every=4))
        assert series.abort_reason == "lambda_max nan beyond guard"
        assert series.times == [0.0] and series.meta["steps"] == 0

    def test_smallest_grid_runs(self):
        series = run(FlowConfig(case="torus", grid=3, t_end=0.001, monitor_every=2))
        assert series.abort_reason is None

    @pytest.mark.parametrize("case,grid", [("torus", 8), ("equivariant", 16)])
    def test_step_cap_refuses_a_run_planned_past_it(self, case, grid, monkeypatch):
        # the plan: every step takes the stages of the CFL step at t = 0
        cfg = FlowConfig(case=case, m=3, n=3, grid=grid, t_end=0.05, monitor_every=10)
        meta = run(cfg).meta
        dt_cfl = (torus_cfl_dt(flow._torus_initial(cfg)) if case == "torus"
                  else equivariant_dt(flow._equivariant_initial(cfg), 1.0, 1.0))
        planned = meta["steps"] * flow._rkc_stages(meta["dt_min"], dt_cfl, 10**7)
        monkeypatch.setattr(flow, "MAX_STEPS", planned)
        run(cfg)
        monkeypatch.setattr(flow, "MAX_STEPS", planned - 1)
        with pytest.raises(ValueError, match=f"more than {planned - 1} right-hand-side "
                                             "evaluations, the cap"):
            run(cfg)

    def test_step_cap_aborts_a_run_that_outgrows_it(self, monkeypatch):
        # shrinking radii raise the stiffness, so the stages per step grow past
        # the plan made from the initial CFL step
        cfg = FlowConfig(case="equivariant", m=3, n=3, grid=16, t_end=0.0, preset="sine",
                         amplitude=0.5, background_m="ricci", background_n="ricci",
                         t_end_frac_of_extinction=0.9, monitor_every=10)
        meta = run(cfg).meta
        evals = meta["rhs_evals"]
        dt_cfl = equivariant_dt(flow._equivariant_initial(cfg), 1.0, 1.0)
        planned = meta["steps"] * flow._rkc_stages(meta["dt_min"], dt_cfl, 10**7)
        assert planned < evals - 1
        monkeypatch.setattr(flow, "MAX_STEPS", evals - 1)
        series = run(cfg)
        assert series.abort_reason.startswith(f"step cap {evals - 1}")
        assert planned <= series.meta["rhs_evals"] <= evals - 1

    def test_equivariant_step_counters(self, monkeypatch):
        calls = []
        eq_rhs = flow._eq_rhs
        monkeypatch.setattr(flow, "_eq_rhs", lambda *a: calls.append(1) or eq_rhs(*a))
        series = run(FlowConfig(case="equivariant", m=3, n=3, grid=24, t_end=0.5,
                                amplitude=0.5, monitor_every=6))
        meta = series.meta
        # ceil(gap / h) = ceil((0.5 / 6) / (pi / 24)) = 1 step per record
        assert meta["steps"] == len(series.times) - 1 == 6
        assert meta["dt_min"] == meta["dt_max"] == pytest.approx(0.5 / 6, rel=1e-15)
        assert meta["cfl_refreshes"] == meta["steps"]
        assert meta["rhs_evals"] >= 2 * meta["steps"]
        # every stage goes through _eq_rhs; a row's right-hand side is the next
        # step's first stage, so only the last row's is not counted as one
        assert len(calls) == meta["rhs_evals"] + 1

    # The two runs of the benchmark's equivariant workload at its seed 1: a
    # faster kernel must keep their stage schedule (the RKC2 stages per step
    # follow the CFL step of each state).
    @pytest.mark.parametrize("config,rhs_evals", [
        ({"case": "equivariant", "m": 3, "n": 3, "grid": 128, "t_end": 2.0,
          "preset": "sine", "amplitude": 0.8004728649880103, "monitor_every": 120}, 3527),
        ({"case": "equivariant", "m": 3, "n": 3, "grid": 128, "t_end": 0.0,
          "preset": "sine", "amplitude": 0.8004728649880103, "background_m": "ricci",
          "background_n": "ricci", "t_end_frac_of_extinction": 0.9,
          "monitor_every": 120}, 2476)], ids=["static", "coupled"])
    def test_benchmark_runs_keep_their_stage_schedule(self, config, rhs_evals):
        meta = run(FlowConfig.from_dict(config)).meta
        assert (meta["steps"], meta["rhs_evals"], meta["cfl_refreshes"]) == (120, rhs_evals, 120)

    # lambda_max at t = 0: 58.5 on the torus, 59.9 on the sphere
    @pytest.mark.parametrize("case,grid", [("torus", 16), ("equivariant", 32)])
    def test_first_row_hits_the_guard(self, case, grid):
        series = run(FlowConfig(case=case, grid=grid, amplitude=60.0))
        assert series.lambda_max[0] > flow.LAMBDA_ABORT
        assert series.abort_reason.startswith("lambda_max")
        assert series.times == [0.0]
        assert series.meta["steps"] == series.meta["rhs_evals"] == 0

    @pytest.mark.parametrize("key,value", [
        ("period", "6.28"), ("t_end", None), ("amplitude", [0.1]), ("grid", 64.0),
        ("m", True), ("monitor_every", "4"), ("preset", 3), ("t_end_frac_of_extinction", "0.9"),
        ("winding", 5), ("winding", [[1, None]]),
    ])
    def test_wrong_field_types_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            FlowConfig.from_dict({"case": "torus", key: value})


NONPOSITIVE = [math.nan, math.inf, -math.inf, 0.0, -1.0]
# radii whose sphere has a curvature past the float range
BAD_VALUES = {"period": NONPOSITIVE + [1e300], "radius_m": NONPOSITIVE + [1e-200, 1e200],
              "radius_n": NONPOSITIVE + [1e-200, 1e200], "amplitude": [math.nan, math.inf, -math.inf],
              "monitor_every": [-1, -5], "n": [0, -1], "m": [1, 0],
              # entries that are not integers; int() would truncate the first
              "winding": [[[0.5, 0], [0, 1]], [[1, 0], [True, 1]], [["1", 0], [0, 1]],
                          [[math.inf, 0], [0, 1]], [[math.nan]], [[10**400, 0], [0, 1]],
                          # shapes no n x 2 matrix has
                          [[1, 0, 0]], [[1, 0], [0]], [[]]]}
OTHER_CASE_VALUES = {  # valid values of the fields the other case reads
    "torus": {"radius_m": [0.5, 2.0], "radius_n": [1.5], "background_m": ["ricci"],
              "background_n": ["ricci"]},
    "equivariant": {"period": [3.0, 10.0], "winding": [[[1, 0], [0, 1]]]}}


@hs.composite
def flow_configs(draw):
    """Small valid runs of either case, half of them with one field replaced
    by a value the config must reject; returns (config, whether replaced)."""
    case = draw(hs.sampled_from(["torus", "equivariant"]))
    preset = draw(hs.sampled_from(flow.TORUS_PRESETS if case == "torus"
                                  else flow.EQUIVARIANT_PRESETS))
    d = {"case": case, "preset": preset, "grid": draw(hs.integers(3, 16)),
         "t_end": draw(hs.floats(1e-3, 0.05)), "amplitude": draw(hs.floats(-1.0, 1.0)),
         "monitor_every": draw(hs.integers(0, 12))}
    if case == "torus":
        d.update(m=2, n=draw(hs.integers(1, 3)), period=draw(hs.floats(1.0, 10.0)))
    else:
        d.update(m=draw(hs.integers(2, 3)), n=3, radius_m=draw(hs.floats(0.5, 2.0)),
                 radius_n=draw(hs.floats(0.5, 2.0)))
        if draw(hs.booleans()):
            d.update(background_m="ricci", background_n="ricci",
                     t_end_frac_of_extinction=draw(hs.floats(0.05, 0.95)))
    replaced = draw(hs.booleans())
    if replaced:  # a bad value, or a field the case never reads
        bad_values = {**BAD_VALUES, **OTHER_CASE_VALUES[case]}
        bad = draw(hs.sampled_from(sorted(bad_values)))
        d[bad] = draw(hs.sampled_from(bad_values[bad]))
    return d, replaced


# Configs whose arrays would take 7.3 TiB to 71 PiB; the tests only build them
OVERSIZED = [{"case": "torus", "grid": 100000000}, {"case": "torus", "m": 30, "grid": 3},
             {"case": "torus", "n": 100000000000, "grid": 3},
             {"case": "equivariant", "grid": 1000000000000}]


class TestSizeCap:
    @pytest.mark.parametrize("config", OVERSIZED)
    def test_oversized_config_refused_without_allocating(self, config):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                FlowConfig.from_dict(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert all(key in str(err.value) for key in config if key != "case")

    @pytest.mark.parametrize("m,grid", [(40, 10**12), (10**18, 3), (9, 3)])
    def test_exponents_past_the_cap_refused(self, m, grid):
        with pytest.raises(ValueError, match="the cap"):
            FlowConfig(case="torus", m=m, n=1, grid=grid)

    # inside the cap (m * m * n * (grid + 2)^m = 4.2e5), refused by name: a
    # cofactor takes (m - 1)! products
    def test_torus_past_m4_refused(self):
        with pytest.raises(ValueError, match=r"\bm <= 4, got m=5$"):
            FlowConfig(case="torus", m=5, n=1, grid=5)

    def test_cap_edges(self):
        # m * m * n * (grid + 2)^m = 4 * 1024^2 = MAX_ENTRIES at grid 1022, m = 2, n = 1
        assert FlowConfig(case="torus", n=1, grid=1022).grid == 1022
        with pytest.raises(ValueError, match="the cap"):
            FlowConfig(case="torus", n=1, grid=1023)
        nodes = FlowConfig(case="equivariant", grid=flow.MAX_ENTRIES - 1).grid + 1
        assert nodes == flow.MAX_ENTRIES
        with pytest.raises(ValueError, match="the cap"):
            FlowConfig(case="equivariant", grid=flow.MAX_ENTRIES)

    @pytest.mark.parametrize("kw", [
        {"case": "torus", "grid": 128},  # criterion 6's fine grid
        {"case": "torus", "m": 3, "n": 3, "grid": 24},
        {"case": "equivariant", "m": 3, "n": 3, "grid": 512},  # criteria 7 and 8
    ])
    def test_acceptance_sizes_admitted(self, kw):
        assert FlowConfig(**kw).grid == kw["grid"]


WOUND = {"case": "torus", "preset": "sine", "grid": 8, "t_end": 0.001, "m": 2, "n": 2}


@hs.composite
def sized_maps(draw):
    """Short runs of either case whose map is 10^[0, 300] in size."""
    amplitude = 10.0 ** draw(hs.integers(0, 300))
    if draw(hs.booleans()):
        return dict(case="torus", m=draw(hs.integers(2, 4)), n=draw(hs.integers(1, 3)),
                    grid=draw(hs.integers(3, 6)), amplitude=amplitude, t_end=0.01,
                    preset=draw(hs.sampled_from(["sine", "linear_sine"])), monitor_every=2)
    return dict(case="equivariant", m=draw(hs.integers(2, 3)), n=3, grid=16,
                amplitude=amplitude, t_end=0.01, monitor_every=2,
                preset=draw(hs.sampled_from(["sine", "identity_sine"])))


class TestConfigFuzz:
    @settings(max_examples=100, deadline=5000, derandomize=True)
    @example((dict(WOUND, winding=[[0, 1], [1, 0]]), False))
    @example((dict(WOUND, winding=[[0.5, 0], [0, 1]]), True))
    @example((dict(WOUND, winding=[[1, 0], [0, True]]), True))
    @example((dict(WOUND, period=1e300), True))
    @example((dict(WOUND, winding=[[10**400, 0], [0, 1]]), True))
    @given(flow_configs())
    def test_config_fails_cleanly_or_runs_finite(self, drawn):
        d, replaced = drawn
        try:
            series = run(FlowConfig.from_dict(d))
        except ValueError:
            assert replaced, d
            return
        assert not replaced, d  # every replacement is a value the config refuses
        assert len(series.times) >= 1
        if series.abort_reason is None:
            for values in (series.times, series.m_of_t, series.lambda_max,
                           series.max_product, series.scale_m, series.scale_n):
                assert np.isfinite(values).all()

    # a radius whose sphere has a curvature past the float range (1 / r^2
    # overflows or r^2 does) is refused by the config, before any run
    @settings(max_examples=30, deadline=5000, derandomize=True)
    @example(("radius_m", 1e-200))
    @example(("radius_m", 1e200))
    @example(("radius_n", 1e-200))
    @example(("radius_n", 1e200))
    @given(hs.tuples(hs.sampled_from(["radius_m", "radius_n"]),
                     hs.integers(155, 308).flatmap(
                         lambda e: hs.sampled_from([10.0**e, 10.0**-e]))))
    def test_radius_past_the_float_range_refused_by_the_config(self, drawn):
        name, radius = drawn
        d = dict(case="equivariant", m=3, n=3, grid=16, t_end=0.01, **{name: radius})
        with pytest.raises(ValueError, match=f"^{name} "):
            FlowConfig.from_dict(d)

    # a map of any size ends its run in rows, with or without a short reason,
    # and NumPy warns nothing on the way
    @settings(max_examples=60, deadline=5000, derandomize=True)
    @example(OVERFLOWING["torus"])
    @example(OVERFLOWING["torus_m4"])
    @example(OVERFLOWING["equivariant"])
    @given(sized_maps())
    def test_any_size_of_map_ends_in_rows_or_a_reason(self, d):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            series = run(FlowConfig.from_dict(d))
        assert caught == [], d
        assert series.abort_reason is None or len(series.abort_reason) < 60, d


# Torus runs that march as two slabs once ``flow._TWO_SLABS`` lets them: m = 2,
# 3 and 4, a wound n = 3 map, many rows close together, an odd
# grid (slabs of 12 and 13 rows), and the abort configs (a first row past the
# guard, and two maps whose first stage leaves the float range)
SLAB_CONFIGS = {
    "m2": {"case": "torus", "grid": 16, "t_end": 0.1, "preset": "linear_sine",
           "amplitude": 0.1, "monitor_every": 8},
    "m3": {"case": "torus", "m": 3, "n": 2, "grid": 8, "t_end": 0.05, "monitor_every": 5},
    "m4": {"case": "torus", "m": 4, "n": 2, "grid": 5, "t_end": 0.05, "monitor_every": 5},
    "wound_n3": {"case": "torus", "n": 3, "grid": 12, "t_end": 0.1, "amplitude": 0.05,
                 "winding": [[1, 0], [0, 1], [1, 1]], "monitor_every": 6},
    # rows one two-stage step apart
    "many_rows": {"case": "torus", "grid": 8, "t_end": 0.2, "monitor_every": 200},
    "odd_grid": {"case": "torus", "grid": 25, "t_end": 0.1, "preset": "linear_sine",
                 "monitor_every": 7},
    "amplitude_60": {"case": "torus", "grid": 16, "amplitude": 60.0},
    "m4_amplitude_1e160": OVERFLOWING["torus_m4"],
    "amplitude_1e300": OVERFLOWING["torus"],
}


def workers_forked(monkeypatch) -> list:
    """The pids of the slab workers ``os.fork`` starts from here on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def two_slabs(monkeypatch) -> None:
    """Lets every torus run march as two slabs."""
    monkeypatch.setattr(flow, "_TWO_SLABS", 0)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def flow_bytes(config, tmp_path, name) -> tuple:
    """CSV and manifest bytes of ``areaflow flow`` on a config."""
    out = tmp_path / name
    out.mkdir()
    (out / "cfg.json").write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["flow", "--case", "torus", "--config", str(out / "cfg.json"),
                         "--out", str(out)]) == 0
    return (out / "flow_torus.csv").read_bytes(), (out / "flow_torus.manifest.json").read_bytes()


def series_of(series) -> tuple:
    """Everything a run recorded, to compare runs by."""
    return (series.times, series.m_of_t, series.lambda_max, series.max_product,
            series.residual, series.abort_reason, series.meta)


def failing_checks(monkeypatch, fail) -> list:
    """Makes the det eta check of a stage fail where ``fail(stage, rows)``
    gives a reason: ``stage`` counts the checks of this process, ``rows`` is
    "whole", "first" or "second", the slab checked.  Returns the stages."""
    parent, stages, positive = os.getpid(), [], flow._positive

    def checked(det):
        whole = det.shape[0] == GRID
        rows = "whole" if whole else ("first" if os.getpid() == parent else "second")
        stages.append(rows)
        if reason := fail(len(stages) - 1, rows):
            raise flow.FlowAbort(reason)
        positive(det)

    monkeypatch.setattr(flow, "_positive", checked)
    return stages


GRID = 12
NAN, LOST = flow._LOST[1], flow._LOST[0]
# a grid-12 run of 4 rows; its steps take 3 stages, the first at the row
FAILING = {"case": "torus", "grid": GRID, "t_end": 0.2, "monitor_every": 4}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the slab worker is forked")
class TestRowHelper:
    """A torus run marched as two slabs, the second in a forked worker,
    writes the bytes one slab writes, and no worker outlives its run."""

    @pytest.mark.parametrize("name", sorted(SLAB_CONFIGS))
    def test_helper_and_in_process_rows_write_the_same_bytes(self, name, tmp_path,
                                                             monkeypatch):
        pids = workers_forked(monkeypatch)
        monkeypatch.setattr(flow, "_TWO_SLABS", math.inf)
        alone = flow_bytes(SLAB_CONFIGS[name], tmp_path, "one_slab")
        assert pids == []
        two_slabs(monkeypatch)
        assert flow_bytes(SLAB_CONFIGS[name], tmp_path, "two_slabs") == alone
        assert len(pids) == 1
        monkeypatch.delattr(os, "fork")
        assert flow_bytes(SLAB_CONFIGS[name], tmp_path, "no_fork") == alone
        assert_no_child_left()

    # criterion 6's base grid and the benchmark's grid-96 run, past the constant
    @pytest.mark.parametrize("grid", [64, 96])
    def test_large_runs_fork_one_worker_and_write_the_same_bytes(self, grid, tmp_path,
                                                                 monkeypatch):
        config = {"case": "torus", "grid": grid, "t_end": 0.05, "preset": "linear_sine",
                  "monitor_every": 4}
        pids = workers_forked(monkeypatch)
        served = flow_bytes(config, tmp_path, "two_slabs")
        assert len(pids) == 1
        monkeypatch.delattr(os, "fork")
        assert flow_bytes(config, tmp_path, "one_slab") == served
        assert_no_child_left()

    # points x m^2 of one stage against the constant: m = 2 grid 50 is 10000
    @pytest.mark.parametrize("m,grid,forks", [(2, 49, 0), (2, 50, 1), (3, 10, 0), (3, 11, 1)])
    def test_small_runs_fork_nothing(self, m, grid, forks, monkeypatch):
        pids = workers_forked(monkeypatch)
        assert (grid**m * m * m >= flow._TWO_SLABS) == bool(forks)
        series = run(FlowConfig(case="torus", m=m, grid=grid, t_end=0.001, monitor_every=1))
        assert series.abort_reason is None and len(pids) == forks
        assert_no_child_left()

    def test_both_processes_record_the_same_series(self, monkeypatch):
        # the worker marches the same rows: its series is the parent's
        two_slabs(monkeypatch)
        kept, march = [], flow._march
        monkeypatch.setattr(flow, "_march", lambda series, *a: kept.append(series) or march(
            series, *a))
        series = run(FlowConfig.from_dict(SLAB_CONFIGS["odd_grid"]))
        assert len(kept) == 1 and series.abort_reason is None  # the worker's went with it
        monkeypatch.delattr(os, "fork")
        assert series_of(run(FlowConfig.from_dict(SLAB_CONFIGS["odd_grid"]))) == \
            series_of(series)

    def test_a_second_thread_keeps_the_rows_in_process(self, tmp_path, monkeypatch):
        two_slabs(monkeypatch)
        pids = workers_forked(monkeypatch)
        served = flow_bytes(SLAB_CONFIGS["m2"], tmp_path, "worker")
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert flow_bytes(SLAB_CONFIGS["m2"], tmp_path, "threaded") == served
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive() and len(pids) == 1

    # a worker pays only with a second core to run on
    def test_a_single_cpu_keeps_the_rows_in_process(self, tmp_path, monkeypatch):
        two_slabs(monkeypatch)
        pids = workers_forked(monkeypatch)
        served = flow_bytes(SLAB_CONFIGS["m2"], tmp_path, "worker")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert flow_bytes(SLAB_CONFIGS["m2"], tmp_path, "one_cpu") == served
        assert len(pids) == 1
        assert_no_child_left()

    # no affinity mask (macOS): the CPU count decides, with the same bytes
    def test_without_an_affinity_mask_the_cpu_count_decides(self, tmp_path, monkeypatch):
        two_slabs(monkeypatch)
        served = flow_bytes(SLAB_CONFIGS["m2"], tmp_path, "worker")
        pids = workers_forked(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity")
        for cpus in (2, 1):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert flow_bytes(SLAB_CONFIGS["m2"], tmp_path, f"cpus_{cpus}") == served
        assert len(pids) == 1
        assert_no_child_left()

    # an interrupt as the fork returns leaves no pipe of the worker open
    def test_an_interrupted_fork_closes_the_pipes(self, monkeypatch):
        two_slabs(monkeypatch)
        made, pipe = [], os.pipe

        def recorded():
            fds = pipe()
            made.extend(fds)
            return fds

        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "pipe", recorded)
        monkeypatch.setattr(os, "fork", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(FlowConfig.from_dict(SLAB_CONFIGS["m2"]))
        assert len(made) == 4
        for fd in made:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])

    # the worker is killed while the parent checks the stage it counts, in
    # a run whose steps take 3 stages, the first at the row: a row's stage (0,
    # 6), whose next barrier is the row's residual halo, a step's second (1,
    # 4), whose next is the stage after it, and a step's last (2), whose next
    # ends the step; the parent finds EOF there, reaps the worker and redoes
    # the step alone
    @pytest.mark.parametrize("row", [0, 1, 2, 4, 6])
    def test_a_killed_helper_leaves_the_same_bytes(self, row, tmp_path, monkeypatch):
        config = FAILING
        served = flow_bytes(config, tmp_path, "worker")
        two_slabs(monkeypatch)
        pids, parent, stages = workers_forked(monkeypatch), os.getpid(), []
        positive = flow._positive

        def killing(det):
            if os.getpid() == parent:
                if len(stages) == row:
                    os.kill(pids[0], signal.SIGKILL)
                stages.append(1)
            positive(det)

        monkeypatch.setattr(flow, "_positive", killing)
        assert flow_bytes(config, tmp_path, "killed") == served
        assert len(pids) == 1 and len(stages) > row + 1
        assert_no_child_left()

    # killed between a row's two barriers, once the slabs' monitors are read
    @pytest.mark.parametrize("row", [0, 3])
    def test_a_worker_killed_at_a_row_leaves_the_same_bytes(self, row, tmp_path, monkeypatch):
        config = SLAB_CONFIGS["m2"]
        served = flow_bytes(config, tmp_path, "worker")
        two_slabs(monkeypatch)
        pids, parent, rows = workers_forked(monkeypatch), os.getpid(), []
        monitor = flow.torus_monitor

        def killing(st):
            if os.getpid() == parent:
                if len(rows) == row:
                    os.kill(pids[0], signal.SIGKILL)
                rows.append(st.t)
            return monitor(st)

        monkeypatch.setattr(flow, "torus_monitor", killing)
        assert flow_bytes(config, tmp_path, "killed") == served
        # the row is redone alone, its monitor read again, unless the worker
        # had sent its byte for the row's last barrier before it died
        redone = len(rows) - config["monitor_every"] - 1
        assert redone in (0, 1) and rows[row:row + 1 + redone] == [rows[row]] * (1 + redone)
        assert sorted(set(rows)) == rows[:row] + rows[row + redone:]
        assert_no_child_left()

    def test_no_helper_outlives_a_run_that_ends(self, monkeypatch):
        two_slabs(monkeypatch)
        pids = workers_forked(monkeypatch)
        assert run(FlowConfig.from_dict(SLAB_CONFIGS["m2"])).abort_reason is None
        assert len(pids) == 1
        assert_no_child_left()

    def test_no_helper_outlives_an_aborted_run(self, monkeypatch):
        two_slabs(monkeypatch)
        pids = workers_forked(monkeypatch)
        series = run(FlowConfig.from_dict(SLAB_CONFIGS["amplitude_60"]))
        assert series.abort_reason.startswith("lambda_max")
        assert len(series.residual) == 1 and series.residual[0] > 0
        assert len(pids) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_no_helper_outlives_an_error_mid_march(self, error, monkeypatch):
        two_slabs(monkeypatch)
        pids, steps, parent = workers_forked(monkeypatch), [], os.getpid()
        step = flow._rkc_step

        def failing(*args):
            if os.getpid() == parent:
                steps.append(1)
                if len(steps) == 3:
                    raise error("mid-march")
            return step(*args)

        monkeypatch.setattr(flow, "_rkc_step", failing)
        with pytest.raises(error, match="mid-march"):
            run(FlowConfig.from_dict(SLAB_CONFIGS["m2"]))
        assert len(pids) == 1
        assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the slab worker is forked")
class TestSlabAborts:
    """A det eta check that fails in one slab, or for another reason in each,
    ends a two-slab run where, and why, it ends the whole grid's: at the same
    row and step, with NaN the graver reason."""

    @staticmethod
    def runs(monkeypatch, fail) -> tuple:
        """(one slab's series, two slabs' series, the worker's pids) of
        ``FAILING`` with checks that fail where ``fail`` says."""
        stages = failing_checks(monkeypatch, fail)
        alone = run(FlowConfig.from_dict(FAILING))
        assert set(stages) == {"whole"}
        stages.clear()
        two_slabs(monkeypatch)
        pids = workers_forked(monkeypatch)
        both = run(FlowConfig.from_dict(FAILING))
        assert set(stages) == {"first"}
        return alone, both, pids

    # the stage of the first row (0), the second (1) and last (2) stage of
    # the first step, the second of the next (4) and the row after two steps (6)
    @pytest.mark.parametrize("stage", [0, 1, 2, 4, 6])
    @pytest.mark.parametrize("slab", ["first", "second"])
    def test_one_slab_fails(self, stage, slab, monkeypatch):
        alone, both, pids = self.runs(monkeypatch, lambda k, rows: LOST if k == stage and (
            rows in ("whole", slab)) else None)
        assert alone.abort_reason == LOST
        assert series_of(both) == series_of(alone) and len(pids) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("stage", [0, 2, 4])
    @pytest.mark.parametrize("nan", ["first", "second"])
    def test_nan_in_one_slab_outranks_the_other(self, stage, nan, monkeypatch):
        def fail(k, rows):
            if k == stage:
                return NAN if rows in ("whole", nan) else LOST
            return None

        alone, both, pids = self.runs(monkeypatch, fail)
        assert alone.abort_reason == NAN
        assert series_of(both) == series_of(alone) and len(pids) == 1
        assert_no_child_left()

    # real maps: a steep rank-one map on the first slab's rows, whose det eta
    # rounds to nonpositive, and an overflowing one on the second's
    @pytest.mark.parametrize("halves", [("steep", "flat"), ("flat", "steep"),
                                        ("steep", "overflow"), ("overflow", "steep")])
    def test_real_maps_abort_alike(self, halves, monkeypatch):
        x = np.arange(GRID) * (2 * math.pi / GRID)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        amplitude = {"flat": 0.1, "steep": 1e9, "overflow": 1e300}
        u = np.zeros((2, GRID, GRID))
        for rows, kind in zip((slice(0, GRID // 2), slice(GRID // 2, None)), halves):
            u[0, rows] = (amplitude[kind] * np.sin(xx + yy))[rows]
        monkeypatch.setattr(flow, "_torus_initial", lambda cfg: TorusFlowState(
            2, 2, 2 * math.pi, np.zeros((2, 2)), u))
        alone = run(FlowConfig.from_dict(FAILING))
        two_slabs(monkeypatch)
        pids = workers_forked(monkeypatch)
        both = run(FlowConfig.from_dict(FAILING))
        assert alone.abort_reason == (NAN if "overflow" in halves else LOST)
        assert series_of(both) == series_of(alone) and len(pids) == 1
        assert_no_child_left()


# The ``t_end`` 1e6 grid-8 torus plans 2.3e9 units of stage work (about 15
# minutes), the m = 3 grid-70 one 1.9e9 and the largest m = 2 torus the size
# cap admits 1.05e10; the grid-4 torus with 5e6 rows plans 6.4e8 units of
# stages and 1.9e9 of rows, about 20 minutes and a 0.5 GB CSV.  The m = 3
# grid-24 torus with 1201 rows plans 3.0e8 units of stages and 1.2e9 of rows
# at 2m + 2 = 8 stages a row; at 4 stages a row it would fit the budget.
# With 1001 rows (``PRICED_OUT``) it plans 1.25e9 units; at 2m = 6 stages a
# row, less than a row costs, it would plan 9.96e8 and fit.
OVERWORKED = [{"case": "torus", "grid": 8, "t_end": 1e6},
              {"case": "torus", "m": 3, "n": 1, "grid": 70},
              {"case": "torus", "grid": 722},
              {"case": "torus", "grid": 4, "monitor_every": 5000000},
              {"case": "torus", "m": 3, "grid": 24, "monitor_every": 1200}]
PRICED_OUT = {"case": "torus", "m": 3, "grid": 24, "monitor_every": 1000}


class _Admitted(Exception):
    """Raised where a run admitted by its plan would start marching."""


class TestWorkBudget:
    @pytest.mark.parametrize("config", OVERWORKED)
    def test_overworked_run_refused_at_once(self, config, monkeypatch):
        def built(st):
            raise AssertionError("the run built its stage")

        monkeypatch.setattr(flow, "_torus_field", built)  # so a run admitted fails fast
        cfg = FlowConfig.from_dict(config)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="units of work") as err:
            run(cfg)
        assert time.perf_counter() - start < 1.0
        assert all(key in str(err.value) for key in ("t_end", "grid", "m", "monitor_every"))

    # a row over a stage timed 5.7-7.5 at m = 3, above the 2m = 6 that admits it
    def test_row_price_alone_refuses(self):
        cfg = FlowConfig.from_dict(PRICED_OUT)
        with pytest.raises(ValueError, match="units of work") as err:
            run(cfg)
        evals, rows, points = map(int, re.search(
            r"plans (\d+) evaluations and (\d+) rows on (\d+) points", str(err.value)).groups())
        assert (evals + rows * 2 * cfg.m) * points * cfg.m**2 <= flow.MAX_WORK

    @pytest.mark.parametrize("config", [
        # criteria 6 (grids 64 and 128), 7, 8 and 9
        {"case": "torus", "grid": 64, "t_end": 0.5, "preset": "linear_sine", "monitor_every": 40},
        {"case": "torus", "grid": 128, "t_end": 0.5, "preset": "linear_sine", "monitor_every": 40},
        {"case": "equivariant", "m": 3, "n": 3, "grid": 512, "t_end": 2.0, "amplitude": 0.8,
         "monitor_every": 120},
        {"case": "equivariant", "m": 3, "n": 3, "grid": 512, "amplitude": 0.8,
         "background_m": "ricci", "background_n": "ricci", "t_end_frac_of_extinction": 0.9,
         "t_end": 0.0, "monitor_every": 120},
        {"case": "equivariant", "m": 3, "n": 3, "grid": 64, "t_end": 0.2, "amplitude": 0.8,
         "monitor_every": 20},
        # the benchmark's jobs, at the ends of their amplitude ranges
        {"case": "equivariant", "m": 3, "n": 3, "grid": 128, "t_end": 2.0, "amplitude": 0.82,
         "monitor_every": 120},
        {"case": "equivariant", "m": 3, "n": 3, "grid": 128, "amplitude": 0.78,
         "background_m": "ricci", "background_n": "ricci", "t_end_frac_of_extinction": 0.9,
         "t_end": 0.0, "monitor_every": 120},
        {"case": "torus", "grid": 48, "t_end": 0.5, "preset": "linear_sine", "amplitude": 0.105,
         "monitor_every": 40},
        {"case": "torus", "grid": 96, "t_end": 0.5, "preset": "linear_sine", "amplitude": 0.095,
         "monitor_every": 40},
        # the m = 3 torus the roadmap's benchmark adds, and criterion 6 at grid 512
        {"case": "torus", "m": 3, "n": 2, "grid": 24},
        {"case": "equivariant", "m": 3, "n": 3, "grid": 512, "t_end": 2.0, "amplitude": 0.8},
    ])
    def test_acceptance_and_benchmark_runs_admitted(self, config, monkeypatch):
        def reached(*args):
            raise _Admitted

        monkeypatch.setattr(flow, "_march", reached)
        with pytest.raises(_Admitted):
            run(FlowConfig.from_dict(config))

    # the least plan (two stages a step) is refused before the profile and
    # the field are made: this grid's field holds about a dozen arrays of
    # 4e6 nodes, 512 MiB at its peak, and took 0.58 s to build
    @pytest.mark.parametrize("config, cap", [
        ({"case": "equivariant", "grid": flow.MAX_ENTRIES - 1}, "units of work"),
        ({"case": "equivariant", "grid": 1000, "t_end": 1e5}, "right-hand-side evaluations"),
    ])
    def test_overworked_equivariant_run_refused_before_it_allocates(self, config, cap):
        cfg = FlowConfig.from_dict(config)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=cap):
                run(cfg)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 2**20

    # a torus takes every step at the stages of the same CFL step, so its
    # evaluations are the plan's; its 11 rows count 2m + 2 = 6 stages each
    def test_budget_edge(self, monkeypatch):
        cfg = FlowConfig(case="torus", grid=8, t_end=0.05, monitor_every=10)
        meta = run(cfg).meta
        planned = (meta["rhs_evals"] + 11 * 6) * 8**2 * 2**2
        monkeypatch.setattr(flow, "MAX_WORK", planned)
        run(cfg)
        monkeypatch.setattr(flow, "MAX_WORK", planned - 1)
        with pytest.raises(ValueError, match=f"more than {planned - 1}, the budget"):
            run(cfg)


class TestShrinkingRadii:
    # a stage reads its radii as float work on the paths' rates; the scale
    # columns are the paths' metric factors to the bit
    def test_radii_read_no_path_per_stage(self, monkeypatch):
        calls = []
        factor = BackgroundPath.metric_factor
        monkeypatch.setattr(BackgroundPath, "metric_factor",
                            lambda self, t: calls.append(t) or factor(self, t))
        cfg = FlowConfig(case="equivariant", m=3, n=3, grid=32, preset="sine", amplitude=0.5,
                         background_m="ricci", t_end_frac_of_extinction=0.5, t_end=0.0,
                         monitor_every=10)
        series = run(cfg)
        assert series.meta["rhs_evals"] > 20 and len(calls) == 2  # the coupling constant's
        monkeypatch.undo()
        pm, pn = flow._paths(cfg)
        for t, sm, sn in zip(series.times, series.scale_m, series.scale_n):
            assert (sm, sn) == (pm.metric_factor(t), 1.0)
