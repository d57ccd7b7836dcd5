"""Full-grid cross-check of the equivariant 1-D reduction.

The reduced equation integrated by the flow is supposed to be exactly the
rho-component of the unreduced reparametrized operator

    op^a = eta^{ij} ( d_i d_j f^a - Gamma^M{}^k_{ij} d_k f^a
                      + Gamma^N{}^a_{bc} d_i f^b d_j f^c )

for the suspension map f(theta_1, ..., theta_m) = (rho(theta_1), theta_2,
..., theta_m, pi/2, ...) between round spheres in iterated-suspension angle
coordinates (metric diag entries r^2 prod_{j<i} sin^2 theta_j).  This module
evaluates that operator by finite differences of the map on a coarser
stencil (stride 2 on the state's own grid) with analytic Christoffel
symbols, and reports the worst discrepancy against the flow's reduced
right-hand side.  Both sides approximate the same continuum operator, so
the discrepancy of a correct reduction is O(h^2); the non-rho components
vanish identically by equivariance and are folded into the residual.
"""

from __future__ import annotations

import math

import numpy as np

from .flow import EquivariantFlowState, equivariant_rhs

# Stencil width of the full operator in grid steps, and the distance from the
# poles (radians) inside which the coordinate coefficients degenerate.
_STRIDE = 2
_MARGIN = 0.3


def sphere_metric_diag(angles: np.ndarray, radius: float) -> np.ndarray:
    """Diagonal metric components of a round sphere in suspension angles."""
    d = angles.size
    g = np.empty(d)
    g[0] = radius**2
    for i in range(1, d):
        g[i] = g[i - 1] * math.sin(angles[i - 1]) ** 2
    return g


def sphere_christoffel(angles: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of the suspension coordinates.

    Independent of the radius.  Nonzero entries: Gamma^k_{ik} = cot(theta_i)
    for i < k, and Gamma^k_{ii} = -(g_ii/g_kk) cot(theta_k) for k < i.
    """
    d = angles.size
    g = sphere_metric_diag(angles, 1.0)
    gam = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            if i < k:
                cot = math.cos(angles[i]) / math.sin(angles[i])
                gam[k, i, k] = gam[k, k, i] = cot
            elif k < i:
                cot = math.cos(angles[k]) / math.sin(angles[k])
                gam[k, i, i] = -(g[i] / g[k]) * cot
    return gam


def _suspension_operator(theta1, rho0, rho_m, rho_p, spacing, base, m, n,
                         r_m, r_n) -> np.ndarray:
    """All n target components of the unreduced operator at one point.

    rho_m, rho0, rho_p are map values at theta_1 - spacing, theta_1,
    theta_1 + spacing; the remaining domain angles sit at the generic base
    point ``base`` (the operator's rho-component must not depend on them).
    """
    dom = np.concatenate([[theta1], base[: m - 1]])
    tar = np.concatenate([[rho0], base[: m - 1], np.full(n - m, math.pi / 2)])
    dp = (rho_p - rho_m) / (2.0 * spacing)
    ddp = (rho_p - 2.0 * rho0 + rho_m) / spacing**2

    df = np.zeros((n, m))
    df[0, 0] = dp
    for j in range(1, m):
        df[j, j] = 1.0
    hess = np.zeros((n, m, m))
    hess[0, 0, 0] = ddp

    g_dom = sphere_metric_diag(dom, r_m)
    g_tar = sphere_metric_diag(tar, r_n)
    eta = g_dom + np.einsum("ai,a,aj->ij", df, g_tar, df)[np.diag_indices(m)]
    gam_dom = sphere_christoffel(dom)
    gam_tar = sphere_christoffel(tar)

    op = np.zeros(n)
    for i in range(m):
        w = 1.0 / eta[i]
        op += w * hess[:, i, i]
        op -= w * np.einsum("k,ak->a", gam_dom[:, i, i], df)
        op += w * np.einsum("abc,b,c->a", gam_tar, df[:, i], df[:, i])
    return op


def reduction_residual(st: EquivariantFlowState, r_m: float = 1.0,
                       r_n: float = 1.0, *, base_angles=None) -> float:
    """Worst defect of the reduced right-hand side against the full operator.

    The full operator uses stencils ``_STRIDE`` steps wide on the state's
    grid, so a correct reduction leaves an O(h^2) discrepancy; the components
    along the fixed sphere directions must vanish outright and count toward
    the residual.  Evaluation stays ``_MARGIN`` away from the poles, where
    the coordinate coefficients degenerate.
    """
    theta = st.theta
    h = st.h
    if base_angles is None:
        base_angles = np.array([1.1, 0.8, 1.3, 0.7])[: st.m - 1]
    base = np.asarray(base_angles, dtype=float)
    if base.size < st.m - 1:
        raise ValueError("need m-1 base angles")
    reduced = equivariant_rhs(st, r_m, r_n)
    lo = np.searchsorted(theta, _MARGIN)
    hi = np.searchsorted(theta, math.pi - _MARGIN, side="right")
    worst = 0.0
    for k in range(max(lo, _STRIDE), min(hi, theta.size - _STRIDE)):
        op = _suspension_operator(
            theta[k], st.rho[k], st.rho[k - _STRIDE], st.rho[k + _STRIDE],
            _STRIDE * h, base, st.m, st.n, r_m, r_n)
        worst = max(worst, abs(op[0] - reduced[k]), float(abs(op[1:]).max()))
    return worst
