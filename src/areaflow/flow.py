"""Desk-scale time integration of the graphical flow in two reductions.

Both cases integrate the reparametrized (strictly parabolic) form of the
graph flow, in which the domain components stay the identity and the map
itself evolves:

* periodic flat tori: d/dt f^a = eta^{ij} d_i d_j f^a with
  eta = I + df^T df assembled pointwise (all background Christoffel terms
  vanish on flat factors).  df, eta^{-1} and the Hessian of the map come
  from one centered stencil over all components, written into arrays whose
  owner the caller picks.  A state owns its geometry: it builds it once,
  into arrays of its own, and the right-hand side, the monitor, tr_eta S,
  its eta^{ij} Laplacian and term I all read that one copy.  The stages of
  a run are not states: they write into one workspace of the run, so a
  stage allocates only the right-hand side it returns.  A run's rows read
  the right-hand side the march evaluated at their time and the geometry
  that evaluation wrote into the stage workspace, and their residual writes
  its scratch into a second workspace of the run;

* equivariant sphere suspensions f(theta, xi) = (rho(theta), xi) between
  round spheres of radii r_M, r_N:

      rho_t = rho'' / (r_M^2 + r_N^2 rho'^2)
            + (m-1) (sin th cos th rho' - sin rho cos rho)
                    / (r_M^2 sin^2 th + r_N^2 sin^2 rho)

  where the radii may shrink homothetically (r(t) = r(0) sqrt(1 - L t)).
  One field per run holds the theta trig and serves the right-hand side and
  the CFL step alike, so a run builds a state only for a row's monitor.

Monitors record the area monitor (infimum of the smallest Theta eigenvalue),
the largest stretch, the largest pairwise stretch product, background scale
factors, and a residual that reads one state: for tori the max-norm defect of
the evolution identity (d/dt - eta^{ij} d_i d_j) tr_eta S = sum_i term_I, with
the time derivative taken from the right-hand side by the chain rule, for the
equivariant case the sup-norm of the discrete right-hand side (stationarity
defect).

Both reductions march with one second-order Runge-Kutta-Chebyshev stepper
(RKC2) on whole arrays: each record interval is split into equal steps of at
most h, so the time error is O(h^2) like the spatial one, and each step takes
the fewest stages whose stability interval covers the CFL bound, so ``cfl``
keeps its meaning as the fraction of the stability interval used.  The
right-hand side the march evaluates at a row's time serves the row and is the
next step's first stage.  ``MAX_STEPS`` caps the right-hand-side evaluations
of a run: a run planned beyond it is refused, one that outgrows it is
aborted.  Every row, the one at t = 0 included, aborts a run whose largest
stretch passes ``LAMBDA_ABORT``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .profile import s_of
from .spaces import BackgroundPath, ModelSpace

LAMBDA_ABORT = 50.0
# Most right-hand-side evaluations of one run, either reduction (criterion 7
# takes about 2.4e4).
MAX_STEPS = 10**7


class FlowAbort(RuntimeError):
    """Raised when a run leaves the graphical regime it can control."""


@dataclass
class FlowSeries:
    times: list = field(default_factory=list)
    m_of_t: list = field(default_factory=list)
    lambda_max: list = field(default_factory=list)
    max_product: list = field(default_factory=list)
    residual: list = field(default_factory=list)
    scale_m: list = field(default_factory=list)
    scale_n: list = field(default_factory=list)
    abort_reason: str | None = None
    meta: dict = field(default_factory=dict)

    CSV_HEADER = "t,m_of_t,lambda_max,max_product,residual,scaleM,scaleN"

    def append(self, t, m_of, lmax, prod, res, sm, sn):
        self.times.append(float(t))
        self.m_of_t.append(float(m_of))
        self.lambda_max.append(float(lmax))
        self.max_product.append(float(prod))
        self.residual.append(float(res))
        self.scale_m.append(float(sm))
        self.scale_n.append(float(sn))

    def rows(self):
        for vals in zip(self.times, self.m_of_t, self.lambda_max,
                        self.max_product, self.residual, self.scale_m, self.scale_n):
            yield vals


# ---------------------------------------------------------------------------
# flat torus
# ---------------------------------------------------------------------------


class TorusGeometry(NamedTuple):
    """Pointwise geometry of one torus state, components leading, grid trailing."""

    df: np.ndarray    # (n, m, grid...): winding part plus centered gradients
    inv: np.ndarray   # (m, m, grid...): eta^{-1}, eta = I + df^T df the induced metric
    hess: np.ndarray  # (n, m, m, grid...): centered Hessian of u, symmetric in (m, m)


def _fresh(name: str, shape: tuple) -> np.ndarray:
    """Buffer owner of a state's geometry: a new array at every request."""
    return np.empty(shape)


class _Workspace(dict):
    """Buffer owner of one run's stages: one array per (name, shape), made at
    the first request and handed out again, to be overwritten, at every later
    one.  Grid-96 fields are larger than glibc's mmap threshold, so fresh ones
    would map and fault in new pages at every stage."""

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        buf = self.get((name, shape))
        if buf is None:
            buf = self[name, shape] = np.empty(shape)
        return buf


@dataclass
class TorusFlowState:
    """Map between flat tori: f(x) = lin @ x + u(x), u periodic.

    ``lin`` is an integer winding matrix (the homotopy data, constant in
    time); ``u`` has shape (n, N, ..., N) with m grid axes of period
    ``period``.  Splitting off the linear part keeps every stored field
    periodic, so centered stencils never see the winding jump.

    A state is a value: ``u`` is read-only after construction, so its
    ``geometry`` is built once, on first use, into arrays of its own, and
    shared by every reader.
    """

    m: int
    n: int
    period: float
    lin: np.ndarray
    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.lin = np.asarray(self.lin, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.lin.shape != (self.n, self.m):
            raise ValueError("lin must be n x m")
        if self.u.ndim != self.m + 1 or self.u.shape[0] != self.n:
            raise ValueError("u must have shape (n, grid...)")
        self.u.flags.writeable = False  # the cached geometry depends on it

    @property
    def h(self) -> float:
        return self.period / self.u.shape[1]

    @cached_property
    def geometry(self) -> TorusGeometry:
        return _torus_geometry(self.u, self.lin, self.h)


_CELLS = {-1: slice(None, -2), 0: slice(1, -1), 1: slice(2, None), None: slice(None)}


def _cells(ringed, m, moves, rest=0):
    """Cells of an array ringed on its m trailing axes: axis d read one cell back,
    on or ahead as ``moves.get(d, rest)`` is -1, 0 or 1 (None: the whole axis)."""
    return ringed[(Ellipsis,) + tuple(_CELLS[moves.get(d, rest)] for d in range(m))]


def _stencil(a, m: int, h: float, buf=_fresh):
    """Centered gradient (lead, m, grid) and Hessian (lead, m, m, grid) of ``a``
    over its m trailing periodic axes, every leading component at once; each
    off-diagonal d_j d_i (i < j) is differenced once and mirrored.  ``buf``
    owns the arrays written, the results included."""
    k = a.ndim - m
    ring = buf("ring", a.shape[:k] + tuple(s + 2 for s in a.shape[k:]))
    ring[(Ellipsis,) + (slice(1, -1),) * m] = a
    for d in range(m):  # one periodic cell on each side, axis by axis
        lead, rest = (Ellipsis,) + (slice(None),) * d, (slice(1, -1),) * (m - d - 1)
        ring[lead + (0,) + rest] = ring[lead + (-2,) + rest]
        ring[lead + (-1,) + rest] = ring[lead + (1,) + rest]
    grad, hess = buf("grad", (m,) + a.shape), buf("hess", (m, m) + a.shape)
    for i in range(m):
        # d_i on the ring of every other axis, so d_j d_i needs no second ring
        ahead, back = _cells(ring, m, {i: 1}, None), _cells(ring, m, {i: -1}, None)
        gi = np.subtract(ahead, back, out=buf("gi", ahead.shape))
        gi /= 2.0 * h
        grad[i] = _cells(gi, m, {i: None})
        np.multiply(a, -2.0, out=hess[i, i])
        hess[i, i] += _cells(ring, m, {i: 1})
        hess[i, i] += _cells(ring, m, {i: -1})
        hess[i, i] /= h**2
        for j in range(i + 1, m):
            np.subtract(_cells(gi, m, {i: None, j: 1}), _cells(gi, m, {i: None, j: -1}),
                        out=hess[i, j])
            hess[i, j] /= 2.0 * h
            hess[j, i] = hess[i, j]
    return np.moveaxis(grad, 0, k), np.moveaxis(hess, (0, 1), (k, k + 1))


def _torus_df(u: np.ndarray, lin: np.ndarray, h: float, buf=_fresh):
    """Differential (n, m, grid) and Hessian (n, m, m, grid) of the map x -> lin @ x
    + u(x), from one stencil of u."""
    m = lin.shape[1]
    grad, hess = _stencil(u, m, h, buf)
    return np.add(lin.reshape(lin.shape + (1,) * m), grad, out=buf("df", grad.shape)), hess


def _torus_eta_inv(df: np.ndarray, m: int, buf=_fresh) -> np.ndarray:
    """Inverse induced metric per grid point; aborts where det eta <= 0."""
    grid = df.shape[2:]
    eta = np.einsum("ai...,aj...->ij...", df, df, out=buf("eta", (m, m) + grid))
    eta += np.eye(m).reshape((m, m) + (1,) * len(grid))
    if m == 2:
        det = np.multiply(eta[0, 0], eta[1, 1], out=buf("det", grid))
        det -= np.square(eta[0, 1], out=buf("square", grid))
        if det.min() <= 0:
            raise FlowAbort("induced metric lost positive definiteness")
        # eta is symmetric: flip, then negate off the diagonal
        inv = np.divide(eta[::-1, ::-1], det, out=buf("inv", (m, m) + grid))
        inv[0, 1] *= -1.0
        inv[1, 0] *= -1.0
    else:
        # the gufuncs behind np.linalg.det and np.linalg.inv, which take no out=
        eta_p = np.moveaxis(eta, (0, 1), (-2, -1))
        if _umath_linalg.det(eta_p, out=buf("det", grid)).min() <= 0:
            raise FlowAbort("induced metric lost positive definiteness")
        inv = np.moveaxis(_umath_linalg.inv(eta_p, out=buf("inv", grid + (m, m))),
                          (-2, -1), (0, 1))
    return inv


def _torus_geometry(u: np.ndarray, lin: np.ndarray, h: float, buf=_fresh) -> TorusGeometry:
    """df, eta^{-1} and the Hessian of the map from one stencil of u, written
    into arrays ``buf`` owns."""
    df, hess = _torus_df(u, lin, h, buf)
    return TorusGeometry(df, _torus_eta_inv(df, lin.shape[1], buf), hess)


def _eta_laplacian(g: TorusGeometry) -> np.ndarray:
    """eta^{ij} d_i d_j f^a, the right-hand side of the flow, as a new array."""
    return np.einsum("ij...,aij...->a...", g.inv, g.hess)


def torus_rhs(st: TorusFlowState) -> np.ndarray:
    return _eta_laplacian(st.geometry)


def torus_cfl_dt(st: TorusFlowState, cfl: float = 0.4) -> float:
    """Explicit-step limit: eta^{-1} <= 1 so the diffusion scale is h^2/(2m)."""
    return cfl * st.h**2 / (2.0 * st.m)


def _torus_field(st: TorusFlowState):
    """Right-hand side (u, t) -> u_t of the run ``st`` starts.  Every stage
    writes its geometry into one workspace of the run, so the returned u_t is
    the only new array; the field's ``geometry`` is the last one it wrote,
    valid until its next call."""
    work = _Workspace()

    def rhs(u, t):
        rhs.geometry = _torus_geometry(u, st.lin, st.h, work)
        return _eta_laplacian(rhs.geometry)

    return rhs


def _torus_record(st: TorusFlowState, field):
    """Row function (u, t, f) -> row of the run ``st`` starts, called right after
    ``field`` gave f = u_t at (u, t).  The row's state borrows the geometry that
    call wrote, so no row builds one, and its residual writes its scratch into
    a second workspace of the run."""
    rows = _Workspace()

    def record(u, t, f):
        now = TorusFlowState(st.m, st.n, st.period, st.lin, u, t)
        vars(now)["geometry"] = field.geometry  # primes the cached_property
        return (*torus_monitor(now), torus_evolution_residual(now, f, rows), 1.0, 1.0)

    return record


def torus_step(st: TorusFlowState, dt: float) -> TorusFlowState:
    """One RKC2 step of size dt, stages from the CFL bound at cfl 0.4."""
    u = _rkc_single(st.u, st.t, dt, torus_cfl_dt(st), _torus_field(st))
    return TorusFlowState(st.m, st.n, st.period, st.lin, u, st.t + dt)


def torus_lambdas(st: TorusFlowState) -> np.ndarray:
    """Descending singular values per grid point, shape (points, m): the square
    roots of the eigenvalues of g = df^T df, in closed form for m = 2."""
    df = st.geometry.df.reshape(st.n, st.m, -1)
    if st.m > 2:
        pts = df.transpose(2, 0, 1)
        w = np.linalg.eigvalsh(np.einsum("pai,paj->pij", pts, pts))[:, ::-1]
    else:
        (g00, g01), (_, g11) = np.einsum("aip,ajp->ijp", df, df)
        w = np.zeros((2, df.shape[-1]))
        w[0] = 0.5 * (g00 + g11) + np.hypot(0.5 * (g00 - g11), g01)
        # the small root as det g / w_1, where tr/2 - sqrt(...) would cancel
        np.divide(g00 * g11 - g01**2, w[0], out=w[1], where=w[0] > 0)
        w = w.T
    return np.sqrt(np.clip(w, 0.0, None))


def torus_monitor(st: TorusFlowState):
    lam = torus_lambdas(st)
    s = s_of(lam)
    m_of = float((s[:, 0] + s[:, 1]).min())
    return m_of, float(lam.max()), float((lam[:, 0] * lam[:, 1]).max())


def _torus_sigma(st: TorusFlowState, buf=_fresh) -> np.ndarray:
    """tr_eta S = 2 tr(eta^{-1}) - m, the scalar whose evolution is checked."""
    sigma = np.einsum("ii...->...", st.geometry.inv, out=buf("sigma", st.u.shape[1:]))
    sigma *= 2.0
    sigma -= st.m
    return sigma


def _square(a: np.ndarray, out=None) -> np.ndarray:
    """Pointwise matrix square of a (k, k, grid...) field."""
    return np.einsum("ij...,jk...->ik...", a, a, out=out)


def _torus_term_one(st: TorusFlowState, buf=_fresh) -> np.ndarray:
    """sum_i term_I at every grid point: 2 (S_ii + S_aa) |A[a,i,l]|^2 summed.

    In the adapted graph frame <A(e_i, e_l), nu_a> = hess[b,k,q] e_i^k e_l^q
    nu_a^b (the Christoffel part of A is tangential, so the normals annihilate
    it), and every frame sum is a matrix function of df:
    sum_l e_l e_l^T = eta^{-1}, sum_i S_ii e_i e_i^T = 2 eta^{-2} - eta^{-1},
    sum_a nu_a nu_a^T = Z = zeta^{-1} = I - df eta^{-1} df^T (zeta = I + df df^T,
    by Woodbury) and sum_a S_aa nu_a nu_a^T = 2 Z^2 - Z.  The zero singular
    values of a non-square df (S = 1) come out right on both sides.  With
    G_b = eta^{-1} hess_b, T_ab = tr(G_b G_a) and U_ab = tr(eta^{-1} G_b G_a)
    the sum is 4 sum_ab [Z_ab U_ab + (Z^2 - Z)_ab T_ab].  ``buf`` owns the
    arrays written, the result included.
    """
    g, n = st.geometry, st.n
    grid = st.u.shape[1:]
    pair = (n, n) + grid
    z = np.einsum("ai...,ij...,bj...->ab...", g.df, g.inv, g.df, out=buf("zeta_inv", pair))
    np.negative(z, out=z)
    for a in range(n):
        z[a, a] += 1.0
    gb = np.einsum("ij...,bjk...->bik...", g.inv, g.hess, out=buf("g_b", g.hess.shape))
    k = np.einsum("ij...,bjk...->bik...", g.inv, gb, out=buf("k_b", g.hess.shape))
    t = np.einsum("bij...,aji...->ab...", gb, gb, out=buf("t_ab", pair))
    u = np.einsum("bij...,aji...->ab...", k, gb, out=buf("u_ab", pair))
    zz = _square(z, out=buf("zz", pair))
    zz -= z
    term = np.einsum("ab...,ab...->...", z, u, out=buf("term_one", grid))
    term += np.einsum("ab...,ab...->...", zz, t, out=buf("zz_t", grid))
    term *= 4.0
    return term


def torus_evolution_residual(st: TorusFlowState, f=None, buf=_fresh) -> float:
    """Max-norm defect of the scalar evolution identity on one state.

    d_t sigma - eta^{ij} d_i d_j sigma - sum_i term_I with sigma = tr_eta S,
    evaluated on the integrated (reparametrized) solution, where the
    reparametrizing drift combines with the rough Laplacian into the plain
    eta^{ij} second-difference form.  The time derivative comes from the
    right-hand side f = ``torus_rhs`` (a run passes the one its march already
    has) by the chain rule: d_t sigma = 2 tr d_t eta^{-1} =
    -2 tr(eta^{-1} d_t eta eta^{-1}), d_t eta = d(f)^T df + df^T d(f), with
    d(f) the stencil gradient of f.  ``buf`` owns the scratch arrays.
    """
    g, m, h = st.geometry, st.m, st.h
    grid = st.u.shape[1:]
    f = torus_rhs(st) if f is None else f
    df_t = _stencil(f, m, h, buf)[0]
    inv_df = np.einsum("ij...,aj...->ai...", _square(g.inv, out=buf("inv2", g.inv.shape)),
                       g.df, out=buf("inv_df", g.df.shape))
    res = np.einsum("ai...,ai...->...", df_t, inv_df, out=buf("residual", grid))
    res *= -4.0
    hess = _stencil(_torus_sigma(st, buf), m, h, buf)[1]
    res -= np.einsum("ij...,ij...->...", g.inv, hess, out=buf("lap", grid))
    res -= _torus_term_one(st, buf)
    return float(np.abs(res, out=res).max())


# ---------------------------------------------------------------------------
# equivariant sphere suspension
# ---------------------------------------------------------------------------


@dataclass
class EquivariantFlowState:
    """Profile rho(theta) of an equivariant map between round spheres.

    theta is a uniform grid on [0, pi] including both poles; rho(0) = 0 and
    rho(pi) = boundary_class * pi are pinned (the run's topological class).
    """

    m: int
    n: int
    rho: np.ndarray
    boundary_class: int = 0
    t: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.m > self.n:
            raise ValueError("suspension ansatz needs m <= n")
        if self.boundary_class not in (0, 1):
            raise ValueError("boundary_class must be 0 or 1")
        if abs(self.rho[0]) > 1e-14 or abs(self.rho[-1] - self.boundary_class * math.pi) > 1e-14:
            raise ValueError("rho must satisfy the pinned pole values")

    @property
    def theta(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.rho.size)

    @property
    def h(self) -> float:
        return math.pi / (self.rho.size - 1)


def _rho_derivatives(rho: np.ndarray, boundary_class: int, h: float):
    """Centered rho' and rho'' on all nodes; the poles read a ghost node from
    odd reflection (class pi: odd about pi).  Only the monitor's pole values
    need the ghosts."""
    left = -rho[1]
    right = (2.0 * math.pi - rho[-2]) if boundary_class else -rho[-2]
    ext = np.concatenate([[left], rho, [right]])
    dp = (ext[2:] - ext[:-2]) / (2.0 * h)
    ddp = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / h**2
    return dp, ddp


def _eq_coefficients(dp, sr, sin2_th, r_m, r_n):
    """Diffusion and rotation denominators r_M^2 + r_N^2 rho'^2 and
    r_M^2 sin^2 th + r_N^2 sin^2 rho from rho', sin rho and sin^2 th."""
    return r_m**2 + r_n**2 * dp**2, r_m**2 * sin2_th + r_n**2 * sr**2


def _eq_rhs(rho, dp, ddp, sin2_th, sincos_th, m, r_m, r_n):
    """Right-hand side from rho, rho', rho'' and the theta trig, all on the
    interior nodes."""
    sr = np.sin(rho)
    diff, denom = _eq_coefficients(dp, sr, sin2_th, r_m, r_n)
    rot = (m - 1) * (sincos_th * dp - sr * np.cos(rho)) / denom
    return ddp / diff + rot


def _eq_field(m: int, nodes: int, radii, cfl: float = 0.4):
    """Right-hand side (y, t) -> rho_t on ``nodes`` nodes, zero at the pinned
    poles, radii(t) = (r_M, r_N); the interior derivatives are slices of y, so
    the poles need no ghosts.  Looks up ``_eq_rhs`` at each call.  The field's
    ``cfl_dt(y, t)`` is the explicit step cfl / rate the state allows, from
    the same theta trig and coefficients."""
    h = math.pi / (nodes - 1)
    th = np.linspace(0.0, math.pi, nodes)[1:-1]
    sin_th = np.sin(th)
    sin2_th, sincos_th = sin_th**2, sin_th * np.cos(th)

    def slope(y):
        return (y[2:] - y[:-2]) / (2.0 * h)

    def rhs(y, t):
        out = np.zeros_like(y)
        out[1:-1] = _eq_rhs(y[1:-1], slope(y), (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h**2,
                            sin2_th, sincos_th, m, *radii(t))
        return out

    def cfl_dt(y, t):
        diff, denom = _eq_coefficients(slope(y), np.sin(y[1:-1]), sin2_th, *radii(t))
        # diffusion 1 / diff and drift (m-1) sin th cos th / denom
        rate = 2.0 / diff.min() / h**2 + abs((m - 1) * sincos_th / denom).max() / h
        return cfl / rate

    rhs.cfl_dt = cfl_dt
    return rhs


def equivariant_rhs(st: EquivariantFlowState, r_m: float, r_n: float) -> np.ndarray:
    """Right-hand side of the reduced flow; pinned poles contribute zero."""
    return _eq_field(st.m, st.rho.size, lambda t: (r_m, r_n))(st.rho, st.t)


def equivariant_dt(st: EquivariantFlowState, r_m: float, r_n: float,
                   cfl: float = 0.4) -> float:
    """CFL-limited step from the diffusion and drift coefficients."""
    return _eq_field(st.m, st.rho.size, lambda t: (r_m, r_n), cfl).cfl_dt(st.rho, st.t)


# Second-order Runge-Kutta-Chebyshev (RKC2; Sommeijer, Shampine & Verwer,
# "RKC: an explicit solver for parabolic PDEs", 1998) with damping eps = 2/13:
# s stages of the right-hand side are stable on the real interval
# [-beta(s), 0], beta(s) ~ 0.653 (s^2 - 1), so the step follows accuracy and
# the stage count follows the stiffness.
RKC_EPS = 2.0 / 13.0


def _rkc_beta(s: int) -> float:
    """Real stability interval of s-stage RKC2: (w0 + 1) T_s''(w0) / T_s'(w0).

    Closed form at w0 = cosh(th) = 1 + eps/s^2, exact for any s:
    T_s''/T_s' = (s coth(s th) - coth(th)) / sinh(th).
    """
    d = RKC_EPS / s**2
    th = math.log1p(d + math.sqrt(d * (2.0 + d)))  # acosh(1 + d) without cancellation
    return (2.0 + d) * (s / math.tanh(s * th) - 1.0 / math.tanh(th)) / math.sinh(th)


def _rkc_stages(step: float, dt_cfl: float, most: int) -> int | None:
    """Fewest stages s >= 2 with beta(s) >= 2 step / dt_cfl, or None past ``most``.

    ``dt_cfl`` is the explicit step ``torus_cfl_dt`` or ``equivariant_dt``
    allows, cfl / rate, where 2 rate bounds the spectrum of the discrete
    operator (eta^{-1} <= I on the torus, Gershgorin on the sphere), so cfl is
    the fraction of the stability interval used, as it was of the [-2, 0] of a
    two-stage explicit step.
    """
    if most < 2 or not _rkc_beta(most) * dt_cfl >= 2.0 * step:
        return None
    s = max(2, min(most, math.ceil(math.sqrt(2.0 * step / dt_cfl / 0.653 + 1.0))))
    while _rkc_beta(s) * dt_cfl < 2.0 * step:
        s += 1
    while s > 2 and _rkc_beta(s - 1) * dt_cfl >= 2.0 * step:
        s -= 1
    return s


@lru_cache(maxsize=256)
def _rkc_coefficients(s: int):
    """mu, nu, mu~, gamma~ (index j = 1..s; mu[1] = nu[1] = gamma~[1] = 0) and the
    stage times c (j = 0..s, c[s] = 1) of s-stage RKC2."""
    w0 = 1.0 + RKC_EPS / s**2
    t, d1, d2 = [1.0, w0], [0.0, 1.0], [0.0, 0.0]  # T_j, T_j', T_j'' at w0
    for j in range(2, s + 1):
        t.append(2.0 * w0 * t[j - 1] - t[j - 2])
        d1.append(2.0 * t[j - 1] + 2.0 * w0 * d1[j - 1] - d1[j - 2])
        d2.append(4.0 * d1[j - 1] + 2.0 * w0 * d2[j - 1] - d2[j - 2])
    w1 = d1[s] / d2[s]
    b = [d2[j] / d1[j] ** 2 for j in range(2, s + 1)]
    b = b[:1] * 2 + b  # b_0 = b_1 = b_2
    mu, nu, mut, gam, c = ([0.0] * (s + 1) for _ in range(5))
    mut[1] = c[1] = b[1] * w1
    for j in range(2, s + 1):
        mu[j] = 2.0 * b[j] * w0 / b[j - 1]
        nu[j] = -b[j] / b[j - 2]
        mut[j] = 2.0 * b[j] * w1 / b[j - 1]
        gam[j] = -(1.0 - b[j - 1] * t[j - 1]) * mut[j]
        c[j] = mu[j] * c[j - 1] + nu[j] * c[j - 2] + mut[j] + gam[j]
    return tuple(mu), tuple(nu), tuple(mut), tuple(gam), tuple(c)


def _rkc_step(y: np.ndarray, t: float, dt: float, s: int, rhs, y_t=None) -> np.ndarray:
    """One s-stage RKC2 step of a whole array; ``rhs(y, t)`` returns y_t, zero
    on pinned entries, and ``y_t``, if given, is rhs(y, t) already evaluated.

    The recursion runs on the increments d_j = Y_j - y (d_0 = 0) and adds y
    once at the end, so a stationary state does not drift by rounding.
    """
    mu, nu, mut, gam, c = _rkc_coefficients(s)
    f0 = dt * (rhs(y, t) if y_t is None else y_t)
    d_prev, d = 0.0, mut[1] * f0
    for j in range(2, s + 1):
        f = dt * rhs(y + d, t + c[j - 1] * dt)
        d, d_prev = mu[j] * d + nu[j] * d_prev + mut[j] * f + gam[j] * f0, d
    return y + d


def _rkc_single(y: np.ndarray, t: float, dt: float, dt_cfl: float, rhs) -> np.ndarray:
    """One RKC2 step of size dt with the fewest stages the CFL step allows."""
    s = _rkc_stages(dt, dt_cfl, MAX_STEPS)
    if s is None:
        raise ValueError(f"step {dt} needs more than {MAX_STEPS} stages")
    return _rkc_step(y, t, dt, s, rhs)


def equivariant_step(st: EquivariantFlowState, dt: float, r_of_t) -> EquivariantFlowState:
    """One RKC2 step of size dt, stages from the CFL bound at cfl 0.4;
    ``r_of_t`` maps time to the radius pair (r_M, r_N)."""
    field = _eq_field(st.m, st.rho.size, r_of_t)
    rho = _rkc_single(st.rho, st.t, dt, field.cfl_dt(st.rho, st.t), field)
    return EquivariantFlowState(st.m, st.n, rho, st.boundary_class, st.t + dt)


def equivariant_lambdas(st: EquivariantFlowState, r_m: float, r_n: float):
    """(lambda_radial, lambda_spherical) at every node.

    The radial stretch is (r_N/r_M)|rho'|; the m-1 spherical stretches equal
    r_N sin(rho) / (r_M sin(theta)) with the pole values filled by the limit
    rho'(pole) * cos(rho(pole)) (L'Hopital).
    """
    th = st.theta
    dp, _ = _rho_derivatives(st.rho, st.boundary_class, st.h)
    lam_r = (r_n / r_m) * np.abs(dp)
    lam_s = np.empty_like(lam_r)
    i = slice(1, -1)
    lam_s[i] = r_n * np.abs(np.sin(st.rho[i])) / (r_m * np.sin(th[i]))
    lam_s[0] = (r_n / r_m) * abs(dp[0] * math.cos(st.rho[0]))
    lam_s[-1] = (r_n / r_m) * abs(dp[-1] * math.cos(st.rho[-1]))
    return lam_r, lam_s


def equivariant_monitor(st: EquivariantFlowState, r_m: float, r_n: float):
    lam_r, lam_s = equivariant_lambdas(st, r_m, r_n)
    top1 = np.maximum(lam_r, lam_s)
    # second-largest singular value: the spherical one has multiplicity m-1
    top2 = lam_s if st.m >= 3 else np.minimum(lam_r, lam_s)
    m_of = float((s_of(top1) + s_of(top2)).min())
    return m_of, float(top1.max()), float((top1 * top2).max())


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------


TORUS_PRESETS = ("zero", "sine", "linear_sine")
EQUIVARIANT_PRESETS = ("zero", "sine", "identity", "identity_sine")
_FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real,
                "float | None": numbers.Real}  # annotation -> accepted values
_UNREAD = {"torus": ("radius_m", "radius_n", "background_m", "background_n"),
           "equivariant": ("period", "winding")}  # fields each case ignores


@dataclass
class FlowConfig:
    """Configuration of one flow experiment (deterministic; no clock state)."""

    case: str
    m: int = 2
    n: int = 2
    grid: int = 0  # 0: per-case default (torus 64 per axis, equivariant 512)
    cfl: float = 0.4
    t_end: float = 0.5
    preset: str = "sine"
    amplitude: float = 0.1
    period: float = 2.0 * math.pi
    winding: tuple = ()
    radius_m: float = 1.0
    radius_n: float = 1.0
    background_m: str = "static"
    background_n: str = "static"
    t_end_frac_of_extinction: float | None = None
    monitor_every: int = 0  # target number of monitor records (0: 120)

    def __post_init__(self):
        for f in fields(self):
            v, kind = getattr(self, f.name), _FIELD_TYPES.get(f.type, object)
            if (isinstance(v, bool) or not isinstance(v, kind)) and not (
                    v is None and f.type.endswith("None")):
                raise ValueError(f"{f.name} must be {f.type}, got {v!r}")
        if self.case not in ("torus", "equivariant"):
            raise ValueError("case must be 'torus' or 'equivariant'")
        for f in fields(self):  # a field the case never reads keeps its default
            # (``or ()``: JSON writes the empty default winding as [])
            if f.name in _UNREAD[self.case] and (getattr(self, f.name) or ()) != f.default:
                raise ValueError(f"{f.name} is not read by {self.case} flows; "
                                 f"leave it at {f.default!r}")
        presets = TORUS_PRESETS if self.case == "torus" else EQUIVARIANT_PRESETS
        if self.preset not in presets:
            raise ValueError(f"unknown preset {self.preset!r} for {self.case}")
        for name in ("cfl", "period", "radius_m", "radius_n"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("background_m", "background_n"):
            if getattr(self, name) not in ("static", "ricci"):
                raise ValueError(f"{name} must be 'static' or 'ricci', "
                                 f"got {getattr(self, name)!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if self.case == "torus" and self.m < 2:
            raise ValueError(f"torus flows need m >= 2, got m={self.m}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got n={self.n}")
        if self.monitor_every < 0:
            raise ValueError("monitor_every must be 0 (120 records) or positive, "
                             f"got {self.monitor_every}")
        if self.t_end_frac_of_extinction is not None and (
                self.case == "torus" or self.background_m == self.background_n == "static"):
            raise ValueError("extinction fraction needs a shrinking background")
        if self.t_end_frac_of_extinction is None:
            if not (math.isfinite(self.t_end) and self.t_end > 0):
                raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        elif not (math.isfinite(self.t_end_frac_of_extinction)
                  and self.t_end_frac_of_extinction > 0):
            raise ValueError("t_end_frac_of_extinction must be positive and finite, "
                             f"got {self.t_end_frac_of_extinction}")
        if self.grid < 0 or self.grid in (1, 2):
            raise ValueError(f"grid must be 0 (the per-case default) or at least 3, "
                             f"got {self.grid}")
        if self.grid == 0:
            self.grid = 64 if self.case == "torus" else 512

    @staticmethod
    def from_dict(d: dict) -> "FlowConfig":
        keys = {f for f in FlowConfig.__dataclass_fields__}
        unknown = set(d) - keys
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = FlowConfig(**d)
        if cfg.winding:
            try:
                cfg.winding = tuple(tuple(int(x) for x in row) for row in cfg.winding)
            except (TypeError, ValueError):
                raise ValueError(f"winding needs integer rows, got {cfg.winding!r}") from None
        return cfg

    def to_dict(self) -> dict:
        d = asdict(self)
        d["winding"] = [list(r) for r in self.winding] if self.winding else []
        return d


def _torus_initial(cfg: FlowConfig) -> TorusFlowState:
    m, n, big = cfg.m, cfg.n, cfg.grid
    x = np.arange(big) * (cfg.period / big)
    mesh = np.meshgrid(*([x] * m), indexing="ij")
    q = 2.0 * math.pi / cfg.period
    u = np.zeros((n,) + (big,) * m)
    amp = cfg.amplitude
    if cfg.preset in ("sine", "linear_sine"):
        u[0] = amp * np.sin(q * mesh[0]) * (np.cos(q * mesh[1]) if m >= 2 else 1.0)
        if n >= 2 and m >= 2:
            u[1] = amp * np.sin(q * mesh[1])
    if cfg.winding:
        lin = np.asarray(cfg.winding, dtype=float)
        if lin.shape != (n, m):
            raise ValueError("winding matrix must be n x m")
    elif cfg.preset == "linear_sine":
        lin = np.zeros((n, m))
        lin[0, 0] = 1.0  # one winding direction: area-decreasing, not distance-
    else:
        lin = np.zeros((n, m))
    return TorusFlowState(m, n, cfg.period, lin, u)


def _equivariant_initial(cfg: FlowConfig) -> EquivariantFlowState:
    th = np.linspace(0.0, math.pi, cfg.grid + 1)
    if cfg.preset == "zero":
        rho = np.zeros_like(th)
    elif cfg.preset == "sine":
        rho = cfg.amplitude * np.sin(th)
    elif cfg.preset == "identity":
        rho = th.copy()
    else:  # identity_sine
        rho = th + cfg.amplitude * np.sin(th)
    cls = int(cfg.preset.startswith("identity"))
    rho[0], rho[-1] = 0.0, cls * math.pi  # amplitude * sin(pi) need not round to 0
    return EquivariantFlowState(cfg.m, cfg.n, rho, cls)


def _paths(cfg: FlowConfig):
    return (BackgroundPath(ModelSpace("sphere", cfg.m, scale=cfg.radius_m), cfg.background_m),
            BackgroundPath(ModelSpace("sphere", cfg.n, scale=cfg.radius_n), cfg.background_n))


def _coupling_constant(cfg: FlowConfig, pm: BackgroundPath, pn: BackgroundPath,
                       t_end: float, c0: float = 8.0) -> float:
    """Explicit monotonicity rate for shrinking-background runs.

    Evaluates the curvature-bound aggregate at the worst time of the run
    (curvature 1/r^2 scaled by 1/(1-Lt), metric speed = Einstein constant of
    the evolving metric), mirroring the sweep constant convention.
    """
    f_m, f_n = pm.metric_factor(t_end), pn.metric_factor(t_end)
    k_m = 1.0 / (cfg.radius_m**2 * f_m)
    k_n = 1.0 / (cfg.radius_n**2 * f_n)
    dt_m = pm.einstein_rate / f_m
    dt_n = pn.einstein_rate / f_n
    return c0 * (k_m + k_n + dt_m + dt_n) * (cfg.m + cfg.n)


def run(cfg: FlowConfig) -> FlowSeries:
    """Integrate a configured flow and collect its monitor series."""
    if cfg.case == "torus":
        return _run_torus(cfg)
    return _run_equivariant(cfg)


def _march(series: FlowSeries, y: np.ndarray, rhs, cfl_dt, record,
           records: int) -> FlowSeries:
    """Integrate y from 0 to the series' ``t_end`` by RKC2 and append
    ``records`` + 1 rows.

    Each record interval of length gap is split into ceil(gap / h) equal steps
    (time error O(h^2), like space); each step takes its stages from
    ``cfl_dt(y, t)``, the explicit step the state allows.  At each row time
    the right-hand side f = rhs(y, t) is evaluated once: ``record(y, t, f)``
    gives the row's values after its time, and the next step takes f as its
    first stage.  Every row, the first included, aborts the run past
    ``LAMBDA_ABORT``.  Stage evaluations count against ``MAX_STEPS``.
    """
    t_end, h = series.meta["t_end"], series.meta["h"]
    per_record = max(1, math.ceil(t_end / records / h))
    n_steps = records * per_record
    step = t_end / n_steps
    dt = cfl_dt(y, 0.0)
    if _rkc_stages(step, dt, MAX_STEPS // n_steps) is None:
        raise ValueError(f"{series.meta['case']} run of {n_steps} steps needs more than "
                         f"{MAX_STEPS} right-hand-side evaluations, the cap; raise cfl "
                         "or lower t_end")

    def row(y, t):
        f = rhs(y, t)
        values = record(y, t, f)
        series.append(t, *values)
        if values[1] > LAMBDA_ABORT:
            raise FlowAbort(f"lambda_max {values[1]:.2f} beyond guard")
        return f

    steps = evals = 0
    refreshes = 1
    try:
        f = row(y, 0.0)
        while steps < n_steps:
            t = steps * step
            if steps:
                dt = cfl_dt(y, t)
                refreshes += 1
            s = _rkc_stages(step, dt, MAX_STEPS - evals)
            if s is None:
                raise FlowAbort(f"step cap {MAX_STEPS} reached at t={t!r}")
            y = _rkc_step(y, t, step, s, rhs, f)
            steps, evals = steps + 1, evals + s
            f = row(y, steps * step) if steps % per_record == 0 else None
    except FlowAbort as err:
        series.abort_reason = str(err)
    series.meta.update(steps=steps, rhs_evals=evals, dt_min=step if steps else None,
                       dt_max=step if steps else None, cfl_refreshes=refreshes)
    return series


def _run_torus(cfg: FlowConfig) -> FlowSeries:
    st = _torus_initial(cfg)
    dt = torus_cfl_dt(st, cfg.cfl)  # eta^{-1} <= I: the same bound at every state
    field = _torus_field(st)
    series = FlowSeries(meta={"case": "torus", "h": st.h, "t_end": cfg.t_end,
                              "config": cfg.to_dict(), "a_used": None})
    return _march(series, st.u, field, lambda u, t: dt, _torus_record(st, field),
                  cfg.monitor_every or 120)


def _run_equivariant(cfg: FlowConfig) -> FlowSeries:
    pm, pn = _paths(cfg)
    t_cap = min(pm.t_max, pn.t_max)  # finite once a background shrinks
    t_end = cfg.t_end
    if cfg.t_end_frac_of_extinction is not None:
        t_end = cfg.t_end_frac_of_extinction * t_cap
    if t_end >= t_cap:
        raise ValueError(f"t_end {t_end} reaches background extinction {t_cap}")
    # metric_factor is exactly 1.0 on a static path, yet costs ten times a
    # constant, and the radii are read at every stage
    f_m, f_n = (p.metric_factor if p.mode == "ricci" else (lambda t: 1.0) for p in (pm, pn))

    def radii(t):
        return cfg.radius_m * math.sqrt(f_m(t)), cfg.radius_n * math.sqrt(f_n(t))

    st = _equivariant_initial(cfg)

    def record(rho, t, f):
        now = EquivariantFlowState(cfg.m, cfg.n, rho, st.boundary_class, t)
        return (*equivariant_monitor(now, *radii(t)), float(abs(f).max()), f_m(t), f_n(t))

    series = FlowSeries(meta={
        "case": "equivariant", "h": st.h, "t_end": t_end,
        "config": cfg.to_dict(),
        "a_used": _coupling_constant(cfg, pm, pn, t_end) if math.isfinite(t_cap) else None,
    })
    field = _eq_field(st.m, st.rho.size, radii, cfg.cfl)
    _march(series, st.rho, field, field.cfl_dt, record, cfg.monitor_every or 120)
    if series.meta["a_used"] is not None:
        series.meta["a_min_observed"] = smallest_monotone_rate(series)
    return series


def smallest_monotone_rate(series: FlowSeries) -> float:
    """Smallest a >= 0 with a*t + log(m(t)) nondecreasing over the samples.

    Reported for shrinking-background runs next to the explicit constant
    actually used; requires a positive monitor throughout.
    """
    t = np.asarray(series.times)
    m = np.asarray(series.m_of_t)
    if (m <= 0).any():
        return float("inf")
    slopes = np.diff(np.log(m)) / np.diff(t)
    return float(max(0.0, -slopes.min()))


def exp_monitor_nondecreasing(series: FlowSeries, a: float, tol: float = 1e-6) -> bool:
    """Check that exp(a t) m(t) is nondecreasing, in log form for safety."""
    t = np.asarray(series.times)
    m = np.asarray(series.m_of_t)
    if (m <= 0).any():
        return False
    vals = a * t + np.log(m)
    return bool((np.diff(vals) >= -tol).all())
