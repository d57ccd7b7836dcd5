"""Desk-scale time integration of the graphical flow in two reductions.

Both cases integrate the reparametrized (strictly parabolic) form of the
graph flow, in which the domain components stay the identity and the map
itself evolves:

* periodic flat tori: d/dt f^a = eta^{ij} d_i d_j f^a with
  eta = I + df^T df assembled pointwise (all background Christoffel terms
  vanish on flat factors).  One centered stencil over all components gives
  undivided differences on a periodic ring around the grid, each one
  contiguous pass, into arrays whose owner the caller picks; the scales
  1/(2h) and 1/h^2 are applied where a result is read.  A right-hand side is
  adj(eta)_ij d_i d_j f^a / det eta for m <= 3, so it never forms eta^{-1};
  m >= 4 contracts LAPACK's eta^{-1}.  The stages of a run write into one
  workspace of the run, so a stage allocates only the right-hand side it
  returns.  A state owns its geometry (df, eta^{-1} and the Hessian), built
  once into arrays of its own, and the monitor, tr_eta S, its eta^{ij}
  Laplacian and term I read that one copy.  A run's rows read the
  right-hand side the march evaluated at their time, and their state's
  geometry is formed from the stencil that evaluation wrote, in a second
  workspace of the run where their residual writes its scratch too;

* equivariant sphere suspensions f(theta, xi) = (rho(theta), xi) between
  round spheres of radii r_M, r_N:

      rho_t = rho'' / (r_M^2 + r_N^2 rho'^2)
            + (m-1) (sin th cos th rho' - sin rho cos rho)
                    / (r_M^2 sin^2 th + r_N^2 sin^2 rho)

  where the radii may shrink homothetically (r(t) = r(0) sqrt(1 - L t)).
  One field per run holds the theta trig and serves the right-hand side and
  the CFL step alike, so a run builds a state only for a row's monitor,
  and that state reads the field's sin theta.

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
    """Buffer owner of a state's geometry: a new zeroed array at every request
    (zeroed for the reason ``_Workspace`` gives)."""
    return np.zeros(shape)


class _Workspace(dict):
    """Buffer owner of one run's stages: one array per (name, shape), made at
    the first request and handed out again, to be overwritten, at every later
    one.  Grid-96 fields are larger than glibc's mmap threshold, so fresh ones
    would map and fault in new pages at every stage.  Arrays start zeroed, so
    the few cells of a ringed array that no difference writes (``_stencil``)
    never hold uninitialized memory, which could be a NaN or a denormal that
    every pass over the whole array would then carry."""

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        buf = self.get((name, shape))
        if buf is None:
            buf = self[name, shape] = np.zeros(shape)
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
        return _torus_geometry(*_torus_df(self.u, self.lin, self.h), self.h)


def _inner(m: int) -> tuple:
    """Index of the interior of an array ringed on its m trailing axes."""
    return (Ellipsis,) + (slice(1, -1),) * m


@lru_cache(maxsize=None)
def _stencil_plan(grid: tuple):
    """What ``_stencil`` indexes on a grid of this shape, built once per shape:
    the ringed shape and its size, the interior, the pairs (edge cells, the
    periodic cells they copy) that fill the ring axis by axis, and per axis
    the flat windows (on, ahead, back) of a difference along it."""
    m = len(grid)
    ringed = tuple(s + 2 for s in grid)
    size = math.prod(ringed)
    fill = []
    for d in range(m):
        lead, rest = (Ellipsis,) + (slice(None),) * d, (slice(1, -1),) * (m - d - 1)
        fill += [(lead + (0,) + rest, lead + (-2,) + rest),
                 (lead + (-1,) + rest, lead + (1,) + rest)]
    shifts = []
    for d in range(m):
        s = math.prod(ringed[d + 1:])  # one cell along axis d, in the flat order
        shifts.append(((Ellipsis, slice(s, size - s)), (Ellipsis, slice(2 * s, None)),
                       (Ellipsis, slice(None, size - 2 * s))))
    return ringed, size, _inner(m), fill, shifts


def _stencil(a, m: int, buf=_fresh, grad=True, hess=True):
    """Undivided centered differences of ``a`` over its m trailing periodic axes,
    every leading component at once, axis indices leading: the gradient
    (m, lead, grid) holds 2h d_i a, and the Hessian (m, m, lead, grid) holds
    h^2 d_i^2 a on its diagonal and 4h^2 d_i d_j a above it (i < j; nothing is
    written below it).  A part not asked for is None.

    Both come ringed: each grid axis carries one more cell on either side, and
    only the interior (``_inner(m)``) holds differences.  ``a`` is copied into
    a periodic ring once, and each difference is then a shift of the ring's
    flat cells, one contiguous pass: the cells it writes outside the interior
    hold values of no meaning, the few it does not write keep what the buffer
    held.  Pointwise work on the results may run over whole ringed arrays and
    read the interior at the end.  The scales are left to the readers, which
    fold them into what they compute anyway.  ``buf`` owns the arrays written,
    the results included.
    """
    k = a.ndim - m
    lead = a.shape[:k]
    ringed, size, inner, fill, shifts = _stencil_plan(a.shape[k:])
    ring = buf("ring", lead + ringed)
    ring[inner] = a
    for edge, cells in fill:  # one periodic cell on each side, axis by axis
        ring[edge] = ring[cells]
    flat = ring.reshape(lead + (size,))
    # d_i a, the gradient or, when only the Hessian is asked for, the scratch
    # that d_j d_i (j > i) differences along j
    g = buf("grad", (m,) + lead + ringed)
    gf = g.reshape((m,) + lead + (size,))
    hs = buf("hess", (m, m) + lead + ringed) if hess else None
    if hess:
        hf = hs.reshape((m, m) + lead + (size,))
        minus2 = np.multiply(flat, -2.0, out=buf("minus2", lead + (size,)))
    for i, (on, ahead, back) in enumerate(shifts):
        if grad or i < m - 1:
            np.subtract(flat[ahead], flat[back], out=gf[i][on])
        if hess:
            for j in range(i + 1, m):
                on_j, ahead_j, back_j = shifts[j]
                np.subtract(gf[i][ahead_j], gf[i][back_j], out=hf[i, j][on_j])
            # h^2 d_i^2 a = (-2a + a ahead) + a back
            np.add(minus2[on], flat[ahead], out=hf[i, i][on])
            hf[i, i][on] += flat[back]
    return (g if grad else None), hs


def _torus_df(u: np.ndarray, lin: np.ndarray, h: float, buf=_fresh):
    """Differential (n, m, grid) of the map x -> lin @ x + u(x) and the
    undivided Hessian (m, m, n, grid) of u, both ringed (see ``_stencil``),
    from one stencil of u."""
    m = lin.shape[1]
    grad, hess = _stencil(u, m, buf)
    df = buf("df", u.shape[:1] + (m,) + grad.shape[2:])
    np.multiply(grad, 0.5 / h, out=df.swapaxes(0, 1))
    df += lin.reshape(lin.shape + (1,) * m)
    return df, hess


def _torus_eta(df: np.ndarray, m: int, buf=_fresh) -> np.ndarray:
    """Upper triangle of the induced metric eta = I + df^T df, each entry a dot
    product over the n components; nothing is written below the diagonal."""
    grid = df.shape[2:]
    eta = buf("eta", (m, m) + grid)
    for i in range(m):
        for j in range(i, m):
            e = np.multiply(df[0, i], df[0, j], out=eta[i, j])
            for a in range(1, len(df)):
                e += np.multiply(df[a, i], df[a, j], out=buf("product", grid))
        eta[i, i] += 1.0
    return eta


def _torus_cofactors(df: np.ndarray, m: int, buf=_fresh):
    """Upper triangle {(i, j): adj(eta)_ij} of the adjugate of eta and det eta,
    for m <= 3, pointwise.

    adj(eta)_ij = (-1)^(i+j) times the minor of eta without row j and column i,
    a 1 x 1 or 2 x 2 determinant; eta is symmetric, so its entry (r, c) is read
    from the upper triangle.  det eta = sum_j eta_0j adj(eta)_j0.
    """
    eta = _torus_eta(df, m, buf)
    grid = df.shape[2:]

    def e(r, c):
        return eta[min(r, c), max(r, c)]

    adj = {}
    for i in range(m):
        for j in range(i, m):
            rows = [r for r in range(m) if r != j]
            cols = [c for c in range(m) if c != i]
            if m == 2:
                minor = e(rows[0], cols[0])
                adj[i, j] = np.negative(minor, out=buf("adj", grid)) if (i + j) % 2 else minor
            else:
                # the 2 x 2 minor, its two products swapped where the sign is odd
                terms = [(e(rows[0], cols[0]), e(rows[1], cols[1])),
                         (e(rows[0], cols[1]), e(rows[1], cols[0]))][::(-1) ** (i + j)]
                adj[i, j] = np.multiply(*terms[0], out=buf(f"adj{i}{j}", grid))
                adj[i, j] -= np.multiply(*terms[1], out=buf("product", grid))
    det = np.multiply(eta[0, 0], adj[0, 0], out=buf("det", grid))
    for j in range(1, m):
        det += np.multiply(eta[0, j], adj[0, j], out=buf("product", grid))
    return adj, det


def _positive(det: np.ndarray) -> np.ndarray:
    """det eta, unless the induced metric is not positive definite somewhere."""
    if det.min() <= 0:
        raise FlowAbort("induced metric lost positive definiteness")
    return det


def _torus_eta_inv(df: np.ndarray, m: int, buf=_fresh) -> np.ndarray:
    """Inverse induced metric per grid point of an unringed df, adj(eta) / det eta
    for m <= 3; aborts where det eta <= 0."""
    grid = df.shape[2:]
    if m <= 3:
        adj, det = _torus_cofactors(df, m, buf)
        _positive(det)
        inv = buf("inv", (m, m) + grid)
        for i in range(m):
            for j in range(i, m):
                np.divide(adj[i, j], det, out=inv[i, j])
                if j > i:
                    inv[j, i] = inv[i, j]
        return inv
    eta = _torus_eta(df, m, buf)
    for i in range(m):
        for j in range(i + 1, m):
            eta[j, i] = eta[i, j]
    # the gufuncs behind np.linalg.det and np.linalg.inv, which take no out=
    eta_p = np.moveaxis(eta, (0, 1), (-2, -1))
    _positive(_umath_linalg.det(eta_p, out=buf("det", grid)))
    return np.moveaxis(_umath_linalg.inv(eta_p, out=buf("inv", grid + (m, m))),
                       (-2, -1), (0, 1))


def _hessian_trace(coef, hess: np.ndarray, out: np.ndarray, buf) -> np.ndarray:
    """h^2 coef^{ij} d_i d_j a into ``out``, from the upper triangle of a
    symmetric coef and the undivided Hessian of a (``_stencil``): an entry
    above the diagonal counts twice, at a quarter of its weight."""
    m = hess.shape[0]
    np.multiply(hess[0, 0], coef[0, 0], out=out)
    for i in range(m):
        for j in range(i, m):
            if i or j:
                c = coef[i, j] if i == j else np.multiply(coef[i, j], 0.5,
                                                          out=buf("half", hess.shape[-m:]))
                out += np.multiply(hess[i, j], c, out=buf("term", out.shape))
    return out


def _torus_velocity(df: np.ndarray, hess: np.ndarray, h: float, buf=_fresh) -> np.ndarray:
    """u_t = eta^{ij} d_i d_j u, the right-hand side of the flow, as a new array,
    from the ringed df and undivided Hessian of u (``_torus_df``); aborts where
    det eta <= 0.  For m <= 3 it is adj(eta)_ij d_i d_j u / det eta, over the
    whole ringed arrays, with h^2 folded into det eta, and eta^{-1} is never
    formed; m >= 4 contracts the LAPACK inverse on the interior."""
    m = df.shape[1]
    inner = _inner(m)
    if m > 3:
        hess = hess[inner]
        out = _hessian_trace(_torus_eta_inv(df[inner], m, buf), hess,
                             np.empty(hess.shape[2:]), buf)
        out /= h * h
        return out
    adj, det = _torus_cofactors(df, m, buf)
    _positive(det[inner])
    num = _hessian_trace(adj, hess, buf("num", hess.shape[2:]), buf)
    return np.divide(num[inner], np.multiply(det, h * h, out=det)[inner])


def _torus_hessian(hess: np.ndarray, h: float, buf=_fresh) -> np.ndarray:
    """The Hessian (n, m, m, grid) of u, symmetric in (m, m), from its ringed
    undivided differences (``_stencil``)."""
    m = hess.shape[0]
    inner = hess[_inner(m)]
    full = buf("hessian", inner.shape[2:3] + (m, m) + inner.shape[3:])
    for i in range(m):
        np.multiply(inner[i, i], h**-2, out=full[:, i, i])
        for j in range(i + 1, m):
            np.multiply(inner[i, j], 0.25 * h**-2, out=full[:, i, j])
            full[:, j, i] = full[:, i, j]
    return full


def _torus_geometry(df: np.ndarray, hess: np.ndarray, h: float, buf=_fresh) -> TorusGeometry:
    """df, eta^{-1} and the Hessian of the map on the grid, from the ringed df
    and undivided Hessian of one stencil of u, written into arrays ``buf``
    owns."""
    m = df.shape[1]
    inner = df[_inner(m)]
    grid_df = buf("grid_df", inner.shape)
    grid_df[...] = inner
    return TorusGeometry(grid_df, _torus_eta_inv(grid_df, m, buf), _torus_hessian(hess, h, buf))


def torus_rhs(st: TorusFlowState) -> np.ndarray:
    """u_t of a state, by the formula a run's stages use, from a stencil of its
    own (the state's ``geometry`` holds eta^{-1}, which a stage never forms)."""
    return _torus_velocity(*_torus_df(st.u, st.lin, st.h), st.h)


def torus_cfl_dt(st: TorusFlowState, cfl: float = 0.4) -> float:
    """Explicit-step limit: eta^{-1} <= 1 so the diffusion scale is h^2/(2m)."""
    return cfl * st.h**2 / (2.0 * st.m)


def _torus_field(st: TorusFlowState):
    """Right-hand side (u, t) -> u_t of the run ``st`` starts.  Every stage
    writes its stencil and cofactors into one workspace of the run, so the
    returned u_t is the only new array; the field's ``stencil`` is the df and
    undivided Hessian it wrote last, valid until its next call."""
    work = _Workspace()

    def rhs(u, t):
        rhs.stencil = _torus_df(u, st.lin, st.h, work)
        return _torus_velocity(*rhs.stencil, st.h, work)

    return rhs


def _torus_record(st: TorusFlowState, field):
    """Row function (u, t, f) -> row of the run ``st`` starts, called right after
    ``field`` gave f = u_t at (u, t).  The row's state takes its geometry from
    the stencil that call wrote, with eta^{-1} and the Hessian formed in a
    second workspace of the run, where its residual writes its scratch too."""
    rows = _Workspace()

    def record(u, t, f):
        now = TorusFlowState(st.m, st.n, st.period, st.lin, u, t)
        # primes the cached_property
        vars(now)["geometry"] = _torus_geometry(*field.stencil, st.h, rows)
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
    """(min S_11 + S_22, max lambda, max lambda_1 lambda_2) over the grid.

    m = 2 reads the invariants of g = df^T df, with det g taken from its
    entries, not as a difference of roots: S_1 + S_2 = 2 (1 - det g) / det eta
    with det eta = 1 + tr g + det g, lambda_max^2 the larger root of g and
    lambda_1 lambda_2 = sqrt(det g).  m >= 3 sorts ``torus_lambdas``.
    """
    if st.m > 2:
        lam = torus_lambdas(st)
        s = s_of(lam)
        return (float((s[:, 0] + s[:, 1]).min()), float(lam.max()),
                float((lam[:, 0] * lam[:, 1]).max()))
    df = st.geometry.df
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
    np.maximum(det, 0.0, out=det)  # g >= 0: a negative det g is rounding
    prod = math.sqrt(float(det.max()))
    # det eta = 1 + tr g + det g, as half_tr + half_tr + det + 1
    eta_det = np.add(half_tr, half_tr, out=half_tr)
    eta_det += det
    eta_det += 1.0
    np.subtract(1.0, det, out=det)
    det *= 2.0
    det /= eta_det
    return float(det.min()), lam_max, prod


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
    inner = _inner(m)
    df_t = _stencil(f, m, buf, hess=False)[0][inner]  # 2h d(f), axis indices leading
    inv_df = np.einsum("ij...,aj...->ia...", _square(g.inv, out=buf("inv2", g.inv.shape)),
                       g.df, out=buf("inv_df", df_t.shape))
    res = np.einsum("ia...,ia...->...", df_t, inv_df, out=buf("residual", grid))
    res *= -2.0 / h
    lap = _hessian_trace(g.inv, _stencil(_torus_sigma(st, buf), m, buf, grad=False)[1][inner],
                         buf("lap", grid), buf)
    lap *= h**-2
    res -= lap
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

    @cached_property
    def sin_theta(self) -> np.ndarray:
        """sin theta on the interior nodes."""
        return np.sin(self.theta[1:-1])

    @property
    def h(self) -> float:
        return math.pi / (self.rho.size - 1)


def _rho_derivatives(rho: np.ndarray, boundary_class: int, h: float):
    """Centered rho' and rho'' on all nodes; the poles read a ghost node from
    odd reflection (class pi: odd about pi).  No run calls it: the field and
    ``equivariant_lambdas`` take the same differences from slices of rho, and
    the pole slopes as scalars.  The tests keep it as their reference, and
    ``perfbench/tracer.py`` still names it."""
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
    the same theta trig and coefficients, and its ``sin_theta`` is the sin theta
    of the interior nodes it reads, for a row's state to share."""
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

    rhs.cfl_dt, rhs.sin_theta = cfl_dt, sin_th
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
    on pinned entries, as a new array that the step may overwrite, and
    ``y_t``, if given, is rhs(y, t) already evaluated.

    The recursion runs on the increments d_j = Y_j - y (d_0 = 0) and adds y
    once at the end, so a stationary state does not drift by rounding.  Each
    stage sums mu d_{j-1} + nu d_{j-2} + mut f + gam f0 left to right, scaling
    d_{j-2} and the stage's fresh f in place: an in-place pass over a large
    array costs about half of one that writes a new array.
    """
    mu, nu, mut, gam, c = _rkc_coefficients(s)
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

    The radial stretch is (r_N/r_M)|rho'|, with centered slopes; the two pole
    slopes read a ghost node from odd reflection (class pi: odd about pi), as
    scalars.  The m-1 spherical stretches equal r_N sin(rho) / (r_M sin(theta))
    with the pole values filled by the limit rho'(pole) * cos(rho(pole))
    (L'Hopital).
    """
    rho, h = st.rho, st.h
    dp = np.empty_like(rho)
    dp[1:-1] = (rho[2:] - rho[:-2]) / (2.0 * h)
    left = -rho[1]
    right = (2.0 * math.pi - rho[-2]) if st.boundary_class else -rho[-2]
    dp[0], dp[-1] = (rho[1] - left) / (2.0 * h), (right - rho[-2]) / (2.0 * h)
    lam_r = (r_n / r_m) * np.abs(dp)
    lam_s = np.empty_like(lam_r)
    i = slice(1, -1)
    lam_s[i] = r_n * np.abs(np.sin(rho[i])) / (r_m * st.sin_theta)
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
    field = _eq_field(st.m, st.rho.size, radii, cfg.cfl)

    def record(rho, t, f):
        now = EquivariantFlowState(cfg.m, cfg.n, rho, st.boundary_class, t)
        vars(now)["sin_theta"] = field.sin_theta  # primes the cached_property
        return (*equivariant_monitor(now, *radii(t)), float(abs(f).max()), f_m(t), f_n(t))

    series = FlowSeries(meta={
        "case": "equivariant", "h": st.h, "t_end": t_end,
        "config": cfg.to_dict(),
        "a_used": _coupling_constant(cfg, pm, pn, t_end) if math.isfinite(t_cap) else None,
    })
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
