"""Desk-scale time integration of the graphical flow in two reductions.

Both cases integrate the reparametrized (strictly parabolic) form of the
graph flow, in which the domain components stay the identity and the map
itself evolves:

* periodic flat tori: d/dt f^a = eta^{ij} d_i d_j f^a with
  eta = I + df^T df assembled pointwise (all background Christoffel terms
  vanish on flat factors).  One centered stencil over all components gives
  undivided differences on a periodic ring around the grid, each one
  contiguous pass; the scales 1/(2h) and 1/h^2 are applied where a result
  is read.  One function forms eta^{-1} = c / d for every m (c = adj eta,
  d = det eta for m <= 3; NumPy's inverse and 1 for m >= 4), and a
  right-hand side is c_ij d_i d_j f^a / d.
  A run builds its stage once, as a plan: every array the stage writes,
  every view it reads or writes and the ordered list of its calls, the
  last of which divides into the field's u_t.  A stage replays the plan on
  what the interior of the ring holds and allocates nothing.  A state's
  geometry (df, eta^{-1} and the Hessian) is read once from what one stage
  at the state leaves, into arrays of its own, and the monitor, tr_eta S,
  its eta^{ij} Laplacian and term I read that one copy.  A run's rows read the stage the march evaluated at their time by a
  second plan of the run, and their residual replays a third;

* equivariant sphere suspensions f(theta, xi) = (rho(theta), xi) between
  round spheres of radii r_M, r_N:

      rho_t = rho'' / (r_M^2 + r_N^2 rho'^2)
            + (m-1) (sin th cos th rho' - sin rho cos rho)
                    / (r_M^2 sin^2 th + r_N^2 sin^2 rho)

  where the radii may shrink homothetically (r(t) = r(0) sqrt(1 - L t)).
  One field per run holds the theta trig and serves the right-hand side and
  the CFL step alike, so a run builds a state only for a row's monitor,
  and that state reads the field's sin theta.  The field owns a node
  buffer, the rho_t it writes, the views of both that the right-hand side
  reads, its work arrays and its constants, with the scales of the
  undivided differences folded in, so a stage allocates nothing.

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
the fewest stages whose stability interval covers the CFL bound at the fixed
fraction ``CFL`` of that interval, a margin of the method, not of the problem.
A field is buffered: a stage reads the field's input array and writes the
field's y_t, and the stepper adds y and the stage's increment straight into
that input, so only a step allocates, a fixed handful of arrays.  Calling a
field, f(y, t), copies y in and y_t out.  The right-hand side the march
evaluates at a row's time serves the row and is the next step's first
stage.  ``MAX_STEPS`` caps the right-hand-side evaluations of a run: a run
planned beyond it is refused, one that outgrows it is aborted.  ``MAX_ENTRIES`` caps the size of a run's largest array, and a
config past it is refused.  Every row, the one at t = 0 included, aborts a
run whose largest stretch passes ``LAMBDA_ABORT`` or is NaN.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .evolution import C0
from .profile import s_of
from .spaces import BackgroundPath, ModelSpace

LAMBDA_ABORT = 50.0
# Fraction of RKC2's stability interval a step uses: past 1 a step leaves it.
CFL = 0.4
# Most right-hand-side evaluations of one run, either reduction (criterion 7
# takes about 2.4e4).
MAX_STEPS = 10**7
# Most entries of a run's largest array, checked on the config: a torus's ringed
# Hessian, m * m * n * (grid + 2)^m entries (criterion 6's grid-128 torus has
# 1.4e5), or an equivariant run's grid + 1 nodes.  A torus run's memory peak
# measured at most 21 arrays of that size (8 bytes an entry) for m = 2 to 9.
MAX_ENTRIES = 2**22


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


class _Plan(list):
    """Ordered calls (function, arguments) that the functions below record by
    calling the plan, which returns a call's last argument (a ufunc's ``out``),
    and ``run`` replays.  The arrays they write are made once (grid-96 fields
    pass glibc's mmap threshold, so fresh ones would fault in new pages at
    every replay) and zeroed, so the few cells of a ringed array that no
    difference writes (``_stencil``) never hold a NaN or a denormal that
    every pass over the whole array would then carry."""

    def __call__(self, fn, *args):
        self.append((fn, args))
        return args[-1]

    def run(self) -> None:
        for fn, args in self:
            fn(*args)


def _einsum(spec: str, *operands) -> None:
    """np.einsum of all operands but the last, into the last."""
    np.einsum(spec, *operands[:-1], out=operands[-1])


@dataclass
class TorusFlowState:
    """Map between flat tori: f(x) = lin @ x + u(x), u periodic.

    ``lin`` is an integer winding matrix (the homotopy data, constant in
    time); ``u`` has shape (n, N, ..., N) with m grid axes of period
    ``period``.  Splitting off the linear part keeps every stored field
    periodic, so centered stencils never see the winding jump.

    A state is a value: ``u`` is read-only after construction, so its
    ``geometry`` is built once, on first use, from one stage of its own, into
    arrays of its own, and shared by every reader; the u_t of that stage is
    kept for the residual.
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
        return self._stage[0]

    @cached_property
    def _stage(self):
        """The geometry and u_t of one stage of a field of the state's own."""
        field = _torus_field(self)
        u_t = field(self.u, self.t)
        plan = _Plan()
        geometry = _torus_geometry(plan, *field.stencil, self.h)
        plan.run()
        return geometry, u_t


def _inner(m: int) -> tuple:
    """Index of the interior of an array ringed on its m trailing axes."""
    return (Ellipsis,) + (slice(1, -1),) * m


def _ringed(lead: tuple, grid: tuple) -> np.ndarray:
    """A zeroed lead + grid array, each grid axis one cell longer on either side."""
    return np.zeros(lead + tuple(s + 2 for s in grid))


def _stencil(plan: _Plan, ring: np.ndarray, m: int, grad=True, hess=True):
    """Records the undivided centered differences of what the interior of
    ``ring`` (``_ringed``) holds when the plan runs (the caller writes it)
    over its m trailing periodic axes, every leading component at once, axis
    indices leading: the gradient (m, lead, grid) holds 2h d_i a, and the
    Hessian (m, m, lead, grid) holds h^2 d_i^2 a on its diagonal and
    4h^2 d_i d_j a above it (i < j; nothing is written below it).  A part not
    asked for is None.

    Both come ringed like ``ring``, and only the interior (``_inner(m)``)
    holds differences.  The plan first copies one periodic cell on each side
    into the ring, axis by axis; each difference is then a shift of the
    ring's flat cells, one contiguous pass: the cells it writes outside the
    interior hold values of no meaning, the few it does not write stay zero.
    Pointwise work on the results may run over whole ringed arrays and read
    the interior at the end.  The scales are left to the readers, which fold
    them into what they compute anyway.
    """
    lead, ringed = ring.shape[:-m], ring.shape[-m:]
    size = math.prod(ringed)
    shifts = []  # per axis the flat windows (on, ahead, back) of a difference along it
    for d in range(m):
        pre, rest = (Ellipsis,) + (slice(None),) * d, (slice(1, -1),) * (m - d - 1)
        plan(np.copyto, ring[pre + (0,) + rest], ring[pre + (-2,) + rest])
        plan(np.copyto, ring[pre + (-1,) + rest], ring[pre + (1,) + rest])
        s = math.prod(ringed[d + 1:])  # one cell along axis d, in the flat order
        shifts.append(((Ellipsis, slice(s, size - s)), (Ellipsis, slice(2 * s, None)),
                       (Ellipsis, slice(None, size - 2 * s))))
    flat = ring.reshape(lead + (size,))
    # d_i a, the gradient or, when only the Hessian is asked for, the scratch
    # that d_j d_i (j > i) differences along j
    g = np.zeros((m,) + ring.shape)
    gf = g.reshape((m,) + lead + (size,))
    hs = np.zeros((m, m) + ring.shape) if hess else None
    if hess:
        hf = hs.reshape((m, m) + lead + (size,))
        minus2 = plan(np.multiply, flat, -2.0, np.zeros(flat.shape))
    for i, (on, ahead, back) in enumerate(shifts):
        if grad or i < m - 1:
            plan(np.subtract, flat[ahead], flat[back], gf[i][on])
        if hess:
            for j in range(i + 1, m):
                on_j, ahead_j, back_j = shifts[j]
                plan(np.subtract, gf[i][ahead_j], gf[i][back_j], hf[i, j][on_j])
            # h^2 d_i^2 a = (-2a + a ahead) + a back
            plan(np.add, minus2[on], flat[ahead], hf[i, i][on])
            plan(np.add, hf[i, i][on], flat[back], hf[i, i][on])
    return (g if grad else None), hs


def _torus_df(plan: _Plan, grad: np.ndarray, lin: np.ndarray, h: float) -> np.ndarray:
    """Records the differential (n, m, grid) of the map x -> lin @ x + u(x) from
    the stencil gradient of u (``_stencil``), ringed like it: one contiguous
    multiply into an axis-leading (m, n, grid) array, the winding added on its
    nonzero blocks only; returns the (n, m) transposed view."""
    df = plan(np.multiply, grad, 0.5 / h, np.zeros(grad.shape))
    for (a, i), w in np.ndenumerate(lin):
        if w:
            plan(np.add, df[i, a], w, df[i, a])
    return df.swapaxes(0, 1)


def _torus_eta(plan: _Plan, df: np.ndarray) -> np.ndarray:
    """Records the upper triangle of the induced metric eta = I + df^T df, each
    entry a dot product over the n components; nothing is written below the
    diagonal."""
    n, m, grid = df.shape[0], df.shape[1], df.shape[2:]
    eta, product = np.zeros((m, m) + grid), np.zeros(grid)
    for i in range(m):
        for j in range(i, m):
            plan(np.multiply, df[0, i], df[0, j], eta[i, j])
            for a in range(1, n):
                plan(np.add, eta[i, j], plan(np.multiply, df[a, i], df[a, j], product), eta[i, j])
        plan(np.add, eta[i, i], 1.0, eta[i, i])
    return eta


def _torus_cofactors(plan: _Plan, df: np.ndarray):
    """Records the upper triangle c (indexed by (i, j)) and d with
    eta^{-1} = c / d, over the whole ringed df; the plan aborts unless
    det eta > 0 on the interior.  For m <= 3, c = adj(eta) and d = det eta:
    adj(eta)_ij = (-1)^(i+j) times the minor of eta without row j and column
    i, with eta's entry (r, c) read from its upper triangle, and
    det eta = sum_j eta_0j adj(eta)_j0.  For m >= 4, c is NumPy's inverse of
    eta on the interior only (``_inverse``; a ring cell's eta, from a
    difference across the wrap, can be singular in floating point) and d = 1.
    """
    m, grid = df.shape[1], df.shape[2:]
    eta, inner = _torus_eta(plan, df), _inner(m)
    if m > 3:
        for i in range(m):
            for j in range(i + 1, m):
                plan(np.copyto, eta[j, i], eta[i, j])
        inv = np.zeros(eta.shape)
        plan(_inverse, *(np.moveaxis(a[inner], (0, 1), (-2, -1)) for a in (eta, inv)))
        return inv, np.ones(grid)

    def e(r, c):
        return eta[min(r, c), max(r, c)]

    adj, product = {}, np.zeros(grid)
    for i in range(m):
        for j in range(i, m):
            rows = [r for r in range(m) if r != j]
            cols = [c for c in range(m) if c != i]
            if m == 2:
                minor = e(rows[0], cols[0])
                adj[i, j] = plan(np.negative, minor, np.zeros(grid)) if (i + j) % 2 else minor
            else:
                # the 2 x 2 minor, its two products swapped where the sign is odd
                terms = [(e(rows[0], cols[0]), e(rows[1], cols[1])),
                         (e(rows[0], cols[1]), e(rows[1], cols[0]))][::(-1) ** (i + j)]
                adj[i, j] = plan(np.multiply, *terms[0], np.zeros(grid))
                plan(np.subtract, adj[i, j], plan(np.multiply, *terms[1], product), adj[i, j])
    det = plan(np.multiply, eta[0, 0], adj[0, 0], np.zeros(grid))
    for j in range(1, m):
        plan(np.add, det, plan(np.multiply, eta[0, j], adj[0, j], product), det)
    plan(_positive, det[inner])
    return adj, det


def _positive(det: np.ndarray) -> None:
    """Aborts unless det eta > 0 everywhere, a NaN (an overflowed map) included."""
    low = det.min()
    if not low > 0:
        raise FlowAbort("induced metric is NaN: the map left the float range" if math.isnan(low)
                        else "induced metric lost positive definiteness")


def _inverse(eta: np.ndarray, out: np.ndarray) -> None:
    """out = eta^{-1} for stacked m x m matrices (m >= 4) once ``_positive``
    passes det eta.  An eta that overflowed to +inf without a NaN has det
    +inf, which aborts as a NaN does."""
    det = np.linalg.det(eta)
    _positive(np.where(det < math.inf, det, math.nan))
    out[...] = np.linalg.inv(eta)


def _torus_eta_inv(plan: _Plan, adj, det: np.ndarray, m: int) -> np.ndarray:
    """Records eta^{-1} = adj / det (``_torus_cofactors``) on the interior of
    the grid."""
    inner = _inner(m)
    det = det[inner]
    inv = np.zeros((m, m) + det.shape)
    for i in range(m):
        for j in range(i, m):
            plan(np.divide, adj[i, j][inner], det, inv[i, j])
            if j > i:
                plan(np.copyto, inv[j, i], inv[i, j])
    return inv


def _hessian_trace(plan: _Plan, coef, hess: np.ndarray) -> np.ndarray:
    """Records h^2 coef^{ij} d_i d_j a, from the upper triangle of a symmetric
    coef and the undivided Hessian of a (``_stencil``): an entry above the
    diagonal counts twice, at a quarter of its weight."""
    m = hess.shape[0]
    out = plan(np.multiply, hess[0, 0], coef[0, 0], np.zeros(hess.shape[2:]))
    half, term = np.zeros(hess.shape[-m:]), np.zeros(out.shape)
    for i in range(m):
        for j in range(i, m):
            if i or j:
                c = coef[i, j] if i == j else plan(np.multiply, coef[i, j], 0.5, half)
                plan(np.add, out, plan(np.multiply, hess[i, j], c, term), out)
    return out


def _torus_hessian(plan: _Plan, hess: np.ndarray, h: float) -> np.ndarray:
    """Records the Hessian (n, m, m, grid) of u, symmetric in (m, m), from its
    ringed undivided differences (``_stencil``)."""
    m = hess.shape[0]
    inner = hess[_inner(m)]
    full = np.zeros(inner.shape[2:3] + (m, m) + inner.shape[3:])
    for i in range(m):
        plan(np.multiply, inner[i, i], h**-2, full[:, i, i])
        for j in range(i + 1, m):
            plan(np.multiply, inner[i, j], 0.25 * h**-2, full[:, i, j])
            plan(np.copyto, full[:, j, i], full[:, i, j])
    return full


def _torus_geometry(plan: _Plan, df: np.ndarray, hess: np.ndarray, adj, det: np.ndarray,
                    h: float) -> TorusGeometry:
    """Records df, eta^{-1} and the Hessian of the map on the grid, from what
    one stage leaves (its field's ``stencil``: the ringed df and undivided
    Hessian of u, and the cofactors of eta), into arrays of the plan's own."""
    m = df.shape[1]
    inner = df[_inner(m)]
    grid_df = np.zeros(inner.shape)
    plan(np.copyto, grid_df, inner)
    return TorusGeometry(grid_df, _torus_eta_inv(plan, adj, det, m), _torus_hessian(plan, hess, h))


def torus_rhs(st: TorusFlowState) -> np.ndarray:
    """u_t of a state: one stage of a field of its own."""
    return _torus_field(st)(st.u, st.t)


def torus_cfl_dt(st: TorusFlowState) -> float:
    """Explicit-step limit: eta^{-1} <= 1 so the diffusion scale is h^2/(2m)."""
    return CFL * st.h**2 / (2.0 * st.m)


def _torus_field(st: TorusFlowState):
    """Right-hand side (u, t) -> u_t = c_ij d_i d_j u / (d h^2) of the run ``st``
    starts, c / d = eta^{-1} by ``_torus_cofactors``, over whole ringed arrays,
    a buffered field (``_buffered``).  Built once per run as one ``_Plan``
    that ends in the division into the field's u_t: a stage replays the plan
    on what the interior of the ring holds and allocates nothing.  The
    field's ``stencil`` (df, undivided Hessian, c, d) is what it wrote last,
    valid until its next stage."""
    plan, h, inner = _Plan(), st.h, _inner(st.m)
    ring = _ringed(st.u.shape[:1], st.u.shape[1:])
    grad, hess = _stencil(plan, ring, st.m)
    df = _torus_df(plan, grad, st.lin, h)
    adj, det = _torus_cofactors(plan, df)
    num = _hessian_trace(plan, adj, hess)[inner]
    scale = plan(np.multiply, det, h * h, np.zeros(det.shape))[inner]
    u_t = plan(np.divide, num, scale, np.zeros(st.u.shape))
    field = _buffered(lambda t: plan.run(), ring[inner], u_t)
    field.stencil = df, hess, adj, det
    return field


def _torus_record(st: TorusFlowState, field):
    """Row function (u, t, f) -> row of the run ``st`` starts, called right after
    ``field`` gave f = u_t at (u, t).  Built once per run: the row's state
    takes its geometry from the stencil that call left, by a plan into arrays
    of the run's rows, and its residual replays a plan that reads them."""
    plan = _Plan()
    geometry = _torus_geometry(plan, *field.stencil, st.h)
    residual = _torus_residual(geometry, st.h)

    def record(u, t, f):
        plan.run()
        now = TorusFlowState(st.m, st.n, st.period, st.lin, u, t)
        vars(now)["geometry"] = geometry  # primes the cached_property
        return (*torus_monitor(now), torus_evolution_residual(now, f, residual), 1.0, 1.0)

    return record


def torus_step(st: TorusFlowState, dt: float) -> TorusFlowState:
    """One RKC2 step of size dt, stages from the CFL bound."""
    u = _rkc_single(st.u, st.t, dt, torus_cfl_dt(st), _torus_field(st))
    return TorusFlowState(st.m, st.n, st.period, st.lin, u, st.t + dt)


def torus_lambdas(st: TorusFlowState) -> np.ndarray:
    """Descending singular values per grid point, shape (points, m): the square
    roots of the eigenvalues of g = df^T df."""
    pts = st.geometry.df.reshape(st.n, st.m, -1).transpose(2, 0, 1)
    w = np.linalg.eigvalsh(np.einsum("pai,paj->pij", pts, pts))[:, ::-1]
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


def _torus_sigma(plan: _Plan, inv: np.ndarray) -> np.ndarray:
    """Records tr_eta S = 2 tr(eta^{-1}) - m, the scalar whose evolution is checked."""
    sigma = plan(_einsum, "ii...->...", inv, np.zeros(inv.shape[2:]))
    plan(np.multiply, sigma, 2.0, sigma)
    return plan(np.subtract, sigma, inv.shape[0], sigma)


def _square(plan: _Plan, a: np.ndarray) -> np.ndarray:
    """Records the pointwise matrix square of a (k, k, grid...) field."""
    return plan(_einsum, "ij...,jk...->ik...", a, a, np.zeros(a.shape))


def _torus_term_one(plan: _Plan, g: TorusGeometry) -> np.ndarray:
    """Records sum_i term_I at every grid point: 2 (S_ii + S_aa) |A[a,i,l]|^2
    summed, from the geometry g of a state.

    In the adapted graph frame <A(e_i, e_l), nu_a> = hess[b,k,q] e_i^k e_l^q
    nu_a^b (the Christoffel part of A is tangential, so the normals annihilate
    it), and every frame sum is a matrix function of df:
    sum_l e_l e_l^T = eta^{-1}, sum_i S_ii e_i e_i^T = 2 eta^{-2} - eta^{-1},
    sum_a nu_a nu_a^T = Z = zeta^{-1} = I - df eta^{-1} df^T (zeta = I + df df^T,
    by Woodbury) and sum_a S_aa nu_a nu_a^T = 2 Z^2 - Z.  The zero singular
    values of a non-square df (S = 1) come out right on both sides.  With
    G_b = eta^{-1} hess_b, T_ab = tr(G_b G_a) and U_ab = tr(eta^{-1} G_b G_a)
    the sum is 4 sum_ab [Z_ab U_ab + (Z^2 - Z)_ab T_ab].
    """
    n, grid = g.df.shape[0], g.df.shape[2:]
    pair = (n, n) + grid
    z = plan(_einsum, "ai...,ij...,bj...->ab...", g.df, g.inv, g.df, np.zeros(pair))
    plan(np.negative, z, z)
    for a in range(n):
        plan(np.add, z[a, a], 1.0, z[a, a])
    gb = plan(_einsum, "ij...,bjk...->bik...", g.inv, g.hess, np.zeros(g.hess.shape))
    k = plan(_einsum, "ij...,bjk...->bik...", g.inv, gb, np.zeros(g.hess.shape))
    t = plan(_einsum, "bij...,aji...->ab...", gb, gb, np.zeros(pair))
    u = plan(_einsum, "bij...,aji...->ab...", k, gb, np.zeros(pair))
    zz = _square(plan, z)
    plan(np.subtract, zz, z, zz)
    term = plan(_einsum, "ab...,ab...->...", z, u, np.zeros(grid))
    plan(np.add, term, plan(_einsum, "ab...,ab...->...", zz, t, np.zeros(grid)), term)
    return plan(np.multiply, term, 4.0, term)


def _torus_residual(g: TorusGeometry, h: float):
    """f -> ``torus_evolution_residual`` of a state with geometry g and
    u_t = f: a plan over arrays of its own, which reads g in place."""
    n, m, grid = g.df.shape[0], g.df.shape[1], g.df.shape[2:]
    plan, inner = _Plan(), _inner(m)
    ring, sigma_ring = _ringed((n,), grid), _ringed((), grid)
    df_t = _stencil(plan, ring, m, hess=False)[0][inner]  # 2h d(f), axis indices leading
    inv_df = plan(_einsum, "ij...,aj...->ia...", _square(plan, g.inv), g.df,
                  np.zeros(df_t.shape))
    res = plan(_einsum, "ia...,ia...->...", df_t, inv_df, np.zeros(grid))
    plan(np.multiply, res, -2.0 / h, res)
    plan(np.copyto, sigma_ring[inner], _torus_sigma(plan, g.inv))
    lap = _hessian_trace(plan, g.inv, _stencil(plan, sigma_ring, m, grad=False)[1][inner])
    plan(np.multiply, lap, h**-2, lap)
    plan(np.subtract, res, lap, res)
    plan(np.subtract, res, _torus_term_one(plan, g), res)
    plan(np.abs, res, res)
    f_in = ring[inner]

    def residual(f):
        np.copyto(f_in, f)
        plan.run()
        return float(res.max())

    return residual


def torus_evolution_residual(st: TorusFlowState, f=None, residual=None) -> float:
    """Max-norm defect of the scalar evolution identity on one state.

    d_t sigma - eta^{ij} d_i d_j sigma - sum_i term_I with sigma = tr_eta S,
    evaluated on the integrated (reparametrized) solution, where the
    reparametrizing drift combines with the rough Laplacian into the plain
    eta^{ij} second-difference form.  The time derivative comes from the
    right-hand side f = ``torus_rhs`` (a run passes the one its march already
    has; a fresh state's is the one its geometry's stage returned) by the
    chain rule: d_t sigma = 2 tr d_t eta^{-1} = -2 tr(eta^{-1} d_t eta eta^{-1}),
    d_t eta = d(f)^T df + df^T d(f), with d(f) the stencil gradient of f.
    ``residual`` is ``_torus_residual`` of the state's geometry, which a
    run's rows build once; without it one is built here.
    """
    residual = residual or _torus_residual(st.geometry, st.h)
    return residual(st._stage[1] if f is None else f)


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


def _pole_ghosts(rho: np.ndarray, boundary_class: int):
    """The nodes beyond the two poles, by odd reflection (class pi: odd about pi)."""
    return -rho[1], (2.0 * math.pi - rho[-2]) if boundary_class else -rho[-2]


def _rho_derivatives(rho: np.ndarray, boundary_class: int, h: float):
    """Centered rho' and rho'' on all nodes; the poles read the ghost nodes of
    ``_pole_ghosts``.  The field and the monitor take their differences from
    slices of rho; this is the reference path of the tests."""
    left, right = _pole_ghosts(rho, boundary_class)
    ext = np.concatenate([[left], rho, [right]])
    dp = (ext[2:] - ext[:-2]) / (2.0 * h)
    ddp = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / h**2
    return dp, ddp


def _eq_rhs(work):
    """rho_t of the profile in the node buffer of ``_eq_field``, written into
    the interior of its output; the poles of the output stay zero.

    ``work`` is what the field owns, built once: the views rho, rho ahead and
    rho back (the interior nodes and their +1 and -1 shifts) of its node
    buffer, the view D2 of its output's interior, the constants
    sin th cos th / (2h) and sin^2 th of the interior nodes, the four radii
    scalars r_N^2 / 4, r_M^2 h^2, (r_N / r_M)^2 and (m-1) / r_M^2 of the
    stage (0-d arrays), and five work arrays of the interior, overwritten
    here.  The differences stay undivided, D1 = 2h rho' and D2 = h^2 rho'',
    and the scales they drop are folded into the constants and the radii
    scalars:

        rho_t = D2 / (r_M^2 h^2 + r_N^2 D1^2 / 4)
              + (m-1) / r_M^2 (sin th cos th D1 / (2h) - sin rho cos rho)
                              / (sin^2 th + (r_N / r_M)^2 sin^2 rho).

    Nineteen numpy calls, no allocation.
    """
    rho, ahead, back, d2, sc_2h, sin2_th, quarter_n2, m2_h2, ratio2, k_m2, \
        d1, sr, cr, diff, rot = work
    np.subtract(ahead, back, d1)
    np.add(rho, rho, d2)
    np.subtract(ahead, d2, d2)
    d2 += back
    np.sin(rho, sr)
    np.cos(rho, cr)
    np.multiply(d1, d1, diff)
    diff *= quarter_n2
    diff += m2_h2
    d2 /= diff  # the diffusion term
    cr *= sr
    np.multiply(sr, sr, rot)
    rot *= ratio2
    rot += sin2_th
    d1 *= sc_2h
    d1 -= cr
    d1 /= rot
    d1 *= k_m2  # the rotation term
    d2 += d1


def _eq_field(m: int, nodes: int, radii):
    """Right-hand side (y, t) -> rho_t on ``nodes`` nodes, zero at the pinned
    poles, a buffered field (``_buffered``).  ``radii`` is the pair
    (r_M, r_N) of a fixed background or a function t -> (r_M, r_N); the
    interior differences are views of the node buffer, so the poles need no
    ghosts.

    The field owns the work of ``_eq_rhs`` and builds it once: the constants,
    its node buffer and output, the views of them a stage reads and writes,
    the radii scalars and the five work arrays of the interior (D1, sin rho,
    cos rho, the diffusion and the rotation coefficients).  Fixed radii set
    the scalars once; a function of t sets them at every stage.  A stage
    allocates nothing, so a field is not reentrant.  It looks up ``_eq_rhs``
    at each stage.  The field's ``cfl_dt(y, t)`` is the explicit step
    CFL / rate the state allows, from the same theta trig, and its
    ``sin_theta`` is the sin theta of the interior nodes it reads, for a
    row's state to share."""
    h = math.pi / (nodes - 1)
    th = np.linspace(0.0, math.pi, nodes)[1:-1]
    sin_th = np.sin(th)
    sin2_th, sincos_th = sin_th**2, sin_th * np.cos(th)
    y, y_t = np.zeros(nodes), np.zeros(nodes)
    # 0-d arrays: a ufunc reads one without converting a Python float
    scalars = tuple(np.zeros(()) for _ in range(4))
    work = (y[1:-1], y[2:], y[:-2], y_t[1:-1], sincos_th / (2.0 * h), sin2_th, *scalars,
            *(np.empty(nodes - 2) for _ in range(5)))

    def hold(r_m, r_n):
        quarter_n2, m2_h2, ratio2, k_m2 = scalars
        quarter_n2[()] = 0.25 * r_n * r_n
        m2_h2[()] = r_m * r_m * (h * h)
        ratio2[()] = (r_n / r_m) ** 2
        k_m2[()] = (m - 1) / (r_m * r_m)

    if callable(radii):
        at = radii

        def stage(t):
            hold(*radii(t))
            _eq_rhs(work)
    else:
        hold(*radii)
        at, stage = (lambda t: radii), (lambda t: _eq_rhs(work))

    def cfl_dt(y, t):
        r_m, r_n = at(t)
        dp = (y[2:] - y[:-2]) / (2.0 * h)
        diff = r_m**2 + r_n**2 * dp**2
        denom = r_m**2 * sin2_th + r_n**2 * np.sin(y[1:-1]) ** 2
        # diffusion 1 / diff and drift (m-1) sin th cos th / denom
        rate = 2.0 / diff.min() / h**2 + abs((m - 1) * sincos_th / denom).max() / h
        return CFL / rate

    field = _buffered(stage, y, y_t)
    field.cfl_dt, field.sin_theta = cfl_dt, sin_th
    return field


def equivariant_rhs(st: EquivariantFlowState, r_m: float, r_n: float) -> np.ndarray:
    """Right-hand side of the reduced flow; pinned poles contribute zero."""
    return _eq_field(st.m, st.rho.size, (r_m, r_n))(st.rho, st.t)


def equivariant_dt(st: EquivariantFlowState, r_m: float, r_n: float) -> float:
    """CFL-limited step from the diffusion and drift coefficients."""
    return _eq_field(st.m, st.rho.size, (r_m, r_n)).cfl_dt(st.rho, st.t)


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
    allows, CFL / rate, where 2 rate bounds the spectrum of the discrete
    operator (eta^{-1} <= I on the torus, Gershgorin on the sphere), so CFL is
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
    stage times c (j = 0..s, c[s] = 1) of s-stage RKC2.  The four weights
    come as 0-d arrays, which a ufunc reads without converting a Python
    float (about 0.4 us a call on 127 nodes); the times as floats."""
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
    return (*(tuple(map(np.array, x)) for x in (mu, nu, mut, gam)), tuple(c))


def _buffered(stage, y_in: np.ndarray, y_t: np.ndarray):
    """The field (y, t) -> y_t of a buffered stage, a copy: it copies y into
    ``y_in`` and returns a copy of what ``stage(t)`` writes into ``y_t``.
    ``_rkc_step`` drives the stage through the field's ``stage``, ``y_in``
    and ``y_t`` without either copy."""

    def field(y, t):
        np.copyto(y_in, y)
        stage(t)
        return y_t.copy()

    field.stage, field.y_in, field.y_t = stage, y_in, y_t
    return field


def _rkc_step(y: np.ndarray, t: float, dt: float, s: int, field, y_t=None) -> np.ndarray:
    """One s-stage RKC2 step of a whole array by a buffered ``field``
    (``_buffered``): ``field.stage(t)`` reads ``field.y_in`` and writes y_t,
    zero on pinned entries, into ``field.y_t``, which the step may overwrite.
    ``y_t``, if given, is field(y, t) already evaluated; it is not written.

    The recursion runs on the increments d_j = Y_j - y (d_0 = 0) and adds y
    once at the end, so a stationary state does not drift by rounding.  The
    step allocates f0 = dt y_t, three rotating increments and a gam f0
    scratch; a stage writes y + d_{j-1} straight into ``field.y_in`` and
    allocates nothing.  Each stage sums mu d_{j-1} + nu d_{j-2} + mut f +
    gam f0 left to right, scaling d_{j-2} and the stage's f in place.
    """
    mu, nu, mut, gam, c = _rkc_coefficients(s)
    stage, y_in, f = field.stage, field.y_in, field.y_t
    if y_t is None:
        np.copyto(y_in, y)
        stage(t)
        y_t = f
    step = np.array(dt)  # 0-d, like the weights
    f0 = np.multiply(step, y_t)
    d = np.multiply(mut[1], f0)
    d_prev, d_new, g = np.empty_like(d), np.empty_like(d), np.empty_like(d)
    for j in range(2, s + 1):
        np.add(y, d, y_in)
        stage(t + c[j - 1] * dt)
        f *= step
        np.multiply(mu[j], d, d_new)
        if j > 2:  # nu d_0 = 0 adds nothing, to the bit
            d_prev *= nu[j]
            d_new += d_prev
        f *= mut[j]
        d_new += f
        d_new += np.multiply(gam[j], f0, g)
        d_prev, d, d_new = d, d_new, d_prev
    return y + d


def _rkc_single(y: np.ndarray, t: float, dt: float, dt_cfl: float, field) -> np.ndarray:
    """One RKC2 step of size dt with the fewest stages the CFL step allows."""
    s = _rkc_stages(dt, dt_cfl, MAX_STEPS)
    if s is None:
        raise ValueError(f"step {dt} needs more than {MAX_STEPS} stages")
    return _rkc_step(y, t, dt, s, field)


def equivariant_step(st: EquivariantFlowState, dt: float, r_of_t) -> EquivariantFlowState:
    """One RKC2 step of size dt, stages from the CFL bound; ``r_of_t`` maps
    time to the radius pair (r_M, r_N)."""
    field = _eq_field(st.m, st.rho.size, r_of_t)
    rho = _rkc_single(st.rho, st.t, dt, field.cfl_dt(st.rho, st.t), field)
    return EquivariantFlowState(st.m, st.n, rho, st.boundary_class, st.t + dt)


def equivariant_lambdas(st: EquivariantFlowState, r_m: float, r_n: float):
    """(lambda_radial, lambda_spherical) at every node.

    The radial stretch is (r_N/r_M)|rho'|, with centered slopes that read
    the ``_pole_ghosts`` at the poles.  The m-1 spherical stretches equal
    r_N sin(rho) / (r_M sin(theta)) with the pole values filled by the limit
    rho'(pole) * cos(rho(pole)) (L'Hopital).
    """
    rho = st.rho
    left, right = _pole_ghosts(rho, st.boundary_class)
    dp = np.empty_like(rho)
    dp[1:-1] = rho[2:] - rho[:-2]
    dp[0], dp[-1] = rho[1] - left, right - rho[-2]
    dp /= 2.0 * st.h
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


def _integral(x) -> int:
    """x as an int if it is an integral number in the float range; a bool or a
    string is not."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Integral)
                                   or isinstance(x, float) and x.is_integer()):
        raise ValueError(f"winding entries must be integers, got {x!r}")
    if abs(x) > sys.float_info.max:  # compared exactly, not converted
        raise ValueError("winding entries must lie in the float range")
    return int(x)


@dataclass
class FlowConfig:
    """Configuration of one flow experiment (deterministic; no clock state)."""

    case: str
    m: int = 2
    n: int = 2
    grid: int = 0  # 0: per-case default (torus 64 per axis, equivariant 512)
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
        try:  # an integer matrix: int() would truncate 0.5 to 0
            self.winding = tuple(tuple(map(_integral, row)) for row in self.winding)
        except TypeError:
            raise ValueError(f"winding needs integer rows, got {self.winding!r}") from None
        presets = TORUS_PRESETS if self.case == "torus" else EQUIVARIANT_PRESETS
        if self.preset not in presets:
            raise ValueError(f"unknown preset {self.preset!r} for {self.case}")
        for name in ("period", "radius_m", "radius_n"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("background_m", "background_n"):
            if getattr(self, name) not in ("static", "ricci"):
                raise ValueError(f"{name} must be 'static' or 'ricci', "
                                 f"got {getattr(self, name)!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if self.m < 2:
            raise ValueError(f"{self.case} flows need m >= 2, got m={self.m}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got n={self.n}")
        if self.case == "equivariant" and self.m > self.n:
            raise ValueError("equivariant flows (the suspension ansatz) need m <= n, "
                             f"got m={self.m}, n={self.n}")
        if self.case == "equivariant":  # the spheres a run builds (``_paths``)
            for name, dim in (("radius_m", "m"), ("radius_n", "n")):
                try:
                    ModelSpace("sphere", getattr(self, dim), scale=getattr(self, name))
                except ValueError as err:
                    raise ValueError(f"{name} {getattr(self, name)} and {dim} give no "
                                     f"sphere: {err}") from None
        if self.winding and (len(self.winding) != self.n
                             or any(len(row) != self.m for row in self.winding)):
            raise ValueError(f"winding must be an n x m matrix, {self.n} x {self.m}, "
                             f"got {[list(r) for r in self.winding]}")
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
        if self.case == "torus" and not math.isfinite((h := self.period / self.grid) * h):
            raise ValueError(f"period {self.period} over grid {self.grid}: h^2 overflows")
        if self.case == "equivariant" and self.grid + 1 > MAX_ENTRIES:
            raise ValueError(f"grid {self.grid} gives more than {MAX_ENTRIES} nodes, the cap")
        # grid + 2 >= 5, so an exponent past 32 alone passes the cap
        if self.case == "torus" and (self.m**2 * self.n * (self.grid + 2) ** min(self.m, 32)
                                     > MAX_ENTRIES):
            raise ValueError(f"grid {self.grid}, m {self.m} and n {self.n} give a Hessian of "
                             f"m * m * n * (grid + 2)^m entries, more than {MAX_ENTRIES}, "
                             "the cap")

    @staticmethod
    def from_dict(d: dict) -> "FlowConfig":
        keys = {f for f in FlowConfig.__dataclass_fields__}
        unknown = set(d) - keys
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return FlowConfig(**d)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["winding"] = [list(r) for r in self.winding]
        return d


def _torus_initial(cfg: FlowConfig) -> TorusFlowState:
    m, n, big = cfg.m, cfg.n, cfg.grid
    x = np.arange(big) * (cfg.period / big)
    mesh = np.meshgrid(*([x] * m), indexing="ij")
    q = 2.0 * math.pi / cfg.period
    u = np.zeros((n,) + (big,) * m)
    amp = cfg.amplitude
    if cfg.preset in ("sine", "linear_sine"):
        u[0] = amp * np.sin(q * mesh[0]) * np.cos(q * mesh[1])
        if n >= 2:
            u[1] = amp * np.sin(q * mesh[1])
    if cfg.winding:
        lin = np.asarray(cfg.winding, dtype=float)
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
                       t_end: float) -> float:
    """Explicit monotonicity rate for shrinking-background runs.

    Evaluates the curvature-bound aggregate at the worst time of the run
    (curvature 1/r^2 scaled by 1/(1-Lt), metric speed = Einstein constant of
    the evolving metric), times the sweeps' starting constant ``C0``.
    """
    f_m, f_n = pm.metric_factor(t_end), pn.metric_factor(t_end)
    k_m = 1.0 / (cfg.radius_m**2 * f_m)
    k_n = 1.0 / (cfg.radius_n**2 * f_n)
    dt_m = pm.einstein_rate / f_m
    dt_n = pn.einstein_rate / f_n
    return C0 * (k_m + k_n + dt_m + dt_n) * (cfg.m + cfg.n)


def run(cfg: FlowConfig) -> FlowSeries:
    """Integrate a configured flow and collect its monitor series.  A map that
    overflows ends the run at a guard (a NaN det eta, or at m >= 4 an infinite
    one; a NaN or too large stretch), with its reason; NumPy's floating-point
    warnings on the way there are silenced, which changes no number."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _run_torus(cfg) if cfg.case == "torus" else _run_equivariant(cfg)


def _march(series: FlowSeries, y: np.ndarray, rhs, cfl_dt, record,
           records: int) -> FlowSeries:
    """Integrate y from 0 to the series' ``t_end`` by RKC2 and append
    ``records`` + 1 rows.

    Each record interval of length gap is split into ceil(gap / h) equal steps
    (time error O(h^2), like space); each step takes its stages from
    ``cfl_dt(y, t)``, the explicit step the state allows.  At each row time
    the right-hand side f = rhs(y, t) is evaluated once: ``record(y, t, f)``
    gives the row's values after its time, and the next step takes f as its
    first stage.  Every row, the first included, aborts the run at a stretch
    past ``LAMBDA_ABORT`` or NaN.  Stage evaluations count against ``MAX_STEPS``.
    """
    t_end, h = series.meta["t_end"], series.meta["h"]
    per_record = max(1, math.ceil(t_end / records / h))
    n_steps = records * per_record
    step = t_end / n_steps
    dt = cfl_dt(y, 0.0)
    if _rkc_stages(step, dt, MAX_STEPS // n_steps) is None:
        raise ValueError(f"{series.meta['case']} run of {n_steps} steps needs more than "
                         f"{MAX_STEPS} right-hand-side evaluations, the cap; lower t_end")

    def row(y, t):
        f = rhs(y, t)
        values = record(y, t, f)
        series.append(t, *values)
        lam = values[1]
        if not lam <= LAMBDA_ABORT:  # a NaN stretch too, as "lambda_max nan"
            raise FlowAbort(f"lambda_max {lam:{'.2f' if lam < 1e6 else '.3e'}} beyond guard")
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
    dt = torus_cfl_dt(st)  # eta^{-1} <= I: the same bound at every state
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
    # r sqrt(1.0) = r: a static run's field takes its radii once
    static = pm.mode == pn.mode == "static"
    field = _eq_field(st.m, st.rho.size, (cfg.radius_m, cfg.radius_n) if static else radii)

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
