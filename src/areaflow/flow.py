"""Desk-scale time integration of the graphical flow in two reductions.

Both cases integrate the reparametrized (strictly parabolic) form of the
graph flow, in which the domain components stay the identity and the map
itself evolves:

* periodic flat tori: d/dt f^a = eta^{ij} d_i d_j f^a with
  eta = I + df^T df assembled pointwise (all background Christoffel terms
  vanish on flat factors).  One centered stencil over all components gives
  undivided differences on a periodic ring around the grid, each one
  contiguous pass; the scales 1/(2h) and 1/h^2 are applied where a result
  is read.  One function forms eta^{-1} = c / d for every m <= 4, c = adj eta
  and d = det eta by Laplace expansion, and a right-hand side is
  c_ij d_i d_j f^a / d.
  A run builds its stage once, as a plan: every array the stage writes,
  every view it reads or writes and the ordered list of its calls, the
  last of which divides into the field's u_t.  A stage replays the plan on
  what the interior of the ring holds and allocates nothing.  A row reads
  its state's geometry (df, eta^{-1}, the Hessian and the pullback metric g)
  from the stage the march evaluated at its time by a second plan of the
  run, and its residual replays a third; the monitor, tr_eta S, its eta^{ij}
  Laplacian and term I read that one copy.  A fresh state is evaluated by
  the field and row function of a run from it.  A run whose stages plan at
  least ``_TWO_SLABS`` units of work marches as two slabs of its first grid
  axis, one in a child process (``fanout.Pair``, where ``fanout.can_fork``
  allows one): each process replays its own plans over its slab, the two
  swap the edge rows a stencil reads at a barrier, and a row combines the
  slabs' exact minima and maxima (``_Slab``).  Every grid point passes
  through the same calls as on the whole grid, so the run gives the same
  bits either way; one that loses its child redoes the current step alone,
  from the state both slabs left in shared memory;

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
that input, and it works in arrays of the field's, so a step allocates at
most its new state.  Calling a
field, f(y, t), copies y in and y_t out.  The right-hand side the march
evaluates at a row's time serves the row and is the next step's first
stage.  ``MAX_STEPS`` caps the right-hand-side evaluations of a run: a run
planned beyond it is refused, one that outgrows it is aborted.  ``MAX_WORK``
caps a run's planned work, its stages and rows over its grid points, and a
run planned beyond it is refused before it starts (a torus before it builds
its stage, an equivariant run whose least plan, two stages a step, passes
either cap before it builds its profile and field).
``MAX_ENTRIES`` caps the size of a run's largest array, and a config past it
is refused.  Every row, the one at t = 0 included, aborts a run whose
largest stretch passes ``LAMBDA_ABORT`` or is NaN.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import fanout
from .evolution import C0
from .profile import area_monitor
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
# measured at most 20 arrays of that size (8 bytes an entry) for m = 2 to 4 and
# n = 1 to 6 on grids from 16, 8 and 4 (19.4 at m = 2, n = 1; 10.1 at m = 4).
MAX_ENTRIES = 2**22
# Most planned work of a run, in units of one stage's work on one grid point
# and one entry of its m x m metric: a run plans (stage evaluations + row
# stages x rows) x points x m^2 units, an equivariant node counting 1, not
# m^2.  A torus row counts 2m + 2 stages, the least offset above 2m that covers
# one row over one stage timed in process with OPENBLAS_NUM_THREADS=1 on a
# 2-core Xeon: 3.6-4.1 at m = 2 (grids 48 and 96), 5.7-7.5 at m = 3 (grids 16
# and 24) and 2.5-3.1 at m = 4 (grid 10).  An equivariant row counts
# ROW_STAGES.  Criterion 6's grid-128 torus plans 5.0e7 units.
MAX_WORK = 2**30
ROW_STAGES = 4


class FlowAbort(RuntimeError):
    """Raised when a run leaves the graphical regime it can control."""


# Why a det eta check aborts a run, the graver last: where slabs differ, the
# graver one is what the whole grid's minimum gives (a NaN anywhere is NaN)
_LOST = ("induced metric lost positive definiteness",
         "induced metric is NaN: the map left the float range")


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
    g: np.ndarray     # (m, m, grid...): the pullback metric df^T df


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


def _reuse(*dead: np.ndarray):
    """zeros(shape) that carves views, one after another, out of the
    contiguous ``dead`` arrays, and makes a new array where none has room
    left.  A plan passes arrays whose every reader it has recorded, to
    writers that fill each view whole before anything reads it; a view
    starts with what the dead array last held, not zeros."""
    free = [a.reshape(-1) for a in dead]

    def zeros(shape):
        size = math.prod(shape)
        for i, buf in enumerate(free):
            if buf.size >= size:
                free[i] = buf[size:]
                return buf[:size].reshape(shape)
        return np.zeros(shape)
    return zeros


@dataclass
class TorusFlowState:
    """Map between flat tori: f(x) = lin @ x + u(x), u periodic.

    ``lin`` is an integer winding matrix (the homotopy data, constant in
    time); ``u`` has shape (n, N, ..., N) with m grid axes of period
    ``period``.  Splitting off the linear part keeps every stored field
    periodic, so centered stencils never see the winding jump.

    A state is a value: ``u`` is read-only after construction, so on first
    use it builds the field and row function of a run from it once and
    evaluates one stage (``_stage``), whose geometry, u_t and residual every
    reader shares.
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
        return self._stage[0].geometry

    @cached_property
    def _stage(self):
        """The row function of a run from the state (``_torus_record``), with
        its geometry read from one stage of the run's field, and its u_t."""
        field = _torus_field(self)
        u_t = field(self.u, self.t)
        record = _torus_record(self, field)
        record.plans[0].run()
        return record, u_t


def _inner(m: int) -> tuple:
    """Index of the interior of an array ringed on its m trailing axes."""
    return (Ellipsis,) + (slice(1, -1),) * m


def _ringed(lead: tuple, grid: tuple) -> np.ndarray:
    """A zeroed lead + grid array, each grid axis one cell longer on either side."""
    return np.zeros(lead + tuple(s + 2 for s in grid))


def _edges(ring: np.ndarray, m: int) -> list:
    """Views of a ringed array (``_ringed``) across its first grid axis, over
    the interior of the others: its ring row, first and last interior rows
    and ring row at the far end."""
    rest = (slice(1, -1),) * (m - 1)
    return [ring[(Ellipsis, i) + rest] for i in (0, 1, -2, -1)]


def _periodic(rings, m: int):
    """A plan call that fills the ring rows of each ring's first grid axis
    periodically, from the interior row at the other end."""
    copies = []
    for ring in rings:
        top, first, last, bottom = _edges(ring, m)
        copies += [(top, last), (bottom, first)]

    def fill():
        for halo, edge in copies:
            np.copyto(halo, edge)
    return fill


def _stencil(plan: _Plan, ring: np.ndarray, m: int, grad=True, hess=True):
    """Records the undivided centered differences of what the interior of
    ``ring`` (``_ringed``) holds when the plan runs (the caller writes it)
    over its m trailing periodic axes, every leading component at once, axis
    indices leading: the gradient (m, lead, grid) holds 2h d_i a, and the
    Hessian (m, m, lead, grid) holds h^2 d_i^2 a on its diagonal and
    4h^2 d_i d_j a above it (i < j; nothing is written below it).  A part not
    asked for is None.

    Both come ringed like ``ring``, and only the interior (``_inner(m)``)
    holds differences.  The caller records the fill of the first axis's ring
    rows first (``_periodic``, or a slab's ``_Slab.halo``); this records the
    copy of one periodic cell on each side along every other axis, axis by
    axis, and each difference is then a shift of the ring's flat cells, one
    contiguous pass: the cells it writes outside the interior hold values of
    no meaning, the few it does not write stay zero.  Pointwise work on the
    results may run over whole ringed arrays and read the interior at the
    end.  The scales are left to the readers, which fold them into what they
    compute anyway.
    """
    lead, ringed = ring.shape[:-m], ring.shape[-m:]
    size = math.prod(ringed)
    shifts = []  # per axis the flat windows (on, ahead, back) of a difference along it
    for d in range(m):
        pre, rest = (Ellipsis,) + (slice(None),) * d, (slice(1, -1),) * (m - d - 1)
        if d:
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


def _torus_eta(plan: _Plan, df: np.ndarray, zeros) -> tuple:
    """Records the upper triangle of the induced metric eta = I + df^T df and
    the diagonal (m, grid) of the pullback metric g = df^T df, whose entries
    above it are eta's, from products of the stacked differential (the
    (m, n, grid) array ``_torus_df`` writes) into one buffer: the square of
    the whole stack for the diagonal, then per row i < m - 1 the product of
    df_i with the rows after it for the entries right of the diagonal.  Each
    entry sums its n products in component order, as a dot product over the
    components taken entry by entry does, to the bit; nothing is written
    below the diagonal.  ``zeros`` makes the buffer (``_reuse``, say)."""
    n, m, grid = df.shape[0], df.shape[1], df.shape[2:]
    stack, eta, g = df.swapaxes(0, 1), np.zeros((m, m) + grid), np.zeros((m,) + grid)
    products = plan(np.square, stack, zeros(stack.shape))

    def summed(out):
        """Records the sums over the components of the leading rows of
        ``products``, into ``out``."""
        k = out.shape[0]
        first = products[:k, 0]
        if n == 1:
            plan(np.copyto, out, first)
        for a in range(1, n):
            plan(np.add, first if a == 1 else out, products[:k, a], out)

    summed(g)
    plan(np.add, g, 1.0, _diagonal(eta))
    for i in range(m - 1):
        plan(np.multiply, stack[i], stack[i + 1:], products[:m - 1 - i])
        summed(eta[i, i + 1:])
    return eta, g


def _diagonal(a: np.ndarray) -> np.ndarray:
    """The (m, grid...) view of the diagonal of an (m, m, grid...) array."""
    m = a.shape[0]
    return a.reshape((m * m,) + a.shape[2:])[::m + 1]


def _torus_cofactors(plan: _Plan, df: np.ndarray, check, zeros):
    """Records the upper triangle of c = adj(eta) (indexed by (i, j)) and
    d = det eta, so eta^{-1} = c / d, over the whole ringed df, and ``check``
    (``_Slab.check``) of det eta on the interior; returns c, d and eta with
    the diagonal of the pullback metric (``_torus_eta``, its buffer from
    ``zeros``).  adj(eta)_ij = (-1)^(i+j) times the minor of eta without row
    j and column i, and det eta = sum_j eta_0j adj(eta)_j0.  A minor is
    expanded along its first row into the minors one size smaller, each
    recorded once, with eta's entry (r, c) read from its upper triangle; a
    signed sum starts from its positive terms, in order, and subtracts the
    negative ones, so a sign costs a call only in a negative 1 x 1 cofactor.
    A cofactor takes (m - 1)! products, which is why a torus has m <= 4
    (``FlowConfig``).
    """
    m, grid = df.shape[1], df.shape[2:]
    metric = _torus_eta(plan, df, zeros)
    eta, product = metric[0], np.zeros(grid)

    def e(r, c):
        return eta[min(r, c), max(r, c)]

    @lru_cache(maxsize=None)
    def minor(rows: tuple, cols: tuple, sign: int) -> np.ndarray:
        """Records sign times the minor of eta on ``rows`` and ``cols``."""
        if len(rows) == 1:
            entry = e(rows[0], cols[0])
            return entry if sign > 0 else plan(np.negative, entry, np.zeros(grid))
        terms = sorted(((sign * (-1) ** t, e(rows[0], c),
                         minor(rows[1:], cols[:t] + cols[t + 1:], 1)) for t, c in enumerate(cols)),
                       key=lambda term: term[0] < 0)
        out = plan(np.multiply, *terms[0][1:], np.zeros(grid))
        for s, a, b in terms[1:]:
            plan(np.add if s > 0 else np.subtract, out, plan(np.multiply, a, b, product), out)
        return out

    every = tuple(range(m))
    adj = {(i, j): minor(every[:j] + every[j + 1:], every[:i] + every[i + 1:], (-1) ** (i + j))
           for i in range(m) for j in range(i, m)}
    det = plan(np.multiply, eta[0, 0], adj[0, 0], np.zeros(grid))
    for j in range(1, m):
        plan(np.add, det, plan(np.multiply, eta[0, j], adj[0, j], product), det)
    plan(check, det[_inner(m)])
    return adj, det, metric


def _positive(det: np.ndarray) -> None:
    """Aborts unless det eta > 0 everywhere, a NaN (an overflowed map) included."""
    low = det.min()
    if not low > 0:
        raise FlowAbort(_LOST[math.isnan(low)])


def _torus_eta_inv(plan: _Plan, adj, det: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Records eta^{-1} = adj / det (``_torus_cofactors``) on the interior of
    the grid, into ``inv``."""
    m = inv.shape[0]
    inner = _inner(m)
    det = det[inner]
    for i in range(m):
        for j in range(i, m):
            plan(np.divide, adj[i, j][inner], det, inv[i, j])
            if j > i:
                plan(np.copyto, inv[j, i], inv[i, j])
    return inv


def _hessian_trace(plan: _Plan, coef, hess: np.ndarray, zeros) -> np.ndarray:
    """Records h^2 coef^{ij} d_i d_j a, from the upper triangle of a symmetric
    coef and the undivided Hessian of a (``_stencil``): an entry above the
    diagonal counts twice, at a quarter of its weight.  ``zeros`` makes the
    arrays (``_reuse``, say)."""
    m = hess.shape[0]
    out = plan(np.multiply, hess[0, 0], coef[0, 0], zeros(hess.shape[2:]))
    term, half = zeros(out.shape), zeros(hess.shape[-m:])
    for i in range(m):
        for j in range(i, m):
            if i or j:
                c = coef[i, j] if i == j else plan(np.multiply, coef[i, j], 0.5, half)
                plan(np.add, out, plan(np.multiply, hess[i, j], c, term), out)
    return out


def _torus_hessian(plan: _Plan, hess: np.ndarray, h: float, full: np.ndarray) -> np.ndarray:
    """Records the Hessian (n, m, m, grid) of u, symmetric in (m, m), from its
    ringed undivided differences (``_stencil``), into ``full``."""
    m = hess.shape[0]
    inner = hess[_inner(m)]
    for i in range(m):
        plan(np.multiply, inner[i, i], h**-2, full[:, i, i])
        for j in range(i + 1, m):
            plan(np.multiply, inner[i, j], 0.25 * h**-2, full[:, i, j])
            plan(np.copyto, full[:, j, i], full[:, i, j])
    return full


def _torus_geometry(plan: _Plan, df: np.ndarray, hess: np.ndarray, adj, det: np.ndarray,
                    metric: tuple, h: float, out: TorusGeometry) -> TorusGeometry:
    """Records df, eta^{-1}, the Hessian of the map and the pullback metric
    on the grid, from what one stage leaves (its field's ``stencil``: the
    ringed df and undivided Hessian of u, the cofactors of eta, and eta with
    the diagonal of g), into the arrays of ``out``."""
    m, inner = df.shape[1], _inner(df.shape[1])
    eta, diagonal = metric
    plan(np.copyto, out.df, df[inner])
    _torus_eta_inv(plan, adj, det, out.inv)
    _torus_hessian(plan, hess, h, out.hess)
    plan(np.copyto, _diagonal(out.g), diagonal[inner])
    for i in range(m - 1):
        plan(np.copyto, out.g[i, i + 1:], eta[i, i + 1:][inner])
        plan(np.copyto, out.g[i + 1:, i], out.g[i, i + 1:])
    return out


def torus_rhs(st: TorusFlowState) -> np.ndarray:
    """u_t of a state, a copy of the stage its geometry is read from."""
    return st._stage[1].copy()


def torus_cfl_dt(st: TorusFlowState) -> float:
    """Explicit-step limit: eta^{-1} <= 1 so the diffusion scale is h^2/(2m)."""
    return CFL * st.h**2 / (2.0 * st.m)


def _torus_field(st: TorusFlowState, slab=None):
    """Right-hand side (u, t) -> u_t = c_ij d_i d_j u / (d h^2) of the run ``st``
    starts, c / d = eta^{-1} by ``_torus_cofactors``, over whole ringed arrays,
    a buffered field (``_buffered``) of the rows of ``slab`` (``_Slab``; the
    whole grid if not given).  Built once per run as one ``_Plan`` that
    fills the ring rows of the slab's first grid axis and ends in the
    division into the field's u_t: a stage replays the plan on what the
    interior of the ring holds and allocates nothing.  The field's
    ``stencil`` (df, undivided Hessian, c, d, eta with the diagonal of g) is
    what it wrote last, valid until its next stage."""
    slab = _Slab(st) if slab is None else slab
    plan, h, inner = _Plan(), st.h, _inner(st.m)
    ring = _ringed(st.u.shape[:1], slab.grid)
    plan.append((slab.halo([ring], st.m), ()))
    grad, hess = _stencil(plan, ring, st.m)
    df = _torus_df(plan, grad, st.lin, h)
    # eta's products, then the Hessian trace's arrays, in one buffer
    spare = np.zeros(df.shape[1::-1] + df.shape[2:])
    adj, det, metric = _torus_cofactors(plan, df, slab.check, _reuse(spare))
    num = _hessian_trace(plan, adj, hess, _reuse(spare))[inner]
    scale = plan(np.multiply, det, h * h, np.zeros(det.shape))[inner]
    u_t = plan(np.divide, num, scale, np.zeros(st.u.shape[:1] + slab.grid))
    field = _buffered(lambda t: plan.run(), ring[inner], u_t, slab.settle)
    field.stencil = df, hess, adj, det, metric
    return field


def _torus_record(st: TorusFlowState, field, slab=None):
    """Row function (u, t, f) -> row of the run ``st`` starts, on the rows of
    ``slab`` (the whole grid if not given), called right after ``field`` gave
    f = u_t at (u, t) (``_march``).  Built once per run: the row's state
    takes its ``geometry`` from the stencil that call left, by a plan into
    arrays of the run's rows, and its ``residual`` replays a plan that reads
    them and f (both plans are the row function's ``plans``); the monitor and
    the residual of the slab combine with the other slab's (``_Slab.combine``)."""
    slab = _Slab(st) if slab is None else slab
    plan, n, m = _Plan(), st.n, st.m
    geometry = _torus_geometry(plan, *field.stencil, st.h, TorusGeometry(
        *(np.zeros(lead + slab.grid) for lead in ((n, m), (m, m), (n, m, m), (m, m)))))
    residual = _torus_residual(geometry, st.h, slab.halo)

    def record(u, t, f):
        plan.run()
        value = residual(f)  # its halo checks the stage, before the monitor reads it
        now = TorusFlowState(st.m, st.n, st.period, st.lin, u, t)  # the slab's rows
        vars(now)["geometry"] = geometry  # primes the cached_property
        return (*slab.combine((*torus_monitor(now), value)), 1.0, 1.0)

    record.plans, record.geometry, record.residual = (plan, residual.plan), geometry, residual
    return record


# Least work of one stage, in ``_schedule``'s units (points x m^2), at which a
# torus run marches as two slabs in two processes.  Below it the fork, the
# pages both processes then copy and a barrier per stage cost more than half a
# stage saves.  Run once in a fresh interpreter on a 2-core Xeon, as a
# benchmark round runs it (medians of 9 alternating repeats), a run took
# longer with two slabs at m = 2 grid 48 (9216 units; 60.1 against 50.6 ms) and
# m = 3 grid 10 (9000; 67.8 against 59.5 ms), and less at m = 2 grids 56
# (12544; 73.3 against 84.5 ms) and 64 (124.7 against 144.7 ms), m = 3 grid 12
# (15552; 57.0 against 77.4 ms) and m = 2 grid 96 (157 against 217 ms).  The
# second slab runs in a process, not a thread: a stage is a long series of
# short NumPy calls, and between them a thread holds the GIL, so threaded slabs
# were slower than one slab: on the same host a grid-96 run took 0.25-0.31 s
# with two threads, 0.13-0.15 s with the forked pair and 0.22-0.28 s alone.
_TWO_SLABS = 10**4


class _Restart(Exception):
    """Raised where a march is to redo its current step from ``args``: the
    state at the start of the step, the field and the row function."""


class _Slab:
    """The rows of a torus run's first grid axis one process marches, and its
    side of the barrier with the process that marches the others.

    With no ``pair`` one slab holds the whole grid: its plans fill their ring
    rows from the slab's own far edge (``_periodic``), a failed det eta check
    raises at once, and a step's end is the new state.  With two slabs, the
    parent marches the first grid // 2 rows and the child of ``pair`` (a
    ``fanout.Pair``) the rest, on the arrays ``_share`` made before the fork.
    Each ``swap`` is a barrier that sends this slab's status, 0 or 1 + the
    index in ``_LOST`` of the graver reason a det eta check failed for since
    the last one, and both slabs raise the graver reason of the two after
    it, as the whole grid would.  A plan's ``halo`` writes the slab's edge
    rows into its mailbox before a swap and reads the other's into its ring
    rows after it; mailboxes alternate with the parity of the swap, so no
    slab overwrites what the other may still read.  A row ``combine``s the
    slabs' monitors and residuals, exact minima and maxima.  A step ends by
    writing its state into the shared arrays, alternating with the parity
    of the step, and a swap (``settle``), so where the other process is
    gone (``swap`` has None) the state at the start of the current step is
    whole in them, and the run goes on alone from there (``_Restart``).
    """

    def __init__(self, st: TorusFlowState, pair=None, shared=None):
        self.st, self.pair, self.shared = st, pair, shared
        self.index = int(pair is not None and not pair.pid)  # the child's is 1
        rows = st.u.shape[1]
        first = rows // 2 if pair else rows  # the parent's rows
        self.grid = ((first, rows - first)[self.index],) + st.u.shape[2:]
        self.code = self.swaps = self.now = 0

    @property
    def y(self) -> np.ndarray:
        """The slab's state at the start of the run, a view (a row's state
        makes the view it holds read-only)."""
        return self.st.u if self.pair is None else self.shared[0][0][self.index][...]

    def check(self, det: np.ndarray) -> bool:
        """Whether det eta > 0 on the slab (``_positive``); a failure raises
        at once with one slab, and is held for the next ``swap`` with two."""
        try:
            _positive(det)
        except FlowAbort as err:
            if self.pair is None:
                raise
            self.code = max(self.code, 1 + _LOST.index(str(err)))
            return False
        return True

    def swap(self) -> None:
        other = self.pair.swap(self.code)
        self.swaps += 1
        if other is None:
            raise _Restart(*self.alone())
        if code := max(self.code, other):
            raise FlowAbort(_LOST[code - 1])

    def halo(self, rings, m: int):
        """A plan call that fills the ring rows of the first of the m grid axes
        of each of ``rings`` (``_ringed`` over the slab) from the other slab's
        edge rows (``_periodic`` with one slab)."""
        if self.pair is None:
            return _periodic(rings, m)
        edges = [_edges(ring, m) for ring in rings]
        sent = [e[1] for e in edges] + [e[2] for e in edges]  # first rows, then last
        filled = [e[3] for e in edges] + [e[0] for e in edges]  # from the other's
        boxes = [[self._box(parity, slab, sent) for slab in (0, 1)] for parity in (0, 1)]

        def fill():
            mine, theirs = boxes[self.swaps % 2][self.index], boxes[self.swaps % 2][1 - self.index]
            for box, edge in zip(mine, sent):
                np.copyto(box, edge)
            self.swap()
            for halo, box in zip(filled, theirs):
                np.copyto(halo, box)
        return fill

    def _box(self, parity: int, slab: int, like: list) -> list:
        """Views shaped like the arrays ``like``, one after another in the
        mailbox of ``slab`` at ``parity``."""
        box, views, start = self.shared[1][parity, slab], [], 0
        for a in like:
            views.append(box[start:start + a.size].reshape(a.shape))
            start += a.size
        return views

    def combine(self, parts: tuple) -> tuple:
        """(min, max, max, ...) of the slabs' ``parts``, each a (min, max,
        max, ...) of its own rows: NaN where either slab's is."""
        if self.pair is None:
            return parts
        both = self.shared[1][self.swaps % 2][:, :len(parts)]
        both[self.index] = parts
        self.swap()
        return float(both[:, 0].min()), *map(float, both[:, 1:].max(axis=0))

    def settle(self, y: np.ndarray, d: np.ndarray) -> np.ndarray:
        """y + d, the state a step ends in: with two slabs written into the
        shared arrays of the next step's parity before a ``swap``, which
        passes once both slabs have written theirs and checks the step's
        last stage."""
        if self.pair is None:
            return np.add(y, d)
        out = np.add(y, d, self.shared[0][1 - self.now][self.index])
        self.swap()
        self.now = 1 - self.now
        return out[...]

    def alone(self) -> tuple:
        """The state at the start of the current step, a field and a row
        function of the whole run with one slab."""
        u = np.concatenate(self.shared[0][self.now], axis=1)
        slab = _Slab(self.st)
        field = _torus_field(self.st, slab)
        return u, field, _torus_record(self.st, field, slab)


def _share(st: TorusFlowState) -> tuple:
    """The arrays two slabs of the run ``st`` starts share, made before the
    fork (``fanout.shared_zeros``): per parity the two slabs' states, the
    first holding ``st.u``, and per parity a mailbox per slab, room for the
    edge rows of a row's n + 1 rings."""
    n, rows, rest = st.n, st.u.shape[1], st.u.shape[2:]
    cut = rows // 2
    slabs = [(n, cut) + rest, (n, rows - cut) + rest]
    *states, mail = fanout.shared_zeros(*slabs, *slabs, (2, 2, 2 * (n + 1) * math.prod(rest)))
    np.copyto(states[0], st.u[:, :cut])
    np.copyto(states[1], st.u[:, cut:])
    return (states[:2], states[2:]), mail


def torus_step(st: TorusFlowState, dt: float) -> TorusFlowState:
    """One RKC2 step of size dt, stages from the CFL bound."""
    u = _rkc_single(st.u, st.t, dt, torus_cfl_dt(st), _torus_field(st))
    return TorusFlowState(st.m, st.n, st.period, st.lin, u, st.t + dt)


def torus_lambdas(st: TorusFlowState) -> np.ndarray:
    """Descending singular values per grid point, shape (points, m): the square
    roots of the eigenvalues of g = df^T df, and 0 past rank min(m, n), as
    ``SingularProfile`` holds them (eigvalsh leaves rounding there)."""
    g = st.geometry.g.reshape(st.m, st.m, -1).transpose(2, 0, 1)
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(g)[:, ::-1], 0.0, None))
    lam[:, min(st.m, st.n):] = 0.0
    return lam


def torus_monitor(st: TorusFlowState):
    """``area_monitor`` over the grid.  m = 2 reads the invariants of the
    geometry's g = df^T df, with det g taken from its entries, not as a
    difference of roots: S_1 + S_2 = 2 (1 - det g) / det eta with
    det eta = 1 + tr g + det g, lambda_max^2 the larger root of g and
    lambda_1 lambda_2 = sqrt(det g).  m >= 3 reads ``torus_lambdas``."""
    if st.m > 2:
        lam = torus_lambdas(st)
        return area_monitor(lam[:, 0], lam[:, 1])
    g = st.geometry.g
    g00, g11, g01 = g[0, 0], g[1, 1], g[0, 1]
    half_tr = np.add(g00, g11)
    half_tr *= 0.5
    top = np.subtract(g00, g11)
    top *= 0.5
    np.hypot(top, g01, out=top)
    top += half_tr
    lam_max = math.sqrt(max(float(top.max()), 0.0))
    det = np.multiply(g00, g11, out=top)
    det -= np.square(g01)
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


def _torus_pushed(plan: _Plan, g: TorusGeometry) -> tuple:
    """Records W = eta^{-1} df^T and eta^{-1} W = eta^{-2} df^T, (m, n, grid)
    each: term I reads W, the residual's time derivative V."""
    shape = g.df.shape[1::-1] + g.df.shape[2:]
    w = plan(_einsum, "ij...,aj...->ia...", g.inv, g.df, np.zeros(shape))
    return w, plan(_einsum, "ij...,ja...->ia...", g.inv, w, np.zeros(shape))


def _torus_term_one(plan: _Plan, g: TorusGeometry, w: np.ndarray, zeros) -> np.ndarray:
    """Records sum_i term_I at every grid point: 2 (S_ii + S_aa) |A[a,i,l]|^2
    summed, from the geometry g of a state and W = eta^{-1} df^T
    (``_torus_pushed``).

    In the adapted graph frame <A(e_i, e_l), nu_a> = hess[b,k,q] e_i^k e_l^q
    nu_a^b (the Christoffel part of A is tangential, so the normals annihilate
    it), and every frame sum is a matrix function of df:
    sum_l e_l e_l^T = eta^{-1}, sum_i S_ii e_i e_i^T = 2 eta^{-2} - eta^{-1},
    sum_a nu_a nu_a^T = Z = zeta^{-1} and sum_a S_aa nu_a nu_a^T = 2 Z^2 - Z,
    zeta = I + df df^T.  Pushing eta^{-1} through df (df eta^{-1} =
    zeta^{-1} df) gives Z = I - Q with Q = df W, so zeta is never formed, and
    Z^2 - Z = Q^2 - Q.  The zero singular values of a non-square df (S = 1)
    come out right on both sides.  With G_b = eta^{-1} hess_b,
    T_ab = tr(G_b G_a) and U_ab = tr(eta^{-1} G_b G_a) the sum is
    4 sum_ab [Z_ab U_ab + (Z^2 - Z)_ab T_ab].
    Q^2 - Q is taken from the same Q, not as -df eta^{-2} df^T: the two sums
    cancel down to O(|hess|^2 / lambda^4) where m > n, and only an error of Q
    that enters both of them cancels with them (-df eta^{-2} df^T was 2 to
    1000 times less accurate at cond(eta) 1e3 to 3e4, m > n the worst).  T
    and U share one buffer, each multiplied into its weights before the next
    is written, and Z overwrites Q; ``zeros`` makes the arrays (``_reuse``,
    say).
    """
    n, grid = g.df.shape[0], g.df.shape[2:]
    pair = (n, n) + grid
    gb = plan(_einsum, "ij...,bjk...->bik...", g.inv, g.hess, zeros(g.hess.shape))
    k = plan(_einsum, "ij...,bjk...->bik...", g.inv, gb, zeros(g.hess.shape))
    z = plan(_einsum, "ai...,ib...->ab...", g.df, w, zeros(pair))  # Q
    zz = plan(_einsum, "ab...,bc...->ac...", z, z, zeros(pair))
    plan(np.subtract, zz, z, zz)
    tu = zeros(pair)
    plan(_einsum, "bij...,aji...->ab...", gb, gb, tu)  # T
    plan(np.multiply, zz, tu, zz)
    plan(_einsum, "bij...,aji...->ab...", k, gb, tu)  # U
    plan(np.negative, z, z)
    plan(np.add, _diagonal(z), 1.0, _diagonal(z))  # Z = I - Q
    plan(np.multiply, z, tu, z)
    plan(np.add, zz, z, zz)
    term = plan(np.add.reduce, zz.reshape((n * n,) + grid), 0, None, zeros(grid))
    return plan(np.multiply, term, 4.0, term)


def _torus_residual(g: TorusGeometry, h: float, halo):
    """f -> ``torus_evolution_residual`` of a state with geometry g and
    u_t = f: a plan over arrays of its own, which reads g in place and copies
    f into a ring.  ``halo`` (a slab's ``_Slab.halo``) fills the ring rows
    of the first grid axis of f's ring and tr(eta^{-1})'s: the Laplacian of
    tr_eta S = 2 tr(eta^{-1}) - m, the scalar whose evolution is checked, is
    twice tr(eta^{-1})'s.  The Laplacian's arrays reuse the time
    derivative's once those are read, and term I's the time derivative's
    and the Hessian of tr(eta^{-1}) (``_reuse``).  The two ringed ones are
    read only on the interior, which their differences write at every
    replay, so what their other cells hold is never read."""
    n, m, grid = g.df.shape[0], g.df.shape[1], g.df.shape[2:]
    plan, inner = _Plan(), _inner(m)
    ring, trace_ring = _ringed((n,), grid), _ringed((), grid)
    trace = trace_ring[inner]
    for i in range(1, m):
        plan(np.add, g.inv[0, 0] if i == 1 else trace, g.inv[i, i], trace)
    plan.append((halo([ring, trace_ring], m), ()))
    grad = _stencil(plan, ring, m, hess=False)[0]  # 2h d(f), axis indices leading
    w, v = _torus_pushed(plan, g)
    res = plan(_einsum, "ia...,ia...->...", grad[inner], v, np.zeros(grid))
    plan(np.multiply, res, -2.0 / h, res)
    hess = _stencil(plan, trace_ring, m, grad=False)[1]
    lap = _hessian_trace(plan, g.inv, hess[inner], _reuse(grad, v))
    plan(np.multiply, lap, 2.0 / h**2, lap)
    plan(np.subtract, res, lap, res)
    plan(np.subtract, res, _torus_term_one(plan, g, w, _reuse(grad, v, hess)), res)
    plan(np.abs, res, res)
    f_in = ring[inner]

    def residual(f):
        np.copyto(f_in, f)
        plan.run()
        return float(res.max())

    residual.plan = plan
    return residual


def torus_evolution_residual(st: TorusFlowState) -> float:
    """Max-norm defect of the scalar evolution identity on one state.

    d_t sigma - eta^{ij} d_i d_j sigma - sum_i term_I with sigma = tr_eta S,
    evaluated on the integrated (reparametrized) solution, where the
    reparametrizing drift combines with the rough Laplacian into the plain
    eta^{ij} second-difference form.  The time derivative comes from the
    right-hand side f = ``torus_rhs`` (a run's rows take the one the march
    evaluated) by the chain rule: d_t sigma = 2 tr d_t eta^{-1} =
    -2 tr(eta^{-1} d_t eta eta^{-1}), d_t eta = d(f)^T df + df^T d(f), with
    d(f) the stencil gradient of f.  A fresh state replays the residual of
    the row function it built (``_stage``).
    """
    record, u_t = st._stage
    return record.residual(u_t)


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
    ``_pole_ghosts``.  The monitor reads this rho'; the field takes its
    differences from slices of its node buffer, with this as their reference."""
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


def _buffered(stage, y_in: np.ndarray, y_t: np.ndarray, settle=np.add):
    """The field (y, t) -> y_t of a buffered stage, a copy: it copies y into
    ``y_in`` and returns a copy of what ``stage(t)`` writes into ``y_t``.
    ``_rkc_step`` drives the stage through the field's ``stage``, ``y_in``
    and ``y_t`` without either copy, works in the field's five ``work``
    arrays shaped like y_t, and ends a step by ``settle(y, d)``, which gives
    y + d."""

    def field(y, t):
        np.copyto(y_in, y)
        stage(t)
        return y_t.copy()

    field.stage, field.y_in, field.y_t, field.settle = stage, y_in, y_t, settle
    field.work = tuple(np.zeros_like(y_t) for _ in range(5))
    return field


def _rkc_step(y: np.ndarray, t: float, dt: float, s: int, field, y_t=None) -> np.ndarray:
    """One s-stage RKC2 step of a whole array by a buffered ``field``
    (``_buffered``): ``field.stage(t)`` reads ``field.y_in`` and writes y_t,
    zero on pinned entries, into ``field.y_t``, which the step may overwrite.
    ``y_t``, if given, is field(y, t) already evaluated; it is not written.

    The recursion runs on the increments d_j = Y_j - y (d_0 = 0) and adds y
    once at the end (``field.settle``), so a stationary state does not drift
    by rounding.  f0 = dt y_t, three rotating increments and a gam f0
    scratch are the field's ``work``, so a step allocates at most the state
    it ends in (a torus's slab arrays, freed and made again at every step,
    would otherwise fault in fresh pages each time, about 60 a step at grid
    96); a stage writes y + d_{j-1} straight into ``field.y_in`` and
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
    f0, d, d_prev, d_new, g = field.work
    np.multiply(step, y_t, f0)
    np.multiply(mut[1], f0, d)
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
    return field.settle(y, d)


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

    The radial stretch is (r_N/r_M)|rho'|, with the centered slopes of
    ``_rho_derivatives``.  The m-1 spherical stretches equal
    r_N sin(rho) / (r_M sin(theta)) with the pole values filled by the limit
    rho'(pole) * cos(rho(pole)) (L'Hopital).
    """
    rho = st.rho
    dp, _ = _rho_derivatives(rho, st.boundary_class, st.h)
    lam_r = (r_n / r_m) * np.abs(dp)
    lam_s = np.empty_like(lam_r)
    i = slice(1, -1)
    lam_s[i] = r_n * np.abs(np.sin(rho[i])) / (r_m * st.sin_theta)
    lam_s[0] = (r_n / r_m) * abs(dp[0] * math.cos(st.rho[0]))
    lam_s[-1] = (r_n / r_m) * abs(dp[-1] * math.cos(st.rho[-1]))
    return lam_r, lam_s


def equivariant_monitor(st: EquivariantFlowState, r_m: float, r_n: float):
    """``area_monitor`` over the nodes."""
    lam_r, lam_s = equivariant_lambdas(st, r_m, r_n)
    top1 = np.maximum(lam_r, lam_s)
    # second-largest singular value: the spherical one has multiplicity m-1
    return area_monitor(top1, lam_s if st.m >= 3 else np.minimum(lam_r, lam_s))


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
        if self.case == "torus" and self.m > 4:  # (m - 1)! products a cofactor
            raise ValueError(f"torus flows need m <= 4, got m={self.m}")

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
    overflows ends the run at a guard (a NaN det eta; a NaN or too large
    stretch), with its reason; NumPy's floating-point warnings on the way
    there are silenced, which changes no number."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _run_torus(cfg) if cfg.case == "torus" else _run_equivariant(cfg)


def _schedule(case: str, t_end: float, h: float, records: int, dt: float | None, points: int,
              m: int | None = None):
    """(steps per record, steps, step, dt) of a run from 0 to t_end with
    ``records`` + 1 rows: each record interval of length gap is split into
    ceil(gap / h) equal steps (time error O(h^2), like space).  The plan takes
    every step at the stages of ``dt``, the explicit step the state at t = 0
    allows, on ``points`` grid points of m^2 work units (a torus of dim m) or
    1 (equivariant nodes); with ``dt`` None, at the 2 stages every step takes
    at least, so a run can be refused before its state is built.  A plan past
    ``MAX_STEPS`` right-hand-side evaluations, or past ``MAX_WORK`` units
    with a torus row as 2m + 2 stages and an equivariant one as ``ROW_STAGES``,
    is refused."""
    per_record = max(1, math.ceil(t_end / records / h))
    n_steps = records * per_record
    step = t_end / n_steps
    most = MAX_STEPS // n_steps
    s = (2 if most >= 2 else None) if dt is None else _rkc_stages(step, dt, most)
    if s is None:
        raise ValueError(f"{case} run of {n_steps} steps needs more than {MAX_STEPS} "
                         "right-hand-side evaluations, the cap; lower t_end")
    per_point, row_stages = (m * m, 2 * m + 2) if case == "torus" else (1, ROW_STAGES)
    work = (n_steps * s + (records + 1) * row_stages) * points * per_point
    if work > MAX_WORK:
        raise ValueError(f"{case} run plans {n_steps * s} evaluations and {records + 1} rows "
                         f"on {points} points, {work:.2e} units of work, more than "
                         f"{MAX_WORK}, the budget; lower t_end, grid, m or monitor_every")
    return per_record, n_steps, step, dt


def _march(series: FlowSeries, y: np.ndarray, rhs, cfl_dt, record, schedule) -> FlowSeries:
    """Integrate y from 0 to the series' ``t_end`` by RKC2 on the steps of
    ``schedule`` (``_schedule``) and append a row at t = 0 and after every
    record interval.

    Each step takes its stages from the explicit step the state allows: the
    first from the schedule's dt, every later one from ``cfl_dt(y, t)``.  At
    each row time the right-hand side f = rhs(y, t) is evaluated once:
    ``record(y, t, f)`` gives the row's values after its time, and the next
    step takes f as its first stage.  Every row, the first included, aborts
    the run at a stretch past ``LAMBDA_ABORT`` or NaN.  Stage evaluations
    count against ``MAX_STEPS``.  Where ``rhs`` or ``record`` raises
    ``_Restart`` (a torus run that lost its second process), the march takes
    the state, field and row function it carries and does the current step
    again, with its row if that was not appended yet.
    """
    per_record, n_steps, step, dt = schedule
    steps = evals = 0
    refreshes = 1
    try:
        while True:
            t = steps * step
            try:
                f = rhs(y, t) if steps % per_record == 0 else None
                if f is not None and len(series.times) == steps // per_record:
                    values = record(y, t, f)
                    series.append(t, *values)
                    lam = values[1]
                    if not lam <= LAMBDA_ABORT:  # a NaN stretch too, as "lambda_max nan"
                        raise FlowAbort(f"lambda_max {lam:{'.2f' if lam < 1e6 else '.3e'}} "
                                        "beyond guard")
                if steps == n_steps:
                    break
                if steps:
                    dt = cfl_dt(y, t)
                    refreshes = steps + 1
                s = _rkc_stages(step, dt, MAX_STEPS - evals)
                if s is None:
                    raise FlowAbort(f"step cap {MAX_STEPS} reached at t={t!r}")
                y = _rkc_step(y, t, step, s, rhs, f)
            except _Restart as restart:
                y, rhs, record = restart.args
                continue
            steps, evals = steps + 1, evals + s
    except FlowAbort as err:
        series.abort_reason = str(err)
    series.meta.update(steps=steps, rhs_evals=evals, dt_min=step if steps else None,
                       dt_max=step if steps else None, cfl_refreshes=refreshes)
    return series


def _run_torus(cfg: FlowConfig) -> FlowSeries:
    st = _torus_initial(cfg)
    dt = torus_cfl_dt(st)  # eta^{-1} <= I: the same bound at every state
    schedule = _schedule("torus", cfg.t_end, st.h, cfg.monitor_every or 120, dt,
                         st.u[0].size, st.m)  # before the run's arrays are made
    series = FlowSeries(meta={"case": "torus", "h": st.h, "t_end": cfg.t_end,
                              "config": cfg.to_dict(), "a_used": None})

    def march(series, pair=None, shared=None):
        slab = _Slab(st, pair, shared)
        field = _torus_field(st, slab)
        _march(series, slab.y, field, lambda u, t: dt, _torus_record(st, field, slab), schedule)

    if st.u[0].size * st.m**2 < _TWO_SLABS:
        march(series)
        return series
    shared = _share(st)
    # the child marches the second slab, to the same series, and leaves
    with fanout.Pair(lambda pair: march(FlowSeries(), pair, shared)) as pair:
        if pair.pid:
            march(series, pair, shared)
        else:  # no child: one slab
            march(series)
    return series


def _run_equivariant(cfg: FlowConfig) -> FlowSeries:
    pm, pn = _paths(cfg)
    t_cap = min(pm.t_max, pn.t_max)  # finite once a background shrinks
    t_end = cfg.t_end
    if cfg.t_end_frac_of_extinction is not None:
        t_end = cfg.t_end_frac_of_extinction * t_cap
    if t_end >= t_cap:
        raise ValueError(f"t_end {t_end} reaches background extinction {t_cap}")
    # the metric factors 1 - L t (``BackgroundPath.metric_factor``, 1.0 on a
    # static path, where L = 0) from the rates, read once: the radii are read
    # at every stage, at times inside the paths' range
    rate_m, rate_n = pm.einstein_rate, pn.einstein_rate

    def radii(t):
        return (cfg.radius_m * math.sqrt(1.0 - rate_m * t),
                cfg.radius_n * math.sqrt(1.0 - rate_n * t))

    records = cfg.monitor_every or 120
    # the least plan first, before the profile and the field are made
    _schedule("equivariant", t_end, math.pi / cfg.grid, records, None, cfg.grid - 1)
    st = _equivariant_initial(cfg)
    # r sqrt(1.0) = r: a static run's field takes its radii once
    static = pm.mode == pn.mode == "static"
    field = _eq_field(st.m, st.rho.size, (cfg.radius_m, cfg.radius_n) if static else radii)

    def record(rho, t, f):
        now = EquivariantFlowState(cfg.m, cfg.n, rho, st.boundary_class, t)
        vars(now)["sin_theta"] = field.sin_theta  # primes the cached_property
        return (*equivariant_monitor(now, *radii(t)), float(abs(f).max()),
                1.0 - rate_m * t, 1.0 - rate_n * t)

    series = FlowSeries(meta={
        "case": "equivariant", "h": st.h, "t_end": t_end,
        "config": cfg.to_dict(),
        "a_used": _coupling_constant(cfg, pm, pn, t_end) if math.isfinite(t_cap) else None,
    })
    schedule = _schedule("equivariant", t_end, st.h, records, field.cfl_dt(st.rho, 0.0),
                         st.rho.size - 2)
    _march(series, st.rho, field, field.cfl_dt, record, schedule)
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
