"""Algebra of curvature-type tensors in an orthonormal frame.

Everything here works on frame components: a curvature tensor is a 4-index
array R[i,j,k,l] with the symmetries of a Riemann tensor, and the sectional
curvature of the plane spanned by an orthonormal pair (e_i, e_j) is
R[i,j,j,i] (positive on round spheres).

In dim <= 4 the sectional range is read off the curvature operator on
2-vectors: below dim 4 every unit 2-vector is a plane, so its extreme
eigenvalues are the extremes; in dim 4 the planes are the unit 2-vectors w
with w ^ w = 0, and the minimum is the exact dual max_mu lambda_min(R + mu *)
(Thorpe 1969; Finsler's lemma), the maximum its mirror.  Each extreme is the
sectional curvature of a witness plane that the dual bound certifies.

The other extremal quantities over non-coordinate frames (the partial Ricci
minimum over 3-frames, the isotropic-curvature shift chi_ic1), and the
sectional range in dim >= 5 or when a witness is not certified, are
computed by multi-start frame optimization: random orthonormal starts from
Gram-Schmidt on Gaussian matrices, then Riemannian gradient descent on the
Stiefel manifold with the Gram-Schmidt (positive-diagonal QR) retraction,
whose backtracking line search tries a ladder of halved steps per start in
two batched calls and takes each start's first sufficient decrease, the step
that halving one trial at a time would accept.  A start whose whole ladder
fails drops out, and a run stops once its best value has stalled over 10
descent steps.  Every objective is a table of sums of terms R(x_a, x_b,
x_c, x_d), one column tuple per term, evaluated by one batched kernel on the
(dim^2, dim^2) matrix of the tensor; its analytic Euclidean gradient comes
from partials R(., p, q, r) of the same kernel, which the symmetries of R
derive from the tuples.  The optimizer requires that gradient
(``gradient=``) and projects it onto the tangent space of the frame.
Results are deterministic under a fixed seed and exact in practice on the
homogeneous model spaces this library targets.  Every optimizer run of
the extremes takes ``_STARTS`` random starts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .fanout import fan_out

ALG_TOL = 1e-12  # tolerance for exact algebraic identities


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymBilinear:
    """Symmetric 2-tensor in frame components (a metric, or g - h pullback)."""

    comp: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.comp, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("SymBilinear needs a square 2-index array")
        if not np.isfinite(a).all():
            raise ValueError("SymBilinear components must be finite")
        if not np.allclose(a, a.T, atol=ALG_TOL * max(1.0, abs(a).max())):
            raise ValueError("SymBilinear components are not symmetric")
        object.__setattr__(self, "comp", 0.5 * (a + a.T))

    @property
    def dim(self) -> int:
        return self.comp.shape[0]

    def is_metric(self) -> bool:
        return bool(np.linalg.eigvalsh(self.comp).min() > 0)

    @staticmethod
    def identity(dim: int) -> "SymBilinear":
        return SymBilinear(np.eye(dim))


@dataclass(frozen=True)
class CurvatureTensor:
    """Frame components of an algebraic curvature tensor.

    Invariants (checked on construction): antisymmetry in the first and last
    index pairs, pair symmetry R[ijkl] = R[klij], and the first Bianchi
    identity R[ijkl] + R[jkil] + R[kijl] = 0.
    """

    comp: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.comp, dtype=float)
        if a.ndim != 4 or len(set(a.shape)) != 1:
            raise ValueError("CurvatureTensor needs a 4-index hypercubic array")
        if a.shape[0] < 2:
            raise ValueError("CurvatureTensor needs dim >= 2")
        if not np.isfinite(a).all():
            raise ValueError("CurvatureTensor components must be finite")
        scale = max(1.0, abs(a).max())
        tol = 1e-12 * scale
        if abs(a + a.transpose(1, 0, 2, 3)).max() > tol:
            raise ValueError("not antisymmetric in the first index pair")
        if abs(a + a.transpose(0, 1, 3, 2)).max() > tol:
            raise ValueError("not antisymmetric in the last index pair")
        if abs(a - a.transpose(2, 3, 0, 1)).max() > tol:
            raise ValueError("pair symmetry R[ijkl] = R[klij] fails")
        bianchi = a + a.transpose(1, 2, 0, 3) + a.transpose(2, 0, 1, 3)
        if abs(bianchi).max() > tol:
            raise ValueError("first Bianchi identity fails")
        object.__setattr__(self, "comp", a)

    @property
    def dim(self) -> int:
        return self.comp.shape[0]

    @staticmethod
    def zero(dim: int) -> "CurvatureTensor":
        return CurvatureTensor(np.zeros((dim,) * 4))


@dataclass(frozen=True)
class CurvatureBounds:
    """Aggregated curvature extremes of a space.

    kappa/tau bound the sectional curvature, ric_* the Ricci eigenvalues,
    scal_* the scalar curvature, ric3_min the minimum over orthonormal
    triples {u,v,w} of K(u,v)+K(u,w), and chi_ic1 the largest constant-
    curvature shift keeping the tensor weakly inside the PIC1 cone.  For
    dim <= 3 the chi_ic1 slot carries the minimal Ricci eigenvalue instead
    (the low-dimensional convention for isotropic-curvature positivity).
    """

    dim: int
    kappa: float
    tau: float
    ric_min: float
    ric_max: float
    scal_min: float
    scal_max: float
    ric3_min: float
    chi_ic1: float
    einstein_const: float | None = None

    def __post_init__(self):
        for f in fields(self)[1:]:
            v = getattr(self, f.name)
            # einstein_const is None off Einstein spaces; ric3_min is nan on surfaces
            undefined = ((f.name == "einstein_const" and v is None)
                         or (f.name == "ric3_min" and self.dim < 3 and np.isnan(v)))
            if not (undefined or np.isfinite(v)):
                raise ValueError(f"{f.name} must be finite, got {v}")
        if self.kappa > self.tau + 1e-12:
            raise ValueError("kappa must not exceed tau")
        if self.ric_min > self.ric_max + 1e-12:
            raise ValueError("ric_min must not exceed ric_max")
        if self.scal_min > self.scal_max + 1e-12:
            raise ValueError("scal_min must not exceed scal_max")
        if self.dim >= 3 and self.ric3_min < 2.0 * self.kappa - 1e-9 * max(1.0, abs(self.kappa)):
            raise ValueError("ric3_min below 2*kappa is inconsistent")
        e = self.einstein_const
        if e is not None and any(abs(e - r) > 1e-12 * max(abs(e), abs(r))
                                 for r in (self.ric_min, self.ric_max)):
            raise ValueError(f"einstein_const {e} needs Ric = einstein_const g, so "
                             f"ric_min = ric_max = {e}; got {self.ric_min}, {self.ric_max}")

    def scaled(self, factor: float) -> "CurvatureBounds":
        """Bounds after scaling the metric by 1/factor (curvature x factor)."""
        return replace(self, **{k: v * factor for k, v in self.to_dict().items() if k != "dim"})

    def to_dict(self) -> dict:
        """Every field but an undefined Einstein constant."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def kulkarni_nomizu(s: SymBilinear, t: SymBilinear) -> CurvatureTensor:
    """Kulkarni-Nomizu product of two symmetric 2-tensors.

    (S o T)(X,Y,Z,W) = S(X,W)T(Y,Z) + S(Y,Z)T(X,W)
                       - S(X,Z)T(Y,W) - S(Y,W)T(X,Z)

    For a metric g, (g o g)(X,Y,Y,X) is twice the squared area of the
    parallelogram spanned by X, Y; so (1/2) g o g is the unit-curvature
    tensor.
    """
    if s.dim != t.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {t.dim}")
    grid = np.ix_(*[np.arange(s.dim)] * 4)
    return CurvatureTensor(kulkarni_nomizu_comp(s.comp, t.comp, *grid))


def kulkarni_nomizu_comp(a: np.ndarray, b: np.ndarray, i, j, k, l) -> np.ndarray:
    """(a o b)[..., i, j, k, l] at broadcast index arrays; leading axes
    broadcast, and the full index grid gives the dense product."""
    return (a[..., i, l] * b[..., j, k] + a[..., j, k] * b[..., i, l]
            - a[..., i, k] * b[..., j, l] - a[..., j, l] * b[..., i, k])


def constant_curvature_tensor(dim: int, c: float) -> CurvatureTensor:
    """c times (1/2) g o g for the identity metric: sectional curvature c."""
    g = SymBilinear.identity(dim)
    return CurvatureTensor(0.5 * c * kulkarni_nomizu(g, g).comp)


def sectional(r: CurvatureTensor, i: int, j: int) -> float:
    """Sectional curvature of the coordinate plane (e_i, e_j), i != j."""
    if i == j:
        raise ValueError("sectional curvature needs two distinct directions")
    return float(r.comp[i, j, j, i])


def ricci_matrix(r: CurvatureTensor) -> np.ndarray:
    """Ricci tensor as a symmetric matrix: Ric[i,j] = sum_k R[i,k,k,j]."""
    return np.einsum("ikkj->ij", r.comp)


def product_curvature(rg: CurvatureTensor, rh: CurvatureTensor) -> CurvatureTensor:
    """Curvature of a Riemannian product: pure blocks, vanishing mixed terms."""
    m, n = rg.dim, rh.dim
    comp = np.zeros((m + n,) * 4)
    comp[:m, :m, :m, :m] = rg.comp
    comp[m:, m:, m:, m:] = rh.comp
    return CurvatureTensor(comp)


def pic1_defect(r: CurvatureTensor, frame4: np.ndarray, mu: float) -> float:
    """Isotropic-curvature combination on an orthonormal 4-frame.

    Returns R_1331 + mu^2 R_1441 + R_2332 + mu^2 R_2442 - 2 mu R_1234 with
    components taken in the given frame (rows of ``frame4``).  Positivity of
    this quantity for every frame and mu in [0,1] places the tensor strictly
    inside the PIC1 cone.
    """
    f = np.asarray(frame4, dtype=float)
    if r.dim < 4:
        raise ValueError("pic1_defect needs dim >= 4")
    if f.shape != (4, r.dim):
        raise ValueError("frame4 must be a (4, dim) array of row vectors")
    if not abs(f @ f.T - np.eye(4)).max() <= 1e-10:
        raise ValueError("frame4 is not orthonormal (tol 1e-10)")
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    p, q, rr = _PIC1.values(_pair_matrix(r.comp), f.T[None])
    return float(p[0] + mu**2 * q[0] - 2 * mu * rr[0])


# ---------------------------------------------------------------------------
# contraction kernel and frame objectives
# ---------------------------------------------------------------------------
# Frames are column frames x of shape (B, dim, k).  An objective is a table
# of curvature terms R(x_a, x_b, x_c, x_d) of the frame's columns; ``_Terms``
# evaluates every table through the two kernels below.


def _pair_matrix(comp: np.ndarray) -> np.ndarray:
    """The tensor as a (dim^2, dim^2) matrix M[(ij), (kl)] = R[i,j,k,l]."""
    d = comp.shape[0]
    return comp.reshape(d * d, d * d)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched a (x) b of (..., dim) vectors, flattened to (..., dim^2)."""
    return (a[..., :, None] * b[..., None, :]).reshape(*a.shape[:-1], -1)


def _contract(m, a, b, c, d):
    """R(a, b, c, d) = rowsum(((a (x) b) @ M) * (c (x) d)), batched over (..., dim)."""
    return ((_outer(a, b) @ m) * _outer(c, d)).sum(axis=-1)


def _partial(m, b, c, d):
    """The covector R(., b, c, d), batched over (..., dim).

    By the symmetries of R, the derivative of a term R(a, b, c, d) in each
    of its slots is +-R(., ., ., .) of the other three vectors (``_Terms``).
    """
    dim = b.shape[-1]
    t = (_outer(c, d) @ m.T).reshape(*b.shape[:-1], dim, dim)
    return (t @ b[..., :, None])[..., 0]


class _Terms:
    """Sums of curvature terms R(x_a, x_b, x_c, x_d) of a frame's columns.

    Each sum is a list of column tuples (a, b, c, d), one per term; ``values``
    contracts every term of every sum in one kernel call, and ``gradient``
    takes every partial R(., p, q, r) of the terms in one kernel call.
    """

    # The derivative of R(a, b, c, d) in slot 1 is R(., b, c, d), in slot 2
    # -R(., a, c, d), in slot 3 R(., d, a, b) and in slot 4 -R(., c, a, b):
    # (slot, sign, slots of the three vectors).  A partial is stored with
    # q <= r, its sign changed where they swap (R is antisymmetric in its last
    # pair); equal (column, sum, partial) entries merge and those that cancel
    # drop, so a sectional term R(a, b, b, a) costs two partials.
    _SLOTS = ((0, 1, (1, 2, 3)), (1, -1, (0, 2, 3)), (2, 1, (3, 0, 1)), (3, -1, (2, 0, 1)))

    def __init__(self, *sums):
        terms = [t for s in sums for t in s]
        k = 1 + max(max(t) for t in terms)
        self._terms = np.array(terms).T  # (4, terms)
        self._starts = np.cumsum([0] + [len(s) for s in sums[:-1]])
        coef = {}
        for i, s in enumerate(sums):
            for t in s:
                for slot, sign, rest in self._SLOTS:
                    p, q, r = (t[j] for j in rest)
                    key = (t[slot], i, p, min(q, r), max(q, r))
                    coef[key] = coef.get(key, 0) + (sign if q < r else -sign)
        keys = [key for key, c in coef.items() if c]
        self._coef = np.array([coef[key] for key in keys], dtype=float)
        self._sum = np.array([key[1] for key in keys])
        self._partials = np.array([key[2:] for key in keys]).T  # (3, partials)
        self._cols = np.eye(k)[[key[0] for key in keys]]  # (partials, k)

    def values(self, m, x):
        """The sums at frames x of shape (B, dim, k), shaped (sums, B)."""
        v = _contract(m, *np.moveaxis(x, -1, 0)[self._terms])
        return np.add.reduceat(v, self._starts)

    def value(self, m, x):
        """The total of the sums at frames x."""
        return self.values(m, x).sum(axis=0)

    def gradient(self, m, x, weights=None):
        """Euclidean gradient in x of the sums weighted by ``weights``, shaped
        like x; ``weights`` is shaped like ``values`` (None: every sum weighs 1).
        """
        coef = self._coef[:, None]
        if weights is not None:
            coef = coef * np.asarray(weights)[self._sum]
        g = _partial(m, *np.moveaxis(x, -1, 0)[self._partials]) * coef[..., None]
        return np.tensordot(g, self._cols, axes=(0, 0))


_SECTIONAL = _Terms([(0, 1, 1, 0)])  # K(x_1, x_2)
_RIC3 = _Terms([(0, 1, 1, 0), (0, 2, 2, 0)])  # K(u, v) + K(u, w) for x = (u, v, w)
# the PIC1 defect p + q mu^2 - 2 r mu on x = (f1..f4): p = K13 + K23,
# q = K14 + K24, r = R_1234
_PIC1 = _Terms([(0, 2, 2, 0), (1, 2, 2, 1)], [(0, 3, 3, 0), (1, 3, 3, 1)], [(0, 1, 2, 3)])


def _pic1_ratio(m, x):
    """min over mu in [0,1] of defect / (2(1+mu^2)), and the minimising mu.

    For fixed frame the defect is p + q mu^2 - 2 r mu; the normalized ratio
    has interior critical points at the roots of r mu^2 + (q-p) mu - r = 0.
    """
    p, q, r = _PIC1.values(m, x)

    def ratio(mu):
        return (p + q * mu**2 - 2.0 * r * mu) / (2.0 * (1.0 + mu**2))

    mu_best = np.zeros_like(p)
    best = ratio(mu_best)
    candidates = [np.ones_like(p)]
    disc = np.sqrt((q - p) ** 2 + 4.0 * r**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (+1.0, -1.0):
            mu = (-(q - p) + sign * disc) / (2.0 * r)
            candidates.append(np.where((r != 0) & (mu > 0.0) & (mu < 1.0), mu, 0.0))
    for mu in candidates:
        val = ratio(mu)
        take = val < best
        best = np.where(take, val, best)
        mu_best = np.where(take, mu, mu_best)
    return best, mu_best


def _pic1_ratio_grad(m, x, mu):
    """Gradient of the ratio in the frame, taken at the minimising mu.

    The minimum over mu in the fixed interval [0,1] is differentiated at its
    minimiser (Danskin): (dp + mu^2 dq - 2 mu dr) / (2(1+mu^2)).  ``mu`` is
    the minimiser ``_pic1_ratio`` returned at the same frames.
    """
    return _PIC1.gradient(m, x, np.array([np.ones_like(mu), mu**2, -2.0 * mu])
                          / (2.0 * (1.0 + mu**2)))


# ---------------------------------------------------------------------------
# frame optimization
# ---------------------------------------------------------------------------


def _qr_frames(mats: np.ndarray) -> np.ndarray:
    """Orthonormalize a batch of full-rank (dim, k) matrices by Gram-Schmidt.

    Each column loses its projections onto the earlier unit columns, then is
    normalized: the Q of the unique QR factorization with a positive diagonal
    in R, which varies continuously with the matrix.  Every frame the
    optimizer retracts has full rank: Gaussian starts, orthonormal structured
    frames, and trial frames X - tZ, whose Gram matrix is I + t^2 Z^T Z
    because X^T Z is skew.
    """
    q = np.moveaxis(np.asarray(mats, dtype=float), -1, 0).copy()  # (k, ..., dim)
    for j, v in enumerate(q):
        for u in q[:j]:
            v -= np.einsum("...i,...i->...", u, v)[..., None] * u
        v /= np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]
    return np.moveaxis(q, 0, -1)


def _stiefel_gradient(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Riemannian gradient G - X sym(X^T G) of the Stiefel manifold.

    Projection of the Euclidean gradient onto the tangent space at the
    column-orthonormal frames x (embedded metric; Edelman, Arias & Smith
    1998): X^T times the result is skew.
    """
    xtg = np.swapaxes(x, -1, -2) @ g
    return g - x @ (0.5 * (xtg + np.swapaxes(xtg, -1, -2)))


# Descent steps per run at most, and the relative decrease a trial step must
# make (also the stall threshold below).
_MAX_ITER = 120
_TOL = 1e-13
# Halving rungs per objective call: a start that improved last step grew its
# step 1.5x, so one halving returns below its last accepted step and rungs 0-1
# serve almost every improving start; rungs 2-24 run only for the rest.
_LADDER = (2, 23)
# A run stops once its best value has moved by at most ``_TOL`` (relative) over
# this many descent steps: starts stuck in worse local minima may still be
# improving, but no longer on the best value.
_STALL = 10
# Random starts of a frame optimizer run, the number every extreme uses.
_STARTS = 64


def minimize_over_frames(
    objective,
    dim: int,
    k: int,
    *,
    gradient,
    n_starts: int = _STARTS,
    seed: int = 0,
    structured=None,
):
    """Minimize a batched objective over orthonormal k-frames in dim space.

    ``objective`` maps a (B, dim, k) batch of column-orthonormal frames to a
    (B,) array, and the required ``gradient`` maps the same batch to the
    objective's Euclidean gradient in the matrix entries, shaped (B, dim, k).
    An objective may instead return a pair (values, aux), aux with a leading
    B axis: what it found at each frame and its gradient needs again (chi_ic1's
    minimising mu).  Each start's aux is then kept with its value, and the
    gradient is called as ``gradient(frames, aux)``.
    Descent runs all random starts in lockstep: the gradient projected onto
    the Stiefel tangent space (one batched gradient call), then a backtracking
    line search on a halving ladder.  Each start's trial steps lr, lr/2, ...
    (25 rungs) are stacked, retracted by Gram-Schmidt and evaluated as one
    batch, in two calls: rungs 0-1 for every start, rungs 2-24 only for
    starts still without a sufficient decrease.  A start takes its first
    passing rung, which is the step sequential halving would accept, with the
    same step values; a start whose whole ladder fails has converged and
    drops out of the batch.  The run ends when every start has dropped out,
    after ``_MAX_ITER`` descent steps, or once the best value over all starts
    has moved by at most ``_TOL * max(1, |best|)`` over the last ``_STALL``.
    ``structured`` frames are evaluated but not descended (they are exact
    candidates such as coordinate frames).  Deterministic under ``seed``;
    ties resolve to the lowest start index.

    Returns (best_value, best_frame with columns as the frame vectors).
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")

    def evaluate(frames):
        out = objective(frames)
        return out if isinstance(out, tuple) else (out, None)

    rng = np.random.default_rng(seed)
    x = _qr_frames(rng.standard_normal((n_starts, dim, k)))
    fx, aux = evaluate(x)
    best_struct = None
    if structured is not None and len(structured):
        s = _qr_frames(np.asarray(structured, dtype=float))
        fs, _ = evaluate(s)
        j = int(np.argmin(fs))
        best_struct = (float(fs[j]), s[j])

    lr = np.full(n_starts, 0.1)
    active = np.ones(n_starts, dtype=bool)
    best = [fx.min()]  # best value after each descent step

    for it in range(1, _MAX_ITER + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xa = x[idx]
        step = _stiefel_gradient(xa, gradient(xa) if aux is None else gradient(xa, aux[idx]))
        improved = np.zeros(idx.size, dtype=bool)
        lra = lr[idx].copy()
        for rungs in _LADDER:
            todo = np.flatnonzero(~improved)
            if todo.size == 0:
                break
            # row j: lra halved j times, one multiplication after another
            steps = np.cumprod(np.concatenate(
                [lra[todo][None], np.full((rungs - 1, todo.size), 0.5)]), axis=0)
            trial = _qr_frames(x[idx[todo]] - steps[:, :, None, None] * step[todo])
            ft, at = evaluate(trial.reshape(-1, dim, k))
            ft = ft.reshape(rungs, todo.size)
            ref = fx[idx[todo]]
            better = ft < ref - _TOL * np.maximum(1.0, np.abs(ref))
            ok = better.any(axis=0)
            rung = better.argmax(axis=0)[ok]  # first passing rung of each start
            hit = idx[todo[ok]]
            x[hit] = trial[rung, ok]
            fx[hit] = ft[rung, ok]
            if aux is not None:
                aux[hit] = at.reshape(rungs, todo.size, *at.shape[1:])[rung, ok]
            improved[todo[ok]] = True
            lra[todo[ok]] = steps[rung, ok]
            lra[todo[~ok]] = steps[-1, ~ok] * 0.5  # the next chunk's first rung
        lr[idx] = lra * 1.5
        active[idx] = improved
        best.append(fx.min())
        if it >= _STALL and best[-1 - _STALL] - best[-1] <= _TOL * max(1.0, abs(best[-1])):
            break
    i = int(np.argmin(fx))
    out = (float(fx[i]), x[i])
    if best_struct is not None and best_struct[0] <= out[0]:
        out = best_struct
    return out


def _axis_frames(dim: int, k: int, max_frames: int = 240) -> np.ndarray:
    """Coordinate-axis k-frames (ordered tuples of distinct axes) as starts."""
    from itertools import permutations

    eye = np.eye(dim)
    out = []
    for tup in permutations(range(dim), k):
        out.append(eye[:, list(tup)])
        if len(out) >= max_frames:
            break
    return np.array(out)


# ---------------------------------------------------------------------------
# sectional extremes from the curvature operator (dim <= 4)
# ---------------------------------------------------------------------------
# A unit 2-vector w in the basis e_i ^ e_j (i < j) is a plane x ^ y exactly
# when w^T * w = 0 (the Pluecker relation w ^ w = 0), * the Hodge star in dim 4
# and zero below it, and w^T Op w is then the sectional curvature K(x, y).  So
# lambda_min(Op + mu *) <= K on every plane, and by Finsler's lemma the
# maximum over mu is the minimum sectional curvature (Thorpe 1969; Bettiol &
# Mendes, arXiv:1708.09033).  lambda_min(Op + mu *) is concave in mu, with
# one-sided slopes the extreme eigenvalues of * on its eigenspace; its
# maximiser has |mu| <= lambda_max(Op) - lambda_min(Op), since lambda_min(Op
# + mu *) <= lambda_max(Op) - |mu| and it is lambda_min(Op) at mu = 0.

_DUAL_ITER = 100  # mu steps before the optimizer takes over
_TIE = 1e-14  # eigenvalues within this of lambda_min (relative) form its eigenspace
_FLAT = 1e-9  # slopes within this of 0 count as a maximum of the dual


def _wedge_index(dim: int) -> tuple:
    """Index arrays of R(e_i, e_j, e_l, e_k), pairs i < j by rows and k < l by columns."""
    iu, ju = np.triu_indices(dim, k=1)
    return iu[:, None], ju[:, None], ju, iu


def _curvature_operator(comp: np.ndarray) -> np.ndarray:
    """Op[..., (ij), (kl)] = R(e_i, e_j, e_l, e_k) over pairs i < j, k < l,
    for tensors on the last four axes of ``comp``."""
    return comp[(..., *_wedge_index(comp.shape[-1]))]


def _star(dim: int) -> np.ndarray:
    """The form w^T * w = 2(w01 w23 - w02 w13 + w03 w12) of w ^ w in dim 4;
    zero below dim 4, where every 2-vector is a plane."""
    star = np.zeros((dim * (dim - 1) // 2,) * 2)
    if dim == 4:
        star[[0, 5, 1, 4, 2, 3], [5, 0, 4, 1, 3, 2]] = [1, 1, -1, -1, 1, 1]
    return star


def _plane_minimum(comp: np.ndarray) -> float | None:
    """Minimum sectional curvature in dim <= 4 from the dual, or None.

    Maximizes lambda_min(Op + mu *) over mu by Newton steps on its slope
    v^T * v (v the eigenvector), safeguarded by a bisection bracket; where
    lambda_min is repeated the step bisects.  At the maximum the
    eigenspace holds a *-isotropic unit 2-vector, and the witness is the plane
    nearest it (its two leading singular vectors).  Returns the witness's
    sectional curvature if it is within ALG_TOL * max(1, |value|) of the dual
    bound lambda_min, else None.
    """
    dim = comp.shape[0]
    op, star = _curvature_operator(comp), _star(dim)
    w, v = np.linalg.eigh(op)
    lo, hi = -(w[-1] - w[0]), w[-1] - w[0]
    tie = _TIE * max(1.0, abs(w).max())
    mu = 0.0
    for _ in range(_DUAL_ITER):
        low = v[:, w <= w[0] + tie]
        s, c = np.linalg.eigh(low.T @ star @ low)  # slopes right (s[0]), left (s[-1])
        if s[0] <= _FLAT and s[-1] >= -_FLAT:
            break
        lo, hi = (mu, hi) if s[0] > 0.0 else (lo, mu)
        nxt = np.nan
        if low.shape[1] == 1:
            sv = v[:, 1:].T @ (star @ v[:, 0])
            bend = 2.0 * np.sum(sv**2 / (w[0] - w[1:]))  # d/dmu of the slope
            if bend < 0.0:
                nxt = mu - s[0] / bend
        mu = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        w, v = np.linalg.eigh(op + mu * star)
    else:
        return None
    if s[0] < 0.0 < s[-1]:  # a unit combination with w^T * w = 0
        span = s[-1] - s[0]
        coef = np.sqrt(s[-1] / span) * c[:, 0] + np.sqrt(-s[0] / span) * c[:, -1]
    else:
        coef = c[:, np.argmin(abs(s))]
    iu, ju = np.triu_indices(dim, k=1)
    bivector = np.zeros((dim, dim))
    bivector[iu, ju] = low @ coef
    plane = np.linalg.svd(bivector - bivector.T)[0][:, :2]
    value = float(_SECTIONAL.value(_pair_matrix(comp), plane[None])[0])
    return value if value - w[0] <= ALG_TOL * max(1.0, abs(value)) else None


def sectional_range(r: CurvatureTensor, *, seed: int = 0):
    """(min, max) sectional curvature over all 2-planes.

    In dim <= 4 each is the sectional curvature of a witness plane read off
    the curvature operator and certified by the dual bound
    (``_plane_minimum``).  In dim >= 5, or where a witness is not certified,
    it comes from frame optimization, and only there does ``seed`` matter.
    """
    structured = _axis_frames(r.dim, 2)

    def lowest(comp, seed):
        val = _plane_minimum(comp) if r.dim <= 4 else None
        if val is not None:
            return val
        m = _pair_matrix(comp)
        val, _ = minimize_over_frames(partial(_SECTIONAL.value, m), r.dim, 2,
                                      gradient=partial(_SECTIONAL.gradient, m),
                                      seed=seed, structured=structured)
        return val

    # the maximum of K is minus the minimum of K for the tensor -R
    return lowest(r.comp, seed), -lowest(-r.comp, seed + 1)


def ric3_min(r: CurvatureTensor, *, seed: int = 0) -> float:
    """Minimum over orthonormal triples {u,v,w} of K(u,v) + K(u,w).

    This is the smallest partial Ricci value over 3-dimensional subspaces:
    the quantity bounding the chi entries of the Ricci-flow-coupled
    conditions.  Always >= 2 * (sectional minimum); equality at constant
    curvature.  In dim 3, K(u,v) + K(u,w) = Ric(u,u) for every orthonormal
    triple, so it is the smallest Ricci eigenvalue; in dim >= 4 it comes
    from frame optimization, and only there does ``seed`` matter.
    """
    if r.dim < 3:
        raise ValueError("ric3_min needs dim >= 3")
    if r.dim == 3:
        return float(np.linalg.eigvalsh(ricci_matrix(r)).min())
    m = _pair_matrix(r.comp)
    val, _ = minimize_over_frames(partial(_RIC3.value, m), r.dim, 3,
                                  gradient=partial(_RIC3.gradient, m), seed=seed,
                                  structured=_axis_frames(r.dim, 3))
    return val


def chi_ic1(r: CurvatureTensor, *, seed: int = 0) -> float:
    """Largest s with R - s * (1/2) g o g weakly inside the PIC1 cone, for
    the components of R in an orthonormal frame.

    Because the defect is linear in the tensor and the defect of (1/2) g o g
    equals 2(1+mu^2) on every orthonormal frame, this supremum is the infimum
    over frames and mu of defect / (2(1+mu^2)); the infimum is estimated by
    multi-start Riemannian gradient descent with mu handled in closed form.

    dim 3 is refused: isotropic-curvature positivity degenerates to Ricci
    positivity there, and callers should compare the minimal Ricci eigenvalue
    instead (``bounds_of`` does this automatically).
    """
    if r.dim == 3:
        raise ValueError("chi_ic1 is undefined in dim 3; use the minimal Ricci "
                         "eigenvalue (Ricci-positivity convention)")
    if r.dim < 4:
        raise ValueError("chi_ic1 needs dim >= 4")
    m = _pair_matrix(r.comp)
    # axis frames plus their single-sign flips: catches Kaehler-type equality
    # frames such as (e1, Je1, e2, -Je2) on symmetric model spaces
    axes = _axis_frames(r.dim, 4, max_frames=120)
    flips = axes.copy()
    flips[:, :, 3] *= -1.0
    val, _ = minimize_over_frames(
        partial(_pic1_ratio, m), r.dim, 4, gradient=partial(_pic1_ratio_grad, m),
        seed=seed, structured=np.concatenate([axes, flips]),
    )
    return val


def _orthonormalize_tensor(r: CurvatureTensor, g: SymBilinear | None) -> np.ndarray:
    """Components of r in a g-orthonormal frame (no g: r's own)."""
    if g is None:
        return r.comp
    if g.dim != r.dim:
        raise ValueError("metric dimension mismatch")
    if not g.is_metric():
        raise ValueError("g must be positive definite")
    # columns of L^{-T} (g = L L^T) form a g-orthonormal frame
    basis = np.linalg.inv(np.linalg.cholesky(g.comp)).T
    return np.einsum("ijkl,ia,jb,kc,ld->abcd", r.comp, basis, basis, basis, basis,
                     optimize=True)


def bounds_of(r: CurvatureTensor, g: SymBilinear | None = None, *,
              seed: int = 0) -> CurvatureBounds:
    """Aggregate curvature extremes of a frame tensor.

    Ricci and scalar data are exact (eigenvalues of the contracted tensor),
    and so is ric3 in dim 3 (``ric3_min``).  In dim <= 4 the sectional
    extremes come from the curvature operator and its dual, certified to
    ALG_TOL (``sectional_range``); ric3 and chi extremes in dim >= 4, and
    the sectional ones in dim >= 5, come from seeded frame optimization and
    are reported to the accuracy the optimizer achieved.
    ``seed`` matters only to the optimizer runs.  In dim >= 4 the chi, ric3
    and sectional runs are independent and are shared with a forked child
    where a second core is free (``fanout.fan_out``), which changes no
    number.
    """
    comp = _orthonormalize_tensor(r, g)
    rr = CurvatureTensor(comp)
    ric_eigs = np.linalg.eigvalsh(ricci_matrix(rr))
    scal = float(ric_eigs.sum())
    if rr.dim >= 4:  # three independent runs, the largest first (``fan_out``)
        chi, r3, (kappa, tau) = fan_out([lambda: chi_ic1(rr, seed=seed + 3),
                                         lambda: ric3_min(rr, seed=seed + 2),
                                         lambda: sectional_range(rr, seed=seed)])
    else:
        kappa, tau = sectional_range(rr, seed=seed)
        r3 = ric3_min(rr, seed=seed + 2) if rr.dim == 3 else float("nan")
        chi = float(ric_eigs.min())  # low-dimensional Ricci convention
    return CurvatureBounds(
        dim=rr.dim,
        kappa=kappa,
        tau=tau,
        ric_min=float(ric_eigs.min()),
        ric_max=float(ric_eigs.max()),
        scal_min=scal,
        scal_max=scal,
        ric3_min=r3,
        chi_ic1=chi,
    )
