"""Closed-form homogeneous backgrounds and their exact shrinking homotheties.

A ModelSpace is one of:

    sphere    round sphere of radius ``scale``           sectional 1/scale^2
    fubini    complex projective space, ``scale`` = max holomorphic
              sectional curvature (scale 4: sectional range [1, 4])
    torus     flat torus, ``scale`` = side period        sectional 0
    constant  constant sectional curvature ``curvature`` (may be negative)
    custom    user-supplied CurvatureBounds only (no tensor)

Einstein backgrounds shrink self-similarly under the Ricci-type evolution
d/dt g = -Ric: with Ric(g0) = L g0 the metric is g(t) = (1 - L t) g0, alive
until t = 1/L, with sectional curvature scaled by 1/(1 - L t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import (
    CurvatureBounds,
    CurvatureTensor,
    SymBilinear,
    bounds_of,
    constant_curvature_tensor,
    kulkarni_nomizu,
)

KINDS = ("sphere", "fubini", "torus", "constant", "custom")


@dataclass(frozen=True)
class ModelSpace:
    kind: str
    dim: int
    scale: float = 1.0
    curvature: float | None = None
    bounds_override: CurvatureBounds | None = None
    einstein_const: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError("need dim >= 2")
        for name in ("scale", "curvature", "einstein_const"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.kind == "fubini" and (self.dim % 2 or self.dim < 2):
            raise ValueError("fubini needs even dim >= 2")
        if self.kind == "constant" and self.curvature is None:
            raise ValueError("constant-curvature space needs a curvature value")
        if self.kind == "custom" and self.bounds_override is None:
            raise ValueError("custom space needs bounds_override")
        if self.einstein_const is None:
            object.__setattr__(self, "einstein_const", self._auto_einstein())

    def _auto_einstein(self) -> float | None:
        if self.kind == "sphere":
            return (self.dim - 1) / self.scale**2
        if self.kind == "fubini":
            return (self.scale / 4.0) * (self.dim + 2)
        if self.kind == "torus":
            return 0.0
        if self.kind == "constant":
            return (self.dim - 1) * self.curvature
        return self.bounds_override.einstein_const

    def describe(self) -> dict:
        d = {"kind": self.kind, "dim": self.dim, "scale": self.scale}
        if self.curvature is not None:
            d["curvature"] = self.curvature
        if self.einstein_const is not None:
            d["einstein_const"] = self.einstein_const
        if self.bounds_override is not None:
            d["bounds"] = self.bounds_override.to_dict()
        return d


def curvature_at(space: ModelSpace):
    """Frame curvature tensor and metric of a homogeneous space.

    One tensor serves every point.  Custom spaces carry bounds only and have
    no tensor.
    """
    if space.kind == "custom":
        raise ValueError("custom spaces have bounds only, no curvature tensor")
    g = SymBilinear.identity(space.dim)
    if space.kind == "sphere":
        return constant_curvature_tensor(space.dim, 1.0 / space.scale**2), g
    if space.kind == "torus":
        return CurvatureTensor.zero(space.dim), g
    if space.kind == "constant":
        return constant_curvature_tensor(space.dim, space.curvature), g
    return _fubini_tensor(space.dim, space.scale), g


def _fubini_tensor(dim: int, scale: float) -> CurvatureTensor:
    """Constant-holomorphic-sectional-curvature Kaehler tensor.

    With c = scale the sectional curvature of a plane at angle theta to the
    complex structure is (c/4)(1 + 3 cos^2 theta), so values range over
    [c/4, c].  Components:

        R = (c/4) [ (1/2) g o g + w(.,.)w(.,.) terms ],  w(X,Y) = <JX, Y>.
    """
    q = dim // 2
    j = np.zeros((dim, dim))
    for k in range(q):
        j[2 * k + 1, 2 * k] = 1.0
        j[2 * k, 2 * k + 1] = -1.0
    om = j.T
    g = np.eye(dim)
    kn = 0.5 * kulkarni_nomizu(SymBilinear(g), SymBilinear(g)).comp
    wpart = (
        np.einsum("il,jk->ijkl", om, om)
        - np.einsum("ik,jl->ijkl", om, om)
        - 2.0 * np.einsum("ij,kl->ijkl", om, om)
    )
    return CurvatureTensor((scale / 4.0) * (kn + wpart))


_FUBINI_BOUNDS_CACHE: dict[tuple, CurvatureBounds] = {}


def _fubini_bounds(space: ModelSpace, seed: int, n_starts: int) -> CurvatureBounds:
    """Closed-form projective-space bounds, validated against the tensor.

    With c the maximal holomorphic sectional curvature: sectional in
    [c/4, c], Einstein constant (c/4)(dim+2), partial-Ricci minimum c/2,
    isotropic shift 0 (the weak boundary of the cone).  The formula is not
    trusted blindly: the first query per (dim, scale) runs the frame
    optimizer on the explicit tensor and requires agreement to 1e-6, then
    the exact closed-form values are served (audits compare slacks exactly).
    """
    c = space.scale
    d = space.dim
    ric = (c / 4.0) * (d + 2)
    closed = CurvatureBounds(
        dim=d, kappa=c / 4.0, tau=c, ric_min=ric, ric_max=ric,
        scal_min=d * ric, scal_max=d * ric, ric3_min=c / 2.0, chi_ic1=0.0,
        einstein_const=space.einstein_const,
    )
    r, g = curvature_at(space)
    measured = bounds_of(r, g, seed=seed, n_starts=n_starts,
                         einstein_const=space.einstein_const)
    for name in ("kappa", "tau", "ric_min", "ric_max", "scal_min",
                 "scal_max", "ric3_min", "chi_ic1"):
        a, b = getattr(closed, name), getattr(measured, name)
        if abs(a - b) > 1e-6 * max(1.0, abs(a)):
            raise RuntimeError(
                f"projective-space {name} formula ({a}) disagrees with the "
                f"optimized tensor value ({b})")
    return closed


def bounds(space: ModelSpace, *, seed: int = 0, n_starts: int = 64) -> CurvatureBounds:
    """Curvature extremes of a model space.

    Constant-curvature kinds use closed forms; Fubini-Study bounds are
    validated against the explicit tensor by frame optimization on first use
    (cached per dim/scale); custom spaces echo their override.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    if space.kind == "custom":
        return space.bounds_override
    if space.kind == "fubini" and space.dim >= 4:
        key = (space.dim, space.scale)
        if key not in _FUBINI_BOUNDS_CACHE:
            _FUBINI_BOUNDS_CACHE[key] = _fubini_bounds(space, seed, n_starts)
        return _FUBINI_BOUNDS_CACHE[key]
    if space.kind == "fubini":  # dim 2: a round 2-sphere of curvature `scale`
        c = space.scale
    elif space.kind == "sphere":
        c = 1.0 / space.scale**2
    elif space.kind == "torus":
        c = 0.0
    else:
        c = space.curvature
    d = space.dim
    return CurvatureBounds(
        dim=d,
        kappa=c,
        tau=c,
        ric_min=(d - 1) * c,
        ric_max=(d - 1) * c,
        scal_min=d * (d - 1) * c,
        scal_max=d * (d - 1) * c,
        ric3_min=2.0 * c if d >= 3 else float("nan"),
        chi_ic1=c if d >= 4 else (d - 1) * c,
        einstein_const=space.einstein_const,
    )


@dataclass(frozen=True)
class BackgroundPath:
    """A background metric either frozen in time or shrinking homothetically.

    In ``ricci`` mode the base must be Einstein (Ric = L g); the metric
    factor is 1 - L t and the path dies at t_max = 1/L for L > 0.
    """

    base: ModelSpace
    mode: str = "static"

    def __post_init__(self):
        if self.mode not in ("static", "ricci"):
            raise ValueError("mode must be 'static' or 'ricci'")
        if self.mode == "ricci" and self.base.einstein_const is None:
            raise ValueError("ricci homothety needs an Einstein constant")

    @property
    def einstein_rate(self) -> float:
        return 0.0 if self.mode == "static" else float(self.base.einstein_const)

    @property
    def t_max(self) -> float:
        rate = self.einstein_rate
        return 1.0 / rate if rate > 0 else float("inf")

    def metric_factor(self, t: float) -> float:
        """Homothety factor of the metric at time t: g(t) = factor * g(0)."""
        if t < 0 or t >= self.t_max:
            raise ValueError(f"time {t} outside [0, {self.t_max}) (extinction)")
        return 1.0 - self.einstein_rate * t


def at_time(path: BackgroundPath, t: float) -> ModelSpace:
    """Model space at time t along the path; curvature scales by 1/(1 - L t)."""
    f = path.metric_factor(t)
    base = path.base
    if path.mode == "static" or f == 1.0:
        return base
    if base.kind == "sphere":
        return ModelSpace("sphere", base.dim, scale=base.scale * np.sqrt(f))
    if base.kind == "fubini":
        return ModelSpace("fubini", base.dim, scale=base.scale / f)
    if base.kind == "constant":
        return ModelSpace("constant", base.dim, curvature=base.curvature / f)
    if base.kind == "torus":
        return base
    return ModelSpace(
        "custom", base.dim, bounds_override=base.bounds_override.scaled(1.0 / f)
    )


def scalar_hypothesis(space_m: ModelSpace, space_n: ModelSpace, *, seed: int = 0) -> float:
    """Slack of the scalar-curvature ratio hypothesis.

    Returns scal_min(M) - (m/n) * scal_max(N); nonnegative slack is the
    entry ticket for the Ricci-flow-coupled conditions.
    """
    bm = bounds(space_m, seed=seed)
    bn = bounds(space_n, seed=seed)
    return bm.scal_min - (space_m.dim / space_n.dim) * bn.scal_max
