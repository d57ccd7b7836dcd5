"""Closed-form homogeneous backgrounds and their exact shrinking homotheties.

A ModelSpace is one of:

    sphere    round sphere of radius ``scale``           sectional 1/scale^2
    fubini    complex projective space, ``scale`` = max holomorphic
              sectional curvature (scale 4: sectional range [1, 4])
    torus     flat torus, ``scale`` = side period        sectional 0
    constant  constant sectional curvature ``curvature`` (may be negative)
    custom    user-supplied CurvatureBounds only (no tensor)

``bounds`` returns every kind's curvature extremes as closed forms (custom
spaces echo their override), so audits never build a tensor or run the
frame optimizer; ``curvature_at`` builds the explicit tensor for tests and
direct use.

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
    bounds_of,  # unused here, but perfbench/tracer.py wraps spaces.bounds_of
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


def bounds(space: ModelSpace) -> CurvatureBounds:
    """Curvature extremes of a model space, every kind in closed form.

    Constant curvature c (spheres, tori, ``constant``, and ``fubini`` of dim
    2, a round sphere of curvature ``scale``): sectional c, Ricci (dim-1)c,
    partial-Ricci minimum 2c (undefined on surfaces), isotropic shift c
    (dim >= 4; the minimal Ricci eigenvalue below).  Projective space with c
    the maximal holomorphic sectional curvature: sectional in [c/4, c],
    Einstein constant (c/4)(dim+2), partial-Ricci minimum c/2, isotropic
    shift 0 (the weak boundary of the cone).  Custom spaces echo their
    override.  No tensor is built and no frame is optimized; the test suite
    checks the projective formulas against the optimizer on the tensor.
    """
    if space.kind == "custom":
        return space.bounds_override
    d = space.dim
    if space.kind == "fubini" and d >= 4:
        c = space.scale
        ric = (c / 4.0) * (d + 2)
        kappa, tau, scal, ric3, chi = c / 4.0, c, d * ric, c / 2.0, 0.0
    else:
        if space.kind == "fubini":
            c = space.scale
        elif space.kind == "sphere":
            c = 1.0 / space.scale**2
        elif space.kind == "torus":
            c = 0.0
        else:
            c = space.curvature
        ric = (d - 1) * c
        kappa, tau, scal = c, c, d * (d - 1) * c
        ric3 = 2.0 * c if d >= 3 else float("nan")
        chi = c if d >= 4 else ric
    return CurvatureBounds(
        dim=d, kappa=kappa, tau=tau, ric_min=ric, ric_max=ric, scal_min=scal,
        scal_max=scal, ric3_min=ric3, chi_ic1=chi,
        einstein_const=space.einstein_const,
    )


def scalar_slack(bm: CurvatureBounds, bn: CurvatureBounds, m: int, n: int) -> float:
    """scal_min(M) - (m/n) scal_max(N), the scalar-curvature ratio slack."""
    return bm.scal_min - (m / n) * bn.scal_max


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


def scalar_hypothesis(space_m: ModelSpace, space_n: ModelSpace) -> float:
    """Slack of the scalar-curvature ratio hypothesis.

    Returns scal_min(M) - (m/n) * scal_max(N); nonnegative slack is the
    entry ticket for the Ricci-flow-coupled conditions.
    """
    return scalar_slack(bounds(space_m), bounds(space_n), space_m.dim, space_n.dim)
