"""Closed-form homogeneous backgrounds and their exact shrinking homotheties.

A ModelSpace is one of:

    sphere    round sphere of radius ``scale``           sectional 1/scale^2
    fubini    complex projective space, ``scale`` = max holomorphic
              sectional curvature (scale 4: sectional range [1, 4])
    torus     flat torus, ``scale`` = side period        sectional 0
    constant  constant sectional curvature ``curvature`` (may be negative)
    custom    user-supplied CurvatureBounds only (no tensor)

A space evaluates its curvature extremes once, on construction, every kind
in closed form (custom spaces echo their override); ``bounds`` and the
Einstein constant read that object, so audits never build a tensor or run
the frame optimizer.  ``curvature_at`` builds the explicit tensor for tests
and direct use.

Einstein backgrounds shrink self-similarly under the Ricci-type evolution
d/dt g = -Ric: with Ric(g0) = L g0 the metric is g(t) = (1 - L t) g0, alive
until t = 1/L, with sectional curvature scaled by 1/(1 - L t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """A model space.  Construction evaluates its closed-form
    ``CurvatureBounds`` once; ``bounds``, ``einstein_const``, ``describe`` and
    ``BackgroundPath`` read that object."""

    kind: str
    dim: int
    scale: float = 1.0
    curvature: float | None = None
    bounds_override: CurvatureBounds | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError("need dim >= 2")
        try:
            float(self.dim)
        except OverflowError:
            raise ValueError("dim is out of the float range") from None
        for name in ("scale", "curvature"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.kind == "fubini" and self.dim % 2:
            raise ValueError("fubini needs even dim >= 2")
        if self.kind == "constant" and self.curvature is None:
            raise ValueError("constant-curvature space needs a curvature value")
        if self.kind == "custom" and self.bounds_override is None:
            raise ValueError("custom space needs bounds_override")
        object.__setattr__(self, "_bounds", _closed_form(self))

    @property
    def einstein_const(self) -> float | None:
        """L with Ric = L g: the Ricci constant, or a custom override's value."""
        return self._bounds.einstein_const

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


def _closed_form(space: ModelSpace) -> CurvatureBounds:
    """Curvature extremes of a model space, every kind in closed form.

    Constant curvature c (spheres, tori, ``constant``, and ``fubini`` of dim
    2, a round sphere of curvature ``scale``): sectional c, Ricci (dim-1)c,
    partial-Ricci minimum 2c (undefined on surfaces), isotropic shift c
    (dim >= 4; the minimal Ricci eigenvalue below).  Projective space with c
    the maximal holomorphic sectional curvature: sectional in [c/4, c],
    Ricci (c/4)(dim+2), partial-Ricci minimum c/2, isotropic shift 0 (the
    weak boundary of the cone).  Every such space is Einstein with its Ricci
    constant.  Custom spaces echo their override.  No tensor is built and no
    frame is optimized; the test suite checks the projective formulas against
    the optimizer on the tensor.
    """
    if space.kind == "custom":
        return space.bounds_override
    d, kind = space.dim, space.kind
    projective = kind == "fubini" and d >= 4
    try:
        if kind == "sphere":
            c = 1.0 / space.scale**2
        elif kind == "torus":
            c = 0.0
        elif kind == "constant":
            c = space.curvature
        else:
            c = space.scale
        ric = (c / 4.0) * (d + 2) if projective else (d - 1) * c
    except (OverflowError, ZeroDivisionError):  # scale**2 left the float range
        ric = math.inf
    if not math.isfinite(ric):
        name = "curvature" if kind == "constant" else "scale"
        raise ValueError(f"{name} {getattr(space, name)} puts the curvature of a "
                         f"{kind} space out of the float range")
    try:
        if projective:
            kappa, tau, scal, ric3, chi = c / 4.0, c, d * ric, c / 2.0, 0.0
        else:
            kappa, tau, scal = c, c, d * (d - 1) * c
            ric3 = 2.0 * c if d >= 3 else float("nan")
            chi = c if d >= 4 else ric
        return CurvatureBounds(
            dim=d, kappa=kappa, tau=tau, ric_min=ric, ric_max=ric, scal_min=scal,
            scal_max=scal, ric3_min=ric3, chi_ic1=chi, einstein_const=ric,
        )
    except (OverflowError, ValueError):  # d(d-1)c and the like left the float range
        raise ValueError(f"dim {d} puts the closed-form bounds of a "
                         f"{kind} space out of the float range") from None


def bounds(space: ModelSpace) -> CurvatureBounds:
    """Curvature extremes of a model space (see ``_closed_form``), the one
    object its construction evaluated."""
    return space._bounds


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

    @cached_property
    def einstein_rate(self) -> float:
        return 0.0 if self.mode == "static" else float(self.base.einstein_const)

    @cached_property
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
