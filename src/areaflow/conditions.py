"""Curvature-hypothesis audits for pairs of background spaces.

Each check evaluates one of the named curvature conditions (A)-(F), or the
two main-theorem hypothesis forms, as a set of named slacks (each LHS-RHS of
an inequality).  ``holds`` means every slack is >= 0 (exact comparisons: the
canonical examples have integer slacks); ``strict`` means the condition's
designated strict slack is > 0, which is what the rigidity statements need.
Hypotheses the tool cannot decide (local irreducibility, non-symmetry) are
echoed verbatim as unchecked, never claimed.

Every check is a pure function ``check_X(bm, bn, m, n)`` of the two sides'
curvature bounds and dimensions; ``audit_conditions`` reads the bounds of a
pair of model spaces (closed forms, see ``spaces.bounds``) and runs the named
checks on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .curvature import CurvatureBounds
from .spaces import ModelSpace, bounds as space_bounds, scalar_slack


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds: bool
    strict: bool
    slacks: tuple
    unchecked_hypotheses: tuple = ()
    inputs_echo: dict = field(default_factory=dict)

    def slack(self, name: str) -> float:
        for k, v in self.slacks:
            if k == name:
                return v
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "holds": self.holds,
            "strict": self.strict,
            "slacks": [{"name": k, "value": v} for k, v in self.slacks],
            "unchecked_hypotheses": list(self.unchecked_hypotheses),
            "inputs_echo": self.inputs_echo,
        }


def _report(condition, slacks, strict_name, unchecked=(), echo=None):
    holds = all(v >= 0 for _, v in slacks)
    strict = holds and dict(slacks)[strict_name] > 0
    return ConditionReport(
        condition=condition,
        holds=holds,
        strict=strict,
        slacks=tuple(slacks),
        unchecked_hypotheses=tuple(unchecked),
        inputs_echo=echo or {},
    )


def _echo(bm: CurvatureBounds, bn: CurvatureBounds, m: int, n: int) -> dict:
    return {"m": m, "n": n, "bounds_M": bm.to_dict(), "bounds_N": bn.to_dict()}


def check_A(bm: CurvatureBounds, bn: CurvatureBounds, m: int, n: int) -> ConditionReport:
    """Static condition (A): Ricci gap plus sectional floor terms.

    ric_gap  = Ric_min(M) - Ric_max(N) + (m-l) kappa_M + (n-l) kappa_N
    kappa_sum = kappa_M + kappa_N

    holds with kappa_sum >= 0; the rigidity conclusions need kappa_sum > 0
    (the strict flag).
    """
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    ell = min(m, n)
    slacks = [
        ("ric_gap", bm.ric_min - bn.ric_max + (m - ell) * bm.kappa + (n - ell) * bn.kappa),
        ("kappa_sum", bm.kappa + bn.kappa),
    ]
    return _report("A", slacks, "kappa_sum", echo=_echo(bm, bn, m, n))


def check_B(bm: CurvatureBounds, bn: CurvatureBounds, m: int, n: int) -> ConditionReport:
    """Static condition (B): kappa_M >= 0 and the multiplied sectional form

    sec_gap = (2(m-l) + l - 1) kappa_M - (l-1) tau_N >= 0.

    Stated multiplied through by (l-1); l = 1 would make the divided form
    singular, so l >= 2 is required.  Strict flag: kappa_M > 0.
    """
    ell = min(m, n)
    if ell < 2:
        raise ValueError("condition (B) needs min(m, n) >= 2")
    slacks = [
        ("kappa_M", bm.kappa),
        ("sec_gap", (2 * (m - ell) + ell - 1) * bm.kappa - (ell - 1) * bn.tau),
    ]
    return _report("B", slacks, "kappa_M", echo=_echo(bm, bn, m, n))


def check_C(bm: CurvatureBounds, bn: CurvatureBounds, m: int, n: int) -> ConditionReport:
    """Ricci-flow-coupled condition (C) on the partial Ricci minima chi.

    chi_sum    = chi(M) + chi(N)
    chi_excess = (m-l) chi(M) + (n-l) chi(N)

    Both metrics evolve by d/dt = -Ric.  Strict flag: chi_sum > 0.
    """
    if not (math.isfinite(bm.ric3_min) and math.isfinite(bn.ric3_min)):
        raise ValueError("condition (C) needs ric3 minima on both sides")
    ell = min(m, n)
    slacks = [
        ("chi_sum", bm.ric3_min + bn.ric3_min),
        ("chi_excess", (m - ell) * bm.ric3_min + (n - ell) * bn.ric3_min),
    ]
    return _report("C", slacks, "chi_sum", echo=_echo(bm, bn, m, n))


def check_D(bm: CurvatureBounds, bn: CurvatureBounds, m: int, n: int) -> ConditionReport:
    """Condition (D): M evolves by -Ric, N static with tau_N <= 0.

    chi_M        = chi(M)
    tau_N_nonpos = -tau_N

    Strict flag follows the rigidity clause chi_M > 0; the alternative
    sharpening tau_N < 0 is readable off the second slack.
    """
    if not math.isfinite(bm.ric3_min):
        raise ValueError("condition (D) needs the ric3 minimum of M")
    slacks = [("chi_M", bm.ric3_min), ("tau_N_nonpos", -bn.tau)]
    return _report("D", slacks, "chi_M", echo=_echo(bm, bn, m, n))


def check_thm1_i(bm, bn, m, n) -> ConditionReport:
    """Main-theorem hypothesis (i): condition (A) with kappa_sum required > 0."""
    return replace(check_A(bm, bn, m, n), condition="Thm1_i")


def check_thm1_ii(bm, bn, m, n) -> ConditionReport:
    """Main-theorem hypothesis (ii): kappa_M > 0 plus the multiplied form."""
    return replace(check_B(bm, bn, m, n), condition="Thm1_ii")


_UNCHECKED_M = (
    "M locally irreducible",
    "M locally non-symmetric",
)


def check_E(bm: CurvatureBounds, bn: CurvatureBounds, m: int, n: int) -> ConditionReport:
    """Coupled condition (E): Einstein target, isotropic-nonnegative source.

    einstein_N   = Ric_min(N) - Ric_max(N)   (zero iff N is Einstein)
    kappa_N      = kappa(N)
    chi_ic1_M    = isotropic shift of M (min Ricci eigenvalue in dim 3)
    scalar_ratio = scal_min(M) - (m/n) scal_max(N)

    Local irreducibility / non-symmetry of M cannot be decided from bounds
    and are echoed unchecked.  Strict flag: scalar_ratio > 0.
    """
    slacks = [
        ("einstein_N", bn.ric_min - bn.ric_max),
        ("kappa_N", bn.kappa),
        ("chi_ic1_M", bm.chi_ic1),
        ("scalar_ratio", scalar_slack(bm, bn, m, n)),
    ]
    return _report("E", slacks, "scalar_ratio", unchecked=_UNCHECKED_M,
                   echo=_echo(bm, bn, m, n))


def check_F(bm: CurvatureBounds, bn: CurvatureBounds, m: int, n: int) -> ConditionReport:
    """Coupled condition (F): nonpositively curved target.

    tau_N_nonpos = -tau(N)
    chi_ic1_M    = isotropic shift of M
    scalar_ratio = scal_min(M) - (m/n) scal_max(N)

    Strict flag: tau_N_nonpos > 0 (tau_N < 0 forces strict area decrease).
    """
    slacks = [
        ("tau_N_nonpos", -bn.tau),
        ("chi_ic1_M", bm.chi_ic1),
        ("scalar_ratio", scalar_slack(bm, bn, m, n)),
    ]
    return _report("F", slacks, "tau_N_nonpos", unchecked=_UNCHECKED_M,
                   echo=_echo(bm, bn, m, n))


_CHECKS = {
    "A": check_A,
    "B": check_B,
    "C": check_C,
    "D": check_D,
    "E": check_E,
    "F": check_F,
    "Thm1_i": check_thm1_i,
    "Thm1_ii": check_thm1_ii,
}
CONDITIONS = tuple(_CHECKS)


def audit_conditions(space_m: ModelSpace, space_n: ModelSpace, conditions, *,
                     seed: int = 0) -> list[ConditionReport]:
    """Run the named condition checks on a pair of model spaces.

    ``seed`` is ignored: every bound is a closed form.  It stays accepted so
    that existing callers keep working.
    """
    unknown = [c for c in conditions if c not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown condition {unknown[0]!r}; choose from {CONDITIONS}")
    bm, bn = space_bounds(space_m), space_bounds(space_n)
    m, n = space_m.dim, space_n.dim
    return [_CHECKS[c](bm, bn, m, n) for c in conditions]
