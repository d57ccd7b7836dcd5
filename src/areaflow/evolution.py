"""Pointwise oracles for the evolution identities and lower bounds.

A point state freezes everything the evolution equation of the graph tensor
S sees at one point: the singular values, the sectional tables K^g (m x m)
and K^h (l x l with l = min(m,n)), second-fundamental-form entries A[a,i,l]
(target-normal index first, symmetric in i,l), and the metric time
derivatives in the singular directions.

The diagonal evolution splits into three terms:

    I   = sum_{a,l} 2 (S_ii + S_aa) A[a,i,l]^2
    II  = C_ii^2 sum_k (K^g_ik - lambda_k^2 K^h_ik) / (1 + lambda_k^2)
    III = (1/2) C_ii^2 (dt_g_ii - dt_h_ii)

Term II has an independent evaluation path through the product-space
curvature tensor contracted against the adapted graph frame, which is the
oracle used to cross-check the closed form.  The remaining operations
evaluate both sides of the maximum-principle inequalities (the positivity
estimate for the smallest Theta eigenvalue, and the curvature lower bounds
under the static and Ricci-flow-coupled conditions) so that sweeps of random
admissible states can confirm the stated sign.

``States`` stacks point states of one shape (m, n) on a leading row axis.
Every oracle is written once on it and returns one value per row; a
validated ``PointState`` runs as a batch of one and gets a float.  Draws
reject rows by masks and refill until every row is admissible; the
positivity draws reject on the singular values alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .profile import SingularProfile, c_of, graph_frames, s_of, theta_wedge_matrices

GAP_TOL = -1e-10  # sweeps treat gaps above this as nonnegative
C0 = 8.0  # starting factor c0 of ``lemma_constant``; coupled sweeps double it on a counterexample
_BATCH = 4096  # rows per sweep batch; it sets the draw order, so the states a seed draws
# A draw redraws rows failing ``_margin`` for at most _ROUNDS rounds.  Positivity
# draws (~3% admissible at alpha = 0, m = n = 4) reject on lambda alone: each
# round draws about 1/(acceptance so far) candidates per missing row (at least
# one each, else at most _ROUND_CAP in all), and the draw gives up after
# _ROUNDS candidates per requested row, the worst case of one row's refills.
_ROUNDS = 2000
_ROUND_CAP = 1 << 16


@dataclass(frozen=True)
class PointState:
    """One-point snapshot feeding the evolution oracles."""

    m: int
    n: int
    profile: SingularProfile
    kg: np.ndarray
    kh: np.ndarray
    a2: np.ndarray
    dtg: np.ndarray
    dth: np.ndarray
    kappa_m: float | None = None
    tau_m: float | None = None
    kappa_n: float | None = None
    tau_n: float | None = None

    def __post_init__(self):
        m, n, ell = self.m, self.n, self.ell
        kg = np.asarray(self.kg, dtype=float)
        kh = np.asarray(self.kh, dtype=float)
        a2 = np.asarray(self.a2, dtype=float)
        if kg.shape != (m, m) or abs(kg - kg.T).max() > 1e-12 or abs(np.diag(kg)).max() > 0:
            raise ValueError("kg must be symmetric m x m with zero diagonal")
        if kh.shape != (ell, ell) or abs(kh - kh.T).max() > 1e-12 or abs(np.diag(kh)).max() > 0:
            raise ValueError("kh must be symmetric l x l with zero diagonal")
        if a2.shape != (n, m, m) or abs(a2 - a2.transpose(0, 2, 1)).max() > 1e-12:
            raise ValueError("a2 must be (n, m, m), symmetric in the lower indices")
        if np.asarray(self.dtg).shape != (m,) or np.asarray(self.dth).shape != (ell,):
            raise ValueError("dtg needs m entries and dth needs l entries")
        if self.profile.m != m or self.profile.n != n:
            raise ValueError("profile dimensions disagree with the state")
        for nm, lo, hi, tab in (("kg", self.kappa_m, self.tau_m, kg),
                                ("kh", self.kappa_n, self.tau_n, kh)):
            off = tab[~np.eye(tab.shape[0], dtype=bool)]
            if lo is not None and off.size and off.min() < lo - 1e-12:
                raise ValueError(f"{nm} entries dip below the declared lower bound")
            if hi is not None and off.size and off.max() > hi + 1e-12:
                raise ValueError(f"{nm} entries exceed the declared upper bound")

    @property
    def ell(self) -> int:
        return min(self.m, self.n)

    def theta_min(self) -> float:
        return self.profile.theta_min()

    def batch(self) -> "States":
        """This state as a batch of one."""
        one = {f.name: getattr(self, f.name) for f in fields(self)[3:]}  # after the profile
        return States(self.m, self.n, self.profile.lam[None], **{
            k: None if v is None else np.asarray(v, dtype=float)[None] for k, v in one.items()})


@dataclass(frozen=True)
class States:
    """Point states of one shape (m, n) on a leading row axis: lam (B, m) as in
    ``SingularProfile``, kg (B, m, m), kh (B, l, l), a2 (B, n, m, m), dtg (B, m),
    dth (B, l), each declared bound None or (B,)."""

    m: int
    n: int
    lam: np.ndarray
    kg: np.ndarray
    kh: np.ndarray
    a2: np.ndarray
    dtg: np.ndarray
    dth: np.ndarray
    kappa_m: np.ndarray | None = None
    tau_m: np.ndarray | None = None
    kappa_n: np.ndarray | None = None
    tau_n: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.lam)

    @property
    def ell(self) -> int:
        return min(self.m, self.n)

    @property
    def theta(self) -> np.ndarray:
        """Theta_1221 = S_11 + S_22, the smallest Theta eigenvalue of each row."""
        return s_of(self.lam[:, :2]).sum(axis=1)

    def arrays(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if isinstance(getattr(self, f.name), np.ndarray)}

    def row(self, r: int) -> PointState:
        """Row r as a validated PointState."""
        values = {k: v[r] for k, v in self.arrays().items()}
        profile = SingularProfile.from_lambdas(values.pop("lam"), m=self.m, n=self.n)
        return PointState(self.m, self.n, profile, **values)


def _rows(st) -> States:
    return st.batch() if isinstance(st, PointState) else st


def _out(st, values):
    """Per-row values, or the single float of a PointState."""
    return float(values[0]) if isinstance(st, PointState) else values


def _terms(b: States):
    """Terms I, II, III of every direction, each (B, m)."""
    m, n, ell = b.m, b.n, b.ell
    lam, s, c = b.lam, s_of(b.lam), c_of(b.lam)
    s_ext = np.pad(s[:, :ell], ((0, 0), (0, n - ell)), constant_values=1.0)  # S_aa = 1 past l
    a_sq = np.sum(b.a2**2, axis=3)  # (B, a, i)
    term_i = 2.0 * np.sum((s[:, None, :] + s_ext[:, :, None]) * a_sq, axis=1)
    term_iii = 0.5 * c**2 * (b.dtg - np.pad(b.dth, ((0, 0), (0, m - ell))))
    return term_i, _term_II(lam, c, b.kg, b.kh), term_iii


def _term_II(lam, c, kg, kh):
    """Term II of every direction, (B, m), from lambda, C = c_of(lambda) and
    the sectional tables K^g (B, m, m) and K^h (B, l, l) alone."""
    ell = kh.shape[1]
    num = kg.copy()
    num[:, :ell, :ell] -= lam[:, None, :ell] ** 2 * kh
    return c**2 * np.sum(num / (1.0 + lam[:, None, :] ** 2), axis=2)


def _pair_terms(b: States):
    """(1), (2), (3): terms I, II, III summed over the directions 1 and 2."""
    return (t[:, 0] + t[:, 1] for t in _terms(b))


def terms_I_II_III(st, i: int):
    """The three summands of the diagonal evolution at direction i."""
    b = _rows(st)
    if not 0 <= i < b.m:
        raise ValueError("direction index out of range")
    return tuple(_out(st, t[:, i]) for t in _terms(b))


def _frame_ricci(table: np.ndarray, e: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """sum_k R(e_i, e_k, e_k, nu_i), (B, i), for frame rows e (B, k, d) and nu
    (B, i, d) and the block curvature of a sectional table (B, d, d), nonzero
    only at R(p,q,q,p) = table[p,q] = -R(p,q,p,q): with P = sum_k e_k e_k^T it
    is e_i^T Q nu_i, Q_ps = delta_ps sum_q table[p,q] P_qq - table[p,s] P_ps."""
    proj = e.transpose(0, 2, 1) @ e  # P
    d = np.arange(table.shape[1])
    q = -table * proj
    q[:, d, d] += np.einsum("bpq,bq->bp", table, proj[:, d, d])
    return np.sum((e[:, :nu.shape[1]] @ q) * nu, axis=2)


def _term_II_product(n: int, lam, kg, kh) -> np.ndarray:
    """Term II of every direction through the ambient product curvature, (B, m),
    for a target of dim n, from the arguments of ``_term_II``.

    Forms the adapted graph frames of the coordinate singular bases and
    contracts -2 C_ii sum_k R(e_i, e_k, e_k, nu_i) against the block
    curvature of (M x N, g + h) built from the sectional tables, at its
    nonzero entries (``_frame_ricci``).  A direction i >= n has no normal
    nu_i; its term is understood as zero.
    """
    m, ell = lam.shape[1], kh.shape[1]
    e, nu = graph_frames(lam, np.eye(m), np.eye(n))
    # i < l: the directions with a normal; K^h spans the first l target coordinates
    tg = _frame_ricci(kg, e[..., :m], nu[:, :ell, :m])
    th = _frame_ricci(kh, e[..., m:m + ell], nu[:, :ell, m:m + ell])
    out = np.zeros((len(lam), m))
    out[:, :ell] = -2.0 * c_of(lam[:, :ell]) * (tg + th)
    return out


def term_II_bruteforce(st, i: int):
    """Term II at direction i through the ambient product curvature; must agree
    with the closed form of ``terms_I_II_III`` to machine precision."""
    b = _rows(st)
    if not 0 <= i < b.m:
        raise ValueError("direction index out of range")
    return _out(st, _term_II_product(b.n, b.lam, b.kg, b.kh)[:, i])


def _a_diag(b: States) -> np.ndarray:
    """A[a,a,:] for a = 1, 2 (zero where N has no such direction), (B, 2, m)."""
    return np.stack([b.a2[:, a, a] if a < b.n else np.zeros((len(b), b.m)) for a in (0, 1)], 1)


def grad_theta_sq(st):
    """|grad Theta_1221|^2 from the second-fundamental-form formula.

    The gradient in direction k is -2 (C_11 A[1,1,k] + C_22 A[2,2,k]).
    """
    b = _rows(st)
    grad = -2.0 * np.einsum("bi,bik->bk", c_of(b.lam[:, :2]), _a_diag(b))
    return _out(st, np.sum(grad**2, axis=1))


def positivity_gap(st, alpha):
    """Slack of the positivity estimate for the smallest Theta eigenvalue.

    With theta = Theta_1221 and alpha >= 0 such that theta + alpha > 0,

      gap = (theta+alpha)[(1)+(2)+(3)] + (1/2)|grad Theta|^2
            - [ -2 alpha (theta+alpha) |A|^2
                + 4 alpha (S_11 sum_k A[1,1,k]^2 + S_22 sum_k A[2,2,k]^2)
                + (theta+alpha)((2)+(3)) ]

    and the estimate asserts gap >= 0.  alpha = 0 is the logarithmic
    determinant form.  Negative alpha is rejected: the |A|^2 coarsening is
    one-sided and the inequality genuinely needs alpha >= 0.  On a batch,
    alpha is one value or one per row.
    """
    b = _rows(st)
    if b.m < 2:
        raise ValueError("needs m >= 2")
    alpha = np.asarray(alpha, dtype=float)
    if not np.isfinite(alpha).all():
        raise ValueError("alpha must be finite")
    if (alpha < 0).any():
        raise ValueError("alpha must be nonnegative")
    theta = b.theta
    if (theta + alpha <= 0).any():
        raise ValueError("need Theta_1221 + alpha > 0")
    one, two, three = _pair_terms(b)
    s = s_of(b.lam)
    a_sq = np.sum(b.a2**2, axis=(1, 2, 3))
    rows = np.sum(_a_diag(b) ** 2, axis=2)
    lhs = (theta + alpha) * (one + two + three) + 0.5 * grad_theta_sq(b)
    rhs = (-2.0 * alpha * (theta + alpha) * a_sq
           + 4.0 * alpha * (s[:, 0] * rows[:, 0] + s[:, 1] * rows[:, 1])
           + (theta + alpha) * (two + three))
    return _out(st, lhs - rhs)


def _theta_weight(lam: np.ndarray) -> np.ndarray:
    """(lambda_1^2 + lambda_2^2) / ((1+lambda_1^2)(1+lambda_2^2))."""
    l1, l2 = lam[:, 0], lam[:, 1]
    return (l1**2 + l2**2) / ((1 + l1**2) * (1 + l2**2))


def _require_static(b: States):
    if (b.dtg != 0).any() or (b.dth != 0).any():
        raise ValueError("static condition requires vanishing metric derivatives")


def _margin(b: States, condition: str | None) -> np.ndarray:
    """Pointwise admissibility margin of each row; draws keep rows >= 0.

    (A): min over i = 1, 2 of Ric^g_ii - sum_k K^h_ik + sum_{p>l} K^g_ip.
    (C): sum_{p>l} K^g_1p + K^g_2p, plus for n > l the hidden target rows
    implied by dt h = -Ric^h.  (D): the K^g part alone.  Otherwise 0.
    """
    ell = b.ell
    g_rows = b.kg[:, :2, ell:].sum(axis=2)  # sum_{p>l} K^g_ip for i = 1, 2
    if condition == "A":
        return (b.kg[:, :2].sum(axis=2) - b.kh[:, :2].sum(axis=2) + g_rows).min(axis=1)
    g_tail = g_rows[:, 0] + g_rows[:, 1]
    if condition == "C" and b.n > ell:
        return g_tail + (-b.dth[:, :2] - b.kh[:, :2].sum(axis=2)).sum(axis=1)
    if condition in ("C", "D"):
        return g_tail
    return np.zeros(len(b))


def bound_A(st):
    """Gap of the static lower bound under condition (A).

    Directly computed (2)+(3) minus the stated bound: the S_pp-weighted
    mixed-curvature sum over p >= 3 plus the (K^g_12+K^h_12)-weighted Theta
    term.  Requires a static state whose pointwise Ricci brackets (the form
    of (A) visible at one point) are nonnegative.
    """
    b = _rows(st)
    _require_static(b)
    if b.m < 2 or b.ell < 2:
        raise ValueError("needs m, l >= 2")
    if (_margin(b, "A") < -1e-10).any():
        raise ValueError("state violates the pointwise form of condition (A)")
    _, two, three = _pair_terms(b)
    s, c, ell = s_of(b.lam), c_of(b.lam), b.ell
    ksum = b.kg[:, :2, :ell] + b.kh[:, :2]
    weighted = 0.5 * np.sum((c[:, 0, None] ** 2 * ksum[:, 0, 2:]
                             + c[:, 1, None] ** 2 * ksum[:, 1, 2:]) * s[:, 2:ell], axis=1)
    theta_term = ksum[:, 0, 1] * _theta_weight(b.lam) * b.theta
    return _out(st, two + three - weighted - theta_term)


def bound_B(st):
    """Gap of the static lower bound under condition (B).

    Needs declared kappa_M and tau_N; the bound is (kappa_M + tau_N) times
    [ (1/2)(C_11^2 + C_22^2) sum_{p>=3} S_pp + weight * Theta_1221 ].
    """
    b = _rows(st)
    _require_static(b)
    if b.kappa_m is None or b.tau_n is None:
        raise ValueError("condition (B) needs declared kappa_M and tau_N")
    k, t, ell = b.kappa_m, b.tau_n, b.ell
    if b.m < 2 or ell < 2:
        raise ValueError("needs m, l >= 2")
    if ((k < 0) | ((ell - 1) * t > (2 * (b.m - ell) + ell - 1) * k + 1e-12)).any():
        raise ValueError("declared bounds violate condition (B)")
    _, two, three = _pair_terms(b)
    s, c = s_of(b.lam), c_of(b.lam)
    bound = (k + t) * (0.5 * (c[:, 0] ** 2 + c[:, 1] ** 2) * s[:, 2:ell].sum(axis=1)
                       + _theta_weight(b.lam) * b.theta)
    return _out(st, two + three - bound)


def lemma_constant(st, c0: float = C0):
    """Explicit stand-in for the unnamed curvature-bound constant.

    c0 * (max|K^g| + max|K^h| + max|dt g| + max|dt h|) * (m+n); sweeps verify
    sufficiency and double c0 if a counterexample state ever appears.
    """
    b = _rows(st)
    size = sum(abs(t).reshape(len(b), -1).max(axis=1, initial=0.0)
               for t in (b.kg, b.kh, b.dtg, b.dth))
    return _out(st, c0 * size * (b.m + b.n))


def bound_C(st, c0: float = C0):
    """Gap of the coupled lower bound under condition (C).

    Both metrics move by -Ric: dt g_ii must equal -sum_p K^g_ip, and the
    hidden target rows implied by dt h must leave the combined pair-sum tail
    nonnegative (the chi clauses evaluated at the point).  The bound is

        -C |Theta_1221| + (2 l1^2/(1+l1^2)^2)
              sum_{p>=3} (K^g_1p + K^g_2p + K^h_1p + K^h_2p) S_pp

    with C the explicit constant of ``lemma_constant``.
    """
    b = _rows(st)
    if b.m < 2 or b.ell < 2:
        raise ValueError("needs m, l >= 2")
    if (abs(b.dtg + b.kg.sum(axis=2)) > 1e-9).any():
        raise ValueError("condition (C) needs dt g = -Ric^g rows")
    if (_margin(b, "C") < -1e-10).any():
        raise ValueError("hidden-direction pair sums violate the chi clauses")
    _, two, three = _pair_terms(b)
    s, l1, ell = s_of(b.lam), b.lam[:, 0], b.ell
    pair = b.kg[:, 0, 2:ell] + b.kg[:, 1, 2:ell] + b.kh[:, 0, 2:] + b.kh[:, 1, 2:]
    bound = (-lemma_constant(b, c0) * abs(b.theta)
             + 2 * l1**2 / (1 + l1**2) ** 2 * np.sum(pair * s[:, 2:ell], axis=1))
    return _out(st, two + three - bound)


def bound_D(st, c0: float = C0):
    """Gap of the coupled lower bound under condition (D).

    M moves by -Ric, N is static with tau_N <= 0; the bound replaces the
    target curvature sums by the tau_N-weighted stretch term

        - sum_{a<=l} 2 tau_N lambda_a^2 / (1 + lambda_a^2).
    """
    b = _rows(st)
    if b.m < 2 or b.ell < 2:
        raise ValueError("needs m, l >= 2")
    if b.tau_n is None or (b.tau_n > 0).any():
        raise ValueError("condition (D) needs declared tau_N <= 0")
    if (abs(b.dtg + b.kg.sum(axis=2)) > 1e-9).any():
        raise ValueError("condition (D) needs dt g = -Ric^g rows")
    if (b.dth != 0).any():
        raise ValueError("condition (D) needs a static target metric")
    if (_margin(b, "D") < -1e-10).any():
        raise ValueError("hidden-direction pair sums violate the chi clause")
    _, two, three = _pair_terms(b)
    s, lam, l1, ell = s_of(b.lam), b.lam, b.lam[:, 0], b.ell
    pair = b.kg[:, 0, 2:ell] + b.kg[:, 1, 2:ell]
    stretch = np.sum(2.0 * b.tau_n[:, None] * lam[:, :ell] ** 2 / (1.0 + lam[:, :ell] ** 2),
                     axis=1)
    bound = (-lemma_constant(b, c0) * abs(b.theta)
             + 2 * l1**2 / (1 + l1**2) ** 2 * (np.sum(pair * s[:, 2:ell], axis=1) - stretch))
    return _out(st, two + three - bound)


# ---------------------------------------------------------------------------
# random admissible states
# ---------------------------------------------------------------------------


def _sym_tables(rng, rows, d, lo, hi):
    """Symmetric zero-diagonal tables with entries in [lo, hi] (scalars or per row)."""
    lo, hi = (np.asarray(v, dtype=float).reshape(-1, 1, 1) for v in (lo, hi))
    t = rng.uniform(lo, hi, size=(rows, d, d))
    t = 0.5 * (t + t.transpose(0, 2, 1))
    t[:, np.arange(d), np.arange(d)] = 0.0
    return t


def _lambdas(rng, m: int, n: int, rows: int, alpha=None) -> np.ndarray:
    """Singular values (rows, m): l = min(m, n) uniform in [0, 3], sorted
    descending, then zeros.

    With ``alpha`` (one per row) each row has the conditional law given
    Theta_1221 + alpha > 1e-6, by rejection on lambda alone.  A round draws
    about 1/(acceptance so far) = (drawn + 1)/(passed + 1) candidates for
    every missing row, one each but at most ``_ROUND_CAP`` in all, and a row
    keeps the first admissible one drawn for it.  The draw gives up once the
    next round would pass ``_ROUNDS`` candidates per requested row.
    """
    ell = min(m, n)

    def draw(count):
        lam = np.zeros((count, m))
        lam[:, :ell] = np.sort(rng.uniform(0.0, 3.0, size=(count, ell)), axis=1)[:, ::-1]
        return lam

    if alpha is None:
        return draw(rows)
    alpha = np.asarray(alpha, dtype=float)
    if not np.isfinite(alpha).all():
        raise ValueError("alpha must be finite")
    out, missing = np.zeros((rows, m)), np.arange(rows)
    drawn = passed = 0
    while missing.size:
        per_row = min(-(-(drawn + 1) // (passed + 1)), max(1, _ROUND_CAP // missing.size),
                      (_ROUNDS * rows - drawn) // missing.size)
        if per_row < 1:
            raise RuntimeError(f"could not draw admissible states in {_ROUNDS} candidates per row")
        cand = draw(missing.size * per_row).reshape(missing.size, per_row, m)
        ok = s_of(cand[..., :2]).sum(axis=2) + alpha[missing, None] > 1e-6
        hit = ok.any(axis=1)
        out[missing[hit]] = cand[hit, ok[hit].argmax(axis=1)]
        drawn, passed, missing = drawn + ok.size, passed + int(ok.sum()), missing[~hit]
    return out


def _candidates(rng, condition, n: int, lam: np.ndarray) -> States:
    """Random states on the singular values ``lam`` for a condition,
    admissible by construction where possible."""
    rows, m = lam.shape
    ell = min(m, n)
    a2 = rng.normal(0.0, 1.0, size=(rows, n, m, m))
    a2 = 0.5 * (a2 + a2.transpose(0, 1, 3, 2))
    dtg, dth = np.zeros((rows, m)), np.zeros((rows, ell))
    declared = {}

    if condition is None:
        kg = _sym_tables(rng, rows, m, -1.0, 1.0)
        kh = _sym_tables(rng, rows, ell, -1.0, 1.0)
        dtg, dth = rng.uniform(-1, 1, (rows, m)), rng.uniform(-1, 1, (rows, ell))
    elif condition == "A":
        lo = rng.uniform(-0.2, 0.3, rows)
        kg = _sym_tables(rng, rows, m, lo, lo + rng.uniform(0.5, 1.5, rows))
        kh = _sym_tables(rng, rows, ell, -0.5, 0.5)
    elif condition == "B":
        kap = rng.uniform(0.0, 1.5, rows)
        tau_m = kap + rng.uniform(0.0, 1.5, rows)
        cap = (2 * (m - ell) + ell - 1) / (ell - 1) * kap
        tau_n = rng.uniform(np.minimum(-1.0, cap), cap)
        kap_n = tau_n - rng.uniform(0.0, 1.5, rows)
        kg = _sym_tables(rng, rows, m, kap, tau_m)
        kh = _sym_tables(rng, rows, ell, kap_n, tau_n)
        declared = dict(kappa_m=kap, tau_m=tau_m, kappa_n=kap_n, tau_n=tau_n)
    elif condition in ("C", "D"):  # M moves by -Ric
        kg = _sym_tables(rng, rows, m, rng.uniform(-0.3, 0.2, rows), rng.uniform(0.5, 1.5, rows))
        dtg = -kg.sum(axis=2)
        if condition == "C":
            kh = _sym_tables(rng, rows, ell, rng.uniform(-0.3, 0.2, rows),
                             rng.uniform(0.5, 1.5, rows))
            tails = rng.uniform(0.0, 1.0, size=(rows, ell, n - ell))
            dth = -(kh.sum(axis=2) + tails.sum(axis=2))
        else:
            tau_n = rng.uniform(-1.5, 0.0, rows)
            kap_n = tau_n - rng.uniform(0.0, 1.5, rows)
            kh = _sym_tables(rng, rows, ell, kap_n, tau_n)
            declared = dict(kappa_n=kap_n, tau_n=tau_n)
    else:
        raise ValueError(f"unknown condition {condition!r}")
    return States(m, n, lam, kg, kh, a2, dtg, dth, **declared)


def draw_states(rng, condition: str | None, m: int, n: int, rows: int, *,
                alpha=None) -> States:
    """``rows`` random states of dims (m, n), admissible for the condition.

    The singular values come from ``_lambdas``, so with ``alpha`` (one per
    row) Theta_1221 + alpha > 0 is met by rejection on lambda alone.  The
    other fields are admissible by construction where possible, else rows
    failing ``_margin`` are redrawn whole, up to ``_ROUNDS`` rounds.
    """
    out = cand = _candidates(rng, condition, n, _lambdas(rng, m, n, rows, alpha))
    slots = np.arange(rows)
    for _ in range(_ROUNDS):
        ok = _margin(cand, condition) >= 0
        for name, values in out.arrays().items():
            values[slots[ok]] = getattr(cand, name)[ok]
        slots = slots[~ok]
        if not slots.size:
            return out
        lam = _lambdas(rng, m, n, slots.size, None if alpha is None else alpha[slots])
        cand = _candidates(rng, condition, n, lam)
    raise RuntimeError(f"could not draw admissible states for {condition!r}")


def random_state(rng, condition: str | None = None, *, dims=None) -> PointState:
    """One random PointState admissible for the named condition (a batch of one)."""
    m, n = dims if dims is not None else map(int, rng.integers(2, 5, size=2))
    return draw_states(rng, condition, m, n, 1).row(0)


def random_positive_state(rng, alpha: float, *, dims=None) -> PointState:
    """Random state with Theta_1221 + alpha > 0 (rejection on the profile)."""
    m, n = dims if dims is not None else map(int, rng.integers(2, 5, size=2))
    return draw_states(rng, None, m, n, 1, alpha=np.array([alpha], float)).row(0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _require_samples(samples: int) -> None:
    """A sweep of no state checks nothing, so it must not report a pass."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _sweep_shapes(samples: int, seed: int):
    """The generator of a sweep with the dims (m, n) and row count of each batch.

    Each sample draws its dims (m, n) in {2, 3, 4}^2; samples of equal dims
    are drawn together, at most ``_BATCH`` at a time.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    counts = np.bincount(rng.integers(0, 9, size=samples), minlength=9)
    for code, count in enumerate(counts.tolist()):
        for start in range(0, count, _BATCH):
            yield rng, 2 + code // 3, 2 + code % 3, min(_BATCH, count - start)


def _sweep_states(samples: int, seed: int, condition: str | None = None, *, alpha=None):
    """Batches of a sweep with their alpha per row, uniform in the range ``alpha``."""
    for rng, m, n, rows in _sweep_shapes(samples, seed):
        a = None if alpha is None else rng.uniform(*alpha, rows)
        yield draw_states(rng, condition, m, n, rows, alpha=a), a


def sweep_positivity(samples: int, seed: int, *, alpha_positive: bool) -> dict:
    """Minimum positivity gap over random states (alpha > 0 or alpha = 0)."""
    draws = _sweep_states(samples, seed, alpha=(0.05, 2.0) if alpha_positive else (0.0, 0.0))
    worst = min(float(positivity_gap(b, a).min()) for b, a in draws)
    suite = "positivity_alpha_pos" if alpha_positive else "positivity_alpha_zero"
    return {"suite": suite, "samples": samples, "min_gap": worst}


def sweep_bound(condition: str, samples: int, seed: int) -> dict:
    """Minimum lower-bound gap over admissible states for one condition.

    For the coupled conditions the explicit constant starts at ``C0`` and
    doubles until the sweep passes, recording the value actually used.
    """
    fn = {"A": bound_A, "B": bound_B, "C": bound_C, "D": bound_D}[condition]
    c0 = C0
    while True:
        worst = min(float((fn(b, c0) if condition in ("C", "D") else fn(b)).min())
                    for b, _ in _sweep_states(samples, seed, condition))
        out = {"suite": f"bound_{condition}", "samples": samples, "min_gap": worst}
        if condition in ("C", "D"):
            out["chosen_constants"] = {"c0": c0}
        if worst >= GAP_TOL or condition in ("A", "B") or c0 >= 1024:
            return out
        c0 *= 2.0


def sweep_term_II(samples: int, seed: int) -> dict:
    """Closed-form term II against the product-curvature contraction, every direction.

    Term II reads lambda, K^g and K^h alone: a batch draws them as a
    condition-None draw does, and nothing else.
    """
    worst = 0.0
    for rng, m, n, rows in _sweep_shapes(samples, seed):
        lam = _lambdas(rng, m, n, rows)
        kg, kh = (_sym_tables(rng, rows, d, -1.0, 1.0) for d in (m, min(m, n)))
        diff = _term_II(lam, c_of(lam), kg, kh) - _term_II_product(n, lam, kg, kh)
        worst = max(worst, float(abs(diff).max()))
    return {"suite": "term_II_oracle", "samples": samples, "max_abs_diff": worst}


def sweep_algebra(samples: int, seed: int) -> dict:
    """Batched exact identities of the S/C/Theta algebra on random profiles.

    Checks S^2 + C^2 = 1, the keystone 2 Theta_ijji S_ii = Theta^2 + C_jj^2
    - C_ii^2, the weighted identity C_11^2 S_22 + C_22^2 S_11 = 2(l1^2+l2^2)
    Theta/((1+l1^2)(1+l2^2)), and the equality of the pair-sum eigenvalues
    with the spectrum of the wedge form of Theta.  A batch of the sweep's
    shape (m, n) draws m singular values per row.
    """
    worst = {"pythagoras": 0.0, "keystone": 0.0, "weighted": 0.0, "wedge": 0.0}
    for rng, m, _, rows in _sweep_shapes(samples, seed):
        lam = np.sort(rng.uniform(0, 5, size=(rows, m)), axis=1)[:, ::-1]
        s, c = s_of(lam), c_of(lam)
        worst["pythagoras"] = max(worst["pythagoras"], float(abs(s**2 + c**2 - 1).max()))

        iu, ju = np.triu_indices(m, k=1)
        th = s[:, iu] + s[:, ju]
        key = 2 * th * s[:, iu] - (th**2 + c[:, ju] ** 2 - c[:, iu] ** 2)
        worst["keystone"] = max(worst["keystone"], float(abs(key).max()))

        l1, l2 = lam[:, 0], lam[:, 1]
        lhs = c[:, 0] ** 2 * s[:, 1] + c[:, 1] ** 2 * s[:, 0]
        rhs = 2 * (l1**2 + l2**2) * (s[:, 0] + s[:, 1]) / ((1 + l1**2) * (1 + l2**2))
        worst["weighted"] = max(worst["weighted"], float(abs(lhs - rhs).max()))

        eigs = np.sort(np.linalg.eigvalsh(theta_wedge_matrices(s)), axis=1)
        worst["wedge"] = max(worst["wedge"], float(abs(eigs - np.sort(th, axis=1)).max()))
    return {"suite": "profile_algebra", "samples": samples, **worst}


def sweep_gradient_formula(samples: int, seed: int) -> dict:
    """(1/2)|grad Theta|^2 of ``grad_theta_sq`` against singular-value perturbation.

    Computed without C: in the graph frame the second fundamental form has
    B^i_ik = A[i,i,k] (1 + lambda_i^2) sqrt(1 + lambda_k^2), Theta_1221 =
    s(lambda_1) + s(lambda_2) with s(lambda) = (1 - lambda^2)/(1 + lambda^2),
    and the singular values move along e_k by B^i_ik / sqrt(1 + lambda_k^2),
    so e_k Theta = sum_{i=1,2} s'(lambda_i) B^i_ik / sqrt(1 + lambda_k^2)
    with s'(lambda) = -4 lambda / (1 + lambda^2)^2.
    """
    worst = 0.0
    for b, _ in _sweep_states(samples, seed):
        lam, root = b.lam[:, :2, None], np.sqrt(1.0 + b.lam[:, None, :] ** 2)
        big_b = _a_diag(b) * (1.0 + lam**2) * root
        e_theta = np.sum(-4.0 * lam / (1.0 + lam**2) ** 2 * big_b / root, axis=1)
        diff = 0.5 * grad_theta_sq(b) - 0.5 * np.sum(e_theta**2, axis=1)
        worst = max(worst, float(abs(diff).max()))
    return {"suite": "gradient_formula", "samples": samples, "max_abs_diff": worst}
