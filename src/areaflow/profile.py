"""Singular-value analysis of a map differential and the S/C/Theta algebra.

The singular values lambda_i of df (square roots of the eigenvalues of the
pullback metric f*h with respect to g) drive everything:

    S_ii     = (1 - lambda_i^2) / (1 + lambda_i^2)
    C_ii     = 2 lambda_i / (1 + lambda_i^2)        (so S_ii^2 + C_ii^2 = 1)
    Theta    eigenvalues = {S_ii + S_jj : i < j}

A map is distance non-increasing iff all S_ii >= 0 and area non-increasing
iff all Theta eigenvalues are >= 0 (equivalently lambda_1 lambda_2 <= 1 for
the two largest singular values).  The global monitor of a flow is the
infimum over sample points of the smallest Theta eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .curvature import SymBilinear, _wedge_index, kulkarni_nomizu_comp

EIG_CLIP = 1e-12  # pullback eigenvalues in [-EIG_CLIP, 0] clip to zero


# |lambda| past these caps reads as the cap.  In S: from lambda^2 = 2^54 on, S
# is -1 to the bit, so no finite lambda^2 changes, and where lambda^2 would
# overflow (|lambda| past about 1.3e154, or infinite) S takes its limit -1,
# not inf / inf.  In C: lambda^2 overflows long before, so C is 0 (its limit)
# there either way, and 2 lambda stays finite.
S_LAMBDA_CAP = 1e150
C_LAMBDA_CAP = 1e300


def s_of(lam):
    """S value of a singular value: (1 - lam^2)/(1 + lam^2), vectorized."""
    sq = np.minimum(np.abs(np.asarray(lam, dtype=float)), S_LAMBDA_CAP) ** 2
    return (1.0 - sq) / (1.0 + sq)


def c_of(lam):
    """C value of a singular value: 2 lam/(1 + lam^2), vectorized; 0 where
    lam^2 overflows, without a warning."""
    lam = np.maximum(np.minimum(np.asarray(lam, dtype=float), C_LAMBDA_CAP), -C_LAMBDA_CAP)
    with np.errstate(over="ignore"):
        return 2.0 * lam / (1.0 + lam**2)


@dataclass(frozen=True)
class SingularProfile:
    """Ordered singular values of a differential with derived S/C/Theta data.

    lam is nonincreasing with lam_i = 0 for i > min(m, n); theta_eigs holds
    S_ii + S_jj over pairs i < j in lexicographic order.
    """

    m: int
    n: int
    lam: np.ndarray
    s_diag: np.ndarray = field(init=False)
    c_diag: np.ndarray = field(init=False)
    theta_eigs: np.ndarray = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 1 or lam.size != self.m:
            raise ValueError("need one singular value per domain dimension")
        if not np.isfinite(lam).all():
            raise ValueError("singular values must be finite")
        if (lam < 0).any():
            raise ValueError("singular values must be nonnegative")
        if (np.diff(lam) > 1e-12).any():
            raise ValueError("singular values must be nonincreasing")
        if (lam[self.ell:] != 0).any():
            raise ValueError(f"lambda_i must vanish for i > min(m,n) = {self.ell}")
        s = s_of(lam)
        iu, ju = np.triu_indices(self.m, k=1)
        for name, value in (("lam", lam), ("s_diag", s), ("c_diag", c_of(lam)),
                            ("theta_eigs", s[iu] + s[ju])):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_lambdas(lam: Sequence[float], m: int | None = None, n: int | None = None):
        """The profile of lam, with m and n defaulting to its length."""
        lam = np.asarray(lam, dtype=float)
        return SingularProfile(m=lam.size if m is None else m,
                               n=lam.size if n is None else n, lam=lam)

    @property
    def ell(self) -> int:
        return min(self.m, self.n)

    def theta_min(self) -> float:
        """Smallest Theta eigenvalue: S_11 + S_22 for the ordered profile."""
        if self.theta_eigs.size == 0:
            raise ValueError("Theta needs m >= 2")
        return float(self.theta_eigs.min())


@dataclass(frozen=True)
class MapClass:
    distance_nonincreasing: bool
    distance_decreasing: bool
    area_nonincreasing: bool
    area_decreasing: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def classify(p: SingularProfile) -> MapClass:
    """Distance/area monotonicity flags of a profile.

    distance non-increasing: lambda_i <= 1 for all i; area non-increasing:
    lambda_i lambda_j <= 1 for all i != j, which by the ordering is just
    lambda_1 lambda_2 <= 1.  Strict variants use strict inequalities.
    """
    lam = p.lam
    dn = bool((lam <= 1.0).all())
    dd = bool((lam < 1.0).all())
    if p.m >= 2:
        prod = float(lam[0] * lam[1])
        an, ad = prod <= 1.0, prod < 1.0
    else:
        an = ad = True  # no pairs
    return MapClass(dn, dd, an, ad)


def singular_profile(df, g_m: SymBilinear | None = None,
                     h_n: SymBilinear | None = None) -> SingularProfile:
    """Singular profile of an n x m differential between metrics g and h."""
    p, _, _ = singular_bases(df, g_m, h_n)
    return p


def singular_bases(df, g_m: SymBilinear | None = None, h_n: SymBilinear | None = None):
    """Profile plus singular bases: df u_i = lambda_i v_i for i <= min(m,n).

    The pullback df^T h df is symmetrized against g via the inverse metric
    square root, so u columns are g-orthonormal and v columns h-orthonormal;
    zero-lambda directions are completed deterministically (eigenvector order
    from the symmetric eigensolver, then Gram-Schmidt over coordinate
    vectors for the target complement).
    """
    df = np.asarray(df, dtype=float)
    if df.ndim != 2:
        raise ValueError("df must be an n x m matrix")
    n, m = df.shape
    g = SymBilinear.identity(m) if g_m is None else g_m
    h = SymBilinear.identity(n) if h_n is None else h_n
    if g.dim != m or h.dim != n:
        raise ValueError("metric dimensions must match df")
    if not g.is_metric() or not h.is_metric():
        raise ValueError("metrics must be positive definite")

    gw, gv = np.linalg.eigh(g.comp)
    g_isqrt = (gv / np.sqrt(gw)) @ gv.T
    pull = df.T @ h.comp @ df
    w, q = np.linalg.eigh(g_isqrt @ pull @ g_isqrt)
    if w.min() < -EIG_CLIP:
        raise ValueError(f"pullback metric has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)[::-1]
    q = q[:, ::-1]
    lam = np.sqrt(w)
    u = g_isqrt @ q  # g-orthonormal domain basis

    # target basis: images of stretched directions, then a deterministic
    # h-orthonormal completion
    hw, hv = np.linalg.eigh(h.comp)
    v_cols = []
    for i in range(min(m, n)):
        if lam[i] > 1e-10:
            v_cols.append(df @ u[:, i] / lam[i])
    basis_pool = list(np.eye(n).T)
    for cand in basis_pool:
        if len(v_cols) == n:
            break
        vec = cand.astype(float)
        for b in v_cols:
            vec = vec - (b @ h.comp @ vec) * b
        nrm = np.sqrt(vec @ h.comp @ vec)
        if nrm > 1e-8:
            v_cols.append(vec / nrm)
    v = np.column_stack(v_cols)
    lam_m = lam.copy()
    lam_m[min(m, n):] = 0.0
    profile = SingularProfile.from_lambdas(lam_m, m=m, n=n)
    return profile, u, v


@dataclass(frozen=True)
class GraphFrame:
    """Adapted orthonormal frame on the graph of a map inside (M x N, g + h).

    Rows of ``e`` span the tangent space of the graph, rows of ``nu`` its
    normal space; both live in product coordinates (domain block first):

        e_i  = (u_i + lambda_i v_i) / sqrt(1 + lambda_i^2)
        nu_a = (-lambda_a u_a + v_a) / sqrt(1 + lambda_a^2)
    """

    e: np.ndarray
    nu: np.ndarray


def graph_frame(p: SingularProfile, u, v,
                g_m: SymBilinear | None = None,
                h_n: SymBilinear | None = None) -> GraphFrame:
    """Build the adapted graph frame from singular bases.

    u (m x m) and v (n x n) must be orthonormal for g and h respectively;
    lambda_a = 0 for a > min(m,n) so trailing normal vectors are pure target
    directions.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    m, n = p.m, p.n
    g = SymBilinear.identity(m) if g_m is None else g_m
    h = SymBilinear.identity(n) if h_n is None else h_n
    if u.shape != (m, m) or v.shape != (n, n):
        raise ValueError("basis shape mismatch")
    if not abs(u.T @ g.comp @ u - np.eye(m)).max() <= 1e-8:
        raise ValueError("u is not g-orthonormal")
    if not abs(v.T @ h.comp @ v - np.eye(n)).max() <= 1e-8:
        raise ValueError("v is not h-orthonormal")

    e, nu = graph_frames(p.lam[None], u, v)
    return GraphFrame(e=e[0], nu=nu[0])


def graph_frames(lam: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Rows e (B, m, m+n) and nu (B, n, m+n) of the graph frames of B profiles.

    lam (B, m) as in ``SingularProfile``; the columns of u (m x m) and v
    (n x n) are the singular bases, shared by all B.
    """
    m, n = len(u), len(v)
    k, rows = min(m, n), len(lam)
    lam = np.pad(lam, ((0, 0), (0, max(0, n - m))))
    norm = np.sqrt(1.0 + lam**2)
    e, nu = np.zeros((rows, m, m + n)), np.zeros((rows, n, m + n))
    e[:, :, :m] = u.T / norm[:, :m, None]
    e[:, :k, m:] = lam[:, :k, None] * v.T[:k] / norm[:, :k, None]
    nu[:, :k, :m] = -lam[:, :k, None] * u.T[:k] / norm[:, :k, None]
    nu[:, :, m:] = v.T / norm[:, :n, None]
    return e, nu


def m_monitor(profiles: Sequence[SingularProfile]) -> float:
    """Infimum over sample points of the smallest Theta eigenvalue."""
    if len(profiles) == 0:
        raise ValueError("m_monitor needs at least one sample profile")
    return min(p.theta_min() for p in profiles)


def hopf_profile(n: int) -> SingularProfile:
    """Singular profile of the Hopf fibration S^{2n+1} -> CP^n.

    A Riemannian submersion from the unit sphere onto the projective space
    normalized to sectional range [1,4]: 2n unit singular values (horizontal
    directions) and one zero (the fiber), so lambda_1 lambda_2 = 1 exactly:
    area non-increasing but not strictly.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lam = np.zeros(2 * n + 1)
    lam[: 2 * n] = 1.0
    return SingularProfile.from_lambdas(lam, m=2 * n + 1, n=2 * n)


def theta_wedge_matrix(p: SingularProfile) -> np.ndarray:
    """Theta = S o eta as a symmetric matrix on the wedge basis {e_i ^ e_j}.

    In the singular frame eta is the identity and S is diagonal; the matrix
    entry for pairs (i<j), (k<l) is Theta(e_i, e_j, e_l, e_k), and the wedge
    basis is orthonormal for (1/2) eta o eta.  Its eigenvalues reproduce
    theta_eigs; this is the brute-force cross-check path, a batch of one of
    ``theta_wedge_matrices``, which computes only those pair entries.
    """
    if p.m < 2:
        raise ValueError("wedge form needs m >= 2")
    return theta_wedge_matrices(p.s_diag[None])[0]


def theta_wedge_matrices(s: np.ndarray) -> np.ndarray:
    """Wedge matrices of Theta = diag(S) o eta with eta = I, one per row of S
    values (B, m): the Kulkarni-Nomizu formula evaluated at the (i<j, k<l)
    pair entries only, (B, m(m-1)/2, m(m-1)/2)."""
    m = s.shape[1]
    return kulkarni_nomizu_comp(s[:, :, None] * np.eye(m), np.eye(m), *_wedge_index(m))
