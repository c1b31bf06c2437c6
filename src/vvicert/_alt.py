"""Theorems of the alternative: every linear program of vvicert, each behind a
rank test.

Gordan's alternative, the strictly interior multiplier of vector criticality
and the interior witness of an ordering cone are linear-algebra questions
first (Mangasarian, *Nonlinear Programming*, 1969, ch. 2). An SVD of A gives
the null space of A^T, and its dimension settles most instances in closed
form. The LP (HiGHS through ``scipy.optimize.linprog``, imported on first
use) runs only where the rank is in doubt, where the null space has more
than one dimension, or where a closed-form certificate fails the same
re-verification an LP certificate must pass.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateError

# singular values relative to the largest: above RANK_NONZERO a value counts
# as nonzero, at or below RANK_ZERO as zero; one in between leaves the rank
# in doubt and the LP decides
RANK_NONZERO = 1e-6
RANK_ZERO = 1e-9
# an alternative-2 certificate y must be longer than this
Y_NONZERO = 1e-9

_counts: ContextVar[Optional[dict]] = ContextVar("vvicert_alt_counts", default=None)


@contextmanager
def counting(into: dict):
    """Count into ``into``, while the block runs, the decisions the rank test
    settled alone (``rankDecided``) and the LPs solved (``lpSolved``)."""
    into.update(rankDecided=0, lpSolved=0)
    token = _counts.set(into)
    try:
        yield
    finally:
        _counts.reset(token)


def _count(key: str) -> None:
    counts = _counts.get()
    if counts is not None:
        counts[key] += 1


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use."""
    from scipy.optimize import linprog as highs_linprog

    _count("lpSolved")
    return highs_linprog(*args, **kwargs)


def null_basis(A: np.ndarray) -> Optional[np.ndarray]:
    """Orthonormal basis (columns) of the null space of A^T, or None when a
    singular value of A lies between RANK_ZERO and RANK_NONZERO relative to
    the largest."""
    u, sigma, _ = np.linalg.svd(A, full_matrices=True)
    if sigma.size == 0 or sigma[0] == 0.0:
        return u
    ratio = sigma / sigma[0]
    if np.any((ratio > RANK_ZERO) & (ratio <= RANK_NONZERO)):
        return None
    return u[:, int(np.count_nonzero(ratio > RANK_NONZERO)):]


def interior_witness(normals: np.ndarray, margin: float) -> np.ndarray:
    """Unit vector w with N w > margin for the cone {v : N v >= 0}.

    A simplicial cone (square N) takes N^-1 1, which has equal slack on every
    facet; otherwise the LP max s subject to N v >= s, -1 <= v <= 1,
    0 <= s <= 1 decides.
    """
    h, m = normals.shape
    if h == m:
        w = np.linalg.solve(normals, np.ones(m))
    else:
        c = np.zeros(m + 1)
        c[-1] = -1.0
        a_ub = np.hstack([-normals, np.ones((h, 1))])
        bounds = [(-1.0, 1.0)] * m + [(0.0, 1.0)]
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(h), bounds=bounds, method="highs")
        if not res.success or -res.fun <= 2.0 * margin:
            raise ValueError("cone has empty interior (no strictly interior witness)")
        w = res.x[:m]
    w = w / np.linalg.norm(w)
    if not np.all(normals @ w > margin):
        raise ValueError("cone interior too thin for the strictness margin")
    return w


def strict_mu(A: np.ndarray, normals: np.ndarray):
    """max s over mu with A^T mu = 0, N mu >= s, a.mu = 1, -1 <= s <= 1, where
    a, the sum of N's rows, is interior to C*. Returns (mu, s) at the optimum,
    or (None, None) when infeasible.

    A positive optimum certifies a strictly interior mu annihilating A^T.
    Since N mu >= s sums to a.mu = 1, s <= 1 never binds.
    """
    m = A.shape[0]
    h = normals.shape[0]
    a = normals.sum(axis=0)
    basis = null_basis(A)
    if basis is not None and basis.shape[1] == 0:
        _count("rankDecided")
        return None, None
    if basis is not None and basis.shape[1] == 1:
        v = basis[:, 0]
        av = float(a @ v)
        if abs(av) > RANK_NONZERO * np.linalg.norm(a):
            # the null space is a line, so a.mu = 1 leaves one mu
            _count("rankDecided")
            mu = v / av
            s = float(np.min(normals @ mu))
            return (None, None) if s < -1.0 else (mu, s)

    # the feasible mu do not depend on the scale of A; HiGHS's absolute
    # tolerances do, so the LP sees a unit-scale copy
    peak = float(np.max(np.abs(A)))
    if peak > 0.0:
        A = A / peak
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-normals, np.ones((h, 1))])
    a_eq = np.vstack(
        [np.hstack([A.T, np.zeros((A.shape[1], 1))]), np.hstack([a, [0.0]])]
    )
    b_eq = np.concatenate([np.zeros(A.shape[1]), [1.0]])
    bounds = [(None, None)] * m + [(-1.0, 1.0)]
    res = linprog(
        c, A_ub=a_ub, b_ub=np.zeros(h), A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if not res.success:
        return None, None
    return res.x[:m], float(res.x[-1])


@dataclass
class GordanCertificate:
    """Exactly one of the two alternatives, with a re-verified certificate.

    alternative 1: x with A x <_C 0.
    alternative 2: nonzero y >=_C 0 with A^T y = 0 (sum-normalized for the
    orthant; for general cones y = N^T z with z >= 0 in dual coordinates).
    """

    alternative: int
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    dual_coords: Optional[np.ndarray] = None
    strictness: float = 0.0

    def to_dict(self) -> dict:
        out = {"alternative": self.alternative, "strictness": float(self.strictness)}
        if self.x is not None:
            out["x"] = self.x.tolist()
        if self.y is not None:
            out["y"] = self.y.tolist()
        if self.dual_coords is not None:
            out["dualCoords"] = self.dual_coords.tolist()
        return out


def _alternative_one(A: np.ndarray, x: np.ndarray, t: float, cone) -> bool:
    return t > 1e-7 and cone.strictly_contains(-A @ x)


def _alternative_two(A: np.ndarray, y: np.ndarray) -> bool:
    scale = 1.0 + float(np.max(np.abs(A)))
    return np.max(np.abs(A.T @ y)) <= 1e-7 * scale and np.linalg.norm(y) > Y_NONZERO


def _certificate_two(y: np.ndarray, z: np.ndarray, cone) -> GordanCertificate:
    if cone.is_orthant:
        y = y / np.sum(y)
    return GordanCertificate(2, y=y, dual_coords=z, strictness=float(np.linalg.norm(y)))


def gordan(A: np.ndarray, cone) -> GordanCertificate:
    """Gordan's alternative for a unit-scale A against the cone's normals N:
    x with N A x < 0 (strictness min(-N A x)), or z >= 0 with sum z = 1 and
    A^T y = 0 for y = N^T z. Closed forms come first, each aiming A x at a
    target u in -int C that lies in the range of A:

    - A of full row rank: u = -w for the cone's interior witness w;
    - a one-dimensional null space of A^T spanned by v, with a simplicial
      cone: z = N^-T v. If z >= 0 for one sign, that z is alternative 2.
      Otherwise z has entries of both signs, and some p < 0 has z.p = 0; then
      u = N^-1 p is orthogonal to v, so it lies in the range of A.

    Then x = A^+ u, scaled to |x|_inf = 1. A closed form that fails
    re-verification falls through to the pair of LPs. Numerically ambiguous
    instances raise DegenerateError.
    """
    normals = cone.normals
    M = normals @ A  # A x in -int C  iff  M x < 0 componentwise
    h, n = M.shape
    basis = null_basis(A)
    target = None
    if basis is not None and basis.shape[1] == 0:
        target = -cone.interior_witness
    elif basis is not None and basis.shape[1] == 1 and h == A.shape[0]:
        z = np.linalg.solve(normals.T, basis[:, 0])
        z = -z if np.sum(z) < 0.0 else z
        if np.all(z >= 0.0):
            z = z / np.sum(z)
            y = normals.T @ z
            if _alternative_two(A, y):
                _count("rankDecided")
                return _certificate_two(y, z, cone)
        else:
            # weights on the two sign classes of z balance z.p to 0
            pos, neg = float(np.sum(z[z > 0.0])), float(-np.sum(z[z < 0.0]))
            p = -np.where(z > 0.0, neg, np.where(z < 0.0, pos, min(pos, neg)))
            target = np.linalg.solve(normals, p)
    if target is not None:
        x = np.linalg.lstsq(A, target, rcond=None)[0]
        x = x / np.max(np.abs(x))
        t = float(np.min(-(M @ x)))
        if _alternative_one(A, x, t, cone):
            _count("rankDecided")
            return GordanCertificate(1, x=x, strictness=t)

    # LP1: max t subject to M x + t <= 0, |x| <= 1, 0 <= t <= 1
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([M, np.ones((h, 1))])
    bounds = [(-1.0, 1.0)] * n + [(0.0, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(h), bounds=bounds, method="highs")
    if not res.success:
        raise DegenerateError(f"alternative-1 LP failed: {res.message}")
    t_star = float(res.x[-1])
    if t_star > 1e-7:
        x = res.x[:n]
        if not _alternative_one(A, x, t_star, cone):
            raise DegenerateError(
                f"alternative-1 certificate failed re-verification (t* = {t_star:.3e})"
            )
        return GordanCertificate(1, x=x, strictness=t_star)

    # LP2: find z >= 0, sum z = 1, with (M^T) z = 0; then y = N^T z
    a_eq = np.vstack([M.T, np.ones((1, h))])
    b_eq = np.concatenate([np.zeros(n), [1.0]])
    res2 = linprog(
        np.zeros(h), A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * h, method="highs"
    )
    if not res2.success:
        raise DegenerateError(
            f"both alternatives numerically ambiguous (t* = {t_star:.3e}; "
            f"alternative-2 LP: {res2.message})"
        )
    z = res2.x
    y = normals.T @ z
    if not _alternative_two(A, y):
        raise DegenerateError("alternative-2 certificate failed re-verification")
    return _certificate_two(y, z, cone)
