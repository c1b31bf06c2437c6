"""Theorems of the alternative: every linear program of vvicert, each behind a
rank test.

Gordan's alternative, the strictly interior multiplier of vector criticality
and the interior witness of an ordering cone are linear-algebra questions
first (Mangasarian, *Nonlinear Programming*, 1969, ch. 2). An SVD of A gives
the null space of A^T, and its dimension settles most instances in closed
form. A one-column A (n = 1) is settled in closed form whatever the
dimension of that null space: Gordan's alternative from the signs of N A
under any cone, and the multiplier from a one-dimensional problem in N mu
under a simplicial cone. The LP (HiGHS through ``scipy.optimize.linprog``,
imported on first use) runs only where the rank is in doubt, where the null
space has more than one dimension and A more than one column, where the
multiplier of a one-column A is sought under a non-simplicial cone, or where
a closed-form certificate fails the same re-verification an LP certificate
must pass.

The criticality grid decides many small matrices. It stacks them into one
``np.linalg.svd`` call, whose (u, sigma) for each matrix is bit for bit that
matrix's own, and ranks the whole stack with one ``rank`` call; ``strict_mu``
and ``gordan`` take a matrix's u and rank in place of their own SVD, so that
stacked or alone, a matrix runs the same decision ladder.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateError, DimensionMismatchError

# singular values relative to the largest: above RANK_NONZERO a value counts
# as nonzero, at or below RANK_ZERO as zero; one in between leaves the rank
# in doubt and the LP decides
RANK_NONZERO = 1e-6
RANK_ZERO = 1e-9
# an alternative-2 certificate y must be longer than this
Y_NONZERO = 1e-9
# the smallest positive float
_SMALLEST = float(np.finfo(float).smallest_subnormal)

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


def unit_scale(A: np.ndarray) -> np.ndarray:
    """A divided by its largest absolute entry; a zero A keeps its zeros. A
    vector or a matrix is scaled as a whole, a stack of matrices (the last
    two axes) matrix by matrix, each bit for bit as alone."""
    peak = np.abs(A).max(axis=tuple(range(-min(A.ndim, 2), 0)), keepdims=True)
    # no positive float is below _SMALLEST, so only a zero peak is replaced
    return A / np.maximum(peak, _SMALLEST)


def rank(sigma: np.ndarray) -> np.ndarray:
    """The rank that singular values (descending along the last axis, of one
    matrix or of each matrix of a stack) give: the count above RANK_NONZERO
    relative to the largest, or -1 where one lies between RANK_ZERO and
    RANK_NONZERO. A zero matrix has rank 0."""
    # no positive float is below _SMALLEST, so only a zero matrix's largest
    # value is replaced, by a divisor that keeps its zeros
    ratio = sigma / np.maximum(sigma[..., :1], _SMALLEST)
    r = (ratio > RANK_NONZERO).sum(axis=-1)
    # a value above RANK_ZERO that is not above RANK_NONZERO is in doubt
    in_doubt = (ratio > RANK_ZERO).sum(axis=-1) > r
    return np.where(in_doubt, -1, r)


def null_basis(A: np.ndarray) -> Optional[np.ndarray]:
    """Orthonormal basis (columns) of the null space of A^T, or None when a
    singular value of A lies between RANK_ZERO and RANK_NONZERO relative to
    the largest."""
    u, sigma, _ = np.linalg.svd(A, full_matrices=True)
    return _null_space(u, int(rank(sigma)))


def _null_space(u: np.ndarray, r: int) -> Optional[np.ndarray]:
    """``null_basis`` of the A whose SVD has the left factor u and whose rank
    is r (-1 when in doubt)."""
    return None if r < 0 else u[:, r:]


def check_matrix(A: np.ndarray, m: int) -> None:
    """Raise DimensionMismatchError unless A is a nonempty m x n matrix, m
    the dimension of the cone, and DegenerateError if an entry of A is not
    finite."""
    if A.ndim != 2 or A.shape[0] != m or A.size == 0:
        raise DimensionMismatchError(
            f"matrix of shape {A.shape} against a cone of dimension {m}"
        )
    if not np.all(np.isfinite(A)):
        raise DegenerateError("matrix has a non-finite entry")


def _max_slack(B: np.ndarray):
    """The LP max s over (v, s) subject to B v >= s, |v|_inf <= 1, 0 <= s <= 1."""
    h, m = B.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-B, np.ones((h, 1))])
    bounds = [(-1.0, 1.0)] * m + [(0.0, 1.0)]
    return linprog(c, A_ub=a_ub, b_ub=np.zeros(h), bounds=bounds, method="highs")


def interior_witness(normals: np.ndarray, margin: float) -> np.ndarray:
    """Unit vector w with N w > margin for the cone {v : N v >= 0}.

    A simplicial cone (square N) takes N^-1 1, which has equal slack on every
    facet; otherwise the LP ``_max_slack(N)`` decides.
    """
    h, m = normals.shape
    if h == m:
        w = np.linalg.solve(normals, np.ones(m))
    else:
        res = _max_slack(normals)
        if not res.success or -res.fun <= 2.0 * margin:
            raise ValueError("cone has empty interior (no strictly interior witness)")
        w = res.x[:m]
    w = w / np.linalg.norm(w)
    if not np.all(normals @ w > margin):
        raise ValueError("cone interior too thin for the strictness margin")
    return w


def strict_mu(A: np.ndarray, normals: np.ndarray, svd: Optional[tuple] = None):
    """max s over mu with A^T mu = 0, N mu >= s, a.mu = 1, -1 <= s <= 1, where
    a, the sum of N's rows, is interior to C*. Returns (mu, s) at the optimum,
    with s = min(N mu) of that mu, or (None, None) when infeasible. ``svd``,
    when given, is (u, r) of A from a stacked SVD, its left factor and its
    ``rank``, and replaces A's own SVD.

    A positive optimum certifies a strictly interior mu annihilating A^T.
    Since N mu >= s sums to a.mu = 1, s <= 1 never binds. Closed forms
    decide a null space of dimension 0 or 1 and, under a simplicial cone, a
    one-column A (``_one_column_mu``); the LP decides the rest.
    """
    check_matrix(A, normals.shape[1])
    m = A.shape[0]
    h = normals.shape[0]
    basis = null_basis(A) if svd is None else _null_space(*svd)
    if basis is not None and basis.shape[1] == 0:
        _count("rankDecided")
        return None, None
    a = normals.sum(axis=0)
    if basis is not None and basis.shape[1] == 1:
        v = basis[:, 0]
        av = float(a @ v)
        if abs(av) > RANK_NONZERO * np.linalg.norm(a):
            # the null space is a line, so a.mu = 1 leaves one mu
            _count("rankDecided")
            mu = v / av
            s = float(np.min(normals @ mu))
            return (None, None) if s < -1.0 else (mu, s)
    if basis is not None and A.shape[1] == 1 and h == m:
        _count("rankDecided")
        return _one_column_mu(A[:, 0], normals)

    # the feasible mu do not depend on the scale of A; HiGHS's absolute
    # tolerances do, so the LP sees a unit-scale copy
    A = unit_scale(A)
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
    # HiGHS meets N mu >= s only within its feasibility tolerance, so report
    # the interiority the returned mu actually has
    mu = res.x[:m]
    return mu, float(np.min(normals @ mu))


def _one_column_mu(col: np.ndarray, normals: np.ndarray):
    """``strict_mu`` for a one-column A under a simplicial cone (square N).

    With w = N mu and b = N^-T col the LP reads max min w subject to
    sum w = 1 and b.w = 0. An optimal w is s everywhere except at one
    coordinate k, which takes the remainder 1 - (m - 1) s: the smallest b_k
    when sum b > 0, the largest when sum b < 0 (sum b = 0 gives w = 1/m). Then
    b.w = 0 gives s = b_k / (m b_k - sum b). A positive s needs b of both
    signs; b of one sign gives s <= 0, and a constant nonzero b, or s < -1,
    is infeasible.
    """
    m = normals.shape[0]
    # s does not depend on the scale of col; a subnormal col would lose it
    b = np.linalg.solve(normals.T, unit_scale(col))
    total = float(np.sum(b))
    if total == 0.0:
        w = np.full(m, 1.0 / m)
    else:
        k = int(np.argmin(b)) if total > 0.0 else int(np.argmax(b))
        denominator = m * b[k] - total
        if denominator == 0.0:
            return None, None
        s = float(b[k] / denominator)
        if s < -1.0:
            return None, None
        w = np.full(m, s)
        w[k] = 1.0 - (m - 1) * s
    mu = np.linalg.solve(normals, w)
    return mu, float(np.min(normals @ mu))


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


def _one_column_gordan(A: np.ndarray, col: np.ndarray, cone) -> Optional[GordanCertificate]:
    """Gordan's alternative for a one-column A, where col = N A[:, 0].

    If every entry of col is < 0 (> 0), x = [1] ([-1]) is alternative 1.
    Otherwise z >= 0 with col.z = 0 and sum z = 1 is alternative 2: z = e_k
    at the first exact zero of col, else z on the largest positive and the
    most negative entry, weighted by each other's magnitude. None when the
    certificate fails re-verification.
    """
    if np.all(col < 0.0) or np.all(col > 0.0):
        x = np.array([1.0 if col[0] < 0.0 else -1.0])
        t = float(np.min(-col * x[0]))
        return GordanCertificate(1, x=x, strictness=t) if _alternative_one(A, x, t, cone) else None
    z = np.zeros(col.size)
    zeros = np.flatnonzero(col == 0.0)
    if zeros.size:
        z[zeros[0]] = 1.0
    else:
        i, j = int(np.argmax(col)), int(np.argmin(col))
        z[i], z[j] = -col[j], col[i]
        z = z / (z[i] + z[j])
    y = cone.normals.T @ z
    return _certificate_two(y, z, cone) if _alternative_two(A, y) else None


def gordan(A: np.ndarray, cone, svd: Optional[tuple] = None) -> GordanCertificate:
    """Gordan's alternative for a unit-scale A against the cone's normals N:
    x with N A x < 0 (strictness min(-N A x)), or z >= 0 with sum z = 1 and
    A^T y = 0 for y = N^T z; ``svd``, as in ``strict_mu``, replaces A's own
    SVD. Closed forms come first, each aiming A x at a
    target u in -int C that lies in the range of A:

    - A of full row rank: u = -w for the cone's interior witness w;
    - a one-dimensional null space of A^T spanned by v, with a simplicial
      cone: z = N^-T v. If z >= 0 for one sign, that z is alternative 2.
      Otherwise z has entries of both signs, and some p < 0 has z.p = 0; then
      u = N^-1 p is orthogonal to v, so it lies in the range of A.

    Then x = A^+ u, scaled to |x|_inf = 1. A one-column A that these leave
    undecided, under any cone, is decided from the signs of M = N A
    (``_one_column_gordan``). A closed form that fails re-verification falls
    through to the pair of LPs.
    Numerically ambiguous instances raise DegenerateError.
    """
    normals = cone.normals
    M = normals @ A  # A x in -int C  iff  M x < 0 componentwise
    h, n = M.shape
    basis = null_basis(A) if svd is None else _null_space(*svd)
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
    if basis is not None and n == 1:
        cert = _one_column_gordan(A, M[:, 0], cone)
        if cert is not None:
            _count("rankDecided")
            return cert

    # LP1: max t subject to M x + t <= 0, |x| <= 1, 0 <= t <= 1
    res = _max_slack(-M)
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
