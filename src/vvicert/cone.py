"""Polyhedral ordering cones and the partial orders they induce.

A cone C here is closed, pointed, convex, with nonempty interior, stored in
both a generator form (columns are extreme rays) and a halfspace form
C = {v : N v >= 0} with unit-norm rows. Every order test is a finite set of
linear inequalities:

    x <=_C y  iff  y - x in C          (membership up to an absolute tol)
    x <_C  y  iff  y - x in int C      (membership with a relative margin)

For dimensions up to 4 a missing representation is derived by ray/facet
enumeration; in higher dimension both must be supplied.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np

from ._alt import interior_witness
from .errors import DimensionMismatchError

__all__ = ["OrderingCone"]

_CONVERT_MAX_DIM = 4
# absolute tolerance of the closed-cone test N v >= -CONE_TOL
CONE_TOL = 1e-9
# relative margin of the open-cone test N v > margin * ||v||
DEFAULT_MARGIN = 1e-9
# largest dimension whose order tests may read the columns of v directly when
# N permutes the identity: np.linalg.norm sums 8 or more squares pairwise,
# which rounds otherwise than a left-to-right sum
_COLUMN_TEST_MAX_DIM = 7


def _unit_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("zero row/ray in cone description")
    return a / norms


def _dedupe_rays(rays: list, tol: float = 1e-9) -> np.ndarray:
    out = []
    for r in rays:
        r = r / np.linalg.norm(r)
        if not any(np.linalg.norm(r - q) <= tol for q in out):
            out.append(r)
    return np.array(out)


def _extreme_rays(B: np.ndarray) -> np.ndarray:
    """Extreme rays of {v : B v >= 0} for a pointed cone, dimension <= 4.

    Classic facet-intersection enumeration: every extreme ray of a pointed
    m-dimensional polyhedral cone lies on m-1 linearly independent active
    constraints.
    """
    m = B.shape[1]
    if m == 1:
        lo = np.min(B[:, 0])
        hi = np.max(B[:, 0])
        rays = []
        if lo >= 0:
            rays.append(np.array([1.0]))
        if hi <= 0:
            rays.append(np.array([-1.0]))
        if not rays:
            raise ValueError("cone reduces to the origin (not full dimensional)")
        return np.array(rays)
    rays = []
    for idx in combinations(range(B.shape[0]), m - 1):
        # rank m - 1 leaves a null line, spanned by the last right singular vector
        _, sv, vt = np.linalg.svd(B[list(idx)])
        if sv[-1] <= 1e-10:
            continue
        d = vt[-1]
        prod = B @ d
        if np.all(prod >= -1e-9):
            rays.append(d)
        elif np.all(prod <= 1e-9):
            rays.append(-d)
    if not rays:
        raise ValueError("no extreme rays found; cone may be empty or not pointed")
    return _dedupe_rays(rays)


class OrderingCone:
    """Closed pointed convex polyhedral cone with nonempty interior."""

    def __init__(
        self,
        normals: Optional[np.ndarray] = None,
        generators: Optional[np.ndarray] = None,
        margin: float = DEFAULT_MARGIN,
    ):
        if normals is None and generators is None:
            raise ValueError("supply normals (rows) and/or generators (columns)")
        if normals is not None:
            normals = _unit_rows(np.atleast_2d(np.asarray(normals, dtype=float)))
            m = normals.shape[1]
        if generators is not None:
            generators = np.atleast_2d(np.asarray(generators, dtype=float))
            m = generators.shape[0]
            generators = _unit_rows(generators.T).T
        if (normals is None or generators is None) and m > _CONVERT_MAX_DIM:
            raise ValueError(f"dimension {m} > {_CONVERT_MAX_DIM}: supply both representations")
        if normals is None:
            # facet normals of C = extreme rays of the dual cone {y : G^T y >= 0}
            normals = _unit_rows(_extreme_rays(generators.T))
        if generators is None:
            generators = _unit_rows(_extreme_rays(normals)).T

        if normals.shape[1] != m or generators.shape[0] != m:
            raise DimensionMismatchError("normals and generators disagree on dimension")
        if np.linalg.matrix_rank(normals, tol=1e-10) < m:
            raise ValueError("cone is not pointed (normal matrix is rank deficient)")

        self.dim = m
        self.normals = normals
        self.generators = generators
        self.margin = float(margin)
        self.tol = CONE_TOL
        self.interior_witness = interior_witness(normals, self.margin)
        # read-only: the cached choices and every memo keyed by the cone rest on it
        for a in (self.normals, self.generators, self.interior_witness):
            a.setflags(write=False)
        self._is_orthant = self._detect_orthant()
        self._column_test = self._detect_column_test()

    def _detect_orthant(self) -> bool:
        # orthant iff the halfspace rows are a permutation of the identity rows
        n = self.normals
        if n.shape != (self.dim, self.dim):
            return False
        rounded = np.where(np.abs(n) < 1e-12, 0.0, n)
        one = np.abs(rounded - 1.0) < 1e-12
        return bool(
            np.all(one | (np.abs(rounded) < 1e-12))
            and np.all(one.sum(axis=0) == 1)
            and np.all(one.sum(axis=1) == 1)
        )

    def _detect_column_test(self) -> bool:
        """True when v @ N.T holds the columns of v exactly: N is a permutation
        of the identity with entries exactly 0.0 or 1.0 (not _detect_orthant's
        1e-12 test), the dimension is at most _COLUMN_TEST_MAX_DIM, and the
        margin is not negative, so that a row with an infinite entry fails
        the open test as it does through the NaN that the product leaves."""
        n = self.normals
        return bool(
            n.shape == (self.dim, self.dim)
            and self.dim <= _COLUMN_TEST_MAX_DIM
            and self.margin >= 0.0
            and np.all((n == 0.0) | (n == 1.0))
            and np.all(n.sum(axis=0) == 1.0)
            and np.all(n.sum(axis=1) == 1.0)
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def orthant(cls, m: int, margin: float = DEFAULT_MARGIN) -> "OrderingCone":
        """The nonnegative orthant of dimension m, the default ordering cone."""
        return cls(np.eye(m), np.eye(m), margin)

    @classmethod
    def from_dict(cls, spec: dict) -> "OrderingCone":
        """Problem-file cone block: {"orthant": m} or row arrays, one ray or
        inward facet normal per row."""
        if "orthant" in spec:
            return cls.orthant(int(spec["orthant"]), margin=spec.get("margin", DEFAULT_MARGIN))
        gens = spec.get("generators")
        if gens is not None:
            gens = np.atleast_2d(np.asarray(gens, dtype=float)).T  # rows -> columns
        return cls(
            normals=spec.get("normals"),
            generators=gens,
            margin=spec.get("margin", DEFAULT_MARGIN),
        )

    def to_dict(self) -> dict:
        if self._is_orthant:
            # the margin only when it is not the default, so the usual orthant
            # stays the bare {"orthant": m}
            if self.margin == DEFAULT_MARGIN:
                return {"orthant": self.dim}
            return {"orthant": self.dim, "margin": self.margin}
        return {
            "normals": self.normals.tolist(),
            "generators": self.generators.T.tolist(),
            "margin": self.margin,
        }

    # -- membership ------------------------------------------------------------

    def _check_dim(self, v: np.ndarray):
        if v.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"vector of dimension {v.shape[-1]} against cone of dimension {self.dim}"
            )

    def contains(self, v) -> bool:
        """v in C, up to the absolute tolerance: N v >= -CONE_TOL componentwise."""
        return bool(self.contains_many(v))

    def contains_many(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        self._check_dim(v)
        if not self._column_test:
            return np.all(v @ self.normals.T >= -self.tol, axis=-1)
        ok = v[..., 0] >= -self.tol
        for k in range(1, self.dim):
            ok &= v[..., k] >= -self.tol
        if self.dim > 1:
            # v @ I is NaN off the column of an infinite entry (inf * 0)
            for k in range(self.dim):
                ok &= v[..., k] < np.inf
        return ok

    def strictly_contains(self, v) -> bool:
        """v in int C: N v > margin * ||v|| componentwise (false at v = 0)."""
        return bool(self.strictly_contains_many(v))

    def strictly_contains_many(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        self._check_dim(v)
        if not self._column_test:
            thresh = self.margin * np.linalg.norm(v, axis=-1, keepdims=True)
            return np.all(v @ self.normals.T > thresh, axis=-1)
        # the squares summed left to right, as np.linalg.norm sums up to 7;
        # an infinite or NaN entry makes the threshold inf or NaN
        sq = v[..., 0] * v[..., 0]
        for k in range(1, self.dim):
            sq = sq + v[..., k] * v[..., k]
        thresh = self.margin * np.sqrt(sq)
        ok = v[..., 0] > thresh
        for k in range(1, self.dim):
            ok &= v[..., k] > thresh
        return ok

    def validate_e(self, e) -> bool:
        """True iff e >_C 0, the admissibility requirement on the e vector."""
        return self.strictly_contains(e)

    # -- diagnostics -------------------------------------------------------------

    @property
    def is_orthant(self) -> bool:
        return self._is_orthant

    def __repr__(self) -> str:
        kind = "orthant" if self._is_orthant else "polyhedral"
        return f"OrderingCone({kind}, dim={self.dim}, facets={self.normals.shape[0]})"
