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
        margin: float = 1e-9,
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
        if normals is None:
            if m > _CONVERT_MAX_DIM:
                raise ValueError(
                    f"dimension {m} > {_CONVERT_MAX_DIM}: supply both representations"
                )
            # facet normals of C = extreme rays of the dual cone {y : G^T y >= 0}
            normals = _unit_rows(_extreme_rays(generators.T))
        if generators is None:
            if m > _CONVERT_MAX_DIM:
                raise ValueError(
                    f"dimension {m} > {_CONVERT_MAX_DIM}: supply both representations"
                )
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
        self._is_orthant = self._detect_orthant()

    def _detect_orthant(self) -> bool:
        # orthant iff the halfspace rows are a permutation of the identity rows
        n = self.normals
        if n.shape != (self.dim, self.dim):
            return False
        rounded = np.where(np.abs(n) < 1e-12, 0.0, n)
        return bool(
            np.all((np.abs(rounded - 1.0) < 1e-12) | (np.abs(rounded) < 1e-12))
            and np.all(np.sum(np.abs(rounded - 1.0) < 1e-12, axis=0) == 1)
            and np.all(np.sum(np.abs(rounded - 1.0) < 1e-12, axis=1) == 1)
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def orthant(cls, m: int, margin: float = 1e-9) -> "OrderingCone":
        """The nonnegative orthant of dimension m, the default ordering cone."""
        return cls(np.eye(m), np.eye(m), margin)

    @classmethod
    def from_dict(cls, spec: dict) -> "OrderingCone":
        """Problem-file cone block: {"orthant": m} or row arrays, one ray or
        inward facet normal per row."""
        if "orthant" in spec:
            return cls.orthant(int(spec["orthant"]), margin=spec.get("margin", 1e-9))
        gens = spec.get("generators")
        if gens is not None:
            gens = np.atleast_2d(np.asarray(gens, dtype=float)).T  # rows -> columns
        return cls(
            normals=spec.get("normals"),
            generators=gens,
            margin=spec.get("margin", 1e-9),
        )

    def to_dict(self) -> dict:
        if self._is_orthant:
            return {"orthant": self.dim}
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
        return np.all(v @ self.normals.T >= -self.tol, axis=-1)

    def strictly_contains(self, v) -> bool:
        """v in int C: N v > margin * ||v|| componentwise (false at v = 0)."""
        return bool(self.strictly_contains_many(v))

    def strictly_contains_many(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        self._check_dim(v)
        thresh = self.margin * np.linalg.norm(v, axis=-1, keepdims=True)
        return np.all(v @ self.normals.T > thresh, axis=-1)

    # -- induced orders ---------------------------------------------------------

    def leq(self, x, y) -> bool:
        """x <=_C y, i.e. y - x in C."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            raise DimensionMismatchError("order comparison of different dimensions")
        return self.contains(y - x)

    def lt(self, x, y) -> bool:
        """x <_C y, i.e. y - x in int C."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            raise DimensionMismatchError("order comparison of different dimensions")
        return self.strictly_contains(y - x)

    def validate_e(self, e) -> bool:
        """True iff e >_C 0, the admissibility requirement on the e vector."""
        return self.strictly_contains(e)

    # -- dual and diagnostics ----------------------------------------------------

    @property
    def dual_generators(self) -> np.ndarray:
        """Generators of the dual cone C* = {y : y.v >= 0 for all v in C}.

        For C = {v : N v >= 0} these are exactly the rows of N.
        """
        return self.normals

    @property
    def is_orthant(self) -> bool:
        return self._is_orthant

    def generator_residual(self, v) -> float:
        """Distance of v to the generator cone, via nonnegative least squares.

        Near-zero residual certifies membership in the generator representation;
        used to audit consistency of the two stored representations.
        """
        from scipy.optimize import nnls

        v = np.asarray(v, dtype=float)
        self._check_dim(v)
        _, res = nnls(self.generators, v)
        return float(res)

    def __repr__(self) -> str:
        kind = "orthant" if self._is_orthant else "polyhedral"
        return f"OrderingCone({kind}, dim={self.dim}, facets={self.normals.shape[0]})"
