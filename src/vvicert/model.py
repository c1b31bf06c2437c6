"""Piecewise-smooth vector functions, their Clarke Jacobian polytopes, the
Cartesian outer box, displacement kernels, and Lipschitz estimation.

The generalized Jacobian at a point is realized exactly for piecewise-smooth
input as the convex hull of the analytic Jacobians of every piece whose
region, inflated by a small activation tolerance, contains the point. Only
the hull's vertex matrices are stored; downstream checks reduce to vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import exprlang as el
from . import sampling
from .errors import (
    DimensionMismatchError,
    InconsistentPiecesError,
    NoActivePieceError,
    OutOfDomainError,
)

__all__ = [
    "Piece",
    "PiecewiseVectorFn",
    "JacobianPolytope",
    "Kernel",
    "KernelFlags",
    "LipschitzEstimate",
    "lipschitz_estimate",
    "boundary_probes",
    "TOL_ACTIVE",
    "CONTINUITY_TOL",
    "DOMAIN_INSET",
]

# Region activation slack for Jacobian assembly: a piece contributes its
# Jacobian wherever its region holds within this tolerance.
TOL_ACTIVE = 1e-7
# Active pieces must agree on values to within this (the function is a
# continuous selection).
CONTINUITY_TOL = 1e-6
# The open domain is a closed box shrunk by this inset.
DOMAIN_INSET = 1e-9
# Vertex matrices closer than this (max abs difference) are merged.
VERTEX_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class Piece:
    """One smooth selection: a region predicate and m component expressions."""

    region: el.Predicate
    components: tuple
    region_text: str
    component_texts: tuple
    gradients: tuple = field(repr=False, default=())  # m rows of n Exprs


def _compile_piece(region_text: str, component_texts: Sequence[str], n: int, m: int) -> Piece:
    region = el.parse_predicate(region_text, n)
    comps = tuple(el.parse(t, n) for t in component_texts)
    if len(comps) != m:
        raise DimensionMismatchError(
            f"piece has {len(comps)} components, expected {m}"
        )
    grads = tuple(tuple(el.differentiate(c, j) for j in range(n)) for c in comps)
    return Piece(region, comps, region_text, tuple(component_texts), grads)


@dataclass
class JacobianPolytope:
    """Vertex representation of the generalized Jacobian at a query point."""

    vertices: list  # of (m, n) arrays
    point: np.ndarray
    active_pieces: tuple

    def as_array(self) -> np.ndarray:
        return np.stack(self.vertices, axis=0)

    def __len__(self) -> int:
        return len(self.vertices)


class PiecewiseVectorFn:
    """The objective f as an ordered list of (region, smooth components)."""

    def __init__(self, n: int, m: int, domain, pieces: Sequence[Piece]):
        self.n = int(n)
        self.m = int(m)
        self.domain = np.asarray(domain, dtype=float).reshape(self.n, 2)
        if np.any(self.domain[:, 0] >= self.domain[:, 1]):
            raise ValueError("domain box has empty interior")
        self.pieces = list(pieces)
        if not self.pieces:
            raise ValueError("function needs at least one piece")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, spec: dict) -> "PiecewiseVectorFn":
        n = int(spec["n"])
        m = int(spec["m"])
        pieces = [
            _compile_piece(p["region"], p["components"], n, m)
            for p in spec["pieces"]
        ]
        return cls(n, m, spec["domain"], pieces)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "domain": self.domain.tolist(),
            "pieces": [
                {"region": p.region_text, "components": list(p.component_texts)}
                for p in self.pieces
            ],
        }

    def negated(self) -> "PiecewiseVectorFn":
        """-f, by negating every piece's components (so d(-f) = -df piecewise).

        The trees are those the parser builds for the texts "-(t)".
        """
        pieces = [
            Piece(
                p.region,
                tuple(el._neg(c) for c in p.components),
                p.region_text,
                tuple(f"-({t})" for t in p.component_texts),
                tuple(tuple(el._neg(g) for g in row) for row in p.gradients),
            )
            for p in self.pieces
        ]
        return PiecewiseVectorFn(self.n, self.m, self.domain, pieces)

    # -- domain ---------------------------------------------------------------

    def inner_box(self) -> np.ndarray:
        inset = DOMAIN_INSET
        return np.stack([self.domain[:, 0] + inset, self.domain[:, 1] - inset], axis=1)

    def in_domain(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        box = self.inner_box()
        return bool(np.all(x >= box[:, 0]) and np.all(x <= box[:, 1]))

    def require_inside(self, x, what: str = "point"):
        if np.asarray(x).shape[-1] != self.n:
            raise DimensionMismatchError(
                f"{what} has dimension {np.asarray(x).shape[-1]}, function expects {self.n}"
            )
        if not self.in_domain(x):
            raise OutOfDomainError(f"{what} {np.asarray(x).tolist()} outside the open domain box")

    def require_ball_inside(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        box = self.inner_box()
        if np.any(center - radius < box[:, 0]) or np.any(center + radius > box[:, 1]):
            raise OutOfDomainError(
                f"ball B({center.tolist()}, {radius}) leaves the open domain box"
            )

    # -- activity and values ---------------------------------------------------

    def active_mask(self, x: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """(pieces, points) boolean activity matrix with region slack."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.stack(
            [el.predicate_holds_many(p.region, x, slack) for p in self.pieces], axis=0
        )

    def values(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over rows of x (first active piece wins)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        npts = x.shape[0]
        mask = self.active_mask(x, 0.0)
        covered = mask.any(axis=0)
        if not covered.all():
            bad = x[~covered][0]
            raise NoActivePieceError(f"no region covers point {bad.tolist()}")
        vals = np.full((len(self.pieces), npts, self.m), np.nan)
        for j, piece in enumerate(self.pieces):
            idx = np.nonzero(mask[j])[0]
            if idx.size == 0:
                continue
            sub = x[idx]
            for i, comp in enumerate(piece.components):
                vals[j, idx, i] = el.evaluate_many(comp, sub)
        first = mask.argmax(axis=0)
        out = vals[first, np.arange(npts)]
        if len(self.pieces) > 1:
            dev = np.nanmax(
                np.abs(np.where(mask[:, :, None], vals, out[None, :, :]) - out[None, :, :]),
                axis=(0, 2),
            )
            worst = int(np.argmax(dev))
            if dev[worst] > CONTINUITY_TOL:
                raise InconsistentPiecesError(
                    f"active pieces disagree by {dev[worst]:.3e} at {x[worst].tolist()}"
                )
        return out

    def value(self, x) -> np.ndarray:
        """f(x) at a single point strictly inside the domain."""
        self.require_inside(x)
        return self.values(np.atleast_2d(np.asarray(x, dtype=float)))[0]

    # -- Jacobians --------------------------------------------------------------

    def piece_jacobian(self, j: int, x) -> np.ndarray:
        return self.piece_jacobians_many(j, np.asarray(x, dtype=float)[None, :])[0]

    def piece_jacobians_many(self, j: int, x: np.ndarray) -> np.ndarray:
        """(points, m, n) analytic Jacobians of piece j, vectorized."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty((x.shape[0], self.m, self.n))
        piece = self.pieces[j]
        for i in range(self.m):
            for k in range(self.n):
                out[:, i, k] = el.evaluate_many(piece.gradients[i][k], x)
        return out

    def clarke_jacobian(self, x) -> JacobianPolytope:
        """Vertex polytope of the generalized Jacobian at x: the analytic
        Jacobians of every piece active within TOL_ACTIVE, duplicates merged."""
        self.require_inside(x)
        x = np.asarray(x, dtype=float)
        mask = self.active_mask(x[None, :], TOL_ACTIVE)[:, 0]
        active = [j for j in range(len(self.pieces)) if mask[j]]
        if not active:
            raise NoActivePieceError(f"no region covers point {x.tolist()}")
        vertices = []
        kept = []
        for j in active:
            jac = self.piece_jacobian(j, x)
            if any(np.max(np.abs(jac - v)) <= VERTEX_MERGE_TOL for v in vertices):
                continue
            vertices.append(jac)
            kept.append(j)
        return JacobianPolytope(vertices, x.copy(), tuple(kept))

    def cartesian_outer_box(self, x) -> np.ndarray:
        """Componentwise interval hull of the gradient rows over active pieces,
        the outer approximation of the Jacobian polytope: an (m, n, 2) array."""
        poly = self.clarke_jacobian(x)
        arr = poly.as_array()
        return np.stack([arr.min(axis=0), arr.max(axis=0)], axis=-1)

    # -- load-time validation ----------------------------------------------------

    def validate(self, sample_count: int = 512, seed: int = 0) -> list:
        """Sampled coverage and continuity checks; returns warning strings.

        Coverage: sampled interior points must activate at least one
        tolerance-inflated region. Continuity: at region-boundary roots found
        along axis chords, all exactly active pieces must agree within the
        continuity tolerance.
        """
        problems = []
        pts = sampling.box_points(self.inner_box(), sample_count, seed)
        mask = self.active_mask(pts, TOL_ACTIVE)
        uncovered = ~mask.any(axis=0)
        if uncovered.any():
            problems.append(
                f"coverage: {int(uncovered.sum())}/{sample_count} sampled points "
                f"activate no region (first: {pts[uncovered][0].tolist()})"
            )
        try:
            self.values(pts[mask.any(axis=0)])
        except InconsistentPiecesError as exc:
            problems.append(f"continuity: {exc}")
        center = self.inner_box().mean(axis=1)
        radius = float(np.min(self.inner_box()[:, 1] - self.inner_box()[:, 0]) / 2)
        for _, _, root, first in _chord_roots(self, center, radius):
            if not first:
                continue
            rmask = self.active_mask(root[None, :], 0.0)[:, 0]
            vals = [
                np.array([el.evaluate(c, root) for c in self.pieces[j].components])
                for j in range(len(self.pieces))
                if rmask[j]
            ]
            for v in vals[1:]:
                if np.max(np.abs(v - vals[0])) > CONTINUITY_TOL:
                    problems.append(
                        f"continuity: pieces disagree by "
                        f"{np.max(np.abs(v - vals[0])):.3e} at boundary point {root.tolist()}"
                    )
                    break
        return problems

    def __repr__(self) -> str:
        return f"PiecewiseVectorFn(n={self.n}, m={self.m}, pieces={len(self.pieces)})"


# ---------------------------------------------------------------------------
# Boundary probes
# ---------------------------------------------------------------------------

def _chord_roots(f: PiecewiseVectorFn, start: np.ndarray, radius: float):
    """Region-boundary roots along the axis chords of length `radius` from
    `start`, in scan order: each boundary expression g is scanned at 33 chord
    points and every sign change is bisected 80 times, or until its ends are
    adjacent floats. Yields (g, d, root, first), where d is the chord
    direction and first is False when a root equal to 12 decimals was yielded
    before."""
    start = np.asarray(start, dtype=float)
    box = f.inner_box()
    gs = [g for piece in f.pieces for g in el.boundary_expressions(piece.region)]
    seen = set()

    def emit(g, d, t):
        root = start + t * d
        key = tuple(np.round(root, 12))
        first = key not in seen
        seen.add(key)
        return g, d, root, first

    for axis in range(f.n):
        for sign in (1.0, -1.0):
            d = np.zeros(f.n)
            d[axis] = sign
            if sign > 0:
                tmax = min(radius, box[axis, 1] - start[axis])
            else:
                tmax = min(radius, start[axis] - box[axis, 0])
            if tmax <= 0:
                continue
            ts = np.linspace(0.0, tmax, 33)
            pts = start[None, :] + ts[:, None] * d[None, :]
            for g in gs:
                vals = el.evaluate_many(g, pts)
                for a in range(len(ts) - 1):
                    va, vb = vals[a], vals[a + 1]
                    if va == 0.0:
                        yield emit(g, d, ts[a])
                        continue
                    if va * vb < 0.0:
                        lo_t, hi_t = ts[a], ts[a + 1]
                        flo = va
                        for _ in range(80):
                            mid = 0.5 * (lo_t + hi_t)
                            fm = el.evaluate(g, start + mid * d)
                            if fm == 0.0:
                                lo_t = hi_t = mid
                                break
                            stalled = mid == lo_t or mid == hi_t
                            if flo * fm < 0.0:
                                hi_t = mid
                            else:
                                lo_t, flo = mid, fm
                            if stalled:
                                # the ends are adjacent floats: every later
                                # step repeats this one
                                break
                        yield emit(g, d, 0.5 * (lo_t + hi_t))
                if vals[-1] == 0.0:
                    yield emit(g, d, ts[-1])


def boundary_probes(f: PiecewiseVectorFn, center, radius: float) -> np.ndarray:
    """Deterministic probe points near region boundaries inside B(center, radius).

    For each boundary root reached from the center along an axis chord, two
    probes are emitted: the root itself, and a point stepped back toward the
    center far enough to stay within the TOL_ACTIVE activation window of the
    crossed boundary (so the Jacobian polytope there still carries both sides'
    vertices). Falsification effort concentrates where nonsmoothness lives.
    """
    center = np.asarray(center, dtype=float)
    # memo writes are idempotent (same key always maps to the same array), so
    # concurrent readers stay safe
    cache = f.__dict__.setdefault("_probe_cache", {})
    cache_key = (center.tobytes(), float(radius))
    if cache_key in cache:
        return cache[cache_key]
    out = []
    box = f.inner_box()
    seen = set()

    def record(point):
        point = np.clip(point, box[:, 0], box[:, 1])
        if np.linalg.norm(point - center) > radius:
            return
        key = point.tobytes()
        if key in seen:
            return
        seen.add(key)
        out.append(point)

    for g, d, root, first in _chord_roots(f, center, radius):
        record(root)
        if not first:
            continue
        # step back toward the center, calibrated so that the boundary
        # expression stays within the activation window
        h = 1e-6
        slope = abs(el.evaluate(g, root + h * d) - el.evaluate(g, root - h * d)) / (2 * h)
        delta = (TOL_ACTIVE / 2.0) / max(slope, 1e-6)
        delta = min(delta, radius / 4.0)
        record(root - delta * d)
    if not out:
        result = np.empty((0, f.n))
    else:
        arr = np.array(out)
        result = arr[np.lexsort(arr.T[::-1])]
    cache[cache_key] = result
    return result


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@dataclass
class KernelFlags:
    """Structural kernel properties established on a declared sample set."""

    skew: bool
    first_arg_affine: bool
    vanishes_on_diagonal: bool
    sample_count: int
    seed: int
    tol: float

    def to_dict(self) -> dict:
        return {
            "skew": self.skew,
            "firstArgAffine": self.first_arg_affine,
            "vanishesOnDiagonal": self.vanishes_on_diagonal,
            "sampleCount": self.sample_count,
            "seed": self.seed,
            "tol": self.tol,
        }


class Kernel:
    """The displacement map eta: X x X -> R^n.

    Built-in kinds: 'difference' (eta = x - y) and 'negNormDifference'
    (eta = -||x - y|| times the all-ones vector; for n = 1 this is -|x - y|).
    Custom kernels supply n expression strings over x1..xn, y1..yn.
    """

    KINDS = ("difference", "negNormDifference", "custom")

    def __init__(self, kind: str, n: int, expressions: Optional[Sequence[str]] = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}")
        self.kind = kind
        self.n = int(n)
        self.expression_texts = None
        self._exprs = None
        if kind == "custom":
            if expressions is None or len(expressions) != self.n:
                raise DimensionMismatchError(
                    f"custom kernel needs {self.n} component expressions"
                )
            self.expression_texts = tuple(expressions)
            self._exprs = tuple(el.parse(t, self.n, context="kernel") for t in expressions)

    @classmethod
    def from_dict(cls, spec: dict, n: int) -> "Kernel":
        return cls(spec["kind"], n, spec.get("components"))

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.expression_texts is not None:
            out["components"] = list(self.expression_texts)
        return out

    def eval(self, x, y) -> np.ndarray:
        return self.eval_many(
            np.atleast_2d(np.asarray(x, dtype=float)),
            np.atleast_2d(np.asarray(y, dtype=float)),
        )[0]

    def eval_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if x.shape[-1] != self.n or y.shape[-1] != self.n:
            raise DimensionMismatchError("kernel arguments disagree with dimension")
        if x.shape[0] != y.shape[0]:
            x, y = np.broadcast_arrays(x, y)
        if self.kind == "difference":
            return x - y
        if self.kind == "negNormDifference":
            norms = np.linalg.norm(x - y, axis=-1, keepdims=True)
            return -norms * np.ones((1, self.n))
        out = np.empty((x.shape[0], self.n))
        for i, expr in enumerate(self._exprs):
            out[:, i] = el.evaluate_many(expr, x, y)
        return out

    def flags(
        self, box, sample_count: int = 128, seed: int = 0, tol: float = 1e-9
    ) -> KernelFlags:
        """Verify skewness, affinity in the first argument, and vanishing on
        the diagonal over a deterministic sample of the given box."""
        box = np.asarray(box, dtype=float)
        cache = self.__dict__.setdefault("_flag_cache", {})
        key = (box.tobytes(), sample_count, seed, tol)
        if key in cache:
            return cache[key]
        # one 3n-dimensional stream split into three independent point sets
        u = sampling.unit_points(3 * self.n, sample_count, seed, base_dim=self.n)
        lo, span = box[:, 0], box[:, 1] - box[:, 0]
        a = lo + u[:, : self.n] * span
        b = lo + u[:, self.n: 2 * self.n] * span
        c = lo + u[:, 2 * self.n:] * span
        scale = 1.0 + float(np.max(np.abs(self.eval_many(a, b))))
        skew = bool(
            np.max(np.abs(self.eval_many(a, b) + self.eval_many(b, a))) <= tol * scale
        )
        vanishes = bool(np.max(np.abs(self.eval_many(a, a))) <= tol * scale)
        lams = np.array([0.25, 0.5, 0.8])
        affine = True
        for lam in lams:
            mix = lam * a + (1 - lam) * b
            lhs = self.eval_many(mix, c)
            rhs = lam * self.eval_many(a, c) + (1 - lam) * self.eval_many(b, c)
            if np.max(np.abs(lhs - rhs)) > tol * scale:
                affine = False
                break
        out = KernelFlags(skew, affine, vanishes, sample_count, seed, tol)
        cache[key] = out
        return out

    def __repr__(self) -> str:
        return f"Kernel({self.kind}, n={self.n})"


# ---------------------------------------------------------------------------
# Lipschitz estimation
# ---------------------------------------------------------------------------

@dataclass
class LipschitzEstimate:
    """Max sampled difference quotient of f on a ball (componentwise norm)."""

    point: np.ndarray
    radius: float
    constant: float
    sample_count: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "point": self.point.tolist(),
            "radius": self.radius,
            "constant": self.constant,
            "sampleCount": self.sample_count,
            "seed": self.seed,
        }


def lipschitz_estimate(
    f: PiecewiseVectorFn, x0, r: float, samples: int = 2000, seed: int = 0
) -> LipschitzEstimate:
    """max ||f(x) - f(y)||_inf / ||x - y|| over sampled pairs in B(x0, r).

    The output norm is the componentwise max; the sampled constant is
    nondecreasing in the sample count because streams extend by prefix.
    """
    x0 = np.asarray(x0, dtype=float)
    f.require_ball_inside(x0, r)
    xs, ys = sampling.ball_pairs(x0, r, samples, seed)
    sep = np.linalg.norm(xs - ys, axis=1)
    keep = sep > 1e-14
    xs, ys, sep = xs[keep], ys[keep], sep[keep]
    fx = f.values(xs)
    fy = f.values(ys)
    quotients = np.max(np.abs(fx - fy), axis=1) / sep
    k = float(np.max(quotients)) if quotients.size else 0.0
    return LipschitzEstimate(x0.copy(), float(r), k, int(samples), int(seed))
