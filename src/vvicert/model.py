"""Piecewise-smooth vector functions, their Clarke Jacobian polytopes, the
Cartesian outer box, displacement kernels, and Lipschitz estimation.

The generalized Jacobian at a point is realized exactly for piecewise-smooth
input as the convex hull of the analytic Jacobians of every piece whose
region, inflated by a small activation tolerance, contains the point. Only
the hull's vertex matrices are stored; downstream checks reduce to vertices.
"""

from __future__ import annotations

import copy
import functools
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
    ProblemFileError,
    VviCertError,
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
# Kernel flags are established on this many sampled points, each up to this
# tolerance relative to the kernel's scale on the sample.
FLAG_SAMPLES = 128
FLAG_TOL = 1e-9


def _memoized(store: dict, key, build):
    """store[key], made by build() on the first call and kept: every memo of
    f, -f, a kernel and a problem goes through here, and rests on its owner
    never changing. An ndarray result, or each ndarray of a tuple, is made
    read-only. A VviCertError that build() raises is kept and raised again."""
    if key not in store:
        try:
            out = build()
        except VviCertError as exc:
            out = exc
        else:
            for a in out if isinstance(out, tuple) else (out,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
        store[key] = out
    out = store[key]
    if isinstance(out, VviCertError):
        raise out.with_traceback(None)  # keep no frames of an earlier raise alive
    return out


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


@dataclass(frozen=True)
class JacobianPolytope:
    """Vertex representation of the generalized Jacobian at a query point."""

    vertices: tuple  # of (m, n) arrays
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
        self.pieces = tuple(pieces)
        if not self.pieces:
            raise ValueError("function needs at least one piece")
        # a copy, read-only: the memos on f rest on f never changing
        self.domain = np.array(domain, dtype=float).reshape(self.n, 2)
        if not (np.isfinite(self.domain).all() and np.all(self.domain[:, 0] < self.domain[:, 1])):
            raise ValueError("domain box must be finite with a nonempty interior")
        self.domain.setflags(write=False)
        self._inner = self.domain + [DOMAIN_INSET, -DOMAIN_INSET]
        self._inner.setflags(write=False)
        # -f and the Clarke polytopes in _memo; in _shared, which -f shares, the
        # boundary expressions, probe sets and pairs, and ball draws (see _memoized)
        self._memo, self._shared = {}, {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, spec: dict) -> "PiecewiseVectorFn":
        with ProblemFileError.reading("n"):
            n = int(spec["n"])
            if n < 1:
                raise ValueError(f"dimension {n} is below 1")
        with ProblemFileError.reading("m"):
            m = int(spec["m"])
            if m < 1:
                raise ValueError(f"dimension {m} is below 1")
        with ProblemFileError.reading("pieces"):
            pieces = [_compile_piece(p["region"], p["components"], n, m) for p in spec["pieces"]]
        # the constructor rejects an empty piece list before it reads the domain
        with ProblemFileError.reading("domain" if pieces else "pieces"):
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

        The trees are those the parser builds for the texts "-(t)". -f is
        built once and memoized on f: a copy of f with a memo of its own, it
        shares f's domain, inner box and _shared store.
        """
        return _memoized(self._memo, "negated", self._negate)

    def _negate(self) -> "PiecewiseVectorFn":
        out = copy.copy(self)
        out._memo = {}
        out.pieces = tuple(
            Piece(
                p.region,
                tuple(el._neg(c) for c in p.components),
                p.region_text,
                tuple(f"-({t})" for t in p.component_texts),
                tuple(tuple(el._neg(g) for g in row) for row in p.gradients),
            )
            for p in self.pieces
        )
        return out

    # -- domain ---------------------------------------------------------------

    def inner_box(self) -> np.ndarray:  # built once, read-only
        return self._inner

    def in_domain(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        box = self.inner_box()
        return bool((x >= box[:, 0]).all() and (x <= box[:, 1]).all())

    def require_inside(self, x, what: str = "point") -> np.ndarray:
        """x as a float array, checked to be a point of the open domain."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise DimensionMismatchError(
                f"{what} has dimension {x.shape[-1]}, function expects {self.n}"
            )
        if not self.in_domain(x):
            raise OutOfDomainError(f"{what} {x.tolist()} outside the open domain box")
        return x

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

    def _piece_values(self, x: np.ndarray, mask: np.ndarray) -> tuple:
        """(out, shared, dev): each row's values of the first piece mask marks
        active (unset where none is), the rows where several pieces are, and
        dev[j, k], piece j's largest finite difference from that first piece
        at the k-th shared row, -inf where j is inactive or none is finite
        (inf - inf). Each piece is evaluated once, on its active rows."""
        first, shared = mask.argmax(axis=0), mask.sum(axis=0) > 1
        out = np.empty((len(x), self.m))
        vals = np.full((len(self.pieces), shared.sum(), self.m), np.nan)
        # take and compress: numpy's fancy indexing is several times slower
        for j, piece in enumerate(self.pieces):
            idx = np.flatnonzero(mask[j])
            if idx.size == 0:
                continue
            sub, own, at = x.take(idx, axis=0), first.take(idx) == j, shared.take(idx)
            rows, to = idx.compress(own), mask[j].compress(shared)
            for i, comp in enumerate(piece.components):
                v = el.evaluate_many(comp, sub)
                out[rows, i] = v.compress(own)
                vals[j, to, i] = v.compress(at)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fmax skips
            dev = np.fmax.reduce(np.abs(vals - out[shared]), axis=2, initial=-np.inf)
        return out, shared, dev

    def values(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over rows of x (first active piece wins); the
        rows where two or more pieces are active are checked for continuity."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mask = self.active_mask(x, 0.0)
        covered = mask.any(axis=0)
        if not covered.all():
            bad = x[~covered][0]
            raise NoActivePieceError(f"no region covers point {bad.tolist()}")
        out, shared, dev = self._piece_values(x, mask)
        if shared.any():
            dev = dev.max(axis=0)
            worst = int(np.argmax(dev))
            if dev[worst] > CONTINUITY_TOL:
                raise InconsistentPiecesError(
                    f"active pieces disagree by {dev[worst]:.3e} at {x[shared][worst].tolist()}"
                )
        return out

    def value(self, x) -> np.ndarray:
        """f(x) at a single point strictly inside the domain."""
        return self.values(np.atleast_2d(self.require_inside(x)))[0]

    # -- Jacobians --------------------------------------------------------------

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
        Jacobians of every piece active within TOL_ACTIVE, duplicates merged.
        Memoized on f per point; the polytope and its arrays are read-only."""
        x = self.require_inside(x)
        return _memoized(self._memo, (x.shape, x.tobytes()), lambda: self._polytope(x))

    def _polytope(self, x: np.ndarray) -> JacobianPolytope:
        mask = self.active_mask(x[None, :], TOL_ACTIVE)[:, 0]
        active = [j for j in range(len(self.pieces)) if mask[j]]
        if not active:
            raise NoActivePieceError(f"no region covers point {x.tolist()}")
        vertices = []
        kept = []
        for j in active:
            jac = self.piece_jacobians_many(j, x[None, :])[0]
            if any(np.max(np.abs(jac - v)) <= VERTEX_MERGE_TOL for v in vertices):
                continue
            jac.setflags(write=False)
            vertices.append(jac)
            kept.append(j)
        point = x.copy()
        point.setflags(write=False)
        return JacobianPolytope(tuple(vertices), point, tuple(kept))

    def cartesian_outer_box(self, x) -> np.ndarray:
        """Componentwise interval hull of the gradient rows over active pieces,
        the outer approximation of the Jacobian polytope: an (m, n, 2) array."""
        poly = self.clarke_jacobian(x)
        arr = poly.as_array()
        return np.stack([arr.min(axis=0), arr.max(axis=0)], axis=-1)

    # -- load-time validation ----------------------------------------------------

    def validate(self, sample_count: int = 512, seed: int = 0) -> list:
        """Sampled coverage and continuity checks by the rules of values();
        returns warning strings. Coverage: sampled interior points must
        activate a region exactly. Continuity: there and at region-boundary
        roots found along axis chords, active pieces must agree within the
        continuity tolerance wherever their difference is finite.
        """
        problems = []
        pts = sampling.box_points(self.inner_box(), sample_count, seed)
        uncovered = ~self.active_mask(pts, 0.0).any(axis=0)
        if uncovered.any():
            problems.append(
                f"coverage: {int(uncovered.sum())}/{sample_count} sampled points "
                f"activate no region (first: {pts[uncovered][0].tolist()})"
            )
        try:
            self.values(pts[~uncovered])
        except InconsistentPiecesError as exc:
            problems.append(f"continuity: {exc}")
        center = self.inner_box().mean(axis=1)
        radius = float(np.min(self.inner_box()[:, 1] - self.inner_box()[:, 0]) / 2)
        _, _, roots, first = _chord_roots(self, center, radius)
        roots = roots[first]
        _, shared, dev = self._piece_values(roots, self.active_mask(roots, 0.0))
        # each root's active pieces against its first one (no root with one
        # active piece has a gap); the first piece that disagrees is reported
        gap = dev > CONTINUITY_TOL
        roots = roots[shared]
        problems += [
            f"continuity: pieces disagree by {dev[gap[:, k].argmax(), k]:.3e} "
            f"at boundary point {roots[k].tolist()}"
            for k in np.nonzero(gap.any(axis=0))[0]
        ]
        return problems

    def __repr__(self) -> str:
        return f"PiecewiseVectorFn(n={self.n}, m={self.m}, pieces={len(self.pieces)})"


# ---------------------------------------------------------------------------
# Boundary probes
# ---------------------------------------------------------------------------

def _boundary_expressions(f: PiecewiseVectorFn) -> tuple:
    """The distinct boundary expressions of f's regions (a repeat would only
    yield roots seen before), built once in the store f shares with -f."""
    return _memoized(f._shared, "expressions", lambda: tuple(dict.fromkeys(
        g for piece in f.pieces for g in el.boundary_expressions(piece.region)
    )))


@functools.cache
def _chord_dirs(n: int) -> np.ndarray:
    """Chord directions +x1, -x1, +x2, ...; adding 0.0 keeps off-axis entries +0.0."""
    dirs = np.repeat(np.eye(n), 2, axis=0) * np.tile([1.0, -1.0], n)[:, None] + 0.0
    dirs.setflags(write=False)
    return dirs


def _first_rows(a: np.ndarray) -> np.ndarray:
    """Mask of the rows of a 2-d array equal to no earlier row."""
    order = np.lexsort(a.T[::-1])  # stable, so equal rows keep their order
    ranked = a[order]
    first = np.ones(len(a), dtype=bool)
    first[order[1:]] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return first


def _bisect(g, start, d, lo, hi, flo) -> np.ndarray:
    """Roots of g on the chord segments start + [lo, hi] * d, where g is flo
    at lo and of the other sign at hi, all bisected together in place."""
    # At most 80 steps, and no more once a step leaves every lane's bits as
    # they were: the update is a function of (lo, hi, flo) alone, so a state
    # it does not change never changes again. A lane that hit an exact zero
    # (lo = hi) or whose ends are adjacent floats is at such a fixed point.
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = el.evaluate_many(g, start + mid[:, None] * d)
        left = flo * fm < 0.0
        before = lo.tobytes() + hi.tobytes() + flo.tobytes()
        np.copyto(hi, mid, where=left | (fm == 0.0))
        np.copyto(lo, mid, where=~left)
        np.copyto(flo, fm, where=~left)
        if lo.tobytes() + hi.tobytes() + flo.tobytes() == before:
            break
    return 0.5 * (lo + hi)


def _chord_roots(f: PiecewiseVectorFn, start: np.ndarray, radius: float):
    """Region-boundary roots along the axis chords of length `radius` from
    `start`, one row per root in scan order: by chord (+x1, -x1, +x2, ...),
    then boundary expression g, then position along the chord.

    Each distinct g is evaluated at 33 points of every chord in one pass. A
    scan point where g is exactly 0 is a root, and all sign changes of g are
    bisected together. Returns (gi, d, roots, first): the index of g in
    `_boundary_expressions(f)`, the chord direction, the root, and whether no
    root equal to 12 decimals comes before it.
    """
    start = np.asarray(start, dtype=float)
    box = f.inner_box()
    tmax = np.minimum(radius, np.stack([box[:, 1] - start, start - box[:, 0]], axis=1).ravel())
    dirs, tmax = _chord_dirs(f.n)[tmax > 0], tmax[tmax > 0]
    ts = np.linspace(0.0, tmax, 33, axis=1)  # (chords, 33)
    pts = (start + ts[:, :, None] * dirs[:, None, :]).reshape(-1, f.n)
    change = np.zeros(ts.shape, dtype=bool)  # a sign change to the next scan point
    found = []  # (chord, expression, position, t) per expression
    for k, g in enumerate(_boundary_expressions(f)):
        vals = el.evaluate_many(g, pts).reshape(ts.shape)
        np.less(vals[:, :-1] * vals[:, 1:], 0.0, out=change[:, :-1])
        chord, pos = np.nonzero((vals == 0.0) | change)
        t = ts[chord, pos]
        lane = change[chord, pos]
        if lane.any():
            c, a = chord[lane], pos[lane]
            t[lane] = _bisect(g, start, dirs[c], ts[c, a], ts[c, a + 1], vals[c, a])
        found.append((chord, np.full(chord.size, k), pos, t))
    chord, gi, pos, t = map(np.concatenate, zip(*found))
    order = np.lexsort((pos, gi, chord))
    gi, d, t = gi[order], dirs[chord[order]], t[order]
    roots = start + t[:, None] * d
    first = _first_rows(np.round(roots, 12))
    return gi, d, roots, first


def boundary_probes(f: PiecewiseVectorFn, center, radius: float) -> np.ndarray:
    """Deterministic probe points near region boundaries inside B(center, radius).

    Each boundary root reached from the center along an axis chord is a
    probe. The first of roots equal to 12 decimals adds a point stepped back
    toward the center, just far enough to stay within the TOL_ACTIVE
    activation window of the crossed boundary, so the Jacobian polytope
    there still carries both sides' vertices. Probes are clipped to the
    inner box and kept in the ball; bitwise repeats are dropped and the rest
    sorted. Falsification effort concentrates where nonsmoothness lives.
    The set is read-only and memoized in the store f shares with -f.
    """
    center = np.asarray(center, dtype=float)
    return _memoized(f._shared, (center.tobytes(), float(radius)),
                     lambda: _probes(f, center, radius))


def _probes(f: PiecewiseVectorFn, center: np.ndarray, radius: float) -> np.ndarray:
    gi, d, roots, first = _chord_roots(f, center, radius)
    # step back toward the center, calibrated so that the boundary
    # expression stays within the activation window
    h = 1e-6
    slope = np.zeros(len(roots))
    for k, g in enumerate(_boundary_expressions(f)):
        sel = first & (gi == k)
        at, dh = roots[sel], h * d[sel]
        ahead, behind = el.evaluate_many(g, np.concatenate([at + dh, at - dh])).reshape(2, -1)
        slope[sel] = np.abs(ahead - behind) / (2 * h)
    delta = np.minimum((TOL_ACTIVE / 2.0) / np.maximum(slope, 1e-6), radius / 4.0)
    # each root, then its step-back point if it has one
    probes = np.stack([roots, roots - delta[:, None] * d], axis=1)
    probes = np.clip(probes[np.stack([np.ones_like(first), first], axis=1)], *f.inner_box().T)
    probes = probes[np.linalg.norm(probes - center, axis=1) <= radius]
    probes = probes[_first_rows(probes.view(np.int64))]  # by bytes: -0.0 stays apart from 0.0
    return probes[np.lexsort(probes.T[::-1])]


def probe_pairs(f: PiecewiseVectorFn, pairs, center, radius: float) -> tuple:
    """pairs(center, boundary_probes(f, center, radius)) for the pair builder
    of the certify module, memoized in the store f shares with -f."""
    center = np.asarray(center, dtype=float)
    return _memoized(f._shared, (pairs, center.tobytes(), float(radius)),
                     lambda: pairs(center, boundary_probes(f, center, radius)))


def ball_draw(f: PiecewiseVectorFn, draw, center, radius: float, count: int, seed: int):
    """draw(center, radius, count, seed) for a ball sampler of the sampling
    module, memoized in the store f shares with -f (the draw reads nothing of f)."""
    key = (draw, np.asarray(center, dtype=float).tobytes(), float(radius), int(count), int(seed))
    return _memoized(f._shared, key, lambda: draw(center, radius, count, seed))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
        self._memo = {}  # flags per (box, seed), see _memoized
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
        if self.kind == "difference":
            return x - y
        if self.kind == "negNormDifference":
            norms = np.linalg.norm(x - y, axis=-1, keepdims=True)
            return -norms * np.ones((1, self.n))
        if x.shape[0] != y.shape[0]:  # an expression in y alone still yields N rows
            x, y = np.broadcast_arrays(x, y)
        out = np.empty((x.shape[0], self.n))
        for i, expr in enumerate(self._exprs):
            out[:, i] = el.evaluate_many(expr, x, y)
        return out

    def flags(self, box, seed: int = 0) -> KernelFlags:
        """Verify skewness, affinity in the first argument, and vanishing on
        the diagonal over FLAG_SAMPLES deterministic points of the given box,
        each up to FLAG_TOL relative to the kernel's scale."""
        box = np.asarray(box, dtype=float)
        return _memoized(self._memo, (box.tobytes(), seed), lambda: self._flags(box, seed))

    def _flags(self, box: np.ndarray, seed: int) -> KernelFlags:
        # one 3n-dimensional stream split into three independent point sets
        u = sampling.unit_points(3 * self.n, FLAG_SAMPLES, seed, base_dim=self.n)
        lo, span = box[:, 0], box[:, 1] - box[:, 0]
        a = lo + u[:, : self.n] * span
        b = lo + u[:, self.n: 2 * self.n] * span
        c = lo + u[:, 2 * self.n:] * span
        ab = self.eval_many(a, b)
        scale = 1.0 + float(np.max(np.abs(ab)))
        skew = bool(np.max(np.abs(ab + self.eval_many(b, a))) <= FLAG_TOL * scale)
        vanishes = bool(np.max(np.abs(self.eval_many(a, a))) <= FLAG_TOL * scale)
        # affinity in the first argument along three points of each chord a -> b
        affine = not any(
            np.max(np.abs(
                self.eval_many(lam * a + (1 - lam) * b, c)
                - (lam * self.eval_many(a, c) + (1 - lam) * self.eval_many(b, c))
            )) > FLAG_TOL * scale
            for lam in (0.25, 0.5, 0.8)
        )
        return KernelFlags(skew, affine, vanishes, FLAG_SAMPLES, seed, FLAG_TOL)

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
