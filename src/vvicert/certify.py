"""Semi-decision checkers for the definition-level predicates of nonsmooth
vector optimization: local quasi (weak) efficiency, Stampacchia/Minty vector
variational inequalities (strong and weak), the five generalized invexity
classes, Gordan's theorem of the alternative, and vector criticality.

Every checker either refutes with a concrete witness that replays as a
genuine violation, or certifies explicitly *up to sampling*, with the sample
counts, seed and tolerances recorded in the verdict. Certifications are never
claims of proof: the ball and domain quantifiers are undecidable by point
sampling, and honesty about that is part of the contract.

Universally quantified conditions over the generalized Jacobian reduce
exactly to polytope vertices (A maps to A.eta linearly and -C, -int C are
convex). Existentially quantified conditions are evaluated on vertices plus a
deterministic simplex grid of convex combinations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import _alt, sampling
from ._alt import GordanCertificate
# LP calls are traced under this name (perfbench/spans.py)
from ._alt import linprog  # noqa: F401
from .cone import OrderingCone
from .errors import DegenerateError, InvalidEError
from .model import TOL_ACTIVE, Kernel, PiecewiseVectorFn, ball_draw, boundary_probes, probe_pairs

__all__ = [
    "Verdict",
    "SamplingPlan",
    "InvexClass",
    "VVIVariant",
    "GordanCertificate",
    "check_quasi_efficient",
    "check_vvi",
    "check_vvis",
    "check_invex_class",
    "check_invex_classes",
    "gordan_alternative",
    "check_vector_critical",
]

# eta values with norm at or below this count as zero and are excluded from
# the quantifiers of the VVIs and of quasi efficiency (eta(xi, xi) = 0 would
# otherwise make every xi trivially fail the Stampacchia inequality).
ZERO_ETA_TOL = 1e-12

# Jacobian hull mixtures take the weights i / SIMPLEX_GRID_DEPTH
SIMPLEX_GRID_DEPTH = 8

# cap on the floats of one batch of Jacobian hull mixtures (8 MiB of float64)
_HULL_MIX_FLOATS = 1 << 20

REFUTED = "Refuted"
CERTIFIED = "CertifiedUpToSampling"
INAPPLICABLE = "Inapplicable"


class InvexClass(str, Enum):
    INVEX = "invex"
    PSEUDO_I = "pseudo1"
    PSEUDO_II = "pseudo2"
    QUASI_I = "quasi1"
    QUASI_II = "quasi2"

    @classmethod
    def parse(cls, name: str) -> "InvexClass":
        """Any case, without '-', '_' or spaces, with type I/II as 1/2."""
        key = re.sub(r"[-_ ]", "", name.strip().lower())
        key = re.sub(r"^(pseudo|quasi)(i{1,2})$", lambda m: f"{m[1]}{len(m[2])}", key)
        try:
            return cls(key)
        except ValueError:
            raise ValueError(f"unknown invexity class {name!r}") from None


class VVIVariant(str, Enum):
    SVVI = "svvi"
    MVVI = "mvvi"
    WSVVI = "wsvvi"
    WMVVI = "wmvvi"

    @property
    def weak(self) -> bool:
        return self.value.startswith("w")

    @property
    def minty(self) -> bool:
        return self.value.endswith("mvvi")


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic expansion recipe for every sampled quantifier.

    The same plan always expands to the same sample sequence, so verdicts are
    reproducible bit for bit. The record also states the choices every plan
    shares: the unit VVI search box, SIMPLEX_GRID_DEPTH and zero-eta exclusion.
    """

    seed: int = 42
    radius: float = 0.25
    ball_sample_count: int = 10_000
    pair_sample_count: int = 10_000

    def __post_init__(self):
        if self.ball_sample_count < 1 or self.pair_sample_count < 1:
            raise ValueError("sample counts must be >= 1")
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be finite and > 0, got {self.radius}")

    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "radius": float(self.radius),
            "ballSampleCount": int(self.ball_sample_count),
            "pairSampleCount": int(self.pair_sample_count),
            "searchBox": None,
            "simplexGridDepth": SIMPLEX_GRID_DEPTH,
            "excludeZeroEta": True,
        }


@dataclass
class Verdict:
    """Outcome of a semi-decision check."""

    status: str
    reason: str
    witness: Optional[dict] = None
    certificate: Optional[dict] = None
    stats: dict = field(default_factory=dict)

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    def to_payload(self) -> dict:
        out = {"status": self.status, "reason": self.reason, "stats": self.stats}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def _listify(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def _base_stats(plan: SamplingPlan, cone: OrderingCone, **extra) -> dict:
    stats = {
        "plan": plan.to_dict(),
        "tolerances": {
            "cone": cone.tol,
            "margin": cone.margin,
            "zeroEta": ZERO_ETA_TOL,
            "tolActive": TOL_ACTIVE,
        },
    }
    stats.update(extra)
    return stats


def _interior_e(cone: OrderingCone, e) -> np.ndarray:
    """e as a float array; InvalidEError unless strictly interior to the cone."""
    e = np.asarray(e, dtype=float)
    if not cone.validate_e(e):
        raise InvalidEError(f"e = {e.tolist()} is not strictly interior to the cone")
    return e


def _order(cone: OrderingCone, strict: bool):
    """The cone's batched test of v >=_C 0, or of v >_C 0 when strict."""
    return cone.strictly_contains_many if strict else cone.contains_many


def _sampled_verdict(viol: np.ndarray, rows: tuple, refute, certified: str, stats: dict) -> Verdict:
    """Refuted at the first violating sample, else Certified; ``refute`` maps that
    sample's ``rows`` (the points, or both sides of the pairs) to (reason, witness)."""
    if not viol.any():
        return Verdict(CERTIFIED, certified, stats=stats)
    idx = int(np.argmax(viol))
    reason, witness = refute(*(r[idx] for r in rows))
    return Verdict(REFUTED, reason, witness=witness, stats=stats)


# ---------------------------------------------------------------------------
# Point assembly
# ---------------------------------------------------------------------------

def _stack_points(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The nonempty parts as rows of one array; every caller's last part is a
    sample stream of at least one row."""
    return np.vstack(
        [np.atleast_2d(np.asarray(p, dtype=float)) for p in parts if p is not None and len(p)]
    )


def _probe_pairs(x0: np.ndarray, probes: np.ndarray):
    """Ordered pairs of distinct points of {center} + the first 12 boundary
    probes, the structured prefix of every pair stream. A probe within 1e-15
    of a kept point is dropped. Pairs run center first, then the probes in
    lexicographic order, so witnesses are plan-deterministic."""
    pts = np.asarray(x0, dtype=float)[None, :]
    for p in probes[:12]:
        if not np.any(np.max(np.abs(pts - p), axis=1) <= 1e-15):
            pts = np.vstack([pts, p])
    first, second = np.nonzero(~np.eye(len(pts), dtype=bool))
    return pts[first], pts[second]


# ---------------------------------------------------------------------------
# Quasi efficiency (Definition-level local (eta, e) quasi (weak) efficiency)
# ---------------------------------------------------------------------------

def _quasi_violation_mask(
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    kernel: Kernel,
    e: np.ndarray,
    xi: np.ndarray,
    weak: bool,
    x: np.ndarray,
) -> np.ndarray:
    eta = kernel.eval_many(x, xi[None, :])
    eta_norm = np.linalg.norm(eta, axis=1)
    shifted = f.values(x) + eta_norm[:, None] * e[None, :]
    diff = f.value(xi)[None, :] - shifted
    return _order(cone, weak)(diff) & (eta_norm > ZERO_ETA_TOL)


def check_quasi_efficient(
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    kernel: Kernel,
    e,
    xi,
    r: float,
    weak: bool = False,
    plan: Optional[SamplingPlan] = None,
    extra_points: Optional[np.ndarray] = None,
) -> Verdict:
    """Search B(xi, r) for x with f(x) + e*||eta(x, xi)|| <=_C f(xi) (<_C when
    weak); such an x refutes local quasi (weak) efficiency at xi."""
    plan = plan or SamplingPlan()
    e = _interior_e(cone, e)
    xi = f.require_inside(xi, "xi")
    f.require_ball_inside(xi, r)

    probes = boundary_probes(f, xi, r)
    stream = ball_draw(f, sampling.ball_points, xi, r, plan.ball_sample_count, plan.seed)
    pts = _stack_points([probes, extra_points, stream])
    viol = _quasi_violation_mask(f, cone, kernel, e, xi, weak, pts)

    kind = "quasi weak efficient" if weak else "quasi efficient"
    stats = _base_stats(
        plan,
        cone,
        sampleCount=int(pts.shape[0]),
        probeCount=int(probes.shape[0]),
        radius=float(r),
        weak=bool(weak),
        e=_listify(e),
        xi=_listify(xi),
    )

    def refute(x):
        return f"x = {x.tolist()} violates local ({kind}) optimality at xi", {
            "x": x.tolist(),
            "fx": _listify(f.value(x)),
            "fxi": _listify(f.value(xi)),
            "eta": _listify(kernel.eval(x, xi)),
        }

    certified = f"no violation of {kind} found in B(xi, r) at the recorded sampling effort"
    return _sampled_verdict(viol, (pts,), refute, certified, stats)


# ---------------------------------------------------------------------------
# Vector variational inequalities
# ---------------------------------------------------------------------------

def _runs(a) -> tuple:
    """(heads, run): the first row of each run of equal consecutive rows of
    the 2-d array a, and the run of every row, or (a, None) when no row
    equals the one before. Rows compare by their bytes, so -0.0 stays apart
    from 0.0."""
    a = np.asarray(a, dtype=float)
    fresh = np.ones(len(a), dtype=bool)
    # column by column: np.any over rows this short is slower
    fresh[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in a.view(np.int64).T])
    return (a, None) if fresh.all() else (a.compress(fresh, axis=0), np.cumsum(fresh) - 1)


def _expand(out: np.ndarray, run, axis: int = 0) -> np.ndarray:
    """out, made at the heads of _runs, for every row; take, as numpy's
    fancy indexing is several times slower."""
    return out if run is None else out.take(run, axis=axis)


def _vertex_products_at(
    f: PiecewiseVectorFn, pts: np.ndarray, eta: np.ndarray, run=None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-piece products A_piece(x) @ eta(x) and the activity mask.

    Returns (products, active) with shapes (pieces, N, m) and (pieces, N).
    Inactive entries are garbage and must be masked by the caller; duplicate
    vertices are harmless for the forall/exists combinators used downstream.
    Given the run of each row of eta (see _runs), pts holds only the runs'
    heads, so activity and Jacobians are evaluated once per run.
    """
    head_active = f.active_mask(pts, TOL_ACTIVE)
    active = _expand(head_active, run, axis=1)
    prods = np.zeros((len(f.pieces), len(eta), f.m))
    for j in range(len(f.pieces)):
        at = np.flatnonzero(head_active[j])
        if at.size == 0:
            continue
        idx = np.flatnonzero(active[j])
        jac = f.piece_jacobians_many(j, pts.take(at, axis=0))  # (k, m, n)
        if run is not None:
            jac = jac.take(np.searchsorted(at, run.take(idx)), axis=0)
        prods[j, idx] = np.einsum("kmn,kn->km", jac, eta.take(idx, axis=0))
    return prods, active


def _stampacchia_products(f: PiecewiseVectorFn, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """(vertices, N, m) products A @ eta for every vertex A of the Jacobian
    at xi; every vertex applies at every row of eta."""
    poly = f.clarke_jacobian(xi)
    return np.stack([eta @ v.T for v in poly.vertices], axis=0)


def _forall_active(cond: np.ndarray, active: np.ndarray) -> np.ndarray:
    return np.all(np.where(active, cond, True), axis=0)


def _exists_active(cond: np.ndarray, active: np.ndarray) -> np.ndarray:
    return np.any(cond & active, axis=0)


def _hull_exists_refine(
    prods: np.ndarray,
    active: np.ndarray,
    test_many,
    base: np.ndarray,
) -> np.ndarray:
    """Upgrade a vertex-only 'exists' mask with simplex-grid hull mixtures at
    the points where several pieces are active.

    test_many maps an (..., m) array of products to an (...) boolean mask.
    Undecided points are grouped by activity pattern, so each group shares one
    weight grid and one batched test over its (points, mixtures, m) array.
    """
    out = base.copy()
    todo = np.nonzero((active.sum(axis=0) > 1) & ~out)[0]
    patterns, group = np.unique(active[:, todo].T, axis=0, return_inverse=True)
    group = group.ravel()  # numpy 2.0.0 returns the inverse with an extra axis
    for g, pattern in enumerate(patterns):
        act = np.nonzero(pattern)[0]
        idx = todo[group == g]
        lams = sampling.simplex_weights(len(act), SIMPLEX_GRID_DEPTH)  # (L, k)
        # point blocks keep the (points, L, m) mixture array bounded
        block = max(1, _HULL_MIX_FLOATS // (len(lams) * prods.shape[2]))
        for start in range(0, idx.size, block):
            rows = idx[start:start + block]
            mix = lams @ prods[np.ix_(act, rows)].transpose(1, 0, 2)  # (points, L, m)
            out[rows] = test_many(mix).any(axis=1)
    return out


def _vvi_products(
    minty: bool, f: PiecewiseVectorFn, xi: np.ndarray, x: np.ndarray, eta: np.ndarray
) -> tuple:
    """The products A @ eta(x, xi) and their activity mask, (vertices or
    pieces, N, m) and (vertices or pieces, N), with the Jacobian A taken at x
    for the Minty variants and at xi otherwise; the table both variants of one
    Jacobian site decide from."""
    if minty:
        return _vertex_products_at(f, x, eta)
    prods = _stampacchia_products(f, xi, eta)
    return prods, np.ones(prods.shape[:2], dtype=bool)


def _vvi_violations(
    variant: VVIVariant, cone: OrderingCone, quantifier: str, table: tuple, eta_norm: np.ndarray
) -> tuple[np.ndarray, int]:
    """Mask of the rows of a _vvi_products table where A @ eta <=_C 0 (<_C 0
    for weak variants) holds for every Jacobian vertex A, or for some element
    of the Jacobian hull under quantifier='exists', and eta is not zero. Also
    returns the largest number of vertices met at one row."""
    prods, active = table

    def _holds(values: np.ndarray) -> np.ndarray:
        # values: (..., m) products A @ eta
        return _order(cone, variant.weak)(-values)

    cond = _holds(prods)
    if quantifier == "forall":
        viol = _forall_active(cond, active)
    else:
        viol = _hull_exists_refine(prods, active, _holds, _exists_active(cond, active))
    return viol & (eta_norm > ZERO_ETA_TOL), int(active.sum(axis=0).max())


def _vvi_violation_mask(
    variant: VVIVariant,
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    kernel: Kernel,
    xi: np.ndarray,
    x: np.ndarray,
    quantifier: str,
) -> tuple[np.ndarray, int]:
    """_vvi_violations of the variant at the rows of x."""
    eta = kernel.eval_many(x, xi[None, :])
    table = _vvi_products(variant.minty, f, xi, x, eta)
    return _vvi_violations(variant, cone, quantifier, table, np.linalg.norm(eta, axis=1))


def check_vvis(
    variants: Sequence,
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    kernel: Kernel,
    xi,
    plan: Optional[SamplingPlan] = None,
    quantifier: str = "forall",
    extra_points: Optional[np.ndarray] = None,
) -> tuple:
    """One Verdict per variant of ``variants``, in that order, each equal to
    ``check_vvi`` of that variant: the search points and eta are made once,
    and the products A @ eta once per Jacobian site (xi for the Stampacchia
    variants, x for the Minty ones); only the final cone tests depend on the
    variant.

    The variants are parsed and the quantifier checked first. An error raised
    before the products (domain, sampling or kernel) is raised for every
    variant. The variants are then decided in order, each site's products
    made at its first variant, and the first error raised is raised; a call
    without that variant's site does not raise it.
    """
    variants = [v if isinstance(v, VVIVariant) else VVIVariant(str(v).strip().lower())
                for v in variants]
    if quantifier not in ("forall", "exists"):
        raise ValueError("quantifier must be 'forall' or 'exists'")
    plan = plan or SamplingPlan()
    xi = f.require_inside(xi, "xi")

    inner = f.inner_box()
    box = np.stack(
        [np.maximum(xi - 1.0, inner[:, 0]), np.minimum(xi + 1.0, inner[:, 1])], axis=1
    )

    probe_radius = float(np.max(np.abs(box - xi[:, None])))
    probes = boundary_probes(f, xi, probe_radius)
    stream = sampling.box_points(box, plan.ball_sample_count, plan.seed)
    pts = _stack_points([probes, extra_points, stream])
    eta = kernel.eval_many(pts, xi[None, :])
    eta_norm = np.linalg.norm(eta, axis=1)
    tables = {}  # Jacobian site (minty) -> its _vvi_products table

    def verdict(variant: VVIVariant) -> Verdict:
        if variant.minty not in tables:
            tables[variant.minty] = _vvi_products(variant.minty, f, xi, pts, eta)
        viol, vertex_count = _vvi_violations(
            variant, cone, quantifier, tables[variant.minty], eta_norm
        )
        stats = _base_stats(
            plan,
            cone,
            sampleCount=int(pts.shape[0]),
            probeCount=int(probes.shape[0]),
            searchBox=box.tolist(),
            variant=variant.value,
            quantifier=quantifier,
            maxVertexCount=vertex_count,
            xi=_listify(xi),
        )
        name, where = variant.value.upper(), "x" if variant.minty else "xi"

        def refute(x):
            return (
                f"x = {x.tolist()} satisfies the {name} inequality system "
                f"(Jacobian taken at {where}); xi does not solve the VVI",
                {"x": x.tolist(), "eta": _listify(kernel.eval(x, xi))},
            )

        certified = f"xi solves the {name} over the sampled search region"
        return _sampled_verdict(viol, (pts,), refute, certified, stats)

    return tuple(verdict(v) for v in variants)


def check_vvi(
    variant,
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    kernel: Kernel,
    xi,
    plan: Optional[SamplingPlan] = None,
    quantifier: str = "forall",
    extra_points: Optional[np.ndarray] = None,
) -> Verdict:
    """Stampacchia/Minty vector variational inequalities, strong and weak.

    A sampled x (with eta(x, xi) != 0) refutes the inequality when
    A @ eta(x, xi) <=_C 0 (strictly, for weak variants) holds for all vertices
    of the Jacobian polytope taken at xi (Stampacchia) or at x (Minty). The
    default forall-quantifier reading matches the worked verification of the
    bundled fixtures; quantifier='exists' switches to the alternative reading
    where a single Jacobian element suffices. The search region is the unit
    box around xi, clipped to the open domain, and points with eta(x, xi) = 0
    are skipped. To decide several variants on one search sample, as the
    theorem audit does, use check_vvis.
    """
    return check_vvis((variant,), f, cone, kernel, xi, plan, quantifier, extra_points)[0]


# ---------------------------------------------------------------------------
# Invexity classes
# ---------------------------------------------------------------------------

def _pair_table(f: PiecewiseVectorFn, kernel: Kernel, xs: np.ndarray, ys: np.ndarray) -> tuple:
    """The class-independent part of every invexity implication on the pairs
    (xs, ys): ||eta(x, y)||, f(x) - f(y), the products A eta with the
    activity mask of every piece's Jacobian A at y, as _vertex_products_at
    returns them, and then f(x) and f(y), which a witness records."""
    eta = kernel.eval_many(xs, ys)
    eta_norm = np.linalg.norm(eta, axis=1)
    # once per run of equal rows, as the audit's extra pairs repeat xi
    (hx, rx), (hy, ry) = _runs(xs), _runs(ys)
    fx, fy = _expand(f.values(hx), rx), _expand(f.values(hy), ry)
    return (eta_norm, fx - fy) + _vertex_products_at(f, hy, eta, ry) + (fx, fy)


def _class_violations(cls: InvexClass, cone: OrderingCone, e: np.ndarray, table: tuple) -> np.ndarray:
    """Mask of the pairs of a _pair_table where the class's implication fails."""
    eta_norm, fdiff, prods, active = table[:4]
    penalty = eta_norm[:, None] * e[None, :]
    # type I puts the penalty e||eta|| in the premise, type II in the
    # conclusion; subtracting 0.0 leaves every float as it is
    type_one = cls in (InvexClass.PSEUDO_I, InvexClass.QUASI_I)
    in_premise, in_conclusion = (penalty, 0.0) if type_one else (0.0, penalty)

    # prods holds A eta for every piece's A, shape (pieces, N, m)
    if cls is InvexClass.INVEX:
        # f(x) - f(y) >=_C A eta - e||eta|| for every A
        viol = ~_forall_active(cone.contains_many(fdiff - prods + penalty), active)
    elif cls in (InvexClass.PSEUDO_I, InvexClass.PSEUDO_II):
        premise = cone.strictly_contains_many(-fdiff - in_premise)
        viol = premise & ~_forall_active(cone.strictly_contains_many(-prods - in_conclusion), active)
    else:
        premise_vals = prods - in_premise
        premise = _exists_active(cone.strictly_contains_many(premise_vals), active)
        premise = _hull_exists_refine(premise_vals, active, cone.strictly_contains_many, premise)
        viol = premise & ~cone.strictly_contains_many(fdiff - in_conclusion)
    # a pair whose points differ only by rounding decides nothing
    return viol & (eta_norm > ZERO_ETA_TOL)


def _invex_violation_mask(
    cls: InvexClass,
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    kernel: Kernel,
    e: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    return _class_violations(cls, cone, e, _pair_table(f, kernel, xs, ys))


def check_invex_classes(
    classes: Sequence,
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    kernel: Kernel,
    e,
    x0,
    r: float,
    plan: Optional[SamplingPlan] = None,
    extra_pairs: Optional[tuple] = None,
) -> tuple:
    """One Verdict per class of ``classes``, in that order, each equal to
    ``check_invex_class`` of that class: the pairs are drawn and evaluated
    once, and only the final cone tests depend on the class.

    An error raised before the classes are decided (domain, e, sampling or
    piece evaluation) is raised for every class. The classes are then
    decided in order, and the first error that one of them raises (such as
    replaying a witness outside the domain) is raised; a call without that
    class does not raise it.
    """
    classes = [c if isinstance(c, InvexClass) else InvexClass.parse(str(c)) for c in classes]
    plan = plan or SamplingPlan()
    e = _interior_e(cone, e)
    x0 = f.require_inside(x0, "x0")
    f.require_ball_inside(x0, r)

    px, py = probe_pairs(f, _probe_pairs, x0, r)
    sx, sy = ball_draw(f, sampling.ball_pairs, x0, r, plan.pair_sample_count, plan.seed)
    ex, ey = extra_pairs if extra_pairs is not None else (None, None)
    xs = _stack_points([px, ex, sx])
    ys = _stack_points([py, ey, sy])
    table = _pair_table(f, kernel, xs, ys)
    fx, fy = table[4:]

    def verdict(cls: InvexClass) -> Verdict:
        viol = _class_violations(cls, cone, e, table)
        stats = _base_stats(
            plan,
            cone,
            pairCount=int(xs.shape[0]),
            probePairCount=int(px.shape[0]),
            radius=float(r),
            invexClass=cls.value,
            e=_listify(e),
            x0=_listify(x0),
        )

        def refute(x, y, fx, fy):
            # a witness lies in the domain, as an extra pair need not
            f.require_inside(x)
            f.require_inside(y)
            return f"pair (x, y) violates the {cls.value} implication", {
                "x": x.tolist(),
                "y": y.tolist(),
                "fx": _listify(fx),
                "fy": _listify(fy),
                "eta": _listify(kernel.eval(x, y)),
            }

        certified = f"the {cls.value} implication held on every sampled pair"
        return _sampled_verdict(viol, (xs, ys, fx, fy), refute, certified, stats)

    return tuple(verdict(cls) for cls in classes)


def check_invex_class(
    cls,
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    kernel: Kernel,
    e,
    x0,
    r: float,
    plan: Optional[SamplingPlan] = None,
    extra_pairs: Optional[tuple] = None,
) -> Verdict:
    """Sample pairs (x, y) in B(x0, r)^2 and evaluate the class's defining
    implication, the forall over the Jacobian polytope reduced to vertices and
    the exists evaluated on vertices plus a simplex grid of hull mixtures.

    To check a class for -f, pass f.negated(). To decide several classes on
    one pair sample, as the theorem audit does, use check_invex_classes.
    """
    return check_invex_classes((cls,), f, cone, kernel, e, x0, r, plan, extra_pairs)[0]


# ---------------------------------------------------------------------------
# Gordan's alternative
# ---------------------------------------------------------------------------

def gordan_alternative(A, cone: Optional[OrderingCone] = None) -> GordanCertificate:
    """Decide which branch of Gordan's theorem holds for the matrix A.

    Either some x solves A x <_C 0, or some nonzero y >=_C 0 solves A^T y = 0,
    never both. Decided from the rank of A where it is clear, otherwise by a
    pair of small linear programs; numerically ambiguous instances raise
    DegenerateError instead of guessing. A matrix whose shape does not fit
    the cone, or that has no column, raises DimensionMismatchError, and one
    with a non-finite entry raises DegenerateError.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _alt.check_matrix(A, A.shape[0] if cone is None else cone.dim)
    # both branches are invariant under A -> cA (c > 0); on a unit-scale copy
    # the absolute thresholds of the re-verification mean the same for every
    # scale of A
    A = _alt.unit_scale(A)
    if cone is None:
        cone = OrderingCone.orthant(A.shape[0])
    return _alt.gordan(A, cone)


# ---------------------------------------------------------------------------
# Vector criticality
# ---------------------------------------------------------------------------

# Gordan evidence is recorded for this many leading grid lambdas
_EVIDENCE_LAMBDAS = 16


def _decomposed_grid(lambdas: np.ndarray, verts: np.ndarray) -> list:
    """(A, svd, unit) for every grid lambda: the mixture A of the vertices
    with its (u, rank), and for the first _EVIDENCE_LAMBDAS the unit-scale
    copy of A with its own (u, rank), else None; all from one
    ``np.linalg.svd`` call and one ``_alt.rank`` call. A mixture with a
    non-finite entry, and each one after it, gets None for its (u, rank):
    ``strict_mu`` rejects it, so the walk ends there."""
    # one vector-matrix product per lambda, stacked in one matmul: one 2-D
    # lambdas @ verts product over the grid rounds some mixtures differently
    k, m, n = verts.shape
    with np.errstate(invalid="ignore"):  # 0 * inf is NaN, which `finite` stops at
        mixes = np.matmul(lambdas[:, None, :], verts.reshape(k, -1)).reshape(-1, m, n)
    finite = np.all(np.isfinite(mixes), axis=(1, 2))
    reach = len(mixes) if finite.all() else int(np.argmin(finite))
    units = _alt.unit_scale(mixes[: min(reach, _EVIDENCE_LAMBDAS)])
    u, sigma, _ = np.linalg.svd(np.concatenate([mixes[:reach], units]), full_matrices=True)
    svds = list(zip(u, _alt.rank(sigma).tolist()))
    mix_svds = svds[:reach] + [None] * (len(mixes) - reach)
    unit_svds = list(zip(units, svds[reach:])) + [None] * (len(mixes) - len(units))
    return list(zip(mixes, mix_svds, unit_svds))


def check_vector_critical(
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    xi,
    plan: Optional[SamplingPlan] = None,
) -> Verdict:
    """Decide (up to the simplex grid over the Jacobian polytope) whether some
    A in the generalized Jacobian at xi admits mu >_C 0 with mu^T A = 0.

    CertifiedUpToSampling means critical (the found (lambda, mu) pair is in
    the certificate). Refuted means only that no mixture of the Jacobian's
    vertices on the lambda grid of depth SIMPLEX_GRID_DEPTH (8) is critical,
    with a Gordan alternative-1 direction recorded as evidence for every grid
    lambda; a critical mixture between grid points is not ruled out.

    The grid is walked in lambda order up to the first critical mixture. One
    stacked matmul mixes every lambda, and the rank tests of every mixture
    and of the unit-scale copies of the first 16 (the Gordan evidence) come
    from one stacked SVD, which ``strict_mu`` and ``_alt.gordan`` take in
    place of their own. The verdict, the rankDecided and lpSolved counters
    and the evidence are those of deciding each lambda in turn with its own
    SVDs.
    """
    plan = plan or SamplingPlan()
    xi = f.require_inside(xi, "xi")
    poly = f.clarke_jacobian(xi)
    verts = poly.as_array()  # (k, m, n)
    lambdas = sampling.simplex_weights(len(poly), SIMPLEX_GRID_DEPTH)
    threshold = max(cone.margin, 1e-9)
    stats = _base_stats(
        plan,
        cone,
        lambdaGridSize=int(len(lambdas)),
        vertexCount=int(len(poly)),
        xi=_listify(xi),
    )

    evidence = []
    ambiguous = None
    # rankDecided and lpSolved join the stats
    with _alt.counting(stats):
        for lam, (A, svd, unit) in zip(lambdas, _decomposed_grid(lambdas, verts)):
            mu, s = _alt.strict_mu(A, cone.normals, svd)
            if mu is not None and 1e-12 < s <= threshold and ambiguous is None:
                ambiguous = (lam, s)
            if mu is not None and s > threshold:
                return Verdict(
                    CERTIFIED,
                    "xi is a vector critical point: a strictly interior mu "
                    "annihilates the mixed Jacobian",
                    certificate={
                        "lambda": lam.tolist(),
                        "mu": _listify(mu),
                        "interiority": float(s),
                        "matrix": A.tolist(),
                        "activePieces": list(poly.active_pieces),
                    },
                    stats=stats,
                )
            if unit is not None:
                # gordan_alternative of A, from its unit-scale copy
                try:
                    gordan = _alt.gordan(unit[0], cone, unit[1])
                    evidence.append({"lambda": lam.tolist(), "gordan": gordan.to_dict()})
                except DegenerateError as exc:
                    evidence.append({"lambda": lam.tolist(), "degenerate": str(exc)})

    if ambiguous is not None:
        lam, s = ambiguous
        raise DegenerateError(
            f"interiority optimum {s:.3e} at lambda {lam.tolist()} sits inside the "
            f"strictness margin; criticality is numerically ambiguous"
        )
    return Verdict(
        REFUTED,
        "no sampled Jacobian mixture admits a strictly interior annihilating mu; "
        "xi is not a vector critical point",
        witness={"evidence": evidence, "lambdaGridSize": int(len(lambdas))},
        stats=stats,
    )
