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

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from . import sampling
from .cone import OrderingCone
from .errors import DegenerateError, InvalidEError
from .model import TOL_ACTIVE, Kernel, PiecewiseVectorFn, boundary_probes

__all__ = [
    "Verdict",
    "SamplingPlan",
    "InvexClass",
    "VVIVariant",
    "GordanCertificate",
    "check_quasi_efficient",
    "check_vvi",
    "check_invex_class",
    "gordan_alternative",
    "check_vector_critical",
]

# eta values with norm at or below this count as zero and are excluded from
# the quantifiers of the VVIs and of quasi efficiency (eta(xi, xi) = 0 would
# otherwise make every xi trivially fail the Stampacchia inequality).
ZERO_ETA_TOL = 1e-12

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
        key = name.strip().lower().replace("-", "").replace("_", "").replace(" ", "")
        aliases = {
            "invex": cls.INVEX,
            "pseudo1": cls.PSEUDO_I,
            "pseudoi": cls.PSEUDO_I,
            "pseudo2": cls.PSEUDO_II,
            "pseudoii": cls.PSEUDO_II,
            "quasi1": cls.QUASI_I,
            "quasii": cls.QUASI_I,
            "quasi2": cls.QUASI_II,
            "quasiii": cls.QUASI_II,
        }
        if key not in aliases:
            raise ValueError(f"unknown invexity class {name!r}")
        return aliases[key]


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


@dataclass
class SamplingPlan:
    """Deterministic expansion recipe for every sampled quantifier.

    The same plan always expands to the same sample sequence, so verdicts are
    reproducible bit for bit.
    """

    seed: int = 42
    radius: float = 0.25
    ball_sample_count: int = 10_000
    pair_sample_count: int = 10_000
    search_box: Optional[np.ndarray] = None
    simplex_grid_depth: int = 8
    exclude_zero_eta: bool = True

    def __post_init__(self):
        if self.ball_sample_count < 1 or self.pair_sample_count < 1:
            raise ValueError("sample counts must be >= 1")
        if self.search_box is not None:
            self.search_box = np.asarray(self.search_box, dtype=float)

    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "radius": float(self.radius),
            "ballSampleCount": int(self.ball_sample_count),
            "pairSampleCount": int(self.pair_sample_count),
            "searchBox": None if self.search_box is None else self.search_box.tolist(),
            "simplexGridDepth": int(self.simplex_grid_depth),
            "excludeZeroEta": bool(self.exclude_zero_eta),
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


# ---------------------------------------------------------------------------
# Point assembly
# ---------------------------------------------------------------------------

def _stack_points(parts: Sequence[np.ndarray], n: int) -> np.ndarray:
    parts = [np.atleast_2d(np.asarray(p, dtype=float)) for p in parts if p is not None and len(p)]
    if not parts:
        return np.empty((0, n))
    return np.vstack(parts)


def _probe_pairs(f: PiecewiseVectorFn, x0: np.ndarray, r: float, cap: int = 12):
    """Ordered pairs over {center} + boundary probes; the structured prefix of
    every pair stream. Pairs are enumerated with the center first and probes
    in lexicographic order, so witnesses are plan-deterministic."""
    probes = boundary_probes(f, x0, r)
    pts = [np.asarray(x0, dtype=float)]
    for p in probes[:cap]:
        if not any(np.max(np.abs(p - q)) <= 1e-15 for q in pts):
            pts.append(p)
    xs, ys = [], []
    for a in pts:
        for b in pts:
            if np.max(np.abs(a - b)) <= 1e-15:
                continue
            xs.append(a)
            ys.append(b)
    if not xs:
        return np.empty((0, f.n)), np.empty((0, f.n))
    return np.array(xs), np.array(ys)


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
    exclude_zero_eta: bool,
) -> np.ndarray:
    eta = kernel.eval_many(x, xi[None, :])
    eta_norm = np.linalg.norm(eta, axis=1)
    shifted = f.values(x) + eta_norm[:, None] * e[None, :]
    diff = f.value(xi)[None, :] - shifted
    mask = cone.strictly_contains_many(diff) if weak else cone.contains_many(diff)
    if exclude_zero_eta:
        mask = mask & (eta_norm > ZERO_ETA_TOL)
    return mask


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
    e = np.asarray(e, dtype=float)
    if not cone.validate_e(e):
        raise InvalidEError(f"e = {e.tolist()} is not strictly interior to the cone")
    xi = np.asarray(xi, dtype=float)
    f.require_inside(xi, "xi")
    f.require_ball_inside(xi, r)

    probes = boundary_probes(f, xi, r)
    stream = sampling.ball_points(xi, r, plan.ball_sample_count, plan.seed)
    pts = _stack_points([probes, extra_points, stream], f.n)
    viol = _quasi_violation_mask(f, cone, kernel, e, xi, weak, pts, plan.exclude_zero_eta)

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
    if viol.any():
        idx = int(np.argmax(viol))
        x = pts[idx]
        eta = kernel.eval(x, xi)
        return Verdict(
            REFUTED,
            f"x = {x.tolist()} violates local ({kind}) optimality at xi",
            witness={
                "x": x.tolist(),
                "fx": _listify(f.value(x)),
                "fxi": _listify(f.value(xi)),
                "eta": _listify(eta),
            },
            stats=stats,
        )
    return Verdict(
        CERTIFIED,
        f"no violation of {kind} found in B(xi, r) at the recorded sampling effort",
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Vector variational inequalities
# ---------------------------------------------------------------------------

def _vertex_products_at(
    f: PiecewiseVectorFn, pts: np.ndarray, eta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-piece products A_piece(x) @ eta(x) and the activity mask.

    Returns (products, active) with shapes (pieces, N, m) and (pieces, N).
    Inactive entries are garbage and must be masked by the caller; duplicate
    vertices are harmless for the forall/exists combinators used downstream.
    """
    active = f.active_mask(pts, TOL_ACTIVE)
    prods = np.zeros((len(f.pieces), pts.shape[0], f.m))
    for j in range(len(f.pieces)):
        idx = np.nonzero(active[j])[0]
        if idx.size == 0:
            continue
        jac = f.piece_jacobians_many(j, pts[idx])  # (k, m, n)
        prods[j, idx] = np.einsum("kmn,kn->km", jac, eta[idx])
    return prods, active


def _forall_active(cond: np.ndarray, active: np.ndarray) -> np.ndarray:
    return np.all(np.where(active, cond, True), axis=0)


def _exists_active(cond: np.ndarray, active: np.ndarray) -> np.ndarray:
    return np.any(cond & active, axis=0)


def _hull_exists_refine(
    prods: np.ndarray,
    active: np.ndarray,
    test_many,
    base: np.ndarray,
    depth: int,
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
        lams = sampling.simplex_weights(len(act), depth)  # (L, k)
        # point blocks keep the (points, L, m) mixture array bounded
        block = max(1, _HULL_MIX_FLOATS // (len(lams) * prods.shape[2]))
        for start in range(0, idx.size, block):
            rows = idx[start:start + block]
            mix = lams @ prods[np.ix_(act, rows)].transpose(1, 0, 2)  # (points, L, m)
            out[rows] = test_many(mix).any(axis=1)
    return out


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
    where a single Jacobian element suffices. The search region is the plan's
    box (default: the unit box around xi), clipped to the open domain.
    """
    if not isinstance(variant, VVIVariant):
        variant = VVIVariant(str(variant).strip().lower())
    if quantifier not in ("forall", "exists"):
        raise ValueError("quantifier must be 'forall' or 'exists'")
    plan = plan or SamplingPlan()
    xi = np.asarray(xi, dtype=float)
    f.require_inside(xi, "xi")

    inner = f.inner_box()
    if plan.search_box is not None:
        box = np.asarray(plan.search_box, dtype=float).reshape(f.n, 2)
        box = np.stack(
            [np.maximum(box[:, 0], inner[:, 0]), np.minimum(box[:, 1], inner[:, 1])],
            axis=1,
        )
    else:
        box = np.stack(
            [np.maximum(xi - 1.0, inner[:, 0]), np.minimum(xi + 1.0, inner[:, 1])],
            axis=1,
        )

    probe_radius = float(np.max(np.abs(box - xi[:, None])))
    probes = boundary_probes(f, xi, probe_radius)
    stream = sampling.box_points(box, plan.ball_sample_count, plan.seed)
    pts = _stack_points([probes, extra_points, stream], f.n)

    eta = kernel.eval_many(pts, xi[None, :])
    eta_norm = np.linalg.norm(eta, axis=1)
    nz = eta_norm > ZERO_ETA_TOL if plan.exclude_zero_eta else np.ones(len(pts), bool)

    strict = variant.weak

    def _holds(values: np.ndarray) -> np.ndarray:
        # values: (..., m) products A @ eta; condition A eta <=_C 0 (or <_C 0)
        return (
            cone.strictly_contains_many(-values)
            if strict
            else cone.contains_many(-values)
        )

    if variant.minty:
        prods, active = _vertex_products_at(f, pts, eta)
    else:
        # every vertex of the Jacobian at xi applies at every point
        poly = f.clarke_jacobian(xi)
        prods = np.stack([eta @ v.T for v in poly.vertices], axis=0)  # (k, N, m)
        active = np.ones(prods.shape[:2], dtype=bool)
    cond = _holds(prods)
    if quantifier == "forall":
        viol = _forall_active(cond, active)
    else:
        viol = _hull_exists_refine(
            prods, active, _holds, _exists_active(cond, active), plan.simplex_grid_depth
        )
    vertex_count = int(active.sum(axis=0).max())

    viol = viol & nz
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
    if viol.any():
        idx = int(np.argmax(viol))
        x = pts[idx]
        where = "x" if variant.minty else "xi"
        return Verdict(
            REFUTED,
            f"x = {x.tolist()} satisfies the {variant.value.upper()} inequality "
            f"system (Jacobian taken at {where}); xi does not solve the VVI",
            witness={"x": x.tolist(), "eta": _listify(eta[idx])},
            stats=stats,
        )
    return Verdict(
        CERTIFIED,
        f"xi solves the {variant.value.upper()} over the sampled search region",
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Invexity classes
# ---------------------------------------------------------------------------

def _invex_violation_mask(
    cls: InvexClass,
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    kernel: Kernel,
    e: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    grid_depth: int,
    exclude_zero_eta: bool,
) -> np.ndarray:
    eta = kernel.eval_many(xs, ys)
    eta_norm = np.linalg.norm(eta, axis=1)
    fx = f.values(xs)
    fy = f.values(ys)
    fdiff = fx - fy
    penalty = eta_norm[:, None] * e[None, :]
    prods, active = _vertex_products_at(f, ys, eta)

    # prods holds A eta for every piece's A, shape (pieces, N, m)
    if cls is InvexClass.INVEX:
        # f(x) - f(y) >=_C A eta - e||eta|| for every A
        viol = ~_forall_active(cone.contains_many(fdiff - prods + penalty), active)
    elif cls is InvexClass.PSEUDO_I:
        premise = cone.strictly_contains_many(-penalty - fdiff)
        viol = premise & ~_forall_active(cone.strictly_contains_many(-prods), active)
    elif cls is InvexClass.PSEUDO_II:
        premise = cone.strictly_contains_many(-fdiff)
        viol = premise & ~_forall_active(cone.strictly_contains_many(-prods - penalty), active)
    elif cls in (InvexClass.QUASI_I, InvexClass.QUASI_II):
        # type I moves the penalty into the premise, type II into the conclusion
        if cls is InvexClass.QUASI_I:
            premise_vals, conclusion_vals = prods - penalty, fdiff
        else:
            premise_vals, conclusion_vals = prods, fdiff - penalty
        premise = _exists_active(cone.strictly_contains_many(premise_vals), active)
        premise = _hull_exists_refine(
            premise_vals, active, cone.strictly_contains_many, premise, grid_depth
        )
        viol = premise & ~cone.strictly_contains_many(conclusion_vals)
    else:
        raise ValueError(f"unknown invexity class {cls!r}")
    if exclude_zero_eta:
        # a pair whose points differ only by rounding decides nothing
        viol = viol & (eta_norm > ZERO_ETA_TOL)
    return viol


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

    To check a class for -f, pass f.negated().
    """
    if not isinstance(cls, InvexClass):
        cls = InvexClass.parse(str(cls))
    plan = plan or SamplingPlan()
    e = np.asarray(e, dtype=float)
    if not cone.validate_e(e):
        raise InvalidEError(f"e = {e.tolist()} is not strictly interior to the cone")
    x0 = np.asarray(x0, dtype=float)
    f.require_inside(x0, "x0")
    f.require_ball_inside(x0, r)

    px, py = _probe_pairs(f, x0, r)
    sx, sy = sampling.ball_pairs(x0, r, plan.pair_sample_count, plan.seed)
    ex, ey = extra_pairs if extra_pairs is not None else (None, None)
    xs = _stack_points([px, ex, sx], f.n)
    ys = _stack_points([py, ey, sy], f.n)

    viol = _invex_violation_mask(
        cls, f, cone, kernel, e, xs, ys, plan.simplex_grid_depth, plan.exclude_zero_eta
    )
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
    if viol.any():
        idx = int(np.argmax(viol))
        x, y = xs[idx], ys[idx]
        return Verdict(
            REFUTED,
            f"pair (x, y) violates the {cls.value} implication",
            witness={
                "x": x.tolist(),
                "y": y.tolist(),
                "fx": _listify(f.value(x)),
                "fy": _listify(f.value(y)),
                "eta": _listify(kernel.eval(x, y)),
            },
            stats=stats,
        )
    return Verdict(
        CERTIFIED,
        f"the {cls.value} implication held on every sampled pair",
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Gordan's alternative
# ---------------------------------------------------------------------------

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


def gordan_alternative(
    A, cone: Optional[OrderingCone] = None, tol: float = 1e-9
) -> GordanCertificate:
    """Decide which branch of Gordan's theorem holds for the matrix A.

    Either some x solves A x <_C 0, or some nonzero y >=_C 0 solves A^T y = 0,
    never both. Decided by a pair of small linear programs; numerically
    ambiguous instances raise DegenerateError instead of guessing.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    # both branches are invariant under A -> cA (c > 0); on a unit-scale copy
    # the absolute LP thresholds below mean the same for every scale of A
    peak = float(np.max(np.abs(A)))
    if peak > 0.0:
        A = A / peak
    m, n = A.shape
    if cone is None:
        cone = OrderingCone.orthant(m)
    if cone.dim != m:
        raise DegenerateError(f"matrix has {m} rows, cone dimension is {cone.dim}")
    M = cone.normals @ A  # A x in -int C  iff  M x < 0 componentwise
    h = M.shape[0]

    # LP1: max t subject to M x + t <= 0, |x| <= 1, 0 <= t <= 1
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([M, np.ones((h, 1))])
    b_ub = np.zeros(h)
    bounds = [(-1.0, 1.0)] * n + [(0.0, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise DegenerateError(f"alternative-1 LP failed: {res.message}")
    t_star = float(res.x[-1])
    if t_star > 1e-7:
        x = res.x[:n]
        if not cone.strictly_contains(-A @ x):
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
    y = cone.normals.T @ z
    scale = 1.0 + float(np.max(np.abs(A)))
    if np.max(np.abs(A.T @ y)) > 1e-7 * scale or np.linalg.norm(y) <= tol:
        raise DegenerateError("alternative-2 certificate failed re-verification")
    if cone.is_orthant:
        y = y / np.sum(y)
    return GordanCertificate(2, y=y, dual_coords=z, strictness=float(np.linalg.norm(y)))


# ---------------------------------------------------------------------------
# Vector criticality
# ---------------------------------------------------------------------------

def _strict_mu_lp(A: np.ndarray, cone: OrderingCone):
    """max s over mu with A^T mu = 0, N mu >= s, a.mu = 1 (a interior to C*).

    Positive optimum certifies a strictly interior mu annihilating A^T.
    """
    m = A.shape[0]
    normals = cone.normals
    h = normals.shape[0]
    a = normals.sum(axis=0)  # strictly positive on C minus the origin
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-normals, np.ones((h, 1))])
    b_ub = np.zeros(h)
    a_eq = np.vstack(
        [np.hstack([A.T, np.zeros((A.shape[1], 1))]), np.hstack([a, [0.0]])]
    )
    b_eq = np.concatenate([np.zeros(A.shape[1]), [1.0]])
    bounds = [(None, None)] * m + [(-1.0, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        return None, None
    return res.x[:m], float(res.x[-1])


def check_vector_critical(
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    xi,
    plan: Optional[SamplingPlan] = None,
) -> Verdict:
    """Decide (up to the simplex grid over the Jacobian polytope) whether some
    A in the generalized Jacobian at xi admits mu >_C 0 with mu^T A = 0.

    CertifiedUpToSampling means critical (the found (lambda, mu) pair is in
    the certificate); Refuted means not critical, with a Gordan alternative-1
    direction recorded as evidence for every sampled lambda.
    """
    plan = plan or SamplingPlan()
    xi = np.asarray(xi, dtype=float)
    f.require_inside(xi, "xi")
    poly = f.clarke_jacobian(xi)
    verts = poly.as_array()  # (k, m, n)
    lambdas = sampling.simplex_weights(len(poly), plan.simplex_grid_depth)
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
    for lam in lambdas:
        A = np.tensordot(lam, verts, axes=1)  # (m, n)
        mu, s = _strict_mu_lp(A, cone)
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
        if len(evidence) < 16:
            try:
                evidence.append(
                    {"lambda": lam.tolist(), "gordan": gordan_alternative(A, cone).to_dict()}
                )
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
