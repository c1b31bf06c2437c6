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

from . import _alt, sampling
from ._alt import GordanCertificate
# LP calls are traced under this name (perfbench/spans.py)
from ._alt import linprog  # noqa: F401
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


# ---------------------------------------------------------------------------
# Point assembly
# ---------------------------------------------------------------------------

def _stack_points(parts: Sequence[np.ndarray], n: int) -> np.ndarray:
    parts = [np.atleast_2d(np.asarray(p, dtype=float)) for p in parts if p is not None and len(p)]
    if not parts:
        return np.empty((0, n))
    return np.vstack(parts)


def _probe_pairs(f: PiecewiseVectorFn, x0: np.ndarray, r: float):
    """Ordered pairs over {center} + the first 12 boundary probes; the
    structured prefix of every pair stream. Pairs are enumerated with the
    center first and probes in lexicographic order, so witnesses are
    plan-deterministic."""
    probes = boundary_probes(f, x0, r)
    pts = [np.asarray(x0, dtype=float)]
    for p in probes[:12]:
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
) -> np.ndarray:
    eta = kernel.eval_many(x, xi[None, :])
    eta_norm = np.linalg.norm(eta, axis=1)
    shifted = f.values(x) + eta_norm[:, None] * e[None, :]
    diff = f.value(xi)[None, :] - shifted
    mask = cone.strictly_contains_many(diff) if weak else cone.contains_many(diff)
    return mask & (eta_norm > ZERO_ETA_TOL)


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


def _vvi_violation_mask(
    variant: VVIVariant,
    f: PiecewiseVectorFn,
    cone: OrderingCone,
    kernel: Kernel,
    xi: np.ndarray,
    x: np.ndarray,
    quantifier: str,
) -> tuple[np.ndarray, int]:
    """Mask of the rows of x where A @ eta(x, xi) <=_C 0 (<_C 0 for weak
    variants) holds for every Jacobian vertex A, or for some element of the
    Jacobian hull under quantifier='exists'; the Jacobian is taken at x for
    Minty variants and at xi otherwise. Also returns the largest number of
    vertices met at one row."""
    eta = kernel.eval_many(x, xi[None, :])

    def _holds(values: np.ndarray) -> np.ndarray:
        # values: (..., m) products A @ eta
        return (
            cone.strictly_contains_many(-values)
            if variant.weak
            else cone.contains_many(-values)
        )

    if variant.minty:
        prods, active = _vertex_products_at(f, x, eta)
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
            prods, active, _holds, _exists_active(cond, active), SIMPLEX_GRID_DEPTH
        )
    viol = viol & (np.linalg.norm(eta, axis=1) > ZERO_ETA_TOL)
    return viol, int(active.sum(axis=0).max())


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
    are skipped.
    """
    if not isinstance(variant, VVIVariant):
        variant = VVIVariant(str(variant).strip().lower())
    if quantifier not in ("forall", "exists"):
        raise ValueError("quantifier must be 'forall' or 'exists'")
    plan = plan or SamplingPlan()
    xi = np.asarray(xi, dtype=float)
    f.require_inside(xi, "xi")

    inner = f.inner_box()
    box = np.stack(
        [np.maximum(xi - 1.0, inner[:, 0]), np.minimum(xi + 1.0, inner[:, 1])], axis=1
    )

    probe_radius = float(np.max(np.abs(box - xi[:, None])))
    probes = boundary_probes(f, xi, probe_radius)
    stream = sampling.box_points(box, plan.ball_sample_count, plan.seed)
    pts = _stack_points([probes, extra_points, stream], f.n)

    viol, vertex_count = _vvi_violation_mask(variant, f, cone, kernel, xi, pts, quantifier)
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
            witness={"x": x.tolist(), "eta": _listify(kernel.eval(x, xi))},
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
            premise_vals, active, cone.strictly_contains_many, premise, SIMPLEX_GRID_DEPTH
        )
        viol = premise & ~cone.strictly_contains_many(conclusion_vals)
    else:
        raise ValueError(f"unknown invexity class {cls!r}")
    # a pair whose points differ only by rounding decides nothing
    return viol & (eta_norm > ZERO_ETA_TOL)


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

    viol = _invex_violation_mask(cls, f, cone, kernel, e, xs, ys)
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

def gordan_alternative(A, cone: Optional[OrderingCone] = None) -> GordanCertificate:
    """Decide which branch of Gordan's theorem holds for the matrix A.

    Either some x solves A x <_C 0, or some nonzero y >=_C 0 solves A^T y = 0,
    never both. Decided from the rank of A where it is clear, otherwise by a
    pair of small linear programs; numerically ambiguous instances raise
    DegenerateError instead of guessing.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    # both branches are invariant under A -> cA (c > 0); on a unit-scale copy
    # the absolute thresholds of the re-verification mean the same for every
    # scale of A
    peak = float(np.max(np.abs(A)))
    if peak > 0.0:
        A = A / peak
    m = A.shape[0]
    if cone is None:
        cone = OrderingCone.orthant(m)
    if cone.dim != m:
        raise DegenerateError(f"matrix has {m} rows, cone dimension is {cone.dim}")
    return _alt.gordan(A, cone)


# ---------------------------------------------------------------------------
# Vector criticality
# ---------------------------------------------------------------------------

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
        for lam in lambdas:
            A = np.tensordot(lam, verts, axes=1)  # (m, n)
            mu, s = _alt.strict_mu(A, cone.normals)
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
