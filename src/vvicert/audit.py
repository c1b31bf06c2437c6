"""Hypothesis-implies-conclusion audit of the optimality theorems.

Each rule encodes one theorem as checker calls: if every hypothesis certifies
(and every required kernel flag holds) the conclusion checker must not refute.
A VIOLATION row therefore indicates a checker or model bug, never a
counterexample to the theory; the expected audit outcome is always zero
violations.

Two mechanisms keep false violations out:

* sample alignment: the conclusion's ball sample stream is injected into the
  hypothesis checks (as extra points of the VVI search and extra (x, xi)
  pairs of the invexity check), so the pointwise implication chain of each
  proof is exercised on a shared sample universe;
* witness crosscheck: when a conclusion still refutes under certified
  hypotheses, the hypothesis conditions are re-evaluated directly at the
  conclusion witness, and a hypothesis that fails there downgrades the row to
  HypothesisNotCertified (the certification was a sampling artifact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import sampling
from .certify import (
    INAPPLICABLE,
    ZERO_ETA_TOL,
    InvexClass,
    SamplingPlan,
    Verdict,
    VVIVariant,
    _invex_violation_mask,
    _quasi_violation_mask,
    _vvi_violation_mask,
    check_invex_class,
    check_quasi_efficient,
    check_vector_critical,
    check_vvi,
)
from .errors import GenerationFailedError, VviCertError
from .problem import Problem

__all__ = [
    "TheoremRule",
    "AuditResult",
    "RandomInstanceSpec",
    "MatrixSummary",
    "RULES",
    "audit_rule",
    "generate_instance",
    "run_matrix",
]

# generated e vectors draw each component uniformly from this range
_E_RANGE = (0.2, 0.8)

CONSISTENT = "ConsistentWithTheorem"
NOT_CERTIFIED = "HypothesisNotCertified"
VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class TheoremRule:
    """One sufficiency/necessity statement as a falsifiable rule.

    The hypotheses are the invexity class `invex_class` of f, or of -f when
    `negated`, and the VVI `variant`, or vector criticality when `variant`
    is None. The conclusion is local quasi efficiency, weak when `weak`. A
    forward rule samples its class over pairs (x, xi), or (xi, x) on -f. A
    contrapositive rule takes the VVI refuted as its premise, samples its
    class over pairs (x, xi) on the witness segment, and expects the
    conclusion refuted too.
    """

    rule_id: str
    description: str
    invex_class: InvexClass
    negated: bool = False
    variant: Optional[VVIVariant] = None
    weak: bool = False
    required_flags: tuple = ()
    contrapositive: bool = False

    @property
    def class_key(self) -> str:
        """Hypothesis name of the invexity check, e.g. 'pseudo1(-f)'."""
        return f"{self.invex_class.value}({'-f' if self.negated else 'f'})"


RULES = {
    "T3.1": TheoremRule(
        "T3.1",
        "invex(f) + SVVI solution => local quasi efficient",
        InvexClass.INVEX,
        variant=VVIVariant.SVVI,
    ),
    "T3.2": TheoremRule(
        "T3.2",
        "invex(-f) + skew kernel + MVVI solution => local quasi efficient",
        InvexClass.INVEX,
        negated=True,
        variant=VVIVariant.MVVI,
        required_flags=("skew",),
    ),
    "T3.3": TheoremRule(
        "T3.3",
        "pseudo type II (f) + SVVI solution => local quasi efficient",
        InvexClass.PSEUDO_II,
        variant=VVIVariant.SVVI,
    ),
    "T4.1": TheoremRule(
        "T4.1",
        "affine kernel + quasi type II (-f): WSVVI refuted => quasi weak "
        "efficiency refuted (contrapositive form)",
        InvexClass.QUASI_II,
        negated=True,
        variant=VVIVariant.WSVVI,
        weak=True,
        required_flags=("first_arg_affine", "vanishes_on_diagonal"),
        contrapositive=True,
    ),
    "T4.2": TheoremRule(
        "T4.2",
        "pseudo type I (-f) + skew kernel + WMVVI solution => local quasi "
        "weak efficient",
        InvexClass.PSEUDO_I,
        negated=True,
        variant=VVIVariant.WMVVI,
        weak=True,
        required_flags=("skew",),
    ),
    "T4.6": TheoremRule(
        "T4.6",
        "pseudo type I (f) + vector critical point => local quasi weak efficient",
        InvexClass.PSEUDO_I,
        weak=True,
    ),
    "R4.0": TheoremRule(
        "R4.0",
        "pseudo type I (f) + WSVVI solution => local quasi weak efficient",
        InvexClass.PSEUDO_I,
        variant=VVIVariant.WSVVI,
        weak=True,
    ),
}


@dataclass
class AuditResult:
    rule_id: str
    instance: str
    hypothesis_verdicts: dict
    conclusion_verdict: Optional[Verdict]
    outcome: str
    notes: list = field(default_factory=list)

    def to_payload(self) -> dict:
        def enc(v):
            if isinstance(v, Verdict):
                return v.to_payload()
            return v

        return {
            "rule": self.rule_id,
            "instance": self.instance,
            "hypotheses": {k: enc(v) for k, v in self.hypothesis_verdicts.items()},
            "conclusion": None
            if self.conclusion_verdict is None
            else self.conclusion_verdict.to_payload(),
            "outcome": self.outcome,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# Point-level condition replays used by the crosschecks
# ---------------------------------------------------------------------------

def _pair_violates_class(cls, f, cone, kernel, e, x, y) -> bool:
    return bool(
        _invex_violation_mask(
            cls, f, cone, kernel, e,
            np.asarray(x, float)[None, :], np.asarray(y, float)[None, :],
        )[0]
    )


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------

def _tile(xi: np.ndarray, count: int) -> np.ndarray:
    return np.tile(xi[None, :], (count, 1))


def audit_rule(
    rule: TheoremRule,
    problem: Problem,
    point,
    plan: Optional[SamplingPlan] = None,
) -> AuditResult:
    """Run one rule on one instance at one base point."""
    if isinstance(rule, str):
        rule = RULES[rule]
    plan = plan or SamplingPlan()
    f, kernel = problem.f, problem.kernel
    xi = problem.point(point)
    label = f"{problem.name or 'problem'}@{np.asarray(xi).tolist()}"
    hyp: dict = {}
    notes: list = []

    flags = kernel.flags(f.inner_box(), seed=plan.seed)
    for name in rule.required_flags:
        ok = bool(getattr(flags, name))
        hyp[f"flag:{name}"] = ok
        if not ok:
            return AuditResult(
                rule.rule_id, label, hyp, None, NOT_CERTIFIED,
                [f"kernel flag {name} not established"],
            )

    try:
        if rule.contrapositive:
            return _audit_t41(rule, problem, xi, plan, hyp, notes, label)
        return _audit_forward(rule, problem, xi, plan, hyp, notes, label)
    except VviCertError as exc:
        hyp["error"] = Verdict(INAPPLICABLE, str(exc))
        return AuditResult(
            rule.rule_id, label, hyp, None, NOT_CERTIFIED,
            notes + [f"checker error treated as inapplicable: {exc}"],
        )


def _audit_forward(rule, problem, xi, plan, hyp, notes, label) -> AuditResult:
    f, cone, kernel, e = problem.f, problem.cone, problem.kernel, problem.e
    r = plan.radius
    ball = sampling.ball_points(xi, r, plan.ball_sample_count, plan.seed)
    fn = f.negated() if rule.negated else f
    pairs = (ball, _tile(xi, ball.shape[0]))  # pairs (x, xi), or (xi, x) on -f
    if rule.negated:
        pairs = pairs[::-1]

    hyp[rule.class_key] = check_invex_class(
        rule.invex_class, fn, cone, kernel, e, xi, r, plan, extra_pairs=pairs
    )
    if rule.variant is None:
        hyp["critical"] = check_vector_critical(f, cone, xi, plan)
    else:
        hyp[rule.variant.value] = check_vvi(
            rule.variant, f, cone, kernel, xi, plan, extra_points=ball
        )

    not_certified = [
        k for k, v in hyp.items() if isinstance(v, Verdict) and not v.certified
    ]
    if not_certified:
        return AuditResult(
            rule.rule_id, label, hyp, None, NOT_CERTIFIED,
            notes + [f"hypotheses not certified: {', '.join(not_certified)}"],
        )

    conclusion = check_quasi_efficient(
        f, cone, kernel, e, xi, r, weak=rule.weak, plan=plan
    )
    if not conclusion.refuted:
        return AuditResult(rule.rule_id, label, hyp, conclusion, CONSISTENT, notes)

    # certified hypotheses + refuted conclusion: replay hypotheses at witness
    x_star = np.asarray(conclusion.witness["x"], dtype=float)
    a, b = (xi, x_star) if rule.negated else (x_star, xi)
    if _pair_violates_class(rule.invex_class, fn, cone, kernel, e, a, b):
        notes.append(
            f"{rule.class_key} hypothesis violated at the conclusion witness pair; "
            f"certification was a sampling artifact"
        )
        return AuditResult(rule.rule_id, label, hyp, conclusion, NOT_CERTIFIED, notes)
    # the forall reading that check_vvi certified; a zero-eta x decides nothing
    if rule.variant is not None and _vvi_violation_mask(
        rule.variant, f, cone, kernel, xi, x_star[None, :], "forall"
    )[0][0]:
        notes.append(
            f"{rule.variant.value} hypothesis violated at the conclusion witness; "
            f"certification was a sampling artifact"
        )
        return AuditResult(rule.rule_id, label, hyp, conclusion, NOT_CERTIFIED, notes)
    notes.append("conclusion witness replays while every hypothesis holds at it")
    return AuditResult(rule.rule_id, label, hyp, conclusion, VIOLATION, notes)


def _segment_points(xi: np.ndarray, x_hat: np.ndarray, r: float) -> np.ndarray:
    """Points xi + lambda (x_hat - xi) inside B(xi, r): for a kernel affine
    in its first argument, a WSVVI witness transports along this segment into
    arbitrarily small balls, which is exactly where the contrapositive rule
    expects efficiency violations."""
    lams = np.concatenate([np.geomspace(1e-4, 1.0, 10), np.linspace(0.1, 1.0, 8)])
    pts = xi[None, :] + lams[:, None] * (x_hat - xi)[None, :]
    keep = np.linalg.norm(pts - xi[None, :], axis=1) <= r
    pts = pts[keep]
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def _audit_t41(rule, problem, xi, plan, hyp, notes, label) -> AuditResult:
    f, cone, kernel, e = problem.f, problem.cone, problem.kernel, problem.e
    r = plan.radius
    fn = f.negated() if rule.negated else f
    ball = sampling.ball_points(xi, r, plan.ball_sample_count, plan.seed)

    vvi = check_vvi(rule.variant, f, cone, kernel, xi, plan, extra_points=ball)
    hyp[f"{rule.variant.value}-refuted"] = vvi
    if not vvi.refuted:
        return AuditResult(
            rule.rule_id, label, hyp, None, NOT_CERTIFIED,
            notes + ["contrapositive premise empty: WSVVI was not refuted"],
        )
    x_hat = np.asarray(vvi.witness["x"], dtype=float)
    segment = _segment_points(xi, x_hat, r)

    # pairs (x, xi) along the witness segment and the ball
    hyp[rule.class_key] = check_invex_class(
        rule.invex_class, fn, cone, kernel, e, xi, r, plan,
        extra_pairs=(
            np.vstack([segment, ball]),
            _tile(xi, segment.shape[0] + ball.shape[0]),
        ),
    )
    if not hyp[rule.class_key].certified:
        return AuditResult(
            rule.rule_id, label, hyp, None, NOT_CERTIFIED,
            notes + ["quasi type II hypothesis on -f not certified"],
        )

    conclusion = check_quasi_efficient(
        f, cone, kernel, e, xi, r, weak=rule.weak, plan=plan, extra_points=segment
    )
    if conclusion.refuted:
        return AuditResult(rule.rule_id, label, hyp, conclusion, CONSISTENT, notes)

    # conclusion unexpectedly certified: decide bug vs hypothesis artifact
    poly = f.clarke_jacobian(xi)
    for x0 in segment:
        eta0 = kernel.eval(x0, xi)
        if np.linalg.norm(eta0) <= ZERO_ETA_TOL:
            continue
        premise = any(cone.strictly_contains(-(v @ eta0)) for v in poly.vertices)
        if not premise:
            continue
        if _pair_violates_class(rule.invex_class, fn, cone, kernel, e, x0, xi):
            notes.append(
                "quasi type II (-f) hypothesis violated on the witness segment; "
                "certification was a sampling artifact"
            )
            return AuditResult(rule.rule_id, label, hyp, conclusion, NOT_CERTIFIED, notes)
        viol = _quasi_violation_mask(f, cone, kernel, e, xi, rule.weak, x0[None, :])[0]
        if viol:
            notes.append(
                "segment point refutes quasi weak efficiency although the "
                "conclusion check certified: checker inconsistency"
            )
            return AuditResult(rule.rule_id, label, hyp, conclusion, VIOLATION, notes)
    notes.append(
        "kernel affinity did not transport the WSVVI witness into the ball; "
        "contrapositive premise could not be propagated"
    )
    return AuditResult(rule.rule_id, label, hyp, conclusion, NOT_CERTIFIED, notes)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

@dataclass
class RandomInstanceSpec:
    """Recipe for a generated continuous piecewise-polynomial instance.

    Pieces are glued along hyperplanes by construction (each side adds a
    multiple of the gluing form to a common base polynomial), so continuity
    holds exactly and the Jacobian jump across the boundary is genuine.
    """

    seed: int
    n: int = 1
    m: int = 2
    piece_count: int = 2
    degree: int = 3
    kernel_kind: str = "difference"

    def __post_init__(self):
        if not 1 <= self.n <= 3 or not 1 <= self.m <= 3:
            raise GenerationFailedError("dimensions must satisfy 1 <= n, m <= 3")
        if not 1 <= self.degree <= 3:
            raise GenerationFailedError("degree must be between 1 and 3")


def _poly_text(rng: np.random.Generator, n: int, degree: int, terms: int = 3) -> str:
    parts = []
    for _ in range(terms):
        c = round(float(rng.uniform(-1.0, 1.0)), 3) or 0.25
        total = int(rng.integers(0, degree + 1))
        powers = np.zeros(n, dtype=int)
        for _ in range(total):
            powers[int(rng.integers(0, n))] += 1
        term = f"{c}"
        for j, p in enumerate(powers):
            if p == 1:
                term += f"*x{j + 1}"
            elif p > 1:
                term += f"*x{j + 1}^{int(p)}"
        parts.append(term)
    return " + ".join(parts)


def _linear_form(rng: np.random.Generator, n: int) -> tuple[str, np.ndarray]:
    while True:
        a = rng.integers(-1, 2, size=n)
        if np.any(a != 0):
            break
    text = " + ".join(f"{int(c)}*x{j + 1}" for j, c in enumerate(a) if c != 0)
    return text, a.astype(float)


def generate_instance(spec: RandomInstanceSpec) -> Problem:
    """Deterministic per seed; the result passes the model's sampled coverage
    and continuity validation. Raises GenerationFailedError when the spec is
    degenerate or retries are exhausted."""
    if spec.piece_count < 1:
        raise GenerationFailedError("piece count must be >= 1")
    if spec.piece_count > 3:
        raise GenerationFailedError("piece count must be <= 3")
    last_error = "no attempt"
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, attempt]))
        try:
            problem = _generate_once(spec, rng)
        except VviCertError as exc:
            last_error = str(exc)
            continue
        issues = problem.f.validate(sample_count=256, seed=spec.seed)
        if issues:
            last_error = "; ".join(issues)
            continue
        return problem
    raise GenerationFailedError(
        f"instance generation failed after retries (seed {spec.seed}): {last_error}"
    )


def _generate_once(spec: RandomInstanceSpec, rng: np.random.Generator) -> Problem:
    n, m = spec.n, spec.m
    domain = [[-2.0, 2.0]] * n
    base = [_poly_text(rng, n, spec.degree) for _ in range(m)]
    qdeg = max(0, min(2, spec.degree - 1))

    def bump(form_text: str, offset: float) -> str:
        c = round(float(rng.uniform(-1.0, 1.0)), 3) or 0.5
        q = _poly_text(rng, n, qdeg, terms=2)
        return f"({c})*(({form_text}) - ({offset}))*({q})"

    pieces = []
    xi = np.zeros(n)
    if spec.piece_count == 1:
        pieces.append({"region": "0 <= 1", "components": list(base)})
    else:
        form, a = _linear_form(rng, n)
        if spec.piece_count == 2:
            b = round(float(rng.uniform(-0.4, 0.4)), 2)
            pieces.append(
                {
                    "region": f"{form} >= {b}",
                    "components": [f"({g}) + {bump(form, b)}" for g in base],
                }
            )
            pieces.append(
                {
                    "region": f"{form} <= {b}",
                    "components": [f"({g}) + {bump(form, b)}" for g in base],
                }
            )
            xi = (b / float(a @ a)) * a
        else:
            b1 = round(float(rng.uniform(-0.6, -0.1)), 2)
            b2 = round(float(rng.uniform(0.1, 0.6)), 2)
            pieces.append(
                {
                    "region": f"{form} <= {b1}",
                    "components": [f"({g}) + {bump(form, b1)}" for g in base],
                }
            )
            pieces.append(
                {
                    "region": f"{form} >= {b1} and {form} <= {b2}",
                    "components": list(base),
                }
            )
            pieces.append(
                {
                    "region": f"{form} >= {b2}",
                    "components": [f"({g}) + {bump(form, b2)}" for g in base],
                }
            )
            xi = (b1 / float(a @ a)) * a
    e = np.round(rng.uniform(*_E_RANGE, size=m), 3)
    spec_dict = {
        "version": "vvicert/1",
        "name": f"generated-{spec.seed}",
        "n": n,
        "m": m,
        "domain": domain,
        "pieces": pieces,
        "cone": {"orthant": m},
        "kernel": {"kind": spec.kernel_kind},
        "e": e.tolist(),
        "points": {"x0": xi.tolist()},
    }
    return Problem.from_dict(spec_dict, name=spec_dict["name"])


# ---------------------------------------------------------------------------
# Matrix runner
# ---------------------------------------------------------------------------

@dataclass
class MatrixSummary:
    results: list

    @property
    def violation_count(self) -> int:
        return sum(1 for r in self.results if r.outcome == VIOLATION)

    @property
    def exit_status(self) -> int:
        return 1 if self.violation_count else 0

    def counts(self) -> dict:
        out = {CONSISTENT: 0, NOT_CERTIFIED: 0, VIOLATION: 0}
        for r in self.results:
            out[r.outcome] += 1
        return out

    def to_payload(self) -> dict:
        return {
            "rows": [r.to_payload() for r in self.results],
            "counts": self.counts(),
            "violations": self.violation_count,
        }

    def table(self) -> str:
        lines = [f"{'rule':6} {'outcome':24} instance"]
        for r in self.results:
            lines.append(f"{r.rule_id:6} {r.outcome:24} {r.instance}")
        c = self.counts()
        lines.append(
            f"-- consistent: {c[CONSISTENT]}, hypothesis-not-certified: "
            f"{c[NOT_CERTIFIED]}, violations: {c[VIOLATION]}"
        )
        return "\n".join(lines)


def run_matrix(
    rules: Sequence,
    instances: Sequence[tuple],
    plan: Optional[SamplingPlan] = None,
) -> MatrixSummary:
    """Audit every rule against every (problem, point) instance.

    Results are ordered by (rule, instance) so summaries merge
    deterministically regardless of evaluation strategy.
    """
    if not rules:
        raise ValueError("empty rule list")
    if not instances:
        raise ValueError("empty instance list")
    rules = [RULES[r] if isinstance(r, str) else r for r in rules]
    results = []
    for rule in sorted(rules, key=lambda r: r.rule_id):
        for problem, point in instances:
            results.append(audit_rule(rule, problem, point, plan))
    return MatrixSummary(results)
