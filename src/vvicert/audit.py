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
    _stampacchia_products,
    _vvi_violation_mask,
    check_invex_classes,
    check_quasi_efficient,
    check_vector_critical,
    check_vvis,
)
from .errors import GenerationFailedError, VviCertError
from .model import ball_draw
from .problem import Problem

__all__ = [
    "TheoremRule",
    "AuditResult",
    "RandomInstanceSpec",
    "MatrixSummary",
    "RULES",
    "audit_rule",
    "generate_instance",
    "generated_instances",
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
# Rule evaluation
# ---------------------------------------------------------------------------

def _checked(problem: Problem, key: tuple, checker, *args, **kwargs):
    """checker(*args, **kwargs), run at most once per problem for each key.

    Rules on one problem share hypotheses (pseudo1(f) underlies R4.0 and
    T4.6, the SVVI T3.1 and T3.3, the forward rules on f one check of their
    invexity classes, and the rules whose VVIs take the Jacobian at the same
    site one check of their VVIs), so the verdicts live in the problem's
    memo. The key is the checker object itself, so a replaced or wrapped
    checker is called anew, plus every input it reads (see _inputs). A
    VviCertError outcome is kept and raised again.
    """
    return problem._memoized((checker,) + key, lambda: checker(*args, **kwargs))


def audit_rule(
    rule: TheoremRule,
    problem: Problem,
    point,
    plan: Optional[SamplingPlan] = None,
) -> AuditResult:
    """Run one rule on one instance at one base point.

    Checker verdicts are shared across rules on the same problem object:
    a hypothesis that another rule already checked with the same inputs
    (f, cone, kernel, e, point, plan and injected samples) is not checked
    again.
    The forward rules on f, and those on -f, decide all their invexity
    classes in one check on their shared pair sample, and the Stampacchia
    and the Minty VVIs of all rules are decided in one check for each.
    """
    if isinstance(rule, str):
        rule = RULES[rule]
    plan = plan or SamplingPlan()
    f, kernel = problem.f, problem.kernel
    xi = problem.point(point)
    label = f"{problem.name or 'problem'}@{np.asarray(xi).tolist()}"
    hyp: dict = {}  # filled by the rule, so an error row keeps what was decided

    flags = kernel.flags(f.inner_box(), seed=plan.seed)
    for name in rule.required_flags:
        ok = bool(getattr(flags, name))
        hyp[f"flag:{name}"] = ok
        if not ok:
            return AuditResult(
                rule.rule_id, label, hyp, None, NOT_CERTIFIED,
                [f"kernel flag {name} not established"],
            )

    decide = _audit_t41 if rule.contrapositive else _audit_forward
    try:
        outcome, conclusion, note = decide(rule, problem, xi, plan, hyp)
    except VviCertError as exc:
        hyp["error"] = Verdict(INAPPLICABLE, str(exc))
        outcome, conclusion = NOT_CERTIFIED, None
        note = f"checker error treated as inapplicable: {exc}"
    notes = [] if note is None else [note]
    return AuditResult(rule.rule_id, label, hyp, conclusion, outcome, notes)


def _inputs(problem: Problem, xi: np.ndarray, plan: SamplingPlan) -> tuple:
    """(key, ball): the memo key of the inputs every checker call of one
    audit reads, besides the rule's own choices, and the audit's ball sample
    around xi, which every rule injects into its checks.

    The key holds f, the cone, the kernel and the plan themselves, and e
    and xi by their bytes. None of them can change once built: their
    arrays are read-only, f's pieces a tuple and the plan frozen (their own
    memos rest on that too), so a reassigned one gives a new key, and as
    the key holds the object, no id() is reused; the plan compares by its
    values. The ball is f's memoized draw, the one check_quasi_efficient
    takes.
    """
    ball = ball_draw(
        problem.f, sampling.ball_points, xi, plan.radius, plan.ball_sample_count, plan.seed
    )
    key = (problem.f, problem.cone, problem.kernel, problem.e.tobytes(), xi.tobytes(), plan)
    return key, ball


# The invexity classes that one check decides on the shared pair sample of
# the forward rules on f (False) and on -f (True), and the VVI variants that
# one check decides at each Jacobian site, xi (False) or x (Minty, True), in
# enum order: every rule injects the same ball, so one call decides a group.
_CLASS_GROUPS = {
    negated: tuple(c for c in InvexClass if any(
        r.invex_class is c and r.negated == negated and not r.contrapositive
        for r in RULES.values()
    ))
    for negated in (False, True)
}
_VVI_GROUPS = {
    minty: tuple(v for v in VVIVariant if v.minty == minty and any(
        r.variant is v for r in RULES.values()
    ))
    for minty in (False, True)
}


def _decided(problem, key, checker, group, member, *args, **kwargs) -> Verdict:
    """member's verdict, taken from the one memoized checker(group, *args,
    **kwargs) call that decides its whole group (a member outside the group,
    of a rule that RULES does not hold, forms a group of its own); a checker
    error is raised for every member."""
    if member not in group:
        group = (member,)
    verdicts = _checked(problem, key + (group,), checker, group, *args, **kwargs)
    return verdicts[group.index(member)]


def _audit_forward(rule, problem, xi, plan, hyp) -> tuple:
    """(outcome, conclusion verdict or None, note or None) of a forward rule;
    the hypothesis verdicts go into hyp as they are decided."""
    f, cone, kernel, e = problem.f, problem.cone, problem.kernel, problem.e
    r = plan.radius
    inputs, ball = _inputs(problem, xi, plan)
    fn = f.negated() if rule.negated else f
    # pairs (x, xi), or (xi, x) on -f; xi's rows are a read-only view, no copy
    pairs = (ball, np.broadcast_to(xi, ball.shape))
    if rule.negated:
        pairs = pairs[::-1]

    hyp[rule.class_key] = _decided(
        problem, (inputs, rule.negated), check_invex_classes, _CLASS_GROUPS[rule.negated],
        rule.invex_class, fn, cone, kernel, e, xi, r, plan, extra_pairs=pairs,
    )
    if rule.variant is None:
        hyp["critical"] = _checked(
            problem, (inputs,), check_vector_critical, f, cone, xi, plan
        )
    else:
        hyp[rule.variant.value] = _decided(
            problem, (inputs,), check_vvis, _VVI_GROUPS[rule.variant.minty], rule.variant,
            f, cone, kernel, xi, plan, extra_points=ball,
        )

    not_certified = [
        k for k, v in hyp.items() if isinstance(v, Verdict) and not v.certified
    ]
    if not_certified:
        return NOT_CERTIFIED, None, f"hypotheses not certified: {', '.join(not_certified)}"

    conclusion = _checked(
        problem, (inputs, rule.weak), check_quasi_efficient,
        f, cone, kernel, e, xi, r, weak=rule.weak, plan=plan,
    )
    if not conclusion.refuted:
        return CONSISTENT, conclusion, None

    # certified hypotheses + refuted conclusion: replay hypotheses at witness
    x_star = np.asarray(conclusion.witness["x"], dtype=float)
    a, b = (xi, x_star) if rule.negated else (x_star, xi)
    if _invex_violation_mask(rule.invex_class, fn, cone, kernel, e, a[None, :], b[None, :])[0]:
        return NOT_CERTIFIED, conclusion, (
            f"{rule.class_key} hypothesis violated at the conclusion witness pair; "
            f"certification was a sampling artifact"
        )
    # the forall reading that check_vvi certified; a zero-eta x decides nothing
    if rule.variant is not None and _vvi_violation_mask(
        rule.variant, f, cone, kernel, xi, x_star[None, :], "forall"
    )[0][0]:
        return NOT_CERTIFIED, conclusion, (
            f"{rule.variant.value} hypothesis violated at the conclusion witness; "
            f"certification was a sampling artifact"
        )
    return VIOLATION, conclusion, "conclusion witness replays while every hypothesis holds at it"


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


def _audit_t41(rule, problem, xi, plan, hyp) -> tuple:
    """(outcome, conclusion verdict or None, note or None) of the
    contrapositive rule, filling hyp as _audit_forward does."""
    f, cone, kernel, e = problem.f, problem.cone, problem.kernel, problem.e
    r = plan.radius
    fn = f.negated() if rule.negated else f
    inputs, ball = _inputs(problem, xi, plan)

    vvi = _decided(
        problem, (inputs,), check_vvis, _VVI_GROUPS[rule.variant.minty], rule.variant,
        f, cone, kernel, xi, plan, extra_points=ball,
    )
    hyp[f"{rule.variant.value}-refuted"] = vvi
    if not vvi.refuted:
        return NOT_CERTIFIED, None, "contrapositive premise empty: WSVVI was not refuted"
    x_hat = np.asarray(vvi.witness["x"], dtype=float)
    segment = _segment_points(xi, x_hat, r)
    segment_key = segment.tobytes()

    # pairs (x, xi) along the witness segment and the ball
    xs = np.vstack([segment, ball])
    pairs = (xs, np.broadcast_to(xi, xs.shape))
    hyp[rule.class_key] = _decided(
        problem, (inputs, segment_key), check_invex_classes, (rule.invex_class,), rule.invex_class,
        fn, cone, kernel, e, xi, r, plan, extra_pairs=pairs,
    )
    if not hyp[rule.class_key].certified:
        return NOT_CERTIFIED, None, "quasi type II hypothesis on -f not certified"

    conclusion = _checked(
        problem, (inputs, rule.weak, segment_key), check_quasi_efficient,
        f, cone, kernel, e, xi, r, weak=rule.weak, plan=plan, extra_points=segment,
    )
    if conclusion.refuted:
        return CONSISTENT, conclusion, None

    # conclusion unexpectedly certified, although both checks above saw the
    # segment: decide bug vs hypothesis artifact at the first segment point
    # where -A eta(x, xi) lies in int C for some vertex A at xi and the class
    # or the conclusion breaks, the class taking precedence at that point
    eta = kernel.eval_many(segment, xi[None, :])
    premise = cone.strictly_contains_many(-_stampacchia_products(f, xi, eta)).any(axis=0)
    rows = segment[premise & (np.linalg.norm(eta, axis=1) > ZERO_ETA_TOL)]
    if rows.shape[0]:
        class_broken = _invex_violation_mask(
            rule.invex_class, fn, cone, kernel, e, rows, np.broadcast_to(xi, rows.shape)
        )
        broken = class_broken | _quasi_violation_mask(f, cone, kernel, e, xi, rule.weak, rows)
        if class_broken[np.argmax(broken)]:
            return NOT_CERTIFIED, conclusion, (
                "quasi type II (-f) hypothesis violated on the witness segment; "
                "certification was a sampling artifact"
            )
        if broken.any():
            return VIOLATION, conclusion, (
                "segment point refutes quasi weak efficiency although the "
                "conclusion check certified: checker inconsistency"
            )
    return NOT_CERTIFIED, conclusion, (
        "kernel affinity did not transport the WSVVI witness into the ball; "
        "contrapositive premise could not be propagated"
    )


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomInstanceSpec:
    """Recipe for a generated continuous piecewise-polynomial instance.

    Pieces are glued along hyperplanes by construction (each side adds a
    multiple of the gluing form to a common base polynomial), so continuity
    holds exactly and the Jacobian jump across the boundary is genuine.
    Every field is checked once, at construction; the spec is frozen so the
    check still holds when the instance is generated.
    """

    seed: int
    n: int = 1
    m: int = 2
    piece_count: int = 2
    degree: int = 3
    kernel_kind: str = "difference"

    def __post_init__(self):
        if self.seed < 0:
            raise GenerationFailedError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.n <= 3 or not 1 <= self.m <= 3:
            raise GenerationFailedError("dimensions must satisfy 1 <= n, m <= 3")
        if not 1 <= self.piece_count <= 3:
            raise GenerationFailedError("piece count must be between 1 and 3")
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

    # each side is (region, offset of its bump, or None for the bare base)
    sides = [("0 <= 1", None)]
    xi = np.zeros(n)
    if spec.piece_count > 1:
        form, a = _linear_form(rng, n)
        if spec.piece_count == 2:
            b = round(float(rng.uniform(-0.4, 0.4)), 2)
            sides = [(f"{form} >= {b}", b), (f"{form} <= {b}", b)]
        else:
            b = round(float(rng.uniform(-0.6, -0.1)), 2)
            b2 = round(float(rng.uniform(0.1, 0.6)), 2)
            sides = [
                (f"{form} <= {b}", b),
                (f"{form} >= {b} and {form} <= {b2}", None),
                (f"{form} >= {b2}", b2),
            ]
        xi = (b / float(a @ a)) * a  # on the first gluing plane
    pieces = [
        {
            "region": region,
            "components": [
                g if offset is None else f"({g}) + {bump(form, offset)}" for g in base
            ],
        }
        for region, offset in sides
    ]
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


def generated_instances(count: int, seed: int = 0) -> list:
    """The generated (problem, point) pairs of `vvicert audit --generated
    COUNT --seed SEED`, each at its point x0. Instance i has seed SEED + i;
    n, the piece count and the degree rotate through 1..3, m through 2..3,
    and the kernel alternates between difference and negNormDifference."""
    instances = []
    for i in range(count):
        problem = generate_instance(RandomInstanceSpec(
            seed=seed + i, n=1 + i % 3, m=2 + i % 2, piece_count=1 + i % 3,
            degree=1 + i % 3, kernel_kind=("difference", "negNormDifference")[i % 2],
        ))
        instances.append((problem, problem.point("x0")))
    return instances


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
