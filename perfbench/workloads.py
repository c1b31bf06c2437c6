"""Seeded inputs and operations of the benchmark workloads.

A workload is a fixed list of operations over problems built from ``--seed``.
``build_inputs`` makes every problem anew, so each timing round starts with
empty memo caches on the objects (``_probe_cache`` on ``PiecewiseVectorFn``,
``_flag_cache`` on ``Kernel``), as one CLI invocation does.

Problems are kept apart from the operations: ``problem_recipes`` says how to
build each problem, ``operations`` names the work done on them, and both
depend only on the workload name and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import vvicert
from vvicert import audit, certify, cli
from vvicert.cone import OrderingCone
from vvicert.problem import FORMAT_VERSION, Problem

AUDIT_RULES = tuple(sorted(audit.RULES))
KERNELS = ("difference", "negNormDifference")
# Generated audit-matrix instances: ten turns of the six-step shape rotation
# of acceptance criterion 10 and `vvicert audit --generated`.
AUDIT_GENERATED = 60
# A generated instance that the audit refutes with a rounding-only witness
# pair every time (README, Known failures). Its spec does not depend on the
# seed, so its failed row is the same share of every run.
ROUNDING_INSTANCE = dict(seed=13021, n=1, m=3, piece_count=3, degree=2,
                         kernel_kind="negNormDifference")
# A fixed polyhedral cone (not an orthant) for part of the Gordan matrices;
# rows are inward facet normals.
WEDGE_NORMALS = ((1.0, 0.2, 0.0), (0.0, 1.0, 0.2), (0.2, 0.0, 1.0))


@dataclass(frozen=True)
class Op:
    """One timed operation: ``kind`` selects the checker, ``problem`` the
    input problem (or Gordan matrix), ``arg`` the kind-specific choice."""

    kind: str
    problem: str
    arg: str = ""

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.problem}:{self.arg}"


def plan_for(workload: str) -> certify.SamplingPlan:
    """The plan keeps the CLI's default sampling seed: the benchmark seed
    varies the problems, not the streams (which are Halton for n <= 3)."""
    if workload == "audit-matrix":
        # the effort of acceptance criterion 10 (`vvicert audit --generated`
        # takes 2000 unless --samples is given)
        return certify.SamplingPlan(ball_sample_count=1000, pair_sample_count=1000)
    return certify.SamplingPlan()


# ---------------------------------------------------------------------------
# Problems the generator cannot make
# ---------------------------------------------------------------------------

def max_affine_spec(seed: int) -> dict:
    """f_i(x) = p_i(x) + a_i * max(l_1, l_2, l_3)(x) on R^2 with the three
    affine l_j equal at the base point, so three pieces are active there and
    the criticality grid at depth 8 has 45 mixtures.

    Every vertex maps the direction d = (1, 0) to a strictly negative vector
    (the gradient of p_i outweighs a_i times that of any l_j), so no
    mixture is critical (Gordan alternative 1 holds throughout) and every
    decision scans the whole grid.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3, 13]))
    xi = np.round(rng.uniform(-0.5, 0.5, size=2), 2)
    # gradients g_j of l_j with distinct first coordinates in [0.5, 1.5]
    g = np.round(np.column_stack([rng.permutation([0.5, 1.0, 1.5]), rng.uniform(-1, 1, 3)]), 3)
    m = 2
    alpha = np.round(rng.uniform(0.5, 1.0, size=m), 3)
    # p_i has gradient at xi with first coordinate below -alpha_i * 1.5 - 0.2
    lin = np.round(
        np.column_stack([-(alpha * 1.5 + rng.uniform(0.2, 1.0, size=m)), rng.uniform(-1, 1, m)]), 3
    )
    quad = np.round(rng.uniform(-0.5, 0.5, size=m), 3)

    def shifted(j: int) -> str:
        return f"({g[j, 0]})*(x1 - ({xi[0]})) + ({g[j, 1]})*(x2 - ({xi[1]}))"

    def p_text(i: int) -> str:
        # the quadratic term vanishes to first order at xi, keeping the gradient
        return (
            f"({lin[i, 0]})*x1 + ({lin[i, 1]})*x2 + "
            f"({quad[i]})*(x2 - ({xi[1]}))^2"
        )

    pieces = []
    for j in range(3):
        others = [k for k in range(3) if k != j]
        region = " and ".join(f"{shifted(j)} - ({shifted(k)}) >= 0" for k in others)
        comps = [f"{p_text(i)} + ({alpha[i]})*({shifted(j)})" for i in range(m)]
        pieces.append({"region": region, "components": comps})
    return {
        "version": FORMAT_VERSION,
        "name": f"maxaffine-{seed}",
        "n": 2,
        "m": m,
        "domain": [[-2.0, 2.0]] * 2,
        "pieces": pieces,
        "cone": {"orthant": m},
        "kernel": {"kind": "difference"},
        "e": [0.5, 0.5],
        "points": {"x0": xi.tolist()},
    }


def gordan_matrix(seed: int, index: int) -> tuple[np.ndarray, str, str]:
    """A seeded matrix whose Gordan branch is known by construction.

    Returns (A, cone kind, designed branch): branch "1" has A d <_C 0 for a
    chosen d, branch "2" has y^T A = 0 for a chosen y interior to the dual
    cone, and branch "tiny" scales a branch-1 matrix to 1e-9, below the
    method's strictness threshold, which it must report as degenerate or as
    branch 1.
    """
    branch = "tiny" if index % 24 in (8, 22) else ("1", "2")[index % 2]
    # tiny matrices are the same for every seed: the method answers them
    # wrongly every time (README, Known failures), so their share of failed
    # operations must not depend on the seed
    rng = np.random.default_rng(
        np.random.SeedSequence([0 if branch == "tiny" else seed, index, 17])
    )
    cone_kind = "wedge" if index % 6 >= 4 else "orthant"
    m = 3 if cone_kind == "wedge" else 2 + index % 3
    n = 1 + (index // 3) % 4
    normals = np.eye(m) if cone_kind == "orthant" else np.array(WEDGE_NORMALS)
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    if branch == "2":
        # y = N^T z with z > 0 is interior to the dual cone; project the
        # columns of A onto the complement of y, so that A^T y = 0
        y = normals.T @ rng.uniform(0.2, 1.0, size=m)
        a = a - np.outer(y, y @ a) / float(y @ y)
    else:
        dvec = rng.normal(size=n)
        # shift so that N A d = -c componentwise: A d = -inv(N) c, inside -int C
        target = -np.linalg.inv(normals) @ rng.uniform(0.2, 1.0, size=m)
        a = a + np.outer(target - a @ dvec, dvec) / float(dvec @ dvec)
        if branch == "tiny":
            a = a * 1e-9
    return a, cone_kind, branch


# ---------------------------------------------------------------------------
# Recipes and operations
# ---------------------------------------------------------------------------

def audit_shape(i: int) -> dict:
    """Shape of the i-th generated instance, as acceptance criterion 10 and
    `vvicert audit --generated` rotate them: n = pieces = degree = 1 + i % 3,
    m = 2 + i % 2, kernel alternating."""
    return dict(n=1 + i % 3, m=2 + i % 2, piece_count=1 + i % 3, degree=1 + i % 3,
                kernel_kind=KERNELS[i % 2])


def problem_recipes(workload: str, seed: int) -> dict:
    """Problem id -> (kind, payload...): ("fixture", name[, kernel]),
    ("generated", RandomInstanceSpec fields) or ("spec", problem dict)."""
    recipes = {}
    if workload == "audit-matrix":
        recipes["example5"] = ("fixture", "example5")
        recipes["example23"] = ("fixture", "example23")
        # the paper's dichotomy: example23 is invex under its own
        # negNormDifference kernel and not under difference
        recipes["example23-diff"] = ("fixture", "example23", "difference")
        recipes["rounding-13021"] = ("generated", ROUNDING_INSTANCE)
        for i in range(AUDIT_GENERATED):
            recipes[f"gen{i:02d}"] = ("generated", dict(seed=seed * 1000 + i, **audit_shape(i)))
    elif workload == "critical-lp":
        recipes["example5"] = ("fixture", "example5")
        for i in range(16):
            n = 2 + i % 2
            recipes[f"kink{i:02d}"] = (
                "generated",
                dict(seed=seed * 1000 + i, n=n, m=2, piece_count=2,
                     degree=1 + i % 3, kernel_kind="difference"),
            )
        for i in range(8):
            recipes[f"max3-{i}"] = ("spec", max_affine_spec(seed * 1000 + i))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return recipes


GORDAN_COUNT = 96


def operations(workload: str, seed: int) -> list:
    ids = list(problem_recipes(workload, seed))
    if workload == "audit-matrix":
        return [Op("audit", pid, rule) for rule in AUDIT_RULES for pid in ids]
    if workload == "critical-lp":
        ops = [Op("critical", pid) for pid in ids]
        ops.extend(Op("gordan", f"matrix{i:02d}") for i in range(GORDAN_COUNT))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _point_name(problem: Problem) -> str:
    return "xi" if "xi" in problem.points else "x0"


@dataclass
class Inputs:
    problems: dict
    matrices: dict


def build_inputs(workload: str, seed: int) -> Inputs:
    """Build and validate every problem and matrix of the workload anew."""
    problems = {}
    for pid, (kind, payload, *kernel) in problem_recipes(workload, seed).items():
        if kind == "fixture":
            problems[pid] = cli.load_problem(payload)
            if kernel:  # as `--kernel` does on the command line
                problems[pid].kernel = vvicert.Kernel(kernel[0], problems[pid].f.n)
        elif kind == "generated":
            problems[pid] = audit.generate_instance(audit.RandomInstanceSpec(**payload))
        else:
            problem = Problem.from_dict(payload, name=pid)
            issues = problem.f.validate(seed=0)
            if issues:
                raise vvicert.VviCertError(f"{pid}: " + "; ".join(issues))
            problems[pid] = problem
    matrices = {}
    if workload == "critical-lp":
        cones = {m: OrderingCone.orthant(m) for m in (2, 3, 4)}
        wedge = OrderingCone(normals=np.array(WEDGE_NORMALS))
        for i in range(GORDAN_COUNT):
            a, cone_kind, _ = gordan_matrix(seed, i)
            matrices[f"matrix{i:02d}"] = (a, wedge if cone_kind == "wedge" else cones[a.shape[0]])
    return Inputs(problems, matrices)


def program_facts(inputs: Inputs) -> dict:
    """What the program computes for the paper's worked facts, outside the
    timed operations: the Jacobian vertices of example5 at xi."""
    ex5 = inputs.problems["example5"]
    return {"example5_vertices": ex5.f.clarke_jacobian(ex5.point("xi")).as_array().tolist()}


def run_op(op: Op, inputs: Inputs, plan: certify.SamplingPlan) -> dict:
    """Run one operation; the result is the JSON payload the program reports.

    Checkers are looked up on their modules at call time, so the wrappers a
    traced run installs are the ones called.
    """
    if op.kind == "gordan":
        a, cone = inputs.matrices[op.problem]
        try:
            return {"certificate": certify.gordan_alternative(a, cone).to_dict()}
        except vvicert.DegenerateError as exc:
            return {"degenerate": str(exc)}
    problem = inputs.problems[op.problem]
    at = _point_name(problem)
    if op.kind == "audit":
        return audit.audit_rule(audit.RULES[op.arg], problem, at, plan).to_payload()
    if op.kind == "critical":
        return certify.check_vector_critical(
            problem.f, problem.cone, problem.point(at), plan
        ).to_payload()
    raise ValueError(f"unknown operation kind {op.kind!r}")
