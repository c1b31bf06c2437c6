"""Correctness checks made apart from the program.

Reads the worker's ``check_input`` document on stdin and prints one JSON
object: the operations whose output failed a check (with the reason) and the
workload-level checks that failed.

Nothing here calls vvicert. Piece values and Jacobians are computed with
sympy from the problem text; every ``Refuted`` witness is replayed against
the definition it claims to violate; every criticality and Gordan
certificate is re-verified in numpy, and every refuted criticality
decision is decided again with an LP in scipy; every ``CertifiedUpToSampling`` verdict
must record at least the plan's sampling effort. The tolerances are the ones
the toolkit documents for its order tests and piece activation.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys

import numpy as np
import sympy as sp
from scipy.optimize import linprog
from sympy.parsing.sympy_parser import parse_expr, rationalize, standard_transformations

TOL_ACTIVE = 1e-7  # a piece is active within this slack of its region
EQ_TOL = 1e-9  # '=' in region predicates
CONE_TOL = 1e-9  # v in C: N v >= -CONE_TOL
MARGIN = 1e-9  # v in int C: N v > MARGIN * |v|
ZERO_ETA = 1e-12  # eta at or below this norm is excluded from the quantifiers
VERTEX_MERGE = 1e-9
EVIDENCE_CAP = 16  # a refuted criticality decision records this many mixtures
NOT_CRITICAL = 1e-6  # interiority optimum at or below this: no mu in int C
REFUTED = "Refuted"
CERTIFIED = "CertifiedUpToSampling"
WEAK_CONCLUSION = {"T3.1": False, "T3.2": False, "T3.3": False,
                   "T4.1": True, "T4.2": True, "T4.6": True, "R4.0": True}


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Cone:
    def __init__(self, normals):
        self.normals = np.atleast_2d(np.asarray(normals, dtype=float))
        self.normals = self.normals / np.linalg.norm(self.normals, axis=1, keepdims=True)

    def contains(self, v) -> bool:
        return bool(np.all(self.normals @ v >= -CONE_TOL))

    def interior(self, v) -> bool:
        return bool(np.all(self.normals @ v > MARGIN * np.linalg.norm(v)))


# ---------------------------------------------------------------------------
# Problem text -> sympy
# ---------------------------------------------------------------------------

_CMP = re.compile(r"(<=|>=|<|>|=)")


class Region:
    """A predicate: comparisons joined by 'and' inside groups joined by 'or'."""

    def __init__(self, text: str, parse):
        self.groups = []
        for group in re.split(r"\bor\b", text):
            terms = []
            for atom in re.split(r"\band\b", group):
                lhs, op, rhs = _CMP.split(atom, maxsplit=1)
                terms.append((parse(lhs), op.strip(), parse(rhs)))
            self.groups.append(terms)

    @staticmethod
    def _cmp(d: float, op: str, slack: float) -> bool:
        return {
            "<": d < slack, "<=": d <= slack, ">": d > -slack, ">=": d >= -slack,
            "=": abs(d) <= EQ_TOL + slack,
        }[op]

    def holds(self, x, slack: float) -> bool:
        return any(
            all(self._cmp(float(l(*x)) - float(r(*x)), op, slack) for l, op, r in g)
            for g in self.groups
        )


class Polynomial:
    """A sympy polynomial as monomial exponents and coefficients, evaluated
    in numpy. Every piece, region and kernel text of the workloads is a
    polynomial; anything else raises sympy's PolynomialError."""

    def __init__(self, poly: sp.Poly):
        self.poly = poly
        terms = poly.terms() or [((0,) * len(poly.gens), 0)]
        self.powers = np.array([t[0] for t in terms], dtype=float)
        self.coefs = np.array([float(t[1]) for t in terms])

    def __call__(self, *x) -> float:
        return float(self.coefs @ np.prod(np.asarray(x, dtype=float) ** self.powers, axis=1))

    def diff(self, var) -> "Polynomial":
        return Polynomial(self.poly.diff(var))


class Reference:
    """f, its piece Jacobians and the kernel of one problem, from its text."""

    def __init__(self, spec: dict):
        self.n, self.m = int(spec["n"]), int(spec["m"])
        xs = sp.symbols(f"x1:{self.n + 1}")
        names = {f"x{i + 1}": s for i, s in enumerate(xs)}

        def to_poly(text):
            # decimals become exact rationals, so expansion and
            # differentiation are exact
            expr = parse_expr(text.replace("^", "**"), local_dict=names,
                              transformations=standard_transformations + (rationalize,))
            return Polynomial(sp.Poly(expr, *xs))

        self.regions, self.values, self.jacobians = [], [], []
        for piece in spec["pieces"]:
            comps = [to_poly(t) for t in piece["components"]]
            self.regions.append(Region(piece["region"], to_poly))
            self.values.append(comps)
            self.jacobians.append([[c.diff(v) for v in xs] for c in comps])
        self.domain = np.asarray(spec["domain"], dtype=float)
        self.kernel = spec.get("kernel", {"kind": "difference"})["kind"]
        require(spec["cone"] == {"orthant": self.m}, "reference covers orthant cones only")
        self.cone = Cone(np.eye(self.m))
        self.e = np.asarray(spec.get("e", [0.5] * self.m), dtype=float)
        points = spec.get("points", {})
        self.point = np.asarray(points["xi"] if "xi" in points else points["x0"], dtype=float)

    def value(self, x, sign: float = 1.0) -> np.ndarray:
        for j, region in enumerate(self.regions):
            if region.holds(x, 0.0):
                return sign * np.array([c(*x) for c in self.values[j]])
        raise CheckFailed(f"no region covers {list(x)}")

    def active(self, x) -> list:
        return [j for j, region in enumerate(self.regions) if region.holds(x, TOL_ACTIVE)]

    def vertices(self, x, sign: float = 1.0) -> tuple[list, list]:
        """Jacobians of the pieces active at x, duplicates merged, in piece order."""
        verts, kept = [], []
        for j in self.active(x):
            jac = sign * np.array([[d(*x) for d in row] for row in self.jacobians[j]])
            if any(np.max(np.abs(jac - v)) <= VERTEX_MERGE for v in verts):
                continue
            verts.append(jac)
            kept.append(j)
        require(verts, f"no piece active at {list(x)}")
        return verts, kept

    def eta(self, x, y) -> np.ndarray:
        if self.kernel == "difference":
            return x - y
        if self.kernel == "negNormDifference":
            return -np.linalg.norm(x - y) * np.ones(self.n)
        raise CheckFailed(f"no reference for kernel {self.kernel!r}")


def simplex_grid(k: int, depth: int):
    """Every lambda with k components i/depth summing to 1."""
    def parts(k, total):
        if k == 1:
            yield (total,)
            return
        for i in range(total + 1):
            for rest in parts(k - 1, total - i):
                yield (i,) + rest
    if k == 1:
        yield np.ones(1)
        return
    for p in parts(k, depth):
        yield np.array(p, dtype=float) / depth


def grid_size(k: int, depth: int) -> int:
    return 1 if k == 1 else math.comb(depth + k - 1, k - 1)


# ---------------------------------------------------------------------------
# Verdict checks
# ---------------------------------------------------------------------------

def _inside_ball(x, center, r) -> bool:
    return np.linalg.norm(x - center) <= r * (1 + 1e-12) + 1e-15


def _common(verdict: dict, plan: dict, effort_key: str, effort: int) -> None:
    require(verdict["status"] in (REFUTED, CERTIFIED), f"status {verdict['status']}")
    stats = verdict["stats"]
    require(stats["plan"] == plan, "verdict does not record the plan it ran")
    if verdict["status"] == CERTIFIED:
        require(stats[effort_key] >= effort,
                f"certified with {effort_key} {stats[effort_key]} < {effort}")


def check_efficiency(ref: Reference, verdict: dict, plan: dict, weak: bool) -> None:
    _common(verdict, plan, "sampleCount", plan["ballSampleCount"])
    if verdict["status"] != REFUTED:
        return
    xi, r = ref.point, plan["radius"]
    x = np.asarray(verdict["witness"]["x"], dtype=float)
    require(_inside_ball(x, xi, r), "efficiency witness outside B(xi, r)")
    eta = ref.eta(x, xi)
    require(np.linalg.norm(eta) > ZERO_ETA, "efficiency witness with eta = 0")
    gap = ref.value(xi) - (ref.value(x) + np.linalg.norm(eta) * ref.e)
    ok = ref.cone.interior(gap) if weak else ref.cone.contains(gap)
    require(ok, "efficiency witness does not replay: f(x) + |eta| e is not below f(xi)")


def check_vvi(ref: Reference, verdict: dict, plan: dict, variant: str) -> None:
    _common(verdict, plan, "sampleCount", plan["ballSampleCount"])
    if verdict["status"] != REFUTED:
        return
    xi = ref.point
    x = np.asarray(verdict["witness"]["x"], dtype=float)
    require(np.max(np.abs(x - xi)) <= 1.0 + 1e-12, "VVI witness outside the search box")
    require(np.all(x > ref.domain[:, 0]) and np.all(x < ref.domain[:, 1]),
            "VVI witness outside the open domain")
    eta = ref.eta(x, xi)
    require(np.linalg.norm(eta) > ZERO_ETA, "VVI witness with eta = 0")
    at = x if variant in ("mvvi", "wmvvi") else xi
    test = ref.cone.interior if variant.startswith("w") else ref.cone.contains
    verts, _ = ref.vertices(at)
    require(all(test(-(v @ eta)) for v in verts),
            f"{variant} witness does not replay: some vertex A has A eta outside -C")


def class_violated(ref: Reference, cls: str, sign: float, x, y, depth: int) -> bool:
    """The defining implication of the class, evaluated at the pair (x, y)."""
    c = ref.cone
    eta = ref.eta(x, y)
    fdiff = ref.value(x, sign) - ref.value(y, sign)
    penalty = np.linalg.norm(eta) * ref.e
    verts, _ = ref.vertices(y, sign)
    prods = [v @ eta for v in verts]
    if cls == "invex":
        return any(not c.contains(fdiff - p + penalty) for p in prods)
    if cls == "pseudo1":
        return c.interior(-penalty - fdiff) and any(not c.interior(-p) for p in prods)
    if cls == "pseudo2":
        return c.interior(-fdiff) and any(not c.interior(-p - penalty) for p in prods)
    if cls == "quasi2":
        mixes = [lam @ np.array(prods) for lam in simplex_grid(len(prods), depth)]
        return any(c.interior(q) for q in mixes) and not c.interior(fdiff - penalty)
    raise CheckFailed(f"no reference for class {cls!r}")


def check_class(ref: Reference, verdict: dict, plan: dict, cls: str, sign: float) -> None:
    _common(verdict, plan, "pairCount", plan["pairSampleCount"])
    if verdict["status"] != REFUTED:
        return
    w = verdict["witness"]
    x, y = np.asarray(w["x"], dtype=float), np.asarray(w["y"], dtype=float)
    r = plan["radius"]
    require(_inside_ball(x, ref.point, r) and _inside_ball(y, ref.point, r),
            "class witness pair outside B(x0, r)")
    require(class_violated(ref, cls, sign, x, y, plan["simplexGridDepth"]),
            f"{cls} witness pair does not replay")


def _gordan_ok(a: np.ndarray, cone: Cone, cert: dict) -> bool:
    scale = 1.0 + float(np.max(np.abs(a)))
    if cert["alternative"] == 1:
        return cone.interior(-(a @ np.asarray(cert["x"], dtype=float)))
    y = np.asarray(cert["y"], dtype=float)
    # y must lie in the dual cone, generated by the facet normals
    z = np.linalg.lstsq(cone.normals.T, y, rcond=None)[0]
    return (
        np.linalg.norm(cone.normals.T @ z - y) <= 1e-9 * (1 + np.linalg.norm(y))
        and np.all(z >= -1e-12)
        and np.linalg.norm(y) > 0
        and np.max(np.abs(a.T @ y)) <= 1e-7 * scale
    )


def check_critical(ref: Reference, verdict: dict, plan: dict) -> None:
    require(verdict["status"] in (REFUTED, CERTIFIED), f"status {verdict['status']}")
    verts, kept = ref.vertices(ref.point)
    stats = verdict["stats"]
    require(stats["vertexCount"] == len(verts), "vertex count differs from the reference")
    require(stats["lambdaGridSize"] == grid_size(len(verts), plan["simplexGridDepth"]),
            "lambda grid size differs from the simplex grid")
    if verdict["status"] == CERTIFIED:
        cert = verdict["certificate"]
        require(cert["activePieces"] == kept, "active pieces differ from the reference")
        a = np.tensordot(np.asarray(cert["lambda"], dtype=float), np.array(verts), axes=1)
        mu = np.asarray(cert["mu"], dtype=float)
        require(ref.cone.interior(mu), "criticality multiplier not interior to C")
        require(np.linalg.norm(a.T @ mu) <= 1e-7 * (1 + np.max(np.abs(a))) * np.linalg.norm(mu),
                "criticality certificate: mu^T A is not 0")
        return
    evidence = verdict["witness"]["evidence"]
    require(len(evidence) == min(EVIDENCE_CAP, stats["lambdaGridSize"]),
            f"criticality refuted with {len(evidence)} evidence items")
    for item in evidence:
        require("gordan" in item, "criticality evidence without a Gordan certificate")
        lam = np.asarray(item["lambda"], dtype=float)
        a = np.tensordot(lam, np.array(verts), axes=1)
        cert = item["gordan"]
        require(_gordan_ok(a, ref.cone, cert),
                "criticality evidence: Gordan certificate does not re-verify")
        # an alternative-2 y inside int C would make the mixture critical
        require(cert["alternative"] == 1 or not ref.cone.interior(np.asarray(cert["y"], dtype=float)),
                "criticality evidence: alternative 2 with y in int C proves criticality")
    for lam in simplex_grid(len(verts), plan["simplexGridDepth"]):
        a = np.tensordot(lam, np.array(verts), axes=1)
        best = max_interiority(a, ref.cone)
        require(best <= NOT_CRITICAL,
                f"criticality refuted, but mixture {lam.tolist()} admits mu in int C (s = {best:.3g})")


def max_interiority(a: np.ndarray, cone: Cone) -> float:
    """max s over mu with A^T mu = 0, N mu >= s, sum(N mu) = 1, s <= 1;
    positive exactly when some mu in int C annihilates A^T. Infeasible
    reads as -inf."""
    normals = cone.normals
    m, h = a.shape[0], normals.shape[0]
    c = np.zeros(m + 1)
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=np.hstack([-normals, np.ones((h, 1))]), b_ub=np.zeros(h),
        A_eq=np.vstack([np.hstack([a.T, np.zeros((a.shape[1], 1))]),
                        np.append(normals.sum(axis=0), 0.0)]),
        b_eq=np.append(np.zeros(a.shape[1]), 1.0),
        bounds=[(None, None)] * m + [(None, 1.0)], method="highs",
    )
    return float(-res.fun) if res.status == 0 else -math.inf


def check_gordan(matrix: dict, output: dict) -> None:
    a = np.asarray(matrix["A"], dtype=float)
    cone = Cone(matrix["normals"])
    branch = matrix["branch"]
    if "degenerate" in output:
        require(branch == "tiny", "degenerate answer on a matrix with a clear branch")
        return
    cert = output["certificate"]
    require(_gordan_ok(a, cone, cert), "Gordan certificate does not re-verify")
    if branch != "tiny":
        require(str(cert["alternative"]) == branch,
                f"alternative {cert['alternative']} on a matrix built for {branch}")
    else:
        require(cert["alternative"] == 1, "alternative 2 on a branch-1 matrix")


# ---------------------------------------------------------------------------
# Audit rows
# ---------------------------------------------------------------------------

_HYPOTHESES = {
    "invex(f)": ("class", "invex", 1.0),
    "invex(-f)": ("class", "invex", -1.0),
    "pseudo1(f)": ("class", "pseudo1", 1.0),
    "pseudo1(-f)": ("class", "pseudo1", -1.0),
    "pseudo2(f)": ("class", "pseudo2", 1.0),
    "quasi2(-f)": ("class", "quasi2", -1.0),
    "svvi": ("vvi", "svvi", 1.0),
    "mvvi": ("vvi", "mvvi", 1.0),
    "wsvvi": ("vvi", "wsvvi", 1.0),
    "wmvvi": ("vvi", "wmvvi", 1.0),
    "wsvvi-refuted": ("vvi", "wsvvi", 1.0),
    "critical": ("critical", "", 1.0),
}

_FLAGS = {  # what each built-in kernel satisfies
    "difference": {"skew": True, "first_arg_affine": True, "vanishes_on_diagonal": True},
    "negNormDifference": {"skew": False, "first_arg_affine": False, "vanishes_on_diagonal": True},
}


def check_audit_row(ref: Reference, row: dict, plan: dict, rule: str) -> None:
    require(row["rule"] == rule, "row reports another rule")
    require(row["outcome"] != "VIOLATION", "VIOLATION row")
    require(row["outcome"] in ("ConsistentWithTheorem", "HypothesisNotCertified"),
            f"outcome {row['outcome']}")
    for key, value in row["hypotheses"].items():
        if key.startswith("flag:"):
            require(value == _FLAGS[ref.kernel][key[5:]], f"kernel {key} = {value}")
        elif key == "error":
            require(value["status"] == "Inapplicable", "checker error row")
        else:
            kind, name, sign = _HYPOTHESES[key]
            if kind == "class":
                check_class(ref, value, plan, name, sign)
            elif kind == "vvi":
                check_vvi(ref, value, plan, name)
            else:
                check_critical(ref, value, plan)
    if row["conclusion"] is not None:
        check_efficiency(ref, row["conclusion"], plan, WEAK_CONCLUSION[rule])
    if row["outcome"] == "ConsistentWithTheorem":
        require(row["conclusion"] is not None, "consistent row without a conclusion")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def check_op(op: dict, doc: dict, refs: dict) -> None:
    out, plan = op["output"], doc["plan"]
    require(out is not None, "no output")
    kind, arg = op["kind"], op["arg"]
    if kind == "gordan":
        check_gordan(doc["matrices"][op["problem"]], out)
        return
    ref = refs[op["problem"]]
    if kind == "audit":
        check_audit_row(ref, out, plan, arg)
    elif kind == "critical":
        check_critical(ref, out, plan)
    else:
        raise CheckFailed(f"unknown operation kind {kind!r}")


def _output(doc: dict, kind: str, problem: str, arg: str = "") -> dict:
    for op in doc["ops"]:
        if (op["kind"], op["problem"], op["arg"]) == (kind, problem, arg):
            return op["output"] or {}
    return {}


def workload_checks(doc: dict, refs: dict) -> list:
    """Checks on the workload as a whole, including the paper's worked facts."""
    failures = []
    ops = doc["ops"]
    if doc["workload"] == "audit-matrix":
        rules = sorted({op["arg"] for op in ops})
        pairs = {(op["arg"], op["problem"]) for op in ops if op["output"] is not None}
        if len(rules) != 7 or pairs != set(itertools.product(rules, refs)):
            failures.append(f"{len(pairs)} audit rows, expected 7 rules x {len(refs)} instances")
        violations = sum(1 for op in ops if (op["output"] or {}).get("outcome") == "VIOLATION")
        if violations:
            failures.append(f"{violations} VIOLATION rows")
        for pid, status in (("example23", CERTIFIED), ("example23-diff", REFUTED)):
            invex = _output(doc, "audit", pid, "T3.1").get("hypotheses", {}).get("invex(f)", {})
            if invex.get("status") != status:
                failures.append(f"{pid}: invex(f) in T3.1 is {invex.get('status')}, expected {status}")
    # the vertices the program computes, against the paper's
    got = sorted(tuple(np.round(np.ravel(v), 9)) for v in doc["facts"]["example5_vertices"])
    if got != [(5.0, -2.0), (6.0, -3.0)]:
        failures.append(f"example5 Jacobian vertices {got}, expected (5,-2), (6,-3)")
    if doc["workload"] == "critical-lp":
        v = _output(doc, "critical", "example5")
        mu = np.asarray(v.get("certificate", {}).get("mu", [0.0, 0.0]), dtype=float)
        if v.get("status") != CERTIFIED or not np.allclose(mu / mu.sum(), [2 / 7, 5 / 7], atol=1e-6):
            failures.append(f"example5 not critical with mu ~ (2/7, 5/7): {mu.tolist()}")
        for op in ops:
            if op["problem"].startswith("max3") and (op["output"] or {}).get("status") != REFUTED:
                failures.append(f"{op['problem']}: every vertex has A d < 0, yet critical")
    return failures


def main() -> int:
    doc = json.load(sys.stdin)
    refs = {pid: Reference(spec) for pid, spec in doc["problems"].items()}
    failed, replayed = {}, 0
    for i, op in enumerate(doc["ops"]):
        try:
            check_op(op, doc, refs)
        except CheckFailed as exc:
            failed[i] = str(exc)
            continue
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            failed[i] = f"malformed output: {exc!r}"
            continue
        replayed += json.dumps(op["output"]).count(f'"{REFUTED}"')
    json.dump({
        "failed_ops": failed,
        "workload_failures": workload_checks(doc, refs),
        "checked_ops": len(doc["ops"]),
        "refuted_verdicts_replayed": replayed,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
