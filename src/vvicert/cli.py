"""Command-line entry point: problem loading, command dispatch, reports.

Exit codes: 0 = certified/consistent, 1 = refuted/violation, 2 = usage or
load error. Reports carry the echoed command, the problem hash, the seed and
a canonical payload section; replaying the echoed command with the same seed
reproduces the payload byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, audit
from .certify import (
    SamplingPlan,
    check_invex_class,
    check_quasi_efficient,
    check_vector_critical,
    check_vvi,
)
from .errors import VviCertError
from .model import Kernel
from .problem import Problem

FIXTURES = ("example5", "example23")
SEED_ENV_VAR = "VVICERT_SEED"
DEFAULT_SEED = 42

_KERNEL_ALIASES = {
    "difference": "difference",
    "diff": "difference",
    "negnormdifference": "negNormDifference",
    "negnorm": "negNormDifference",
}


def load_problem(path_or_name: str, strict: bool = False) -> Problem:
    """Load and validate a problem file or a bundled fixture by name."""
    if path_or_name in FIXTURES:
        text = (
            resources.files("vvicert")
            .joinpath(f"fixtures/{path_or_name}.json")
            .read_text(encoding="utf-8")
        )
        name = path_or_name
    else:
        path = Path(path_or_name)
        if not path.exists():
            raise VviCertError(f"no such problem file or fixture: {path_or_name}")
        text = path.read_text(encoding="utf-8")
        name = path.stem
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise VviCertError(
            f"problem file parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    problem = Problem.from_dict(data, name=name)
    issues = problem.f.validate(seed=0)
    if issues:
        if strict:
            raise VviCertError("; ".join(issues))
        for msg in issues:
            print(f"warning: {msg}", file=sys.stderr)
    return problem


def _parse_point(problem: Problem, text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        return problem.point(text)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise VviCertError(f"not a vector of numbers 'a,b,...': {text!r}") from None


def _kernel_kind(name: str) -> str:
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key not in _KERNEL_ALIASES:
        raise VviCertError(f"unknown kernel {name!r}")
    return _KERNEL_ALIASES[key]


def _resolve_kernel(problem: Problem, name: str | None) -> Kernel:
    if name is None:
        return problem.kernel
    return Kernel(_kernel_kind(name), problem.f.n)


def _resolve_seed(args) -> int:
    """--seed, else the VVICERT_SEED environment variable, else DEFAULT_SEED."""
    if args.seed is not None:
        return args.seed
    return int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))


def _plan_from_args(args) -> SamplingPlan:
    """The plan of --seed, --r and --samples. An audit of generated instances
    runs many checks per instance; without --samples it takes 2000 samples."""
    options = {}
    if getattr(args, "r", None) is not None:
        options["radius"] = args.r
    samples = args.samples
    if samples is None and getattr(args, "generated", 0) > 0:
        samples = 2000
    if samples is not None:
        options.update(ball_sample_count=samples, pair_sample_count=samples)
    return SamplingPlan(seed=_resolve_seed(args), **options)


def _positive(kind):
    """argparse type: a finite value of ``kind`` (int or float) above 0."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not (np.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"not a finite {kind.__name__} > 0: {text!r}")
        return value
    return parse


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, payload)
# ---------------------------------------------------------------------------

def _cmd_jacobian(args):
    problem = load_problem(args.problem, args.strict)
    at = _parse_point(problem, args.at)
    poly = problem.f.clarke_jacobian(at)
    outer = problem.f.cartesian_outer_box(at)
    payload = {
        "operation": "jacobian",
        "point": at.tolist(),
        "vertices": [v.tolist() for v in poly.vertices],
        "activePieces": list(poly.active_pieces),
        "outerBox": outer.tolist(),
    }
    return 0, payload, problem


def _verdict_exit(verdict) -> int:
    if verdict.certified:
        return 0
    if verdict.refuted:
        return 1
    return 2


def _cmd_check(args):
    problem = load_problem(args.problem, args.strict)
    plan = _plan_from_args(args)
    kernel = _resolve_kernel(problem, getattr(args, "kernel", None))
    e = problem.e if getattr(args, "e", None) is None else _parse_vector(args.e)
    at = _parse_point(problem, args.at)
    f, cone = problem.f, problem.cone

    if args.check_kind == "efficiency":
        verdict = check_quasi_efficient(
            f, cone, kernel, e, at, plan.radius, weak=args.weak, plan=plan
        )
    elif args.check_kind == "vvi":
        verdict = check_vvi(
            args.variant, f, cone, kernel, at, plan, quantifier=args.quantifier
        )
    elif args.check_kind == "invex":
        verdict = check_invex_class(
            args.invex_class, f, cone, kernel, e, at, plan.radius, plan
        )
    elif args.check_kind == "critical":
        verdict = check_vector_critical(f, cone, at, plan)
    else:  # pragma: no cover - argparse enforces choices
        raise VviCertError(f"unknown check {args.check_kind!r}")
    payload = {"operation": f"check {args.check_kind}", "verdict": verdict.to_payload()}
    return _verdict_exit(verdict), payload, problem


def _cmd_audit(args):
    problem = load_problem(args.problem, args.strict)
    plan = _plan_from_args(args)
    if args.rules.strip().lower() == "all":
        rules = sorted(audit.RULES)
    else:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in audit.RULES]
        if unknown:
            raise VviCertError(f"unknown rules: {', '.join(unknown)}")
    at = _parse_point(problem, args.at)
    instances = [(problem, at)]
    for i in range(args.generated):
        spec = audit.RandomInstanceSpec(
            seed=plan.seed + i,
            n=1 + i % 3,
            m=2 + i % 2,
            piece_count=1 + i % 3,
            degree=1 + i % 3,
            kernel_kind=["difference", "negNormDifference"][i % 2],
        )
        inst = audit.generate_instance(spec)
        instances.append((inst, inst.point("x0")))
    summary = audit.run_matrix(rules, instances, plan)
    print(summary.table(), file=sys.stderr)
    payload = {"operation": "audit", "summary": summary.to_payload()}
    return summary.exit_status, payload, problem


def _cmd_repro(args):
    name = args.fixture
    problem = load_problem(name)
    plan = _plan_from_args(args)
    f, cone, kernel, e = problem.f, problem.cone, problem.kernel, problem.e
    checks = []

    def expect(label, ok, detail=""):
        checks.append({"check": label, "ok": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {label}  {detail}", file=sys.stderr)

    if name == "example5":
        poly = f.clarke_jacobian(problem.point("xi"))
        got = sorted(np.asarray(v).ravel().tolist() for v in poly.vertices)
        want = sorted([[5.0, -2.0], [6.0, -3.0]])
        expect(
            "jacobian vertices at 0 are {(5,-2),(6,-3)}",
            np.allclose(got, want, atol=1e-9),
            f"got {got}",
        )
        v = check_vvi("svvi", f, cone, kernel, problem.point("xi"), plan)
        expect("SVVI certified at xi=0", v.certified, v.status)
        v = check_quasi_efficient(f, cone, kernel, e, problem.point("xi"), 0.25, plan=plan)
        expect("quasi efficiency certified at xi=0", v.certified, v.status)
        v = check_invex_class("pseudo2", f, cone, kernel, e, problem.point("x0"), 0.5, plan)
        expect("pseudo type II certified at x0=0 (r=0.5)", v.certified, v.status)
        v = check_vector_critical(f, cone, problem.point("xi"), plan)
        mu_ok = v.certified and np.allclose(
            v.certificate["mu"], [2.0 / 7.0, 5.0 / 7.0], atol=1e-7
        )
        expect("vector critical with mu = (2/7, 5/7)", mu_ok, str(v.certificate))
    else:
        poly = f.clarke_jacobian(problem.point("x0"))
        got = sorted(np.asarray(v).ravel().tolist() for v in poly.vertices)
        expect(
            "jacobian vertices at 0 are {(1,2),(1,4)}",
            np.allclose(got, sorted([[1.0, 2.0], [1.0, 4.0]]), atol=1e-9),
            f"got {got}",
        )
        v = check_invex_class("invex", f, cone, kernel, e, problem.point("x0"), 0.25, plan)
        expect("invex certified with the negNormDifference kernel", v.certified, v.status)
        diff = Kernel("difference", f.n)
        v = check_invex_class("invex", f, cone, diff, e, problem.point("x0"), 0.25, plan)
        wit_ok = v.refuted and v.witness["x"] == [0.0] and v.witness["y"][0] < 0.0
        expect(
            "approximate convexity refuted with witness x=0, y<0",
            wit_ok,
            str(v.witness),
        )
    ok = all(c["ok"] for c in checks)
    payload = {"operation": f"repro {name}", "checks": checks, "allPassed": ok}
    return (0 if ok else 1), payload, problem


def _cmd_gen(args):
    spec = audit.RandomInstanceSpec(
        seed=_resolve_seed(args),
        n=args.n,
        m=args.m,
        piece_count=args.pieces,
        degree=args.degree,
        kernel_kind=_kernel_kind(args.kernel) if args.kernel else "difference",
    )
    problem = audit.generate_instance(spec)
    payload = {"operation": "gen", "problem": problem.to_dict()}
    return 0, payload, problem


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, with_e=True, with_kernel=True):
    p.add_argument("--problem", required=True, help="problem file path or fixture name")
    p.add_argument("--at", required=True, help="point coordinates 'a,b,...' or named point")
    p.add_argument("--seed", type=int, default=None, help="sampling seed (env VVICERT_SEED overrides the default)")
    p.add_argument("--samples", type=_positive(int), default=None, help="ball and pair sample counts")
    p.add_argument("--r", type=_positive(float), default=None, help="ball radius (default 0.25)")
    if with_e:
        p.add_argument("--e", default=None, help="e vector 'a,b,...' (default: the problem's)")
    if with_kernel:
        p.add_argument("--kernel", default=None, help="kernel override: difference | negNormDifference")
    p.add_argument("--strict", action="store_true", help="treat load-time validation warnings as errors")
    p.add_argument("--out", default=None, help="write the JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vvicert",
        description="certification and falsification toolkit for nonsmooth vector optimization",
    )
    parser.add_argument("--version", action="version", version=f"vvicert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jacobian", help="generalized Jacobian polytope at a point")
    _add_common(p, with_e=False, with_kernel=False)
    p.set_defaults(handler=_cmd_jacobian)

    check = sub.add_parser("check", help="run a semi-decision checker")
    check_sub = check.add_subparsers(dest="check_kind", required=True)

    p = check_sub.add_parser("efficiency", help="local quasi (weak) efficiency")
    _add_common(p)
    p.add_argument("--weak", action="store_true", help="check the weak (strict order) form")
    p.set_defaults(handler=_cmd_check)

    p = check_sub.add_parser("vvi", help="vector variational inequalities")
    _add_common(p)
    p.add_argument("--variant", required=True, choices=["svvi", "mvvi", "wsvvi", "wmvvi"])
    p.add_argument("--quantifier", choices=["forall", "exists"], default="forall",
                   help="reading of the 'for all Jacobian elements' quantifier")
    p.set_defaults(handler=_cmd_check)

    p = check_sub.add_parser("invex", help="generalized invexity classes")
    _add_common(p)
    p.add_argument("--class", dest="invex_class", required=True,
                   choices=["invex", "pseudo1", "pseudo2", "quasi1", "quasi2"])
    p.set_defaults(handler=_cmd_check)

    p = check_sub.add_parser("critical", help="vector criticality")
    _add_common(p, with_e=False, with_kernel=False)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("audit", help="stress-test the optimality theorems")
    _add_common(p, with_e=False, with_kernel=False)
    p.add_argument("--rules", default="all", help="'all' or comma-separated rule ids")
    p.add_argument("--generated", type=int, default=0,
                   help="additionally audit this many generated instances")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("repro", help="reproduce the bundled fixture results")
    p.add_argument("fixture", choices=list(FIXTURES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=_positive(int), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_repro, strict=False)

    p = sub.add_parser("gen", help="generate a random continuous piecewise instance")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--pieces", type=int, default=2)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--kernel", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_gen, strict=False)

    return parser


def dispatch(argv) -> tuple[int, dict]:
    """Run one command line; returns (exit_code, full report dict)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code) if exc.code else 0), {}
    started = time.perf_counter()
    try:
        code, payload, problem = args.handler(args)
    except VviCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, {}
    elapsed = time.perf_counter() - started
    report = {
        "command": ["vvicert"] + list(argv),
        "toolVersion": __version__,
        "problemHash": problem.content_hash() if problem is not None else None,
        "seed": _resolve_seed(args),
        "payload": payload,
        "elapsedSeconds": elapsed,
    }
    out_path = getattr(args, "out", None)
    if out_path:
        Path(out_path).write_text(
            json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
    return code, report


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    code, report = dispatch(argv)
    if report:
        print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
