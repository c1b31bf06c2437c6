"""The independent oracle of the benchmark, perfbench/check.py, run on every
row of the criterion-10 audit and on the verdicts of the criterion-11 CLI
commands. It does not import vvicert: it recomputes piece values and
Jacobians with sympy from the problem text, replays every Refuted witness
against its definition, re-verifies every criticality and Gordan
certificate, and requires every certification to record the plan's sampling
effort."""

import importlib.util
import json
from pathlib import Path


from vvicert import audit
from vvicert.certify import SamplingPlan
from vvicert.cli import dispatch, load_problem

from conftest import CRITERION_11_COMMANDS, criterion_10_instances


CHECK = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"


def _load_check():
    spec = importlib.util.spec_from_file_location("perfbench_check", CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_10_rows_pass_the_oracle(example5, example23):
    check = _load_check()
    instances = criterion_10_instances(example5, example23)
    plan = SamplingPlan(ball_sample_count=1000, pair_sample_count=1000)
    summary = audit.run_matrix(sorted(audit.RULES), instances, plan)
    refs = [check.Reference(problem.to_dict()) for problem, _ in instances]
    # rows come ordered by rule, then by instance
    assert len(summary.results) == len(audit.RULES) * len(instances)
    failures = []
    for k, result in enumerate(summary.results):
        row = json.loads(json.dumps(result.to_payload()))
        try:
            check.check_audit_row(refs[k % len(instances)], row, plan.to_dict(), result.rule_id)
        except check.CheckFailed as exc:
            failures.append(f"{result.rule_id} {result.instance}: {exc}")
    assert not failures, failures[:5]


def _reference_and_plan(check, argv, seed):
    """The oracle's view of one command: the fixture's text with the
    command's --kernel and --e applied, and the plan of its --r and
    --samples. Every command here evaluates at the fixture's base point 0."""
    opts = dict(zip(argv, argv[1:]))
    spec = load_problem(opts["--problem"]).to_dict()
    if "--kernel" in opts:
        spec["kernel"] = {"kind": opts["--kernel"]}
    if "--e" in opts:
        spec["e"] = [float(v) for v in opts["--e"].split(",")]
    options = {}
    if "--r" in opts:
        options["radius"] = float(opts["--r"])
    if "--samples" in opts:
        samples = int(opts["--samples"])
        options.update(ball_sample_count=samples, pair_sample_count=samples)
    return check.Reference(spec), SamplingPlan(seed=seed, **options).to_dict(), opts


def test_criterion_11_payloads_pass_the_oracle():
    check = _load_check()
    checked, failures = [], []
    for argv in CRITERION_11_COMMANDS:
        if argv[0] not in ("check", "audit"):
            continue  # no verdict: the Jacobian and the generated problem
        _, report = dispatch(argv)
        payload = json.loads(json.dumps(report["payload"]))
        ref, plan, opts = _reference_and_plan(check, argv, report["seed"])
        assert ref.point.tolist() == [0.0] and opts["--at"] == "0"
        # (label, oracle check, its arguments after the reference)
        if argv[0] == "audit":
            calls = [
                (f"audit {row['rule']}", check.check_audit_row, (row, plan, row["rule"]))
                for row in payload["summary"]["rows"]
            ]
        else:
            verdict = payload["verdict"]
            fn, args = {
                "vvi": (check.check_vvi, (verdict, plan, opts.get("--variant"))),
                "efficiency": (check.check_efficiency, (verdict, plan, "--weak" in argv)),
                "invex": (check.check_class, (verdict, plan, opts.get("--class"), 1.0)),
                "critical": (check.check_critical, (verdict, plan)),
            }[argv[1]]
            calls = [(" ".join(argv[:2]), fn, args)]
        for label, fn, args in calls:
            try:
                fn(ref, *args)
            except check.CheckFailed as exc:
                failures.append(f"{label}: {exc}")
            checked.append(label)
    assert not failures, failures
    # five verdicts (vvi, efficiency, pseudo2, invex, critical) and one row per rule
    assert len(checked) == 5 + len(audit.RULES), checked
