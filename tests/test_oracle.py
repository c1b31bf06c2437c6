"""The independent oracle of the benchmark, perfbench/check.py, run on every
row of the criterion-10 audit. It does not import vvicert: it recomputes
piece values and Jacobians with sympy from the problem text, replays every
Refuted witness against its definition, re-verifies every criticality and
Gordan certificate, and requires every certification to record the plan's
sampling effort."""

import importlib.util
import json
from pathlib import Path


from vvicert import audit
from vvicert.certify import SamplingPlan

from conftest import criterion_10_instances


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
