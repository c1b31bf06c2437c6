"""
Auditing the optimality theorems
================================

Each theorem becomes a rule: hypothesis checks plus a conclusion check. When
every hypothesis certifies, the conclusion must not refute; a VIOLATION row
would mean a checker or model bug, never a counterexample to the theory. The
audit injects the conclusion's sample stream into the hypothesis checks and
replays hypotheses at any conclusion witness, so sampling artifacts are
downgraded instead of reported as violations.
"""

from vvicert import RULES, SamplingPlan, run_matrix
from vvicert.audit import generated_instances
from vvicert.cli import load_problem

plan = SamplingPlan(ball_sample_count=2000, pair_sample_count=2000)

for rule_id, rule in sorted(RULES.items()):
    print(f"{rule_id}: {rule.description}")

# The two bundled fixtures plus the eight generated instances of
# `vvicert audit --generated 8 --seed 0`. Generated objectives are continuous
# piecewise polynomials glued along hyperplanes, audited at a point on the
# gluing plane.
instances = [
    (load_problem("example5"), "xi"),
    (load_problem("example23"), "x0"),
] + generated_instances(8, seed=0)

summary = run_matrix(sorted(RULES), instances, plan)
print()
print(summary.table())
print()
print("exit status:", summary.exit_status)
