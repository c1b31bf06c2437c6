"""The outputs of every benchmark operation are pinned: a speed-up must leave
each payload's bytes as they were. The benchmark's own workloads module is
imported as it stands, so the pinned outputs are the ones it checks."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# sha256 over the canonical JSON of each run_op output at seed 1, one line
# per operation in the workload's order
PINNED = {
    "audit-matrix": "1976609c1a8291ab344f61cc1d86c9d20e664a8103d30a05d5e881bb07a6ff97",
    "critical-lp": "1ad51d611a6886ec2d17b87c7cdaa386207adc6e03e3fa478301fef3fa26d2ac",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_every_operation_output_is_pinned(workloads, workload):
    inputs = workloads.build_inputs(workload, 1)
    plan = workloads.plan_for(workload)
    digest = hashlib.sha256()
    for op in workloads.operations(workload, 1):
        out = workloads.run_op(op, inputs, plan)
        digest.update(json.dumps(out, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    assert digest.hexdigest() == PINNED[workload]
