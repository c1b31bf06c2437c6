"""The traced benchmark run wraps the functions that perfbench/spans.py names
in its TRACED table; a rename in the package must not leave a name dangling."""

import ast
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_table() -> tuple:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED table")


def test_every_traced_name_exists():
    table = _traced_table()
    assert table
    for module_name, attr, _ in table:
        module = importlib.import_module(module_name)
        if "." in attr:
            # methods are looked up in the defining class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


# a per-layer metric that each workload's traced run must report
WORKLOAD_SPANS = {
    "critical-lp": "certify.check_vector_critical.ms",
    "audit-matrix": "audit.rule.T4.1.ms",
}


@pytest.mark.bench
@pytest.mark.parametrize("workload", sorted(WORKLOAD_SPANS))
def test_traced_run_passes(tmp_path, workload):
    # the traced run of the benchmark, on a copy of the checkout so that its
    # record goes to the copy's perfbench/out/
    root = SPANS.parents[1]
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(
        root / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert WORKLOAD_SPANS[workload] in result["metrics"]
    assert "import.scipy_stats_ms" in result["metrics"]
