"""Benchmark entry point: run one workload of vvicert and print its metrics.

    python3 perfbench/run.py --workload audit-matrix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The steps, one process at a time:

1. The workload itself in a fresh worker process with one BLAS/OpenMP
   thread, timing whole rounds of operations for ``--seconds``.
2. ``setup_s``: start ``worker.py --setup-only`` (a fresh interpreter that
   imports vvicert and builds the workload's problems) SETUP_REPEATS times,
   half before and half after step 1, and take the least wall time.
3. ``check.py`` in its own process re-checks the first round's outputs
   with independent computations.

With ``--trace 1`` step 2 is replaced by ``python -X importtime`` starts for
the import metrics, and the worker alternates rounds without and with
per-layer wrappers. Metric names and units come from BENCHMARK.json. The
last line of standard output is the result object; a copy of everything,
with the per-layer span table, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 4
IMPORT_REPEATS = 3
DEADLINE_S = 175.0  # every run ends within this, whatever the machine does


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(cmd: list, deadline: float, stdin: str | None = None) -> str:
    """Run one child process to its end and return its standard output."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"no time left to run {cmd[1:3]}")
    try:
        proc = subprocess.run(
            cmd, input=stdin, capture_output=True, text=True, cwd=ROOT,
            env=child_env(), timeout=left,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:3]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def time_setup(args, deadline: float, repeats: int) -> list:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_child(cmd, deadline)
        times.append(time.perf_counter() - start)
    return times


def time_imports(deadline: float) -> dict:
    """Cumulative import times of vvicert and scipy.stats, least of repeats."""
    best = {}
    for _ in range(IMPORT_REPEATS):
        left = deadline - time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import vvicert"],
            capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=max(left, 1),
        )
        if proc.returncode != 0:
            raise BenchError(f"import vvicert failed:\n{proc.stderr[-3000:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            key = {"vvicert": "import.vvicert_ms", "scipy.stats": "import.scipy_stats_ms"}.get(name)
            if key:
                ms = int(parts[1]) / 1000.0
                best[key] = min(best.get(key, ms), ms)
    return best


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def select(spec: list, values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "vvicert" / "__init__.py").is_file():
        print(f"error: no vvicert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        # half of the set-up starts go before the workload and half after,
        # so that the least of them does not hang on one slow stretch
        setup = [] if args.trace else time_setup(args, deadline, SETUP_REPEATS // 2)
        values = time_imports(deadline) if args.trace else {}
        worker = json.loads(run_child(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            deadline,
        ))
        if not args.trace:
            setup += time_setup(args, deadline, SETUP_REPEATS - len(setup))
            values["setup_s"] = min(setup)
        checked = json.loads(run_child(
            [sys.executable, str(HERE / "check.py")], deadline,
            stdin=json.dumps(worker.pop("check_input")),
        ))
        if args.trace:
            values.update(worker["layers"])
            metrics = select(spec["per_layer"], values)
        else:
            values.update(worker["timing"])
            metrics = select(spec["end_to_end"], values)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # an operation whose output fails a check fails in every round
    failed_by_op = worker["failed_by_op"]
    for i in checked["failed_ops"]:
        failed_by_op[int(i)] = worker["rounds"]
    attempted = worker["rounds"] * len(failed_by_op)
    failed = sum(failed_by_op)
    env = dict(worker["env"], git_sha=git_sha(), cpu_count=os.cpu_count(),
               platform=platform.platform())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "values": values, "check": checked,
        "errors": worker["errors"], "unstable": worker["unstable"],
        "rounds": worker["rounds"], "timing": worker["timing"], "best_s": worker["best_s"],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=float))
    for op, reason in checked["failed_ops"].items():
        print(f"check failed: op {op}: {reason}", file=sys.stderr)
    for reason in checked["workload_failures"]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"env": env, "rounds": worker["rounds"]}))
    print(json.dumps({
        # op checks are counted in `failed`; a run none of whose operations
        # passed its check is not correct either
        "correct": not checked["workload_failures"] and failed < attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
