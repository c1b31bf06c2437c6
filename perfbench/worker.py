"""One workload in one fresh, single-threaded process.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Runs whole rounds of the workload's operations until ``--seconds`` have
passed (at least ``MIN_ROUNDS``); each round builds its problems anew. An
operation's time is the least over its rounds. Prints one JSON document
with the per-operation times, the first round's outputs for the checker,
and the per-layer totals of a traced run.

``--setup-only`` stops after importing vvicert and building the inputs once;
run.py times that process from start to exit as ``setup_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import workloads  # imports vvicert from the checkout's src

MIN_ROUNDS = 3


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, default=float)


class Timing:
    """Best time, first output and failures of every operation."""

    def __init__(self, ops):
        self.ops = ops
        self.best = [math.inf] * len(ops)
        self.first = [None] * len(ops)
        self.errors = {}
        self.unstable = set()
        self.rounds = 0

    def run_round(self, workload, seed, plan) -> None:
        inputs = workloads.build_inputs(workload, seed)
        for i, op in enumerate(self.ops):
            start = time.perf_counter()
            try:
                out = workloads.run_op(op, inputs, plan)
            except Exception:  # recorded as a failed operation and reported
                self.errors.setdefault(i, []).append(traceback.format_exc(limit=3))
                continue
            elapsed = time.perf_counter() - start
            self.best[i] = min(self.best[i], elapsed)
            text = _canonical(out)
            if self.first[i] is None:
                self.first[i] = text
            elif text != self.first[i]:
                self.unstable.add(i)
        self.rounds += 1
        gc.collect()

    def run_for(self, seconds, workload, seed, plan) -> None:
        deadline = time.perf_counter() + seconds
        while self.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            self.run_round(workload, seed, plan)

    def summary(self) -> dict:
        done = [t for t in self.best if math.isfinite(t)]
        out = {"rounds": self.rounds, "timed_ops": len(done)}
        if done:
            out.update(
                ops_per_s=len(done) / sum(done),
                op_p50_ms=1000.0 * statistics.median(done),
                op_p90_ms=1000.0 * float(np.percentile(done, 90)),
            )
        return out


def _median_by_key(rows: list) -> dict:
    return {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        workloads.build_inputs(args.workload, args.seed)
        return 0

    plan = workloads.plan_for(args.workload)
    ops = workloads.operations(args.workload, args.seed)
    untraced = Timing(ops)
    result = {"env": {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }}
    if args.trace == 0:
        untraced.run_for(args.seconds, args.workload, args.seed, plan)
        timings = [untraced]
        result["timing"] = untraced.summary()
        result["timing"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    else:
        from spans import Recorder

        # rounds without and with wrappers alternate, so that both kinds see
        # the same drift of the machine's speed; the untraced ones give the
        # baseline for the overhead
        rec = Recorder()
        traced = Timing(ops)
        per_round = []
        deadline = time.perf_counter() + args.seconds
        while traced.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            untraced.run_round(args.workload, args.seed, plan)
            rec.install()
            try:
                traced.run_round(args.workload, args.seed, plan)
            finally:
                rec.uninstall()
            per_round.append(rec.metrics(workloads.AUDIT_RULES))
            rec.reset()
        timings = [untraced, traced]
        # the wrappers must not change what the program returns
        untraced.unstable.update(
            i for i, text in enumerate(traced.first)
            if text is not None and untraced.first[i] is not None and text != untraced.first[i]
        )
        base, with_trace = untraced.summary(), traced.summary()
        layers = _median_by_key(per_round)
        layers["trace.overhead_pct"] = 100.0 * (base["ops_per_s"] / with_trace["ops_per_s"] - 1.0)
        result["timing"] = {"untraced": base, "traced": with_trace}
        result["layers"] = layers

    inputs = workloads.build_inputs(args.workload, args.seed)
    result["check_input"] = {
        "workload": args.workload,
        "plan": plan.to_dict(),
        "problems": {pid: p.to_dict() for pid, p in inputs.problems.items()},
        "facts": workloads.program_facts(inputs),
        "matrices": {
            mid: {"A": a.tolist(), "normals": cone.normals.tolist(),
                  "branch": workloads.gordan_matrix(args.seed, int(mid[6:]))[2]}
            for mid, (a, cone) in inputs.matrices.items()
        },
        "ops": [
            {"kind": op.kind, "problem": op.problem, "arg": op.arg,
             "output": None if untraced.first[i] is None else json.loads(untraced.first[i])}
            for i, op in enumerate(ops)
        ],
    }
    rounds = sum(t.rounds for t in timings)
    failed_by_op = [0] * len(ops)
    for t in timings:
        for i, msgs in t.errors.items():
            failed_by_op[i] += len(msgs)
        # an output that changes between rounds fails in every round
        for i in t.unstable:
            failed_by_op[i] = rounds
    result["rounds"] = rounds
    result["failed_by_op"] = failed_by_op
    result["errors"] = {
        ops[i].name: msgs[0] for t in timings for i, msgs in t.errors.items()
    }
    result["unstable"] = sorted({ops[i].name for t in timings for i in t.unstable})
    result["best_s"] = {op.name: untraced.best[i] for i, op in enumerate(ops)}
    json.dump(result, sys.stdout, default=float)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
