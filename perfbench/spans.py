"""Per-layer tracing for the traced run, installed from outside the program.

``Recorder.install`` replaces each traced function of ``vvicert`` with a
wrapper in every ``vvicert`` module namespace that holds it (functions
imported by name, such as ``linprog`` in ``vvicert.certify`` and
``vvicert.cone``, are wrapped where they are looked up) and on the classes
that define the traced methods. ``uninstall`` puts the originals back.
Untraced runs never call ``install``.

Each wrapper opens a span. A span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of nested
layers add up to the traced total without double counting.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); a dotted attribute is Class.method.
TRACED = (
    ("vvicert.problem", "Problem.from_dict", "problem.from_dict"),
    ("vvicert.model", "PiecewiseVectorFn.validate", "model.validate"),
    ("vvicert.audit", "generate_instance", "audit.generate_instance"),
    ("vvicert.sampling", "unit_points", "sampling.unit_points"),
    ("vvicert.sampling", "box_points", "sampling.box_points"),
    ("vvicert.sampling", "ball_points", "sampling.ball_points"),
    ("vvicert.sampling", "ball_pairs", "sampling.ball_pairs"),
    ("vvicert.sampling", "simplex_weights", "sampling.simplex_weights"),
    ("vvicert.exprlang", "evaluate", "exprlang.evaluate"),
    ("vvicert.exprlang", "evaluate_many", "exprlang.evaluate_many"),
    ("vvicert.exprlang", "predicate_holds_many", "exprlang.predicate_holds_many"),
    ("vvicert.model", "PiecewiseVectorFn.values", "model.values"),
    ("vvicert.model", "PiecewiseVectorFn.active_mask", "model.active_mask"),
    ("vvicert.model", "PiecewiseVectorFn.piece_jacobians_many", "model.piece_jacobians_many"),
    ("vvicert.model", "PiecewiseVectorFn.clarke_jacobian", "model.clarke_jacobian"),
    ("vvicert.model", "PiecewiseVectorFn.negated", "model.negated"),
    ("vvicert.model", "boundary_probes", "model.boundary_probes"),
    ("vvicert.cone", "OrderingCone.contains_many", "cone.contains_many"),
    ("vvicert.cone", "OrderingCone.strictly_contains_many", "cone.strictly_contains_many"),
    ("vvicert.cone", "OrderingCone.strictly_contains", "cone.strictly_contains"),
    ("vvicert.certify", "check_quasi_efficient", "certify.check_quasi_efficient"),
    ("vvicert.certify", "check_vvi", "certify.check_vvi"),
    ("vvicert.certify", "check_invex_class", "certify.check_invex_class"),
    ("vvicert.certify", "check_vector_critical", "certify.check_vector_critical"),
    ("vvicert.certify", "gordan_alternative", "certify.gordan_alternative"),
    # one scipy function, replaced in both vvicert.certify and vvicert.cone
    ("vvicert.certify", "linprog", "lp.linprog"),
    ("vvicert.audit", "audit_rule", "audit.rule"),
)

# rejection samplers whose drawn rows make up sampling.accept_ratio
_REJECTION = ("sampling.ball_points", "sampling.ball_pairs")
# counters reported under their own names
_COUNTERS = (
    "sampling.unit_points.rows", "exprlang.evaluate_many.rows",
    "certify.gordan_alternative.degenerate", "lp.linprog.failed",
)


def _rows(value) -> int:
    return int(np.shape(value)[0]) if np.ndim(value) else 0


class Recorder:
    """Span and counter totals, kept in memory until the run ends."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [name, seconds covered by child spans]
        self._saved = []

    # -- span bookkeeping --------------------------------------------------

    def _label(self, name: str, args, kwargs) -> str:
        if name == "audit.rule":  # audit_rule(rule, problem, point, plan)
            return f"audit.rule.{args[0].rule_id}"
        return name

    def _count(self, label: str, args, kwargs, result, exc) -> None:
        c = self.counts
        if label == "sampling.unit_points":
            rows = _rows(result)
            c["sampling.unit_points.rows"] += rows
            if self._stack and self._stack[-1][0] in _REJECTION:
                c["sampling.rejection_drawn"] += rows
        elif label == "sampling.ball_points":
            c["sampling.rejection_returned"] += _rows(result)
        elif label == "sampling.ball_pairs" and result is not None:
            c["sampling.rejection_returned"] += _rows(result[0])
        elif label == "exprlang.evaluate_many":
            c["exprlang.evaluate_many.rows"] += _rows(args[1])  # evaluate_many(e, x, ...)
        elif label == "certify.gordan_alternative" and exc is not None:
            if type(exc).__name__ == "DegenerateError":
                c["certify.gordan_alternative.degenerate"] += 1
        elif label == "lp.linprog":
            if exc is not None or not getattr(result, "success", False):
                c["lp.linprog.failed"] += 1
        elif label.startswith("audit.rule.") and result is not None:
            c[f"audit.rows.{result.outcome}"] += 1

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = rec._label(name, args, kwargs)
            frame = [label, 0.0]
            rec._stack.append(frame)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                elapsed = time.perf_counter() - start
                rec._stack.pop()
                if rec._stack:
                    rec._stack[-1][1] += elapsed
                rec.calls[label] += 1
                rec.total_s[label] += elapsed
                rec.self_s[label] += elapsed - frame[1]
                rec._count(label, args, kwargs, result, exc)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "vvicert" or k.startswith("vvicert.")]
        for module_name, attr, span in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__))
                else:
                    new = self.wrap(span, raw)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, attr)
            new = self.wrap(span, orig)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reporting ---------------------------------------------------------

    def metrics(self, rules) -> dict:
        """The totals since the last reset as per-layer metric values:
        ``<span>.calls`` and ``<span>.ms`` (self time) for every traced span,
        the counters, and ``audit.rule.<id>.ms`` for each audit rule."""
        out = {}
        for span in dict.fromkeys(span for _, _, span in TRACED if span != "audit.rule"):
            out[f"{span}.calls"] = self.calls.get(span, 0)
            out[f"{span}.ms"] = 1000.0 * self.self_s.get(span, 0.0)
        for name in _COUNTERS:
            out[name] = self.counts.get(name, 0)
        drawn = self.counts.get("sampling.rejection_drawn", 0)
        out["sampling.accept_ratio"] = (
            self.counts.get("sampling.rejection_returned", 0) / drawn if drawn else 0.0
        )
        for rule in rules:
            # the rule's whole span: its own code is thin, the question is
            # which rule the audit time goes to
            out[f"audit.rule.{rule}.ms"] = 1000.0 * self.total_s.get(f"audit.rule.{rule}", 0.0)
        out["audit.rows.consistent"] = self.counts.get("audit.rows.ConsistentWithTheorem", 0)
        out["audit.rows.not_certified"] = self.counts.get("audit.rows.HypothesisNotCertified", 0)
        out["audit.rows.violation"] = self.counts.get("audit.rows.VIOLATION", 0)
        return out

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
