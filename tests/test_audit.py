import collections
import dataclasses
import functools
import json
import sys
from enum import Enum

import numpy as np
import pytest

from vvicert import audit, certify, exprlang, model, sampling
from vvicert.certify import (
    ZERO_ETA_TOL,
    InvexClass,
    SamplingPlan,
    Verdict,
    VVIVariant,
    _invex_violation_mask,
    _quasi_violation_mask,
    _vvi_violation_mask,
)
from vvicert.cli import load_problem
from vvicert.cone import OrderingCone
from vvicert.errors import GenerationFailedError, OutOfDomainError, VviCertError
from vvicert.model import Kernel, PiecewiseVectorFn
from vvicert.problem import Problem


@pytest.fixture()
def plan():
    return SamplingPlan(ball_sample_count=1000, pair_sample_count=1000)


def _one_piece(name, components):
    """A single-piece n = 1, m = 2 problem on [-2, 2] with base point 0."""
    return Problem.from_dict(
        {
            "version": "vvicert/1",
            "name": name,
            "n": 1,
            "m": 2,
            "domain": [[-2.0, 2.0]],
            "pieces": [{"region": "0 <= 1", "components": components}],
            "cone": {"orthant": 2},
            "kernel": {"kind": "difference"},
            "e": [0.1, 0.1],
            "points": {"xi": [0.0]},
        },
        name=name,
    )


@pytest.fixture(scope="module")
def balanced():
    # f = (x, -x): every forward hypothesis bundle certifies
    return _one_piece("balanced", ["x1", "-x1"])


class TestAuditRule:
    def test_t33_consistent_on_example5(self, example5, plan):
        res = audit.audit_rule("T3.3", example5, "xi", plan)
        assert res.outcome == "ConsistentWithTheorem"
        assert res.hypothesis_verdicts["pseudo2(f)"].certified
        assert res.hypothesis_verdicts["svvi"].certified
        assert res.conclusion_verdict.certified

    def test_t31_linear_hypothesis_not_certified(self, linear_problem, plan):
        res = audit.audit_rule("T3.1", linear_problem, "xi", plan)
        assert res.outcome == "HypothesisNotCertified"
        assert res.hypothesis_verdicts["svvi"].refuted

    def test_t46_consistent_on_example5(self, example5, plan):
        res = audit.audit_rule("T4.6", example5, "xi", plan)
        assert res.outcome == "ConsistentWithTheorem"
        assert res.hypothesis_verdicts["critical"].certified

    def test_t41_contrapositive_gate(self, example5, plan):
        # WSVVI holds at xi = 0, so the contrapositive premise is empty
        res = audit.audit_rule("T4.1", example5, "xi", plan)
        assert res.outcome == "HypothesisNotCertified"
        assert "premise" in res.notes[0]

    def test_flag_gate_blocks_affinity_rules(self, example23, plan):
        # negNormDifference is not affine in its first argument
        res = audit.audit_rule("T4.1", example23, "x0", plan)
        assert res.outcome == "HypothesisNotCertified"
        assert res.hypothesis_verdicts["flag:first_arg_affine"] is False

    def test_skew_gate(self, example23, plan):
        res = audit.audit_rule("T3.2", example23, "x0", plan)
        assert res.outcome == "HypothesisNotCertified"
        assert res.hypothesis_verdicts["flag:skew"] is False

    def test_t41_full_contrapositive_chain(self, linear_problem, plan):
        # for f = (x, x): WSVVI is refuted by any x < 0, -f is quasi type II
        # (linear), and the witness segment refutes quasi weak efficiency
        res = audit.audit_rule("T4.1", linear_problem, "xi", plan)
        assert res.outcome == "ConsistentWithTheorem"
        assert res.hypothesis_verdicts["wsvvi-refuted"].refuted
        assert res.hypothesis_verdicts["quasi2(-f)"].certified
        assert res.conclusion_verdict.refuted

    def test_checker_error_becomes_inapplicable(self, plan):
        # the plan ball does not fit this tight domain, so the hypothesis
        # checker errors; the row degrades instead of crashing the matrix
        tight = Problem.from_dict(
            {
                "version": "vvicert/1",
                "name": "tight",
                "n": 1,
                "m": 2,
                "domain": [[-0.2, 0.2]],
                "pieces": [{"region": "0 <= 1", "components": ["x1", "-x1"]}],
                "cone": {"orthant": 2},
                "kernel": {"kind": "difference"},
                "e": [0.1, 0.1],
                "points": {"xi": [0.0]},
            },
            name="tight",
        )
        res = audit.audit_rule("T3.1", tight, "xi", plan)  # plan radius 0.25
        assert res.outcome == "HypothesisNotCertified"
        assert any("inapplicable" in n for n in res.notes)
        assert res.hypothesis_verdicts["error"].status == "Inapplicable"

    def test_all_forward_rules_consistent_on_balanced_linear(self, balanced, plan):
        # f = (x, -x): every hypothesis bundle certifies (linear functions are
        # exactly invex; the opposite slopes block any VVI witness and make 0
        # critical), so all six forward rules close with certified conclusions
        forward = ["T3.1", "T3.2", "T3.3", "T4.2", "T4.6", "R4.0"]
        for rid in forward:
            res = audit.audit_rule(rid, balanced, "xi", plan)
            assert res.outcome == "ConsistentWithTheorem", (rid, res.notes)
        res = audit.audit_rule("T4.1", balanced, "xi", plan)
        assert res.outcome == "HypothesisNotCertified"  # WSVVI premise empty

    @pytest.mark.parametrize(
        "rid, keys, weak",
        [
            ("T3.1", ["invex(f)", "svvi"], False),
            ("T3.2", ["flag:skew", "invex(-f)", "mvvi"], False),
            ("T3.3", ["pseudo2(f)", "svvi"], False),
            (
                "T4.1",
                ["flag:first_arg_affine", "flag:vanishes_on_diagonal", "wsvvi-refuted"],
                None,
            ),
            ("T4.2", ["flag:skew", "pseudo1(-f)", "wmvvi"], True),
            ("T4.6", ["pseudo1(f)", "critical"], True),
            ("R4.0", ["pseudo1(f)", "wsvvi"], True),
        ],
    )
    def test_hypothesis_keys_in_order(self, balanced, plan, rid, keys, weak):
        res = audit.audit_rule(rid, balanced, "xi", plan)
        assert list(res.hypothesis_verdicts) == keys
        if weak is None:
            assert res.conclusion_verdict is None
        else:
            assert res.conclusion_verdict.stats["weak"] is weak


def _each(verdict):
    """A stand-in for check_invex_classes or check_vvis: ``verdict`` for
    every class or variant asked."""
    return lambda asked, *a, **k: (verdict,) * len(asked)


class TestWitnessCrosscheck:
    """A refuted conclusion under certified hypotheses replays each
    hypothesis at the conclusion witness before it is called a violation."""

    @staticmethod
    def _fake_refuted_conclusion(monkeypatch, x, calls):
        def fake(f, cone, kernel, e, xi, r, weak=False, plan=None, extra_points=None):
            calls.append(weak)
            return Verdict("Refuted", "faked", witness={"x": list(x)})

        monkeypatch.setattr(audit, "check_quasi_efficient", fake)

    @pytest.mark.parametrize(
        "rid, weak",
        [("T3.1", False), ("T3.2", False), ("T3.3", False),
         ("T4.2", True), ("T4.6", True), ("R4.0", True)],
    )
    def test_witness_that_breaks_no_hypothesis_is_a_violation(
        self, monkeypatch, balanced, plan, rid, weak
    ):
        calls = []
        self._fake_refuted_conclusion(monkeypatch, [0.2], calls)
        res = audit.audit_rule(rid, balanced, "xi", plan)
        assert calls == [weak]
        assert res.outcome == "VIOLATION"
        assert res.notes == ["conclusion witness replays while every hypothesis holds at it"]

    @pytest.mark.parametrize("rid", ["T3.1", "T3.2", "T4.2", "R4.0"])
    def test_zero_eta_witness_breaks_no_vvi(self, monkeypatch, balanced, plan, rid):
        # A @ 0 = 0 lies in C, but a witness with eta = 0 decides no VVI
        self._fake_refuted_conclusion(monkeypatch, [0.0], [])
        res = audit.audit_rule(rid, balanced, "xi", plan)
        assert res.outcome == "VIOLATION"

    @pytest.mark.parametrize(
        "components, rid, x, note",
        [
            (["x1", "x1"], "T3.1", [-0.2], "svvi hypothesis violated at the conclusion witness;"),
            (["x1", "x1"], "T3.2", [-0.2], "mvvi hypothesis violated at the conclusion witness;"),
            (["x1", "x1"], "T4.2", [-0.2], "wmvvi hypothesis violated at the conclusion witness;"),
            (["x1", "x1"], "R4.0", [-0.2], "wsvvi hypothesis violated at the conclusion witness;"),
            (["-x1^2", "-x1^2"], "T3.1", [0.2],
             "invex(f) hypothesis violated at the conclusion witness pair;"),
            (["x1^2", "x1^2"], "T3.2", [0.2],
             "invex(-f) hypothesis violated at the conclusion witness pair;"),
        ],
    )
    def test_hypothesis_broken_at_witness_downgrades_row(
        self, monkeypatch, plan, components, rid, x, note
    ):
        certified = Verdict("CertifiedUpToSampling", "faked")
        monkeypatch.setattr(audit, "check_invex_classes", _each(certified))
        monkeypatch.setattr(audit, "check_vvis", _each(certified))
        self._fake_refuted_conclusion(monkeypatch, x, [])
        res = audit.audit_rule(rid, _one_piece("crosscheck", components), "xi", plan)
        assert res.outcome == "HypothesisNotCertified"
        assert len(res.notes) == 1 and res.notes[0].startswith(note)
        assert res.notes[0].endswith("certification was a sampling artifact")


_CLASS_NOTE = (
    "quasi type II (-f) hypothesis violated on the witness segment; "
    "certification was a sampling artifact"
)
_QUASI_NOTE = (
    "segment point refutes quasi weak efficiency although the "
    "conclusion check certified: checker inconsistency"
)
_NO_PREMISE_NOTE = (
    "kernel affinity did not transport the WSVVI witness into the ball; "
    "contrapositive premise could not be propagated"
)


def _t41_loop_reference(problem, point, plan, x_hat):
    """The former T4.1 replay: (outcome, note) from one segment point at a
    time, the class checked before the conclusion at each point."""
    f, cone, kernel, e = problem.f, problem.cone, problem.kernel, problem.e
    xi = problem.point(point)
    cls = audit.RULES["T4.1"].invex_class
    poly = f.clarke_jacobian(xi)
    for x0 in audit._segment_points(xi, np.asarray(x_hat, dtype=float), plan.radius):
        eta0 = kernel.eval(x0, xi)
        if np.linalg.norm(eta0) <= ZERO_ETA_TOL:
            continue
        if not any(cone.strictly_contains(-(v @ eta0)) for v in poly.vertices):
            continue
        if _invex_violation_mask(cls, f.negated(), cone, kernel, e, x0[None, :], xi[None, :])[0]:
            return "HypothesisNotCertified", _CLASS_NOTE
        if _quasi_violation_mask(f, cone, kernel, e, xi, True, x0[None, :])[0]:
            return "VIOLATION", _QUASI_NOTE
    return "HypothesisNotCertified", _NO_PREMISE_NOTE


def _t41_instances():
    """(problem, point, WSVVI witness): generated difference-kernel
    instances with n = 1, 2 and 3, and one-piece quadratics."""
    rng = np.random.default_rng(41)
    out = []
    for seed in range(0, 12, 2):
        inst = audit.generate_instance(audit.RandomInstanceSpec(
            seed=seed, n=1 + seed % 3, m=2 + seed % 4 // 2, piece_count=1 + seed % 3,
            degree=1 + seed % 3,
        ))
        for _ in range(3):
            out.append((inst, "x0", rng.uniform(-0.9, 0.9, inst.f.n).round(3).tolist()))
    for a, b in rng.uniform(-4.0, 4.0, size=(8, 2)).round(2):
        problem = _one_piece("quadratic", [f"x1 + {a}*x1^2", f"0.5*x1 + {b}*x1^2"])
        out += [(problem, "xi", [-0.2]), (problem, "xi", [0.2])]
    return out


class TestT41Replay:
    """When the T4.1 conclusion certifies, the witness segment is replayed in
    one pass of the checkers' own masks: the first segment point where the
    premise holds and the class or the conclusion breaks decides, the class
    first at that point."""

    @staticmethod
    def _replay(monkeypatch, problem, point, plan, x_hat):
        refuted = Verdict("Refuted", "faked", witness={"x": list(x_hat)})
        certified = Verdict("CertifiedUpToSampling", "faked")
        monkeypatch.setattr(audit, "check_vvis", _each(refuted))
        monkeypatch.setattr(audit, "check_invex_classes", _each(certified))
        monkeypatch.setattr(audit, "check_quasi_efficient", lambda *a, **k: certified)
        res = audit.audit_rule("T4.1", problem, point, plan)
        assert len(res.notes) == 1
        return res.outcome, res.notes[0]

    @pytest.mark.parametrize(
        "components, x_hat, want",
        [
            # f(x) >= f(0) at the far end of the segment: -f is not quasi2
            (["x1 + 10*x1^2", "x1 + 10*x1^2"], [-0.2], ("HypothesisNotCertified", _CLASS_NOTE)),
            # f(x) < f(0) - 0.1|x|: the segment refutes quasi weak efficiency
            (["x1", "x1"], [-0.2], ("VIOLATION", _QUASI_NOTE)),
            # the same near xi, where the segment starts; the class breaks
            # only at its far end
            (["-x1 + 10*x1^2", "-x1 + 10*x1^2"], [0.2], ("VIOLATION", _QUASI_NOTE)),
            # -A eta lies in int C at no segment point
            (["x1 + 10*x1^2", "x1 + 10*x1^2"], [0.2],
             ("HypothesisNotCertified", _NO_PREMISE_NOTE)),
        ],
    )
    def test_hand_instances(self, monkeypatch, plan, components, x_hat, want):
        problem = _one_piece("replay", components)
        assert self._replay(monkeypatch, problem, "xi", plan, x_hat) == want
        assert _t41_loop_reference(problem, "xi", plan, x_hat) == want

    def test_matches_the_point_loop(self, monkeypatch, plan):
        seen = set()
        for problem, point, x_hat in _t41_instances():
            want = _t41_loop_reference(problem, point, plan, x_hat)
            assert self._replay(monkeypatch, problem, point, plan, x_hat) == want
            seen.add(want[1])
        assert seen == {_CLASS_NOTE, _QUASI_NOTE, _NO_PREMISE_NOTE}

    @pytest.mark.parametrize(
        "name, mutate",
        [
            ("_invex_violation_mask", lambda mask: lambda *a: ~mask(*a)),
            ("_quasi_violation_mask", lambda mask: lambda *a: ~mask(*a)),
            ("_stampacchia_products", lambda prods: lambda *a: -prods(*a)),
        ],
    )
    def test_mutated_mask_disagrees(self, monkeypatch, plan, name, mutate):
        monkeypatch.setattr(audit, name, mutate(getattr(audit, name)))
        disagree = 0
        for problem, point, x_hat in _t41_instances():
            want = _t41_loop_reference(problem, point, plan, x_hat)
            disagree += self._replay(monkeypatch, problem, point, plan, x_hat) != want
        assert disagree


class TestVviReplay:
    @staticmethod
    def _point_violation(variant, f, cone, kernel, xi, x):
        # reference: the former scalar replay, one vertex at a time
        eta = kernel.eval(x, xi)
        if np.linalg.norm(eta) <= ZERO_ETA_TOL:
            return False
        poly = f.clarke_jacobian(x if variant.minty else xi)
        test = cone.strictly_contains if variant.weak else cone.contains
        return all(test(-(v @ eta)) for v in poly.vertices)

    @pytest.mark.parametrize("variant", list(VVIVariant))
    def test_batch_mask_agrees_with_scalar_replay(self, example5, example23, variant):
        rng = np.random.default_rng(5)
        seen = set()
        # on the concave one-piece problem the Jacobian at x differs from the one at xi
        concave = _one_piece("concave", ["-x1^2", "-x1^2"])
        for problem, name in ((example5, "xi"), (example23, "x0"), (concave, "xi")):
            xi = problem.point(name)
            # the base point, both sides of the kink at 0, and seeded points
            xs = np.concatenate([[0.0, 1e-8, -1e-8], rng.uniform(-0.9, 0.9, 60)])
            for kernel in (problem.kernel, Kernel("difference", 1)):
                for x in xs[:, None]:
                    want = self._point_violation(variant, problem.f, problem.cone, kernel, xi, x)
                    got = _vvi_violation_mask(
                        variant, problem.f, problem.cone, kernel, xi, x[None, :], "forall"
                    )[0][0]
                    assert got == want
                    seen.add(want)
        assert seen == {True, False}


class TestZeroEtaPairs:
    """Invexity classes skip pairs with eta = 0, as the VVIs and quasi
    efficiency do: on this instance the first ball sample is x0 - 1 ulp, and
    f(x) <_C f(x0) held there only through rounding."""

    SPEC = audit.RandomInstanceSpec(
        seed=13021, n=1, m=3, piece_count=3, degree=2, kernel_kind="negNormDifference"
    )

    @pytest.fixture(scope="class")
    def rounding(self):
        return audit.generate_instance(self.SPEC)

    @pytest.mark.parametrize("cls", list(InvexClass))
    @pytest.mark.parametrize("negated", [False, True])
    def test_pair_one_ulp_apart_refutes_no_class(self, rounding, cls, negated):
        y = rounding.point("x0")
        x = np.nextafter(y, -np.inf)
        f = rounding.f.negated() if negated else rounding.f
        viol = _invex_violation_mask(
            cls, f, rounding.cone, rounding.kernel, np.asarray(rounding.e),
            x[None, :], y[None, :],
        )
        assert not viol[0]

    def test_t33_witness_is_a_genuine_pair(self, rounding, plan):
        res = audit.audit_rule("T3.3", rounding, "x0", plan)
        verdict = res.hypothesis_verdicts["pseudo2(f)"]
        assert verdict.refuted
        assert np.linalg.norm(verdict.witness["eta"]) > 1e-12
        assert res.outcome == "HypothesisNotCertified"


class TestGenerateInstance:
    def test_deterministic_per_seed(self):
        spec = audit.RandomInstanceSpec(seed=1, n=1, m=2, piece_count=2)
        a = audit.generate_instance(spec)
        b = audit.generate_instance(spec)
        assert a.canonical_json() == b.canonical_json()

    def test_seeds_differ(self):
        a = audit.generate_instance(audit.RandomInstanceSpec(seed=1))
        b = audit.generate_instance(audit.RandomInstanceSpec(seed=2))
        assert a.canonical_json() != b.canonical_json()

    def test_two_pieces_glued_continuously(self):
        p = audit.generate_instance(audit.RandomInstanceSpec(seed=1, n=1, m=2, piece_count=2))
        assert len(p.f.pieces) == 2
        assert p.f.validate() == []

    def test_degenerate_spec_rejected(self):
        with pytest.raises(GenerationFailedError):
            audit.generate_instance(audit.RandomInstanceSpec(seed=1, piece_count=0))
        # numpy's SeedSequence takes no negative seed
        with pytest.raises(GenerationFailedError):
            audit.RandomInstanceSpec(seed=-1)

    @pytest.mark.parametrize("piece_count", [0, 4])
    def test_spec_rejects_piece_count_without_recipe(self, piece_count):
        with pytest.raises(GenerationFailedError, match="piece count"):
            audit.RandomInstanceSpec(seed=1, piece_count=piece_count)

    def test_generated_point_inside_domain(self):
        for seed in range(5):
            p = audit.generate_instance(
                audit.RandomInstanceSpec(seed=seed, n=2, m=2, piece_count=3)
            )
            assert p.f.in_domain(p.point("x0"))


class TestGenerationRetries:
    """generate_instance retries an attempt that fails or does not validate,
    each with the stream of (seed, attempt), and gives up after 20."""

    SPEC = audit.RandomInstanceSpec(seed=7)

    @staticmethod
    def _jump():
        # example5 with a jump of 1 at the kink, which validate() reports
        spec = load_problem("example5").to_dict()
        spec["pieces"][0]["components"][0] += " + 1"
        return Problem.from_dict(spec)

    def _attempts(self, monkeypatch, outcomes):
        """Replace _generate_once by the outcomes in turn: an exception is
        raised, a problem returned. Returns the first draw of each stream."""
        draws = []

        def fake(spec, rng):
            assert spec is self.SPEC
            draws.append(rng.random())
            out = outcomes[len(draws) - 1]
            if isinstance(out, Exception):
                raise out
            return out

        monkeypatch.setattr(audit, "_generate_once", fake)
        return draws

    def _streams(self, count):
        return [np.random.default_rng(np.random.SeedSequence([7, k])).random()
                for k in range(count)]

    def test_error_retried(self, monkeypatch):
        good = load_problem("example5")
        draws = self._attempts(monkeypatch, [VviCertError("bad attempt")] * 2 + [good])
        assert audit.generate_instance(self.SPEC) is good
        assert draws == self._streams(3)

    def test_validation_issue_retried(self, monkeypatch):
        bad, good = self._jump(), load_problem("example5")
        assert bad.f.validate(sample_count=256, seed=7)
        draws = self._attempts(monkeypatch, [bad, good])
        assert audit.generate_instance(self.SPEC) is good
        assert draws == self._streams(2)

    def test_gives_up_after_twenty(self, monkeypatch):
        bad = self._jump()
        draws = self._attempts(monkeypatch, [VviCertError("bad attempt")] * 19 + [bad])
        issues = "; ".join(bad.f.validate(sample_count=256, seed=7))
        with pytest.raises(GenerationFailedError) as info:
            audit.generate_instance(self.SPEC)
        assert str(info.value) == (
            f"instance generation failed after retries (seed 7): {issues}"
        )
        assert draws == self._streams(20)


class TestRunMatrix:
    def test_all_rules_on_fixtures_zero_violations(self, example5, example23, plan):
        summary = audit.run_matrix(
            sorted(audit.RULES),
            [(example5, "xi"), (example23, "x0")],
            plan,
        )
        assert summary.violation_count == 0
        assert summary.exit_status == 0
        assert len(summary.results) == 14

    def test_empty_rule_list_rejected(self, example5, plan):
        with pytest.raises(ValueError):
            audit.run_matrix([], [(example5, "xi")], plan)
        with pytest.raises(ValueError):
            audit.run_matrix(["T3.1"], [], plan)

    def test_random_instances_zero_violations(self, plan):
        instances = []
        for seed in range(12):
            spec = audit.RandomInstanceSpec(
                seed=seed,
                n=1 + seed % 3,
                m=2 + seed % 2,
                piece_count=1 + seed % 3,
                degree=1 + seed % 3,
                kernel_kind=["difference", "negNormDifference"][seed % 2],
            )
            inst = audit.generate_instance(spec)
            instances.append((inst, inst.point("x0")))
        summary = audit.run_matrix(["T3.1", "T3.3", "T4.6"], instances, plan)
        assert summary.violation_count == 0

    def test_reproducible_summary(self, example5, plan):
        payloads = []
        for _ in range(2):
            # a new problem object each time, so no verdict comes from its memo
            fresh = Problem.from_dict(example5.to_dict())
            summary = audit.run_matrix(["T3.3", "T4.6"], [(fresh, "xi")], plan)
            payloads.append(json.dumps(summary.to_payload(), sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_monotonicity_in_sample_count(self, example5, example23):
        outcomes = {}
        for count in (400, 1600):
            plan = SamplingPlan(ball_sample_count=count, pair_sample_count=count)
            summary = audit.run_matrix(
                sorted(audit.RULES), [(example5, "xi"), (example23, "x0")], plan
            )
            outcomes[count] = [r.outcome for r in summary.results]
        for small, large in zip(outcomes[400], outcomes[1600]):
            if small == "ConsistentWithTheorem":
                assert large != "VIOLATION"

    def test_table_rendering(self, example5, plan):
        summary = audit.run_matrix(["T3.3"], [(example5, "xi")], plan)
        text = summary.table()
        assert "T3.3" in text and "violations: 0" in text


CHECKERS = ("check_invex_classes", "check_vvis", "check_quasi_efficient", "check_vector_critical")


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _content(value):
    """Hashable content of a checker argument, to spot a repeated call."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_content(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _content(v)) for k, v in value.items()))
    if isinstance(value, (PiecewiseVectorFn, Kernel, SamplingPlan)):
        return _canon(value.to_dict())
    if isinstance(value, OrderingCone):
        return (_content(value.normals), value.margin)
    if isinstance(value, Enum):
        return value.value
    return value


def _fresh(problem: Problem) -> Problem:
    return Problem.from_dict(problem.to_dict())


class TestVerdictMemo:
    """Rules on one problem object share checker verdicts, keyed by the
    checker and the content of its inputs."""

    @staticmethod
    def _instances():
        ex23_diff = load_problem("example23")
        ex23_diff.kernel = Kernel("difference", ex23_diff.f.n)  # as --kernel does
        out = [(load_problem("example5"), "xi"), (load_problem("example23"), "x0"),
               (ex23_diff, "x0")]
        for i in range(6):  # one turn of the criterion-10 shape rotation
            spec = audit.RandomInstanceSpec(
                seed=500 + i, n=1 + i % 3, m=2 + i % 2, piece_count=1 + i % 3,
                degree=1 + i % 3, kernel_kind=["difference", "negNormDifference"][i % 2],
            )
            out.append((audit.generate_instance(spec), "x0"))
        return out

    def test_shared_problem_matches_fresh_problem_per_rule(self, plan):
        rules = sorted(audit.RULES)
        for problem, at in self._instances():
            shared = [_canon(audit.audit_rule(r, problem, at, plan).to_payload())
                      for r in rules]
            fresh = [_canon(audit.audit_rule(r, _fresh(problem), at, plan).to_payload())
                     for r in rules]
            assert shared == fresh, problem.name

    def test_no_checker_call_repeats_on_one_problem(self, monkeypatch, plan):
        # the memo is per problem: example23 under two kernels is two problems
        # and may check its criticality twice
        seen = {name: set() for name in CHECKERS}
        repeats = []

        def recording(name, checker):
            def wrapper(*args, **kwargs):
                key = _content((args, kwargs))
                if key in seen[name]:
                    repeats.append(name)
                seen[name].add(key)
                return checker(*args, **kwargs)
            return wrapper

        for name in CHECKERS:
            monkeypatch.setattr(audit, name, recording(name, getattr(audit, name)))
        ran = set()
        for problem, at in self._instances():
            audit.run_matrix(sorted(audit.RULES), [(problem, at)], plan)
            assert repeats == [], problem.name
            ran.update(name for name, keys in seen.items() if keys)
            for keys in seen.values():
                keys.clear()
        assert ran == set(CHECKERS)

    @pytest.mark.parametrize(
        "attr, value",
        [
            ("kernel", Kernel("difference", 1)),
            ("e", np.array([0.3, 0.7])),
            ("f", _one_piece("balanced", ["x1", "-x1"]).f),
            # a wedge wider than the orthant, with e = (0.5, 0.5) inside
            ("cone", OrderingCone(generators=np.array([[1.0, -0.5], [-0.5, 1.0]]))),
        ],
    )
    def test_reassigned_input_never_served_stale(self, plan, attr, value):
        # the memo keys f, the cone and the kernel by the objects themselves,
        # e by its bytes: reassigning any of them is a new key
        problem = load_problem("example23")
        original = getattr(problem, attr)
        rules = sorted(audit.RULES)

        def rows(p):
            return [_canon(audit.audit_rule(r, p, "x0", plan).to_payload()) for r in rules]

        before = rows(problem)
        setattr(problem, attr, value)
        after = rows(problem)
        assert after == rows(_fresh(problem))
        assert after != before
        setattr(problem, attr, original)
        assert rows(problem) == before

    @pytest.mark.parametrize(
        "rid, called",
        [("T3.1", ["check_invex_classes", "check_vvis", "check_quasi_efficient"]),
         ("T4.6", ["check_invex_classes", "check_vector_critical", "check_quasi_efficient"])],
    )
    def test_replaced_checker_is_called(self, monkeypatch, balanced, plan, rid, called):
        before = audit.audit_rule(rid, balanced, "xi", plan).to_payload()
        calls = []
        for name in CHECKERS:
            real = getattr(audit, name)

            # same name as the checker, so a memo keyed by name would hit
            @functools.wraps(real)
            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(audit, name, counted)
        after = audit.audit_rule(rid, balanced, "xi", plan).to_payload()
        assert calls == called
        assert _canon(after) == _canon(before)

    def test_one_pair_table_per_class_group(self, monkeypatch, linear_problem, plan):
        # all seven rules decide six invexity hypotheses on f = (x, x) under
        # the skew difference kernel: three on f, two on -f and T4.1's
        tables = []

        def counted(*args):
            tables.append(len(args[2]))
            return real(*args)

        real = certify._pair_table
        monkeypatch.setattr(certify, "_pair_table", counted)
        summary = audit.run_matrix(sorted(audit.RULES), [(_fresh(linear_problem), "xi")], plan)
        decided = {
            key for row in summary.results for key, v in row.hypothesis_verdicts.items()
            if key.endswith("f)") and isinstance(v, Verdict)
        }
        assert len(decided) == 6, decided
        assert len(tables) <= 3, tables

    def test_one_products_table_per_vvi_site(self, monkeypatch, linear_problem, plan):
        # all seven rules decide five VVI hypotheses on f = (x, x) under the
        # skew, first-argument-affine difference kernel: svvi, wsvvi and
        # T4.1's wsvvi at xi, mvvi and wmvvi at x
        sites = []

        def counted(minty, *args):
            sites.append("minty" if minty else "stampacchia")
            return real(minty, *args)

        real = certify._vvi_products
        monkeypatch.setattr(certify, "_vvi_products", counted)
        summary = audit.run_matrix(sorted(audit.RULES), [(_fresh(linear_problem), "xi")], plan)
        decided = {
            (row.rule_id, key) for row in summary.results
            for key, v in row.hypothesis_verdicts.items()
            if "vvi" in key and isinstance(v, Verdict)
        }
        assert len(decided) == 6, decided
        assert sorted(sites) == ["minty", "stampacchia"], sites

    def test_ball_memo_holds_the_sampled_ball(self, monkeypatch, plan):
        # the audit and its checkers all draw through f's draw memo, which
        # looks ball_points up on the sampling module
        draws = []
        real = sampling.ball_points

        def counted(*args):
            draws.append((args, real(*args)))
            return draws[-1][1]

        monkeypatch.setattr(sampling, "ball_points", counted)
        problem = _one_piece("ball", ["x1", "-x1"])
        xi = problem.point("xi")
        audit.run_matrix(sorted(audit.RULES), [(problem, "xi")], plan)
        assert len(draws) == 1  # once for all seven rules and their checkers
        # another count, radius or point is another draw (the Halton stream
        # of n = 1 ignores the seed), and asking again draws nothing
        asked = [
            (plan, xi),
            (SamplingPlan(ball_sample_count=999), xi),
            (SamplingPlan(radius=0.5, ball_sample_count=1000), xi),
            (plan, np.array([0.5])),
        ]
        for other, at in asked[1:] + asked:
            audit.audit_rule("R4.0", problem, at, other)
        assert len(draws) == len(asked)
        memo = problem.f._shared
        for (args, ball), (other, at) in zip(draws, asked):
            assert np.array_equal(args[0], at)
            assert args[1:] == (other.radius, other.ball_sample_count, other.seed)
            want = real(at, other.radius, other.ball_sample_count, other.seed)
            assert ball.dtype == want.dtype and ball.shape == want.shape
            assert ball.tobytes() == want.tobytes()
            assert not ball.flags.writeable
            assert sum(v is ball for v in memo.values()) == 1

    def test_one_draw_and_one_polytope_per_problem(self, monkeypatch, plan):
        # all seven rules on one problem: one ball and one pair sample, shared
        # by f and -f, and one Jacobian polytope at xi; -f is built once
        counts = collections.Counter()

        def counting(name, real):
            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return counted

        for owner, name in ((sampling, "ball_points"), (sampling, "ball_pairs"),
                            (model, "JacobianPolytope")):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        for problem, at in self._instances():
            counts.clear()
            audit.run_matrix(sorted(audit.RULES), [(problem, at)], plan)
            assert counts == {"ball_points": 1, "ball_pairs": 1, "JacobianPolytope": 1}, (
                problem.name, counts)
            assert problem.f.negated() is problem.f.negated()
            assert problem.f.negated()._shared is problem.f._shared

    def test_fixed_geometry_built_once_per_problem(self, monkeypatch, plan):
        # all seven rules on one fresh problem: one chord-root scan per
        # (xi, radius) and one probe-pair build per (xi, r), each shared by f
        # and -f, one boundary-expression list, and no tiled copy of xi
        counts = collections.Counter()
        tiled_by = []

        def counting(owner, name, key):
            real = getattr(owner, name)

            def counted(*args):
                counts[(name,) + key(*args)] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, counted)

        counting(model, "_chord_roots", lambda f, start, radius: (start.tobytes(), radius))
        counting(certify, "_probe_pairs", lambda x0, probes: (x0.tobytes(),))
        counting(exprlang, "boundary_expressions", lambda region: ())
        real_tile = np.tile

        def tile(*args, **kwargs):
            tiled_by.append(sys._getframe(1).f_globals["__name__"])
            return real_tile(*args, **kwargs)

        monkeypatch.setattr(np, "tile", tile)
        for problem, at in self._instances():
            problem = _fresh(problem)  # no memo filled by validate
            counts.clear()
            audit.run_matrix(sorted(audit.RULES), [(problem, at)], plan)
            lists = counts.pop(("boundary_expressions",))
            assert lists == len(problem.f.pieces), (problem.name, lists)
            assert set(counts.values()) == {1}, (problem.name, counts)
            assert {key[0] for key in counts} == {"_chord_roots", "_probe_pairs"}, problem.name
        assert "vvicert.audit" not in tiled_by

    def test_no_problem_serialized(self, monkeypatch, plan):
        # the memo keys the problem's parts themselves, so no rule serializes
        # the problem to key its verdicts
        calls = []
        real = Problem.to_dict

        def counted(self):
            calls.append(self.name)
            return real(self)

        instances = self._instances()
        monkeypatch.setattr(Problem, "to_dict", counted)
        audit.run_matrix(sorted(audit.RULES), instances, plan)
        assert calls == []

    def test_checker_error_kept_and_raised_again(self, monkeypatch, plan):
        calls = []

        def raising(*args, **kwargs):
            calls.append(1)
            raise OutOfDomainError("ball leaves the domain")

        monkeypatch.setattr(audit, "check_invex_classes", raising)
        problem = _one_piece("raising", ["x1", "-x1"])
        # R4.0 and T4.6 share the pseudo1(f) hypothesis
        rows = [audit.audit_rule(r, problem, "xi", plan) for r in ("R4.0", "T4.6")]
        assert len(calls) == 1
        for row in rows:
            assert row.outcome == "HypothesisNotCertified"
            assert row.notes == ["checker error treated as inapplicable: ball leaves the domain"]

    def test_rule_outside_rules_forms_its_own_group(self):
        # no forward rule on f in RULES samples quasi1, so X1 decides it in a
        # check of its own on the audit's ball pairs
        plan = SamplingPlan(ball_sample_count=300, pair_sample_count=300)
        rule = audit.TheoremRule(
            "X1", "quasi type I (f) + SVVI solution => local quasi efficient",
            InvexClass.QUASI_I, variant=VVIVariant.SVVI,
        )
        problem = load_problem("example5")
        row = audit.audit_rule(rule, problem, "xi", plan)
        assert row.outcome == audit.CONSISTENT
        fresh = load_problem("example5")
        xi = fresh.point("xi")
        ball = sampling.ball_points(xi, plan.radius, plan.ball_sample_count, plan.seed)
        want = certify.check_invex_classes(
            ("quasi1",), fresh.f, fresh.cone, fresh.kernel, fresh.e, xi, plan.radius, plan,
            extra_pairs=(ball, np.broadcast_to(xi, ball.shape)),
        )[0]
        got = row.hypothesis_verdicts["quasi1(f)"]
        assert _canon(got.to_payload()) == _canon(want.to_payload())
        # its group keys apart from R4.0's, which it leaves to be decided anew
        after = audit.audit_rule("R4.0", problem, "xi", plan).to_payload()
        assert _canon(after) == _canon(audit.audit_rule("R4.0", fresh, "xi", plan).to_payload())

    def test_memo_values_are_frozen(self, example5, plan):
        # the kernel hands every caller its memoized flags, and the audit's
        # memo keys hold the plan
        flags = example5.kernel.flags(example5.f.inner_box(), seed=plan.seed)
        assert flags is example5.kernel.flags(example5.f.inner_box(), seed=plan.seed)
        with pytest.raises(dataclasses.FrozenInstanceError):
            flags.skew = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.seed = 7
        assert audit.audit_rule("T4.2", example5, "xi", plan).outcome == audit.CONSISTENT
