import json

import numpy as np
import pytest

from vvicert import audit
from vvicert.certify import (
    ZERO_ETA_TOL,
    InvexClass,
    SamplingPlan,
    Verdict,
    VVIVariant,
    _invex_violation_mask,
    _vvi_violation_mask,
)
from vvicert.errors import GenerationFailedError
from vvicert.model import Kernel
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
        monkeypatch.setattr(audit, "check_invex_class", lambda *a, **k: certified)
        monkeypatch.setattr(audit, "check_vvi", lambda *a, **k: certified)
        self._fake_refuted_conclusion(monkeypatch, x, [])
        res = audit.audit_rule(rid, _one_piece("crosscheck", components), "xi", plan)
        assert res.outcome == "HypothesisNotCertified"
        assert len(res.notes) == 1 and res.notes[0].startswith(note)
        assert res.notes[0].endswith("certification was a sampling artifact")


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

    def test_generated_point_inside_domain(self):
        for seed in range(5):
            p = audit.generate_instance(
                audit.RandomInstanceSpec(seed=seed, n=2, m=2, piece_count=3)
            )
            assert p.f.in_domain(p.point("x0"))


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
            summary = audit.run_matrix(["T3.3", "T4.6"], [(example5, "xi")], plan)
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
