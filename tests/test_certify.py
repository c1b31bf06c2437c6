import json
import time

import numpy as np
import pytest

from vvicert import audit, certify, sampling
from vvicert.certify import (
    InvexClass,
    SamplingPlan,
    VVIVariant,
    _hull_exists_refine,
    _invex_violation_mask,
    _quasi_violation_mask,
    check_invex_class,
    check_invex_classes,
    check_quasi_efficient,
    check_vvi,
    check_vvis,
)
from vvicert.cone import OrderingCone
from vvicert.errors import InvalidEError, OutOfDomainError, VviCertError
from vvicert.model import Kernel, boundary_probes
from vvicert.problem import Problem


def make_problem(components, e=(0.1, 0.1), kernel="difference", name="t"):
    return Problem.from_dict(
        {
            "version": "vvicert/1",
            "name": name,
            "n": 1,
            "m": len(components),
            "domain": [[-2.0, 2.0]],
            "pieces": [{"region": "0 <= 1", "components": list(components)}],
            "cone": {"orthant": len(components)},
            "kernel": {"kind": kernel},
            "e": list(e),
        },
        name=name,
    )


class TestSamplingPlan:
    # perfbench/check.py compares this record with the stats of every verdict
    def test_record_is_pinned(self):
        assert SamplingPlan().to_dict() == {
            "seed": 42,
            "radius": 0.25,
            "ballSampleCount": 10000,
            "pairSampleCount": 10000,
            "searchBox": None,
            "simplexGridDepth": 8,
            "excludeZeroEta": True,
        }
        plan = SamplingPlan(ball_sample_count=1000, pair_sample_count=1000)
        assert plan.to_dict() == {
            "seed": 42,
            "radius": 0.25,
            "ballSampleCount": 1000,
            "pairSampleCount": 1000,
            "searchBox": None,
            "simplexGridDepth": 8,
            "excludeZeroEta": True,
        }

    @pytest.mark.parametrize(
        "options",
        [
            {"ball_sample_count": 0},
            {"pair_sample_count": -3},
            {"radius": -0.5},
            {"radius": 0.0},
            {"radius": float("nan")},
            {"radius": float("inf")},
        ],
    )
    def test_bad_effort_rejected(self, options):
        with pytest.raises(ValueError):
            SamplingPlan(**options)


class TestQuasiEfficiency:
    def test_example5_certified(self, example5, light_plan):
        v = check_quasi_efficient(
            example5.f, example5.cone, example5.kernel, [0.5, 0.5], [0.0], 0.25,
            plan=light_plan,
        )
        assert v.certified
        assert v.witness is None
        assert v.stats["sampleCount"] >= light_plan.ball_sample_count

    def test_linear_refuted_with_negative_witness(self, linear_problem, light_plan):
        p = linear_problem
        v = check_quasi_efficient(p.f, p.cone, p.kernel, p.e, [0.0], 0.25, plan=light_plan)
        assert v.refuted
        assert v.witness["x"][0] < 0.0

    def test_constant_function_certified(self, light_plan):
        p = make_problem(["1", "2"])
        v = check_quasi_efficient(p.f, p.cone, p.kernel, p.e, [0.0], 0.25, plan=light_plan)
        assert v.certified

    def test_invalid_e_rejected(self, example5, light_plan):
        with pytest.raises(InvalidEError):
            check_quasi_efficient(
                example5.f, example5.cone, example5.kernel, [1.0, 0.0], [0.0], 0.25,
                plan=light_plan,
            )

    def test_ball_outside_domain(self, example5, light_plan):
        with pytest.raises(OutOfDomainError):
            check_quasi_efficient(
                example5.f, example5.cone, example5.kernel, [0.5, 0.5], [1.9], 0.25,
                plan=light_plan,
            )

    def test_witness_replays(self, linear_problem, light_plan):
        p = linear_problem
        v = check_quasi_efficient(p.f, p.cone, p.kernel, p.e, [0.0], 0.25, plan=light_plan)
        x = np.asarray(v.witness["x"])
        again = _quasi_violation_mask(
            p.f, p.cone, p.kernel, np.asarray(p.e), np.zeros(1), False, x[None, :]
        )
        assert bool(again[0])


class TestVVI:
    def test_example5_svvi_certified(self, example5, light_plan):
        v = check_vvi(VVIVariant.SVVI, example5.f, example5.cone, example5.kernel,
                      [0.0], light_plan)
        assert v.certified

    def test_example5_wsvvi_certified(self, example5, light_plan):
        v = check_vvi("wsvvi", example5.f, example5.cone, example5.kernel,
                      [0.0], light_plan)
        assert v.certified

    def test_linear_svvi_refuted(self, linear_problem, light_plan):
        p = linear_problem
        v = check_vvi("svvi", p.f, p.cone, p.kernel, [0.0], light_plan)
        assert v.refuted
        x = v.witness["x"][0]
        assert x < 0.0  # any x < 0 gives x*(1,1) <=_C 0

    def test_minty_variant_uses_jacobian_at_x(self, example5, light_plan):
        v = check_vvi("mvvi", example5.f, example5.cone, example5.kernel,
                      [0.0], light_plan)
        assert v.certified
        v = check_vvi("wmvvi", example5.f, example5.cone, example5.kernel,
                      [0.0], light_plan)
        assert v.certified

    def test_exists_quantifier_toggle(self, example23, light_plan):
        # with the negNorm kernel every vertex product is in -C, so even the
        # exists reading refutes; the linear fixture distinguishes readings
        v = check_vvi("svvi", example23.f, example23.cone, example23.kernel,
                      [0.0], light_plan, quantifier="exists")
        assert v.refuted

    def test_search_box_recorded(self, example5, light_plan):
        v = check_vvi("svvi", example5.f, example5.cone, example5.kernel,
                      [0.0], light_plan)
        assert v.stats["searchBox"] == [[-1.0, 1.0]]

    def test_vvi_witness_replays(self, linear_problem, light_plan):
        p = linear_problem
        v = check_vvi("svvi", p.f, p.cone, p.kernel, [0.0], light_plan)
        x = np.asarray(v.witness["x"])
        eta = p.kernel.eval(x, np.zeros(1))
        poly = p.f.clarke_jacobian(np.zeros(1))
        assert all(p.cone.contains(-(vert @ eta)) for vert in poly.vertices)


class TestInvexClasses:
    def test_example23_invex_with_shipped_kernel(self, example23, light_plan):
        v = check_invex_class(
            InvexClass.INVEX, example23.f, example23.cone, example23.kernel,
            [0.5, 0.5], [0.0], 0.25, light_plan,
        )
        assert v.certified

    def test_example23_approximate_convexity_refuted(self, example23, light_plan):
        diff = Kernel("difference", 1)
        v = check_invex_class(
            "invex", example23.f, example23.cone, diff, [0.5, 0.5], [0.0], 0.25,
            light_plan,
        )
        assert v.refuted
        assert v.witness["x"] == [0.0]
        assert v.witness["y"][0] < 0.0

    def test_example5_pseudo2_certified(self, example5, light_plan):
        v = check_invex_class(
            "pseudo2", example5.f, example5.cone, example5.kernel, [0.5, 0.5],
            [0.0], 0.5, light_plan,
        )
        assert v.certified

    def test_class_name_aliases(self):
        assert InvexClass.parse("Pseudo-II") is InvexClass.PSEUDO_II
        assert InvexClass.parse("quasi_1") is InvexClass.QUASI_I
        with pytest.raises(ValueError):
            InvexClass.parse("convex")

    # the nine names the class table once listed, as (stem, type suffix, class)
    ALIASES = [
        ("invex", "", "invex"),
        ("pseudo", "1", "pseudo1"), ("pseudo", "i", "pseudo1"),
        ("pseudo", "2", "pseudo2"), ("pseudo", "ii", "pseudo2"),
        ("quasi", "1", "quasi1"), ("quasi", "i", "quasi1"),
        ("quasi", "2", "quasi2"), ("quasi", "ii", "quasi2"),
    ]

    @pytest.mark.parametrize("stem, suffix, value", ALIASES)
    def test_every_alias_in_any_case_and_separator(self, stem, suffix, value):
        for sep in ("", "-", "_", " "):
            name = stem + sep + suffix
            for spelled in (name, name.upper(), name.capitalize(), f"  {name} "):
                assert InvexClass.parse(spelled) is InvexClass(value), spelled

    @pytest.mark.parametrize("name, value", [
        ("Pseudo-II", "pseudo2"), ("quasi_i", "quasi1"), ("QUASI 2", "quasi2"),
        ("Quasi-iI", "quasi2"), ("in-vex", "invex"),
    ])
    def test_mixed_spellings(self, name, value):
        assert InvexClass.parse(name) is InvexClass(value)

    @pytest.mark.parametrize("name", ["convex", "quasi", "pseudo3", "pseudoiii", "quasi0", ""])
    def test_unknown_names_raise(self, name):
        with pytest.raises(ValueError, match=f"^unknown invexity class {name!r}$"):
            InvexClass.parse(name)

    def test_witness_replays(self, example23, light_plan):
        diff = Kernel("difference", 1)
        v = check_invex_class(
            "invex", example23.f, example23.cone, diff, [0.5, 0.5], [0.0], 0.25,
            light_plan,
        )
        x = np.asarray(v.witness["x"])
        y = np.asarray(v.witness["y"])
        again = _invex_violation_mask(
            InvexClass.INVEX, example23.f, example23.cone, diff,
            np.array([0.5, 0.5]), x[None, :], y[None, :],
        )
        assert bool(again[0])

    def test_quasi2_premise_fires_and_concludes(self, light_plan):
        # strictly decreasing in both components: A eta = (-1,-2)(x-y) >_C 0
        # for x < y, and then f(x) >_C f(y) + e||eta|| for small e
        p = make_problem(["-1*x1", "-2*x1"], e=(0.05, 0.05))
        v = check_invex_class(
            "quasi2", p.f, p.cone, p.kernel, p.e, [0.0], 0.25, light_plan
        )
        assert v.certified

    def test_quasi2_refutable(self, light_plan):
        # f = (-x, -x) with large e: premise fires for x < y but the
        # conclusion f(x) >_C f(y) + e|x-y| fails
        p = make_problem(["-1*x1", "-1*x1"], e=(1.5, 1.5))
        v = check_invex_class(
            "quasi2", p.f, p.cone, p.kernel, p.e, [0.0], 0.25, light_plan
        )
        assert v.refuted


class TestSharedSampleHierarchy:
    """Implication hierarchy between the classes, evaluated on a shared pair
    stream: a certified stronger class must not be refutable by a pair the
    weaker class's check draws from the same plan."""

    CASES = [
        ("example5", InvexClass.PSEUDO_II, InvexClass.PSEUDO_I),
        ("example5", InvexClass.QUASI_II, InvexClass.QUASI_I),
        ("example23", InvexClass.INVEX, InvexClass.PSEUDO_I),
        ("example23", InvexClass.INVEX, InvexClass.QUASI_I),
    ]

    @pytest.mark.parametrize("fixture,stronger,weaker", CASES)
    def test_stronger_class_never_refutes_weaker_on_same_pairs(
        self, fixture, stronger, weaker, example5, example23, light_plan
    ):
        problem = {"example5": example5, "example23": example23}[fixture]
        strong = check_invex_class(
            stronger, problem.f, problem.cone, problem.kernel, problem.e,
            [0.0], 0.25, light_plan,
        )
        if not strong.certified:
            pytest.skip(f"{stronger.value} not certified on {fixture}")
        weak = check_invex_class(
            weaker, problem.f, problem.cone, problem.kernel, problem.e,
            [0.0], 0.25, light_plan,
        )
        assert not weak.refuted


class TestVertexReduction:
    def test_hull_soundness_random_polytopes(self):
        rng = np.random.default_rng(9)
        cones = {m: OrderingCone.orthant(m) for m in (2, 3, 4)}
        trials = 0
        while trials < 1000:
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            verts = rng.uniform(-1, 1, size=(k, m, n))
            eta = rng.uniform(-1, 1, size=n)
            prods = verts @ eta
            cone = cones[m]
            if not all(cone.contains(-p) for p in prods):
                continue
            trials += 1
            weights = rng.dirichlet(np.ones(k), size=50)
            mixed = weights @ prods
            assert np.all(cone.contains_many(-mixed))

    def test_strict_hull_soundness(self):
        rng = np.random.default_rng(10)
        cone = OrderingCone.orthant(3)
        trials = 0
        while trials < 300:
            k = int(rng.integers(1, 5))
            prods = rng.uniform(-1, 1, size=(k, 3))
            if not all(cone.strictly_contains(-p) for p in prods):
                continue
            trials += 1
            weights = rng.dirichlet(np.ones(k), size=50)
            mixed = weights @ prods
            assert np.all(cone.strictly_contains_many(-mixed))


def _hull_exists_reference(prods, active, test, base, depth):
    """One mixture at a time: the definition the batched refinement must match."""
    out = base.copy()
    for i in np.nonzero(active.sum(axis=0) > 1)[0]:
        if out[i]:
            continue
        act = np.nonzero(active[:, i])[0]
        verts = prods[act, i]
        out[i] = any(test(lam @ verts) for lam in sampling.simplex_weights(len(act), depth))
    return out


class TestHullExistsRefine:
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("cap", [None, 40])
    @pytest.mark.parametrize("seed", range(4))
    def test_batched_matches_scalar_loop(self, monkeypatch, strict, cap, seed):
        if cap is not None:  # small point blocks, several per pattern
            monkeypatch.setattr(certify, "_HULL_MIX_FLOATS", cap)
        rng = np.random.default_rng(seed)
        m = 2 + seed % 2
        cone = OrderingCone.orthant(m)
        n_pts = 300
        prods = rng.uniform(-1.0, 0.4, size=(3, n_pts, m))
        # one, two (in each of the three patterns) or all three pieces active
        patterns = np.array(
            [[1, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=bool
        )
        active = patterns[rng.integers(0, len(patterns), size=n_pts)].T
        base = rng.random(n_pts) < 0.3
        depth = int(rng.integers(2, 9))
        monkeypatch.setattr(certify, "SIMPLEX_GRID_DEPTH", depth)
        many = cone.strictly_contains_many if strict else cone.contains_many
        one = cone.strictly_contains if strict else cone.contains
        got = _hull_exists_refine(prods, active, many, base)
        want = _hull_exists_reference(prods, active, one, base, depth)
        assert np.array_equal(got, want)
        # the grid decides some points each way beyond the base mask
        upgraded = got & ~base
        assert upgraded.any() and (~got).any()

    def test_exists_svvi_wall_time(self, example5):
        start = time.perf_counter()
        check_vvi("svvi", example5.f, example5.cone, example5.kernel, [0.0],
                  SamplingPlan(), quantifier="exists")
        assert time.perf_counter() - start < 0.5


def _probe_pairs_reference(x0, probes):
    """One pair at a time: the loop the array form of _probe_pairs must match."""
    pts = [np.asarray(x0, dtype=float)]
    for p in probes[:12]:
        if not any(np.max(np.abs(p - q)) <= 1e-15 for q in pts):
            pts.append(p)
    xs, ys = [], []
    for a in pts:
        for b in pts:
            if np.max(np.abs(a - b)) <= 1e-15:
                continue
            xs.append(a)
            ys.append(b)
    if not xs:
        return np.empty((0, len(x0))), np.empty((0, len(x0)))
    return np.array(xs), np.array(ys)


class TestProbePairs:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_pair_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 3
        x0 = np.round(rng.uniform(-1.0, 1.0, size=n), 2)
        count = int(rng.integers(0, 17))  # 0: no probes; > 12: a cut tail
        probes = np.round(rng.uniform(-1.0, 1.0, size=(count, n)), 3)
        if count >= 4:
            # a row within 1e-15 of the center, one exactly 1e-15 off an
            # earlier probe and one just beyond that
            probes[1] = x0 + 5e-16
            probes[0] = 0.0
            probes[2] = probes[3] = 0.0
            probes[2, 0] = 1e-15
            probes[3, -1] = 3e-15
        got = certify._probe_pairs(x0, probes)
        want = _probe_pairs_reference(x0, probes)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_no_probes_no_pairs(self):
        for probes in (np.empty((0, 2)), np.zeros((3, 2))):
            xs, ys = certify._probe_pairs(np.zeros(2), probes)
            assert xs.shape == ys.shape == (0, 2)


def _invex_violation_mask_reference(cls, f, cone, kernel, e, xs, ys):
    """A branch per class, each placing the penalty e||eta|| itself: the
    ladder that the shared type I/II placement of _invex_violation_mask must
    match bit for bit."""
    eta = kernel.eval_many(xs, ys)
    eta_norm = np.linalg.norm(eta, axis=1)
    fdiff = f.values(xs) - f.values(ys)
    penalty = eta_norm[:, None] * e[None, :]
    prods, active = certify._vertex_products_at(f, ys, eta)
    forall = certify._forall_active
    if cls is InvexClass.INVEX:
        viol = ~forall(cone.contains_many(fdiff - prods + penalty), active)
    elif cls is InvexClass.PSEUDO_I:
        premise = cone.strictly_contains_many(-penalty - fdiff)
        viol = premise & ~forall(cone.strictly_contains_many(-prods), active)
    elif cls is InvexClass.PSEUDO_II:
        premise = cone.strictly_contains_many(-fdiff)
        viol = premise & ~forall(cone.strictly_contains_many(-prods - penalty), active)
    else:
        if cls is InvexClass.QUASI_I:
            premise_vals, conclusion_vals = prods - penalty, fdiff
        else:
            premise_vals, conclusion_vals = prods, fdiff - penalty
        premise = certify._exists_active(cone.strictly_contains_many(premise_vals), active)
        premise = _hull_exists_refine(premise_vals, active, cone.strictly_contains_many, premise)
        viol = premise & ~cone.strictly_contains_many(conclusion_vals)
    return viol & (eta_norm > certify.ZERO_ETA_TOL)


class TestInvexLadder:
    @pytest.mark.parametrize("kernel_kind", ["difference", "negNormDifference"])
    @pytest.mark.parametrize("negate", [False, True], ids=["f", "neg_f"])
    def test_matches_the_branch_per_class_reference(self, example5, example23, negate, kernel_kind):
        r = 0.25
        instances = [(p, p.point("x0")) for p in (example5, example23)]
        split = {"pseudo": False, "quasi": False}
        for problem, x0 in instances + audit.generated_instances(30, 0):
            f = problem.f.negated() if negate else problem.f
            kernel = Kernel(kernel_kind, f.n)
            px, py = certify._probe_pairs(x0, boundary_probes(f, x0, r))
            sx, sy = sampling.ball_pairs(x0, r, 1000, 42)
            xs, ys = np.vstack([px, sx]), np.vstack([py, sy])
            masks = {}
            for cls in InvexClass:
                args = (cls, f, problem.cone, kernel, problem.e, xs, ys)
                masks[cls.value] = _invex_violation_mask(*args)
                want = _invex_violation_mask_reference(*args)
                assert np.array_equal(masks[cls.value], want), (problem.name, cls.value)
            for kind in split:
                split[kind] |= not np.array_equal(masks[f"{kind}1"], masks[f"{kind}2"])
        # types I and II part somewhere, so a swapped penalty placement shows
        assert all(split.values()), split


def _outcome(call):
    """Canonical-JSON payloads of the verdicts that call() returns, or the
    type and message of the error it raises."""
    try:
        verdicts = call()
    except (VviCertError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return tuple(json.dumps(v.to_payload(), sort_keys=True) for v in verdicts)


class TestClassesOnOnePairSample:
    """check_invex_classes decides every class it is given on one pair
    sample; each verdict, or the error raised, is that of deciding the class
    alone."""

    SUBSETS = [
        tuple(InvexClass),
        tuple(reversed(InvexClass)),
        (InvexClass.INVEX, InvexClass.PSEUDO_I, InvexClass.PSEUDO_II),
        (InvexClass.INVEX, InvexClass.PSEUDO_I),
        (InvexClass.QUASI_II,),
        ("pseudo2", "quasi1", "invex"),
        (InvexClass.PSEUDO_I, InvexClass.PSEUDO_I, InvexClass.QUASI_I),
    ]

    @staticmethod
    def _same_as_alone(classes, f, problem, x0, plan, extra):
        args = (f, problem.cone, problem.kernel, problem.e, x0, 0.25, plan, extra)
        together = _outcome(lambda: check_invex_classes(classes, *args))
        alone = _outcome(lambda: tuple(check_invex_class(c, *args) for c in classes))
        assert together == alone, (problem.name, classes)
        return together

    def test_every_subset_matches_each_class_alone(self, example5, example23):
        plan = SamplingPlan(ball_sample_count=200, pair_sample_count=200)
        instances = [(example5, example5.point("xi")), (example23, example23.point("x0"))]
        statuses = set()
        for problem, x0 in instances + audit.generated_instances(12, 7):
            ball = sampling.ball_points(x0, 0.25, 40, 3)
            for f in (problem.f, problem.f.negated()):
                for extra in (None, (ball, np.tile(x0, (len(ball), 1)))):
                    for classes in self.SUBSETS:
                        out = self._same_as_alone(classes, f, problem, x0, plan, extra)
                        statuses.update(json.loads(p)["status"] for p in out)
        assert statuses == {"Refuted", "CertifiedUpToSampling"}

    def test_errors_before_the_table_belong_to_every_class(self, example5):
        plan = SamplingPlan(ball_sample_count=200, pair_sample_count=200)
        for e, x0, r in (([0.0, 1.0], [0.0], 0.25), ([0.5, 0.5], [1.9], 0.25)):
            for classes in self.SUBSETS:
                args = (example5.f, example5.cone, example5.kernel, e, x0, r, plan)
                together = _outcome(lambda: check_invex_classes(classes, *args))
                alone = _outcome(lambda: tuple(check_invex_class(c, *args) for c in classes))
                assert together == alone
                assert together[0] == "error"

    def test_a_refutation_error_stays_with_its_class(self, light_plan):
        # f(x) = (-x^2, -x^2): the extra pair (2.5, 0) lies outside the
        # domain box, where the pieces still evaluate; invex and both pseudo
        # classes refute at it first, and replaying their witness raises,
        # while the quasi classes hold at it and refute at a sampled pair
        problem = make_problem(["-x1^2", "-x1^2"])
        extra = (np.array([[2.5]]), np.array([[0.0]]))
        quasi = (InvexClass.QUASI_I, InvexClass.QUASI_II)
        out = self._same_as_alone(quasi, problem.f, problem, [0.0], light_plan, extra)
        assert [2.5] not in [json.loads(p)["witness"]["x"] for p in out]
        for cls in (InvexClass.INVEX, InvexClass.PSEUDO_I, InvexClass.PSEUDO_II):
            out = self._same_as_alone(quasi + (cls,), problem.f, problem, [0.0], light_plan, extra)
            assert out[:2] == ("error", "OutOfDomainError")


class TestVvisOnOneSearch:
    """check_vvis decides every variant it is given on one search sample;
    each verdict, or the error raised, is that of deciding the variant
    alone."""

    SUBSETS = [
        tuple(VVIVariant),
        tuple(reversed(VVIVariant)),
        (VVIVariant.SVVI, VVIVariant.WSVVI),
        (VVIVariant.WMVVI, VVIVariant.MVVI),
        ("wsvvi",),
        ("mvvi", "SVVI", "mvvi"),
    ]

    @staticmethod
    def _same_as_alone(variants, problem, xi, plan, quantifier, extra):
        args = (problem.f, problem.cone, problem.kernel, xi, plan, quantifier, extra)
        together = _outcome(lambda: check_vvis(variants, *args))
        alone = _outcome(lambda: tuple(check_vvi(v, *args) for v in variants))
        assert together == alone, (problem.name, variants, quantifier)
        return together

    def test_every_subset_matches_each_variant_alone(self, example5, example23):
        plan = SamplingPlan(ball_sample_count=200, pair_sample_count=200)
        instances = [(example5, example5.point("xi")), (example23, example23.point("x0"))]
        statuses = set()
        for problem, xi in instances + audit.generated_instances(12, 7):
            ball = sampling.ball_points(xi, 0.25, 40, 3)
            for quantifier in ("forall", "exists"):
                for extra in (None, ball):
                    for variants in self.SUBSETS:
                        out = self._same_as_alone(variants, problem, xi, plan, quantifier, extra)
                        statuses.update(json.loads(p)["status"] for p in out)
        assert statuses == {"Refuted", "CertifiedUpToSampling"}

    def test_errors_before_the_products_belong_to_every_variant(self, example5):
        plan = SamplingPlan(ball_sample_count=200, pair_sample_count=200)
        for xi, quantifier in (([2.5], "forall"), ([0.0], "some")):
            for variants in self.SUBSETS:
                out = self._same_as_alone(variants, example5, xi, plan, quantifier, None)
                assert out[0] == "error"


class TestDeterminism:
    def test_identical_plan_identical_payload(self, example5):
        plan = SamplingPlan(seed=7, ball_sample_count=800, pair_sample_count=800)
        payloads = []
        for _ in range(2):
            v = check_quasi_efficient(
                example5.f, example5.cone, example5.kernel, [0.5, 0.5], [0.0], 0.25,
                plan=plan,
            )
            payloads.append(json.dumps(v.to_payload(), sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_seed_changes_uniform_stream_not_verdict(self, example5):
        for seed in (1, 2, 3):
            plan = SamplingPlan(seed=seed, ball_sample_count=500, pair_sample_count=500)
            v = check_vvi("svvi", example5.f, example5.cone, example5.kernel,
                          [0.0], plan)
            assert v.certified
