import dataclasses
import traceback

import numpy as np
import pytest

from vvicert import audit, certify, exprlang as el, model, sampling
from vvicert.cone import OrderingCone
from vvicert.errors import (
    DivisionByZeroError,
    InconsistentPiecesError,
    NoActivePieceError,
    OutOfDomainError,
)
from vvicert.model import (
    Kernel,
    PiecewiseVectorFn,
    _chord_roots,
    boundary_probes,
    lipschitz_estimate,
)
from vvicert.problem import Problem


class TestEval:
    def test_example5_values(self, example5):
        f = example5.f
        assert np.allclose(f.value([1.0]), [3.0, -1.0])
        assert np.allclose(f.value([0.0]), [0.0, 0.0])

    def test_example23_negative_branch(self, example23):
        assert np.allclose(example23.f.value([-1.0]), [-1.0, -2.0])

    def test_out_of_domain(self, example5):
        with pytest.raises(OutOfDomainError):
            example5.f.value([5.0])

    def test_no_active_piece(self):
        f = PiecewiseVectorFn.from_dict(
            {
                "n": 1,
                "m": 1,
                "domain": [[-1.0, 1.0]],
                "pieces": [{"region": "x1 >= 0.5", "components": ["x1"]}],
            }
        )
        with pytest.raises(NoActivePieceError):
            f.value([0.0])

    def test_inconsistent_pieces(self):
        f = PiecewiseVectorFn.from_dict(
            {
                "n": 1,
                "m": 1,
                "domain": [[-1.0, 1.0]],
                "pieces": [
                    {"region": "x1 <= 0.5", "components": ["x1"]},
                    {"region": "x1 >= -0.5", "components": ["x1 + 1"]},
                ],
            }
        )
        with pytest.raises(InconsistentPiecesError):
            f.value([0.0])
        assert f.validate()  # load-time validation reports the same defect

    def test_validate_finds_jump_at_boundary_root(self):
        # the pieces overlap only on x1 = 0.3, which no sampled point hits, so
        # only the root found on the axis chord reveals the jump
        f = PiecewiseVectorFn.from_dict(
            {
                "n": 1,
                "m": 2,
                "domain": [[-1.0, 1.0]],
                "pieces": [
                    {"region": "x1 <= 0.3", "components": ["x1", "x1^3"]},
                    {"region": "x1 >= 0.3", "components": ["2*x1", "x1^3 + 1"]},
                ],
            }
        )
        assert f.validate() == [
            "continuity: pieces disagree by 1.000e+00 at boundary point [0.3]"
        ]

    def test_no_covered_row(self):
        # no region meets the domain: values of no row is an empty array, so
        # validation reports the coverage gap instead of failing on it
        f = PiecewiseVectorFn.from_dict(
            {
                "n": 1,
                "m": 1,
                "domain": [[-1.0, 1.0]],
                "pieces": [
                    {"region": "x1 >= 5", "components": ["x1"]},
                    {"region": "x1 <= -5", "components": ["0"]},
                ],
            }
        )
        assert f.values(np.empty((0, 1))).shape == (0, 1)
        assert f.validate() == [
            "coverage: 512/512 sampled points activate no region (first: [0.0])"
        ]

    def test_gap_between_regions_is_a_coverage_warning(self):
        # 0.0 lies in no region, exactly as values() tests it: a warning,
        # not the NoActivePieceError that values() raises there
        f = PiecewiseVectorFn.from_dict({
            "n": 1, "m": 2, "domain": [[-1.0, 1.0]],
            "pieces": [{"region": "x1 < 0", "components": ["x1", "-x1"]},
                       {"region": "x1 > 0", "components": ["x1", "-x1"]}],
        })
        assert f.validate() == [
            "coverage: 1/512 sampled points activate no region (first: [0.0])"
        ]
        with pytest.raises(NoActivePieceError):
            f.values([[0.0]])


# the first component overflows to inf on both sides of x1 = 0
_HUGE = "10^300*10^300*(1 + x2^2)"
_ROOT_CASES = {
    "overflow": [("x1 <= 0", [f"x1 + {_HUGE}", "x2 + 1"]), ("x1 >= 0", [f"x1 + {_HUGE}", "x2"])],
    "no finite difference": [("x1 <= 0", [_HUGE, "x2"]), ("x1 >= 0", [_HUGE, "x2"])],
    "plain jump": [("x1 <= 0.3", ["x1", "x2"]), ("x1 >= 0.3", ["x1 + 1", "x2"])],
    "continuous kink": [("x1 <= 0", ["-x1", "x2"]), ("x1 >= 0", ["x1", "x2^2"])],
}


class TestValidateByTheValueRules:
    """validate() reports a gap at a boundary root exactly when values()
    raises there."""

    @pytest.mark.parametrize("case", sorted(_ROOT_CASES))
    def test_root_gap_iff_values_raise(self, case):
        f = PiecewiseVectorFn.from_dict({
            "n": 2, "m": 2, "domain": [[-1.0, 1.3], [-1.0, 1.0]],
            "pieces": [{"region": r, "components": c} for r, c in _ROOT_CASES[case]],
        })
        box = f.inner_box()
        _, _, roots, first = _chord_roots(f, box.mean(axis=1), np.min(box[:, 1] - box[:, 0]) / 2)
        with np.errstate(invalid="ignore"):
            messages = f.validate()
            raised = []
            for root in roots[first]:
                try:
                    f.values(root[None])
                except InconsistentPiecesError:
                    raised.append(root.tolist())
        reported = [root.tolist() for root in roots[first]
                    if any(m.endswith(f"at boundary point {root.tolist()}") for m in messages)]
        assert reported == raised
        assert bool(raised) == (case in ("overflow", "plain jump")), messages
        if case == "overflow":
            assert messages == [
                "continuity: pieces disagree by 1.000e+00 at boundary point [0.0, 0.0]"
            ]


class TestClarkeJacobian:
    def test_example5_kink(self, example5):
        poly = example5.f.clarke_jacobian([0.0])
        got = sorted(v.ravel().tolist() for v in poly.vertices)
        assert np.allclose(got, sorted([[5.0, -2.0], [6.0, -3.0]]), atol=1e-9)

    def test_example5_smooth_point(self, example5):
        poly = example5.f.clarke_jacobian([1.0])
        assert len(poly) == 1
        assert np.allclose(poly.vertices[0].ravel(), [0.0, 0.0], atol=1e-12)

    def test_example23_kink(self, example23):
        poly = example23.f.clarke_jacobian([0.0])
        got = sorted(v.ravel().tolist() for v in poly.vertices)
        assert np.allclose(got, sorted([[1.0, 4.0], [1.0, 2.0]]), atol=1e-9)

    def test_duplicate_vertices_merged(self):
        f = PiecewiseVectorFn.from_dict(
            {
                "n": 1,
                "m": 1,
                "domain": [[-1.0, 1.0]],
                "pieces": [
                    {"region": "x1 <= 0.5", "components": ["2*x1"]},
                    {"region": "x1 >= -0.5", "components": ["2*x1"]},
                ],
            }
        )
        assert len(f.clarke_jacobian([0.0])) == 1

    def test_outer_box_examples(self, example5, example23):
        box = example23.f.cartesian_outer_box([0.0])
        assert np.allclose(box[0], [[1.0, 1.0]])  # first component: {1}
        assert np.allclose(box[1], [[2.0, 4.0]])  # second component: [2, 4]
        box5 = example5.f.cartesian_outer_box([0.0])
        assert np.allclose(box5[0], [[5.0, 6.0]])
        assert np.allclose(box5[1], [[-3.0, -2.0]])

    def test_outer_box_degenerate_single_piece(self, example5):
        box = example5.f.cartesian_outer_box([1.0])
        assert np.allclose(box[..., 0], box[..., 1])


class TestJacobianProperties:
    def _fd_jacobian(self, f, x, h=1e-6):
        out = np.empty((f.m, f.n))
        for j in range(f.n):
            step = np.zeros(f.n)
            step[j] = h
            out[:, j] = (f.values((x + step)[None])[0] - f.values((x - step)[None])[0]) / (
                2 * h
            )
        return out

    def test_jacobian_matches_fd_at_single_region_points(self, example5, example23):
        rng = np.random.default_rng(5)
        count = 0
        for problem in (example5, example23):
            f = problem.f
            while count < 500:
                x = rng.uniform(-1.5, 1.5, size=1)
                if abs(x[0]) < 1e-3:  # keep away from the kink
                    continue
                poly = f.clarke_jacobian(x)
                if len(poly) != 1:
                    continue
                fd = self._fd_jacobian(f, x)
                sym = poly.vertices[0]
                assert np.all(
                    np.abs(sym - fd) <= 1e-6 * np.maximum(1.0, np.abs(sym))
                )
                count += 1
            count = 0

    def test_vertices_inside_outer_box(self, example5):
        f = example5.f
        for x in ([0.0], [0.3], [-0.7], [1e-8]):
            poly = f.clarke_jacobian(x)
            box = f.cartesian_outer_box(x)
            for v in poly.vertices:
                assert np.all(v >= box[..., 0] - 1e-9)
                assert np.all(v <= box[..., 1] + 1e-9)

    def test_hull_rows_stay_in_outer_box(self, example5):
        rng = np.random.default_rng(6)
        f = example5.f
        poly = f.clarke_jacobian([0.0])
        box = f.cartesian_outer_box([0.0])
        arr = poly.as_array()
        for _ in range(200):
            w = rng.dirichlet(np.ones(len(poly)))
            mixed = np.tensordot(w, arr, axes=1)
            assert np.all(mixed >= box[..., 0] - 1e-9)
            assert np.all(mixed <= box[..., 1] + 1e-9)

    def test_continuity_audit_boundary_straddling(self, example5):
        f = example5.f
        est = lipschitz_estimate(f, [0.0], 0.5, samples=2000, seed=0)
        rng = np.random.default_rng(7)
        xs = rng.uniform(1e-6, 0.45, size=(1000, 1))
        ys = -rng.uniform(1e-6, 0.45, size=(1000, 1))
        fx = f.values(xs)
        fy = f.values(ys)
        lhs = np.max(np.abs(fx - fy), axis=1)
        rhs = 1.1 * est.constant * np.linalg.norm(xs - ys, axis=1)
        assert np.all(lhs <= rhs)


class TestKernel:
    def test_difference_eval(self):
        k = Kernel("difference", 1)
        assert np.allclose(k.eval([3.0], [1.0]), [2.0])

    def test_negnorm_eval(self):
        k = Kernel("negNormDifference", 1)
        assert np.allclose(k.eval([3.0], [1.0]), [-2.0])

    def test_negnorm_higher_dim(self):
        k = Kernel("negNormDifference", 2)
        v = k.eval([3.0, 4.0], [0.0, 0.0])
        assert np.allclose(v, [-5.0, -5.0])

    def test_difference_flags(self):
        flags = Kernel("difference", 2).flags(np.array([[-1, 1], [-1, 1]]))
        assert flags.skew and flags.first_arg_affine and flags.vanishes_on_diagonal

    def test_negnorm_flags(self):
        flags = Kernel("negNormDifference", 1).flags(np.array([[-1.0, 1.0]]))
        assert not flags.skew
        assert flags.vanishes_on_diagonal
        assert not flags.first_arg_affine

    def test_custom_kernel(self):
        k = Kernel("custom", 1, ["2*(x1 - y1)"])
        assert np.allclose(k.eval([2.0], [0.5]), [3.0])
        flags = k.flags(np.array([[-1.0, 1.0]]))
        assert flags.skew and flags.first_arg_affine and flags.vanishes_on_diagonal


class TestLipschitz:
    def test_constant_function(self):
        f = PiecewiseVectorFn.from_dict(
            {
                "n": 1,
                "m": 1,
                "domain": [[-1.0, 1.0]],
                "pieces": [{"region": "0 <= 1", "components": ["3"]}],
            }
        )
        assert lipschitz_estimate(f, [0.0], 0.5).constant == pytest.approx(0.0)

    def test_linear_function(self):
        f = PiecewiseVectorFn.from_dict(
            {
                "n": 1,
                "m": 1,
                "domain": [[-1.0, 1.0]],
                "pieces": [{"region": "0 <= 1", "components": ["2*x1"]}],
            }
        )
        k = lipschitz_estimate(f, [0.0], 0.5).constant
        assert k == pytest.approx(2.0, abs=1e-9)

    def test_example5_ball(self, example5):
        k = lipschitz_estimate(example5.f, [0.0], 0.5, samples=4000, seed=1).constant
        assert 5.0 <= k <= 7.0

    def test_monotone_in_sample_count(self, example5):
        k1 = lipschitz_estimate(example5.f, [0.0], 0.5, samples=500, seed=3).constant
        k2 = lipschitz_estimate(example5.f, [0.0], 0.5, samples=2000, seed=3).constant
        assert k2 >= k1

    def test_ball_must_fit_domain(self, example5):
        with pytest.raises(OutOfDomainError):
            lipschitz_estimate(example5.f, [1.9], 0.5)


class TestBoundaryProbes:
    def test_example5_probe_set(self, example5):
        probes = boundary_probes(example5.f, np.array([0.0]), 0.25)
        flat = probes.ravel().tolist()
        assert 0.0 in flat
        assert any(-1e-7 < p < 0 for p in flat)

    def test_probe_points_carry_both_vertices(self, example5):
        probes = boundary_probes(example5.f, np.array([0.0]), 0.25)
        inside = [p for p in probes if 0 < abs(p[0]) < 1e-7]
        assert inside
        assert len(example5.f.clarke_jacobian(inside[0])) == 2

    def test_no_boundary_no_probes(self, linear_problem):
        probes = boundary_probes(linear_problem.f, np.array([0.0]), 0.25)
        assert probes.shape[0] == 0

    def test_chord_roots_match_full_bisection(self, example5, example23):
        # reference: every sign change bisected the full 80 steps
        def roots_80(f, start, radius):
            box = f.inner_box()
            gs = list(dict.fromkeys(
                g for p in f.pieces for g in el.boundary_expressions(p.region)
            ))
            out = []
            for axis in range(f.n):
                for sign in (1.0, -1.0):
                    d = np.zeros(f.n)
                    d[axis] = sign
                    edge = box[axis, 1] - start[axis] if sign > 0 else start[axis] - box[axis, 0]
                    tmax = min(radius, edge)
                    if tmax <= 0:
                        continue
                    ts = np.linspace(0.0, tmax, 33)
                    for g in gs:
                        vals = el.evaluate_many(g, start[None, :] + ts[:, None] * d[None, :])
                        for a in range(32):
                            if vals[a] == 0.0:
                                out.append(start + ts[a] * d)
                            elif vals[a] * vals[a + 1] < 0.0:
                                lo, hi, flo = ts[a], ts[a + 1], vals[a]
                                for _ in range(80):
                                    mid = 0.5 * (lo + hi)
                                    fm = el.evaluate(g, start + mid * d)
                                    if fm == 0.0:
                                        lo = hi = mid
                                        break
                                    if flo * fm < 0.0:
                                        hi = mid
                                    else:
                                        lo, flo = mid, fm
                                out.append(start + 0.5 * (lo + hi) * d)
                        if vals[-1] == 0.0:
                            out.append(start + ts[-1] * d)
            return out

        problems = [(example5.f, [0.0]), (example23.f, [0.0])]
        for i in range(12):
            spec = audit.RandomInstanceSpec(seed=i, n=1 + i % 3, m=2, piece_count=2 + i % 2,
                                            degree=1 + i % 3)
            inst = audit.generate_instance(spec)
            problems.append((inst.f, inst.point("x0")))
        found = 0
        for f, start in problems:
            start = np.asarray(start, dtype=float)
            for radius in (0.25, 1.0):
                got = list(_chord_roots(f, start, radius)[2])
                want = roots_80(f, start, radius)
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
                found += len(got)
        assert found > 20

    def test_no_scalar_evaluation(self, example5, example23, monkeypatch):
        # probes and the continuity check at boundary roots run as array passes
        calls = []
        evaluate = el.evaluate

        def counting(e, point, y=None):
            calls.append(e)
            return evaluate(e, point, y)

        problems = [(example5.f, [0.0]), (example23.f, [0.0])]
        for i in range(12):
            spec = audit.RandomInstanceSpec(seed=i, n=1 + i % 3, m=2, piece_count=2 + i % 2,
                                            degree=1 + i % 3)
            inst = audit.generate_instance(spec)
            problems.append((inst.f, inst.point("x0")))
        monkeypatch.setattr(el, "evaluate", counting)
        for f, start in problems:
            fresh = PiecewiseVectorFn(f.n, f.m, f.domain, f.pieces)
            assert fresh.validate() == []
            for r in (0.1, 0.25, 1.0):
                assert len(boundary_probes(fresh, start, r)) > 0
        assert calls == []

    def test_expression_dedupe_keeps_probes_and_validate(self, example5, example23, monkeypatch):
        class KeepRepeats:
            # stands in for dict in model's namespace: fromkeys keeps repeats
            fromkeys = staticmethod(list)

        problems = [(example5.f, [0.0]), (example23.f, [0.0])]
        for i in range(12):
            spec = audit.RandomInstanceSpec(seed=i, n=1 + i % 3, m=2, piece_count=2 + i % 2,
                                            degree=1 + i % 3)
            inst = audit.generate_instance(spec)
            problems.append((inst.f, inst.point("x0")))

        def outputs(f, start):
            out = []
            for g in (f, f.negated()):
                fresh = PiecewiseVectorFn(g.n, g.m, g.domain, g.pieces)
                out.append(fresh.validate())
                out += [boundary_probes(fresh, start, r).tobytes() for r in (0.1, 0.25, 1.0)]
            return out

        def root_count(f, start):
            # a fresh f, as f keeps its expression list from the first count
            fresh = PiecewiseVectorFn(f.n, f.m, f.domain, f.pieces)
            return len(_chord_roots(fresh, np.asarray(start, dtype=float), 1.0)[2])

        deduped = [(outputs(f, s), root_count(f, s)) for f, s in problems]
        monkeypatch.setattr(model, "dict", KeepRepeats, raising=False)
        repeated = [(outputs(f, s), root_count(f, s)) for f, s in problems]
        assert [o for o, _ in deduped] == [o for o, _ in repeated]
        # the dedupe skipped repeated scans on these problems
        assert sum(c for _, c in repeated) > sum(c for _, c in deduped)


class TestNegated:
    @staticmethod
    def _text_round_trip(f):
        # reference: print -(t) for every component and parse the file again
        spec = f.to_dict()
        for p in spec["pieces"]:
            p["components"] = [f"-({t})" for t in p["components"]]
        return PiecewiseVectorFn.from_dict(spec)

    def test_pieces_equal_the_text_round_trip(self, example5, example23):
        fs = [example5.f, example23.f]
        for i in range(100):
            spec = audit.RandomInstanceSpec(
                seed=i, n=1 + i % 3, m=2 + i % 2, piece_count=1 + i % 3, degree=1 + i % 3,
                kernel_kind=["difference", "negNormDifference"][i % 2],
            )
            fs.append(audit.generate_instance(spec).f)
        for f in fs:
            neg, want = f.negated(), self._text_round_trip(f)
            # dataclass equality covers regions, trees, texts and gradients
            assert neg.pieces == want.pieces
            assert neg.to_dict() == want.to_dict()
            assert np.array_equal(neg.domain, want.domain)

    def test_shares_the_probe_cache(self, example5, example23):
        problems = [(example5.f, [0.0]), (example23.f, [0.0])]
        for i in range(6):
            spec = audit.RandomInstanceSpec(seed=i, n=1 + i % 3, m=2, piece_count=2 + i % 2,
                                            degree=1 + i % 3)
            inst = audit.generate_instance(spec)
            problems.append((inst.f, inst.point("x0")))
        for f, start in problems:
            f = PiecewiseVectorFn(f.n, f.m, f.domain, f.pieces)
            boundary_probes(f, start, 0.25)  # f fills the cache first
            neg = f.negated()
            assert neg._shared is f._shared
            boundary_probes(neg, start, 0.5)  # -f fills it first
            for g in (f, neg):
                uncached = PiecewiseVectorFn(g.n, g.m, g.domain, g.pieces)
                for r in (0.25, 0.5):
                    got = boundary_probes(g, start, r)
                    assert got.tobytes() == boundary_probes(uncached, start, r).tobytes()


class TestMemoized:
    """Every memo of f, -f, a kernel and a problem goes through
    model._memoized: a VviCertError that a build raises is kept and raised
    again, and -f shares f's store of fixed geometry but not f's own memo."""

    def test_build_error_kept_and_raised_again(self, monkeypatch):
        # the -x1 chord from 0.5 has the scan point 0.5 - 16/32 = 0.0
        f = PiecewiseVectorFn.from_dict({
            "n": 1, "m": 1, "domain": [[-1.0, 1.0]],
            "pieces": [{"region": "1/x1 >= 0", "components": ["x1"]}],
        })
        scans = []
        real = model._chord_roots

        def counted(*args):
            scans.append(args)
            return real(*args)

        monkeypatch.setattr(model, "_chord_roots", counted)
        raised = []
        for g in (f, f, f.negated()):  # -f reads the memo f shares with it
            with pytest.raises(DivisionByZeroError) as info:
                boundary_probes(g, [0.5], 1.0)
            raised.append(info.value)
            # kept without the frames of the build or of an earlier raise
            frames = [fr.name for fr in traceback.extract_tb(info.value.__traceback__)]
            assert "_chord_roots" not in frames and frames.count("_memoized") == 1
        assert len(scans) == 1
        assert raised[0] is raised[1] is raised[2]

    def test_negated_shares_the_geometry_store_only(self, example5, example23):
        problems = [(example5.f, example5.point("xi")), (example23.f, example23.point("x0"))]
        for i in range(6):
            spec = audit.RandomInstanceSpec(seed=i, n=1 + i % 3, m=2, piece_count=2 + i % 2,
                                            degree=1 + i % 3)
            inst = audit.generate_instance(spec)
            problems.append((inst.f, inst.point("x0")))
        for f, at in problems:
            neg = f.negated()
            assert neg._shared is f._shared
            assert neg._memo is not f._memo and neg is not neg.negated()
            # the kinks near at carry several pieces' vertices
            for x in (at, *boundary_probes(f, at, 0.25)):
                mine, theirs = f.clarke_jacobian(x), neg.clarke_jacobian(x)
                assert theirs.active_pieces == mine.active_pieces
                assert len(theirs) == len(mine)
                for v, w in zip(theirs.vertices, mine.vertices):
                    assert np.array_equal(v, -w)  # a zero entry may flip its sign


class TestReadOnly:
    """Every memo keyed by a model object (the audit's verdicts, f's probe,
    draw and polytope caches, the cone's cached choices) relies on that
    object never changing once built, so each array it holds is read-only."""

    @staticmethod
    def _arrays(problem, at):
        cone, f = problem.cone, problem.f
        poly = f.clarke_jacobian(problem.point(at))
        ball = model.ball_draw(f, sampling.ball_points, problem.point(at), 0.25, 10, 0)
        pairs = model.ball_draw(f, sampling.ball_pairs, problem.point(at), 0.25, 10, 0)
        probe_pairs = model.probe_pairs(f, certify._probe_pairs, problem.point(at), 0.25)
        return {
            "cone.normals": cone.normals,
            "cone.generators": cone.generators,
            "cone.interior_witness": cone.interior_witness,
            "f.domain": f.domain,
            "-f.domain": f.negated().domain,
            "problem.e": problem.e,
            "problem.points": problem.points[at],
            "polytope.point": poly.point,
            "polytope.vertices": poly.vertices[0],
            "ball draw": ball,
            "pair draw": pairs[1],
            "f.inner_box": f.inner_box(),
            "-f.inner_box": f.negated().inner_box(),
            "boundary probes": boundary_probes(f, problem.point(at), 0.25),
            "probe pairs x": probe_pairs[0],
            "probe pairs y": probe_pairs[1],
        }

    @pytest.mark.parametrize("at", ["xi", "x0"])
    def test_every_array_rejects_writes(self, example5, example23, at):
        problem = {"xi": example5, "x0": example23}[at]
        wedge = Problem.from_dict({**problem.to_dict(), "cone": {"normals": [[1, 0], [1, 1]]}})
        for p in (problem, wedge):
            for name, a in self._arrays(p, at).items():
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0.0
                with pytest.raises(ValueError, match="read-only"):
                    a += 1.0
                assert not a.flags.writeable, name
        assert isinstance(problem.f.pieces, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.f.clarke_jacobian(problem.point(at)).vertices = ()

    def test_callers_arrays_stay_theirs(self, example5):
        # the objects copy what they are given, so the caller's arrays stay
        # writable and a later write to them does not reach the object
        e, xi, domain = np.array([0.3, 0.7]), np.array([0.0]), np.array([[-1.0, 1.0]])
        normals = np.array([[1.0, 0.0], [0.0, 1.0]])
        problem = Problem(example5.f, OrderingCone(normals), example5.kernel, e, {"xi": xi})
        f = PiecewiseVectorFn(1, 2, domain, example5.f.pieces)
        for a in (e, xi, domain, normals):
            a[...] = 9.0
        assert problem.e.tolist() == [0.3, 0.7] and problem.points["xi"].tolist() == [0.0]
        assert f.domain.tolist() == [[-1.0, 1.0]]
        assert problem.cone.normals.tolist() == [[1.0, 0.0], [0.0, 1.0]]
