import time

import numpy as np
import pytest

from vvicert import _alt
from vvicert.certify import (
    SamplingPlan,
    check_vector_critical,
    gordan_alternative,
)
from vvicert.cone import OrderingCone
from vvicert.errors import DegenerateError


@pytest.fixture(scope="module")
def orthant2():
    return OrderingCone.orthant(2)


class TestGordanExamples:
    def test_opposite_signs_forces_alternative_two(self, orthant2):
        cert = gordan_alternative(np.array([[1.0], [-1.0]]), orthant2)
        assert cert.alternative == 2
        assert np.allclose(cert.y, [0.5, 0.5])

    def test_identity_alternative_one(self, orthant2):
        cert = gordan_alternative(np.eye(2), orthant2)
        assert cert.alternative == 1
        assert np.all(np.asarray(cert.x) < 0)

    def test_fixture_vertex_dual_certificate(self, orthant2):
        cert = gordan_alternative(np.array([[5.0], [-2.0]]), orthant2)
        assert cert.alternative == 2
        assert np.allclose(cert.y, [2.0 / 7.0, 5.0 / 7.0], atol=1e-9)

    def test_certificates_reverify(self, orthant2):
        rng = np.random.default_rng(1)
        for _ in range(50):
            A = rng.uniform(-1, 1, size=(2, 3))
            cert = gordan_alternative(A, orthant2)
            if cert.alternative == 1:
                assert orthant2.strictly_contains(-(A @ cert.x))
            else:
                assert orthant2.contains(cert.y)
                assert np.max(np.abs(A.T @ cert.y)) <= 1e-7
                assert np.sum(cert.y) == pytest.approx(1.0)

    def test_general_polyhedral_cone(self):
        cone = OrderingCone(generators=np.array([[1.0, 1.0], [0.0, 1.0]]))
        rng = np.random.default_rng(2)
        for _ in range(50):
            A = rng.uniform(-1, 1, size=(2, 2))
            cert = gordan_alternative(A, cone)
            if cert.alternative == 1:
                assert cone.strictly_contains(-(A @ cert.x))
            else:
                assert np.all(np.asarray(cert.dual_coords) >= -1e-12)
                assert np.max(np.abs(A.T @ cert.y)) <= 1e-7

    def test_alternative_is_scale_invariant(self):
        # designed branch 1 (A d <_C 0 for a chosen d) and branch 2 (A^T y = 0
        # for a chosen y > 0); scaling A by c > 0 changes neither branch
        rng = np.random.default_rng(5)
        for k in range(24):
            m, n = 2 + k % 2, 1 + k % 3
            a = rng.uniform(-1.0, 1.0, size=(m, n))
            if k % 2:
                y = rng.uniform(0.2, 1.0, size=m)
                a = a - np.outer(y, y @ a) / float(y @ y)
                designed = 2
            else:
                d = rng.normal(size=n)
                a = a + np.outer(-rng.uniform(0.2, 1.0, size=m) - a @ d, d) / float(d @ d)
                designed = 1
            cone = OrderingCone.orthant(m)
            for scale in (1.0, 1e-9, 1e9):
                cert = gordan_alternative(scale * a, cone)
                assert cert.alternative == designed, (k, scale)
                if designed == 1:
                    assert cone.strictly_contains(-(a @ cert.x))
                else:
                    assert np.max(np.abs(a.T @ cert.y)) <= 1e-7

class TestGordanDichotomy:
    def test_thousand_random_matrices(self):
        rng = np.random.default_rng(0)
        cones = {m: OrderingCone.orthant(m) for m in (1, 2, 3, 4)}
        degenerate = 0
        start = time.perf_counter()
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            A = rng.uniform(-1, 1, size=(m, n))
            cone = cones[m]
            try:
                cert = gordan_alternative(A, cone)
            except DegenerateError:
                degenerate += 1
                continue
            assert cert.alternative in (1, 2)
            if cert.alternative == 1:
                assert cone.strictly_contains(-(A @ cert.x))
            else:
                assert cone.contains(cert.y)
                assert np.max(np.abs(A.T @ cert.y)) <= 1e-7
        elapsed = time.perf_counter() - start
        assert degenerate < 10  # < 1%
        assert elapsed < 5.0


class TestVectorCriticality:
    def test_example5_critical_with_dual_ratio(self, example5):
        v = check_vector_critical(example5.f, example5.cone, [0.0], SamplingPlan())
        assert v.certified
        assert v.certificate["lambda"] == [1.0, 0.0]
        mu = np.asarray(v.certificate["mu"])
        assert np.allclose(mu / np.sum(mu), [2.0 / 7.0, 5.0 / 7.0], atol=1e-9)

    def test_linear_not_critical(self, linear_problem):
        v = check_vector_critical(
            linear_problem.f, linear_problem.cone, [0.5], SamplingPlan()
        )
        assert v.refuted
        assert v.witness["evidence"][0]["gordan"]["alternative"] == 1

    def test_opposite_slopes_critical(self):
        from vvicert.problem import Problem

        p = Problem.from_dict(
            {
                "version": "vvicert/1",
                "n": 1,
                "m": 2,
                "domain": [[-2.0, 2.0]],
                "pieces": [{"region": "0 <= 1", "components": ["x1", "-x1"]}],
                "cone": {"orthant": 2},
                "kernel": {"kind": "difference"},
                "e": [0.1, 0.1],
            }
        )
        v = check_vector_critical(p.f, p.cone, [0.3], SamplingPlan())
        assert v.certified
        assert np.allclose(v.certificate["mu"], [0.5, 0.5])

    def test_lambda_grid_covers_mixtures(self, example23):
        # every mixture (1, k), k in [2, 4], has mu1 + k mu2 > 0: never critical
        v = check_vector_critical(example23.f, example23.cone, [0.0], SamplingPlan())
        assert v.refuted
        assert v.witness["lambdaGridSize"] == 9  # two vertices, depth 8


# ---------------------------------------------------------------------------
# Rank test against the LPs
# ---------------------------------------------------------------------------

WEDGE_NORMALS = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.2], [0.2, 0.0, 1.0]])


def _agreement_cases():
    """(A, cone) pairs: m, n in 1..4 under the orthant, m = 3 under a wedge,
    with random (full-rank where m <= n), designed branch-1 (A d <_C 0) and
    designed branch-2 (A^T y = 0 for y interior to C*) matrices."""
    rng = np.random.default_rng(11)
    cones = {m: OrderingCone.orthant(m) for m in (1, 2, 3, 4)}
    wedge = OrderingCone(normals=WEDGE_NORMALS)
    out = []
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            for cone in [cones[m]] + ([wedge] if m == 3 else []):
                normals = cone.normals
                for kind in ("random", "1", "2"):
                    a = rng.uniform(-1.0, 1.0, size=(m, n))
                    if kind == "2":
                        y = normals.T @ rng.uniform(0.2, 1.0, size=m)
                        a = a - np.outer(y, y @ a) / float(y @ y)
                    elif kind == "1":
                        d = rng.normal(size=n)
                        target = -np.linalg.solve(normals, rng.uniform(0.2, 1.0, size=m))
                        a = a + np.outer(target - a @ d, d) / float(d @ d)
                    out.append((a, cone))
    return out


def _gordan_outcome(a, cone):
    try:
        return gordan_alternative(a, cone).alternative
    except DegenerateError:
        return "degenerate"


class TestRankAgainstLp:
    def test_same_decisions_with_the_rank_test_off(self, monkeypatch):
        cases = [(scale * a, cone) for a, cone in _agreement_cases()
                 for scale in (1e-9, 1.0, 1e9)]
        counts = {}
        with _alt.counting(counts):
            with_rank = [(_gordan_outcome(a, cone), _alt.strict_mu(a, cone.normals))
                         for a, cone in cases]
        # most of the 2 * len(cases) decisions never reach an LP
        assert counts["rankDecided"] > len(cases) > counts["lpSolved"] / 2
        monkeypatch.setattr(_alt, "null_basis", lambda A: None)
        decided = 0
        for (a, cone), (alternative, (mu, s)) in zip(cases, with_rank):
            assert _gordan_outcome(a, cone) == alternative, a
            lp_mu, lp_s = _alt.strict_mu(a, cone.normals)
            assert (mu is None) == (lp_mu is None), a
            if mu is not None:
                assert abs(s - lp_s) <= 1e-12, (a, s, lp_s)
                decided += 1
        assert decided > 0 and 0 < sum(alt == 2 for alt, _ in with_rank) < len(cases)

    def test_rank_in_doubt_goes_to_the_lp(self, monkeypatch):
        u, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(2, 2)))
        v, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(2, 2)))
        a = u @ np.diag([1.0, 1e-7]) @ v.T  # sigma_min / sigma_max = 1e-7
        assert _alt.null_basis(a) is None
        calls = []
        highs = _alt.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return highs(*args, **kwargs)

        monkeypatch.setattr(_alt, "linprog", counted)
        cone = OrderingCone.orthant(2)
        _alt.strict_mu(a, cone.normals)
        assert len(calls) == 1
        _gordan_outcome(a, cone)
        assert len(calls) >= 2

    def test_counters_in_criticality_stats(self, example5, example23):
        # example5 at 0: the first mixture has a one-dimensional null space
        # and is critical; example23 at 0: 9 mixtures (1, k), each with a
        # line of mu and a Gordan x from the same line
        v = check_vector_critical(example5.f, example5.cone, [0.0], SamplingPlan())
        assert (v.stats["rankDecided"], v.stats["lpSolved"]) == (1, 0)
        v = check_vector_critical(example23.f, example23.cone, [0.0], SamplingPlan())
        assert (v.stats["rankDecided"], v.stats["lpSolved"]) == (18, 0)
        # f = (x, -x, x): the null space of A^T is a plane, and the LP finds mu
        from vvicert.problem import Problem

        p = Problem.from_dict(
            {
                "version": "vvicert/1",
                "n": 1,
                "m": 3,
                "domain": [[-2.0, 2.0]],
                "pieces": [{"region": "0 <= 1", "components": ["x1", "-x1", "x1"]}],
                "cone": {"orthant": 3},
                "kernel": {"kind": "difference"},
                "e": [0.1, 0.1, 0.1],
            }
        )
        v = check_vector_critical(p.f, p.cone, [0.3], SamplingPlan())
        assert v.certified
        assert (v.stats["rankDecided"], v.stats["lpSolved"]) == (0, 1)
