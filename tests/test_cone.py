import ast
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import null_space

import vvicert
from vvicert import _alt
from vvicert.cone import CONE_TOL, OrderingCone, _dedupe_rays, _extreme_rays
from vvicert.errors import DimensionMismatchError


@pytest.fixture(scope="module")
def orthant2():
    return OrderingCone.orthant(2)


class TestMembership:
    def test_contains_examples(self, orthant2):
        assert orthant2.contains([0.0, 0.0])
        assert not orthant2.contains([1.0, -0.1])
        assert orthant2.contains([5.0, 2.0])

    def test_strict_examples(self, orthant2):
        assert orthant2.strictly_contains([1.0, 1.0])
        assert not orthant2.strictly_contains([1.0, 0.0])
        assert not orthant2.strictly_contains([0.0, 0.0])

    def test_order_examples(self, orthant2):
        assert orthant2.leq([0, 0], [1, 2]) and orthant2.lt([0, 0], [1, 2])
        assert orthant2.leq([1, 2], [1, 2]) and not orthant2.lt([1, 2], [1, 2])
        assert not orthant2.leq([2, 0], [1, 2])

    def test_validate_e(self, orthant2):
        assert orthant2.validate_e([0.5, 0.5])
        assert not orthant2.validate_e([1.0, 0.0])
        assert orthant2.validate_e([1e-6, 1e-6])

    def test_scalar_tests_agree_with_batch(self):
        """contains and strictly_contains agree with their batch forms and
        with the halfspace inequalities, also on and near the facets. Rows
        sit at least 5e-10 from a threshold: exactly on one, a single
        rounding of N v decides, and a one-row product may round otherwise
        than a batch."""
        cones = [OrderingCone.orthant(m) for m in (1, 2, 3, 4)] + [
            OrderingCone(normals=np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.2], [0.2, 0.0, 1.0]])),
            OrderingCone(generators=np.array([[1.0, 1.0], [0.0, 1.0]])),
            OrderingCone(generators=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 3.0]])),
        ]
        rng = np.random.default_rng(8)
        for cone in cones:
            m = cone.dim
            v = rng.uniform(-1.0, 1.0, (400, m))
            # project each row onto one facet, then nudge it across
            facet = cone.normals[rng.integers(0, len(cone.normals), 400)]
            on = v - np.sum(v * facet, axis=1, keepdims=True) * facet
            nudge = rng.choice([-1e-8, -3e-9, -5e-10, 0.0, 5e-10, 3e-9, 1e-8], (400, 1))
            v = np.vstack([v, on, on + nudge * facet, np.zeros((1, m))])
            nv = v @ cone.normals.T
            want = np.all(nv >= -cone.tol, axis=1)
            want_strict = np.all(
                nv > cone.margin * np.linalg.norm(v, axis=1, keepdims=True), axis=1
            )
            assert want.any() and not want.all() and want_strict.any()
            assert np.array_equal(cone.contains_many(v), want)
            assert np.array_equal(cone.strictly_contains_many(v), want_strict)
            assert [cone.contains(row) for row in v] == want.tolist()
            assert [cone.strictly_contains(row) for row in v] == want_strict.tolist()

    def test_dimension_mismatch(self, orthant2):
        with pytest.raises(DimensionMismatchError):
            orthant2.contains([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError):
            orthant2.leq([1.0], [1.0, 2.0])


class TestConstruction:
    def test_generators_to_normals_2d(self):
        c = OrderingCone(generators=np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert c.contains([1.0, 0.5])
        assert not c.contains([0.0, 1.0])
        assert c.strictly_contains(c.interior_witness)

    def test_normals_to_generators_3d(self):
        c = OrderingCone(normals=np.eye(3))
        assert c.generators.shape == (3, 3)
        assert c.contains([1.0, 2.0, 3.0])
        assert not c.contains([1.0, -1.0, 0.0])

    def test_interior_witness(self, monkeypatch):
        calls = []
        highs = _alt.linprog
        monkeypatch.setattr(_alt, "linprog", lambda *a, **k: calls.append(1) or highs(*a, **k))
        for m in (1, 2, 3, 4, 7):
            want = np.ones(m) / np.sqrt(m)
            assert np.array_equal(OrderingCone.orthant(m).interior_witness, want)
            assert np.array_equal(
                OrderingCone(normals=np.eye(m), generators=np.eye(m)).interior_witness, want
            )
        # a simplicial cone: N^-1 1 has equal slack on every facet
        wedge = OrderingCone(normals=np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.2], [0.2, 0.0, 1.0]]))
        slack = wedge.normals @ wedge.interior_witness
        assert np.allclose(slack, slack[0]) and slack[0] > 0
        assert not calls
        # four rays in R^3 give four facets: the LP finds the witness
        pyramid = OrderingCone(generators=np.array(
            [[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0], [1.0, 1.0, 1.0, 1.0]]
        ))
        assert pyramid.normals.shape[0] == 4 and len(calls) == 1
        assert pyramid.strictly_contains(pyramid.interior_witness)
        assert np.linalg.norm(pyramid.interior_witness) == pytest.approx(1.0)

    def test_scipy_optimize_imported_lazily(self):
        # importing vvicert must not pay for scipy.optimize; the first LP does
        for path in Path(vvicert.__file__).parent.glob("*.py"):
            for node in ast.parse(path.read_text()).body:
                names = []
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                assert not any(n.startswith("scipy.optimize") for n in names), path.name

    def test_extreme_rays_match_null_space(self):
        def reference(B):
            # the former enumeration: a rank test, then scipy's null vector
            rays = []
            for idx in combinations(range(B.shape[0]), B.shape[1] - 1):
                sub = B[list(idx)]
                if np.linalg.matrix_rank(sub, tol=1e-10) != B.shape[1] - 1:
                    continue
                d = null_space(sub)[:, 0]
                prod = B @ d
                if np.all(prod >= -1e-9):
                    rays.append(d)
                elif np.all(prod <= 1e-9):
                    rays.append(-d)
            return rays

        rng = np.random.default_rng(11)
        for m in (2, 3, 4):
            for h in (m, m + 1, m + 3):
                for k in range(8):
                    # nonnegative rows plus the identity keep the cone pointed
                    B = rng.uniform(0.0, 1.0, (h, m)) + np.eye(h, m)
                    if k % 2:
                        B[1] = 2.0 * B[0]  # rank-deficient blocks are skipped
                    want = _dedupe_rays(reference(B))
                    got = _extreme_rays(B)
                    assert got.shape == want.shape
                    assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_orthant_matches_hand_built(self):
        for m in (1, 2, 3, 4):
            cone = OrderingCone.orthant(m, margin=1e-8)
            assert cone.dim == m and cone.margin == 1e-8 and cone.tol == CONE_TOL
            assert cone.is_orthant and cone.to_dict() == {"orthant": m}
            assert np.array_equal(cone.normals, np.eye(m))
            assert np.array_equal(cone.generators, np.eye(m))
            assert np.array_equal(
                cone.interior_witness, _alt.interior_witness(np.eye(m), 1e-8)
            )

    def test_not_pointed_rejected(self):
        # a halfspace {v : v1 >= 0} in R^2 contains a full line
        with pytest.raises(ValueError):
            OrderingCone(normals=np.array([[1.0, 0.0]]))

    def test_zero_is_member_not_interior(self, orthant2):
        assert orthant2.contains(np.zeros(2))
        assert not orthant2.strictly_contains(np.zeros(2))

    def test_dual_generators_orthant(self, orthant2):
        assert np.allclose(orthant2.dual_generators, np.eye(2))

    def test_roundtrip_dict(self, orthant2):
        again = OrderingCone.from_dict(orthant2.to_dict())
        assert again.is_orthant and again.dim == 2
        poly = OrderingCone(generators=np.array([[1.0, 1.0], [0.0, 1.0]]))
        again = OrderingCone.from_dict(poly.to_dict())
        assert np.allclose(again.normals, poly.normals)


class TestOrderProperties:
    def test_transitivity_random_triples(self, orthant2):
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(3000):
            x = rng.uniform(-1, 1, 2)
            y = x + rng.uniform(0, 1, 2)
            z = y + rng.uniform(0, 1, 2)
            assert orthant2.leq(x, y) and orthant2.leq(y, z)
            # composed halfspace tests carry at most 2x the tolerance slack
            assert np.all(orthant2.normals @ (z - x) >= -2 * orthant2.tol)
            found += 1
        assert found == 3000

    def test_antisymmetry_pointedness(self, orthant2):
        rng = np.random.default_rng(1)
        for _ in range(500):
            x = rng.uniform(-1, 1, 2)
            d = rng.uniform(-1, 1, 2) * 1e-10
            y = x + d
            if orthant2.leq(x, y) and orthant2.leq(y, x):
                assert np.linalg.norm(x - y) <= 10 * orthant2.tol

    def test_strict_order_convex(self, orthant2):
        rng = np.random.default_rng(2)
        for _ in range(500):
            u = rng.uniform(0.1, 1, 2)
            v = rng.uniform(0.1, 1, 2)
            assert orthant2.lt(np.zeros(2), u) and orthant2.lt(np.zeros(2), v)
            for lam in rng.uniform(0, 1, 5):
                w = lam * u + (1 - lam) * v
                assert orthant2.lt(np.zeros(2), w)

    def test_orthant_matches_componentwise(self, orthant2):
        rng = np.random.default_rng(3)
        v = rng.uniform(-1, 1, size=(2000, 2))
        got = orthant2.contains_many(v)
        want = np.all(v >= -orthant2.tol, axis=1)
        assert np.array_equal(got, want)

    def test_representation_consistency_sampled(self):
        cone = OrderingCone(generators=np.array([[1.0, 0.5], [0.2, 1.0]]))
        rng = np.random.default_rng(4)
        # nonnegative generator combinations must pass the halfspace test
        weights = rng.uniform(0, 2, size=(500, 2))
        pts = weights @ cone.generators.T
        assert np.all(cone.contains_many(pts))
        # and points failing the halfspace test must be outside the generator cone
        outside = rng.uniform(-2, 2, size=(500, 2))
        outside = outside[~cone.contains_many(outside)]
        for p in outside[:100]:
            assert cone.generator_residual(p) > 1e-8
