import ast
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

import vvicert
from conftest import cross_cone
from vvicert import _alt, cone as cone_module
from vvicert.cli import load_problem
from vvicert.cone import (
    _COLUMN_TEST_MAX_DIM,
    CONE_TOL,
    DEFAULT_MARGIN,
    OrderingCone,
    _dedupe_rays,
    _extreme_rays,
)
from vvicert.errors import DimensionMismatchError
from vvicert.problem import Problem


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
        # x <=_C y and x <_C y test y - x
        x, y, z = np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([2.0, 0.0])
        assert orthant2.contains(y - x) and orthant2.strictly_contains(y - x)
        assert orthant2.contains(y - y) and not orthant2.strictly_contains(y - y)
        assert not orthant2.contains(y - z)

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
            orthant2.strictly_contains([1.0])


# entries that stress the bits of an order test: signed zeros, subnormals,
# values whose squares overflow or underflow, the tolerance, infinities, NaN
_EDGE_ENTRIES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1e300, -1e300,
    1e-9, -1e-9, 1.0, -1.0, np.inf, -np.inf, np.nan,
)


@lru_cache(maxsize=None)
def _permuted_cone(perm: tuple, off: tuple, margin: float) -> OrderingCone:
    """The orthant with the rows of I permuted by perm; off = (row, col)
    puts 1e-13 in an off-diagonal zero of the normals."""
    normals = np.eye(len(perm))[list(perm)]
    if off:
        normals[off] = 1e-13
    return OrderingCone(normals=normals, generators=np.eye(len(perm)), margin=margin)


@st.composite
def _cones_and_vectors(draw):
    dim = draw(st.integers(1, _COLUMN_TEST_MAX_DIM + 2))
    perm = tuple(draw(st.permutations(range(dim))))
    off = ()
    if dim > 1 and draw(st.booleans()):
        row = draw(st.integers(0, dim - 1))
        off = (row, draw(st.sampled_from([c for c in range(dim) if c != perm[row]])))
    margin = draw(st.sampled_from([DEFAULT_MARGIN, 0.0, 0.25, -1e-3]))
    lead = draw(st.sampled_from([(), (5,), (2, 3)]))
    entry = st.one_of(
        st.sampled_from(_EDGE_ENTRIES),
        st.floats(-2.0, 2.0),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
    size = int(np.prod(lead, dtype=int)) * dim
    v = np.array(draw(st.lists(entry, min_size=size, max_size=size)), dtype=float)
    return _permuted_cone(perm, off, margin), off, v.reshape(lead + (dim,))


class TestColumnTest:
    """Under normals that permute the identity exactly, up to dimension 7,
    the order tests read the columns of v; they give the booleans of the
    product v @ N.T, with its NaN rows, and of np.linalg.norm."""

    @settings(max_examples=400)
    @given(_cones_and_vectors())
    def test_matches_the_matmul_path(self, case):
        cone, off, v = case
        assert cone._column_test == (
            not off and cone.dim <= _COLUMN_TEST_MAX_DIM and cone.margin >= 0.0
        )
        with np.errstate(invalid="ignore", over="ignore"):
            nv = v @ cone.normals.T
            want = np.all(nv >= -cone.tol, axis=-1)
            thresh = cone.margin * np.linalg.norm(v, axis=-1, keepdims=True)
            want_strict = np.all(nv > thresh, axis=-1)
            got = cone.contains_many(v)
            got_strict = cone.strictly_contains_many(v)
        for g, w in ((got, want), (got_strict, want_strict)):
            assert type(g) is type(w) and np.shape(g) == np.shape(w)
            assert np.array_equal(g, w), (cone.normals.tolist(), v.tolist())

    def test_exact_identity_only(self):
        assert OrderingCone.orthant(3)._column_test
        assert OrderingCone(normals=np.diag([2.0, 0.5])).normals.tolist() == np.eye(2).tolist()
        assert OrderingCone(normals=np.diag([2.0, 0.5]))._column_test
        assert not OrderingCone.orthant(_COLUMN_TEST_MAX_DIM + 1)._column_test
        wedge = OrderingCone(normals=np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.2], [0.2, 0.0, 1.0]]))
        assert not wedge._column_test
        # normals within 1e-13 of the identity are not an orthant
        near = OrderingCone(normals=np.array([[1.0, 1e-13], [0.0, 1.0]]))
        assert not near.is_orthant and not near._column_test
        assert near.to_dict()["normals"] == near.normals.tolist()


class TestConstruction:
    def test_generators_to_normals_2d(self):
        c = OrderingCone(generators=np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert c.contains([1.0, 0.5])
        assert not c.contains([0.0, 1.0])
        assert c.strictly_contains(c.interior_witness)

    def test_normals_to_generators_3d(self):
        c = OrderingCone(normals=np.eye(3))
        assert _extreme_rays(c.normals).shape == (3, 3)
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
            assert cone.is_orthant and cone.to_dict() == {"orthant": m, "margin": 1e-8}
            assert OrderingCone.orthant(m).to_dict() == {"orthant": m}
            assert np.array_equal(cone.normals, np.eye(m))
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

    def test_roundtrip_dict(self, orthant2):
        again = OrderingCone.from_dict(orthant2.to_dict())
        assert again.is_orthant and again.dim == 2
        poly = OrderingCone(generators=np.array([[1.0, 1.0], [0.0, 1.0]]))
        again = OrderingCone.from_dict(poly.to_dict())
        assert np.allclose(again.normals, poly.normals)

    def test_orthant_margin_survives_problem_roundtrip(self):
        spec = load_problem("example5").to_dict()
        default = Problem.from_dict(spec)
        assert default.to_dict()["cone"] == {"orthant": 2}
        spec["cone"] = {"orthant": 2, "margin": 1e-3}
        tight = Problem.from_dict(spec)
        again = Problem.from_dict(tight.to_dict())
        assert again.cone.margin == 1e-3
        assert again.to_dict()["cone"] == {"orthant": 2, "margin": 1e-3}
        # the margin changes which vectors are interior, so it changes the hash
        assert again.content_hash() == tight.content_hash() != default.content_hash()


    def test_one_dimensional_cones(self):
        up = OrderingCone(normals=[[1.0]])
        assert _extreme_rays(up.normals).tolist() == [[1.0]] and up.to_dict() == {"orthant": 1}
        down = OrderingCone(generators=[[-1.0]])
        assert down.normals.tolist() == [[-1.0]] and not down.is_orthant
        # the cone of the origin: rank 1 by its normals, so its interior decides
        with pytest.raises(ValueError, match="empty interior"):
            OrderingCone(normals=[[1.0], [-1.0]])
        with pytest.raises(ValueError, match="reduces to the origin"):
            OrderingCone(generators=[[1.0, -1.0]])

    def test_permuted_scaled_identities_are_orthants(self):
        # given by normals only or by generators only, the derived side is
        # exact, so every such cone serializes as the bare orthant
        rng = np.random.default_rng(3)
        for m in (1, 2, 3, 4):
            for _ in range(4):
                basis = np.eye(m)[rng.permutation(m)] * rng.uniform(0.1, 10.0, (m, 1))
                for cone in (OrderingCone(normals=basis), OrderingCone(generators=basis.T)):
                    assert cone.is_orthant and cone._column_test
                    assert cone.to_dict() == {"orthant": m}

    def test_near_orthant_keeps_its_normals_and_hash(self):
        # within 1e-13 of the identity, yet a cone of its own: it holds a
        # vector that the orthant does not
        near = OrderingCone(normals=[[1.0, 1e-13], [0.0, 1.0]])
        assert near.contains([-2e-9, 1e4])
        assert not OrderingCone.orthant(2).contains([-2e-9, 1e4])
        again = OrderingCone.from_dict(near.to_dict())
        assert np.array_equal(again.normals, near.normals) and not again.is_orthant
        spec = load_problem("example5").to_dict()
        exact = Problem.from_dict(spec)
        spec["cone"] = near.to_dict()
        assert Problem.from_dict(spec).content_hash() != exact.content_hash()

    @pytest.mark.parametrize("normals", [np.eye(2), [[1.0, 0.0], [1.0, 1.0]]],
                             ids=["orthant", "wedge"])
    def test_generators_outside_the_normals_rejected(self, normals):
        # only the normals decide membership, so generators that leave
        # their cone would serialize, and enter the hash, unread
        with pytest.raises(ValueError, match="generators leave the cone of the normals"):
            OrderingCone(normals=normals, generators=-np.eye(2))

    def test_generators_on_the_boundary_kept(self):
        # the wedge's own rays as columns, unnormalized: N G is 0 on the
        # facets up to rounding, and the cone is the derived one
        gens = np.array([[0.0, 3.0], [2.0, -3.0]])
        derived = OrderingCone(normals=[[1.0, 0.0], [1.0, 1.0]])
        stated = OrderingCone(normals=[[1.0, 0.0], [1.0, 1.0]], generators=gens)
        rays = gens / np.linalg.norm(gens, axis=0)
        assert np.min(stated.normals @ rays) >= -CONE_TOL
        assert np.allclose(rays, _extreme_rays(derived.normals).T)
        assert np.array_equal(stated.normals, derived.normals)


@st.composite
def _cones_by_both_forms(draw):
    """(rays, normals, rng) of one cone: a simplicial cone at m = 2-6, or a
    cross cone at m = 3-5 (h = 2(m - 1) > m facets), mapped by a tame T."""
    m = draw(st.integers(2, 6), label="m")
    kind = draw(st.sampled_from(["simplicial", "cross"] if 3 <= m <= 5 else ["simplicial"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    t = np.eye(m) + 0.5 * rng.uniform(-1.0, 1.0, (m, m))
    assume(np.linalg.cond(t) < 1e2)
    if kind == "simplicial":
        return t, np.linalg.inv(t), rng
    normals, rays = cross_cone(m)
    # the cone T C has the rays T r and the normals N T^-1
    return t @ rays, normals @ np.linalg.inv(t), rng


class TestConesByGeneratorsAlone:
    @settings(max_examples=60)
    @given(_cones_by_both_forms())
    def test_derived_normals_order_as_the_stated(self, case):
        rays, normals, rng = case
        derived = OrderingCone(generators=rays)
        stated = OrderingCone(normals=normals)
        assert derived.normals.shape == stated.normals.shape
        m = stated.dim
        # vectors inside (positive mixtures of the rays) and anywhere, kept
        # where they lie at least 1e-6 from every facet
        v = np.vstack([
            rng.uniform(0.0, 1.0, (200, rays.shape[1])) @ rays.T,
            rng.uniform(-1.0, 1.0, (400, m)),
        ])
        v = v[np.min(np.abs(v @ stated.normals.T), axis=1) >= 1e-6]
        inside = stated.contains_many(v)
        assert inside.any() and not inside.all()
        assert np.array_equal(derived.contains_many(v), inside)
        assert np.array_equal(derived.strictly_contains_many(v), stated.strictly_contains_many(v))

    def test_the_normals_are_the_cone(self):
        normals, rays = cross_cone(4)
        for cone in (OrderingCone(generators=rays), OrderingCone(normals=normals, generators=rays)):
            assert not hasattr(cone, "generators")
            assert set(cone.to_dict()) == {"normals", "margin"}
        cone = OrderingCone.from_dict({"normals": normals.tolist()})
        assert cone.to_dict() == {"normals": cone.normals.tolist(), "margin": DEFAULT_MARGIN}

    def test_enumeration_bounded_by_its_subsets(self, monkeypatch):
        # four rays in R^3 give C(4, 2) = 6 subsets of m - 1 = 2 rays
        normals, rays = cross_cone(3)
        monkeypatch.setattr(cone_module, "_MAX_FACET_SUBSETS", 6)
        assert OrderingCone(generators=rays).normals.shape == (4, 3)
        monkeypatch.setattr(cone_module, "_MAX_FACET_SUBSETS", 5)
        # given with the normals, the generators are only checked
        assert OrderingCone(normals=normals, generators=rays).normals.shape == (4, 3)
        svds = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1))
        with pytest.raises(ValueError, match=r"4 generators in dimension 3 leave 6 facet "
                                             r"candidates, more than 5: give the cone's normals"):
            OrderingCone(generators=rays)
        assert not svds


class TestOrderProperties:
    def test_transitivity_random_triples(self, orthant2):
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(3000):
            x = rng.uniform(-1, 1, 2)
            y = x + rng.uniform(0, 1, 2)
            z = y + rng.uniform(0, 1, 2)
            assert orthant2.contains(y - x) and orthant2.contains(z - y)
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
            if orthant2.contains(y - x) and orthant2.contains(x - y):
                assert np.linalg.norm(x - y) <= 10 * orthant2.tol

    def test_strict_order_convex(self, orthant2):
        rng = np.random.default_rng(2)
        for _ in range(500):
            u = rng.uniform(0.1, 1, 2)
            v = rng.uniform(0.1, 1, 2)
            assert orthant2.strictly_contains(u) and orthant2.strictly_contains(v)
            for lam in rng.uniform(0, 1, 5):
                w = lam * u + (1 - lam) * v
                assert orthant2.strictly_contains(w)

    def test_orthant_matches_componentwise(self, orthant2):
        rng = np.random.default_rng(3)
        v = rng.uniform(-1, 1, size=(2000, 2))
        got = orthant2.contains_many(v)
        want = np.all(v >= -orthant2.tol, axis=1)
        assert np.array_equal(got, want)

    def test_representation_consistency_sampled(self):
        generators = np.array([[1.0, 0.5], [0.2, 1.0]])
        cone = OrderingCone(generators=generators)
        rng = np.random.default_rng(4)
        # nonnegative generator combinations must pass the halfspace test
        weights = rng.uniform(0, 2, size=(500, 2))
        pts = weights @ generators.T
        assert np.all(cone.contains_many(pts))
        # and points failing the halfspace test must be outside the generator
        # cone: the cone is simplicial, so such a point has a negative
        # coefficient on some generator
        outside = rng.uniform(-2, 2, size=(500, 2))
        outside = outside[~cone.contains_many(outside)]
        for p in outside[:100]:
            assert np.min(np.linalg.solve(generators, p)) < 0.0
