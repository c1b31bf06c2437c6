import collections
import functools
import importlib.util
import itertools
import json
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import criterion_10_instances, cross_cone
from vvicert import _alt, audit, certify, sampling
from vvicert.certify import (
    SamplingPlan,
    check_vector_critical,
    gordan_alternative,
)
from vvicert.cone import OrderingCone, _extreme_rays, _unit_rows
from vvicert.errors import DegenerateError, DimensionMismatchError, VviCertError
from vvicert.model import JacobianPolytope
from vvicert.problem import Problem


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

    @pytest.mark.parametrize(
        "A, alternative",
        [
            (np.eye(2), 1),
            (np.array([[1.0, 0.0], [0.5, 1.0], [1.0, 2.0]]), 1),
            (np.array([[1.0], [-1.0]]), 2),
            (np.array([[5.0, 1.0], [-2.0, 0.0], [1.0, -3.0]]), 2),
        ],
    )
    def test_no_cone_is_the_orthant(self, A, alternative):
        cert = gordan_alternative(A)
        assert cert.alternative == alternative
        want = gordan_alternative(A, OrderingCone.orthant(A.shape[0]))
        assert json.dumps(cert.to_dict()) == json.dumps(want.to_dict())

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


class TestBadInput:
    # each is rejected with a VviCertError subclass before any SVD or LP

    def test_non_finite_matrix(self, orthant2):
        for bad in (np.nan, np.inf, -np.inf):
            a = np.array([[1.0], [bad]])
            with pytest.raises(DegenerateError, match="non-finite"):
                gordan_alternative(a, orthant2)
            with pytest.raises(DegenerateError, match="non-finite"):
                _alt.strict_mu(a, orthant2.normals)

    def test_matrix_without_columns(self, orthant2):
        with pytest.raises(DimensionMismatchError):
            gordan_alternative(np.zeros((2, 0)), orthant2)
        with pytest.raises(DimensionMismatchError):
            gordan_alternative(np.zeros((2, 0)))
        with pytest.raises(DimensionMismatchError):
            _alt.strict_mu(np.zeros((2, 0)), orthant2.normals)

    def test_cone_of_another_dimension(self, orthant2):
        with pytest.raises(DimensionMismatchError):
            gordan_alternative(np.ones((3, 1)), orthant2)
        with pytest.raises(DimensionMismatchError):
            _alt.strict_mu(np.ones((3, 1)), orthant2.normals)


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

    def test_lp_mu_reports_its_own_interiority(self):
        # a three-dimensional null space under six facets goes to the LP, whose
        # own s exceeds min(N mu) by about 8e-8, within HiGHS's tolerance
        normals = _cross_cone(4).normals
        a = np.array([[0.0], [1.0], [1.0], [5e-7]])
        counts = {}
        with _alt.counting(counts):
            mu, s = _alt.strict_mu(a, normals)
        assert counts["lpSolved"] == 1
        assert s > 0.16 and np.all(normals @ mu >= s)
        assert s == float(np.min(normals @ mu))

    def test_one_column_solves_no_lp(self):
        counts = {}
        with _alt.counting(counts):
            for a, cone in _agreement_cases():
                for scale in (1e-9, 1.0, 1e9) if a.shape[1] == 1 else ():
                    _gordan_outcome(scale * a, cone)
                    _alt.strict_mu(scale * a, cone.normals)
            # the n = 1 instances of acceptance criterion 10 at their base point
            for i in range(0, 100, 3):
                inst = audit.generate_instance(audit.RandomInstanceSpec(
                    seed=i, n=1, m=2 + i % 2, piece_count=1, degree=1,
                    kernel_kind=["difference", "negNormDifference"][i % 2],
                ))
                check_vector_critical(inst.f, inst.cone, inst.point("x0"), SamplingPlan())
        assert counts["lpSolved"] == 0 and counts["rankDecided"] > 0

    def test_counters_in_criticality_stats(self, example5, example23):
        # example5 at 0: the first mixture has a one-dimensional null space
        # and is critical; example23 at 0: 9 mixtures (1, k), each with a
        # line of mu and a Gordan x from the same line
        v = check_vector_critical(example5.f, example5.cone, [0.0], SamplingPlan())
        assert (v.stats["rankDecided"], v.stats["lpSolved"]) == (1, 0)
        v = check_vector_critical(example23.f, example23.cone, [0.0], SamplingPlan())
        assert (v.stats["rankDecided"], v.stats["lpSolved"]) == (18, 0)
        from vvicert.problem import Problem

        def single_piece(n, components):
            m = len(components)
            return Problem.from_dict(
                {
                    "version": "vvicert/1",
                    "n": n,
                    "m": m,
                    "domain": [[-2.0, 2.0]] * n,
                    "pieces": [{"region": "0 <= 1", "components": components}],
                    "cone": {"orthant": m},
                    "kernel": {"kind": "difference"},
                    "e": [0.1] * m,
                }
            )

        # f = (x, -x, x): the null space of A^T is a plane, but A has one
        # column, so mu has a closed form
        p = single_piece(1, ["x1", "-x1", "x1"])
        v = check_vector_critical(p.f, p.cone, [0.3], SamplingPlan())
        assert v.certified
        assert (v.stats["rankDecided"], v.stats["lpSolved"]) == (1, 0)
        # f = (x1, -x1, x2, -x2): a plane again, with two columns; the LP finds mu
        p = single_piece(2, ["x1", "-x1", "x2", "-x2"])
        v = check_vector_critical(p.f, p.cone, [0.3, 0.1], SamplingPlan())
        assert v.certified
        assert (v.stats["rankDecided"], v.stats["lpSolved"]) == (0, 1)


# ---------------------------------------------------------------------------
# One-column closed forms against the LPs
# ---------------------------------------------------------------------------

def _cross_rays(m):
    """The 2^(m - 1) extreme rays of the cross cone, as unit columns."""
    return _unit_rows(cross_cone(m)[1].T).T


@functools.lru_cache(maxsize=None)
def _cross_cone(m):
    """{v : |v_i| <= v_m for i < m}: 2(m - 1) facets, more than m for m >= 3."""
    return OrderingCone(normals=cross_cone(m)[0], generators=_cross_rays(m))


def _random_simplicial(m, seed):
    normals = np.eye(m) + 0.5 * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m, m))
    assume(np.linalg.cond(normals) < 1e3)  # the 1e-12 comparisons need a tame N
    return OrderingCone(normals=normals, generators=np.linalg.inv(normals))


# exact zeros, entries within 1e-12 of zero and ordinary entries
_ENTRIES = st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12), st.floats(-1.0, 1.0))


def _decide(a, cone):
    try:
        cert = gordan_alternative(a, cone)
    except DegenerateError:
        cert = None
    return cert, _alt.strict_mu(a, cone.normals)


def _vertex_mu_optimum(col, normals):
    """The optimum s of the LP of ``_alt.strict_mu`` for a unit-scale column
    under a simplicial cone, or None when the LP is infeasible. It is the
    largest s over the vertices of the feasible set: the points where the
    equalities and m - 1 of the inequalities N mu >= s, -1 <= s <= 1 (m of
    them for a zero column) hold with equality."""
    m = col.size
    eq = np.array([np.append(col, 0.0), np.append(normals.sum(axis=0), 0.0)])
    eq_rhs = np.array([0.0, 1.0])
    if not np.any(col):
        eq, eq_rhs = eq[1:], eq_rhs[1:]
    # rows g, rhs of g.(mu, s) >= rhs
    g = np.vstack([np.hstack([normals, -np.ones((m, 1))]), np.eye(m + 1)[-1], -np.eye(m + 1)[-1]])
    rhs = np.concatenate([np.zeros(m), [-1.0, -1.0]])
    combos = [list(c) for c in itertools.combinations(range(m + 2), m + 1 - len(eq))]
    systems = np.stack([np.vstack([eq, g[c]]) for c in combos])
    keep = np.linalg.cond(systems) < 1e12
    b = np.stack([np.concatenate([eq_rhs, rhs[c]]) for c in combos])
    x = np.linalg.solve(systems[keep], b[keep][..., None])[..., 0]
    feasible = np.all(x @ g.T >= rhs - 1e-12, axis=1)
    return float(np.max(x[feasible, -1])) if np.any(feasible) else None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_column_closed_forms_match_the_lps(data):
    """Closed forms against the LPs they replace (``null_basis`` off): the
    same Gordan alternative, with a certificate that re-verifies, and the
    same multiplier optimum s within 1e-12 where it is positive. HiGHS reads
    coefficients of magnitude <= 1e-9 (of the unit-scale A) as zero, so s is
    compared with an enumeration of the LP's vertices as well, and with the
    LP only where A has no such entry."""
    m = data.draw(st.integers(1, 6), label="m")
    kinds = ["orthant"] + ["simplicial"] * (m >= 2) + ["wedge"] * (m == 3) + ["cross"] * (m >= 3)
    kind = data.draw(st.sampled_from(kinds), label="cone")
    if kind == "orthant":
        cone = OrderingCone.orthant(m)
    elif kind == "wedge":
        cone = OrderingCone(normals=WEDGE_NORMALS)
    elif kind == "cross":
        cone = _cross_cone(m)
    else:
        cone = _random_simplicial(m, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = data.draw(st.sampled_from([1e-9, 1.0, 1e9]), label="scale")
    a = scale * np.array(data.draw(st.lists(_ENTRIES, min_size=m, max_size=m), label="a"))[:, None]
    peak = np.max(np.abs(a))
    unit = a / peak if peak > 0.0 else a

    cert, (mu, s) = _decide(a, cone)
    with mock.patch.object(_alt, "null_basis", lambda A: None):
        ref_cert, (_, lp_s) = _decide(a, cone)

    assert (cert and cert.alternative) == (ref_cert and ref_cert.alternative)
    if cert is not None and cert.alternative == 1:
        assert cone.strictly_contains(-(a @ cert.x))
    elif cert is not None:
        assert np.all(cert.dual_coords >= 0.0)
        assert np.allclose(cone.normals.T @ cert.dual_coords, cert.y)
        assert np.max(np.abs(unit.T @ cert.y)) <= 1e-7

    if kind == "cross":
        return  # mu of a one-column A under a non-simplicial cone is the LP's
    references = [_vertex_mu_optimum(unit[:, 0], cone.normals)]
    if np.all((np.abs(unit) > 1e-9) | (unit == 0.0)):
        references.append(lp_s)
    for ref_s in references:
        best = max(-np.inf if s is None else s, -np.inf if ref_s is None else ref_s)
        if best > 1e-12:
            assert s is not None and ref_s is not None and abs(s - ref_s) <= 1e-12, (s, ref_s)
    if s is not None and s > 1e-12:
        assert np.all(cone.normals @ mu >= s - 1e-15)
        assert np.max(np.abs(unit.T @ mu)) <= 1e-12 * np.linalg.norm(mu)


# ---------------------------------------------------------------------------
# The stacked criticality walk against the per-lambda loop
# ---------------------------------------------------------------------------

def _per_lambda_critical(f, cone, xi, plan):
    """``check_vector_critical`` as one loop over the lambda grid, each mixture
    decided alone with its own SVDs and its evidence from
    ``gordan_alternative``: the reference the stacked walk must match."""
    xi = f.require_inside(xi, "xi")
    poly = f.clarke_jacobian(xi)
    verts = poly.as_array()
    lambdas = sampling.simplex_weights(len(poly), certify.SIMPLEX_GRID_DEPTH)
    threshold = max(cone.margin, 1e-9)
    stats = certify._base_stats(
        plan, cone, lambdaGridSize=len(lambdas), vertexCount=len(poly), xi=xi.tolist()
    )
    evidence = []
    ambiguous = None
    with _alt.counting(stats):
        for lam in lambdas:
            with np.errstate(invalid="ignore"):  # 0 * inf, as in the walk's matmul
                A = np.tensordot(lam, verts, axes=1)
            mu, s = _alt.strict_mu(A, cone.normals)
            if mu is not None and 1e-12 < s <= threshold and ambiguous is None:
                ambiguous = (lam, s)
            if mu is not None and s > threshold:
                return certify.Verdict(
                    certify.CERTIFIED,
                    "xi is a vector critical point: a strictly interior mu "
                    "annihilates the mixed Jacobian",
                    certificate={
                        "lambda": lam.tolist(),
                        "mu": np.asarray(mu, dtype=float).tolist(),
                        "interiority": float(s),
                        "matrix": A.tolist(),
                        "activePieces": list(poly.active_pieces),
                    },
                    stats=stats,
                )
            if len(evidence) < 16:
                try:
                    evidence.append(
                        {"lambda": lam.tolist(), "gordan": gordan_alternative(A, cone).to_dict()}
                    )
                except DegenerateError as exc:
                    evidence.append({"lambda": lam.tolist(), "degenerate": str(exc)})
    if ambiguous is not None:
        lam, s = ambiguous
        raise DegenerateError(
            f"interiority optimum {s:.3e} at lambda {lam.tolist()} sits inside the "
            f"strictness margin; criticality is numerically ambiguous"
        )
    return certify.Verdict(
        certify.REFUTED,
        "no sampled Jacobian mixture admits a strictly interior annihilating mu; "
        "xi is not a vector critical point",
        witness={"evidence": evidence, "lambdaGridSize": len(lambdas)},
        stats=stats,
    )


def _canonical(check, f, cone, xi):
    """The canonical-JSON payload of the check, or the error it raised."""
    try:
        payload = check(f, cone, xi, SamplingPlan()).to_payload()
    except VviCertError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _GivenVertices:
    """An objective whose Clarke Jacobian at every point has the given
    vertices, so that a grid can be built from any matrices."""

    def __init__(self, verts):
        self.verts = np.asarray(verts, dtype=float)

    def require_inside(self, x, what="point"):
        return np.asarray(x, dtype=float)

    def clarke_jacobian(self, x):
        return JacobianPolytope(
            vertices=list(self.verts), point=np.asarray(x), active_pieces=tuple(range(len(self.verts)))
        )


def _interior_point(rays, rng):
    """A point mu with N mu > 0, from positive weights on a cone's rays (columns)."""
    return rays @ rng.uniform(0.2, 1.0, size=rays.shape[1])


def _critical_matrix(rays, n, rng):
    """An m x n matrix A with A^T mu = 0 for an interior mu of the cone of rays."""
    mu = _interior_point(rays, rng)
    a = rng.uniform(-1.0, 1.0, size=(rays.shape[0], n))
    return a - np.outer(mu, mu @ a) / float(mu @ mu)


def _doubtful_matrix(m, n, rng):
    """An m x n matrix whose smallest singular value is 1e-7 of its largest."""
    u, _ = np.linalg.qr(rng.normal(size=(m, m)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    sigma = np.ones(min(m, n))
    sigma[-1] = 1e-7
    return u[:, : sigma.size] @ np.diag(sigma) @ v[:, : sigma.size].T


def _grid_cases():
    """(label, vertices, cone): k = 1-3 vertices of shape (m, n) for m = 2-4 and
    n = 1-3, under the orthant, a wedge (m = 3) and a cross cone (m = 3, 4,
    with h > m facets). Random vertices, a critical first vertex, two
    vertices whose midpoint is critical (the midpoint is on the grid), a vertex
    whose rank is in doubt, and fixed grids with an interiority inside the
    margin and with a non-finite vertex."""
    rng = np.random.default_rng(22)
    cases = []
    for k, m, n in itertools.product((1, 2, 3), (2, 3, 4), (1, 2, 3)):
        # each cone with its unit rays
        cones = {"orthant": (OrderingCone.orthant(m), np.eye(m))}
        if m == 3:
            wedge = OrderingCone(normals=WEDGE_NORMALS)
            cones["wedge"] = (wedge, _unit_rows(_extreme_rays(wedge.normals)).T)
        if m >= 3:
            cones["cross"] = (_cross_cone(m), _cross_rays(m))
        for (name, (cone, rays)), kind in itertools.product(
            cones.items(), ("random", "first", "mid", "doubt")
        ):
            verts = rng.uniform(-1.0, 1.0, size=(k, m, n))
            if kind == "first":
                verts[0] = _critical_matrix(rays, n, rng)
            elif kind == "mid" and k >= 2:
                centre, step = _critical_matrix(rays, n, rng), rng.uniform(-2.0, 2.0, size=(m, n))
                verts[0], verts[1] = centre + step, centre - step
            elif kind == "doubt" and min(m, n) >= 2:
                verts[-1] = _doubtful_matrix(m, n, rng)
            cases.append((f"{kind}-k{k}-m{m}-n{n}-{name}", verts, cone))
    orthant2 = OrderingCone.orthant(2)
    # (1, -1e-10) has the line of mu through (1e-10, 1): interiority 1e-10
    inside_margin = np.array([[[1.0], [1.0]], [[1.0], [-1e-10]]])
    cases.append(("margin-second", inside_margin, orthant2))
    cases.append(("margin-first", inside_margin[::-1], orthant2))
    cases.append(("non-finite", np.array([[[1.0], [-1.0]], [[np.inf], [1.0]]]), orthant2))
    return cases


GRID_CASES = _grid_cases()


class TestStackedWalk:
    @pytest.mark.parametrize("label, verts, cone", GRID_CASES, ids=[c[0] for c in GRID_CASES])
    def test_payload_matches_the_per_lambda_loop(self, label, verts, cone):
        f = _GivenVertices(verts)
        xi = np.zeros(verts.shape[2])
        assert _canonical(check_vector_critical, f, cone, xi) == _canonical(
            _per_lambda_critical, f, cone, xi
        )

    def test_the_grid_cases_reach_every_branch(self):
        outcomes = collections.Counter()
        for label, verts, cone in GRID_CASES:
            f = _GivenVertices(verts)
            try:
                v = check_vector_critical(f, cone, np.zeros(verts.shape[2]), SamplingPlan())
            except DegenerateError as exc:
                outcomes["non-finite" if "non-finite" in str(exc) else "margin"] += 1
                continue
            if v.certified:
                index = next(i for i, lam in enumerate(sampling.simplex_weights(len(verts), 8))
                             if lam.tolist() == v.certificate["lambda"])
                outcomes["first" if index == 0 else "mixture" if index >= len(verts) else "vertex"] += 1
            else:
                outcomes["refuted"] += 1
            outcomes["lp"] += v.stats["lpSolved"] > 0
            outcomes["doubt lp"] += label.startswith("doubt-k2") and v.stats["lpSolved"] > 0
            outcomes["k3 cross"] += len(verts) == 3 and cone.normals.shape[0] > cone.dim
        assert min(outcomes[key] for key in (
            "first", "vertex", "mixture", "refuted", "lp", "doubt lp", "k3 cross", "margin",
            "non-finite",
        )) >= 1, outcomes
        assert outcomes["margin"] == 2, outcomes

    def test_criterion_10_verdicts_match_the_per_lambda_loop(self, example5, example23):
        for problem, at in criterion_10_instances(example5, example23):
            args = (problem.f, problem.cone, problem.point(at))
            assert _canonical(check_vector_critical, *args) == _canonical(_per_lambda_critical, *args)

    def test_non_finite_mixture_past_the_first(self, monkeypatch):
        # a BLAS may skip zero weights, so a non-finite vertex first shows in
        # its own mixture; the walk must stop there, as the loop does
        def skip_zero_weights(lam, verts, axes):
            return sum(w * v for w, v in zip(lam, verts) if w)

        def skip_zero_weights_stacked(lams, verts):  # the walk's np.matmul
            return np.stack([[skip_zero_weights(lam, verts, 1)] for (lam,) in lams])

        monkeypatch.setattr(np, "tensordot", skip_zero_weights)
        monkeypatch.setattr(np, "matmul", skip_zero_weights_stacked)
        for second in (np.inf, np.nan):
            f = _GivenVertices([[[1.0], [1.0]], [[second], [1.0]]])
            got = _canonical(check_vector_critical, f, OrderingCone.orthant(2), np.zeros(1))
            assert got == _canonical(_per_lambda_critical, f, OrderingCone.orthant(2), np.zeros(1))
            assert got == "DegenerateError: matrix has a non-finite entry"
        # a critical first vertex still certifies
        f = _GivenVertices([[[1.0], [-1.0]], [[np.inf], [1.0]]])
        assert check_vector_critical(f, OrderingCone.orthant(2), np.zeros(1)).certified


def _stack_per_lambda(lambdas, verts):
    return np.stack([np.tensordot(lam, verts, axes=1) for lam in lambdas])


class TestWalkCost:
    """Where the walk's SVDs and mixtures come from: one stacked matmul mixes
    every lambda, and one stacked SVD decomposes the grid and its evidence."""

    @staticmethod
    def _count_calls(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_at_most_two_svds_per_decision(self, monkeypatch):
        # the benchmark's kink and max3 problems: one SVD per lambda and one
        # per Gordan evidence made 18 calls for a 9-point kink grid and 61
        # for a 45-point max3 grid; example5 certifies at its first vertex
        workloads = _perfbench_workloads()
        inputs = workloads.build_inputs("critical-lp", 1)
        svd = self._count_calls(monkeypatch, np.linalg, "svd")
        tensordot = self._count_calls(monkeypatch, np, "tensordot")
        grids = collections.Counter()
        for pid, problem in inputs.problems.items():
            svd.clear()
            v = check_vector_critical(problem.f, problem.cone, problem.point("x0"), SamplingPlan())
            assert (len(svd), len(tensordot)) == (1, 0), pid
            grids[v.stats["lambdaGridSize"], v.status] += 1
            if pid == "example5":
                assert v.certified and v.certificate["lambda"] == [1.0, 0.0]
        assert grids[9, certify.REFUTED] == 16 and grids[45, certify.REFUTED] == 8, grids
        assert sum(grids.values()) == 25, grids

    def test_a_critical_first_vertex_mixes_and_decomposes_only_itself(self, example5, monkeypatch):
        # the grid is mixed by one matmul and decomposed by one SVD, but the
        # walk stops at the critical first vertex: only it is rank-decided
        svd = self._count_calls(monkeypatch, np.linalg, "svd")
        tensordot = self._count_calls(monkeypatch, np, "tensordot")
        matmul = self._count_calls(monkeypatch, np, "matmul")
        v = check_vector_critical(example5.f, example5.cone, [0.0], SamplingPlan())
        assert v.certified and v.certificate["lambda"] == [1.0, 0.0]
        assert (len(svd), len(tensordot), len(matmul)) == (1, 0, 1)
        assert v.stats["rankDecided"] == 1 and v.stats["lpSolved"] == 0

    def test_one_matmul_would_round_the_grid_differently(self):
        # the walk mixes each lambda with its own vector-matrix product; one
        # lambdas @ verts product over the grid rounds some mixtures
        # differently, which the payload comparison above would report
        differ = 0
        for _, verts, _ in GRID_CASES[:-1]:
            lambdas = sampling.simplex_weights(len(verts), certify.SIMPLEX_GRID_DEPTH)
            one = (lambdas @ verts.reshape(len(verts), -1)).reshape(-1, *verts.shape[1:])
            differ += not np.array_equal(one, _stack_per_lambda(lambdas, verts))
        assert differ > 0

    def test_stacked_svd_is_each_matrix_own(self):
        for _, verts, _ in GRID_CASES[:-1]:
            lambdas = sampling.simplex_weights(len(verts), certify.SIMPLEX_GRID_DEPTH)
            stack = _stack_per_lambda(lambdas, verts)
            stack = np.concatenate([stack, _alt.unit_scale(stack)])
            u, sigma, _ = np.linalg.svd(stack, full_matrices=True)
            for a, u_a, sigma_a in zip(stack, u, sigma):
                own_u, own_sigma, _ = np.linalg.svd(a, full_matrices=True)
                assert np.array_equal(own_u, u_a) and np.array_equal(own_sigma, sigma_a)

    def test_rank_of_a_stack_is_each_row_rank(self):
        sigmas = np.array([[2.0, 1.0], [2.0, 1e-7], [2.0, 1e-10], [0.0, 0.0], [5e-324, 0.0]])
        assert _alt.rank(sigmas).tolist() == [2, -1, 1, 0, 1]
        assert [int(_alt.rank(s)) for s in sigmas] == [2, -1, 1, 0, 1]
        assert int(_alt.rank(np.zeros(0))) == 0

    def test_unit_scale_of_a_stack_is_each_matrix_own(self):
        def alone(a):  # one matrix or vector: a / max|a|, a zero a as is
            peak = float(np.max(np.abs(a)))
            return a / peak if peak > 0.0 else a

        rng = np.random.default_rng(7)
        scales = np.array([1.0, 1e-300, 5e-324, 1e300, 0.0])
        stack = rng.uniform(-1.0, 1.0, size=(5, 3, 2)) * scales[:, None, None]
        stack[4, 0, 0] = -0.0
        for a, unit in zip(stack, _alt.unit_scale(stack)):
            assert unit.tobytes() == alone(a).tobytes() == _alt.unit_scale(a).tobytes()
            assert _alt.unit_scale(a[:, 0]).tobytes() == alone(a[:, 0]).tobytes()


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.xfail(
    strict=True,
    reason="criticality is decided on the depth-8 lambda grid only: the critical "
    "mixtures of this kink lie strictly between the grid points 1/2 and 5/8",
)
def test_critical_mixture_between_grid_points():
    # pieces (x1, x1) on x1 <= 0 and (-x1, -0.9 x1) on x1 >= 0: the mixture
    # t (1, 1) + (1 - t) (-1, -0.9) has entries of opposite signs, so a
    # strictly positive mu annihilates it, exactly for t in (0.4737, 0.5)
    problem = Problem.from_dict(
        {
            "version": "vvicert/1",
            "n": 1,
            "m": 2,
            "domain": [[-2.0, 2.0]],
            "pieces": [
                {"region": "x1 <= 0", "components": ["x1", "x1"]},
                {"region": "x1 >= 0", "components": ["-x1", "-0.9*x1"]},
            ],
            "cone": {"orthant": 2},
            "kernel": {"kind": "difference"},
            "e": [0.1, 0.1],
        }
    )
    v = check_vector_critical(problem.f, problem.cone, [0.0], SamplingPlan())
    assert v.certified
