"""``PiecewiseVectorFn.values`` and ``certify._pair_table`` give exactly what
the versions they replaced gave. Those versions are kept below as private
references: a values() that builds every piece's values on every row and
checks continuity on all of them, and a pair table that evaluates every row
of both sides. Every comparison is by bytes, and a raised error by its type
and text."""

import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import criterion_10_instances
from vvicert import certify, exprlang as el, sampling
from vvicert.errors import InconsistentPiecesError, NoActivePieceError, VviCertError
from vvicert.model import CONTINUITY_TOL, TOL_ACTIVE, Kernel, PiecewiseVectorFn, boundary_probes

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
RADIUS = 0.25
COUNT = 300


# ---------------------------------------------------------------------------
# References: every piece on every row
# ---------------------------------------------------------------------------

def _values_reference(f, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mask = f.active_mask(x, 0.0)
    covered = mask.any(axis=0)
    if not covered.all():
        bad = x[~covered][0]
        raise NoActivePieceError(f"no region covers point {bad.tolist()}")
    vals = np.full((len(f.pieces), x.shape[0], f.m), np.nan)
    for j, piece in enumerate(f.pieces):
        idx = np.nonzero(mask[j])[0]
        if idx.size == 0:
            continue
        sub = x[idx]
        for i, comp in enumerate(piece.components):
            vals[j, idx, i] = el.evaluate_many(comp, sub)
    out = vals[mask.argmax(axis=0), np.arange(len(x))]
    if len(f.pieces) > 1:
        dev = np.nanmax(
            np.abs(np.where(mask[:, :, None], vals, out[None, :, :]) - out[None, :, :]),
            axis=(0, 2),
        )
        # a row with no finite deviation decides nothing
        worst = int(np.argmax(np.where(np.isnan(dev), -np.inf, dev)))
        if dev[worst] > CONTINUITY_TOL:
            raise InconsistentPiecesError(
                f"active pieces disagree by {dev[worst]:.3e} at {x[worst].tolist()}"
            )
    return out


def _pair_table_reference(f, kernel, xs, ys):
    eta = kernel.eval_many(xs, ys)
    eta_norm = np.linalg.norm(eta, axis=1)
    fx, fy = _values_reference(f, xs), _values_reference(f, ys)
    active = f.active_mask(ys, TOL_ACTIVE)
    prods = np.zeros((len(f.pieces), ys.shape[0], f.m))
    for j in range(len(f.pieces)):
        idx = np.nonzero(active[j])[0]
        if idx.size == 0:
            continue
        jac = f.piece_jacobians_many(j, ys[idx])
        prods[j, idx] = np.einsum("kmn,kn->km", jac, eta[idx])
    return eta_norm, fx - fy, prods, active, fx, fy


def _outcome(fn, *args):
    """The bytes of every array fn returns, or the type and text of its error."""
    with warnings.catch_warnings():
        # rows without a finite value warn in the NaN-ignoring reductions
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            out = fn(*args)
        except VviCertError as exc:
            return type(exc).__name__, str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


def _both(f, kernel, xs, ys):
    """(package, reference) outcomes of values on each side and of the table."""
    got = [_outcome(f.values, a) for a in (xs, ys)] + [
        _outcome(certify._pair_table, f, kernel, xs, ys)]
    want = [_outcome(_values_reference, f, a) for a in (xs, ys)] + [
        _outcome(_pair_table_reference, f, kernel, xs, ys)]
    return got, want


# ---------------------------------------------------------------------------
# Problem sets
# ---------------------------------------------------------------------------

def _audit_matrix_problems():
    spec = importlib.util.spec_from_file_location("perfbench_workloads_values", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        inputs = module.build_inputs("audit-matrix", 1)
        return [(pid, p, module._point_name(p)) for pid, p in inputs.problems.items()]
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def problem_set(example5, example23):
    out = [(f"criterion-10 {p.name or 'fixture'}", p, at)
           for p, at in criterion_10_instances(example5, example23)]
    return out + [(f"audit-matrix {pid}", p, at) for pid, p, at in _audit_matrix_problems()]


def _audit_sides(f, xi):
    """The two sides of the audit's forward pair tables on f and on -f: the
    probe pairs, the ball paired with xi (tiled) and the sampled pairs."""
    px, py = certify._probe_pairs(xi, boundary_probes(f, xi, RADIUS))
    ball = sampling.ball_points(xi, RADIUS, COUNT, 42)
    sx, sy = sampling.ball_pairs(xi, RADIUS, COUNT, 42)
    tiled = np.tile(xi, (COUNT, 1))
    return (np.vstack([px, ball, sx]), np.vstack([py, tiled, sy])), (
        np.vstack([py, tiled, sx]), np.vstack([px, ball, sy]))


class TestAgainstTheReferences:
    def test_problem_sets(self, problem_set):
        assert len(problem_set) == 102 + 64
        errors = set()
        for label, problem, at in problem_set:
            xi = problem.point(at)
            forward, backward = _audit_sides(problem.f, xi)
            for g, (xs, ys) in ((problem.f, forward), (problem.f.negated(), backward)):
                got, want = _both(g, problem.kernel, xs, ys)
                assert got == want, label
                errors.update(o[0] for o in want if isinstance(o, tuple))
        # some balls leave the domain: the error path is compared too
        assert errors <= {"NoActivePieceError"}


# ---------------------------------------------------------------------------
# Hand cases
# ---------------------------------------------------------------------------

def _f(pieces, n=1):
    """f on [-2, 2]^n from (region, components) pairs."""
    return PiecewiseVectorFn.from_dict({
        "n": n, "m": len(pieces[0][1]), "domain": [[-2.0, 2.0]] * n,
        "pieces": [{"region": r, "components": list(c)} for r, c in pieces],
    })


HAND = {
    "single piece": _f([("0 <= 1", ["x1", "-x1"])]),
    "two at a kink": _f([("x1 <= 0", ["-x1", "2*x1"]), ("x1 >= 0", ["x1", "3*x1"])]),
    "three at one point": _f([("x1 <= 0", ["x1", "x1^2"]), ("x1 >= 0", ["2*x1", "x1^3"]),
                              ("x1^2 <= 0", ["0*x1", "0*x1"])]),
    "jump": _f([("x1 <= 0", ["0", "0"]), ("x1 >= 0", ["1 + x1", "0"])]),
    "third piece jumps": _f([("x1 <= 0", ["x1", "0"]), ("x1 >= 0", ["x1", "0"]),
                             ("x1^2 <= 0", ["0.5", "0"])]),
    "jumps along a line": _f([("x1 <= 0", ["0", "0"]), ("x1 >= 0", ["x2", "x2^2"])], n=2),
    "uncovered gap": _f([("x1 <= -1", ["x1", "0"]), ("x1 >= 1", ["x1", "0"])]),
    # both components overflow to inf far left, so that row has no finite value
    "overflow and jump": _f([("x1 <= 0", ["(10*x1)^400", "(10*x1)^400"]),
                             ("x1 >= 0", ["1 + x1", "0"])]),
    "overflow in one component": _f([("x1 <= 0", ["(10*x1)^400", "x1"]),
                                     ("x1 >= 0", ["1 + x1", "0"])]),
}

ROWS = {
    1: [
        [[-1.0], [-0.0], [0.0], [0.5], [0.0], [0.0], [0.0]],
        [[0.0], [-0.0], [-0.0], [0.0], [0.0]],
        [[0.3], [0.0], [1.5], [-1.9]],
        [[-1.9], [0.0]],
        [[0.0], [-1.9]],
        [[-1.9], [-1.9], [0.7]],
        [[0.0]],
        [[-1.5], [0.5], [1.5]],
    ],
    2: [
        [[0.0, 0.1], [0.0, 0.5], [0.0, 0.5], [0.3, 0.2], [-0.0, -0.5]],
        [[0.3, 0.2], [0.3, 0.2], [0.0, -0.0]],
        [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]],
    ],
}


def _hand_pairs(n):
    """(xs, ys) pairs of the hand rows: as given, one side tiled, both tiled,
    and each row against every row of the same batch."""
    for rows in ROWS[n]:
        a = np.array(rows, dtype=float)
        tiled = np.tile(a[:1], (len(a), 1))
        yield a, a[::-1].copy()
        yield a, tiled
        yield tiled, a
        yield tiled, tiled.copy()
        yield np.repeat(a, len(a), axis=0), np.tile(a, (len(a), 1))


class TestHandCases:
    @pytest.mark.parametrize("name", sorted(HAND))
    def test_matches_the_references(self, name):
        f = HAND[name]
        for kernel in (Kernel("difference", f.n), Kernel("negNormDifference", f.n)):
            for xs, ys in _hand_pairs(f.n):
                for g in (f, f.negated()):
                    got, want = _both(g, kernel, xs, ys)
                    assert got == want, (name, xs.tolist(), ys.tolist())

    def test_hand_cases_reach_every_outcome(self):
        # the texts compared above include each error
        f = HAND["jump"]
        with pytest.raises(InconsistentPiecesError, match=r"by 1\.000e\+00 at \[0\.0\]"):
            f.values(np.array([[0.3], [0.0]]))
        with pytest.raises(NoActivePieceError, match=r"covers point \[0\.5\]"):
            HAND["uncovered gap"].values(np.array([[-1.5], [0.5], [0.7]]))
        with pytest.raises(InconsistentPiecesError, match=r"by 5\.000e-01 at \[0\.0, 0\.5\]"):
            HAND["jumps along a line"].values(np.array(ROWS[2][0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(InconsistentPiecesError):
                HAND["overflow and jump"].values(np.array([[-1.9], [0.0]]))
            with pytest.raises(InconsistentPiecesError):
                HAND["overflow in one component"].values(np.array([[-1.9], [0.0]]))

    def test_row_without_finite_value_hides_no_jump(self):
        # the jump at x = 0 raises the same error alone and beside a row
        # whose values all overflow
        f = HAND["overflow and jump"]
        errors = []
        for rows in ([[0.0]], [[-1.9], [0.0]], [[0.0], [-1.9]]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(InconsistentPiecesError) as caught:
                    f.values(np.array(rows))
            errors.append(str(caught.value))
        assert errors == ["active pieces disagree by 1.000e+00 at [0.0]"] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert np.isinf(f.values(np.array([[-1.9]]))).all()

    def test_signed_zero_rows_stay_apart(self):
        f = HAND["single piece"]
        xs = np.array([[0.0], [-0.0], [-0.0], [0.0]])
        fx = certify._pair_table(f, Kernel("difference", 1), xs, xs[::-1].copy())[4]
        assert np.signbit(fx[:, 0]).tolist() == [False, True, True, False]
