import numpy as np
import pytest

from vvicert import exprlang as el
from vvicert.errors import (
    DivisionByZeroError,
    NonSmoothOperatorError,
    ParseError,
)

from conftest import random_smooth_expr


class TestParse:
    def test_basic_eval(self):
        e = el.parse("4*x1 - x1^2", 1)
        assert el.evaluate(e, [2.0]) == pytest.approx(4.0)

    def test_dangling_operator_position(self):
        with pytest.raises(ParseError) as exc:
            el.parse("x1 +", 1)
        assert exc.value.position == 4

    def test_first_component_branch(self):
        e = el.parse("-x1^3 - x1^2 + 5*x1", 1)
        assert el.evaluate(e, [1.0]) == pytest.approx(3.0)
        assert el.evaluate(e, [0.0]) == pytest.approx(0.0)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            el.parse("4*z1", 1)

    def test_variable_index_out_of_range(self):
        with pytest.raises(ParseError):
            el.parse("x3 + 1", 2)

    def test_abs_rejected_outside_predicates(self):
        with pytest.raises(ParseError):
            el.parse("abs(x1)", 1)
        # but accepted inside a predicate
        p = el.parse_predicate("abs(x1) <= 1", 1)
        assert el.predicate_holds(p, [0.5])
        assert not el.predicate_holds(p, [1.5])

    def test_kernel_context_variables(self):
        e = el.parse("x1 - y1", 1, context="kernel")
        assert el.evaluate(e, [3.0], y=[1.0]) == pytest.approx(2.0)
        with pytest.raises(ParseError):
            el.parse("x1 - y1", 1, context="function")

    def test_region_over_x_only(self):
        # regions are tested without y, so a region naming y1 is refused
        with pytest.raises(ParseError, match="'y' variables") as exc:
            el.parse_predicate("x1 + y1 >= 0", 1)
        assert exc.value.position == 5
        with pytest.raises(TypeError):
            el.parse_predicate("x1 + y1 >= 0", 1, context="kernel")

    def test_bare_x_alias_dim1_only(self):
        assert el.evaluate(el.parse("x^2", 1), [3.0]) == pytest.approx(9.0)
        with pytest.raises(ParseError):
            el.parse("x + x2", 2)

    def test_empty_text(self):
        with pytest.raises(ParseError):
            el.parse("   ", 1)

    def test_unicode_operators(self):
        e = el.parse("4*x1 − x1^2", 1)
        assert el.evaluate(e, [2.0]) == pytest.approx(4.0)
        p = el.parse_predicate("x1 ≥ 0", 1)
        assert el.predicate_holds(p, [0.1])


class TestEval:
    def test_second_component_at_one(self):
        e = el.parse("x1^2 - 2*x1", 1)
        assert el.evaluate(e, [1.0]) == pytest.approx(-1.0)

    def test_division_by_zero_reports_subexpression(self):
        e = el.parse("x1/x1", 1)
        with pytest.raises(DivisionByZeroError) as exc:
            el.evaluate(e, [0.0])
        assert "x1/x1" in str(exc.value)

    def test_phi_branch(self):
        e = el.parse("4*x1 - x1^2", 1)
        assert el.evaluate(e, [0.5]) == pytest.approx(1.75)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            text = random_smooth_expr(rng, 2)
            e = el.parse(text, 2)
            pts = rng.uniform(-1, 1, size=(16, 2))
            batch = el.evaluate_many(e, pts)
            for i, p in enumerate(pts):
                assert batch[i] == pytest.approx(el.evaluate(e, p), rel=1e-12, abs=1e-12)


class TestDifferentiate:
    def test_cubic_derivative(self):
        e = el.parse("-x1^3 - x1^2 + 5*x1", 1)
        d = el.differentiate(e, 0)
        assert el.evaluate(d, [1.0]) == pytest.approx(0.0)  # -3 - 2 + 5
        assert el.evaluate(d, [0.0]) == pytest.approx(5.0)

    def test_constant_derivative_is_zero(self):
        d = el.differentiate(el.parse("7", 1), 0)
        assert isinstance(d, el.Const)
        assert d.value == 0.0

    def test_upper_endpoint_gradient(self):
        d = el.differentiate(el.parse("4*x1 - x1^2", 1), 0)
        assert el.evaluate(d, [0.0]) == pytest.approx(4.0)

    def test_abs_raises(self):
        p = el.parse_predicate("abs(x1) <= 1", 1)
        inner = el.boundary_expressions(p)[0]
        with pytest.raises(NonSmoothOperatorError):
            el.differentiate(inner, 0)

    def test_quotient_rule(self):
        e = el.parse("x1/(2 + x1^2)", 1)
        d = el.differentiate(e, 0)
        # d/dx x/(2+x^2) = (2 - x^2)/(2 + x^2)^2
        for x in (0.0, 0.5, -1.2):
            want = (2 - x * x) / (2 + x * x) ** 2
            assert el.evaluate(d, [x]) == pytest.approx(want, rel=1e-12)


class TestProperties:
    def test_roundtrip_100_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            text = random_smooth_expr(rng, dim)
            e = el.parse(text, dim)
            back = el.parse(el.to_string(e), dim)
            pts = rng.uniform(-1, 1, size=(100, dim))
            va = el.evaluate_many(e, pts)
            vb = el.evaluate_many(back, pts)
            scale = np.maximum(1.0, np.abs(va))
            assert np.all(np.abs(va - vb) <= 1e-12 * scale)

    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(60):
            dim = int(rng.integers(1, 4))
            e = el.parse(random_smooth_expr(rng, dim), dim)
            var = int(rng.integers(0, dim))
            d = el.differentiate(e, var)
            for _ in range(5):
                x = rng.uniform(-1, 1, size=dim)
                step = np.zeros(dim)
                step[var] = h
                fd = (el.evaluate(e, x + step) - el.evaluate(e, x - step)) / (2 * h)
                sym = el.evaluate(d, x)
                assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))

    def test_differentiation_linear_over_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            dim = int(rng.integers(1, 3))
            ta = random_smooth_expr(rng, dim, depth=2)
            tb = random_smooth_expr(rng, dim, depth=2)
            da = el.differentiate(el.parse(ta, dim), 0)
            db = el.differentiate(el.parse(tb, dim), 0)
            dsum = el.differentiate(el.parse(f"({ta}) + ({tb})", dim), 0)
            pts = rng.uniform(-1, 1, size=(32, dim))
            lhs = el.evaluate_many(dsum, pts)
            rhs = el.evaluate_many(da, pts) + el.evaluate_many(db, pts)
            assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-11)

    def test_eval_deterministic(self):
        e = el.parse("x1^3 - 2*x1 + 0.25", 1)
        vals = {el.evaluate(e, [0.7]) for _ in range(10)}
        assert len(vals) == 1


class TestScalarIsOneBatchRow:
    """numpy takes different power routines for a scalar and for an array,
    which disagree in the last bit on a few percent of these draws; a single
    point must get the bits of its one-row batch."""

    @pytest.mark.parametrize(
        "text, predicate",
        [
            # each holds or not by the last bit of the power
            ("(x1 + 0.1)^3", "(x1 + 0.1)^3 < (x1 + 0.1)*(x1 + 0.1)*(x1 + 0.1)"),
            ("(x1 + 0.1)^-2", "(x1 + 0.1)^-2*((x1 + 0.1)*(x1 + 0.1)) < 1"),
        ],
    )
    def test_power_draws(self, text, predicate):
        e = el.parse(text, 1)
        p = el.parse_predicate(predicate, 1)
        pts = np.random.default_rng(5).uniform(-3.0, 3.0, size=(100_000, 1))
        got = np.array([el.evaluate(e, x) for x in pts])
        want = np.array([el.evaluate_many(e, x[None])[0] for x in pts])
        assert got.tobytes() == want.tobytes()
        got = np.array([el.predicate_holds(p, x) for x in pts])
        want = np.array([el.predicate_holds_many(p, x[None])[0] for x in pts])
        assert np.array_equal(got, want)


class TestPredicates:
    def test_equality_tolerance(self):
        p = el.parse_predicate("x1 = 0", 1)
        assert el.predicate_holds(p, [5e-10])
        assert not el.predicate_holds(p, [5e-9])

    def test_and_or(self):
        p = el.parse_predicate("x1 >= 0 and x1 <= 1 or x1 >= 2", 1)
        assert el.predicate_holds(p, [0.5])
        assert not el.predicate_holds(p, [1.5])
        assert el.predicate_holds(p, [2.5])

    def test_slack_inflation(self):
        p = el.parse_predicate("x1 >= 0", 1)
        assert not el.predicate_holds(p, [-1e-8])
        assert el.predicate_holds(p, [-1e-8], slack=1e-7)

    def test_boundary_expressions(self):
        p = el.parse_predicate("x1 >= 0 and x2 <= 1", 2)
        exprs = el.boundary_expressions(p)
        assert len(exprs) == 2
