"""The expression nodes evaluate, differentiate and print exactly as the
type-switch functions they replaced, and the parser builds the trees that the
parent commit's hand-written parser built. Those functions are kept below as
private references, and every comparison is exact: same values, same dtype,
same derivative trees, same text, same exceptions and messages. The trees are
pinned by digest."""

import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from vvicert import audit
from vvicert import exprlang as el
from vvicert.errors import (
    DimensionMismatchError,
    DivisionByZeroError,
    NonSmoothOperatorError,
)

from conftest import random_smooth_expr


# ---------------------------------------------------------------------------
# References: one isinstance ladder per job
# ---------------------------------------------------------------------------

def _eval_reference(e, x, y):
    if isinstance(e, el.Const):
        return e.value
    if isinstance(e, el.Var):
        arr = x if e.axis == "x" else y
        if arr is None:
            raise DimensionMismatchError(
                f"variable {e.axis}{e.index + 1} has no bound value"
            )
        return arr[..., e.index]
    if isinstance(e, el.Add):
        return _eval_reference(e.left, x, y) + _eval_reference(e.right, x, y)
    if isinstance(e, el.Sub):
        return _eval_reference(e.left, x, y) - _eval_reference(e.right, x, y)
    if isinstance(e, el.Mul):
        return _eval_reference(e.left, x, y) * _eval_reference(e.right, x, y)
    if isinstance(e, el.Div):
        num = _eval_reference(e.left, x, y)
        den = _eval_reference(e.right, x, y)
        if np.any(np.asarray(den) == 0.0):
            raise DivisionByZeroError(_to_string_reference(e))
        return num / den
    if isinstance(e, el.Pow):
        base = _eval_reference(e.base, x, y)
        if e.exponent < 0 and np.any(np.asarray(base) == 0.0):
            raise DivisionByZeroError(_to_string_reference(e))
        return base ** e.exponent
    if isinstance(e, el.Neg):
        return -_eval_reference(e.child, x, y)
    if isinstance(e, el.Abs):
        return np.abs(_eval_reference(e.child, x, y))
    raise TypeError(f"unknown node {type(e).__name__}")


def _differentiate_reference(e, var, axis="x"):
    d = _differentiate_reference
    if isinstance(e, el.Const):
        return el._const(0.0)
    if isinstance(e, el.Var):
        return el._const(1.0) if (e.axis == axis and e.index == var) else el._const(0.0)
    if isinstance(e, el.Add):
        return el._add(d(e.left, var, axis), d(e.right, var, axis))
    if isinstance(e, el.Sub):
        return el._sub(d(e.left, var, axis), d(e.right, var, axis))
    if isinstance(e, el.Mul):
        return el._add(
            el._mul(d(e.left, var, axis), e.right),
            el._mul(e.left, d(e.right, var, axis)),
        )
    if isinstance(e, el.Div):
        num = el._sub(
            el._mul(d(e.left, var, axis), e.right),
            el._mul(e.left, d(e.right, var, axis)),
        )
        return el._div(num, el._pow(e.right, 2))
    if isinstance(e, el.Pow):
        inner = d(e.base, var, axis)
        return el._mul(
            el._mul(el._const(float(e.exponent)), el._pow(e.base, e.exponent - 1)), inner
        )
    if isinstance(e, el.Neg):
        return el._neg(d(e.child, var, axis))
    if isinstance(e, el.Abs):
        raise NonSmoothOperatorError("cannot differentiate through abs")
    raise TypeError(f"unknown node {type(e).__name__}")


_PRECEDENCE = {
    el.Add: 1, el.Sub: 1, el.Mul: 2, el.Div: 2, el.Neg: 3, el.Pow: 4,
    el.Const: 5, el.Var: 5, el.Abs: 5,
}


def _paren_reference(child, parent_prec, right_side=False):
    text = _to_string_reference(child)
    prec = _PRECEDENCE[type(child)]
    if prec < parent_prec or (right_side and prec == parent_prec):
        return f"({text})"
    return text


def _to_string_reference(e):
    p = _paren_reference
    if isinstance(e, el.Const):
        return repr(e.value)
    if isinstance(e, el.Var):
        return f"{e.axis}{e.index + 1}"
    if isinstance(e, el.Add):
        return f"{p(e.left, 1)} + {p(e.right, 1)}"
    if isinstance(e, el.Sub):
        return f"{p(e.left, 1)} - {p(e.right, 1, right_side=True)}"
    if isinstance(e, el.Mul):
        return f"{p(e.left, 2)}*{p(e.right, 2)}"
    if isinstance(e, el.Div):
        return f"{p(e.left, 2)}/{p(e.right, 2, right_side=True)}"
    if isinstance(e, el.Pow):
        return f"{p(e.base, 5)}^{e.exponent}"
    if isinstance(e, el.Neg):
        return f"-{p(e.child, 3)}"
    if isinstance(e, el.Abs):
        return f"abs({_to_string_reference(e.child)})"
    raise TypeError(f"unknown node {type(e).__name__}")


def _compare_reference(diff, op, slack):
    if op == "<":
        return diff < slack
    if op == "<=":
        return diff <= slack
    if op == ">":
        return diff > -slack
    if op == ">=":
        return diff >= -slack
    if op == "=":
        return np.abs(diff) <= el.EQ_TOLERANCE + slack
    raise ValueError(f"unknown comparison {op!r}")


def _pred_eval_reference(p, x, slack):
    if isinstance(p, el.Comparison):
        diff = _eval_reference(p.left, x, None) - _eval_reference(p.right, x, None)
        return _compare_reference(diff, p.op, slack)
    if isinstance(p, el.BoolOp):
        vals = [_pred_eval_reference(q, x, slack) for q in p.parts]
        out = vals[0]
        for v in vals[1:]:
            out = np.logical_and(out, v) if p.op == "and" else np.logical_or(out, v)
        return out
    raise TypeError(f"unknown predicate {type(p).__name__}")


def _boundary_expressions_reference(p):
    if isinstance(p, el.Comparison):
        return [el._sub(p.left, p.right)]
    if isinstance(p, el.BoolOp):
        out = []
        for q in p.parts:
            out.extend(_boundary_expressions_reference(q))
        return out
    raise TypeError(f"unknown predicate {type(p).__name__}")


# the public wrappers around the references; a single point is evaluated
# as the one row of a batch


def _evaluate_reference(e, point, y=None):
    yv = None if y is None else np.asarray(y, dtype=float)[None]
    return float(_evaluate_many_reference(e, np.asarray(point, dtype=float)[None], yv)[0])


def _evaluate_many_reference(e, x, y=None):
    x = np.asarray(x, dtype=float)
    out = _eval_reference(e, x, None if y is None else np.asarray(y, dtype=float))
    if np.ndim(out) == 0:
        return np.full(x.shape[0], float(out))
    return np.asarray(out, dtype=float)


def _predicate_holds_many_reference(p, x, slack=0.0):
    x = np.asarray(x, dtype=float)
    out = _pred_eval_reference(p, x, slack)
    if np.ndim(out) == 0:
        return np.full(x.shape[0], bool(out))
    return np.asarray(out, dtype=bool)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def _assert_same(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def _assert_same_outcome(fn, ref, *args):
    """fn and ref return the same value, or raise the same error and message."""
    try:
        want = ref(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            fn(*args)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    _assert_same(fn(*args), want)


def _node_ev(e, x, y):
    return e.ev(x, y)


def _node_holds(p, x, slack):
    return p.holds(x, slack)


def _assert_same_evaluation(e, x, y=None):
    """The batch, each row and the raw node values all agree exactly."""
    _assert_same_outcome(el.evaluate_many, _evaluate_many_reference, e, x, y)
    _assert_same_outcome(_node_ev, _eval_reference, e, x, y)
    for i in range(len(x)):
        yi = None if y is None else y[i]
        _assert_same_outcome(el.evaluate, _evaluate_reference, e, x[i], yi)
        _assert_same_outcome(_node_ev, _eval_reference, e, x[i], yi)


def _assert_same_predicate(p, x, slack):
    _assert_same_outcome(el.predicate_holds_many, _predicate_holds_many_reference, p, x, slack)
    _assert_same_outcome(_node_holds, _pred_eval_reference, p, x, slack)
    for row in x:
        want = bool(_predicate_holds_many_reference(p, row[None], slack)[0])
        assert el.predicate_holds(p, row, slack) is want
    assert el.boundary_expressions(p) == _boundary_expressions_reference(p)


def _random_trees(count=300):
    rng = np.random.default_rng(20261019)
    for k in range(count):
        dim = 1 + k % 3
        depth = int(rng.integers(1, 5))
        yield dim, el.parse(random_smooth_expr(rng, dim, depth), dim), rng


class TestRandomTrees:
    def test_values_match_the_ladder(self):
        for dim, e, rng in _random_trees():
            x = rng.uniform(-1.0, 1.0, size=(17, dim))
            x[0] = 0.0
            _assert_same_evaluation(e, x)

    def test_derivative_trees_match_the_ladder(self):
        for dim, e, _ in _random_trees():
            for var in range(dim + 1):  # var = dim is a variable the tree lacks
                d = el.differentiate(e, var)
                assert d == _differentiate_reference(e, var)
                assert el.differentiate(d, 0) == _differentiate_reference(d, 0)

    def test_text_matches_the_ladder(self):
        for dim, e, _ in _random_trees():
            assert el.to_string(e) == _to_string_reference(e)
            for var in range(dim):
                d = el.differentiate(e, var)
                assert el.to_string(d) == _to_string_reference(d)

    def test_random_predicates_match_the_ladder(self):
        rng = np.random.default_rng(7)
        ops = ("<", "<=", "=", ">=", ">")
        for k in range(120):
            dim = 1 + k % 3
            comparisons = []
            for _ in range(int(rng.integers(1, 5))):
                left = random_smooth_expr(rng, dim, int(rng.integers(0, 3)))
                if rng.integers(0, 2):
                    left = f"abs({left})"
                right = random_smooth_expr(rng, dim, 0)
                comparisons.append(f"{left} {ops[int(rng.integers(0, 5))]} {right}")
            text = comparisons[0]
            for c in comparisons[1:]:
                text = f"{text} {('and', 'or')[int(rng.integers(0, 2))]} {c}"
            p = el.parse_predicate(text, dim)
            x = np.round(rng.uniform(-1.0, 1.0, size=(33, dim)), 1)
            for slack in (0.0, 1e-3, 0.25):
                _assert_same_predicate(p, x, slack)


class TestHandCases:
    def test_kernel_y_variables(self):
        e = el.parse("x1*y2 - y1^2/(1 + x2^2) + (y2 - x1)^3", 2, context="kernel")
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1, 1, size=(9, 2)), rng.uniform(-1, 1, size=(9, 2))
        _assert_same_evaluation(e, x, y)
        assert el.to_string(e) == _to_string_reference(e)
        for var in (0, 1):
            assert el.differentiate(e, var) == _differentiate_reference(e, var)

    def test_unbound_y_raises_the_same_error(self):
        e = el.parse("x1 - y2", 2, context="kernel")
        x = np.ones((3, 2))
        _assert_same_evaluation(e, x)
        with pytest.raises(DimensionMismatchError, match="y2 has no bound value"):
            el.evaluate(e, x[0])

    def test_negative_exponent_at_zero(self):
        e = el.parse("3 + (x1 - x2)^-2", 2)
        x = np.array([[0.5, 0.5], [1.0, 0.0]])
        _assert_same_evaluation(e, x)
        _assert_same_evaluation(e, x[1:])
        with pytest.raises(DivisionByZeroError) as exc:
            el.evaluate(e, x[0])
        assert str(exc.value) == str(DivisionByZeroError(_to_string_reference(e.right)))

    def test_zero_denominator(self):
        e = el.parse("x1/(x1 - 2*x2) - 1/(1 + x1)", 2)
        x = np.array([[2.0, 1.0], [1.0, 0.0], [-1.0, 3.0]])
        for rows in (x, x[:1], x[1:2], x[2:]):
            _assert_same_evaluation(e, rows)
        with pytest.raises(DivisionByZeroError) as exc:
            el.evaluate_many(e, x)
        assert "x1/(x1 - 2.0*x2)" in str(exc.value)

    def test_constant_trees(self):
        for text in ("2 + 3", "-(4)^-1", "1/8 - 0.5^3"):
            e = el.parse(text, 2)
            _assert_same_evaluation(e, np.zeros((4, 2)))
            assert el.to_string(e) == _to_string_reference(e)
            assert el.differentiate(e, 1) == _differentiate_reference(e, 1)

    def test_abs_and_equality_in_predicates(self):
        x = np.array([[0.5, 0.0], [0.5 + 5e-10, 0.0], [0.501, 0.0], [-0.5, 0.0], [0.0, 0.0]])
        for text in ("abs(x1 - x2) = 0.5", "abs(x1) <= 0.5", "x1 = x2", "abs(x1) > x2 + 0.5"):
            p = el.parse_predicate(text, 2)
            for slack in (0.0, 1e-9, 1e-3):
                _assert_same_predicate(p, x, slack)
        inner = el.boundary_expressions(el.parse_predicate("abs(x1) = 1", 2))[0]
        _assert_same_outcome(el.differentiate, _differentiate_reference, inner, 0)

    def test_nested_and_or(self):
        text = "x1 < 0 or x2 > 0 and abs(x1) <= 1 or x1 = x2 and x1 >= -0.5 and 0 <= 1"
        p = el.parse_predicate(text, 2)
        assert isinstance(p, el.BoolOp) and p.op == "or" and len(p.parts) == 3
        x = np.array(np.meshgrid([-1.0, -0.5, 0.0, 0.5], [-0.5, 0.0, 0.5])).reshape(2, -1).T
        for slack in (0.0, 0.5):
            _assert_same_predicate(p, x, slack)

    def test_constant_predicate(self):
        p = el.parse_predicate("0 <= 1 and 2 > 3 or 1 = 1", 1)
        _assert_same_predicate(p, np.zeros((3, 1)), 0.0)


def _problem_trees(spec: dict) -> list:
    """The trees of every component, then of every region, of a problem-file dict."""
    n, pieces = spec["n"], spec["pieces"]
    return [el.parse(c, n) for piece in pieces for c in piece["components"]] + [
        el.parse_predicate(piece["region"], n) for piece in pieces
    ]


def _digest(trees) -> str:
    return hashlib.sha256("\n".join(map(repr, trees)).encode()).hexdigest()


class TestParserTrees:
    """sha256 of the reprs of the trees of each part of the corpus, one per
    line, as the recursive-descent parser of the parent commit built them."""

    PINNED = {
        "example5": "0cafb7a4d0c60695275cf832865aff68b2322e33b11c79679a911ff4c2457c1f",
        "example23": "e27552f3ab4d94c9d9d480ea078b7a201d39487da0fc7110e5a5c42b8494b566",
        "generated": "18ade88cf34fb6575d980a79cba4c0e871add928a7ccf979e5a96d3862d1f932",
        "hand chains": "a677ca2fbc7ae66b2978afd9c328392efb561e5b4df125978226347e40de6070",
        "kernel": "69126f331148f6d5b337726701f5732dcfede2028d65e585ab738e84b8cf400c",
    }
    HAND_CHAINS = (
        "x1 - x2 + x3", "x1/x2/x3", "x1 - x2*x3/x4 + 2", "-x1^2", "2 - -x1",
        "x1 - (x2 - x3)", "(x1 + 1)^-2", "x1*x2 - x3/x4*x1 + -x2 - 3/4/x1",
    )

    @pytest.mark.parametrize("name", ["example5", "example23"])
    def test_fixture_texts(self, name):
        text = resources.files("vvicert").joinpath(f"fixtures/{name}.json").read_text()
        assert _digest(_problem_trees(json.loads(text))) == self.PINNED[name]

    def test_generated_instance_texts(self):
        trees = [
            tree for problem, _ in audit.generated_instances(100, 0)
            for tree in _problem_trees(problem.to_dict())
        ]
        assert _digest(trees) == self.PINNED["generated"]

    def test_hand_chain_trees(self):
        trees = [el.parse(text, 4) for text in self.HAND_CHAINS]
        assert _digest(trees) == self.PINNED["hand chains"]

    @pytest.mark.parametrize("text", HAND_CHAINS)
    def test_hand_chains(self, text):
        assert el.parse(el.to_string(el.parse(text, 4)), 4) == el.parse(text, 4)

    def test_kernel_context(self):
        tree = el.parse("x1 - y1*x2/y2 - (y1 - x1)", 2, "kernel")
        assert _digest([tree]) == self.PINNED["kernel"]
