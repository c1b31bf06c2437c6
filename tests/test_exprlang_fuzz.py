"""Property tests of the expression language over drawn texts: every text
gets a tree or a ParseError that points into it, every expression tree
prints to a text that parses back to it, and the CLI gives every drawn
component a verdict or exit 2."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from vvicert import exprlang as el
from vvicert.cli import load_problem, main
from vvicert.errors import ParseError

TOKENS = (
    "x1", "x2", "x", "X1", "y1", "abs", "and", "or", "AND", "not", "(", ")", "+", "-",
    "*", "/", "^", "**", "//", "<", "<=", "=", "==", ">=", ">", "≤", "≥", "−", "0", "1",
    "2", "0.5", ".25", "2.", "10", "007", "1e3", "1e-05", "1E5", "1e400", "_", ".", " ",
    "\t", "é",
)
NUMBERS = ("0", "1", "2", "3", "0.5", ".25", "2.", "10", "0.001", "1e3", "1e-05", "1e17")
EXPONENTS = ("2", "3", "-2", "+2", "-1", "0", "(2)", "(-3)", "2^3", "2.0", "x1")


def _expressions(variables):
    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*", "/", " − "]), inner).map(
                "".join
            ),
            inner.map(lambda t: f"-{t}"),
            inner.map(lambda t: f"({t})"),
            st.tuples(inner, st.just("^"), st.sampled_from(EXPONENTS)).map("".join),
        )

    leaves = st.one_of(st.sampled_from(NUMBERS), st.sampled_from(variables))
    return st.recursive(leaves, grow, max_leaves=8)


EXPRESSIONS = _expressions(("x1", "x2", "x", "X1", "y1"))
COMPARISONS = st.tuples(
    EXPRESSIONS.map(lambda t: f"abs({t})") | EXPRESSIONS,
    st.sampled_from([" < ", " <= ", " = ", " == ", " >= ", " > ", " ≤ "]),
    EXPRESSIONS,
).map("".join)
PREDICATES = st.recursive(
    COMPARISONS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" and ", " or ", " OR "]), inner).map("".join),
        inner.map(lambda t: f"({t})"),
    ),
    max_leaves=4,
)
TEXTS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join),
    st.lists(st.sampled_from(TOKENS), max_size=12).map("".join),
    st.text(alphabet="x1y2 ()+-*/^<>=.e_a", max_size=16),
    EXPRESSIONS,
    PREDICATES,
)


class TestEveryText:
    @settings(max_examples=1000)
    @given(TEXTS, st.integers(1, 3), st.sampled_from(["function", "kernel", "predicate"]))
    def test_a_tree_or_a_parse_error_inside_the_text(self, text, dim, kind):
        try:
            if kind == "predicate":
                el.parse_predicate(text, dim)
            else:
                el.parse(text, dim, kind)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)

    @settings(max_examples=400)
    @given(st.one_of(EXPRESSIONS, TEXTS), st.integers(1, 3))
    def test_expression_trees_round_trip(self, text, dim):
        try:
            e = el.parse(text, dim)
        except ParseError:
            return
        assert el.parse(el.to_string(e), dim) == e

    @pytest.mark.parametrize("text", ["0.00001*x1", "1e17", "x1/1e-300"])
    def test_exponent_notation_round_trips(self, text):
        e = el.parse(text, 1)
        assert el.parse(el.to_string(e), 1) == e


class TestDrawnComponent:
    """`vvicert jacobian` on example5 with its first component drawn."""

    @settings(max_examples=200)
    @given(st.one_of(_expressions(("x1", "x")), TEXTS))
    def test_jacobian_exit_zero_or_two(self, text):
        spec = load_problem("example5").to_dict()
        spec["pieces"][0]["components"][0] = text
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "drawn.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["jacobian", "--problem", path, "--at", "0"])
        assert code in (0, 2), err.getvalue()
