"""Small expression language for function pieces, region predicates and kernels.

The grammar is deliberately restricted to rational arithmetic with integer
powers so that every function piece is genuinely smooth and symbolic
differentiation is exact. Nonsmoothness is expressed only through the piece
structure; ``abs`` is accepted inside predicates, never inside piece formulas.

Variables are ``x1..xn`` (``x`` is accepted as an alias for ``x1`` when the
declared dimension is 1). In kernel context ``y1..yn`` are available as well.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivisionByZeroError,
    NonSmoothOperatorError,
    ParseError,
)

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Abs",
    "Predicate",
    "Comparison",
    "BoolOp",
    "parse",
    "parse_predicate",
    "evaluate",
    "evaluate_many",
    "differentiate",
    "to_string",
    "predicate_holds",
    "predicate_holds_many",
    "boundary_expressions",
    "EQ_TOLERANCE",
]

# Absolute tolerance for '=' comparisons inside predicates; piece boundaries
# must remain detectable in floating point.
EQ_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes. Immutable and safe to share.

    Each node evaluates itself (``ev``, at a point or on rows of points),
    takes its exact partial derivative (``derive``) and prints itself
    (``text``, binding as tightly as ``prec``)."""

    prec = 5

    def _paren(self, parent_prec: int, right_side: bool = False) -> str:
        text = self.text()
        if self.prec < parent_prec or (right_side and self.prec == parent_prec):
            return f"({text})"
        return text


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def ev(self, x, y):
        return self.value

    def derive(self, var: int) -> Expr:
        return _const(0.0)

    def text(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    axis: str  # 'x' or 'y'
    index: int  # 0-based

    def ev(self, x, y):
        arr = x if self.axis == "x" else y
        if arr is None:
            raise DimensionMismatchError(
                f"variable {self.axis}{self.index + 1} has no bound value"
            )
        return arr[..., self.index]

    def derive(self, var: int) -> Expr:
        return _const(1.0) if (self.axis == "x" and self.index == var) else _const(0.0)

    def text(self) -> str:
        return f"{self.axis}{self.index + 1}"


@dataclass(frozen=True)
class _Binary(Expr):
    """A node printed as ``left<symbol>right``. Subtraction and division
    parenthesize a right operand of equal precedence (``right_tight``)."""

    left: Expr
    right: Expr
    symbol = ""
    right_tight = False

    def text(self) -> str:
        left = self.left._paren(self.prec)
        right = self.right._paren(self.prec, self.right_tight)
        return f"{left}{self.symbol}{right}"

    def _product_terms(self, var: int):
        # d(left)*right and left*d(right), shared by the product and quotient rules
        return _mul(self.left.derive(var), self.right), _mul(self.left, self.right.derive(var))


@dataclass(frozen=True)
class Add(_Binary):
    prec = 1
    symbol = " + "

    def ev(self, x, y):
        return self.left.ev(x, y) + self.right.ev(x, y)

    def derive(self, var: int) -> Expr:
        return _add(self.left.derive(var), self.right.derive(var))


@dataclass(frozen=True)
class Sub(_Binary):
    prec = 1
    symbol = " - "
    right_tight = True

    def ev(self, x, y):
        return self.left.ev(x, y) - self.right.ev(x, y)

    def derive(self, var: int) -> Expr:
        return _sub(self.left.derive(var), self.right.derive(var))


@dataclass(frozen=True)
class Mul(_Binary):
    prec = 2
    symbol = "*"

    def ev(self, x, y):
        return self.left.ev(x, y) * self.right.ev(x, y)

    def derive(self, var: int) -> Expr:
        return _add(*self._product_terms(var))


@dataclass(frozen=True)
class Div(_Binary):
    prec = 2
    symbol = "/"
    right_tight = True

    def ev(self, x, y):
        num = self.left.ev(x, y)
        den = self.right.ev(x, y)
        if (np.asarray(den) == 0.0).any():
            raise DivisionByZeroError(self.text())
        return num / den

    def derive(self, var: int) -> Expr:
        return _div(_sub(*self._product_terms(var)), _pow(self.right, 2))


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int
    prec = 4

    def ev(self, x, y):
        base = self.base.ev(x, y)
        if self.exponent < 0 and (np.asarray(base) == 0.0).any():
            raise DivisionByZeroError(self.text())
        return base ** self.exponent

    def derive(self, var: int) -> Expr:
        inner = self.base.derive(var)
        k = self.exponent
        return _mul(_mul(_const(float(k)), _pow(self.base, k - 1)), inner)

    def text(self) -> str:
        return f"{self.base._paren(5)}^{self.exponent}"


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr
    prec = 3

    def ev(self, x, y):
        return -self.child.ev(x, y)

    def derive(self, var: int) -> Expr:
        return _neg(self.child.derive(var))

    def text(self) -> str:
        return f"-{self.child._paren(3)}"


@dataclass(frozen=True)
class Abs(Expr):
    child: Expr

    def ev(self, x, y):
        return np.abs(self.child.ev(x, y))

    def derive(self, var: int) -> Expr:
        raise NonSmoothOperatorError("cannot differentiate through abs")

    def text(self) -> str:
        return f"abs({self.child.text()})"


def _const(v: float) -> Const:
    # Normalize -0.0 so printed round-trips stay identical.
    return Const(v + 0.0)


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return _const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return _const(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and a.value == 0.0 and not (isinstance(b, Const) and b.value == 0.0):
        return _const(0.0)
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return _const(a.value / b.value)
    return Div(a, b)


def _pow(base: Expr, k: int) -> Expr:
    if k == 1:
        return base
    if k == 0:
        return _const(1.0)
    if isinstance(base, Const):
        return _const(base.value ** k)
    return Pow(base, k)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return _const(-a.value)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

# Regions are inflated by `slack`: every comparison admits a margin of slack
# on the unfavourable side. '=' additionally uses EQ_TOLERANCE.
_COMPARE = {
    "<": lambda diff, slack: diff < slack,
    "<=": lambda diff, slack: diff <= slack,
    "=": lambda diff, slack: np.abs(diff) <= EQ_TOLERANCE + slack,
    ">=": lambda diff, slack: diff >= -slack,
    ">": lambda diff, slack: diff > -slack,
}

_COMBINE = {"and": np.logical_and, "or": np.logical_or}


@dataclass(frozen=True)
class Predicate:
    """Base class for region predicates. Each predicate type tests itself on
    a point or on rows of points (``holds``) and lists the expressions whose
    zero sets bound its region (``boundaries``)."""


@dataclass(frozen=True)
class Comparison(Predicate):
    left: Expr
    op: str  # a key of _COMPARE
    right: Expr

    def holds(self, x, slack: float):
        diff = self.left.ev(x, None) - self.right.ev(x, None)
        return _COMPARE[self.op](diff, slack)

    def boundaries(self) -> list:
        return [_sub(self.left, self.right)]


@dataclass(frozen=True)
class BoolOp(Predicate):
    op: str  # 'and' | 'or'
    parts: tuple

    def holds(self, x, slack: float):
        return functools.reduce(_COMBINE[self.op], [q.holds(x, slack) for q in self.parts])

    def boundaries(self) -> list:
        return [b for q in self.parts for b in q.boundaries()]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Offsets in ParseError refer to the normalized text when unicode operators
# are used; ASCII input is unaffected.
_UNICODE_MAP = str.maketrans({"−": "-", "≤": "<=", "≥": ">="})

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<cmp><=|>=|==|<|>|=)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    src = text.translate(_UNICODE_MAP)
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos:].strip() == "":
            break
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {src[at]!r}", at)
        kind = m.lastgroup
        value = m.group(kind)
        start = m.end() - len(value)
        if kind == "cmp" and value == "==":
            value = "="
        tokens.append((kind, value, start))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# binary operator -> (node class, whose prec is its binding; smart constructor)
_BINARY = {"+": (Add, _add), "-": (Sub, _sub), "*": (Mul, _mul), "/": (Div, _div)}


class _Parser:
    def __init__(self, tokens, dim: int, context: str, allow_abs: bool):
        self.tokens = tokens
        self.i = 0
        self.dim = dim
        self.context = context
        self.allow_abs = allow_abs

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind == "op" and value == symbol:
            return self.advance()
        raise ParseError(f"expected '{symbol}'", pos)

    # expression grammar -----------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over _BINARY: each operator binds as tightly
        as its node class's ``prec`` (the printer's binding), left to right."""
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in _BINARY or _BINARY[value][0].prec < min_prec:
                return node
            self.advance()
            node_class, build = _BINARY[value]
            node = build(node, self.parse_expr(node_class.prec + 1))

    def parse_unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value in ("-", "+"):
            self.advance()
            child = self.parse_unary()
            return _neg(child) if value == "-" else child
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                node = _pow(node, self.parse_int_exponent())
            else:
                return node

    def parse_int_exponent(self) -> int:
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in ("-", "+"):
            self.advance()
            sign = -1 if value == "-" else 1
            kind, value, pos = self.peek()
        if kind != "num" or "." in value:
            raise ParseError("exponent must be an integer literal", pos)
        self.advance()
        return sign * int(value)

    def parse_atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return _const(float(value))
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            name = value.lower()
            if name == "abs":
                if not self.allow_abs:
                    raise ParseError("abs is only permitted inside predicates", pos)
                self.expect_op("(")
                child = self.parse_expr()
                self.expect_op(")")
                return Abs(child)
            return self.parse_variable(name, pos)
        raise ParseError("expected a number, variable or '('", pos)

    def parse_variable(self, name: str, pos: int) -> Expr:
        m = re.fullmatch(r"([xy])(\d*)", name)
        if m is None:
            raise ParseError(f"unknown identifier '{name}'", pos)
        axis, digits = m.group(1), m.group(2)
        if axis == "y" and self.context != "kernel":
            raise ParseError("'y' variables are only available in kernel context", pos)
        if digits == "":
            if self.dim != 1:
                raise ParseError(
                    f"bare '{axis}' is only valid in dimension 1 (declared dim {self.dim})", pos
                )
            index = 0
        else:
            index = int(digits) - 1
        if not 0 <= index < self.dim:
            raise ParseError(
                f"variable index {index + 1} out of range for dimension {self.dim}", pos
            )
        return Var(axis, index)

    # predicate grammar ------------------------------------------------------

    def parse_predicate(self) -> Predicate:
        return self.parse_joined("or", self.parse_and)

    def parse_and(self) -> Predicate:
        return self.parse_joined("and", self.parse_comparison)

    def parse_joined(self, keyword: str, parse_part) -> Predicate:
        """One or more parts separated by the keyword 'and' or 'or'."""
        parts = [parse_part()]
        kind, value, _ = self.peek()
        while kind == "ident" and value.lower() == keyword:
            self.advance()
            parts.append(parse_part())
            kind, value, _ = self.peek()
        return parts[0] if len(parts) == 1 else BoolOp(keyword, tuple(parts))

    def parse_comparison(self) -> Predicate:
        left = self.parse_expr()
        kind, value, pos = self.peek()
        if kind != "cmp":
            raise ParseError("expected a comparison operator", pos)
        self.advance()
        right = self.parse_expr()
        return Comparison(left, value, right)


def _parse_whole(text: str, dim: int, context: str, what: str, rule):
    """Parse all of text with the grammar rule ``rule(parser)`` for ``what``."""
    if not text or not text.strip():
        raise ParseError(f"empty {what}", 0)
    parser = _Parser(_tokenize(text), dim, context, allow_abs=what == "predicate")
    node = rule(parser)
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return node


def parse(text: str, dim: int, context: str = "function") -> Expr:
    """Parse an arithmetic expression over x1..x<dim> (plus y1..y<dim> for kernels).

    Raises ParseError with the character offset on malformed syntax, unknown
    identifiers, out-of-range variable indices, or abs outside predicates.
    """
    if context not in ("function", "kernel"):
        raise ValueError(f"context must be 'function' or 'kernel', got {context!r}")
    return _parse_whole(text, dim, context, "expression", _Parser.parse_expr)


def parse_predicate(text: str, dim: int) -> Predicate:
    """Parse a region over x1..x<dim> only: comparisons joined by and/or, abs permitted."""
    return _parse_whole(text, dim, "function", "predicate", _Parser.parse_predicate)


# ---------------------------------------------------------------------------
# Evaluation, differentiation, printing and predicate tests
# ---------------------------------------------------------------------------

def evaluate(e: Expr, point, y: Optional[np.ndarray] = None) -> float:
    """Evaluate at a single point (1-d array of length dim), as the one row
    of an ``evaluate_many`` call, so both give the same bits."""
    yv = None if y is None else np.asarray(y, dtype=float)[None]
    return float(evaluate_many(e, np.asarray(point, dtype=float)[None], yv)[0])


def evaluate_many(e: Expr, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized evaluation over rows of x (and y in kernel context)."""
    x = np.asarray(x, dtype=float)
    out = e.ev(x, None if y is None else np.asarray(y, dtype=float))
    return _per_row(out, x.shape[0], float)


def differentiate(e: Expr, var: int) -> Expr:
    """Exact symbolic partial derivative with respect to x<var+1> (0-based var).

    Raises NonSmoothOperatorError if an abs node is reached.
    """
    return e.derive(var)


def to_string(e: Expr) -> str:
    """Render the expression; parse(to_string(e)) evaluates identically to e."""
    return e.text()


def predicate_holds(p: Predicate, point, slack: float = 0.0) -> bool:
    """Test at a single point, as the one row of a ``predicate_holds_many`` call."""
    return bool(predicate_holds_many(p, np.asarray(point, dtype=float)[None], slack)[0])


def predicate_holds_many(p: Predicate, x: np.ndarray, slack: float = 0.0) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _per_row(p.holds(x, slack), x.shape[0], bool)


def _per_row(out, rows: int, dtype):
    # a node free of variables evaluates to one scalar for all rows
    if np.ndim(out) == 0:
        return np.full(rows, dtype(out))
    return np.asarray(out, dtype=dtype)


def boundary_expressions(p: Predicate) -> list:
    """Left-minus-right expressions of every comparison; their zero sets are
    the candidate region boundaries used by the boundary probing heuristics."""
    return p.boundaries()
