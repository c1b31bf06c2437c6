"""Small expression language for function pieces, region predicates and kernels.

The grammar is deliberately restricted to rational arithmetic with integer
powers so that every function piece is genuinely smooth and symbolic
differentiation is exact. Nonsmoothness is expressed only through the piece
structure; ``abs`` is accepted inside predicates, never inside piece formulas.

Variables are ``x1..xn`` (``x`` is accepted as an alias for ``x1`` when the
declared dimension is 1). In kernel context ``y1..yn`` are available as well.

The grammar is Python's expression syntax under a whitelist, with ``^`` for
``**`` and a lone ``=`` for ``==``: Python's parser reads each text.
"""

from __future__ import annotations

import ast
import functools
import re
import string
import warnings
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
        try:
            return _const(base.value ** k)
        except ArithmeticError:  # zero to a negative power, or an overflow
            raise ValueError(f"{base.text()}^{k} is not finite") from None
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
# Parser
# ---------------------------------------------------------------------------

# _spell writes a text as a Python expression: unicode operators in ASCII, '^'
# as '**', a lone '=' as '==', lowercase. It keeps the offset in the text of
# each character it writes, so that every ParseError indexes the user's text.
_SPELLING = {"−": "-", "≤": "<=", "≥": ">=", "^": "**"}
_ALPHABET = frozenset(string.ascii_letters + string.digits + "_.+-*/^()<>=−≤≥")
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)(e[-+]?\d+)?")
_BINARY = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Div: _div}
_COMPARISONS = {ast.Lt: "<", ast.LtE: "<=", ast.Eq: "=", ast.GtE: ">=", ast.Gt: ">"}

# The most nodes on a path from the root of a parsed tree. Evaluation and
# differentiation recurse once per node within Python's default limit of
# 1,000 frames; 900 leaves room for the frames of the caller.
MAX_DEPTH = 900


def _spell(text: str):
    src, where = "", []
    for at, ch in enumerate(text):
        if ch.isspace():
            ch = " " if src else ""  # Python refuses leading blanks
        elif ch not in _ALPHABET or ch == "*" == text[at - 1:at]:
            raise ParseError(f"unexpected character {ch!r}", at)
        elif ch == "=" and src[-1:] not in ("<", ">", "=") and text[at + 1:at + 2] != "=":
            ch = "=="
        src += _SPELLING.get(ch, ch).lower()
        where += [at] * (len(src) - len(where))
    return src, where


def _parse_whole(text: str, dim: int, context: str, what: str):
    """Parse all of text as an expression or a region (``what``): one walk over
    Python's syntax tree builds each node allowed with the constructors above."""
    if not text or not text.strip():
        raise ParseError(f"empty {what}", 0)
    src, where = _spell(text)

    def fail(message: str, at: int):
        raise ParseError(message, where[at] if 0 <= at < len(where) else len(text))

    def after(node) -> int:
        # the first character past node that is not a blank
        return len(src) - len(src[node.end_col_offset:].lstrip())

    def expr(node, depth: int) -> Expr:
        at, kind, op = node.col_offset, type(node), type(getattr(node, "op", None))
        if depth > MAX_DEPTH:
            fail(f"expression nested deeper than {MAX_DEPTH}", at)
        try:
            if kind is ast.BinOp and op in _BINARY:
                return _BINARY[op](expr(node.left, depth + 1), expr(node.right, depth + 1))
            if kind is ast.BinOp and op is ast.Pow:
                return _pow(expr(node.left, depth + 1), exponent(node.right))
            if kind is ast.UnaryOp and op in (ast.USub, ast.UAdd):
                child = expr(node.operand, depth + 1)
                return _neg(child) if op is ast.USub else child
            if kind is ast.Constant and _NUMBER.fullmatch(src, at, node.end_col_offset):
                return _const(float(src[at:node.end_col_offset]))
        except ValueError as exc:  # a constant power that is not finite
            fail(str(exc), at)
        if kind is ast.Name:
            return variable(node.id, at)
        if kind in (ast.Compare, ast.BoolOp):  # a region where an expression belongs
            first = node.left if kind is ast.Compare else node.values[0]
            expr(first, depth + 1)
            fail("unexpected trailing input", after(first))
        if kind is ast.Call and isinstance(node.func, ast.Name) and node.func.id == "abs":
            if not region:
                fail("abs is only permitted inside predicates", at)
            if len(node.args) == 1 and not node.keywords:
                return Abs(expr(node.args[0], depth + 1))
        fail("expected an arithmetic expression", at)

    def exponent(node) -> int:
        k = node.operand if type(node) is ast.UnaryOp else node
        if type(k) is not ast.Constant or not src[k.col_offset:k.end_col_offset].isdigit():
            fail("exponent must be an integer literal", k.col_offset)
        return -k.value if isinstance(getattr(node, "op", None), ast.USub) else k.value

    def variable(name: str, pos: int) -> Var:
        m = re.fullmatch(r"([xy])(\d*)", name)
        if m is None:
            fail(f"unknown identifier '{name}'", pos)
        axis, digits = m.groups()
        if axis == "y" and context != "kernel":
            fail("'y' variables are only available in kernel context", pos)
        if digits == "" and dim != 1:
            fail(f"bare '{axis}' is only valid in dimension 1 (declared dim {dim})", pos)
        index = int(digits or 1) - 1
        if not 0 <= index < dim:
            fail(f"variable index {index + 1} out of range for dimension {dim}", pos)
        return Var(axis, index)

    def predicate(node, depth: int) -> Predicate:
        if type(node) is ast.BoolOp:
            parts = tuple(predicate(part, depth + 1) for part in node.values)
            return BoolOp("and" if type(node.op) is ast.And else "or", parts)
        if type(node) is not ast.Compare:
            expr(node, depth)
            fail("expected a comparison operator", after(node))
        left = expr(node.left, depth + 1)
        if type(node.ops[0]) not in _COMPARISONS:
            fail("expected a comparison operator", after(node.left))
        right = expr(node.comparators[0], depth + 1)
        if len(node.ops) > 1:
            fail("unexpected trailing input", after(node.comparators[0]))
        return Comparison(left, _COMPARISONS[type(node.ops[0])], right)

    region = what == "predicate"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a number run into a keyword ('1and') warns
            body = ast.parse(src, mode="eval").body
    except SyntaxError as exc:
        fail(exc.msg, (exc.offset or 0) - 1)  # Python counts columns from 1
    except (RecursionError, MemoryError):  # Python's parser gives up on deep nesting
        fail(f"expression nested deeper than {MAX_DEPTH}", 0)
    return predicate(body, 1) if region else expr(body, 1)


def parse(text: str, dim: int, context: str = "function") -> Expr:
    """Parse an arithmetic expression over x1..x<dim> (plus y1..y<dim> for kernels).

    Raises ParseError with the character offset on malformed syntax, unknown
    identifiers, out-of-range variable indices, or abs outside predicates.
    """
    if context not in ("function", "kernel"):
        raise ValueError(f"context must be 'function' or 'kernel', got {context!r}")
    return _parse_whole(text, dim, context, "expression")


def parse_predicate(text: str, dim: int) -> Predicate:
    """Parse a region over x1..x<dim> only: comparisons joined by and/or, abs permitted."""
    return _parse_whole(text, dim, "function", "predicate")


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

    Raises NonSmoothOperatorError if an abs node is reached, and ValueError
    if a constant power in the derivative is not finite.
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
