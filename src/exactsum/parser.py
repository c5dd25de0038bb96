"""Expression front end: rational-term expressions in the variable n.

Grammar (standard precedence, left associative):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' uint)?
    base     := rational | 'n' | '(' expr ')' | '-' factor
    rational := uint ('/' uint)? | decimal literal

Decimal literals convert exactly (0.5 -> 1/2).  Implicit multiplication
is a parse error with a hint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    DegreeTooHigh,
    ExpressionSyntaxError,
    NonLinearFactor,
)
from .partfrac import SumSpec
from .polys import Polynomial, RationalFunction, factor_linear


# -- AST ------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int  # literal non-negative integer


Node = Union[Num, Var, Neg, BinOp, Pow]


def render_ast(node: Node) -> str:
    """Fully parenthesized text form; parse_expression(render_ast(x)) == x."""
    if isinstance(node, Num):
        v = node.value
        return str(v) if v.denominator == 1 else f"({v.numerator}/{v.denominator})"
    if isinstance(node, Var):
        return "n"
    if isinstance(node, Neg):
        return f"(-{render_ast(node.operand)})"
    if isinstance(node, Pow):
        return f"({render_ast(node.base)})^{node.exponent}"
    return f"({render_ast(node.left)} {node.op} {render_ast(node.right)})"


# -- tokenizer --------------------------------------------------------------------


_PUNCT = set("+-*/^()")


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            start = i
            seen_dot = False
            while i < len(text) and (text[i].isdigit() or text[i] == "."):
                if text[i] == ".":
                    if seen_dot:
                        raise ExpressionSyntaxError("malformed number", i)
                    seen_dot = True
                i += 1
            lit = text[start:i]
            if lit == ".":
                raise ExpressionSyntaxError("malformed number", start)
            tokens.append(("num", Fraction(lit), start))
            continue
        if ch == "n":
            tokens.append(("var", "n", i))
            i += 1
            continue
        raise ExpressionSyntaxError(
            f"unexpected character {ch!r}", i, "expected a number, 'n' or an operator"
        )
    tokens.append(("end", None, len(text)))
    return tokens


# -- recursive descent ---------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"unexpected token {tok[1]!r}", tok[2], f"expected {kind!r}"
            )
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            hint = None
            if tok[0] == "(":
                hint = "implicit multiplication is not supported; write '*' explicitly"
            raise ExpressionSyntaxError(f"unexpected token {tok[1]!r}", tok[2], hint)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "num" or tok[1].denominator != 1 or tok[1] < 0:
                raise ExpressionSyntaxError(
                    "exponent must be a literal non-negative integer", tok[2]
                )
            self.advance()
            node = Pow(node, int(tok[1]))
        return node

    def base(self) -> Node:
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            nxt = self.peek()
            if nxt[0] in ("var", "("):
                raise ExpressionSyntaxError(
                    "implicit multiplication is not supported",
                    nxt[2],
                    "write '*' explicitly",
                )
            return Num(tok[1])
        if tok[0] == "var":
            self.advance()
            nxt = self.peek()
            if nxt[0] in ("var", "(", "num"):
                raise ExpressionSyntaxError(
                    "implicit multiplication is not supported",
                    nxt[2],
                    "write '*' explicitly",
                )
            return Var()
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            nxt = self.peek()
            if nxt[0] in ("var", "(", "num"):
                raise ExpressionSyntaxError(
                    "implicit multiplication is not supported",
                    nxt[2],
                    "write '*' explicitly",
                )
            return node
        if tok[0] == "-":
            self.advance()
            return Neg(self.factor())
        raise ExpressionSyntaxError(
            f"unexpected token {tok[1]!r}",
            tok[2],
            "expected a number, 'n', '(' or '-'",
        )


def parse_expression(text: str) -> Node:
    """Parse an expression in n into its AST."""
    return _Parser(text).parse()


# -- AST folding --------------------------------------------------------------------


def _fold(node: Node) -> RationalFunction:
    if isinstance(node, Num):
        return RationalFunction.constant(node.value)
    if isinstance(node, Var):
        return RationalFunction(Polynomial.variable(), Polynomial([1]))
    if isinstance(node, Neg):
        return -_fold(node.operand)
    if isinstance(node, Pow):
        return _fold(node.base) ** node.exponent
    rf_l, rf_r = _fold(node.left), _fold(node.right)
    if node.op == "+":
        return rf_l + rf_r
    if node.op == "-":
        return rf_l - rf_r
    if node.op == "*":
        return rf_l * rf_r
    return rf_l / rf_r


def ast_to_spec(ast: Node, sign: str = "plain") -> SumSpec:
    """Fold the AST into Q/P, factor the denominator, validate convergence.

    Raises NonLinearFactor, NegativeIntegerShift (via factoring) or
    DegreeTooHigh (divergent numerator degree, or no denominator at all).
    """
    rf = _fold(ast)
    if rf.denominator.degree < 1:
        raise DegreeTooHigh(
            "summand has no denominator in n; the series diverges "
            "(deg Q must be <= deg P - 2 for plain sums)"
        )
    try:
        factors = factor_linear(rf.denominator)
    except NonLinearFactor as exc:
        raise NonLinearFactor(exc.remainder) from None
    return SumSpec(rf.numerator, factors, sign)
