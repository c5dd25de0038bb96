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

from .errors import DegreeTooHigh, DivisionByZero, ExpressionSyntaxError
from .partfrac import MAX_DEGREE, MAX_HEIGHT_BITS, SumSpec
from .polys import FactorList, Polynomial, factor_linear, reduced


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


def _unexpected(tok) -> str:
    kind, value, _ = tok
    return "unexpected end of input" if kind == "end" else f"unexpected token {str(value)!r}"


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
            raise ExpressionSyntaxError(_unexpected(tok), tok[2], f"expected {kind!r}")
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            hint = None
            if tok[0] == "(":
                hint = "implicit multiplication is not supported; write '*' explicitly"
            raise ExpressionSyntaxError(_unexpected(tok), tok[2], hint)
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
        if tok[0] not in ("num", "var", "(", "-"):
            raise ExpressionSyntaxError(
                _unexpected(tok), tok[2], "expected a number, 'n', '(' or '-'"
            )
        self.advance()
        if tok[0] == "-":
            return Neg(self.factor())
        if tok[0] == "(":
            node = self.expr()
            self.expect(")")
        else:
            node = Num(tok[1]) if tok[0] == "num" else Var()
        nxt = self.peek()
        # a number after a number is left to parse()'s "unexpected token"
        if nxt[0] in ("var", "(") or (nxt[0] == "num" and tok[0] != "num"):
            raise ExpressionSyntaxError(
                "implicit multiplication is not supported",
                nxt[2],
                "write '*' explicitly",
            )
        return node


def parse_expression(text: str) -> Node:
    """Parse an expression in n into its AST.

    Recursive descent takes a few frames per nesting level, so input nested
    past the interpreter's recursion limit raises ExpressionSyntaxError.
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", parser.peek()[2]) from None


# -- AST folding --------------------------------------------------------------------

_ONE, _N = Polynomial([1]), Polynomial([0, 1])


def _check_size(degree: int, bits: int = 0):
    if degree > MAX_DEGREE:
        raise DegreeTooHigh(f"the expression has degree {degree} > {MAX_DEGREE}")
    if bits > MAX_HEIGHT_BITS:
        raise DegreeTooHigh(
            f"the expression has coefficients of {bits} bits > {MAX_HEIGHT_BITS}"
        )


def _fold(node: Node):
    """The AST as an unreduced integer pair (N, D) of value N/D.

    The size of every power and product is checked before it is expanded; a
    sum over one denominator expands nothing and stays within its terms' size.
    """
    if isinstance(node, Num):
        return Polynomial([node.value.numerator]), Polynomial([node.value.denominator])
    if isinstance(node, Var):
        return _N, _ONE
    if isinstance(node, Neg):
        num, den = _fold(node.operand)
        return -num, den
    if isinstance(node, Pow):
        num, den = _fold(node.base)
        k = node.exponent
        height = max(abs(c).bit_length() for c in num.coeffs + den.coeffs)
        _check_size(max(num.degree, den.degree) * k, height * k)
        return num ** k, den ** k
    (n1, d1), (n2, d2) = _fold(node.left), _fold(node.right)
    if node.op == "/":
        if n2.is_zero():
            raise DivisionByZero("division by zero")
        n2, d2 = d2, n2
    if node.op in "+-" and d1 == d2:
        return (n1 + n2 if node.op == "+" else n1 - n2), d1
    _check_size(max(n1.degree, d1.degree) + max(n2.degree, d2.degree))
    if node.op in "*/":
        return n1 * n2, d1 * d2
    if node.op == "-":
        n2 = -n2
    return n1 * d2 + n2 * d1, d1 * d2


def ast_to_spec(ast: Node, sign: str = "plain") -> SumSpec:
    """Fold the AST into Q/P, reduce it once, factor P, validate convergence.

    A constant P gives no poles, which SumSpec accepts only for Q = 0.
    Raises DivisionByZero, NonLinearFactor, NegativeIntegerShift (via
    factoring), DegreeTooHigh (a fold above the size limits, or a divergent
    numerator degree), ExpressionSyntaxError (an AST deeper than the
    recursion limit, such as a chain of ~1000 operands) or a SumSpec limit error.
    """
    try:
        folded = _fold(ast)
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply to fold") from None
    numerator, denominator = reduced(*folded)
    factors = factor_linear(denominator) if denominator.degree else FactorList([])
    return SumSpec(numerator, factors, sign)
