"""Expression front end: rational-term expressions in the variable n.

Grammar (standard precedence, left associative):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' uint)?
    base     := rational | 'n' | '(' expr ')' | '-' factor
    rational := uint ('/' uint)? | decimal literal

The value is folded while it is parsed (a syntax-directed translation), so
no syntax tree is built: each rule returns what it read as an unreduced
pair (N, D) of integer polynomials, of value N/D, and combines its
operands' pairs as it reads them.  A literal enters as its lowest-terms
integer pair (0.5 -> (1, 2)), so no Fraction is built before
`factor_linear` writes Q over the monic denominator.  Digits are ASCII
only.  Implicit multiplication is a parse error with a hint.

`parse_expression` (text to pair) and `ast_to_spec` (pair to spec) stay
two calls, and `ast_to_spec` looks up `factor_linear` in this module,
because the benchmark's span hooks (bench/spans.py) time each of the
three by these names.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

from .closedform import fits_str, fraction_text
from .errors import DegreeTooHigh, DivisionByZero, ExpressionSyntaxError
from .partfrac import MAX_DEGREE, MAX_HEIGHT_BITS, SumSpec
from .polys import FactorList, Polynomial, factor_linear


# -- tokenizer --------------------------------------------------------------------


_PUNCT = set("+-*/^()")
_NUMBER = re.compile(r"[0-9]*\.?[0-9]*")  # ASCII digits only
# a literal of at most this many digits, and its decimal denominator, are
# below 10^k <= 2^MAX_HEIGHT_BITS
_MAX_LITERAL_DIGITS = math.floor(MAX_HEIGHT_BITS * math.log10(2))


def _unexpected(tok) -> str:
    kind, value, _ = tok
    if kind == "end":
        return "unexpected end of input"
    return f"unexpected token {fraction_text(Fraction(*value)) if kind == 'num' else value!r}"


def _tokenize(text: str):
    tokens = []  # (kind, value, offset); a number's value is its pair (p, q)
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
        if ch in "0123456789.":
            end = _NUMBER.match(text, i).end()
            if text.startswith(".", end):
                raise ExpressionSyntaxError("malformed number", end)
            if end == i + 1 and ch == ".":
                raise ExpressionSyntaxError("malformed number", i)
            whole, _, frac = text[i:end].partition(".")
            digits = whole + frac
            if len(digits) > _MAX_LITERAL_DIGITS:
                raise DegreeTooHigh(
                    f"the expression has a literal of {len(digits)} digits > {_MAX_LITERAL_DIGITS}"
                )
            p = int(digits) if fits_str(len(digits)) else int(decimal.Decimal(digits))
            q = 10 ** len(frac)
            g = math.gcd(p, q)
            tokens.append(("num", (p // g, q // g), i))
            i = end
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


# -- recursive descent, folding as it goes -------------------------------------------

_ONE, _N = Polynomial([1]), Polynomial([0, 1])


def _check_size(degree: int, bits: int = 0):
    if degree > MAX_DEGREE:
        raise DegreeTooHigh(
            f"the expression has degree {fraction_text(degree)} > {MAX_DEGREE}"
        )
    if bits > MAX_HEIGHT_BITS:
        raise DegreeTooHigh(
            f"the expression has coefficients of {fraction_text(bits)} bits > {MAX_HEIGHT_BITS}"
        )


class _Parser:
    """Each rule returns the unreduced pair (N, D) of what it read.

    The size of every power and product is checked before it is expanded; a
    sum over one denominator expands nothing and stays within its terms' size.
    """

    def __init__(self, text: str):
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

    def parse(self):
        pair = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            hint = None
            if tok[0] == "(":
                hint = "implicit multiplication is not supported; write '*' explicitly"
            raise ExpressionSyntaxError(_unexpected(tok), tok[2], hint)
        return pair

    def expr(self):
        num, den = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            n2, d2 = self.term()
            if op == "-":
                n2 = -n2
            if den == d2:
                num = num + n2
            else:
                _check_size(max(num.degree, den.degree) + max(n2.degree, d2.degree))
                num, den = num * d2 + n2 * den, den * d2
        return num, den

    def term(self):
        num, den = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            n2, d2 = self.factor()
            if op == "/":
                if n2.is_zero():
                    raise DivisionByZero("division by zero")
                n2, d2 = d2, n2
            _check_size(max(num.degree, den.degree) + max(n2.degree, d2.degree))
            num, den = num * n2, den * d2
        return num, den

    def factor(self):
        num, den = self.base()
        if self.peek()[0] != "^":
            return num, den
        self.advance()
        tok = self.peek()
        if tok[0] != "num" or tok[1][1] != 1:
            raise ExpressionSyntaxError("exponent must be a literal non-negative integer", tok[2])
        self.advance()
        k = tok[1][0]
        height = max(abs(c).bit_length() for c in num.coeffs + den.coeffs)
        _check_size(max(num.degree, den.degree) * k, height * k)
        return num ** k, den ** k

    def base(self):
        tok = self.peek()
        if tok[0] not in ("num", "var", "(", "-"):
            raise ExpressionSyntaxError(
                _unexpected(tok), tok[2], "expected a number, 'n', '(' or '-'"
            )
        self.advance()
        if tok[0] == "-":
            num, den = self.factor()
            return -num, den
        if tok[0] == "(":
            pair = self.expr()
            self.expect(")")
        elif tok[0] == "num":
            pair = Polynomial([tok[1][0]]), Polynomial([tok[1][1]])
        else:
            pair = _N, _ONE
        nxt = self.peek()
        # a number after a number is left to parse()'s "unexpected token"
        if nxt[0] in ("var", "(") or (nxt[0] == "num" and tok[0] != "num"):
            raise ExpressionSyntaxError(
                "implicit multiplication is not supported",
                nxt[2],
                "write '*' explicitly",
            )
        return pair


def parse_expression(text: str):
    """The expression's value as an unreduced integer pair (N, D), N/D.

    Raises ExpressionSyntaxError, DivisionByZero, or DegreeTooHigh (a literal,
    power or product above the size limits), whichever the parse meets first.
    Recursive descent takes a few frames per nesting level, so input nested
    past the interpreter's recursion limit raises ExpressionSyntaxError; a
    chain of operands is folded in a loop and has no such limit.
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", parser.peek()[2]) from None


def ast_to_spec(pair, sign: str = "plain") -> SumSpec:
    """Factor the parsed pair's denominator, cancel N/D to Q/P, validate convergence.

    A factor of D that N shares is cancelled before any pole is checked.  A
    zero N or a constant D gives no poles, which SumSpec accepts only for Q = 0.
    Raises NonLinearFactor, NegativeIntegerShift (via factoring),
    DegreeTooHigh (a divergent numerator degree) or a SumSpec limit error.
    """
    numerator, denominator = pair
    if numerator.is_zero() or denominator.degree < 1:
        return SumSpec(numerator, FactorList([]), sign)
    return SumSpec(*factor_linear(denominator, numerator), sign)
