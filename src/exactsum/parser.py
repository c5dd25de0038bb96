"""Expression front end: rational-term expressions in the variable n.

Grammar (standard precedence, left associative):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | base ('^' uint)?
    base     := rational | 'n' | '(' expr ')'
    rational := uint ('/' uint)? | decimal literal

The value is folded while it is parsed (a syntax-directed translation), so
no syntax tree is built: nested rule functions walk the token list with one
local index, and each returns the value of what it read.  A literal enters
as its lowest-terms integer pair (0.5 -> (1, 2)), so no Fraction is built
before `factor_linear` writes Q over the monic denominator.  Literals, n and
n^k are monomials c n^k / d of three integers, and a run of terms joined by
+ and - over one shared denominator, such as an expanded c_k n^k + ... + c_0,
adds into one integer coefficient list.  A Polynomial is made only where a
product, a quotient, the power of a non-monomial or a parenthesized sum
needs one.  Digits are ASCII only; implicit multiplication is an error.

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
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
        elif ch == "n":
            tokens.append(("var", "n", i))
            i += 1
        elif ch in "0123456789.":
            end = _NUMBER.match(text, i).end()
            digits, q = text[i:end], 1
            if "." in digits:  # else the match ended at no '.', and p/1 is in lowest terms
                if text.startswith(".", end):
                    raise ExpressionSyntaxError("malformed number", end)
                if end == i + 1:
                    raise ExpressionSyntaxError("malformed number", i)
                whole, _, frac = digits.partition(".")
                digits, q = whole + frac, 10 ** len(frac)
            if len(digits) > _MAX_LITERAL_DIGITS:
                raise DegreeTooHigh(
                    f"the expression has a literal of {len(digits)} digits > {_MAX_LITERAL_DIGITS}")
            p = int(digits) if fits_str(len(digits)) else int(decimal.Decimal(digits))
            if q > 1:
                g = math.gcd(p, q)
                p, q = p // g, q // g
            tokens.append(("num", (p, q), i))
            i = end
        elif ch.isspace():
            i += 1
        else:
            raise ExpressionSyntaxError(
                f"unexpected character {ch!r}", i, "expected a number, 'n' or an operator")
    tokens.append(("end", None, size))
    return tokens


# -- recursive descent, folding as it goes -------------------------------------------
# A value is a monomial (c, k, d), of value c n^k / d for integers c and d != 0
# (k = 0 when c = 0), or an unreduced pair (N, D) of Polynomials.  Monomials
# multiply, divide by constants, negate and raise to powers as the same
# Polynomials would, so the pair the parse returns is the same either way.


def _check_size(degree: int, bits: int = 0):
    if degree > MAX_DEGREE:
        raise DegreeTooHigh(f"the expression has degree {fraction_text(degree)} > {MAX_DEGREE}")
    if bits > MAX_HEIGHT_BITS:
        raise DegreeTooHigh(
            f"the expression has coefficients of {fraction_text(bits)} bits > {MAX_HEIGHT_BITS}")


def _pair(value):
    if len(value) == 2:
        return value
    c, k, d = value
    return Polynomial([0] * k + [c]), Polynomial([d])


def _run(num, den):
    """A pair over a constant denominator as a coefficient list and an int."""
    return (list(num.coeffs), den.coeffs[0]) if den.degree == 0 else (num, den)


def _add(num, den, value, negate: bool):
    """(num, den) plus or minus the value: N1/D + N2/D is (N1 + N2)/D, and
    other denominators are cross-multiplied after a size check."""
    n2, d2 = _pair(value)
    if negate:
        n2 = -n2
    if type(den) is int:
        num, den = Polynomial(num), Polynomial([den])
    if den == d2:
        return _run(num + n2, den)
    _check_size(max(num.degree + d2.degree, n2.degree + den.degree, den.degree + d2.degree))
    return _run(num * d2 + n2 * den, den * d2)


def parse_expression(text: str):
    """The expression's value as an unreduced integer pair (N, D), N/D.

    Raises ExpressionSyntaxError, DivisionByZero, or DegreeTooHigh (a literal,
    power or product above the size limits, checked before it is expanded),
    whichever the parse meets first.  Recursive descent takes three frames
    per parenthesis and one per unary minus, so input nested past the
    interpreter's recursion limit (330 parentheses at the default limit of
    1000) raises ExpressionSyntaxError; a chain of operands is folded in a
    loop and has no such limit.
    """
    tokens = _tokenize(text)
    i = 0

    def expr():
        nonlocal i
        value = term()
        op = tokens[i][0]
        if op != "+" and op != "-":
            return value
        # a run: a coefficient list over an int denominator, or a pair
        num, den = ([0] * value[1] + [value[0]], value[2]) if len(value) == 3 else _run(*value)
        while op == "+" or op == "-":
            i += 1
            value = term()
            if type(den) is int and len(value) == 3 and value[2] == den:
                c, k, _ = value
                num += [0] * (k + 1 - len(num))
                num[k] += -c if op == "-" else c
            else:
                num, den = _add(num, den, value, op == "-")
            op = tokens[i][0]
        return (Polynomial(num), Polynomial([den])) if type(den) is int else (num, den)

    def term():
        nonlocal i
        value = factor()
        op = tokens[i][0]
        while op == "*" or op == "/":
            i += 1
            other = factor()
            if op == "/":
                constant = len(other) == 3 and not other[1]  # c/d, or 0
                num, den = other[::2] if constant else _pair(other)
                if not (num if constant else num.coeffs):
                    raise DivisionByZero("division by zero")
                other = (den, 0, num) if constant else (den, num)
            if len(value) == 3 and len(other) == 3:
                _check_size(value[1] + other[1])
                c = value[0] * other[0]
                value = c, value[1] + other[1] if c else 0, value[2] * other[2]
            else:
                (n1, d1), (n2, d2) = _pair(value), _pair(other)
                _check_size(max(n1.degree + n2.degree, d1.degree + d2.degree))
                value = n1 * n2, d1 * d2
            op = tokens[i][0]
        return value

    def factor():
        nonlocal i
        kind, literal, offset = tokens[i]
        i += 1
        if kind == "-":
            value = factor()
            return (-value[0],) + value[1:]
        if kind == "num":
            value = literal[0], 0, literal[1]
        elif kind == "var":
            value = 1, 1, 1
        elif kind == "(":
            value = expr()
            if tokens[i][0] != ")":
                raise ExpressionSyntaxError(_unexpected(tokens[i]), tokens[i][2], "expected ')'")
            i += 1
        else:
            raise ExpressionSyntaxError(
                _unexpected(tokens[i - 1]), offset, "expected a number, 'n', '(' or '-'")
        nxt, _, offset = tokens[i]
        # a number after a number is left to the caller's "unexpected token"
        if nxt in ("var", "(", "num") and (nxt != "num" or kind != "num"):
            raise ExpressionSyntaxError(
                "implicit multiplication is not supported", offset, "write '*' explicitly")
        if tokens[i][0] != "^":
            return value
        kind, literal, offset = tokens[i + 1]
        if kind != "num" or literal[1] != 1:
            raise ExpressionSyntaxError("exponent must be a literal non-negative integer", offset)
        i += 2
        e = literal[0]
        if len(value) == 3:
            c, k, d = value
            _check_size(k * e, max(abs(c).bit_length(), abs(d).bit_length()) * e)
            return c ** e, k * e, d ** e
        num, den = value
        height = max(abs(c).bit_length() for c in num.coeffs + den.coeffs)
        _check_size(max(num.degree, den.degree) * e, height * e)
        return num ** e, den ** e

    try:
        value = expr()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", tokens[i][2]) from None
    kind, _, offset = tokens[i]
    if kind != "end":
        hint = "implicit multiplication is not supported; write '*' explicitly"
        raise ExpressionSyntaxError(_unexpected(tokens[i]), offset, hint if kind == "(" else None)
    return _pair(value)


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
