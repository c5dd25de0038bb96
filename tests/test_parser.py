from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from exactsum.errors import (
    DegreeTooHigh,
    DivisionByZero,
    ExpressionSyntaxError,
    NegativeIntegerShift,
    NonLinearFactor,
)
from exactsum.parser import ast_to_spec, parse_expression
from exactsum.polys import Polynomial, reduced


def _value(text):
    """The parsed expression in lowest terms."""
    return reduced(*parse_expression(text))


def _rational(num, den):
    """num/den, given as coefficient lists, in lowest terms."""
    return reduced(Polynomial(num), Polynomial(den))


class TestGrammar:
    def test_half_shift_pair_expression(self):
        # 1/(n^2 + n/2) = 2/(2n^2 + n)
        assert _value("1/(n^2+n/2)") == _rational([2], [0, 1, 2])

    def test_double_pole_half_shift_expression(self):
        # 1/(n^2 (n + 1/2)) = 2/(2n^3 + n^2)
        assert _value("1/(n^2*(n+1/2))") == _rational([2], [0, 0, 1, 2])

    def test_implicit_multiplication_rejected(self):
        cases = [("n(n+1)", 1), ("2n", 1), ("(n+1)(n+2)", 5), ("2(n+1)", 1),
                 ("n 2", 2), ("(n) 2", 4), ("2 (n)", 2), ("n n", 2), ("-2 n", 3)]
        for text, offset in cases:
            with pytest.raises(ExpressionSyntaxError) as exc:
                parse_expression(text)
            assert str(exc.value) == (
                f"syntax error at offset {offset}: "
                "implicit multiplication is not supported (write '*' explicitly)"
            )

    def test_precedence(self):
        # ^ binds tighter than unary minus; * tighter than +
        assert _value("-n^2") == _rational([0, 0, -1], [1])
        assert _value("1+2*n") == _rational([1, 2], [1])

    def test_left_association(self):
        assert _value("1-2-3") == _rational([-4], [1])

    def test_decimal_literal_exact(self):
        # a literal p/q in lowest terms enters as the pair (p, q)
        assert parse_expression("0.5") == (Polynomial([1]), Polynomial([2]))
        assert parse_expression("0.1") == (Polynomial([1]), Polynomial([10]))

    def test_syntax_error_offset_and_hint(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("1/(n+")
        assert exc.value.offset == 5
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("1/(x+2)")
        assert exc.value.offset == 3

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("n^-1")
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("n^(1/2)")

    def test_end_of_input_named(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("1/(n+1)^2+")
        assert exc.value.offset == 10
        assert "unexpected end of input" in str(exc.value)
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("1/n^2 3")
        assert "unexpected token '3'" in str(exc.value)
        # a number after a number is not read as implicit multiplication
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("2 3")
        assert str(exc.value) == "syntax error at offset 2: unexpected token '3'"

    def test_whitespace_tolerated(self):
        assert parse_expression(" 1 / ( n + 1 ) ") == parse_expression("1/(n+1)")


class TestAstToSpec:
    def test_half_shift_pair(self):
        spec = ast_to_spec(parse_expression("1/(n^2+n/2)"), "plain")
        assert spec.numerator == Polynomial([1])
        assert spec.factors.pairs == ((F(0), 1), (F(1, 2), 1))
        assert spec.sign == "plain"

    def test_difference_of_squares(self):
        spec = ast_to_spec(parse_expression("1/(n^2-1/9)"), "plain")
        assert spec.factors.pairs == ((F(-1, 3), 1), (F(1, 3), 1))

    def test_negative_integer_shift(self):
        with pytest.raises(NegativeIntegerShift):
            ast_to_spec(parse_expression("1/(n-2)"), "alternating")

    def test_nonlinear_factor(self):
        with pytest.raises(NonLinearFactor):
            ast_to_spec(parse_expression("n/(n^2+1)"), "plain")

    def test_degree_too_high_message(self):
        with pytest.raises(DegreeTooHigh) as exc:
            ast_to_spec(parse_expression("n/(n^2+n/2)"), "plain")
        assert "deg Q" in str(exc.value)

    def test_no_denominator(self):
        with pytest.raises(DegreeTooHigh):
            ast_to_spec(parse_expression("n+1"), "plain")

    def test_reduction_before_factoring(self):
        # (n-1)/((n-1) n^2) reduces to 1/n^2; the n-1 factor (a negative
        # integer shift!) cancels before validation
        spec = ast_to_spec(parse_expression("(n-1)/((n-1)*n^2)"), "plain")
        assert spec.factors.pairs == ((F(0), 2),)

    def test_division_by_zero(self):
        for text in ("1/(n-n)", "1/0", "n/((n+1)*(2-2))"):
            with pytest.raises(DivisionByZero):
                ast_to_spec(parse_expression(text), "plain")

    def test_fold_degree_limit(self):
        with pytest.raises(DegreeTooHigh) as exc:
            ast_to_spec(parse_expression("1/(n^2+1)^129"), "plain")
        assert "degree 258 > 256" in str(exc.value)

    def test_sum_over_one_denominator_expands_nothing(self):
        # 1/P + 1/P folds to 2/P, not to a degree-260 product over P^2 that
        # the fold's size limit would refuse
        p = "*".join(f"(n+{k})" for k in range(1, 131))
        spec = ast_to_spec(parse_expression(f"1/({p}) + 1/({p})"), "plain")
        assert spec.numerator == Polynomial([2])
        assert spec.factors.pairs == tuple((F(k), 1) for k in range(1, 131))

    def test_integer_fold_keeps_rational_numerator(self):
        # (2/3)/(2n^2 + n) is (1/3)/(n^2 + n/2) over the monic denominator
        spec = ast_to_spec(parse_expression("(2/3)/(2*n^2+n)"), "plain")
        assert spec.numerator == Polynomial([F(1, 3)])
        assert spec.factors.pairs == ((F(0), 1), (F(1, 2), 1))

    def test_alternating_degree_allowance(self):
        spec = ast_to_spec(parse_expression("(n+1)/(n^2+n/2)"), "alternating")
        assert spec.numerator == Polynomial([1, 1])
        assert spec.factors.pairs == ((F(0), 1), (F(1, 2), 1))


def _fold_by_product_rule(op, left, right=None):
    """(N, D) of `left op right` by the general rules alone: a sum over the
    product of both denominators, and a power (right the exponent) as
    repeated multiplication; op "neg" negates left."""
    n1, d1 = left
    if op == "neg":
        return -n1, d1
    if op == "^":
        num, den = Polynomial([1]), Polynomial([1])
        for _ in range(right):
            num, den = num * n1, den * d1
        return num, den
    n2, d2 = right
    if op == "/":
        if n2.is_zero():
            raise DivisionByZero("division by zero")
        n2, d2 = d2, n2
    if op in "*/":
        return n1 * n2, d1 * d2
    sign = -1 if op == "-" else 1
    return n1 * d2 + n2 * d1 * sign, d1 * d2


# An expression is (text, level, reference): the text with the fewest
# parentheses, its precedence level (1 a sum, 2 a product, 3 a power or a
# negation, 4 an atom), and a call that folds it by the product rule.  An
# operand is parenthesized only where the grammar needs it: the right
# operand of a left-associative operator one level above the operator's, a
# power's base an atom.


def _operand(expression, level):
    text, own, _ = expression
    return text if own >= level else f"({text})"


def _negation(a):
    return "-" + _operand(a, 3), 3, lambda: _fold_by_product_rule("neg", a[2]())


def _power(a, k):
    return f"{_operand(a, 4)}^{k}", 3, lambda: _fold_by_product_rule("^", a[2](), k)


def _binary(op, a, b):
    level = 1 if op in "+-" else 2
    text = f"{_operand(a, level)} {op} {_operand(b, level + 1)}"
    return text, level, lambda: _fold_by_product_rule(op, a[2](), b[2]())


def _literal(text):
    x = F(text)
    return text, 4, lambda: (Polynomial([x.numerator]), Polynomial([x.denominator]))


_leaves = st.one_of(
    st.just(("n", 4, lambda: (Polynomial([0, 1]), Polynomial([1])))),
    st.integers(0, 9).map(str).map(_literal),
    st.builds("{}.{}".format, st.integers(0, 9), st.integers(0, 99)).map(_literal),
)
_expressions = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        inner.map(_negation),
        st.builds(_power, inner, st.integers(0, 3)),
        st.builds(_binary, st.sampled_from("+-*/"), inner, inner),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_expressions)
def test_fold_matches_the_product_rule(expression):
    # the fold made while parsing, with its shortcuts (a sum over one shared
    # denominator, the power of a monomial), gives the rational function the
    # general rules give, reading precedence and association from the text
    text, _, reference = expression
    try:
        folded = parse_expression(text)
    except DegreeTooHigh:
        assume(False)  # past the fold's size limits
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            reference()
        return
    assert reduced(*folded) == reduced(*reference())


def _random_text(rng, depth=0):
    """A random expression, every compound operand in parentheses."""
    choice = rng.random()
    if depth > 3 or choice < 0.3:
        return str(rng.randint(0, 9)) if rng.random() < 0.5 else "n"
    if choice < 0.45:
        return f"-({_random_text(rng, depth + 1)})"
    if choice < 0.6:
        return f"({_random_text(rng, depth + 1)})^{rng.randint(0, 3)}"
    op = rng.choice("+-*/")
    return f"({_random_text(rng, depth + 1)}) {op} ({_random_text(rng, depth + 1)})"


def test_parser_roundtrip_randomized(rng):
    # the parsed pair (N, D), printed in the input grammar as (N)/(D), parses
    # back to the same pair, so the spec made from either text is identical
    done = 0
    while done < 60:
        text = _random_text(rng)
        try:
            num, den = parse_expression(text)
        except (DivisionByZero, DegreeTooHigh):
            continue
        reparsed = parse_expression(f"({num})/({den})")
        assert reparsed == (num, den)
        done += 1
