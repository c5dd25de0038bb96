import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from exactsum import parser, polys
from exactsum.cli import CliRequest, run
from exactsum.errors import (
    DegreeTooHigh,
    DivisionByZero,
    ExactSumError,
    ExpressionSyntaxError,
    NegativeIntegerShift,
    NonLinearFactor,
)
from exactsum.parser import ast_to_spec, parse_expression
from exactsum.partfrac import SumSpec
from exactsum.polys import FactorList, Polynomial

from conftest import from_pairs, reduced


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

    @pytest.mark.parametrize(
        "literal, pair", [("1.50", (3, 2)), (".5", (1, 2)), ("007", (7, 1)), ("1.", (1, 1))]
    )
    def test_literal_token_is_a_lowest_terms_pair(self, literal, pair):
        assert parser._tokenize(literal) == [("num", pair, 0), ("end", None, len(literal))]

    @pytest.mark.parametrize(
        "expression, offset", [("1..2", 2), (".", 0), ("1/(n+.)", 5), ("1.2.3", 3), ("n+ .", 3)]
    )
    def test_malformed_number_offset(self, expression, offset):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression(expression)
        assert str(exc.value) == f"syntax error at offset {offset}: malformed number"

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


_EXPECTED = "expected a number, 'n', '(' or '-'"
_IMPLICIT = "implicit multiplication is not supported"
_EXPONENT = "exponent must be a literal non-negative integer"


@pytest.mark.parametrize("text, error, offset, message, hint", [
    # the tokenizer
    ("1/n^2 $", ExpressionSyntaxError, 6, "unexpected character '$'",
     "expected a number, 'n' or an operator"),
    ("1..5/n^2", ExpressionSyntaxError, 2, "malformed number", None),
    (".", ExpressionSyntaxError, 0, "malformed number", None),
    ("9" * 20000, DegreeTooHigh, None, "the expression has a literal of 20000 digits > 19728",
     None),
    # an exponent
    ("n^-1", ExpressionSyntaxError, 2, _EXPONENT, None),
    ("n^1.5", ExpressionSyntaxError, 2, _EXPONENT, None),
    ("n^(2)", ExpressionSyntaxError, 2, _EXPONENT, None),
    ("n^", ExpressionSyntaxError, 2, _EXPONENT, None),
    # an operand followed by an operand
    ("2n", ExpressionSyntaxError, 1, _IMPLICIT, "write '*' explicitly"),
    ("n(n+1)", ExpressionSyntaxError, 1, _IMPLICIT, "write '*' explicitly"),
    ("(n)(n+1)", ExpressionSyntaxError, 3, _IMPLICIT, "write '*' explicitly"),
    ("n 2", ExpressionSyntaxError, 2, _IMPLICIT, "write '*' explicitly"),
    ("2 3", ExpressionSyntaxError, 2, "unexpected token '3'", None),
    ("2 1.5", ExpressionSyntaxError, 2, "unexpected token '3/2'", None),
    ("n^2 n", ExpressionSyntaxError, 4, "unexpected token 'n'", None),
    ("2^2(n)", ExpressionSyntaxError, 3, "unexpected token '('",
     "implicit multiplication is not supported; write '*' explicitly"),
    # a unary minus takes no second power, as a power takes none
    ("-n^2^3", ExpressionSyntaxError, 4, "unexpected token '^'", None),
    ("--n^2^3^2", ExpressionSyntaxError, 5, "unexpected token '^'", None),
    # a missing operand or parenthesis
    ("1/(n^2", ExpressionSyntaxError, 6, "unexpected end of input", "expected ')'"),
    (")", ExpressionSyntaxError, 0, "unexpected token ')'", _EXPECTED),
    ("*n", ExpressionSyntaxError, 0, "unexpected token '*'", _EXPECTED),
    ("n+*2", ExpressionSyntaxError, 2, "unexpected token '*'", _EXPECTED),
    ("-", ExpressionSyntaxError, 1, "unexpected end of input", _EXPECTED),
    # the value
    ("n/((n+1)*(2-2))", DivisionByZero, None, "division by zero", None),
    ("1/0", DivisionByZero, None, "division by zero", None),
    ("n^257", DegreeTooHigh, None, "the expression has degree 257 > 256", None),
    ("0*n^300", DegreeTooHigh, None, "the expression has degree 300 > 256", None),
    ("(n+1)^200*(n+1)^100", DegreeTooHigh, None, "the expression has degree 300 > 256", None),
    ("n^200/(n+1) + n^100/(n^60+1)", DegreeTooHigh, None,
     "the expression has degree 260 > 256", None),
    ("3^100000", DegreeTooHigh, None,
     "the expression has coefficients of 200000 bits > 65536", None),
])
def test_error_class_offset_message_and_hint(text, error, offset, message, hint):
    with pytest.raises(ExactSumError) as exc:
        parse_expression(text)
    assert type(exc.value) is error
    if error is ExpressionSyntaxError:
        assert (exc.value.offset, exc.value.hint) == (offset, hint)
        message = f"syntax error at offset {offset}: {message}" + (f" ({hint})" if hint else "")
    assert str(exc.value) == message


@pytest.mark.parametrize("text, num, den", [
    ("n^200/2 + n^100/3", {200: 3, 100: 2}, {0: 6}),
    ("n^200/n^100", {200: 1}, {100: 1}),
    ("n^200*(1/(n^100+1))", {200: 1}, {100: 1, 0: 1}),
])
def test_size_checks_bound_the_degree_formed(text, num, den):
    # a sum over constants and a quotient form degree 200, not 300
    def poly(terms):
        return Polynomial([terms.get(k, 0) for k in range(max(terms) + 1)])

    assert parse_expression(text) == (poly(num), poly(den))


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

    @pytest.mark.parametrize("shifts, seconds", [
        ([F(k, 13) for k in range(256)], 3),
        ([F(k, 257) for k in range(1, 257)], 3),
        ([F(-k, 257) for k in range(1, 257)], 3),
        ([F(k, 7) for k in range(128)], 0.5),
    ], ids=["256-shifts-k/13", "256-shifts-k/257", "256-shifts-minus-k/257", "128-shifts-k/7"])
    def test_factoring_at_the_degree_limit(self, shifts, seconds):
        # each takes well under these bounds, which catch a return to seconds
        pair = parse_expression(
            "1/(" + "*".join(f"(n{'+' if a >= 0 else '-'}{abs(a)})" for a in shifts) + ")")
        start = time.perf_counter()
        spec = ast_to_spec(pair, "plain")
        assert time.perf_counter() - start < seconds
        assert spec.factors == FactorList([(a, 1) for a in shifts])

    def test_integer_fold_keeps_rational_numerator(self):
        # (2/3)/(2n^2 + n) is (1/3)/(n^2 + n/2) over the monic denominator
        spec = ast_to_spec(parse_expression("(2/3)/(2*n^2+n)"), "plain")
        assert spec.numerator == Polynomial([F(1, 3)])
        assert spec.factors.pairs == ((F(0), 1), (F(1, 2), 1))

    def test_alternating_degree_allowance(self):
        spec = ast_to_spec(parse_expression("(n+1)/(n^2+n/2)"), "alternating")
        assert spec.numerator == Polynomial([1, 1])
        assert spec.factors.pairs == ((F(0), 1), (F(1, 2), 1))


class TestCancellation:
    """N/D is cancelled at the factors of D that N shares, before any check."""

    @pytest.mark.parametrize("expression, numerator, pairs, exact", [
        # the negative-integer root n = 2 cancels before the poles are checked
        ("(n-2)/((n-2)*(n+1)^2)", [1], ((F(1), 2),), "-1 + (1/6)*pi^2"),
        ("(n^2+1)/((n^2+1)*n^2)", [1], ((F(0), 2),), "(1/6)*pi^2"),
        ("(n+1)^3/((n+1)^2*n^4)", [1, 1], ((F(0), 4),), "zeta(3) + zeta(4)"),
    ], ids=["negative-integer-root", "quadratic", "numerator-keeps-a-root"])
    def test_cancelled_factor(self, expression, numerator, pairs, exact):
        spec = ast_to_spec(parse_expression(expression), "plain")
        assert spec.numerator == Polynomial(numerator)
        assert spec.factors.pairs == pairs
        code, out, err = run(CliRequest(expression, format="exact"))
        assert (code, out, err) == (0, exact + "\n", "")

    def test_nonlinear_rest_left_after_its_gcd(self):
        expression = "(n^2+1)/((n^2+1)^2*n^2)"
        with pytest.raises(NonLinearFactor) as exc:
            ast_to_spec(parse_expression(expression), "plain")
        assert exc.value.remainder == Polynomial([1, 0, 1])
        assert run(CliRequest(expression)) == (
            2, "", "error: denominator has a factor with no rational root: n^2 + 1\n")

    def test_one_gcd_when_every_root_is_rational(self, monkeypatch):
        gcd, calls = polys._gcd, []

        def counted(p, q):
            calls.append((p, q))
            return gcd(p, q)

        monkeypatch.setattr(polys, "_gcd", counted)
        spec = ast_to_spec(parse_expression(
            "(n-1)*(n+1/2)/((n-1)*(n+1/2)^2*(n+1/3)^3*n^2*(n+5)^31)"), "plain")
        assert spec.factors.pairs == (
            (F(0), 2), (F(1, 3), 3), (F(1, 2), 1), (F(5), 31))
        assert len(calls) == 1


def _product(pairs):
    """The product of (q n + p)^m over the pairs (p/q, m), on integers."""
    return math.prod((Polynomial([a.numerator, a.denominator]) ** m for a, m in pairs),
                     start=Polynomial([1]))


def _outcome(make):
    try:
        return make()
    except ExactSumError as exc:
        return type(exc), str(exc)


_small_shifts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_quadratic = st.one_of(st.none(), st.integers(1, 5))


@settings(max_examples=80, deadline=None)
@given(
    kept=st.lists(st.tuples(_small_shifts, st.integers(1, 3)), min_size=1, max_size=3,
                  unique_by=lambda t: t[0]),
    core=st.lists(st.tuples(_small_shifts, st.integers(1, 3)), max_size=2,
                  unique_by=lambda t: t[0]),
    shared=st.lists(st.tuples(st.fractions(min_value=-40, max_value=40, max_denominator=6),
                              st.integers(1, 31)), max_size=2, unique_by=lambda t: t[0]),
    kept_quadratic=_quadratic,
    shared_quadratic=_quadratic,
    scales=st.tuples(st.integers(-5, 5).filter(bool), st.integers(1, 6)),
    sign=st.sampled_from(["plain", "alternating"]),
)
def test_cancellation_matches_a_reduced_quotient(
    kept, core, shared, kept_quadratic, shared_quadratic, scales, sign
):
    """N = core C and D = F C: ast_to_spec gives what `reduced` and
    `from_pairs` give for N/D, or the same error with the same remainder.

    C shares linear factors (negative integer shifts included) and maybe
    n^2 + k; a root of F that the core shares is cancelled to
    max(0, m_F - m_core)."""
    common = _product(shared)
    if shared_quadratic:
        common = common * Polynomial([shared_quadratic, 0, 1])
    den = _product(kept) * common * scales[1]
    if kept_quadratic:
        den = den * Polynomial([kept_quadratic, 0, 1])
    num = _product(core) * common * scales[0]
    in_core = dict(core)
    left = [(a, m - in_core.get(a, 0)) for a, m in kept if m > in_core.get(a, 0)]

    def reference():
        q, d = reduced(num, den)
        rest = d.exact_div(_product(left))
        if rest.degree > 0:
            raise NonLinearFactor(rest)
        return SumSpec(q, from_pairs(left), sign)

    assert _outcome(lambda: ast_to_spec((num, den), sign)) == _outcome(reference)


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
