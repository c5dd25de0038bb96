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
from exactsum.parser import (
    BinOp,
    Neg,
    Num,
    Pow,
    Var,
    _fold,
    ast_to_spec,
    parse_expression,
    render_ast,
)
from exactsum.polys import Polynomial, reduced


class TestGrammar:
    def test_half_shift_pair_expression(self):
        ast = parse_expression("1/(n^2+n/2)")
        assert ast == BinOp(
            "/",
            Num(F(1)),
            BinOp("+", Pow(Var(), 2), BinOp("/", Var(), Num(F(2)))),
        )

    def test_double_pole_half_shift_expression(self):
        ast = parse_expression("1/(n^2*(n+1/2))")
        assert isinstance(ast, BinOp) and ast.op == "/"

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
        assert parse_expression("-n^2") == Neg(Pow(Var(), 2))
        assert parse_expression("1+2*n") == BinOp(
            "+", Num(F(1)), BinOp("*", Num(F(2)), Var())
        )

    def test_left_association(self):
        assert parse_expression("1-2-3") == BinOp(
            "-", BinOp("-", Num(F(1)), Num(F(2))), Num(F(3))
        )

    def test_decimal_literal_exact(self):
        assert parse_expression("0.5") == Num(F(1, 2))
        assert parse_expression("0.1") == Num(F(1, 10))

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


def _random_ast(rng, depth=0):
    choice = rng.random()
    if depth > 3 or choice < 0.3:
        # integer literals only: a fractional Num renders as "p/q", which
        # reparses as a division node rather than a single literal
        if rng.random() < 0.5:
            return Num(F(rng.randint(0, 9)))
        return Var()
    if choice < 0.45:
        return Neg(_random_ast(rng, depth + 1))
    if choice < 0.6:
        return Pow(_random_ast(rng, depth + 1), rng.randint(0, 3))
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(op, _random_ast(rng, depth + 1), _random_ast(rng, depth + 1))


def test_parser_roundtrip_randomized(rng):
    done = 0
    while done < 60:
        ast = _random_ast(rng)
        text = render_ast(ast)
        reparsed = parse_expression(text)
        assert reparsed == ast
        # the folded rational function (hence any SumSpec) is identical
        try:
            rf1 = _fold(ast)
        except ZeroDivisionError:
            continue
        rf2 = _fold(reparsed)
        assert rf1 == rf2
        done += 1


def _fold_by_product_rule(node):
    """(N, D) of the AST by the general rules alone: a sum over the product
    of both denominators, and a power as repeated multiplication."""
    if isinstance(node, Num):
        return Polynomial([node.value.numerator]), Polynomial([node.value.denominator])
    if isinstance(node, Var):
        return Polynomial([0, 1]), Polynomial([1])
    if isinstance(node, Neg):
        num, den = _fold_by_product_rule(node.operand)
        return -num, den
    if isinstance(node, Pow):
        num, den = _fold_by_product_rule(node.base)
        out_num, out_den = Polynomial([1]), Polynomial([1])
        for _ in range(node.exponent):
            out_num, out_den = out_num * num, out_den * den
        return out_num, out_den
    (n1, d1), (n2, d2) = _fold_by_product_rule(node.left), _fold_by_product_rule(node.right)
    if node.op == "/":
        if n2.is_zero():
            raise DivisionByZero("division by zero")
        n2, d2 = d2, n2
    if node.op in "*/":
        return n1 * n2, d1 * d2
    sign = -1 if node.op == "-" else 1
    return n1 * d2 + n2 * d1 * sign, d1 * d2


_small_asts = st.recursive(
    st.one_of(
        st.just(Var()),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).map(Num),
    ),
    lambda inner: st.one_of(
        inner.map(Neg),
        st.builds(Pow, inner, st.integers(0, 3)),
        st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_small_asts)
def test_fold_matches_the_product_rule(ast):
    # the fold's shortcuts (a sum over one shared denominator, the power of
    # a monomial) give the rational function the general rules give
    try:
        folded = _fold(ast)
    except DegreeTooHigh:
        assume(False)  # past the fold's size limits
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            _fold_by_product_rule(ast)
        return
    assert reduced(*folded) == reduced(*_fold_by_product_rule(ast))
