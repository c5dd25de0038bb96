from fractions import Fraction as F

import pytest

from exactsum.engine import evaluate
from exactsum.errors import DegreeTooHigh, OrderTooLarge, ShiftTooLarge
from exactsum.parser import ast_to_spec, parse_expression
from exactsum.partfrac import MAX_SHIFT, PartialFractions, decompose, recombine
from exactsum.polys import FactorList, Polynomial

from conftest import make_spec, random_plain_spec


class TestDecomposeExamples:
    def test_half_shift_pair(self):
        pf = decompose(make_spec([(0, 1), (F(1, 2), 1)]))
        assert pf.coefficient(0, 1) == 2
        assert pf.coefficient(F(1, 2), 1) == -2

    def test_double_pole_half_shift(self):
        pf = decompose(make_spec([(0, 2), (F(1, 2), 1)]))
        assert pf.coefficient(0, 1) == -4
        assert pf.coefficient(0, 2) == 2
        assert pf.coefficient(F(1, 2), 1) == 4

    def test_shifted_double_pole(self):
        # 1/((n+1)^2 (n+1/2)); A(1,2) = -2, pinned by exact recombination
        # below (it also matches the -2 weight of psi^(1)(2) in the known
        # closed form, since the j=2 master-formula factor is +1).
        pf = decompose(make_spec([(1, 2), (F(1, 2), 1)]))
        assert pf.coefficient(1, 1) == -4
        assert pf.coefficient(1, 2) == -2
        assert pf.coefficient(F(1, 2), 1) == 4
        # pinned by exact recombination
        assert recombine(pf) == make_spec([(1, 2), (F(1, 2), 1)]).rational_function()

    def test_degree_too_high_plain(self):
        with pytest.raises(DegreeTooHigh):
            make_spec([(0, 1), (1, 1)], numerator=Polynomial([0, 1]))

    def test_alternating_allows_one_more_degree(self):
        spec = make_spec([(0, 1)], sign="alternating")
        assert decompose(spec).coefficient(0, 1) == 1
        with pytest.raises(DegreeTooHigh):
            make_spec([(0, 1)], sign="alternating", numerator=Polynomial([0, 1]))


class TestRecombine:
    def test_half_shift_pair_roundtrip(self):
        pf = PartialFractions(((F(0), 1, F(2)), (F(1, 2), 1, F(-2))))
        rf = recombine(pf)
        assert rf.numerator == Polynomial([1])
        assert rf.denominator == Polynomial([0, F(1, 2), 1])

    def test_empty_table(self):
        assert recombine(PartialFractions(())).is_zero()

    def test_single_term(self):
        rf = recombine(PartialFractions(((F(0), 2, F(1)),)))
        assert rf.numerator == Polynomial([1])
        assert rf.denominator == Polynomial([0, 0, 1])


def test_roundtrip_randomized(rng):
    for _ in range(40):
        spec = random_plain_spec(rng)
        pf = decompose(spec)
        assert recombine(pf) == spec.rational_function()


def test_simple_pole_sum_vanishes(rng):
    # sum_i A_i1 = 0 whenever deg Q <= N - 2
    for _ in range(40):
        spec = random_plain_spec(rng)
        assert decompose(spec).simple_pole_sum() == 0


def test_coefficients_independent_of_factor_order():
    pairs = [(F(3, 2), 2), (0, 1), (F(-1, 4), 1)]
    spec1 = make_spec(pairs)
    spec2 = make_spec(list(reversed(pairs)))
    assert decompose(spec1) == decompose(spec2)


def test_alternating_degree_n_minus_1_nonzero_pole_sum():
    # deg Q = N - 1 is admissible in alternating mode; sum A_i1 = lead(Q)
    spec = make_spec(
        [(0, 1), (F(1, 2), 1)], sign="alternating", numerator=Polynomial([0, 1])
    )
    pf = decompose(spec)
    assert pf.simple_pole_sum() == 1
    assert recombine(pf) == spec.rational_function()


@pytest.mark.parametrize(
    "pairs",
    [
        [(F(1000003, 999983), 2), (F(1, 2), 1), (0, 1)],
        [(F(1, 1000), 2), (F(1, 1001), 1), (F(1, 999), 1)],
        [(F(1, 3), 7), (F(2, 3), 2)],
        [(0, 3), (F(5, 7), 2), (2, 1)],
    ],
)
def test_roundtrip_hard_denominators(pairs):
    spec = make_spec(pairs, numerator=Polynomial([3, -1, F(1, 2)]))
    pf = decompose(spec)
    assert recombine(pf) == spec.rational_function()
    assert pf.simple_pole_sum() == 0


def test_order_200_pole_rejected():
    spec = ast_to_spec(parse_expression("1/n^200"))
    assert spec.factors == FactorList([(0, 200)])
    assert decompose(spec).coefficient(0, 200) == 1
    with pytest.raises(OrderTooLarge):
        evaluate(spec)


def test_shift_height_limit():
    # checked when the spec is built, before any partial-fraction algebra
    assert make_spec([(MAX_SHIFT, 2)]).factors.total_degree == 2
    for a in (MAX_SHIFT + 1, F(-2 * MAX_SHIFT - 1, 2)):
        with pytest.raises(ShiftTooLarge):
            make_spec([(a, 2)])
