from fractions import Fraction as F
from math import comb

import pytest

from exactsum.errors import DegreeTooHigh, OrderTooLarge, ShiftTooLarge
from exactsum.parser import ast_to_spec, parse_expression
from exactsum.partfrac import (
    MAX_CLOSED_FORM,
    MAX_MULTIPLICITY,
    MAX_SHIFT,
    PartialFractions,
    decompose,
)
from exactsum.polys import Polynomial

from conftest import coefficient, expand, make_spec, random_plain_spec, recombine, reduced

HARD_DENOMINATORS = [
    [(F(1000003, 999983), 2), (F(1, 2), 1), (0, 1)],
    [(F(1, 1000), 2), (F(1, 1001), 1), (F(1, 999), 1)],
    [(F(1, 3), 7), (F(2, 3), 2)],
    [(0, 3), (F(5, 7), 2), (2, 1)],
]


def rational_function(spec):
    """The spec's Q/P in lowest terms, as recombine returns it."""
    return reduced(spec.numerator, expand(spec.factors))


def _decompose_reference(spec):
    """The entries decompose returned when it ran on Fractions: a Taylor
    shift of Q by binomial sums, then one series division per linear factor."""
    q = spec.numerator.coeffs
    entries = []
    for a_i, m_i in spec.factors:
        # Taylor coefficients of Q at n = -a_i, in powers of t = n + a_i.
        g = [
            sum(
                (q[k] * comb(k, r) * (-a_i) ** (k - r) for k in range(r, len(q))),
                F(0),
            )
            for r in range(m_i)
        ]
        for a_l, m_l in spec.factors:
            b = a_l - a_i
            if b == 0:
                continue
            for _ in range(m_l):
                # Divide the truncated series by (t + b).
                for r in range(m_i):
                    g[r] = (g[r] - (g[r - 1] if r else 0)) / b
        entries.extend((a_i, j, g[m_i - j]) for j in range(1, m_i + 1))
    return tuple(entries)


def _random_spec(rng, sign):
    """A random convergent spec; alternating ones take deg Q up to N - 1."""
    spec = random_plain_spec(rng)
    if sign == "plain":
        return spec
    deg_q = rng.randint(0, spec.factors.total_degree - 1)
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg_q)] + [F(1)]
    return make_spec(spec.factors.pairs, sign, Polynomial(coeffs))


def _assert_matches_reference(spec):
    entries = decompose(spec).entries
    assert entries == _decompose_reference(spec)
    assert all(type(c) is F for _, _, c in entries)


class TestDecomposeExamples:
    def test_half_shift_pair(self):
        pf = decompose(make_spec([(0, 1), (F(1, 2), 1)]))
        assert coefficient(pf, 0, 1) == 2
        assert coefficient(pf, F(1, 2), 1) == -2

    def test_double_pole_half_shift(self):
        pf = decompose(make_spec([(0, 2), (F(1, 2), 1)]))
        assert coefficient(pf, 0, 1) == -4
        assert coefficient(pf, 0, 2) == 2
        assert coefficient(pf, F(1, 2), 1) == 4

    def test_shifted_double_pole(self):
        # 1/((n+1)^2 (n+1/2)); A(1,2) = -2, pinned by exact recombination
        # below (it also matches the -2 weight of psi^(1)(2) in the known
        # closed form, since the j=2 master-formula factor is +1).
        pf = decompose(make_spec([(1, 2), (F(1, 2), 1)]))
        assert coefficient(pf, 1, 1) == -4
        assert coefficient(pf, 1, 2) == -2
        assert coefficient(pf, F(1, 2), 1) == 4
        # pinned by exact recombination
        assert recombine(pf) == rational_function(make_spec([(1, 2), (F(1, 2), 1)]))

    def test_degree_too_high_plain(self):
        with pytest.raises(DegreeTooHigh):
            make_spec([(0, 1), (1, 1)], numerator=Polynomial([0, 1]))

    def test_alternating_allows_one_more_degree(self):
        spec = make_spec([(0, 1)], sign="alternating")
        assert coefficient(decompose(spec), 0, 1) == 1
        with pytest.raises(DegreeTooHigh):
            make_spec([(0, 1)], sign="alternating", numerator=Polynomial([0, 1]))


class TestRecombine:
    def test_half_shift_pair_roundtrip(self):
        pf = PartialFractions(((F(0), 1, F(2)), (F(1, 2), 1, F(-2))))
        num, den = recombine(pf)
        assert num == Polynomial([1])
        assert den == Polynomial([0, 1, 2])  # primitive: (n^2 + n/2) * 2

    def test_empty_table(self):
        num, _ = recombine(PartialFractions(()))
        assert num.is_zero()

    def test_single_term(self):
        num, den = recombine(PartialFractions(((F(0), 2, F(1)),)))
        assert num == Polynomial([1])
        assert den == Polynomial([0, 0, 1])


def test_roundtrip_randomized(rng):
    for _ in range(40):
        spec = random_plain_spec(rng)
        pf = decompose(spec)
        assert recombine(pf) == rational_function(spec)


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
    assert recombine(pf) == rational_function(spec)


@pytest.mark.parametrize("pairs", HARD_DENOMINATORS)
def test_roundtrip_hard_denominators(pairs):
    spec = make_spec(pairs, numerator=Polynomial([3, -1, F(1, 2)]))
    pf = decompose(spec)
    assert recombine(pf) == rational_function(spec)
    assert pf.simple_pole_sum() == 0


class TestMatchesReference:
    """The integer decompose returns the Fraction algorithm's entries exactly."""

    @pytest.mark.parametrize("sign", ["plain", "alternating"])
    def test_random_specs(self, rng, sign):
        for _ in range(60):
            _assert_matches_reference(_random_spec(rng, sign))

    @pytest.mark.parametrize("pairs", HARD_DENOMINATORS)
    @pytest.mark.parametrize("sign", ["plain", "alternating"])
    def test_hard_denominators(self, pairs, sign):
        _assert_matches_reference(make_spec(pairs, sign, Polynomial([3, -1, F(1, 2)])))

    def test_multiplicity_31_at_three_shifts(self):
        pairs = [(0, MAX_MULTIPLICITY), (F(1, 2), MAX_MULTIPLICITY), (F(7, 3), MAX_MULTIPLICITY)]
        _assert_matches_reference(make_spec(pairs, numerator=Polynomial([3, -1, F(1, 2)])))

    def test_shifts_in_sevenths(self):
        pairs = [(F(k, 7), 1) for k in range(128)]
        _assert_matches_reference(make_spec(pairs, numerator=Polynomial([3, -1, F(1, 2)])))

    @pytest.mark.parametrize("sign", ["plain", "alternating"])
    def test_shifts_near_the_limit(self, sign):
        pairs = [
            (F(MAX_SHIFT * 999983 - 1, 999983), 1),
            (F(-MAX_SHIFT * 1000003 + 1, 1000003), 1),
            (F(12345, 65537), 3),
        ]
        numerator = Polynomial([F(-5, 3), 7, 0, F(1, 11)])
        _assert_matches_reference(make_spec(pairs, sign, numerator))


def test_order_200_pole_rejected():
    # the multiplicity limit refuses the spec before any partial fractions
    with pytest.raises(OrderTooLarge):
        ast_to_spec(parse_expression("1/n^200"))


def test_shift_height_limit():
    # checked when the spec is built, before any partial-fraction algebra
    assert make_spec([(MAX_SHIFT, 2)]).factors.total_degree == 2
    for a in (MAX_SHIFT + 1, F(-2 * MAX_SHIFT - 1, 2)):
        with pytest.raises(ShiftTooLarge):
            make_spec([(a, 2)])


def test_multiplicity_limit():
    assert make_spec([(0, MAX_MULTIPLICITY)]).factors.total_degree == MAX_MULTIPLICITY
    with pytest.raises(OrderTooLarge):
        make_spec([(0, MAX_MULTIPLICITY + 1)])


def test_closed_form_limit():
    # sum of (|a| + 1) m: 4 (a + 1) is exactly the limit at the first shift
    a = MAX_CLOSED_FORM // 4 - 1
    assert make_spec([(a, 4)]).factors.total_degree == 4
    for pairs in ([(a + 1, 4)], [(a, 4), (F(1, 2), 1)]):
        with pytest.raises(ShiftTooLarge):
            make_spec(pairs)
