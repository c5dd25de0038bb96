from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from exactsum.closedform import (
    GAMMA,
    LN2,
    ONE,
    PI,
    PI_SQUARED,
    ZETA,
    SymbolicValue,
    assemble,
    render,
)
from exactsum.engine import evaluate
from exactsum.errors import PoleArgument
from exactsum.partfrac import decompose
from exactsum.polygamma import PrecisionPolicy, polygamma
from exactsum.polys import Polynomial

from conftest import make_spec, symbolic_numeric, to_mpf

POLICY = PrecisionPolicy(target_digits=30)


class TestPsiClosed:
    """A single psi^(n)(x) through assemble."""

    def test_three_halves(self):
        # psi(3/2) = psi(1/2) + 2 = 2 - gamma - 2 ln2
        v = assemble([(1, 0, F(3, 2))])
        assert v.coefficient(ONE) == 2
        assert v.coefficient(GAMMA) == -1
        assert v.coefficient(LN2) == -2
        assert v.fully_reduced

    def test_trigamma_at_two(self):
        # psi^(1)(2) = psi^(1)(1) - 1 = pi^2/6 - 1
        v = assemble([(1, 1, 2)])
        assert v.coefficient(ONE) == -1
        assert v.coefficient(PI_SQUARED) == F(1, 6)

    def test_quarter(self):
        v = assemble([(1, 0, F(1, 4))])
        assert v.coefficient(GAMMA) == -1
        assert v.coefficient(LN2) == -3
        assert v.coefficient(PI) == F(-1, 2)

    def test_three_quarters(self):
        v = assemble([(1, 0, F(3, 4))])
        assert v.coefficient(PI) == F(1, 2)

    def test_quarter_values_verified_numerically(self):
        # hard-coded Gauss-digamma constants cross-checked to 25 digits
        with mpmath.workdps(40):
            tol = mpmath.mpf(10) ** (-25)
            for arg in (F(1, 4), F(3, 4), F(5, 4), F(-1, 4)):
                sym = symbolic_numeric(assemble([(1, 0, arg)]))
                num = to_mpf(polygamma(0, arg, POLICY))
                assert abs(sym - num) < tol

    def test_quarter_at_higher_order_stays_residual(self):
        v = assemble([(1, 1, F(1, 4))])
        assert v.residuals == ((F(1), 1, F(1, 4)),)

    def test_residual_for_thirds(self):
        v = assemble([(1, 0, F(4, 3))])
        assert v.coefficient(ONE) == 3
        assert v.residuals == ((F(1), 0, F(1, 3)),)

    def test_pole(self):
        for arg in (0, -3):
            with pytest.raises(PoleArgument):
                assemble([(1, 2, arg)])

    def test_zeta_basis_for_higher_orders(self):
        v = assemble([(1, 3, 1)])  # psi^(3)(1) = 6 zeta(4)
        assert v.coefficient(ZETA(4)) == 6


class TestAssemble:
    def test_half_shift_pair_combination(self):
        # 2 psi(3/2) - 2 psi(1) = 4 - 4 ln2
        v = assemble([(2, 0, F(3, 2)), (-2, 0, 1)])
        assert v.coefficient(ONE) == 4
        assert v.coefficient(LN2) == -4
        assert v.coefficient(GAMMA) == 0
        assert v.fully_reduced

    def test_empty(self):
        assert assemble([]) == SymbolicValue.build({})

    def test_residual_cancellation(self):
        assert assemble([(1, 0, F(1, 3)), (-1, 0, F(1, 3))]) == SymbolicValue.build({})

    def test_order_independent(self, rng):
        terms = [
            (F(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(0, 2),
             F(rng.randint(1, 9), rng.randint(1, 5)))
            for _ in range(6)
        ]
        shuffled = terms[:]
        rng.shuffle(shuffled)
        assert assemble(terms) == assemble(shuffled)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_build_is_canonical(self, data):
        term = st.tuples(
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            st.integers(0, 3),
            st.fractions(min_value=-12, max_value=12, max_denominator=6).filter(
                lambda a: not (a.denominator == 1 and a <= 0)
            ),
        )
        terms = data.draw(st.lists(term, max_size=8))
        shuffled = data.draw(st.permutations(terms))
        assert assemble(terms) == assemble(shuffled)
        assert render(assemble(terms)) == render(assemble(shuffled))

    def test_shared_base_merges_or_cancels(self):
        # psi(4/3) = 3 + psi(1/3): both terms land on the one residual psi(0, 1/3)
        merged = assemble([(1, 0, F(4, 3)), (2, 0, F(1, 3))])
        assert merged == SymbolicValue.build({ONE: F(3)}, [(F(3), 0, F(1, 3))])
        assert render(merged) == "3 + 3*psi(0, 1/3)"
        cancelled = assemble([(1, 0, F(4, 3)), (-1, 0, F(1, 3))])
        assert cancelled == SymbolicValue.build({ONE: F(3)})

    def test_zero_coefficient_at_a_pole_is_skipped(self):
        v = assemble([(0, 2, 0), (F(0), 0, -3), (1, 0, 1)])
        assert v == SymbolicValue.build({GAMMA: F(-1)})

    def test_negative_order(self):
        with pytest.raises(ValueError):
            assemble([(1, -1, 2)])

    def test_builds_once(self, monkeypatch):
        calls = []
        build = SymbolicValue.build.__func__

        def counted(cls, *args):
            calls.append(args)
            return build(cls, *args)

        monkeypatch.setattr(SymbolicValue, "build", classmethod(counted))
        assemble([(1, 0, F(7, 2)), (-1, 1, F(9, 4)), (2, 3, 5), (F(1, 3), 0, F(-2, 3))])
        assert len(calls) == 1


class TestRecurrenceExactness:
    def test_difference_is_exact_rational(self, rng):
        # psi^(o)(a+1) - psi^(o)(a) = (-1)^o o!/a^(o+1), exactly
        import math

        for _ in range(30):
            o = rng.randint(0, 3)
            a = F(rng.randint(1, 40), rng.randint(1, 6))
            diff = assemble([(1, o, a + 1), (-1, o, a)])
            expected = F((-1) ** o * math.factorial(o)) / a ** (o + 1)
            assert diff == SymbolicValue.build({ONE: expected})


def test_numeric_consistency_randomized(rng):
    with mpmath.workdps(50):
        tol = mpmath.mpf(10) ** (-POLICY.target_digits + 3)
        checked = 0
        while checked < 25:
            order = rng.randint(0, 3)
            den = rng.randint(1, 6)
            num = rng.randint(int(-3 * den) + 1, 6 * den - 1)
            arg = F(num, den)
            if arg.denominator == 1 and arg <= 0:
                continue
            sym = symbolic_numeric(assemble([(1, order, arg)]))
            ref = to_mpf(polygamma(order, arg, POLICY))
            assert abs(sym - ref) < tol * max(1, abs(ref))
            checked += 1


class TestToNumeric:
    """Closed forms evaluated with mpmath's constants."""

    def test_four_minus_four_ln2(self):
        with mpmath.workdps(40):
            v = SymbolicValue.build({ONE: F(4), LN2: F(-4)})
            expected = mpmath.mpf("1.22741127776021876233107151417")
            assert abs(symbolic_numeric(v) - expected) < mpmath.mpf(10) ** (-28)

    def test_pi_squared_half_minus_four(self):
        with mpmath.workdps(40):
            v = SymbolicValue.build({PI_SQUARED: F(1, 2), ONE: F(-4)})
            expected = mpmath.mpf("0.934802200544679309417245499938")
            assert abs(symbolic_numeric(v) - expected) < mpmath.mpf(10) ** (-28)

    def test_large_cancelling_coefficients(self):
        # n^28/(n+20)^30: coefficients near 4e36 cancel to a sum near 1.7e-3
        spec = make_spec([(20, 30)], numerator=Polynomial([0] * 28 + [1]))
        exact = evaluate(spec, PrecisionPolicy(target_digits=20)).exact
        with mpmath.workdps(80):
            # sum_j A_j zeta(j, 21), the Hurwitz zeta summing 1/(n+20)^j
            ref = sum(
                mpmath.mpf(c.numerator) / c.denominator * mpmath.zeta(j, 21)
                for _, j, c in decompose(spec).entries
                if c
            )
            assert abs(symbolic_numeric(exact) - ref) < mpmath.mpf(10) ** -20 * abs(ref)


class TestRender:
    def test_integer_and_ln2(self):
        assert render(SymbolicValue.build({ONE: F(4), LN2: F(-4)})) == "4 - 4*ln(2)"

    def test_three_term_render(self):
        v = SymbolicValue.build({PI_SQUARED: F(1, 3), ONE: F(-8), LN2: F(8)})
        assert render(v) == "-8 + 8*ln(2) + (1/3)*pi^2"

    def test_pi_with_fraction(self):
        v = SymbolicValue.build({ONE: F(2), PI: F(-1, 2)})
        assert render(v) == "2 - (1/2)*pi"

    def test_residual_only(self):
        v = SymbolicValue.build({}, [(F(1), 0, F(1, 3))])
        assert render(v) == "psi(0, 1/3)"

    def test_zero(self):
        assert render(SymbolicValue.build({})) == "0"

    def test_canonical_order_with_zeta(self):
        v = SymbolicValue.build(
            {ZETA(3): F(2), GAMMA: F(1), ONE: F(-1), PI: F(1, 7)},
            [(F(-1, 2), 1, F(1, 5))],
        )
        assert render(v) == "-1 + gamma + (1/7)*pi + 2*zeta(3) - (1/2)*psi(1, 1/5)"


def test_build_drops_zero_coefficients():
    v = SymbolicValue.build({ONE: F(0), LN2: F(1)}, [(F(0), 0, F(1, 3))])
    assert v.basis_coeffs == ((LN2, F(1)),)
    assert v.residuals == ()
