import math
from fractions import Fraction as F

import mpmath
import pytest

from exactsum.closedform import GAMMA, LN2, ONE, PI_SQUARED, SymbolicValue, render
from exactsum.engine import evaluate
from exactsum.errors import NegativeIntegerShift
from exactsum.polygamma import PrecisionPolicy, to_mpf

from conftest import make_spec, random_plain_spec, random_shift, symbolic_numeric

POLICY = PrecisionPolicy(target_digits=30, guard_digits=10)


class TestKnownClosedForms:
    def test_half_shift_pair(self):
        r = evaluate(make_spec([(0, 1), (F(1, 2), 1)]), POLICY)
        assert render(r.exact) == "4 - 4*ln(2)"
        with mpmath.workdps(40):
            assert abs(r.numeric - mpmath.mpf("1.22741127776021876233107151417")) < mpmath.mpf(10) ** (-28)

    def test_basel(self):
        r = evaluate(make_spec([(0, 2)]), POLICY)
        assert render(r.exact) == "(1/6)*pi^2"
        with mpmath.workdps(40):
            assert abs(r.numeric - mpmath.pi ** 2 / 6) < mpmath.mpf(10) ** (-28)

    def test_half_shift_square(self):
        r = evaluate(make_spec([(F(1, 2), 2)]), POLICY)
        assert r.exact.coefficient(PI_SQUARED) == F(1, 2)
        assert r.exact.coefficient(ONE) == -4

    def test_double_pole_half_shift(self):
        r = evaluate(make_spec([(0, 2), (F(1, 2), 1)]), POLICY)
        assert render(r.exact) == "-8 + 8*ln(2) + (1/3)*pi^2"

    def test_shifted_double_pole(self):
        r = evaluate(make_spec([(1, 2), (F(1, 2), 1)]), POLICY)
        # 2(4 ln2 - 1) - pi^2/3
        assert r.exact.coefficient(ONE) == -2
        assert r.exact.coefficient(LN2) == 8
        assert r.exact.coefficient(PI_SQUARED) == F(-1, 3)
        with mpmath.workdps(40):
            assert abs(r.numeric - mpmath.mpf("0.2553093107831096")) < mpmath.mpf(10) ** (-15)

    def test_alternating_harmonic(self):
        r = evaluate(make_spec([(0, 1)], sign="alternating"), POLICY)
        assert render(r.exact) == "ln(2)"

    def test_alternating_half_shift(self):
        r = evaluate(make_spec([(F(1, 2), 1)], sign="alternating"), POLICY)
        assert render(r.exact) == "2 - (1/2)*pi"

    def test_alternating_square(self):
        r = evaluate(make_spec([(0, 2)], sign="alternating"), POLICY)
        assert r.exact.coefficient(PI_SQUARED) == F(1, 12)


class TestAnalyticIdentities:
    def test_cotangent_crosscheck(self):
        # S(a,-a) = (1/2a)(1/a - pi cot(pi a)) to 1e-20 at 30 digits
        with mpmath.workdps(45):
            for a in (F(1, 3), F(1, 4), F(2, 5)):
                r = evaluate(make_spec([(a, 1), (-a, 1)]), POLICY)
                am = to_mpf(a)
                ref = (1 / am - mpmath.pi * mpmath.cot(mpmath.pi * am)) / (2 * am)
                assert abs(r.numeric - ref) < mpmath.mpf(10) ** (-20)

    def test_single_factor_matches_psi_closed(self):
        # sum 1/(n+a)^N = ((-1)^N/(N-1)!) psi^(N-1)(a+1), exactly
        from exactsum.closedform import psi_closed

        for a, n_pow in [(F(1, 2), 2), (F(1, 3), 3), (0, 4), (F(5, 4), 2)]:
            r = evaluate(make_spec([(a, n_pow)]), POLICY)
            direct = psi_closed(n_pow - 1, a + 1).scale(
                F((-1) ** n_pow, math.factorial(n_pow - 1))
            )
            assert r.exact == direct


class TestTelescope:
    """sum 1/((n+a)(n+a-k)) through evaluate: a pure rational."""

    @staticmethod
    def _pair(a, k):
        return evaluate(make_spec([(a, 1), (a - k, 1)]), POLICY).exact

    def test_orientation_pinned_by_oracle(self):
        # frozen brute-force values: sum 1/((n+1)n) = 1, sum 1/((n+1)(n+2)) = 1/2
        assert self._pair(1, 1) == SymbolicValue.rational(1)
        assert self._pair(2, 1) == SymbolicValue.rational(F(1, 2))
        # sum 1/((n+5/2)(n+1/2)) telescopes to (1/2)(2/3 + 2/5) = 8/15
        assert self._pair(F(5, 2), 2) == SymbolicValue.rational(F(8, 15))
        # sum 1/((n+1/2)(n-3/2)) = (1/2)(-2 + 2) = 0
        assert self._pair(F(1, 2), 2) == SymbolicValue.rational(0)

    def test_brute_force_regression(self):
        with mpmath.workdps(30):
            for a, k in [(F(1), 1), (F(5, 2), 2), (F(1, 2), 2), (F(7, 3), 3)]:
                s = mpmath.mpf(0)
                n_terms = 200000
                am, bm = to_mpf(a), to_mpf(a - k)
                for n in range(1, n_terms):
                    s += 1 / ((n + am) * (n + bm))
                exact = self._pair(a, k)
                value = exact.coefficient(ONE)
                assert exact == SymbolicValue.rational(value)
                assert abs(s - to_mpf(value)) < mpmath.mpf("1e-4")

    def test_zero_denominator_case_is_rejected_as_shift(self):
        # j + a - k = 0 forces a - k to be a negative integer, so the
        # shift validation fires before any division by zero can happen
        with pytest.raises(NegativeIntegerShift):
            self._pair(1, 2)

    def test_negative_integer_shift(self):
        with pytest.raises(NegativeIntegerShift):
            self._pair(-2, 1)

    def test_consistency_with_sum_plain(self, rng):
        # two simple factors k apart must collapse to the finite rational
        # (1/k) sum_{j=1..k} 1/(j + a - k)
        done = 0
        while done < 25:
            a = random_shift(rng, max_den=4, lo=0, hi=5)
            if a <= 0:
                continue
            k = rng.randint(1, 5)
            b = a - k
            if b.denominator == 1 and b < 0:
                continue
            if any(j + a - k == 0 for j in range(1, k + 1)):
                continue
            r = evaluate(make_spec([(a, 1), (b, 1)]), POLICY)
            assert r.exact.fully_reduced
            expected = sum(F(1) / (j + a - k) for j in range(1, k + 1)) / k
            assert r.exact == SymbolicValue.rational(expected)
            done += 1


class TestAlternatingReductionGrid:
    def test_against_independent_accelerated_sums(self):
        # Validation grid for the even/odd-split reduction: each
        # pole order j and shift a checked against accelerated
        # alternating summation (independent of any psi evaluation).
        with mpmath.workdps(50):
            tol = mpmath.mpf(10) ** (-20)
            for a in (F(0), F(1, 2), F(1), F(3, 2), F(-1, 4)):
                for j in (1, 2, 3):
                    spec = make_spec([(a, j)], sign="alternating")
                    r = evaluate(spec, POLICY)
                    am = to_mpf(a)
                    ref = mpmath.nsum(
                        lambda n: (-1) ** (n + 1) / (n + am) ** j,
                        [1, mpmath.inf],
                        method="a",
                    )
                    assert abs(r.numeric - ref) < tol, (a, j)

    def test_against_raw_partial_sums(self):
        # coarse but fully brute-force: first-omitted-term bound
        with mpmath.workdps(30):
            for a in (F(0), F(1, 2), F(-1, 4)):
                for j in (1, 2):
                    spec = make_spec([(a, j)], sign="alternating")
                    r = evaluate(spec, POLICY)
                    s = mpmath.mpf(0)
                    am = to_mpf(a)
                    n_terms = 20000
                    for n in range(1, n_terms + 1):
                        s += (-1) ** (n + 1) / (n + am) ** j
                    bound = 1 / (n_terms + 1 + am) ** j
                    assert abs(r.numeric - s) <= bound * mpmath.mpf("1.01")


class TestEngineProperties:
    def test_gamma_cancellation_half_integer_shifts(self, rng):
        # every plain spec whose shifts have denominator in {1, 2} is gamma-free
        done = 0
        while done < 20:
            k = rng.randint(1, 3)
            shifts = set()
            while len(shifts) < k:
                shifts.add(random_shift(rng, max_den=2, lo=0, hi=5))
            pairs = [(a, rng.randint(1, 2)) for a in shifts]
            n_total = sum(m for _, m in pairs)
            if n_total < 2:
                continue
            spec = make_spec(pairs)
            r = evaluate(spec, POLICY)
            assert r.exact.coefficient(GAMMA) == 0
            done += 1

    def test_exact_numeric_coherence(self, rng):
        with mpmath.workdps(50):
            tol = mpmath.mpf(10) ** (-POLICY.target_digits + 3)
            for _ in range(15):
                spec = random_plain_spec(rng, max_factors=3, max_mult=2)
                r = evaluate(spec, POLICY)
                assert abs(symbolic_numeric(r.exact) - r.numeric) < tol * max(
                    1, abs(r.numeric)
                )

    def test_fully_reduced_flag(self):
        r = evaluate(make_spec([(F(1, 3), 1), (F(4, 3), 1)]), POLICY)
        # arguments 4/3 and 7/3 shift to the same base 1/3: residuals cancel
        assert r.fully_reduced
        r2 = evaluate(make_spec([(F(1, 3), 2)]), POLICY)
        assert not r2.fully_reduced
        assert r2.exact.residuals

    def test_dispatch(self):
        # evaluate follows the spec's sign mode
        assert render(evaluate(make_spec([(0, 2)]), POLICY).exact) == "(1/6)*pi^2"
        alternating = make_spec([(0, 2)], sign="alternating")
        assert render(evaluate(alternating, POLICY).exact) == "(1/12)*pi^2"
