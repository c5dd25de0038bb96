import importlib
import json
import math
from fractions import Fraction as F

import mpmath
import pytest

from exactsum.cli import CliRequest, run
from exactsum.closedform import GAMMA, LN2, ONE, PI_SQUARED, SymbolicValue, assemble, render
from exactsum import engine
from exactsum.engine import evaluate
from exactsum.errors import NegativeIntegerShift
from exactsum.parser import ast_to_spec, parse_expression
from exactsum.oracle import partial_sum_bracket, to_mpf
from exactsum.polygamma import PrecisionPolicy, decimal_text, polygamma, psi_sum

from conftest import make_spec, random_plain_spec, random_shift, symbolic_numeric

POLICY = PrecisionPolicy(target_digits=30)


class TestKnownClosedForms:
    def test_half_shift_pair(self):
        r = evaluate(make_spec([(0, 1), (F(1, 2), 1)]), POLICY)
        assert render(r.exact) == "4 - 4*ln(2)"
        with mpmath.workdps(40):
            assert abs(r.value - F("1.22741127776021876233107151417")) < F(10) ** (-28)

    def test_basel(self):
        r = evaluate(make_spec([(0, 2)]), POLICY)
        assert render(r.exact) == "(1/6)*pi^2"
        with mpmath.workdps(40):
            assert abs(to_mpf(r.value) - mpmath.pi ** 2 / 6) < mpmath.mpf(10) ** (-28)

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
            assert abs(r.value - F("0.2553093107831096")) < F(10) ** (-15)

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
                assert abs(to_mpf(r.value) - ref) < mpmath.mpf(10) ** (-20)

    def test_single_factor_matches_psi_closed(self):
        # sum 1/(n+a)^N = ((-1)^N/(N-1)!) psi^(N-1)(a+1), exactly
        for a, n_pow in [(F(1, 2), 2), (F(1, 3), 3), (0, 4), (F(5, 4), 2)]:
            r = evaluate(make_spec([(a, n_pow)]), POLICY)
            direct = assemble(
                [(F((-1) ** n_pow, math.factorial(n_pow - 1)), n_pow - 1, a + 1)]
            )
            assert r.exact == direct


class TestTelescope:
    """sum 1/((n+a)(n+a-k)) through evaluate: a pure rational."""

    @staticmethod
    def _pair(a, k):
        return evaluate(make_spec([(a, 1), (a - k, 1)]), POLICY).exact

    def test_orientation_pinned_by_oracle(self):
        # frozen brute-force values: sum 1/((n+1)n) = 1, sum 1/((n+1)(n+2)) = 1/2
        assert self._pair(1, 1) == SymbolicValue.build({ONE: F(1)})
        assert self._pair(2, 1) == SymbolicValue.build({ONE: F(1, 2)})
        # sum 1/((n+5/2)(n+1/2)) telescopes to (1/2)(2/3 + 2/5) = 8/15
        assert self._pair(F(5, 2), 2) == SymbolicValue.build({ONE: F(8, 15)})
        # sum 1/((n+1/2)(n-3/2)) = (1/2)(-2 + 2) = 0
        assert self._pair(F(1, 2), 2) == SymbolicValue.build({ONE: F(0)})

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
                assert exact == SymbolicValue.build({ONE: value})
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
            assert r.exact == SymbolicValue.build({ONE: expected})
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
                    assert abs(to_mpf(r.value) - ref) < tol, (a, j)

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
                    assert abs(to_mpf(r.value) - s) <= bound * mpmath.mpf("1.01")


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
                value = to_mpf(r.value)
                assert abs(symbolic_numeric(r.exact) - value) < tol * max(1, abs(value))

    def test_fully_reduced_flag(self):
        r = evaluate(make_spec([(F(1, 3), 1), (F(4, 3), 1)]), POLICY)
        # arguments 4/3 and 7/3 shift to the same base 1/3: residuals cancel
        assert r.exact.fully_reduced
        r2 = evaluate(make_spec([(F(1, 3), 2)]), POLICY)
        assert not r2.exact.fully_reduced
        assert r2.exact.residuals

    def test_dispatch(self):
        # evaluate follows the spec's sign mode
        assert render(evaluate(make_spec([(0, 2)]), POLICY).exact) == "(1/6)*pi^2"
        alternating = make_spec([(0, 2)], sign="alternating")
        assert render(evaluate(alternating, POLICY).exact) == "(1/12)*pi^2"


def _expression(pairs, coeffs):
    """The summand sum_i coeffs[i] n^i / prod (n + a)^m in the CLI grammar."""
    numerator = " + ".join(f"({c})*n^{i}" for i, c in enumerate(coeffs) if c)
    denominator = "*".join(f"(n + ({a}))^{m}" for a, m in pairs)
    return f"({numerator})/({denominator})"


# sum_{n>=1} (-1)^(n+1) of this is ~3.5e-8 from residue-class sums of
# size ~10^4: about 12 digits cancel between the classes
ALTERNATING_CANCELLING = (
    "((9/3)*n^0 + (-3/3)*n^1 + (-9/3)*n^2 + (6/4)*n^3 + (-3/2)*n^4 + (9/3)*n^5 + n^6)"
    "/((n + (2))^2*(n + (6))^3*(n + (7))^3)"
)


def _cancellation_family(rng):
    """(expression, sign): n^(k-2)/(n+a)^k, mixed-sign numerators, and the
    alternating spec above."""
    family = []
    for _ in range(2):
        k = rng.randint(4, 9)
        a = random_shift(rng, max_den=4, lo=0, hi=8)
        family.append((_expression([(a, k)], [0] * (k - 2) + [1]), "plain"))
    for sign in ("plain", "alternating"):
        shifts = {F(rng.randint(0, 24), den) for den in (1, 2, 3)}
        pairs = [(a, rng.randint(1, 3)) for a in sorted(shifts)]
        degree = sum(m for _, m in pairs) - (2 if sign == "plain" else 1)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
        family.append((_expression(pairs, coeffs + [F(rng.choice((-1, 1)))]), sign))
    family.append((ALTERNATING_CANCELLING, "alternating"))
    return family


def _psi_reference(doc, digits):
    """The master formula over the reported partial fractions, by mpmath.psi."""
    with mpmath.workdps(digits + 60):
        total = mpmath.mpf(0)
        for entry in doc["partial_fractions"]:
            a, j, c = F(entry["shift"]), entry["order"], F(entry["coeff"])
            scale = F((-1) ** j, math.factorial(j - 1)) * c
            if doc["sign"] == "plain":
                total += to_mpf(scale) * mpmath.psi(j - 1, to_mpf(a + 1))
            else:
                total += to_mpf(scale / 2 ** j) * (
                    mpmath.psi(j - 1, to_mpf((a + 1) / 2)) - mpmath.psi(j - 1, to_mpf((a + 2) / 2))
                )
        return mpmath.nstr(total, digits, strip_zeros=False)


class TestCancellationFamily:
    """Every printed digit is true where the psi terms cancel.

    The reference is mpmath.psi at digits + 60, rounded to the printed
    digits; at 30 and 100 digits the oracles must certify the same string.
    """

    @pytest.mark.parametrize("digits", [30, 100, 1000])
    def test_printed_digits_match_reference(self, rng, digits):
        family = _cancellation_family(rng)
        if digits == 1000:
            family = family[2:3] + family[-1:]  # mpmath.psi is slow here
        for expression, sign in family:
            code, out, _ = run(CliRequest(expression, sign, digits, "json", digits < 1000))
            doc = json.loads(out)
            assert code == 0, (expression, sign)
            assert doc["numeric"] == _psi_reference(doc, digits), (expression, sign)
            if digits < 1000:
                assert doc["verify"]["agree"] is True, (expression, sign)

    def test_convergent_sum_makes_no_mpmath_ln_or_psi(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("mpmath called")

        with mpmath.workdps(60):
            reference = mpmath.digamma(mpmath.mpf(2) ** 70 / 3)
        monkeypatch.setattr(mpmath, "ln", refuse)
        monkeypatch.setattr(mpmath, "psi", refuse)
        for sign in ("plain", "alternating"):
            spec = make_spec([(0, 2), (F(1, 3), 1), (F(7, 2), 1)], sign)
            evaluate(spec, PrecisionPolicy(target_digits=100))
        # a lone digamma takes its ln X from the same integer series
        policy = PrecisionPolicy(target_digits=50)
        value = polygamma(0, F(2 ** 70, 3), policy)
        with mpmath.workdps(60):
            assert abs(to_mpf(value) - reference) < mpmath.mpf(10) ** -49 * abs(reference)

    def test_cancellation_is_measured(self):
        spec = ast_to_spec(parse_expression(ALTERNATING_CANCELLING), "alternating")
        r = evaluate(spec, PrecisionPolicy(target_digits=100))
        assert r.digits_lost >= 10
        # the first pass at 110 digits could not pin 103: the loop reran
        assert r.working_digits >= 100 + 3 + r.digits_lost


def _refuse_psi_sum(*args):
    raise AssertionError("fixed-point pass made")


class TestExactnessAndCeiling:
    TELESCOPING = "1/((n+1/2)*(n-3/2))"

    @pytest.mark.parametrize("digits", [30, 1000])
    def test_telescoping_class_is_exactly_zero(self, monkeypatch, digits):
        # one residue class whose coefficients cancel: the closed form is the
        # rational 0, which is the value, so no fixed-point pass is made
        monkeypatch.setattr(engine, "psi_sum", _refuse_psi_sum)
        spec = ast_to_spec(parse_expression(self.TELESCOPING), "plain")
        r = evaluate(spec, PrecisionPolicy(target_digits=digits))
        assert r.value == 0 and r.digits_lost == 0
        code, out, _ = run(CliRequest(self.TELESCOPING, "plain", digits, "numeric"))
        assert code == 0 and out == "0.0\n"

    def test_telescoping_class_through_psi_sum(self):
        # psi(1/2) - psi(5/2) = -(2 + 2/3): a class with no series, its ladder
        # stopping at the last term
        s = psi_sum([(1, 0, F(1, 2)), (-1, 0, F(5, 2))], POLICY)
        assert mpmath.nstr(to_mpf(s.exact), 30) == "-2." + "6" * 28 + "7"

    def test_precision_ceiling_is_a_typed_error(self, monkeypatch):
        pg = importlib.import_module("exactsum.polygamma")
        policy = PrecisionPolicy(target_digits=100)
        monkeypatch.setattr(pg, "MAX_WORKING_BITS", pg._precision_bits(policy.working_digits))
        code, out, err = run(CliRequest(ALTERNATING_CANCELLING, "alternating", 100))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "ceiling" in err

    def test_exact_zero_across_classes(self, monkeypatch):
        # psi(1/4) + psi(3/4) - 3 psi(1/2) + psi(1) = 0 (Gauss multiplication):
        # no fixed-point pass can separate it from zero; the closed form,
        # identically zero, is the value
        monkeypatch.setattr(engine, "psi_sum", _refuse_psi_sum)
        code, out, _ = run(CliRequest("-(1/(n-3/4) + 1/(n-1/4) - 3/(n-1/2) + 1/n)"))
        assert code == 0 and out == "exact: 0\nnumeric: 0.0\n"

    def test_rational_value_is_exact_to_the_printed_digits(self, monkeypatch):
        # sum 1/((n+1/3)(n+4/3)) = 3/4; sum 1/((n+1/7)(n+8/7)) = 7/8
        monkeypatch.setattr(engine, "psi_sum", _refuse_psi_sum)
        for expression, value in (("1/((n+1/3)*(n+4/3))", "0.75"), ("1/((n+1/7)*(n+8/7))", "0.875")):
            code, out, _ = run(CliRequest(expression, "plain", 40, "numeric"))
            assert code == 0 and out == value.ljust(42, "0") + "\n"

    def test_rational_numeric_view_ignores_the_mpmath_context(self):
        # sum 1/(n(n+3)) = 11/18, not a dyadic: at mpmath's default 53 bits
        # the value is still exact, lies in the 30-digit bracket and prints
        # 30 true digits
        spec = ast_to_spec(parse_expression("1/(n*(n+3))"), "plain")
        with mpmath.workprec(53):
            r = evaluate(spec, POLICY)
            assert r.value == F(11, 18)
            bracket = partial_sum_bracket(spec, POLICY)
            assert bracket.lower <= r.value <= bracket.upper
            assert decimal_text(r.value, 30) == r.text == "0.6" + "1" * 29

    @pytest.mark.parametrize("digits", [30, 100])
    def test_classes_far_apart(self, digits):
        # X = 60.5 and X = 201 differ by more than 4/3: ln(X/X_ref) takes the
        # ln 2 reduction
        code, out, _ = run(CliRequest("1/((n+1/2)*(n+200))", "plain", digits, "json"))
        doc = json.loads(out)
        assert code == 0 and doc["numeric"] == _psi_reference(doc, digits)


def test_every_exported_name_resolves():
    import exactsum

    missing = [name for name in exactsum.__all__ if not hasattr(exactsum, name)]
    assert exactsum.__all__ and not missing
