import functools
import math
import sys
import threading
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from exactsum.engine import evaluate
from exactsum.errors import ConstraintViolated
from exactsum import oracle
from exactsum.oracle import partial_sum_bracket, quad_alternating, quad_digits, quad_general
from exactsum.parser import ast_to_spec, parse_expression
from exactsum.partfrac import MAX_SHIFT, PartialFractions, decompose
from exactsum.polygamma import PrecisionPolicy
from exactsum.polys import Polynomial

from conftest import make_spec, random_plain_spec, reference_weighted, to_mpf

POLICY = PrecisionPolicy(target_digits=30)
QUAD_TOL_EXP = -15  # error target 10^(-target/2)


def _spy_head_lengths(monkeypatch):
    """The head lengths n that _bracket asks _plan about, in call order."""
    lengths = []
    plan = oracle._plan

    def spy(log2_m, rho, n, log2_tol):
        lengths.append(n)
        return plan(log2_m, rho, n, log2_tol)

    monkeypatch.setattr(oracle, "_plan", spy)
    return lengths


def _spy_passes(monkeypatch):
    """A list that counts the _bracket passes that partial_sum_bracket makes."""
    passes = []
    bracket = oracle._bracket

    def spy(*args):
        passes.append(1)
        return bracket(*args)

    monkeypatch.setattr(oracle, "_bracket", spy)
    return passes


def _holds(bracket, x):
    """Whether the bracket, its ends rounded at the current precision, holds the mpf x."""
    return to_mpf(bracket.lower) <= x <= to_mpf(bracket.upper)


class TestPartialSumBracket:
    def test_basel_bracket(self):
        with mpmath.workdps(40):
            b = partial_sum_bracket(make_spec([(0, 2)]), POLICY)
            assert _holds(b, mpmath.pi ** 2 / 6)
            assert b.upper - b.lower < F("5e-5")

    def test_half_shift_pair_bracket(self):
        with mpmath.workdps(40):
            b = partial_sum_bracket(make_spec([(0, 1), (F(1, 2), 1)]), POLICY)
            assert _holds(b, 4 * (1 - mpmath.ln(2)))  # 1.22741127776021876233107151417

    def test_alternating_bracket(self):
        with mpmath.workdps(40):
            spec = make_spec([(F(1, 2), 1)], sign="alternating")
            b = partial_sum_bracket(spec, POLICY)
            assert _holds(b, 2 - mpmath.pi / 2)
            assert b.upper - b.lower <= F(1, 10 ** 4)

    def test_exact_small_path(self):
        with mpmath.workdps(40):
            b = partial_sum_bracket(make_spec([(0, 2)]), POLICY)
            assert _holds(b, mpmath.pi ** 2 / 6)

    def test_numpy_large_path(self):
        with mpmath.workdps(40):
            b = partial_sum_bracket(make_spec([(0, 2)]), POLICY)
            assert _holds(b, mpmath.pi ** 2 / 6)
            assert b.upper - b.lower < F("5e-5")

    def test_negative_summand_bracket(self):
        # Q = -1: negative terms put the tail below the partial sum
        with mpmath.workdps(40):
            spec = make_spec([(0, 2)], numerator=Polynomial([-1]))
            b = partial_sum_bracket(spec, POLICY)
            assert _holds(b, -mpmath.pi ** 2 / 6)

    def test_insufficient_terms(self, monkeypatch):
        # the terms change sign at n = 50000; the head length depends on
        # the poles alone, so a far-out numerator root costs nothing
        lengths = _spy_head_lengths(monkeypatch)
        with mpmath.workdps(60):
            spec = make_spec([(0, 3)], numerator=Polynomial([-50000, 1]))
            b = partial_sum_bracket(spec, POLICY)
            assert _holds(b, mpmath.zeta(2) - 50000 * mpmath.zeta(3))
        assert lengths and all(n < 1000 for n in lengths)

    @pytest.mark.parametrize("digits", [30, 300])
    def test_width_bound_at_target(self, digits):
        policy = PrecisionPolicy(target_digits=digits)
        with mpmath.workdps(digits + 40):
            cases = [
                (make_spec([(0, 2)]), mpmath.pi ** 2 / 6),
                (
                    make_spec([(0, 2), (F(1, 2), 1)]),
                    mpmath.pi ** 2 / 3 - 8 + 8 * mpmath.ln(2),
                ),
                (make_spec([(F(1, 2), 1)], sign="alternating"), 2 - mpmath.pi / 2),
            ]
            for spec, ref in cases:
                b = partial_sum_bracket(spec, policy)
                assert _holds(b, ref)
                assert to_mpf(b.upper - b.lower) / 2 <= mpmath.mpf(10) ** -(digits + 3) * abs(ref)

    def test_alternating_double_pole(self):
        # sum (-1)^(n+1)/(n+1/4)^2 = (psi'(5/8) - psi'(9/8))/4
        with mpmath.workdps(70):
            spec = make_spec([(F(1, 4), 2)], sign="alternating")
            eighth = mpmath.mpf(1) / 8
            ref = (mpmath.psi(1, 5 * eighth) - mpmath.psi(1, 9 * eighth)) / 4
            b = partial_sum_bracket(spec, POLICY)
            assert _holds(b, ref)
            assert to_mpf(b.upper - b.lower) / 2 <= mpmath.mpf(10) ** -33 * abs(ref)

    def test_high_order_pole_against_nsum(self):
        # M ~ 21^28 on |x| = 21: some 40 digits cancel in the tail
        with mpmath.workdps(60):
            spec = make_spec([(20, 30)], numerator=Polynomial([0] * 28 + [1]))
            ref = mpmath.nsum(lambda n: n ** 28 / (n + 20) ** 30, [1, mpmath.inf])
            b = partial_sum_bracket(spec, PrecisionPolicy(target_digits=20))
            assert _holds(b, ref)
            assert to_mpf(b.upper - b.lower) / 2 <= mpmath.mpf(10) ** -23 * abs(ref)

    @pytest.mark.parametrize("digits", [30, 300])
    @pytest.mark.parametrize("spec", [
        make_spec([(0, 2)]),
        make_spec([(0, 1), (F(1, 2), 1)]),
        make_spec([(F(1, 4), 2)], sign="alternating"),
        make_spec([(0, 2), (F(1, 2), 1)]),  # 1/(n^2 (n + 1/2))
        make_spec([(F(11, 2), 2)]),
    ], ids=["basel", "half-shift-pair", "alternating-double-pole", "n2-half", "near-circle"])
    def test_one_pass(self, monkeypatch, spec, digits):
        # the first pass aims at the terms' scale, near |S| for these sums;
        # 1/(n + 11/2)^2 has its pole 1/2 inside |x| = rho = 6, where M = 4
        # is ~170 times its largest term
        passes = _spy_passes(monkeypatch)
        partial_sum_bracket(spec, PrecisionPolicy(target_digits=digits))
        assert len(passes) == 1

    @pytest.mark.parametrize("digits", [30, 300])
    def test_cancelling_sum_falls_back(self, monkeypatch, digits):
        # |S| ~ 1.6e-20 against terms ~ 9: the aimed pass excludes zero, and
        # one more pass at what it resolved reaches the goal
        expression = "1/(n-2/3)^2 + 1/(n-1/3)^2 - 8/n^2 + 1/(10^20*n^2)"
        spec = ast_to_spec(parse_expression(expression), "plain")
        passes = _spy_passes(monkeypatch)
        b = partial_sum_bracket(spec, PrecisionPolicy(target_digits=digits))
        assert len(passes) == 2
        with mpmath.workdps(digits + 60):
            third = mpmath.mpf(1) / 3
            ref = (mpmath.psi(1, third) + mpmath.psi(1, 2 * third)
                   + (mpmath.mpf(10) ** -20 - 8) * mpmath.zeta(2))
            assert _holds(b, ref)
            assert to_mpf(b.upper - b.lower) / 2 <= mpmath.mpf(10) ** -(digits + 3) * abs(ref)

    def test_exact_zero_sum(self):
        # sum 1/((n+1/2)(n-3/2)) = 0: no relative width exists, the bracket
        # still holds 0 and ends
        b = partial_sum_bracket(make_spec([(F(1, 2), 1), (F(-3, 2), 1)]), POLICY)
        assert b.lower <= 0 <= b.upper
        assert b.upper - b.lower < F(10) ** -60


def _series_error_reference(length, poles, count):
    """The error counts that `_series` documents, by its own recurrence: 1
    per input floor, and e_i + e'_(i-1) + 1 per coefficient and division."""
    errs = [1] * min(count, length) + [0] * (count - length)
    for _ in range(poles):
        e = 0
        for i in range(count):
            e = errs[i] = errs[i] + e + 1
    return errs


def test_series_error_counts_match_the_recurrence():
    # W follows from these counts, so the closed form must equal the
    # recurrence everywhere (lengths x poles x term counts)
    for length in range(1, 9):
        for poles in range(13):
            for count in range(1, 61):
                assert (list(oracle._series_errors(length, poles, count))
                        == _series_error_reference(length, poles, count))


def _psi_reference(spec):
    """The sum from mpmath.psi over the partial fractions, at the current precision."""
    total = mpmath.mpf(0)
    for a, j, c in decompose(spec).entries:
        am = to_mpf(a)
        scale = to_mpf(c) * (-1) ** j / math.factorial(j - 1)
        if spec.sign == "plain":
            total += scale * mpmath.psi(j - 1, am + 1)
        else:
            total += scale / 2 ** j * (
                mpmath.psi(j - 1, (am + 1) / 2) - mpmath.psi(j - 1, (am + 2) / 2)
            )
    return total


shifts = st.fractions(min_value=-3, max_value=12, max_denominator=12).filter(
    lambda a: not (a.denominator == 1 and a < 0)
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(shifts, st.integers(1, 3)),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[0],
    ),
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=8
    ),
    st.sampled_from(["plain", "alternating"]),
)
def test_bracket_contains_psi_reference(pairs, coeffs, sign):
    bound = sum(m for _, m in pairs) - (2 if sign == "plain" else 1)
    assume(bound >= 0)
    numerator = Polynomial(coeffs[: bound + 1])
    assume(not numerator.is_zero())
    spec = make_spec(pairs, sign, numerator)
    with mpmath.workdps(80):
        ref = _psi_reference(spec)
        assume(abs(ref) > mpmath.mpf(10) ** -30)  # exact zeros: test_exact_zero_sum
        b = partial_sum_bracket(spec, POLICY)
        assert _holds(b, ref)
        assert to_mpf(b.upper - b.lower) / 2 <= mpmath.mpf(10) ** -33 * abs(ref)
        # shifts down to -3 take a head of up to 3 terms before the integral
        quad = (quad_general if sign == "plain" else quad_alternating)(decompose(spec), POLICY)
        assert abs(to_mpf(quad) - ref) <= mpmath.mpf(10) ** -quad_digits(30) * abs(ref)


def _quad(pairs):
    return to_mpf(quad_general(decompose(make_spec(pairs)), POLICY))


class TestQuadTwoParam:
    # sum 1/((n+a)(n+b)), once quad_two_param(a, b)
    def test_half_shift_pair_value(self):
        with mpmath.workdps(40):
            v = _quad([(F(1, 2), 1), (0, 1)])
            assert abs(v - 4 * (1 - mpmath.ln(2))) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_telescoping_value(self):
        # brute-force-pinned: sum 1/((n+1)n) = 1
        with mpmath.workdps(40):
            assert abs(_quad([(1, 1), (0, 1)]) - 1) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_swap_symmetry(self):
        with mpmath.workdps(40):
            a, b = F(1, 3), F(5, 4)
            assert abs(
                _quad([(a, 1), (b, 1)]) - _quad([(b, 1), (a, 1)])
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_equal_parameters(self):
        # a = b merges into the double pole 1/(n+1/2)^2
        with mpmath.workdps(40):
            assert abs(
                _quad([(F(1, 2), 1), (F(1, 2), 1)]) - (mpmath.pi ** 2 / 2 - 4)
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_domain(self):
        # the shift -3/2 takes a head of k = 2 terms before the integral
        with mpmath.workdps(40):
            ref = _psi_reference(make_spec([(F(-3, 2), 1), (0, 1)]))
            v = _quad([(F(-3, 2), 1), (0, 1)])
            assert abs(v - ref) <= mpmath.mpf(10) ** QUAD_TOL_EXP * abs(ref)


class TestQuadSquare:
    # sum 1/(n+a)^2, once quad_square(a)
    def test_basel(self):
        with mpmath.workdps(40):
            assert abs(
                _quad([(0, 2)]) - mpmath.pi ** 2 / 6
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_half(self):
        with mpmath.workdps(40):
            assert abs(
                _quad([(F(1, 2), 2)]) - (mpmath.pi ** 2 / 2 - 4)
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_shift_one(self):
        with mpmath.workdps(40):
            assert abs(
                _quad([(1, 2)]) - (mpmath.pi ** 2 / 6 - 1)
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_domain(self):
        # -3/2, not -2: a negative integer shift is rejected before quadrature;
        # -3/2 takes a head of k = 2 terms, 4 + 4, before the integral
        with mpmath.workdps(40):
            ref = mpmath.psi(1, mpmath.mpf(-1) / 2)
            v = _quad([(F(-3, 2), 2)])
            assert abs(v - ref) <= mpmath.mpf(10) ** QUAD_TOL_EXP * abs(ref)


def _quad_alt(pairs):
    return to_mpf(quad_alternating(decompose(make_spec(pairs, sign="alternating")), POLICY))


class TestQuadAlternating:
    def test_ln2(self):
        with mpmath.workdps(40):
            assert abs(_quad_alt([(0, 1)]) - mpmath.ln(2)) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_half(self):
        with mpmath.workdps(40):
            assert abs(
                _quad_alt([(F(1, 2), 1)]) - (2 - mpmath.pi / 2)
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_shift_one_by_hand(self):
        # integral of t/(1+t) over [0,1] = 1 - ln 2
        with mpmath.workdps(40):
            assert abs(
                _quad_alt([(1, 1)]) - (1 - mpmath.ln(2))
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_domain(self):
        # the shift -5/4 takes a head of k = 2 terms, 4 - 4/3, before the integral
        with mpmath.workdps(40):
            ref = _psi_reference(make_spec([(F(-5, 4), 1)], sign="alternating"))
            v = _quad_alt([(F(-5, 4), 1)])
            assert abs(v - ref) <= mpmath.mpf(10) ** QUAD_TOL_EXP * abs(ref)

    def test_shift_between_minus_one_and_zero(self):
        # t^(-3/4) near t = 0 cost tanh-sinh all but ~9 digits before t = s^4
        with mpmath.workdps(40):
            eighth = mpmath.mpf(1) / 8
            ref = (mpmath.digamma(5 * eighth) - mpmath.digamma(eighth)) / 2
            v = _quad_alt([(F(-3, 4), 1)])
            assert abs(v - ref) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_higher_order_poles(self):
        # the whole table, double and triple poles included, against nsum
        with mpmath.workdps(40):
            for pairs in ([(F(1, 3), 2)], [(F(-3, 4), 3)], [(2, 2), (F(1, 7), 3)]):
                pf = decompose(make_spec(pairs, sign="alternating"))
                terms = [(to_mpf(a), j, to_mpf(c)) for a, j, c in pf.entries]
                ref = mpmath.nsum(
                    lambda n: (-1) ** (n + 1) * sum(c / (n + a) ** j for a, j, c in terms),
                    [1, mpmath.inf],
                    method="a",
                )
                assert abs(to_mpf(quad_alternating(pf, POLICY)) - ref) < mpmath.mpf(10) ** QUAD_TOL_EXP


class TestQuadGeneral:
    def test_one_integral_over_the_unit_interval(self, monkeypatch):
        # both powers of the table go to one tanh-sinh pass over [0, 1]
        calls = []
        tanh_sinh = oracle._tanh_sinh

        def counted(table, sign, prec):
            calls.append([a for a, _ in table])
            return tanh_sinh(table, sign, prec)

        monkeypatch.setattr(oracle, "_tanh_sinh", counted)
        quad_general(decompose(make_spec([(0, 2), (F(1, 2), 1)])), POLICY)
        assert calls == [[F(1, 2), 0]]

    @pytest.mark.parametrize("shift", [20, 200])
    def test_relative_accuracy_far_below_one(self, shift):
        # S ~ 1.4e-41 and 2.9e-71: mpmath.quad stops on an absolute error,
        # which once left these two right to only 3 and 1 digits
        spec = make_spec([(shift, 31)])
        engine = evaluate(spec, POLICY).value
        quad = quad_general(decompose(spec), POLICY)
        assert abs(quad - engine) <= F(10) ** QUAD_TOL_EXP * abs(engine)

    def test_basel(self):
        with mpmath.workdps(40):
            pf = decompose(make_spec([(0, 2)]))
            assert abs(to_mpf(quad_general(pf, POLICY)) - mpmath.pi ** 2 / 6) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_half_shift_pair(self):
        with mpmath.workdps(40):
            pf = decompose(make_spec([(0, 1), (F(1, 2), 1)]))
            assert abs(
                to_mpf(quad_general(pf, POLICY)) - 4 * (1 - mpmath.ln(2))
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_double_pole_half_shift_matches_engine(self):
        spec = make_spec([(0, 2), (F(1, 2), 1)])
        engine = evaluate(spec, POLICY).value
        quad = quad_general(decompose(spec), POLICY)
        assert abs(engine - quad) < F(10) ** QUAD_TOL_EXP

    def test_shift_between_minus_one_and_zero(self):
        # u^(-3/4) at the tail's u = 0 end held quadrature to ~4.5e-11
        spec = make_spec(
            [(F(-3, 4), 1), (3, 2)], numerator=Polynomial([0, F(-9, 4)])
        )
        engine = evaluate(spec, POLICY).value
        quad = quad_general(decompose(spec), POLICY)
        assert abs(quad - engine) < F(10) ** QUAD_TOL_EXP

    def test_constraint_violated(self):
        pf = PartialFractions(((F(0), 1, F(1)),))
        with pytest.raises(ConstraintViolated):
            quad_general(pf, POLICY)

    def test_domain(self):
        # sum 1/(n - 3/2) - 1/n = psi(1) - psi(-1/2), with a head of k = 2 terms
        pf = PartialFractions(((F(-3, 2), 1, F(1)), (F(0), 1, F(-1))))
        with mpmath.workdps(40):
            ref = mpmath.digamma(1) - mpmath.digamma(mpmath.mpf(-1) / 2)
            v = to_mpf(quad_general(pf, POLICY))
            assert abs(v - ref) <= mpmath.mpf(10) ** QUAD_TOL_EXP * abs(ref)

    def test_substitution_equivalence_with_two_param(self):
        # single simple-pole pair: the x-domain integral equals
        # sum 1/((n+a)(n+b)) = (psi(1+a) - psi(1+b))/(a-b)
        with mpmath.workdps(40):
            for a, b in [(F(1, 2), F(0)), (F(3, 4), F(1, 3)), (F(2), F(1, 5))]:
                pf = decompose(make_spec([(a, 1), (b, 1)]))
                v1 = to_mpf(quad_general(pf, POLICY))
                am, bm = to_mpf(a), to_mpf(b)
                v2 = (mpmath.digamma(1 + am) - mpmath.digamma(1 + bm)) / (am - bm)
                assert abs(v1 - v2) < 2 * mpmath.mpf(10) ** QUAD_TOL_EXP


class TestQuadratureValue:
    """Quadrature returns the exact value of its mpf, sign included."""

    @pytest.mark.parametrize("digits", [10, 30])
    @pytest.mark.parametrize(
        "expression, sign",
        [("-(9/4)*n/((n-3/4)*(n+3)^2)", "plain"), ("-1/(n^2*(n+1/3))", "alternating")],
    )
    def test_negative_sum_is_a_signed_fraction(self, expression, sign, digits):
        policy = PrecisionPolicy(target_digits=digits)
        spec = ast_to_spec(parse_expression(expression), sign)
        value = evaluate(spec, policy).value
        quad_oracle = quad_general if sign == "plain" else quad_alternating
        quad = quad_oracle(decompose(spec), policy)
        assert isinstance(quad, F)
        assert value < 0 and quad < 0
        assert abs(quad - value) <= F(1, 10 ** quad_digits(digits)) * abs(value)


def _per_entry_integrand(entries, sign):
    """The integrand term by term, one log and one s**power per entry: s ->
    (value, sum of the terms' moduli)."""
    terms = [(to_mpf(a), j - 1, to_mpf(c / math.factorial(j - 1))) for a, j, c in entries]

    def f(s):
        neglog = -mpmath.log(s)
        scale = 1 / (1 - sign * s)
        parts = [c * s ** power * neglog ** k * scale for power, k, c in terms]
        return mpmath.fsum(parts), mpmath.fsum(abs(t) for t in parts)

    return f


@st.composite
def _integrand_tables(draw):
    """Entries with shifts a in [1/m - 1, 6], so a head of k = 1 term when
    m > 1, several of them sharing a fractional part, orders 1-4."""
    m = draw(st.sampled_from([1, 2, 3, 10]))
    den = draw(st.integers(1, 12))
    low = F(1, m) - 1
    base = low + F(draw(st.integers(0, den - 1)), den)
    offsets = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
    shifts = [base + k for k in offsets]
    others = draw(st.lists(st.builds(F, st.integers(0, 84), st.integers(1, 12)), max_size=2))
    shifts += [low + x for x in others if low + x <= 6 and low + x not in shifts]
    coefficient = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    entries = [
        (a, j, draw(coefficient))
        for a in shifts
        for j in range(1, draw(st.integers(1, 4)) + 1)
    ]
    return entries


class TestIntegrand:
    """The grouped integer integrand at the tanh-sinh nodes against the
    per-entry formula, to the floors that the quadrature counts."""

    @staticmethod
    def _powers(entries, big_w):
        table = oracle._by_power(entries)
        return table, [(a, [(c.numerator << big_w) // c.denominator for c in coeffs])
                       for a, coeffs in table]

    @classmethod
    def _agree(cls, entries, sign, big_w, degree, picks=None):
        table, powers = cls._powers(entries, big_w)
        level = oracle._level(big_w, degree, big_w - 20)
        indices = range(len(level.points))
        if picks is not None:
            indices = [i % len(level.points) for i in picks]
        points = [level.points[i] for i in indices]
        grid = big_w + oracle._LOG_GUARD
        neglog_max = max(-(-point[0] >> grid) for point in points)
        bound, size = oracle._floor_counts(table, neglog_max)
        f, weights = oracle._integrand(level, powers), level.column(sign)
        with mpmath.workprec(level.wg + 64):
            reference = _per_entry_integrand(entries, sign)
            for i, point in zip(indices, points):
                value, q = f[i] * weights[i] >> big_w, weights[i]
                s = mpmath.exp(-mpmath.mpf(point[0]) / 2 ** grid)
                weight = mpmath.mpf(point[1] * point[2] * point[3]) / 2 ** (3 * level.wg)
                exact = weight * reference(s)[0]
                floors = (q * bound >> big_w) + size
                assert abs(value - exact * 2 ** big_w) <= floors

    @settings(max_examples=60, deadline=None)
    @given(entries=_integrand_tables(), sign=st.sampled_from([1, -1]),
           picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
           degree=st.integers(1, 4), big_w=st.sampled_from([128, 1088]))
    def test_matches_the_per_entry_formula(self, entries, sign, picks, degree, big_w):
        if sign == 1:
            # quad_general's sum A_i1 = 0, without which the integrand has a
            # 1/L pole at s = 1
            rest = sum((c for _, j, c in entries[1:] if j == 1), F(0))
            entries = [(entries[0][0], 1, -rest)] + entries[1:]
        entries, _ = oracle._table(PartialFractions(tuple(entries)))
        self._agree(entries, sign, big_w, degree, picks)

    @settings(max_examples=60, deadline=None)
    @given(entries=_integrand_tables(), sign=st.sampled_from([1, -1]),
           degree=st.integers(1, 4), big_w=st.sampled_from([128, 1088]))
    def test_columns_match_the_per_point_reference(self, entries, sign, degree, big_w):
        # the same operands, floors and order at every point, so the same integers
        entries, _ = oracle._table(PartialFractions(tuple(entries)))
        powers = self._powers(entries, big_w)[1]
        level = oracle._level(big_w, degree, big_w - 20)
        f, q = oracle._integrand(level, powers), level.column(sign)
        assert (sum(x * y >> big_w for x, y in zip(f, q)), sum(q)) == \
            reference_weighted(level, powers, sign)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_head_of_one_term(self, sign):
        # 1/(n^2 (n - 1/2)): a head of k = 1 moves the shifts 0 and -1/2 to
        # the powers 1 and 1/2
        entries, k = oracle._table(decompose(make_spec([(0, 2), (F(-1, 2), 1)])))
        assert k == 1
        assert [a for a, _ in oracle._by_power(entries)] == [1, F(1, 2)]
        for big_w in (128, 1024):
            for degree in (1, 2):
                self._agree(entries, sign, big_w, degree)

    @pytest.mark.parametrize("shift, k", [(25000, 1), (F(49999, 2), 2), (F(299, 3), 3),
                                          (25000, 25000)])
    def test_high_powers_of_u(self, shift, k):
        # after a head of k terms the shift is the power shift + k of s, up
        # to 2 MAX_SHIFT for 1/(n + 25000)^2 beside 1/(n - 24999.5); sum A_i1 = 0
        entries, head = oracle._table(PartialFractions((
            (F(shift), 1, F(3)), (F(shift), 2, F(-1, 2)), (F(1, 2) - k, 1, F(-3)))))
        assert head == k
        for big_w in (128, 320):
            for degree in (1, 2, 3):
                self._agree(entries, 1, big_w, degree)


class TestLevelError:
    """`_level_error` on exact level sums against mpmath's own estimate."""

    @pytest.mark.parametrize("results", [
        [3 << 100, (3 << 100) + 5],  # level 2: |I_2 - I_1|
        [1 << 120, (1 << 120) + 12345, (1 << 120) + 17],  # the general case
        [7 << 90, 7 << 90, 7 << 90],  # all three agree: 0
        [1 << 120, (1 << 120) + 99, (1 << 120) + 99],  # a repeated last result
        [(1 << 120) + 99, 1 << 120, (1 << 120) + 99],  # a return to the one before
        [1 << 120, 1 << 120, (1 << 120) + 99],
        [0, 5 << 128, 3 << 128],  # differences above 1
    ])
    def test_matches_mpmath(self, results):
        big_w, prec = 128, 100
        num, den = oracle._level_error(results, prec, big_w)
        with mpmath.workprec(big_w + 200):
            rule = mpmath.calculus.quadrature.TanhSinh(mpmath.mp)
            theirs = rule.estimate_error([mpmath.ldexp(r, -big_w) for r in results], prec,
                                         mpmath.ldexp(1, -prec - 2))
            assert abs(mpmath.mpf(num) / den - theirs) <= theirs * 2 ** -150


_MEMO_SPECS = st.lists(
    st.tuples(st.builds(F, st.integers(-5, 36), st.integers(1, 6)).filter(lambda a: a > -1),
              st.integers(1, 2)),
    min_size=1, max_size=3, unique_by=lambda pair: pair[0],
)


def _quad_both(pairs, digits):
    """(plain, alternating) quadrature of 1/prod (n + a)^mult."""
    policy = PrecisionPolicy(target_digits=digits)
    pairs = pairs if sum(mult for _, mult in pairs) >= 2 else [(pairs[0][0], 2)]
    return (quad_general(decompose(make_spec(pairs)), policy),
            quad_alternating(decompose(make_spec(pairs, "alternating")), policy))


class TestNodeMemo:
    """The process-wide cache of tanh-sinh levels, keyed (W, degree, depth)."""

    @settings(max_examples=15, deadline=None)
    @given(pairs=_MEMO_SPECS, digits=st.integers(10, 40),
           other=_MEMO_SPECS, other_digits=st.integers(10, 40))
    def test_value_does_not_depend_on_the_memo(self, pairs, digits, other, other_digits):
        oracle._level.cache_clear()
        cold = _quad_both(pairs, digits)
        for warm_pairs, warm_digits in ((other, digits), (other, other_digits),
                                        (pairs, other_digits)):
            _quad_both(warm_pairs, warm_digits)
        assert _quad_both(pairs, digits) == cold

    def test_entries_are_functions_of_their_keys(self, monkeypatch):
        # heads of 0 and 1 terms at two precisions
        make, levels = oracle._level.__wrapped__, {}

        def recorded(*key):
            level = levels[key] = make(*key)
            return level

        monkeypatch.setattr(oracle, "_level", functools.lru_cache(64)(recorded))
        for pairs, digits in (([(F(2, 7), 3), (4, 1)], 20), ([(F(1, 3), 2), (F(-5, 6), 2)], 20),
                              ([(F(1, 3), 2), (F(-1, 2), 1)], 30)):
            _quad_both(pairs, digits)
        assert len({depth for _, _, depth in levels}) >= 2
        for key, level in levels.items():
            fresh = oracle._Level(*key)
            assert fresh.points == level.points
            for column_key in level.columns:
                fresh.column(column_key)
            assert fresh.columns == level.columns

    def test_memo_stays_within_its_bound(self):
        # twenty precisions, each its own depth, make more levels than the cache holds
        pairs = [(F(1, 3), 2), (F(2, 7), 1)]
        cold = _quad_both(pairs, 30)
        size = oracle._level.cache_info().maxsize
        for digits in range(10, 210, 10):
            _quad_both([(F(-1, 2), 2), (F(2, 7), 1)], digits)
            assert oracle._level.cache_info().currsize <= size
        assert oracle._level.cache_info().currsize == size
        # the first levels were evicted in part by the other grids
        assert _quad_both(pairs, 30) == cold

    def test_threads_get_the_serial_quadratures(self):
        # a level is whole before the cache hands it out, and every value is
        # a function of its key, so threads that race to make one agree
        calls = [(pairs, digits) for pairs in ([(F(1, 3), 2), (F(2, 7), 1)], [(0, 2), (F(-1, 2), 1)],
                                               [(F(5, 6), 3)])
                 for digits in (20, 30)]
        serial = [_quad_both(pairs, digits) for pairs, digits in calls]
        oracle._level.cache_clear()
        results, errors = [None] * 4, []

        def work(i):
            try:
                results[i] = [_quad_both(pairs, digits) for pairs, digits in calls]
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [serial] * 4


class TestCoherence:
    def test_quadrature_inside_bracket(self, rng):
        with mpmath.workdps(40):
            heads = 0
            for _ in range(8):
                spec = random_plain_spec(rng, max_factors=2, max_mult=2)
                pf = decompose(spec)
                heads += oracle._table(pf)[1] > 0
                quad = quad_general(pf, POLICY)
                bracket = partial_sum_bracket(spec, POLICY)
                # the bracket (10^-33 relative) is far inside quadrature's target
                tol = F(10) ** QUAD_TOL_EXP
                assert bracket.lower - tol <= quad <= bracket.upper + tol
            # a shift <= -1 gives the quadrature a head of terms summed one by one
            assert heads

    def test_closed_forms_inside_brackets(self, rng):
        with mpmath.workdps(40):
            for _ in range(10):
                spec = random_plain_spec(rng, max_factors=3, max_mult=2)
                r = evaluate(spec, POLICY)
                bracket = partial_sum_bracket(spec, POLICY)
                assert bracket.lower <= r.value <= bracket.upper

    def test_alternating_coherence(self):
        with mpmath.workdps(40):
            spec = make_spec([(F(1, 4), 2)], sign="alternating")
            r = evaluate(spec, POLICY)
            bracket = partial_sum_bracket(spec, POLICY)
            assert bracket.lower <= r.value <= bracket.upper


def test_head_cap_serves_every_accepted_shift(monkeypatch):
    # the largest accepted shift puts rho at MAX_SHIFT + 1, so the head
    # starts at N = 4 rho: exactly the cap
    lengths = _spy_head_lengths(monkeypatch)
    spec = make_spec([(MAX_SHIFT, 2)])
    bracket = partial_sum_bracket(spec, POLICY)
    assert max(lengths) == oracle._HEAD_TERMS_MAX
    with mpmath.workdps(50):
        assert _holds(bracket, mpmath.psi(1, MAX_SHIFT + 1))
        width = to_mpf(bracket.upper - bracket.lower)
        assert width < mpmath.mpf(10) ** -32 * mpmath.psi(1, MAX_SHIFT + 1)
