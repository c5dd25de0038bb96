"""Acceptance suite.

One test per acceptance criterion; `pytest -v` therefore prints exactly one
pass/fail line per criterion.  Tolerances: 30 significant digits by default,
10^-12 absolute unless a criterion states otherwise; single evaluations must
finish in < 0.1 s (warm caches) and a full --verify run in < 5 s.
"""

import math
import random
import time
from fractions import Fraction as F

import mpmath

from exactsum.cli import CliRequest, run
from exactsum.closedform import GAMMA, LN2, ONE, PI, PI_SQUARED, SymbolicValue, render
from exactsum.engine import evaluate
from exactsum.oracle import partial_sum_bracket, quad_alternating, quad_general
from exactsum.partfrac import decompose
from exactsum.parser import ast_to_spec, parse_expression
from exactsum.polygamma import PrecisionPolicy, polygamma

from conftest import make_spec, random_plain_spec, random_shift, to_mpf

POLICY = PrecisionPolicy(target_digits=30)
ABS_TOL_EXP = -12


def _spec(expression, sign="plain"):
    return ast_to_spec(parse_expression(expression), sign)


def test_criterion_01_half_shift_pair_exact_numeric_and_bracket():
    r = evaluate(_spec("1/(n^2+n/2)"), POLICY)
    assert render(r.exact) == "4 - 4*ln(2)"
    with mpmath.workdps(40):
        assert abs(r.value - F("1.227411277760218762331071514")) < F(10) ** (-26)
        assert mpmath.nstr(to_mpf(r.value), 4) == "1.227"
        bracket = partial_sum_bracket(_spec("1/(n^2+n/2)"), POLICY)
        assert bracket.lower <= r.value <= bracket.upper


def test_criterion_02_basel():
    r = evaluate(_spec("1/n^2"), POLICY)
    assert render(r.exact) == "(1/6)*pi^2"
    with mpmath.workdps(40):
        assert abs(r.value - F("1.6449340668")) < F("1e-10")
        assert mpmath.nstr(to_mpf(r.value), 4) == "1.645"


def test_criterion_03_half_shift_square():
    r = evaluate(_spec("1/(n+1/2)^2"), POLICY)
    assert r.exact.coefficient(PI_SQUARED) == F(1, 2)
    assert r.exact.coefficient(ONE) == -4
    assert r.exact.fully_reduced
    with mpmath.workdps(40):
        assert abs(r.value - F("0.9348022005")) < F("1e-10")
        assert mpmath.nstr(to_mpf(r.value), 3) == "0.935"


def test_criterion_04_double_pole_half_shift_value_and_oracle():
    spec = _spec("1/(n^2*(n+1/2))")
    r = evaluate(spec, POLICY)
    # pi^2/3 - 8(1 - ln2)
    assert r.exact.coefficient(PI_SQUARED) == F(1, 3)
    assert r.exact.coefficient(ONE) == -8
    assert r.exact.coefficient(LN2) == 8
    with mpmath.workdps(40):
        assert abs(r.value - F("0.835")) < F("5e-4")
        quad = quad_general(decompose(spec), POLICY)
        assert abs(r.value - quad) < F(10) ** ABS_TOL_EXP


def test_criterion_05_shifted_double_pole_value_and_oracle():
    spec = _spec("1/((n+1)^2*(n+1/2))")
    r = evaluate(spec, POLICY)
    # 2(4 ln2 - 1) - pi^2/3
    assert r.exact.coefficient(LN2) == 8
    assert r.exact.coefficient(ONE) == -2
    assert r.exact.coefficient(PI_SQUARED) == F(-1, 3)
    with mpmath.workdps(40):
        assert abs(r.value - F("0.255")) < F("5e-4")
        quad = quad_general(decompose(spec), POLICY)
        assert abs(r.value - quad) < F(10) ** ABS_TOL_EXP


def test_criterion_06_alternating_pair_with_quadrature():
    tol = F("1e-10")
    with mpmath.workdps(40):
        r1 = evaluate(_spec("1/n", "alternating"), POLICY)
        assert render(r1.exact) == "ln(2)"
        assert mpmath.nstr(to_mpf(r1.value), 3) == "0.693"
        assert abs(r1.value - quad_alternating(r1.pf_echo, POLICY)) < tol

        r2 = evaluate(_spec("1/(n+1/2)", "alternating"), POLICY)
        assert r2.exact.coefficient(ONE) == 2
        assert r2.exact.coefficient(PI) == F(-1, 2)
        assert mpmath.nstr(to_mpf(r2.value), 3) == "0.429"
        assert abs(r2.value - quad_alternating(r2.pf_echo, POLICY)) < tol


def test_criterion_07_cotangent_crosscheck():
    # sum 1/(n^2 - a^2) = (1/2a)(1/a - pi cot(pi a)), checked to 1e-20
    with mpmath.workdps(45):
        for a in (F(1, 3), F(1, 4), F(2, 5)):
            r = evaluate(make_spec([(a, 1), (-a, 1)]), POLICY)
            am = to_mpf(a)
            ref = (1 / am - mpmath.pi * mpmath.cot(mpmath.pi * am)) / (2 * am)
            assert abs(to_mpf(r.value) - ref) < mpmath.mpf(10) ** (-20), a


def test_criterion_08_telescoping_suite():
    rng = random.Random(20240818)
    done = 0
    while done < 50:
        a = random_shift(rng, max_den=4, lo=0, hi=6)
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
        # collapses to (1/k) sum_{j=1..k} 1/(j + a - k)
        expected = sum(F(1) / (j + a - k) for j in range(1, k + 1)) / k
        assert r.exact == SymbolicValue.build({ONE: expected})
        done += 1


def test_criterion_09_constraint_and_gamma_cancellation():
    rng = random.Random(20240819)
    # sum_i A_{i1} = 0, exactly, on 200 randomized convergent plain specs
    for _ in range(200):
        spec = random_plain_spec(rng, max_factors=4, max_mult=3)
        pf = decompose(spec)
        assert sum(c for _, j, c in pf.entries if j == 1) == 0
    # gamma-coefficient vanishes on every half-integer-shift spec
    done = 0
    while done < 40:
        k = rng.randint(1, 3)
        shifts = set()
        while len(shifts) < k:
            shifts.add(random_shift(rng, max_den=2, lo=0, hi=5))
        pairs = [(a, rng.randint(1, 2)) for a in shifts]
        if sum(m for _, m in pairs) < 2:
            continue
        r = evaluate(make_spec(pairs), POLICY)
        assert r.exact.coefficient(GAMMA) == 0
        done += 1


def test_criterion_10_identity_suites():
    with mpmath.workdps(60):
        tol = mpmath.mpf(10) ** (-28)
        # recurrence: psi^(n)(z+1) - psi^(n)(z) = (-1)^n n!/z^(n+1)
        for z in (F(1, 10), F(1, 2), F(13, 10), F(29, 4)):
            for n in range(4):
                lhs = to_mpf(polygamma(n, z + 1, POLICY)) - to_mpf(polygamma(n, z, POLICY))
                rhs = to_mpf(F((-1) ** n * math.factorial(n)) / F(z) ** (n + 1))
                assert abs(lhs - rhs) < tol, (z, n)
        # reflection: psi(1-z) - psi(z) = pi cot(pi z)
        for z in (F(1, 3), F(1, 4), F(2, 5), F(7, 10)):
            lhs = to_mpf(polygamma(0, 1 - z, POLICY)) - to_mpf(polygamma(0, z, POLICY))
            rhs = mpmath.pi * mpmath.cot(mpmath.pi * to_mpf(z))
            assert abs(lhs - rhs) < tol, z
        # psi^(n)(1) and psi^(n)(1/2) in terms of zeta, n <= 5
        for n in range(1, 6):
            zeta = mpmath.zeta(n + 1)
            sign = (-1) ** (n + 1)
            assert abs(
                to_mpf(polygamma(n, 1, POLICY)) - sign * math.factorial(n) * zeta
            ) < tol * max(1, abs(zeta))
            assert abs(
                to_mpf(polygamma(n, F(1, 2), POLICY))
                - sign * math.factorial(n) * (2 ** (n + 1) - 1) * zeta
            ) < tol * (2 ** (n + 1)) * max(1, abs(zeta))


# Every named spec from criteria 1-6, for the coherence sweep.
_NAMED_SPECS = (
    ("1/(n^2+n/2)", "plain"),
    ("1/n^2", "plain"),
    ("1/(n+1/2)^2", "plain"),
    ("1/(n^2*(n+1/2))", "plain"),
    ("1/((n+1)^2*(n+1/2))", "plain"),
    ("1/n", "alternating"),
    ("1/(n+1/2)", "alternating"),
)


def test_criterion_11_oracle_coherence():
    tol = F("1e-10")
    with mpmath.workdps(40):
        for expression, sign in _NAMED_SPECS:
            spec = _spec(expression, sign)
            r = evaluate(spec, POLICY)
            bracket = partial_sum_bracket(spec, POLICY)
            assert bracket.lower <= r.value <= bracket.upper, expression
            quad_oracle = quad_general if sign == "plain" else quad_alternating
            quad = quad_oracle(decompose(spec), POLICY)
            assert abs(r.value - quad) < tol, expression


def test_timing_single_evaluation_under_100ms():
    spec = _spec("1/(n^2*(n+1/2))")
    evaluate(spec, POLICY)  # warm Bernoulli/constant caches
    t0 = time.perf_counter()
    evaluate(spec, POLICY)
    assert time.perf_counter() - t0 < 0.1


def test_timing_verify_under_5s():
    request = CliRequest("1/(n^2+n/2)", verify=True)
    t0 = time.perf_counter()
    code, _, _ = run(request)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 5.0
