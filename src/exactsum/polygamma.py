"""Arbitrary-precision digamma / polygamma / zeta evaluation.

psi^(n)(x) at a rational x = p/q is one integer kernel on values scaled by
2^W: the upward recurrence sums 2^W n! q^(n+1) // (p + i q)^(n+1), one
big-by-small division per shift, until x + s is large enough; there the
asymptotic series with exact Bernoulli coefficients is summed on a carried
power 2^(W+E) (q/P)^(2k+n), one multiply and one divide per term.  W and E
are derived from the precision, the order and the argument before the
loops start; ln(X) (order 0) is the only mpmath evaluation.  Bernoulli
numbers come from tangent numbers in integer arithmetic.  zeta(k) uses a
direct series with an Euler-Maclaurin tail; the polygamma-at-1 identity
serves as an independent cross-check in the test suite.

Refs: R. P. Brent and D. Harvey, "Fast computation of Bernoulli, Tangent
and Secant numbers" (2011); B. Haible and T. Papanikolaou, "Fast
multiprecision evaluation of series of rational numbers" (1998).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .errors import OrderTooLarge, PoleArgument

MAX_ORDER = 30


@dataclass(frozen=True)
class PrecisionPolicy:
    """Target output digits plus guard digits for intermediate work."""

    target_digits: int = 30
    guard_digits: int = 10

    def __post_init__(self):
        if self.target_digits < 10:
            raise ValueError("target_digits must be >= 10")

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits


DEFAULT_POLICY = PrecisionPolicy()


# -- Bernoulli numbers -------------------------------------------------------

_even_bernoulli = [Fraction(1)]  # B_0, B_2, B_4, ...
_bernoulli_lock = threading.Lock()


def _tangent_numbers(n: int) -> list:
    """Tangent numbers T_1..T_n (index 0 unused), in place, O(n^2) small multiplies.

    Brent & Harvey, Algorithm TangentNumbers.
    """
    t = [0] * (n + 1)
    if n:
        t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _fill_bernoulli(m: int) -> list:
    """The cached B_0, B_2, ..., at least up to B_m, filled in one pass if short."""
    with _bernoulli_lock:
        global _even_bernoulli
        half = m // 2
        if len(_even_bernoulli) <= half:
            t = _tangent_numbers(half)
            # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
            _even_bernoulli = [Fraction(1)] + [
                Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
                for k in range(1, half + 1)
            ]
        return _even_bernoulli


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2), from the tangent numbers (cached).

    A table too short for m is refilled to at least twice its length, so
    ascending calls cost O(m^2) in all.
    """
    if m < 0:
        raise ValueError("negative Bernoulli index")
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    table = _even_bernoulli
    if len(table) <= m // 2:
        table = _fill_bernoulli(max(m, 4 * len(table)))
    return table[m // 2]


# -- helpers ------------------------------------------------------------------


def to_mpf(x) -> mpf:
    """Convert an exact rational or float-like value at current precision."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    if isinstance(x, int):
        return mpmath.mpf(x)
    return mpmath.mpf(x)


def _exact_argument(x, policy: PrecisionPolicy) -> Fraction:
    """x as an exact rational; an mpf is rounded to working precision first."""
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    with mpmath.workdps(policy.working_digits):
        xm = mpmath.mpf(x)
    if not mpmath.isfinite(xm):
        raise ValueError(f"polygamma argument {x} is not finite")
    man, exp = xm.man_exp  # man_exp gives |mantissa|
    if xm < 0:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _check_pole(x: Fraction, policy: PrecisionPolicy):
    nearest = round(x)
    if nearest <= 0 and abs(x - nearest) * 10 ** policy.target_digits < 1:
        raise PoleArgument(
            f"polygamma argument within 10^-{policy.target_digits} of the pole at {nearest}"
        )


_LOG2_2PI = math.log2(2 * math.pi)
_GUARD_BITS = 16


def _log2_factorial(m: int) -> float:
    return math.lgamma(m + 1) / math.log(2)


def _shift_threshold(working_digits: int, order: int) -> int:
    # The asymptotic series can reach 10^-d once x > d*ln(10)/(2*pi) ~ 0.37 d,
    # but at x = 0.5 d it takes ~0.6 d terms with coefficients of ~7 d bits.
    # A shift costs one small division, so shifting to 1.5 d (~0.3 d terms
    # of ~3.3 d bits) is cheaper; measured best of 0.5, 1, 1.5, 2, 3 times d
    # at 30 and 1000 digits.  The order slows the series, hence + order.
    return 3 * working_digits // 2 + order


def _series_plan(order: int, log2_x: float, tol_bits: float):
    """(K, E) for the asymptotic series at X = 2^log2_x.

    K terms k = 1..K leave a first omitted term below 2^-tol_bits, using
    |B_2k| (2k+n-1)!/(2k)! < C_k = 4 (2k+n-1)!/(2 pi)^(2k); E >= log2 of
    every coefficient the series uses: C_k, (n-1)! and n!/2.
    """
    n = order

    def log2_coeff(k):
        return 2 + _log2_factorial(2 * k + n - 1) - 2 * k * _LOG2_2PI

    # The terms C_k / X^(2k+n) fall while 2k + n < 2 pi X: bisect there
    # for the first one below 2^-tol_bits.
    lo = 0
    hi = max(1, (int(2.0 ** min(60.0, _LOG2_2PI + log2_x)) - n) // 2)
    if log2_coeff(hi) - (2 * hi + n) * log2_x >= -tol_bits:
        raise ArithmeticError("asymptotic series diverges before reaching precision")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log2_coeff(mid) - (2 * mid + n) * log2_x < -tol_bits:
            hi = mid
        else:
            lo = mid
    terms = hi - 1
    # C_k falls, then rises: its largest used value is at k = 1 or k = K.
    e = max(_log2_factorial(n), log2_coeff(1), log2_coeff(max(1, terms)))
    return terms, math.ceil(e) + 1


def _precision_bits(working_digits: int) -> int:
    return math.ceil(working_digits * math.log2(10)) + _GUARD_BITS


def _bernoulli_limit(working_digits: int) -> int:
    """Largest Bernoulli index any order can need at this precision (at x = threshold)."""
    bits = _precision_bits(working_digits)
    need = 0
    for n in range(MAX_ORDER + 1):
        x = _shift_threshold(working_digits, n)
        mag = max(0.0, n * math.log2(x) - _log2_factorial(n - 1)) if n else 0.0
        terms, _ = _series_plan(n, math.log2(x), bits + mag)
        need = max(need, 2 * terms)
    return need


def _psi_numeric(order: int, x, policy: PrecisionPolicy) -> mpf:
    n = order
    xf = _exact_argument(x, policy)
    _check_pole(xf, policy)
    p, q = xf.numerator, xf.denominator
    wd = policy.working_digits
    shifts = max(0, -((p - _shift_threshold(wd, n) * q) // q))
    big_p = p + shifts * q  # X = P/q

    # Absolute error 2^-W must be relative: |psi^(n)(x)| >= (n-1)!/|x|^n.
    log2_abs_x = math.log2(abs(p)) - math.log2(q)
    mag = max(0.0, n * log2_abs_x - _log2_factorial(n - 1)) if n else 0.0
    tol_bits = _precision_bits(wd) + mag
    terms, e = _series_plan(n, math.log2(big_p) - math.log2(q), tol_bits)
    w = math.ceil(tol_bits) + (shifts + terms + 4).bit_length()
    table = _even_bernoulli
    if len(table) <= terms:
        table = _fill_bernoulli(max(2 * terms, _bernoulli_limit(wd)))

    # Recurrence: n! sum_{i<s} 1/(x+i)^(n+1), scaled by 2^W.
    fact_n = math.factorial(n)
    numer = (fact_n * q ** (n + 1)) << w
    total = 0
    for i in range(shifts):
        total += numer // (p + i * q) ** (n + 1)

    # Series: n!/(2X^(n+1)) + (n-1)!/X^n + sum_k B_2k (2k+n-1)!/(2k)! / X^(2k+n),
    # scaled by 2^(W+E); (2k+n-1)!/(2k)! is the integer `rising` for n >= 1
    # and 1/(2k) for n = 0.
    t = (q ** n << (w + e)) // big_p ** n
    acc = t * q * fact_n // (2 * big_p)
    if n:
        acc += t * math.factorial(n - 1)
    q2, p2 = q * q, big_p * big_p
    rising = math.factorial(n + 1) // 2 if n else 1
    for k in range(1, terms + 1):
        t = t * q2 // p2
        b = table[k]
        if n:
            acc += t * b.numerator * rising // b.denominator
            rising = rising * (2 * k + n) * (2 * k + n + 1) // ((2 * k + 1) * (2 * k + 2))
        else:
            acc += t * b.numerator // (b.denominator * 2 * k)
    total += acc >> e

    # psi^(n)(x) = (-1)^(n+1) (series + recurrence sum), plus ln X at order 0.
    if n % 2 == 0:
        total = -total
    with mpmath.workprec(w + 32):
        value = mpmath.ldexp(mpmath.mpf(total), -w)
        if n == 0:
            value += mpmath.ln(mpmath.mpf(big_p) / q)
    with mpmath.workdps(wd):
        return +value


def digamma(x, policy: PrecisionPolicy = DEFAULT_POLICY) -> mpf:
    """psi(x) for rational or high-precision real x."""
    return _psi_numeric(0, x, policy)


def polygamma(order: int, x, policy: PrecisionPolicy = DEFAULT_POLICY) -> mpf:
    """psi^(order)(x); order 0 is digamma."""
    if order < 0:
        raise ValueError("polygamma order must be >= 0")
    if order > MAX_ORDER:
        raise OrderTooLarge(f"order {order} > {MAX_ORDER}")
    return _psi_numeric(order, x, policy)


def zeta_int(k: int, policy: PrecisionPolicy = DEFAULT_POLICY) -> mpf:
    """zeta(k) for integer k >= 2: direct series plus Euler-Maclaurin tail."""
    if k < 2:
        raise ValueError("zeta_int requires k >= 2")
    with mpmath.workdps(policy.working_digits):
        eps = mpmath.mpf(10) ** (-policy.working_digits)
        n_cut = max(10, int(0.8 * policy.working_digits))
        acc = mpmath.mpf(0)
        for n in range(1, n_cut):
            acc += mpmath.mpf(1) / mpmath.mpf(n) ** k
        nm = mpmath.mpf(n_cut)
        acc += nm ** (1 - k) / (k - 1)
        acc += nm ** (-k) / 2
        # Correction terms B_2j/(2j)! * (k)(k+1)...(k+2j-2) * N^(1-k-2j).
        rising = Fraction(k)
        prev = mpmath.inf
        j = 1
        while True:
            coeff = bernoulli(2 * j) / math.factorial(2 * j) * rising
            term = to_mpf(coeff) * nm ** (1 - k - 2 * j)
            if abs(term) < eps or abs(term) > prev:
                break
            acc += term
            prev = abs(term)
            rising *= (k + 2 * j - 1) * (k + 2 * j)
            j += 1
        return +acc

