"""The one psi kernel: S = sum c psi^(n)(x) in fixed point, with true digits.

`psi_sum` takes the whole term list [(c, n, x)] with exact rational c and x
and works on integers scaled by 2^W.  The coefficients' content s comes out
first, c = s k with coprime integers k; the kernel sums k psi^(n)(x) on a
grid set by that sum's size alone, and s enters once per pass, when the
result is rounded outward onto a dyadic grid.  Terms are grouped by residue
class (q, p mod q) of x = p/q, and a ladder of rungs p/q + j carries each
term to an anchor by psi^(n)(y+1) = psi^(n)(y) + (-1)^n n!/y^(n+1) (DLMF
5.15.5).  A rung adds the accumulated integer coefficients C_n over one
power of its argument, and a block of rungs, B of them with B taken from
the grid, is summed exactly and floored once, so cancellation inside a
class costs no precision.

A class whose last argument lies below the shift threshold X (about 1.5
times the working digits) is anchored at its base b/q in (0, 1]: its
ladder runs from the base or its smallest argument, if lower, to its last
argument, a few rungs, and sum T_n psi^(n)(b/q) over its order totals T_n
is added from a process-wide cache keyed (n, b, q, W), `_psi_at_base`,
whose values depend on their key alone.  A miss, and a class with an
argument above X, is anchored at X: its ladder climbs from its smallest
argument to X = P/q, and further while the series there cannot reach its
coefficients' precision, and one asymptotic series with exact Bernoulli
numbers serves every order of the class there.  Its C_0 ln X is an integer
atanh series, so no mpmath ln is called.  A class whose totals all cancel
is a finite sum: its ladder stops at its last term.  Every floor is
counted, and a Ziv loop reruns a pass whose error does not pin the target
digits (A. Ziv, ACM TOMS 17(3), 1991; R. P. Brent and P. Zimmermann,
"Modern Computer Arithmetic", ch. 3-4).  A pass is accepted when both
ends of its interval round to the same target digits, compared as
integers, not as text.  `psi_dyadic` returns one dyadic with those
digits, which the engine prints as they are; `psi_sum` and `polygamma`, a
one-term call into it, return the dyadic as a Fraction.

Bernoulli numbers come from tangent numbers in integer arithmetic, cached
as Fractions for `bernoulli` and as integer pairs for the series; a series
asks for the last one it uses, and both tables grow together by one
doubling rule.

Refs: R. P. Brent and D. Harvey, "Fast computation of Bernoulli, Tangent
and Secant numbers" (2011); B. Haible and T. Papanikolaou, "Fast
multiprecision evaluation of series of rational numbers" (1998).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .closedform import fraction_text
from .errors import OrderTooLarge, PoleArgument, PrecisionExhausted
from .fixedpoint import LOG2_2PI, _rounded_digits, ln_ratio

MAX_ORDER = 30
MAX_WORKING_BITS = 10_000  # precision ceiling of the Ziv loop (~3000 digits)
GUARD_DIGITS = 10  # working digits beyond the target
_ZIV_GUARD_DIGITS = 5  # digits a rerun adds beyond the measured shortfall


@dataclass(frozen=True)
class PrecisionPolicy:
    """Target output digits; work runs GUARD_DIGITS beyond them."""

    target_digits: int = 30

    def __post_init__(self):
        if self.target_digits < 10:
            raise ValueError("target_digits must be >= 10")

    @property
    def working_digits(self) -> int:
        return self.target_digits + GUARD_DIGITS


DEFAULT_POLICY = PrecisionPolicy()


# -- Bernoulli numbers -------------------------------------------------------

_even_bernoulli = [Fraction(1)]  # B_0, B_2, B_4, ...
# (numerator of B_2k, 2k times its denominator), the integers the series reads;
# index 0 is unused
_bernoulli_pairs = [(1, 1)]
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


def _fill_bernoulli(m: int):
    """Both cached tables, through at least B_m.

    Tables too short for m are refilled together, in one pass, to at least
    twice their length, so ascending calls cost O(m^2) in all.
    """
    with _bernoulli_lock:
        global _even_bernoulli, _bernoulli_pairs
        if len(_even_bernoulli) <= m // 2:
            half = max(m // 2, 2 * len(_even_bernoulli))
            t = _tangent_numbers(half)
            # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
            even = [Fraction(1)] + [
                Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
                for k in range(1, half + 1)
            ]
            _bernoulli_pairs = [(1, 1)] + [
                (even[k].numerator, 2 * k * even[k].denominator) for k in range(1, half + 1)
            ]
            _even_bernoulli = even
        return _even_bernoulli, _bernoulli_pairs


def _clear_bernoulli():
    global _even_bernoulli, _bernoulli_pairs
    with _bernoulli_lock:
        _even_bernoulli, _bernoulli_pairs = [Fraction(1)], [(1, 1)]


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2), from the tangent numbers (cached)."""
    if m < 0:
        raise ValueError("negative Bernoulli index")
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    table = _even_bernoulli
    if len(table) <= m // 2:
        table = _fill_bernoulli(m)[0]
    return table[m // 2]


# -- helpers ------------------------------------------------------------------


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
    """K for the asymptotic series at X = 2^log2_x, or None if X is too small.

    K terms k = 1..K leave a first omitted term below 2^-tol_bits, using
    |B_2k| (2k+n-1)!/(2k)! < C_k = 4 (2k+n-1)!/(2 pi)^(2k).  None means the
    terms start growing before one falls below 2^-tol_bits.
    """
    n = order

    def log2_coeff(k):
        return 2 + _log2_factorial(2 * k + n - 1) - 2 * k * LOG2_2PI

    # The terms C_k / X^(2k+n) fall while 2k + n < 2 pi X: bisect there
    # for the first one below 2^-tol_bits.
    lo = 0
    hi = max(1, (int(2.0 ** min(60.0, LOG2_2PI + log2_x)) - n) // 2)
    if log2_coeff(hi) - (2 * hi + n) * log2_x >= -tol_bits:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log2_coeff(mid) - (2 * mid + n) * log2_x < -tol_bits:
            hi = mid
        else:
            lo = mid
    return hi - 1


def _precision_bits(working_digits: int) -> int:
    return math.ceil(working_digits * math.log2(10)) + _GUARD_BITS


def _shift_div(x: int, w: int, den: int) -> int:
    """floor(x 2^w / den) for either sign of w and den > 0.

    For w < 0 it is floor(floor(x / 2^-w) / den), the same integer, so the
    division is by den alone, not by den 2^-w.
    """
    return (x << w) // den if w >= 0 else (x >> -w) // den


# -- the combiner -------------------------------------------------------------


def _log2_size(k: int, n: int, x: Fraction) -> float:
    """A rough log2 |k psi^(n)(x)|, used only to place the first pass's grid."""
    log2_c = math.log2(abs(k))
    p, q = x.numerator, x.denominator
    if p < 0:
        # near a pole the recurrence term n!/delta^(n+1) dominates
        delta = abs(p - (2 * p + q) // (2 * q) * q)  # q |x - round(x)|
        return log2_c + _log2_factorial(n) - (n + 1) * (math.log2(delta) - math.log2(q))
    log2_x = math.log2(p) - math.log2(q)
    if n == 0:
        # |psi(x)| ~ max(|ln x|, 1/x), taken as at least 1
        return log2_c + max(0.0, -log2_x, math.log2(abs(log2_x) * math.log(2) or 1.0))
    return log2_c + max(_log2_factorial(n - 1) - n * log2_x, _log2_factorial(n) - (n + 1) * log2_x)


def _classes(terms):
    """Terms (k, n, x), k an integer, grouped by residue class (q, p mod q) of x = p/q.

    Each class is (q, p0, events, totals): p0/q is its smallest argument,
    an event (offset, n, k) is a term at argument p0/q + offset, and
    totals maps each order to its nonzero sum of k over the class.
    """
    groups = {}
    for k, n, x in terms:
        groups.setdefault((x.denominator, x.numerator % x.denominator), []).append((x.numerator, n, k))
    classes = []
    for (q, _), members in groups.items():
        p0 = min(p for p, _, _ in members)
        events = sorted(((p - p0) // q, n, k) for p, n, k in members)
        totals = {}
        for _, n, c in events:
            totals[n] = totals.get(n, 0) + c
        classes.append((q, p0, events, {n: c for n, c in totals.items() if c}))
    return classes


def _ladder(q: int, p0: int, events, steps: int, w: int):
    """The rungs y = p0/q + j, 0 <= j < steps, as (value, error) on a 2^-w grid.

    Rung j adds sum_n (-1)^(n+1) n! C_n q^(n+1) / Y^(n+1), Y = p0 + j q, where
    C_n sums the coefficients of the terms at offsets <= j; the numerator is
    one integer over Y^(M+1), M the highest live order.  Between two events
    a block of B rungs is summed exactly as one small-integer fraction and
    pays one shift and one floor; B = grid / (10 (M+1) bitlen(Y_max)) keeps
    its denominator a tenth of the grid, and is 12 to 30 at 1000 digits.
    Where B <= 2, as on 30-digit grids and for w <= 0, a block saves less
    than its products cost and each rung takes its own floor.  A negative w
    runs the rungs on the 2^0 grid and rounds their sum onto 2^-w once.
    """
    grid = max(w, 0)
    by_offset = {}
    for o, n, c in events:
        by_offset.setdefault(o, []).append((n, c))
    offsets = sorted(by_offset)
    cumulative = {}
    value = err = 0
    for start, end in zip(offsets, offsets[1:] + [steps]):
        end = min(end, steps)
        for n, c in by_offset[start]:
            cumulative[n] = cumulative.get(n, 0) + c
        live = [n for n, c in cumulative.items() if c]
        if not live or start >= end:
            continue
        m = max(live)
        a = [(-1) ** (n + 1) * math.factorial(n) * q ** (n + 1) * cumulative.get(n, 0)
             for n in range(m + 1)]
        ys = range(p0 + start * q, p0 + end * q, q)
        y_bits = max(abs(ys[0]), abs(ys[-1])).bit_length()
        block = min(len(ys), grid // (10 * (m + 1) * y_bits))
        if block > 2:
            for i in range(0, len(ys), block):
                num_b, den_b = 0, 1
                for y in ys[i:i + block]:
                    num = 0
                    for an in a:
                        num = num * y + an
                    power = y ** (m + 1)
                    num_b, den_b = num_b * power + num * den_b, den_b * power
                value += (num_b << grid) // den_b
            err += -(-len(ys) // block)
            continue
        if live == [m]:
            numer, power = a[m] << grid, m + 1
            for y in ys:
                value += numer // y ** power
        else:
            for y in ys:
                num = 0
                for an in a:
                    num = num * y + an
                value += (num << grid) // y ** (m + 1)
        err += len(ys)
    if w < 0:
        # the floor moves the sum by < 1 unit of 2^-w
        return value >> -w, (err >> -w) + 2
    return value, err


def _series(q: int, big_p: int, totals: dict, terms: int, w: int):
    """sum_n C_n psi^(n)(X) at X = P/q, as (value, error) on 2^-w.

    Term k is B_2k/(2k) z^k / P^N times the small integer
    m_k = sum_n (-1)^(n+1) C_n rho_n(k) q^n P^(N-n), with z = q^2/P^2 and
    rho_n(k) = 2k (2k+1) ... (2k+n-1): Horner's rule in n down to the lowest
    order lo, times rho_lo(k), stepped from k + 1 by one exact division.
    Horner's rule in z runs from k = K down, so no product is big by big.
    Its k-th partial sum is later multiplied by z^(k-1), so it is carried
    on a grid L (k-1) bits coarser, L = floor(log2(1/z)): every floor then
    costs at most 2^-(w+g) in the result, and the numbers stay near the
    size of their share of the sum.
    C_0 ln X comes from the integer atanh series of `_scaled_ln`.
    """
    pairs = _bernoulli_pairs
    if len(pairs) <= terms:
        pairs = _fill_bernoulli(2 * terms)[1]
    top = max(totals)
    weights = [(-1) ** (n + 1) * totals.get(n, 0) * q ** n * big_p ** (top - n)
               for n in range(top + 1)]
    # n!/(2 X^(n+1)) + (n-1)!/X^n over the common denominator 2 P^(N+1)
    head = sum(
        weights[n] * (math.factorial(n) * q + (2 * math.factorial(n - 1) * big_p if n else 0))
        for n in totals
    )
    value = _shift_div(head, w, 2 * big_p ** (top + 1))
    q2, p2 = q * q, big_p * big_p
    g, drop = terms.bit_length() + 1, (p2 // q2).bit_length() - 1
    lo, acc = min(totals), 0
    rho = math.prod(range(2 * terms + 2, 2 * terms + 2 + lo))  # rho_lo(K + 1)
    for k in range(terms, 0, -1):
        rho = rho * (2 * k) * (2 * k + 1) // ((2 * k + lo) * (2 * k + lo + 1))
        m = 0
        for n in range(top, lo - 1, -1):
            m = m * (2 * k + n) + weights[n]
        m *= rho
        num, den = pairs[k]
        acc = (acc << drop) * q2 // p2 + _shift_div(num * m, w + g - (k - 1) * drop, den)
    value += acc * q2 // p2 // (big_p ** top << g)
    # head, final floors and the 2K damped ones, and one truncation unit per order
    err = 3 + len(totals)
    if totals.get(0):
        ln, ln_err = _scaled_ln(totals[0], big_p, q, w)
        value, err = value + ln, err + ln_err
    return value, err


def _scaled_ln(c: int, a: int, b: int, w: int):
    """(c 2^w ln(a/b), error) for integers a, b > 0 and either sign of w."""
    g = max(abs(c).bit_length() + 2, -w)
    lg, e = ln_ratio(a, b, w + g)
    return (c * lg) >> g, -((-abs(c) * e) >> g) + 1


def _x_anchored(q: int, p0: int, events, totals: dict, w: int, wd: int):
    """A class's sum on 2^-w, as (value, error), anchored at X past its terms.

    The ladder climbs from p0/q past the last argument to X = P/q past the
    shift threshold, and further while the series there cannot reach its
    coefficients' precision; one series at X serves every order.
    """
    steps = max(events[-1][0], -((p0 - _shift_threshold(wd, max(totals)) * q) // q))
    while True:
        big_p = p0 + steps * q
        log2_x = math.log2(big_p) - math.log2(q)
        plans = [_series_plan(n, log2_x, w + math.log2(abs(c))) for n, c in totals.items()]
        if None not in plans:
            break
        # coefficients far above the threshold's precision: climb to 2X
        steps += -(-big_p // q)
    value, err = _ladder(q, p0, events, steps, w)
    series, series_err = _series(q, big_p, totals, max(plans), w)
    return value + series, err + series_err


_PSI_GRID_STEP = 64  # bits: a value is kept on the asked-for grid rounded up to a multiple
_PSI_CACHE_GUARD = 16  # bits finer than its grid that a value is computed on


@functools.lru_cache(maxsize=256)  # entries; one is ~0.5 KB at 1000 digits
def _psi_at_base(n: int, b: int, q: int, big_w: int):
    """(V, e) with |2^W psi^(n)(b/q) - V| <= e, shared by every request in
    the process.

    The value is computed _PSI_CACHE_GUARD bits finer, anchored at X with
    the threshold of the digits that W carries, and floored once, so e is
    2 while the computation counts fewer than 2^_PSI_CACHE_GUARD units.
    """
    digits = math.ceil(max(big_w, 0) / math.log2(10))
    value, err = _x_anchored(q, b, [(0, n, 1)], {n: 1}, big_w + _PSI_CACHE_GUARD, digits)
    return value >> _PSI_CACHE_GUARD, -(-err >> _PSI_CACHE_GUARD) + 1


def _base_psi(n: int, b: int, q: int, grid: int):
    """(W, `_psi_at_base(n, b, q, W)`), W the first multiple of
    _PSI_GRID_STEP >= grid."""
    big_w = -(-grid // _PSI_GRID_STEP) * _PSI_GRID_STEP
    return big_w, _psi_at_base(n, b, q, big_w)


def _base_anchored(q: int, p0: int, events, totals: dict, w: int):
    """A class's sum on 2^-w, as (value, error), anchored at its base b/q in (0, 1].

    With the events (base offset, n, -T_n) added for its order totals T_n,
    the class is finite: its ladder runs from min(p0, b)/q to its last
    argument.  sum T_n psi^(n)(b/q) is added from `_base_psi`, each value
    taken bitlen(T_n) + 1 bits finer than 2^-w and floored once, so a huge
    T_n costs 2 units, not |T_n| units.
    """
    b = (p0 - 1) % q + 1
    start = min(p0, b)
    rungs = [(o + (p0 - start) // q, n, k) for o, n, k in events]
    rungs += [((b - start) // q, n, -c) for n, c in totals.items()]
    value, err = _ladder(q, start, rungs, max(o for o, _, _ in rungs), w)
    for n, c in totals.items():
        big_w, (v, e) = _base_psi(n, b, q, w + abs(c).bit_length() + 1)
        value += (c * v) >> (big_w - w)
        err += -((-abs(c) * e) >> (big_w - w)) + 1
    return value, err


def _psi_pass(classes, w: int, wd: int):
    """One fixed-point pass: (A, err) with |S 2^w - A| <= err.

    S = sum k psi^(n)(x) over the classes' integer coefficients.  A class
    whose last argument lies below the shift threshold of wd digits is
    anchored at its base, the rest at X; a class whose totals all cancel is
    a finite sum, whose ladder stops at its last term.
    """
    total = err = 0
    for q, p0, events, totals in classes:
        if totals and p0 + events[-1][0] * q >= _shift_threshold(wd, max(totals)) * q:
            value, e = _x_anchored(q, p0, events, totals, w, wd)
        else:
            value, e = _base_anchored(q, p0, events, totals, w)
        total, err = total + value, err + e
    return total, err


def psi_dyadic(terms, policy: PrecisionPolicy = DEFAULT_POLICY):
    """(m, k, (q, e)) for S = sum c psi^(n)(x) over terms (c, n, x), c and x
    ints or Fractions: S ~ m/2^k, and (q, e) are its true target digits.

    With c = s k, s = g/d, the pass sums k psi^(n)(x) on a 2^-W grid, W set
    by the size of that sum; W < 0 when the k lie far above the target's
    bits.  (g/d) [A - err, A + err] 2^-W is then rounded outward onto the
    2^-(W+t) grid, t = bitlen(d) - bitlen(g) + 1, where one unit of A spans
    at least one unit.  A pass is accepted when |S| exceeds its counted
    error by 10^(target+3) and both ends of that interval round to the
    same signed target digits and exponent (`_rounded_digits`, compared as
    integers; no text is built): those digits are the true ones, and are
    returned with the interval's midpoint m/2^k; rounding to nearest is
    monotone, so the midpoint rounds to them too.  Otherwise the pass
    reruns at the digits it fell short by, plus a guard (Ziv); when only
    the rounding is undecided, the value lies near a decimal tie and the
    rerun doubles the digits beyond the target.
    Reruns stop at MAX_WORKING_BITS: a pass there that still falls short
    raises PrecisionExhausted, as an exactly zero sum always does.
    """
    checked = []
    for c, n, x in terms:
        if n < 0:
            raise ValueError("polygamma order must be >= 0")
        if n > MAX_ORDER:
            raise OrderTooLarge(f"order {n} > {MAX_ORDER}")
        if x.denominator == 1 and x.numerator <= 0:
            raise PoleArgument(f"psi^({n}) has a pole at {fraction_text(x)}")
        if c:
            checked.append((c, n, x))
    # the content s = g/d > 0, so that the k = c/s are coprime integers; g
    # and d are coprime since each c is in lowest terms; lists, not
    # generators: see polys.Polynomial.primitive
    g = math.gcd(*[c.numerator for c, _, _ in checked])
    d = math.lcm(*[c.denominator for c, _, _ in checked])
    scaled = [(c.numerator * (d // c.denominator) // g, n, x) for c, n, x in checked]
    classes = _classes(scaled)
    est = max((_log2_size(k, n, x) for k, n, x in scaled), default=0.0)
    t = d.bit_length() - g.bit_length() + 1
    target = policy.target_digits
    wd = policy.working_digits
    wd_max = math.floor((MAX_WORKING_BITS - _GUARD_BITS) / math.log2(10))
    while True:
        w = _precision_bits(wd) - math.ceil(est)
        a, e = _psi_pass(classes, w, wd)
        lo = _shift_div(g * (a - e), t, d)
        hi = -_shift_div(-g * (a + e), t, d)
        v, err = (lo + hi) // 2, (hi - lo + 1) // 2
        lower, need = abs(v) - err, err * 10 ** (target + 3)
        if err == 0 or lower >= need:
            # S lies in [v - err, v + err] * scale / 2^k
            scale, k = 1 << max(0, -w - t), max(0, w + t)
            digits = _rounded_digits((v - err) * scale, target, den=1 << k)
            if err == 0 or digits == _rounded_digits((v + err) * scale, target, den=1 << k):
                return v * scale, k, digits
        if wd >= wd_max:
            raise PrecisionExhausted(
                f"the sum cancels below the {MAX_WORKING_BITS}-bit precision ceiling; "
                f"its {target} digits cannot be certified"
            )
        if lower >= need:
            wd = min(wd_max, 2 * wd - target + _ZIV_GUARD_DIGITS)
        elif lower > 0:
            deficit = math.log10(need) - math.log10(lower)
            wd = min(wd_max, wd + math.ceil(deficit) + _ZIV_GUARD_DIGITS)
        else:
            wd = min(wd_max, 2 * wd)


def psi_sum(terms, policy: PrecisionPolicy = DEFAULT_POLICY) -> Fraction:
    """`psi_dyadic`'s m/2^k, whose decimal_text prints its certified digits."""
    m, k, _ = psi_dyadic(terms, policy)
    return Fraction(m, 1 << k)


def polygamma(order: int, x, policy: PrecisionPolicy = DEFAULT_POLICY) -> Fraction:
    """psi^(order)(x) as a one-term psi_sum, for an int or Fraction x;
    order 0 is digamma."""
    return psi_sum([(1, order, x)], policy)
