"""Independent verification backends.

Two routes that never touch the master formula: a partial-sum bracket with
a rigorously bounded tail, and tanh-sinh quadrature of one integral
representation of the whole partial-fraction table over s in [0, 1], for
either sign.  The bracket reads only the `SumSpec`, never the
partial-fraction table or the polygamma kernel.  Both run on integers
scaled by 2^W (see `fixedpoint`) and no module imports mpmath.

Quadrature is a verifier, not the product: the CLI checks it to
quad_digits(d) = ceil(d/2) significant digits of the d printed ones.  A
table with a shift a < 0 has its first k = ceil(-a) terms summed on the
integral's grid and is shifted by k, so every shift is >= 0 (DLMF
25.11.25).  It divides the table by 2^e, e the size of its largest term's
sum, and runs mpmath's tanh-sinh rule (its levels, truncation and
level-error estimate) at ten digits more than that, rerunning at more
where the estimate plus the counted floors is not within that many digits
of the sum.  The integrand is one Horner's rule over the table's powers of
s, highest first: each power adds its polynomial in L = -ln s, and one
floored product by s^gap steps to the next power.  It runs over a whole
level at once, and W leaves room for the coefficients' size and L^(J-1).
A level holds its nodes and one column per value met at them (a power of
s, the weight over 1 - sign s), the value at every node; levels are shared
by every quadrature in a process-wide cache keyed (W, degree, depth), W
rounded up to 64 bits and depth the truncation, of at most 64 levels, the
least recently used dropped.  Every column is a function of its level's
key and its own, so no quadrature depends on the cache's history or on
another thread.

The bracket sums h(n) over n >= 1, with h = Q/P for plain sums and
h(x) = f(2x-1) - f(2x), f = Q/P, for alternating ones, so both signs share
one path.  With the head n < N summed term by term, the tail is
(DLMF 2.10.1)

    sum_{n>=N} h(n) = int_N^oo h + h(N)/2 - sum_{s<p} B_2s/(2s)! h^(2s-1)(N) + R_p.

The integral comes from the Laurent coefficients c_k of h at infinity, the
derivatives from the Taylor series of h at N.  With rho above every pole
modulus, z = rho/N and M >= max_{|x|=rho} |h| (so |c_k| <= M rho^k):

    integral truncated after c_K     <= M N z^(K+1) / (K (1 - z))
    Euler-Maclaurin remainder R_p    <= M |B_2p| rho / (p (N - rho)^(2p))

All arithmetic is on integers scaled by 2^W.  Both series are quotients by
the poles' linear factors, scaled so that each division is by some
(1 - phi v) with |phi| < 1; every rounding, and its growth through those
divisions, is counted into the half-width.  N, K, p and W are chosen for a
tolerance aimed from the terms' scale, which takes one pass unless the sum
cancels far below its terms (see `partial_sum_bracket`); the bracket is
then widened to 10^-(target+3) |S|, since the engine's numeric value may be
off by that much.  The oracle fails loudly (InsufficientTerms) rather than
ever produce a wrong bracket.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintViolated, InsufficientTerms
from .partfrac import MAX_SHIFT, PLAIN, PartialFractions, SumSpec
from .fixedpoint import LOG2_2PI, _exp, _ln1p, _power
from .polygamma import DEFAULT_POLICY, PrecisionPolicy, bernoulli
from .polys import linear_product

_HEAD_TERMS_MAX = 4 * (MAX_SHIFT + 1)  # longest head; N >= 4 rho, rho <= MAX_SHIFT + 1
_RESOLVE_DIGITS = 60  # digits of cancellation below the sum's scale resolved beyond the target
_HEAD_PER_DIGIT = 1.5  # head terms per digit sought; 1-2 measured fastest at 30-1000


@dataclass(frozen=True)
class Bracket:
    """Rigorous interval [lo, hi] 2^-w, of integers, guaranteed to contain
    the series limit; `lower` and `upper` are its ends as exact Fractions."""

    lo: int
    hi: int
    w: int
    lower = property(lambda self: Fraction(self.lo, 1 << self.w))
    upper = property(lambda self: Fraction(self.hi, 1 << self.w))


# -- fixed-point series ------------------------------------------------------------


def _series(first: list, phis: list, count: int) -> list:
    """first(v) / prod_phi (1 - phi v) to `count` terms, each phi a/b as (a, b), |a/b| < 1.

    `first` holds floor(2^W * coefficient) integers; each division rounds
    phi * r down once per term.  Returns the coefficients on the same grid.
    """
    vals = first[:count] + [0] * (count - len(first))
    for a, b in phis:
        r = 0
        for i in range(count):
            r = vals[i] = vals[i] + a * r // b
    return vals


@functools.lru_cache(maxsize=256)
def _series_errors(length: int, poles: int, count: int) -> tuple:
    """Bounds on `_series`'s coefficient errors on 2^-W after P = `poles` divisions
    of a `length`-term `first`: 1 per floor, and e_i + e'_(i-1) + 1 per division,
    come to C(i+P, P) + C(i+P+1, P) - 1, less C(i-length+P, P) for i >= length."""
    return tuple(math.comb(i + poles, poles) + math.comb(i + poles + 1, poles) - 1
                 - (math.comb(i - length + poles, poles) if i >= length else 0)
                 for i in range(count))


# -- partial-sum bracket -----------------------------------------------------------


def _summand(spec: SumSpec):
    """(num, den, poles): h = num/den in integer polynomials, each pole u/v
    as the pair (u, v), once per multiplicity."""
    content, num = spec.numerator.primitive()
    # (n + a)^m = (q n + p)^m / q^m for a = p/q
    num = num * (content.numerator * math.prod(a.denominator ** m for a, m in spec.factors))
    poles = [(-a.numerator, a.denominator) for a, m in spec.factors for _ in range(m)]
    if spec.sign == PLAIN:
        return num, linear_product(poles) * content.denominator, poles
    # h(x) = f(2x - 1) - f(2x): f's pole u/v moves to (u + v)/2v and u/2v
    odd, even = [(u + v, 2 * v) for u, v in poles], [(u, 2 * v) for u, v in poles]
    odd_den = linear_product(odd) * content.denominator
    even_den = linear_product(even) * content.denominator
    return (num.compose(2, -1) * even_den - num.compose(2, 0) * odd_den,
            odd_den * even_den, odd + even)


def _log2(x: Fraction) -> float:
    return math.log2(abs(x.numerator)) - math.log2(x.denominator)  # of |x|


def _plan(log2_m: float, rho: int, n: int, log2_tol: float):
    """(K, p) meeting tol/3 each at head length n, or None if p cannot."""
    log2_rho, log2_n, log2_gap = math.log2(rho), math.log2(n), math.log2(n - rho)
    # less its log2(k), the truncation bound falls by `slope` per k and
    # meets tol at k_lin, so no k below k_lin - log2(k_lin)/slope meets it
    slope = log2_n - log2_rho
    k_lin = (log2_m + log2_rho + log2_n - log2_gap - log2_tol) / slope
    k = max(1, math.floor(k_lin - math.log2(max(k_lin, 1)) / slope))
    while log2_m + (k + 1) * log2_rho - math.log2(k) - (k - 1) * log2_n - log2_gap > log2_tol:
        k += 1
    # |B_2p| <= 2 zeta(2) (2p)! / (2 pi)^(2p); (2p)! grows by (2p + 1)(2p + 2)
    p, em = 1, log2_m + 2.72 - 2 * LOG2_2PI + log2_rho - 2 * log2_gap
    while em > log2_tol:
        step = math.log2((2 * p + 1) * (2 * p + 2) * p / (p + 1)) - 2 * (LOG2_2PI + log2_gap)
        if step >= 0:
            return None
        p, em = p + 1, em + step
    return k, p


def _bracket(num, den, poles, rho: int, m_bound: Fraction, tol: Fraction, terms: list):
    """(lo, hi, W): the sum lies in [lo, hi] * 2^-W, half-width <= tol.
    `terms` holds (num(k), den(k)) from k = 1 on, and grows to the head's."""
    log2_m, log2_tol = _log2(m_bound), _log2(tol / 3)
    n = max(4 * rho, math.ceil(_HEAD_PER_DIGIT * (log2_m - log2_tol) * math.log10(2)))
    while n <= _HEAD_TERMS_MAX and (plan := _plan(log2_m, rho, n, log2_tol)) is None:
        n *= 2
    if n > _HEAD_TERMS_MAX:
        raise InsufficientTerms(
            f"the partial-sum bracket needs {n} head terms (cap {_HEAD_TERMS_MAX})"
        )
    k_max, p = plan
    gap = den.degree - num.degree  # >= 2
    laurent = range(gap, k_max + 1)
    lead, den_n = den.leading, den.value(n)
    phis = [(u, v * rho) for u, v in poles]
    # c_k rho^-k: (sum_i num_(dn-i) (v/rho)^i) / (lead rho^gap prod (1 - (p_j/rho) v))
    first = [(c, lead * rho ** (gap + i)) for i, c in enumerate(reversed(num.coeffs))]
    # tau_j (N - rho)^j: num(N + (N - rho) v) / (den(N) prod (1 - phi_j v)),
    # phi_j = (N - rho)/(p_j - N)
    taylor_first = [(c, den_n) for c in num.compose(n - rho, n).coeffs]
    taylor_phis = [((n - rho) * v, u - n * v) for u, v in poles]

    # Error bounds depend on the operations only, so W can follow from them.
    c_errs = _series_errors(len(first), len(phis), len(laurent))
    t_errs = _series_errors(len(taylor_first), len(phis), max(1, 2 * p - 2))
    log2_z, log2_gap = math.log2(rho) - math.log2(n), math.log2(n - rho)
    bern = [bernoulli(2 * s) for s in range(p + 1)]
    carried = t_errs[0] / 2 + sum(
        2 ** (math.log2(e) + math.log2(n) + k * log2_z - math.log2(k - 1))
        for k, e in zip(laurent, c_errs)
    ) + sum(
        2 ** (math.log2(t_errs[2 * s - 1])
              + _log2(bern[s]) - math.log2(2 * s) - (2 * s - 1) * log2_gap)
        for s in range(1, p)
    )
    # head and h(N)/2, one floor per Laurent and Euler-Maclaurin term, and the
    # carried series errors (doubled against float rounding)
    floors = n + len(laurent) + p + math.ceil(2 * carried)
    w = max(0, math.ceil(math.log2(floors) - log2_tol) + 1)

    terms += [(num.value(k), den.value(k)) for k in range(len(terms) + 1, n)]
    total = sum((x << w) // y for x, y in terms[:n - 1])

    # int_N^oo h = N sum_k (c_k rho^-k) z^k / (k - 1)
    c = _series([(x << w) // y for x, y in first], phis, len(laurent))
    rho_k, n_k = rho ** gap, n ** (gap - 1)
    for k, ck in zip(laurent, c):
        total += ck * rho_k // (n_k * (k - 1))
        rho_k, n_k = rho_k * rho, n_k * n

    # h(N)/2 - sum_{s<p} B_2s/(2s) tau_(2s-1)
    t = _series([(x << w) // y for x, y in taylor_first], taylor_phis, max(1, 2 * p - 2))
    total += t[0] // 2
    g = g_s = n - rho  # g_s = (N - rho)^(2s-1)
    for s in range(1, p):
        total -= bern[s].numerator * t[2 * s - 1] // (bern[s].denominator * 2 * s * g_s)
        g_s *= g * g

    # the truncation and remainder bounds of the module docstring, rounded up
    t_den, r_den = k_max * n ** (k_max - 1) * g, p * g_s * g * bern[p].denominator
    tail = (rho ** (k_max + 1) * r_den + abs(bern[p].numerator) * rho * t_den) * m_bound.numerator
    err = -((-tail << w) // (t_den * r_den * m_bound.denominator)) + floors
    return total - err, total + err, w


def partial_sum_bracket(
    spec: SumSpec, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Bracket:
    """Interval containing the sum, of half-width 10^-(target+3) |S|.

    The first pass aims at 10^-(target+3) min(M, T)/4, T the terms' scale
    max |h(k)| over 1 <= k <= 4 rho to a factor of 2; a pass that does not
    reach the goal is repeated at a tolerance set from what it resolved.
    Once a pass excludes zero, one more pass reaches the goal; a bracket
    that still straddles zero _RESOLVE_DIGITS below 10^-(target+3) T, such
    as an exact zero's, is the last pass's bracket instead.  The head
    length N >= 4 rho grows with the poles' moduli; a head above
    _HEAD_TERMS_MAX terms raises InsufficientTerms.
    """
    num, den, poles = _summand(spec)
    if num.is_zero():
        return Bracket(0, 0, 0)
    rho = max(abs(u) // v for u, v in poles) + 1
    m_bound = Fraction(
        sum(abs(c) * rho ** i for i, c in enumerate(num.coeffs)) * math.prod(v for _, v in poles),
        abs(den.leading) * math.prod(rho * v - abs(u) for u, v in poles),
    )
    rel = Fraction(1, 10 ** (policy.target_digits + 3))
    terms = [(num.value(k), den.value(k)) for k in range(1, 4 * rho + 1)]
    bits = max(abs(x).bit_length() - abs(y).bit_length() for x, y in terms)
    scale = Fraction(2) ** bits
    floor = rel * scale / 10 ** _RESOLVE_DIGITS
    # M bounds h near the poles, far above the terms when they lie close to
    # the circle; T is within a factor of 4 of |S| unless the sum cancels
    tol = rel * min(m_bound, scale) / 8
    while True:
        lo, hi, w = _bracket(num, den, poles, rho, m_bound, tol, terms)
        s_min = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
        goal = s_min * rel.numerator // rel.denominator
        if hi - lo <= 2 * goal:
            mid = (lo + hi) // 2
            lo, hi = mid - goal, mid + goal
            break
        if not s_min and tol <= floor:
            break
        # |S| >= s_min makes the next pass the last; while the bracket
        # straddles zero, |S| <= hi - lo
        tol = max(rel * Fraction(s_min or hi - lo, 1 << w) / 2, 0 if s_min else floor)
    return Bracket(lo, hi, w)


# -- quadrature oracles ---------------------------------------------------------


def quad_digits(digits: int) -> int:
    """Digits to which quadrature checks a `digits`-digit value: ceil(d/2)."""
    return -(-digits // 2)


def _table(pf: PartialFractions):
    """(nonzero entries shifted by k, k), k = max(0, ceil(-min a_i)): the sum
    is its first k terms plus sign^k times the shifted table's."""
    entries = [(a, j, c) for a, j, c in pf.entries if c != 0]
    k = max(0, -math.floor(min((a for a, _, _ in entries), default=0)))
    return [(a + k, j, c) for a, j, c in entries], k


def _head(entries, k: int, sign: int, w: int) -> int:
    """2^w sum_{n<=k} sign^(n-1) f(n), one floor per (n, entry), f the table
    before `_table` shifted it by k: n + a_i is i = n - k plus the new a_i."""
    terms = [(c.numerator * a.denominator ** j << max(0, w), c.denominator << max(0, -w),
              a.denominator, a.numerator, j) for a, j, c in entries]
    total = 0
    for i in range(0, -k, -1):
        total = sign * total + sum(x // (y * (i * q + p) ** j) for x, y, q, p, j in terms)
    return total


def _scale(entries) -> int:
    """floor(log2 max |A_ij| zeta(j, a_i + 1)), with zeta(j, x) estimated as
    x^-j + x^(1-j)/(j - 1), and |A_i1| for j = 1."""
    sizes = [_log2(c) for _, _, c in entries]
    for i, (a, j, _) in enumerate(entries):
        if j > 1:
            u, v = a.numerator + a.denominator, a.denominator  # a + 1 = u/v
            sizes[i] += -j * (math.log2(u) - math.log2(v)) + math.log2(1 + u / v / (j - 1))
    return math.floor(max(sizes, default=0))


def _by_power(entries, e: int = 0):
    """The table over 2^e as [(a, coeffs)], one per power a >= 0, highest first.

    Entry (a, j, A) adds A/((j-1)! 2^e) to the coefficient of L^(j-1) at
    the power a; the exact coefficients run highest order first, for
    Horner's rule in L.
    """
    powers = {}
    for a, j, c in entries:
        orders = powers.setdefault(a, {})
        orders[j - 1] = orders.get(j - 1, 0) + Fraction(
            c.numerator << max(0, -e), c.denominator * math.factorial(j - 1) << max(0, e))
    return [(a, [orders.get(i, 0) for i in range(max(orders), -1, -1)])
            for a, orders in sorted(powers.items(), reverse=True)]


_C_NUM, _C_SHIFT = 25, 4  # c = 25/16 of E = exp(-2c sinh t): dyadic, near mpmath's pi/2
_GRID_STEP = 64  # bits: W is rounded up to a multiple, so requests share node tables
_NODE_GUARD = 40  # bits finer than L's grid that a level's nodes are computed on
_LOG_GUARD = 57  # bits below 2^-W that L is kept to; `_floor_counts` counts the rest


class _Level:
    """The nodes tanh-sinh adds at one level, on the grid W, down to
    1 - s > 2^-depth, and the values met at them.

    Level 1 has t = 0 and t = k/2, level d > 1 the odd multiples of 2^-d,
    and like mpmath the level stops at the first t past the depth, or after
    20 2^d + 1 values of t.  Each t > 0 gives two points, s = 1/(1 + E) and
    E/(1 + E) with E = exp(-2c sinh t), and e^t steps by one product per t.
    A point is a tuple (L, s, 1 - s, h 2c cosh t): L = -ln s on
    2^-(W+_LOG_GUARD), that is ln(1 + E), plus 2c sinh t at the second
    point; the rest on the finer grid wg, where h = 2^-d and h ds/dt =
    h 2c cosh t s (1 - s).  `columns` maps a value's key to that value at
    every point, on 2^-W, made by `column` on first use.  Every column is a
    function of (W, degree, depth) and its key.
    """

    def __init__(self, big_w: int, degree: int, depth: int):
        self.big_w, self.degree = big_w, degree
        wg = self.wg = big_w + _LOG_GUARD + _NODE_GUARD
        one = 1 << wg
        self.points, self.columns = [], {}
        if degree == 1:
            self._add(one, one, depth)
        et = _exp(1, degree, wg)  # e^t at the first t, 1/2^d
        step = _exp(1 if degree == 1 else 2, degree, wg)
        for _ in range(20 * 2 ** degree + 1):
            if not self._add(et, (one << wg) // et, depth):
                break
            et = et * step >> wg

    def _add(self, et: int, emt: int, depth: int) -> bool:
        """Add the points of the t with e^t = et, e^-t = emt, unless the
        first has 1 - s <= 2^-depth; the center t = 0 adds one point."""
        wg, one = self.wg, 1 << self.wg
        x = _C_NUM * (et - emt) >> _C_SHIFT  # 2c sinh t
        hcosh = _C_NUM * (et + emt) >> (_C_SHIFT + self.degree)  # h 2c cosh t
        big_e = _exp(-x, wg, wg)
        near_one, near_zero = (one << wg) // (one + big_e), (big_e << wg) // (one + big_e)
        if near_zero <= one >> depth:
            return False
        neglog = _ln1p(big_e, wg)
        self.points.append((neglog >> _NODE_GUARD, near_one, near_zero, hcosh))
        if x:
            self.points.append(((neglog + x) >> _NODE_GUARD, near_zero, near_one, hcosh))
        return True

    def column(self, key) -> list:
        """The value under `key` at every point on 2^-W, stored on first use.

        Under (num, den), s^(num/den): a binary power for den = 1, else
        exp(-num L/den).  Under the sign, the weight h ds/dt/(1 - sign s):
        at sign +1, h 2c cosh t s, with 1 - s cancelled, so no small
        quotient near 1.
        """
        column = self.columns.get(key)
        if column is not None:
            return column
        wg, big_w = self.wg, self.big_w
        if isinstance(key, tuple):
            num, den = key
            if den == 1:
                column = [_power(s, num, wg) >> (wg - big_w) for _, s, _, _ in self.points]
            else:
                column = [_exp(-(num * neglog) // den, big_w + _LOG_GUARD, big_w)
                          for neglog, _, _, _ in self.points]
        elif key > 0:
            column = [(hcosh * s >> wg) >> (wg - big_w) for _, s, _, hcosh in self.points]
        else:
            column = [((hcosh * s >> wg) * other >> wg << big_w) // ((1 << wg) + s)
                      for _, s, other, hcosh in self.points]
        self.columns[key] = column
        return column


# _level(W, degree, depth): the levels shared by every quadrature in the
# process; a verify-30d round meets four (W = 128, depth 97), ~0.15 MB
_level = functools.lru_cache(maxsize=64)(_Level)


def _integrand(level: _Level, powers) -> list:
    """f(s) = sum_i s^(a_i) sum_l c_il L^l at every point of the level, with
    the coefficients on 2^-W: Horner's rule over the powers, highest first,
    adding each one's Horner polynomial in L and then multiplying by
    s^(a_i - a_(i+1)), or by s^(a_last) after the last, in one floored
    product each."""
    big_w, shift = level.big_w, level.big_w + _LOG_GUARD
    neglogs = [point[0] for point in level.points]
    f = [0] * len(neglogs)
    for (a, coeffs), (b, _) in zip(powers, powers[1:] + [(0, [])]):
        h = [coeffs[0]] * len(neglogs)
        for c in coeffs[1:]:
            h = [(x * neglog >> shift) + c for x, neglog in zip(h, neglogs)]
        f = [x + y for x, y in zip(f, h)]
        gap = a - b
        if gap:
            f = [x * u >> big_w for x, u in zip(f, level.column((gap.numerator, gap.denominator)))]
    return f


def _floor_counts(powers, neglog_max: int):
    """(B, C): `_integrand`'s f times a weight q, floored, is within q B + C
    units of 2^-W of its exact q f(s), given node values within 2 units and
    L <= neglog_max.  A Horner step floors twice and later steps grow that
    by L; a product with a node value adds twice the other factor's bound,
    the sum of the Horner bounds so far, plus 1; the node's place, within
    2^-(W+g) in L for g = _LOG_GUARD, adds the slope bound 4 D 2^-g,
    D = 9 sum |c| (a + l + 1)^2 L^l.
    """
    top = max(1, neglog_max)
    bound = size = slope = 0
    for (a, coeffs), (b, _) in zip(powers, powers[1:] + [(0, [])]):
        n = len(coeffs) - 1
        h = sum(math.ceil(abs(c)) * top ** (n - i) for i, c in enumerate(coeffs))
        size += h
        bound += 2 * (n + 1) * top ** n + (2 * size + 1 if a != b else 0)
        slope += h * math.ceil((a + n + 1) ** 2)
    return bound + (36 * slope >> _LOG_GUARD) + 1, 2 * size + 2


def _level_error(results, prec: int, big_w: int):
    """(a, b): Borwein, Bailey and Girgensohn's estimate a/b of the last
    level's error, as mpmath makes it: |I_2 - I_1| at level 2, 0 when the
    last three agree, else 10^int(D4) with D4 = min(0, max(D1^2/D2, 2 D1,
    -prec)), D_i = log10 |I_k - I_(k-i)| and log10 0 = -inf, so a repeated
    last result gives 10^-prec and a return to the one before gives 1."""
    if len(results) == 2:
        return abs(results[1] - results[0]), 1 << big_w
    third, second, last = results[-3:]
    if third == second == last:
        return 0, 1
    d1, d2 = (math.log10(d) - big_w * math.log10(2) if d else -math.inf
              for d in (abs(last - second), abs(last - third)))
    return 1, 10 ** -int(min(0, max(d1 * d1 / d2 if d2 else -math.inf, 2 * d1, -prec)))


def _tanh_sinh(table, sign: int, prec: int):
    """(W, I, (a, b)): the integral lies within err = a/b of I/2^W.

    mpmath's rule at precision prec: levels 1 to its guess_degree(prec),
    each truncated at 1 - s <= 2^-(prec+11), stopping once err is at most
    2^-(prec+2).  err is the level estimate plus the floors, counted per
    point by `_floor_counts` and once per level.  W, on the _GRID_STEP
    grid, has room for the coefficients' size and L^(J-1), so that the
    floors stay below 2^-(prec+6).
    """
    max_degree = int(4 + max(0, math.log2(prec / 30))) + 2
    neglog_max = math.ceil((prec + 12) * math.log(2))
    bound, size = _floor_counts(table, neglog_max)
    t_max = math.asinh((prec + 11) * math.log(2) * (1 << _C_SHIFT) / (2 * _C_NUM)) + 1
    count = 2 * ((neglog_max + 2) * bound + math.ceil(2 * t_max * 2 ** max_degree + 2) * size)
    big_w = -(-(prec + 6 + count.bit_length()) // _GRID_STEP) * _GRID_STEP
    powers = [(a, [(c.numerator << big_w) // c.denominator for c in coeffs]) for a, coeffs in table]
    results, total, floors = [], 0, 0
    for degree in range(1, max_degree + 1):
        level = _level(big_w, degree, prec + 11)
        q = level.column(sign)
        total = (total >> 1) + sum(x * y >> big_w for x, y in zip(_integrand(level, powers), q))
        weights = sum(q)
        floors = (floors + 1 >> 1) + 2 + (weights * bound >> big_w) + len(level.points) * size
        results.append(total)
        if degree > 1:
            a, b = _level_error(results, prec, big_w)
            if ((a << big_w) + floors * b) << (prec + 2) <= b << big_w:  # err <= 2^-(prec+2)
                break
    return big_w, total, ((a << big_w) + floors * b, b << big_w)


def _quad(pf: PartialFractions, sign: int, policy: PrecisionPolicy) -> Fraction:
    """sum_n sign^(n-1) sum_ij A_ij/(n + a_i)^j: its first k terms (see
    `_table`) plus sign^k times one integral over [0, 1].

    The table is divided by 2^`_scale`, so its terms' sums are near 1 and
    the integral is too unless they cancel, and the sum S multiplied back.
    A pass at dps digits runs `_tanh_sinh` at mpmath's precision for dps,
    adds the head, and is accepted only when its error is within
    10^-quad_digits(d) |S|; otherwise it reruns at the digits it fell short
    by.  Reruns stop once they resolve _RESOLVE_DIGITS beyond the first
    pass, where an exact zero ends.
    """
    entries, k = _table(pf)
    e = _scale(entries)
    table = _by_power(entries, e)
    want = quad_digits(policy.target_digits)
    dps = want + 10  # ten guard digits above what the check uses keep tanh-sinh inside it
    ceiling = dps + _RESOLVE_DIGITS
    while True:
        prec = max(1, round((dps + 1) * math.log2(10)))  # mpmath's dps_to_prec
        big_w, value, (a, b) = _tanh_sinh(table, sign, prec)
        value = _head(entries, k, sign, big_w - e) + sign ** k * value
        a += k * len(entries) * b >> big_w  # the head's floors, one unit each
        if a * (10 ** want << big_w) <= abs(value) * b or dps >= ceiling:  # err <= 10^-want |S|
            return Fraction(value << max(0, e - big_w), 1 << max(0, big_w - e))
        # the pass resolved max(err, eps) absolutely
        goal = Fraction(abs(value), 10 ** want << big_w)
        short = (_log2(max(Fraction(a, b), Fraction(2) ** (1 - prec)) / goal) * math.log10(2)
                 if goal else ceiling - dps)
        dps = min(ceiling, dps + math.ceil(short))


def quad_alternating(
    pf: PartialFractions, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Fraction:
    """sum (-1)^(n+1) sum_ij A_ij/(n + a_i)^j by quadrature of the whole table."""
    return _quad(pf, -1, policy)


def quad_general(
    pf: PartialFractions, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Fraction:
    """sum_n sum_ij A_ij/(n + a_i)^j by quadrature of the whole table.

    The j = 1 terms' 1/(1 - s) poles at s = 1 cancel only jointly, under
    sum_i A_i1 = 0; without it the integral diverges.
    """
    if pf.simple_pole_sum() != 0:
        raise ConstraintViolated(
            "sum of simple-pole coefficients must vanish for the combined integral"
        )
    return _quad(pf, 1, policy)
