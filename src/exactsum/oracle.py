"""Independent verification backends.

Two routes that never touch the master formula: a partial-sum bracket with
a rigorously bounded tail, and tanh-sinh quadrature of one integral
representation of the whole partial-fraction table over s in [0, 1], one
mpmath.quad call for either sign.  The bracket reads only the `SumSpec`,
never the partial-fraction table or the polygamma kernel.  Quadrature is a
verifier, not the product: the CLI checks it to quad_digits(d) = ceil(d/2)
significant digits of the d printed ones, and it integrates the table
divided by the power of 2 nearest below its largest coefficient at ten
digits more than that, rerunning at more where its error estimate is not
within that many digits of the integral.  Its integrand groups the table
by shift class, so a node costs one ln, and the values that depend on the
node alone (ln s, powers of s, m/(1 - sign s^m)) are memoized across
quadratures in a process-wide memo keyed (precision, m, node) of at most
256 nodes, the least recently used dropped; a memoized value is the one a
miss computes, so no quadrature depends on the memo's history.  Each
thread integrates on its own mpmath context, so no thread changes the
precision of another's quadrature.  Both routes return exact rationals;
mpmath is imported nowhere else in the package, and here only inside the
quadrature.

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
divisions, is counted into the half-width.  N, K, p and W are chosen so
that the half-width is at most 10^-(target+3) |S|, and the bracket is
widened to that: the engine's numeric value may be off by up to
10^-(target+3) |S|, which a tighter bracket would exclude.  The oracle
fails loudly (InsufficientTerms / NotApplicable) rather than ever produce
a wrong bracket.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintViolated, InsufficientTerms, NotApplicable
from .partfrac import MAX_SHIFT, PLAIN, PartialFractions, SumSpec
from .polygamma import _LOG2_2PI, DEFAULT_POLICY, PrecisionPolicy, bernoulli
from .polys import Polynomial

_HEAD_TERMS_MAX = 4 * (MAX_SHIFT + 1)  # longest head; N >= 4 rho, rho <= MAX_SHIFT + 1
_RESOLVE_DIGITS = 60  # digits of cancellation below the sum's scale resolved beyond the target
_HEAD_PER_DIGIT = 1.5  # head terms per digit sought; 1-2 measured fastest at 30-1000


@dataclass(frozen=True)
class Bracket:
    """Rigorous interval [lower, upper] of exact rationals guaranteed to
    contain the series limit."""

    lower: Fraction
    upper: Fraction


# -- fixed-point series ------------------------------------------------------------


def _series(first: list, phis: list, count: int):
    """first(v) / prod_phi (1 - phi v) to `count` terms, all |phi| < 1.

    `first` holds floor(2^W * coefficient) integers; each division rounds
    phi * r down once per term.  Returns the coefficients on the same grid
    and, per coefficient, a bound on its error in units of 2^-W: the input
    floors give 1 each and a division adds e_i + e'_(i-1) + 1.
    """
    vals = first[:count] + [0] * (count - len(first))
    errs = [1] * min(count, len(first)) + [0] * (count - len(first))
    for phi in phis:
        a, b = phi.numerator, phi.denominator
        r = e = 0
        for i in range(count):
            r = vals[i] + a * r // b
            e = errs[i] + e + 1
            vals[i], errs[i] = r, e
    return vals, errs


# -- partial-sum bracket -----------------------------------------------------------


def _summand(spec: SumSpec):
    """(num, den, poles): h = num/den in integer polynomials, poles as (p, multiplicity)."""
    content, num = spec.numerator.primitive()
    num = num * content.numerator
    den = Polynomial([content.denominator])
    poles = []
    for a, m in spec.factors:
        # (n + a)^m = (q n + p)^m / q^m for a = p/q
        num = num * a.denominator ** m
        den = den * Polynomial([a.numerator, a.denominator]) ** m
        poles.append((-a, m))
    if spec.sign == PLAIN:
        return num, den, poles
    odd_num, odd_den = num.compose(2, -1), den.compose(2, -1)
    even_num, even_den = num.compose(2, 0), den.compose(2, 0)
    poles = [((1 + p) / 2, m) for p, m in poles] + [(p / 2, m) for p, m in poles]
    return odd_num * even_den - even_num * odd_den, odd_den * even_den, poles


def _log2(x: Fraction) -> float:
    return math.log2(x.numerator) - math.log2(x.denominator)


def _plan(log2_m: float, rho: int, n: int, log2_tol: float):
    """(K, p) meeting tol/3 each at head length n, or None if p cannot."""
    log2_rho, log2_n, log2_gap = math.log2(rho), math.log2(n), math.log2(n - rho)
    k = 1
    while (
        log2_m + (k + 1) * log2_rho - math.log2(k) - (k - 1) * log2_n - log2_gap
        > log2_tol
    ):
        k += 1

    def log2_em(p):
        # |B_2p| <= 2 zeta(2) (2p)! / (2 pi)^(2p)
        log2_b = 1.72 + math.lgamma(2 * p + 1) / math.log(2) - 2 * p * _LOG2_2PI
        return log2_m + log2_b + log2_rho - math.log2(p) - 2 * p * log2_gap

    p = 1
    while log2_em(p) > log2_tol:
        if log2_em(p + 1) >= log2_em(p):
            return None
        p += 1
    return k, p


def _bracket(num, den, poles, rho: int, m_bound: Fraction, tol: Fraction):
    """(lo, hi, W): the sum lies in [lo, hi] * 2^-W, half-width <= tol."""
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
    phis = [p_j / rho for p_j, m in poles for _ in range(m)]
    # c_k rho^-k: (sum_i num_(dn-i) (v/rho)^i) / (lead rho^gap prod (1 - (p_j/rho) v))
    first = [(c, lead * rho ** (gap + i)) for i, c in enumerate(reversed(num.coeffs))]
    # tau_j (N - rho)^j: num(N + (N - rho) v) / (den(N) prod (1 - phi_j v)),
    # phi_j = (N - rho)/(p_j - N)
    taylor_first = [(c, den_n) for c in num.compose(n - rho, n).coeffs]
    taylor_phis = [Fraction(n - rho) / (p_j - n) for p_j, m in poles for _ in range(m)]

    # Error bounds depend on the operations only, so W can follow from them.
    c_errs = _series([0] * len(first), phis, len(laurent))[1]
    t_errs = _series([0] * len(taylor_first), taylor_phis, max(1, 2 * p - 2))[1]
    log2_z, log2_gap = math.log2(rho) - math.log2(n), math.log2(n - rho)
    carried = t_errs[0] / 2 + sum(
        2 ** (math.log2(e) + math.log2(n) + k * log2_z - math.log2(k - 1))
        for k, e in zip(laurent, c_errs)
    ) + sum(
        2 ** (math.log2(t_errs[2 * s - 1]) + _log2(abs(bernoulli(2 * s)))
              - math.log2(2 * s) - (2 * s - 1) * log2_gap)
        for s in range(1, p)
    )
    # head and h(N)/2, one floor per Laurent and Euler-Maclaurin term, and the
    # carried series errors (doubled against float rounding)
    floors = n + len(laurent) + p + math.ceil(2 * carried)
    w = max(0, math.ceil(math.log2(floors) - log2_tol) + 1)

    total = sum((num.value(k) << w) // den.value(k) for k in range(1, n))

    # int_N^oo h = N sum_k (c_k rho^-k) z^k / (k - 1)
    c = _series([(x << w) // y for x, y in first], phis, len(laurent))[0]
    for k, ck in zip(laurent, c):
        total += ck * rho ** k // (n ** (k - 1) * (k - 1))

    # h(N)/2 - sum_{s<p} B_2s/(2s) tau_(2s-1)
    t_first = [(x << w) // y for x, y in taylor_first]
    t = _series(t_first, taylor_phis, max(1, 2 * p - 2))[0]
    total += t[0] // 2
    for s in range(1, p):
        b2s = bernoulli(2 * s)
        total -= b2s.numerator * t[2 * s - 1] // (
            b2s.denominator * 2 * s * (n - rho) ** (2 * s - 1)
        )

    truncation = m_bound * rho ** (k_max + 1) / (k_max * n ** (k_max - 1) * (n - rho))
    remainder = m_bound * abs(bernoulli(2 * p)) * rho / (p * (n - rho) ** (2 * p))
    err = math.ceil((truncation + remainder) * (1 << w)) + floors
    return total - err, total + err, w


def partial_sum_bracket(
    spec: SumSpec, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Bracket:
    """Interval containing the sum, of half-width 10^-(target+3) |S|.

    The first pass aims at 10^-(target+3) M; a pass that does not reach
    the goal is repeated at a tolerance set from what it resolved.  Once a
    pass excludes zero, one more pass reaches the goal; a bracket that
    still straddles zero _RESOLVE_DIGITS below 10^-(target+3) max |h(k)|
    over 1 <= k <= 4 rho, such as an exact zero's, is the last pass's
    bracket instead.  The head length N >= 4 rho grows with the poles'
    moduli; a head above _HEAD_TERMS_MAX terms raises InsufficientTerms.
    """
    num, den, poles = _summand(spec)
    if num.is_zero():
        return Bracket(Fraction(0), Fraction(0))
    rho = int(max(abs(p) for p, _ in poles)) + 1
    m_bound = Fraction(
        sum(abs(c) * rho ** i for i, c in enumerate(num.coeffs)), abs(den.leading)
    )
    for p, m in poles:
        m_bound /= (rho - abs(p)) ** m
    rel = Fraction(1, 10 ** (policy.target_digits + 3))
    tol = rel * m_bound / 2
    floor = None
    while True:
        lo, hi, w = _bracket(num, den, poles, rho, m_bound, tol)
        s_min = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
        goal = s_min * rel.numerator // rel.denominator
        if hi - lo <= 2 * goal:
            mid = (lo + hi) // 2
            lo, hi = mid - goal, mid + goal
            break
        if s_min:
            # |S| >= s_min, so a pass at this tolerance is the last one
            tol = rel * Fraction(s_min, 1 << w) / 2
            continue
        if floor is None:
            # M bounds h near the poles, far above the terms when they lie
            # close to the circle; the floor takes the terms' scale, to a
            # factor of 2, instead
            bits = max(abs(num.value(k)).bit_length() - abs(den.value(k)).bit_length()
                       for k in range(1, 4 * rho + 1))
            floor = rel * Fraction(2) ** bits / 10 ** _RESOLVE_DIGITS
        if tol <= floor:
            break
        # |S| <= hi - lo while the bracket straddles zero
        tol = max(rel * Fraction(hi - lo, 1 << w) / 2, floor)
    return Bracket(Fraction(lo, 1 << w), Fraction(hi, 1 << w))


# -- quadrature oracles ---------------------------------------------------------


def quad_digits(digits: int) -> int:
    """Digits to which quadrature checks a `digits`-digit value: ceil(d/2)."""
    return -(-digits // 2)


def _table(pf: PartialFractions):
    """(nonzero entries, m) with m = ceil(1/(1 + min a_i)); needs every a_i > -1."""
    entries = [(Fraction(a), j, c) for a, j, c in pf.entries if c != 0]
    if any(a <= -1 for a, _, _ in entries):
        raise NotApplicable("integral representation needs all a_i > -1")
    return entries, math.ceil(1 / (1 + min((a for a, _, _ in entries), default=0)))


class _Node:
    """The integrand's values at one node s that depend on (prec, m, s) alone,
    as raw mpf tuples computed with mpmath.libmp at the precision prec.

    L = -ln s and u = s^m are computed at once; u^k for a power k >= 1,
    s^r for a class r = num/den in (0, m) and m/(1 - sign u) for a sign
    are added as they are met, each in its own dict.  u^k is one binary
    powering, as mpmath raises to an integer power.  L carries bitlen(m prec)
    guard bits, so that s^r = exp(-r L) is as exact as a power mpmath
    computes itself.
    """

    __slots__ = ("prec", "m", "guarded", "neglog", "u", "upowers", "rpowers", "scales")

    def __init__(self, prec: int, m: int, s):
        from mpmath.libmp import mpf_log, mpf_neg, mpf_pow_int, round_nearest

        self.prec, self.m = prec, m
        self.guarded = prec + (m * prec).bit_length()
        self.neglog = mpf_neg(mpf_log(s, self.guarded, round_nearest))
        self.u = mpf_pow_int(s, m, prec, round_nearest)
        self.upowers = {}  # k -> u^k
        self.rpowers = {}  # (num, den) -> s^(num/den)
        self.scales = {}  # sign -> m/(1 - sign u)

    def upower(self, k: int):
        """Store and return u^k."""
        from mpmath.libmp import mpf_pow_int, round_nearest

        value = self.upowers[k] = mpf_pow_int(self.u, k, self.prec, round_nearest)
        return value

    def rpower(self, r):
        """Store and return s^r = exp(-r L)."""
        from mpmath.libmp import from_int, mpf_div, mpf_exp, mpf_mul_int, round_nearest

        num, den = r
        x = mpf_mul_int(self.neglog, -num, self.guarded, round_nearest)
        x = mpf_div(x, from_int(den), self.guarded, round_nearest)
        value = self.rpowers[r] = mpf_exp(x, self.prec, round_nearest)
        return value

    def scale(self, sign: int):
        """Store and return m/(1 - sign u)."""
        from mpmath.libmp import fone, mpf_mul_int, mpf_rdiv_int, mpf_sub, round_nearest

        prec = self.prec
        x = mpf_sub(fone, mpf_mul_int(self.u, sign, prec, round_nearest), prec, round_nearest)
        value = self.scales[sign] = mpf_rdiv_int(self.m, x, prec, round_nearest)
        return value


# _node(prec, m, s._mpf_): the node values shared by every quadrature in the
# process; one precision and m meet ~120 nodes, ~4 KB each at 30 digits
_node = functools.lru_cache(maxsize=256)(_Node)


def _shift_classes(entries, m: int, prec: int):
    """The table as [(r, [(k, coeffs)])], grouped by power and then by class.

    Entry (a, j, A) adds A m^(j-1)/(j-1)! to the coefficient of L^(j-1) at
    the power p = m(a + 1) - 1 >= 0.  A power is p = r + m k with its class
    r = p mod m in [0, m), kept as (num, den), and an integer k >= 0; the
    coefficients are raw mpf tuples, highest order first, for Horner's rule
    in L, each rounded once at prec or at the bits of its numerator,
    whichever is more: exact for a dyadic coefficient.
    """
    from mpmath.libmp import from_rational, round_nearest

    powers = {}
    for a, j, c in entries:
        orders = powers.setdefault(m * (a + 1) - 1, {})
        orders[j - 1] = orders.get(j - 1, 0) + c * m ** (j - 1) / math.factorial(j - 1)
    classes = {}
    for p, orders in powers.items():
        r = p % m
        coeffs = [orders.get(k, 0) for k in range(max(orders), -1, -1)]
        coeffs = [from_rational(c.numerator, c.denominator,
                                max(prec, c.numerator.bit_length()), round_nearest)
                  for c in coeffs]
        classes.setdefault((r.numerator, r.denominator), []).append(((p - r) // m, coeffs))
    return list(classes.items())


def _integrand(entries, m: int, sign: int, context):
    """s -> m sum_ij A_ij/(j-1)! s^(m(a_i+1)-1) (-m ln s)^(j-1) / (1 - sign s^m).

    sum_n sign^(n-1)/(n + a)^j = 1/(j-1)! int_0^1 (-ln u)^(j-1) u^a/(1 - sign u) du
    (u = e^-x in DLMF 25.11.25), and u = s^m keeps u^a bounded at s = 0.

    With L = -ln s and the powers grouped into classes r = p mod m
    (`_shift_classes`), the integrand is

        m/(1 - sign u) sum_r s^r sum_k u^k sum_l c_kl L^l,

    one ln per node, one exp per class r != 0 and integer powers of u.
    Those depend on the node alone and come from the memo `_node`, so a
    quadrature at a precision and m met before pays no ln or exp.  The
    coefficients are rounded at the mpmath context's precision when the
    integrand is built, and each evaluation runs at its precision then, on
    raw mpf tuples, each operation rounded as mpf arithmetic rounds it.
    """
    from mpmath.libmp import fzero, mpf_add, mpf_mul, round_nearest

    classes = _shift_classes(entries, m, context.prec)

    def f(s):
        prec = context.prec
        node = _node(prec, m, s._mpf_)
        neglog, upowers, rpowers = node.neglog, node.upowers, node.rpowers
        total = fzero
        for r, shifts in classes:
            part = fzero
            for k, coeffs in shifts:
                h = coeffs[0]
                for c in coeffs[1:]:
                    h = mpf_add(mpf_mul(h, neglog, prec, round_nearest), c, prec, round_nearest)
                if k:
                    power = upowers.get(k) or node.upower(k)
                    h = mpf_mul(h, power, prec, round_nearest)
                part = mpf_add(part, h, prec, round_nearest)
            if r[0]:
                power = rpowers.get(r) or node.rpower(r)
                part = mpf_mul(part, power, prec, round_nearest)
            total = mpf_add(total, part, prec, round_nearest)
        scale = node.scales.get(sign) or node.scale(sign)
        return context.make_mpf(mpf_mul(total, scale, prec, round_nearest))

    return f


_thread = threading.local()  # .context, made by _context


def _context():
    """This thread's own mpmath context, made on its first quadrature; each
    pass sets its precision, which no other thread reads or changes."""
    context = getattr(_thread, "context", None)
    if context is None:
        import mpmath

        context = _thread.context = mpmath.MPContext()
    return context


def _quad(pf: PartialFractions, sign: int, policy: PrecisionPolicy) -> Fraction:
    """sum_n sign^(n-1) sum_ij A_ij/(n + a_i)^j as one integral over [0, 1],
    returned as the exact value of the accepted pass's mpf.

    For sign +1 the integrand is 0/0 at s = 1.  mpmath's tanh-sinh nodes
    stop 2^-(prec+10) short of it and the integrand runs at prec + 20 bits,
    so that costs bits only at nodes whose weights are ~2^-prec.  The
    thread's context computes the nodes once per precision, so every pass
    at a precision met before evaluates the integrand on nodes whose ln
    and powers the memo `_node` may hold.

    The table is divided by 2^e, e = floor(log2 max |A_ij|), and the
    integral multiplied back, so the working digits do not depend on the
    coefficients' scale.  mpmath stops on an absolute error, so a pass is
    accepted only when its error estimate is within 10^-quad_digits(d) |I|;
    otherwise it reruns at the digits it fell short by.  Reruns stop once
    they resolve _RESOLVE_DIGITS beyond the first pass, where an exact zero
    ends.
    """
    context = _context()
    entries, m = _table(pf)
    e = max((math.floor(_log2(abs(c))) for _, _, c in entries), default=0)
    entries = [(a, j, c / Fraction(2) ** e) for a, j, c in entries]
    want = quad_digits(policy.target_digits)
    dps = want + 10  # ten guard digits above what the check uses keep tanh-sinh inside it
    ceiling = dps + _RESOLVE_DIGITS
    while True:
        context.dps = dps
        value, err = context.quad(_integrand(entries, m, sign, context), [0, 1], error=True)
        goal = context.mpf(10) ** -want * abs(value)
        if err <= goal or dps >= ceiling:
            # _mpf_ carries the sign apart from the mantissa
            negative, man, exp, _ = value._mpf_
            return (-man if negative else man) * Fraction(2) ** (exp + e)
        # the pass resolved max(err, eps) absolutely
        short = context.log10(max(err, context.eps) / goal) if goal else ceiling - dps
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

    The j = 1 terms' 1/(1 - u) poles at u = 1 cancel only jointly, under
    sum_i A_i1 = 0; without it the integral diverges.
    """
    if pf.simple_pole_sum() != 0:
        raise ConstraintViolated(
            "sum of simple-pole coefficients must vanish for the combined integral"
        )
    return _quad(pf, 1, policy)
