import decimal
import math
import random
from fractions import Fraction

import mpmath
import pytest

from exactsum import clear_caches, oracle
from exactsum.closedform import fraction_text
from exactsum.fixedpoint import _exp, _power
from exactsum.polys import FactorList, Polynomial, primitive_gcd
from exactsum.partfrac import SumSpec


def from_pairs(pairs) -> FactorList:
    """A canonical FactorList, merging duplicate shifts."""
    merged = {}
    for a, m in pairs:
        a = Fraction(a)
        merged[a] = merged.get(a, 0) + int(m)
    return FactorList(sorted(merged.items()))


def expand(factors: FactorList) -> Polynomial:
    """The monic product of the factors (n + a_i)^m_i."""
    p = Polynomial([1])
    for a, m in factors:
        p = p * Polynomial([a, 1]) ** m
    return p


def make_spec(pairs, sign="plain", numerator=None):
    return SumSpec(
        numerator if numerator is not None else Polynomial([1]),
        from_pairs(pairs),
        sign,
    )


def coefficient(pf, shift, order: int) -> Fraction:
    """The table's coefficient A of 1/(n + shift)^order."""
    shift = Fraction(shift)
    for a, j, c in pf.entries:
        if a == shift and j == order:
            return c
    raise KeyError((shift, order))


def reduced(num: Polynomial, den: Polynomial):
    """num/den in lowest terms, as (Q, D) with num/den = Q / (D / lead D).

    D is primitive and integer with a positive leading coefficient; Q is
    the numerator over the monic form of D, with exact rational
    coefficients.  A zero num gives (0, 1).
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return Polynomial(), Polynomial([1])
    (cn, num), (cd, den) = num.primitive(), den.primitive()
    g = primitive_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    return num * (cn / (cd * den.leading)), den


def reference_decimal_text(x, digits: int, direction: int = 0, den: int = 1) -> str:
    """`fixedpoint.decimal_text` by one division by the whole denominator:
    the reference that the product-and-shift digits are compared with.

    The rational x/den to `digits` significant digits, in integer arithmetic
    and in the layout of mpmath's printer with strip_zeros=False.  x is an
    int or a Fraction, den > 0 an int in any terms (no gcd is taken).

    Direction 0 rounds to nearest, ties away from zero; +1 and -1 round
    toward +inf and -inf.  The text is fixed point when the leading digit's
    exponent e has min(-floor(digits/3), -5) < e < digits, else d.ddde+-N.
    """
    num, den = x.numerator, x.denominator * den
    if not num:
        return "0.0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    # e = floor(log10 |x|), estimated from the bit lengths to within one
    e = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    top = 10 ** digits
    while True:
        shift = digits - 1 - e
        if shift >= 0:
            n, d = num * 10 ** shift, den
        else:
            n, d = num, den * 10 ** -shift
        q, r = divmod(n, d)  # q = floor(|x| 10^shift)
        step = (q >= top) - (10 * q < top)
        if not step:
            break
        e += step
    if direction == 0:
        up = 2 * r >= d
    else:
        up = r and (direction > 0) == (not sign)
    if up:
        q += 1
        if q == top:
            q, e = q // 10, e + 1
    text = fraction_text(q)  # str(q) past the digit cap
    if not min(-(digits // 3), -5) < e < digits:
        return f"{sign}{text[0]}.{text[1:]}e{e:+d}"
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{text}"
    return f"{sign}{text[:e + 1]}.{text[e + 1:]}"


def reference_agrees(result, bracket, quad, digits: int) -> bool:
    """`cli._agrees` in exact rationals: the reference that the integer
    comparison is checked against.

    The printed text is read back through Decimal into a Fraction.  The
    bracket must be narrower than the printed value's last unit and meet its
    half-unit interval (an exact zero must lie in the bracket); quadrature
    must be within 10^-quad_digits(d) |value|, or within 10^-quad_digits(d)
    of a printed 0.
    """
    text = decimal.Decimal(result.text)  # read past the int-to-str cap
    printed = Fraction(text)
    ulp = Fraction(10) ** text.as_tuple().exponent if printed else 0  # the last digit's unit
    lo, hi = bracket.lower, bracket.upper
    narrow = hi - lo <= ulp or not printed
    certified = narrow and lo <= printed + ulp / 2 and hi >= printed - ulp / 2
    tol = Fraction(1, 10 ** oracle.quad_digits(digits)) * (abs(result.value) if printed else 1)
    return certified and abs(result.value - quad) <= tol


def reference_weighted(level, keys):
    """[(M, E)] under each (sign, num, den, l) of `keys`, point by point: the
    reference that a level's moments are compared with.

    At each point, on 2^-(W+g), g = _LOG_GUARD: u = q s^a, a = num/den =
    n + k/d, is the weight q times s^(1/d) times itself k - 1 times, or
    for k > _ROOT_CHAIN the direct value of s^(k/d), then times s n times;
    for n > _STEP_CHAIN, q times the direct value of s^a.  Then u L^l is l
    more products, each floored.  M is the sum of u L^l over the points,
    floored to 2^-W, and E = ((6 (n + k) + 2 + l) max_p ceil(L_p)^l
    sum_p (ceil(q_p) + 1) >> g) + 2.
    """
    wg, wm = level.wg, level.big_w + oracle._LOG_GUARD
    moments = []
    for sign, num, den, l in keys:
        n, k = divmod(num, den)
        total = rows = 0
        top = max(max(1, -(-neglog >> wm)) for neglog, *_ in level.points)
        for i, (neglog, s, _, _) in enumerate(level.points):
            q = level.column(sign)[i]
            if n > oracle._STEP_CHAIN:
                direct = (_power(s, num, wg) >> oracle._NODE_GUARD if den == 1
                          else _exp(-(num * neglog) // den, wm, wm))
                u = q * direct >> wm
            else:
                u = q
                if k > oracle._ROOT_CHAIN:
                    u = u * _exp(-(k * neglog) // den, wm, wm) >> wm
                elif k:
                    root = power = level.column((1, den))[i]
                    for _ in range(k - 1):
                        power = power * root >> wm
                    u = u * power >> wm
                for _ in range(n):
                    u = u * (s >> oracle._NODE_GUARD) >> wm
            for _ in range(l):
                u = u * neglog >> wm
            total += u
            rows += -(-q >> wm) + 1
        error = ((6 * (n + k) + 2 + l) * top ** l * rows >> oracle._LOG_GUARD) + 2
        moments.append((total >> oracle._LOG_GUARD, error))
    return moments


def recombine(pf):
    """Common-denominator recombination of a table; inverse of decompose.

    Returns the sum in lowest terms as `reduced` gives it.
    """
    num, den = Polynomial(), Polynomial([1])
    for a, j, c in pf.entries:
        if c == 0:
            continue
        # c / (n + a)^j = c.num a.den^j / (c.den (a.den n + a.num)^j)
        term_num = Polynomial([c.numerator * a.denominator ** j])
        term_den = Polynomial([a.numerator, a.denominator]) ** j * c.denominator
        num, den = num * term_den + term_num * den, den * term_den
    return reduced(num, den)


def to_mpf(x):
    """The rational x as an mpf, rounded once at the current precision or at
    the bits of its numerator, whichever is more: exact for a dyadic x."""
    x = Fraction(x)
    with mpmath.workprec(max(mpmath.mp.prec, x.numerator.bit_length())):
        return mpmath.mpf(x.numerator) / x.denominator


def symbolic_numeric(value):
    """A SymbolicValue at the current mpmath precision, from mpmath's own
    constants and mpmath.psi for the residual terms."""
    basis = {
        "one": lambda k: 1,
        "gamma": lambda k: mpmath.euler,
        "ln2": lambda k: mpmath.ln2,
        "pi": lambda k: mpmath.pi,
        "pi2": lambda k: mpmath.pi ** 2,
        "zeta": mpmath.zeta,
    }
    total = mpmath.mpf(0)
    for (kind, k), c in value.basis_coeffs:
        total += mpmath.mpf(c.numerator) / c.denominator * basis[kind](k)
    for c, order, arg in value.residuals:
        total += (
            mpmath.mpf(c.numerator) / c.denominator
            * mpmath.psi(order, mpmath.mpf(arg.numerator) / arg.denominator)
        )
    return total


def random_shift(rng: random.Random, max_den=4, lo=-2, hi=6) -> Fraction:
    """Random rational shift that is never a negative integer."""
    while True:
        den = rng.randint(1, max_den)
        num = rng.randint(lo * den, hi * den)
        a = Fraction(num, den)
        if not (a.denominator == 1 and a < 0):
            return a


def random_plain_spec(rng: random.Random, max_factors=4, max_mult=3) -> SumSpec:
    """Random convergent plain-mode spec with deg Q <= N - 2."""
    k = rng.randint(1, max_factors)
    shifts = set()
    while len(shifts) < k:
        shifts.add(random_shift(rng))
    pairs = [(a, rng.randint(1, max_mult)) for a in shifts]
    n_total = sum(m for _, m in pairs)
    if n_total < 2:
        pairs[0] = (pairs[0][0], 2)
        n_total = 2
    deg_q = rng.randint(0, n_total - 2)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg_q + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return make_spec(pairs, "plain", Polynomial(coeffs))


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with every process-wide cache empty, so a spy on
    the psi kernel sees the ladders and series that a miss runs, and each
    quadrature makes its nodes and their values."""
    clear_caches()


@pytest.fixture
def rng():
    return random.Random(20240817)
