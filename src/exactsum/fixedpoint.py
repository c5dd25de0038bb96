"""Fixed point: atanh, ln, exp and powers of dyadics v/2^w, held as the
integer v on the grid w, and the decimal digits of exact rationals, printed
without a second rounding once certified (Brent and Zimmermann, "Modern
Computer Arithmetic", 2010, 1.7 and ch. 3-4)."""

from __future__ import annotations

import functools
import math

from .closedform import fraction_text

LOG2_2PI = math.log2(2 * math.pi)


def _atanh(u: int, v: int, w: int):
    """(T, e) with |T - 2^w atanh(u/v)| <= e, for 0 <= u/v <= 1/3."""
    t = (u << w) // v
    total, u2, v2, j = t, u * u, v * v, 1
    while t:
        t = t * u2 // v2
        total += t // (2 * j + 1)
        j += 1
    return total, 2 * j + 4


@functools.lru_cache(maxsize=8)  # grids; one entry is ~0.5 KB at 1000 digits
def half_ln2(w: int):
    """`_atanh(1, 3, w)` = 2^w ln(2)/2, shared by every request in the process."""
    return _atanh(1, 3, w)


def ln_ratio(a: int, b: int, w: int):
    """(L, e) with |L - 2^w ln(a/b)| <= e for integers a, b > 0.

    a/b = 2^m r with r in [2/3, 4/3], and ln r = 2 atanh((r-1)/(r+1)); the
    ln 2 = 2 atanh(1/3) term, needed only when m != 0, comes from
    `half_ln2`.
    """
    m = a.bit_length() - b.bit_length()
    a, b = (a, b << m) if m >= 0 else (a << -m, b)
    if 3 * a > 4 * b:
        m, b = m + 1, b << 1
    elif 3 * a < 2 * b:
        m, a = m - 1, a << 1
    t, e = _atanh(abs(a - b), a + b, w)
    total, err = (2 * t if a >= b else -2 * t), 2 * e
    if m:
        t, e = half_ln2(w)
        total, err = total + 2 * m * t, err + 2 * abs(m) * e
    return total, err


def _exp(y: int, wy: int, w: int) -> int:
    """2^w exp(y/2^wy) within one unit, for y/2^wy <= 2^8.

    y = n ln 2 + r with 0 <= r < ln 2, and exp(r) is a Taylor series in
    r/2^k squared k times, on a grid g bits finer than the w + n bits the
    result keeps, so a small result costs few bits.
    """
    k = math.isqrt(w) // 2 + 1
    g = k + 2 * w.bit_length() + 16
    wg = w + g
    y = y << (wg - wy) if wg >= wy else y >> (wy - wg)
    n, r = divmod(y, 2 * half_ln2(wg)[0])
    if n < -w - 1:
        return 0
    p = wg + min(n, 0)
    x = r >> (wg - p + k)
    a = x2 = x * x >> p
    even = odd = 1 << p
    j = 2
    while a:  # even = cosh-like terms x^2i/(2i)!, odd = x^2i/(2i+1)!
        a //= j
        even += a
        a //= j + 1
        odd += a
        a = a * x2 >> p
        j += 2
    s = even + (odd * x >> p)
    for _ in range(k):
        s = s * s >> p
    shift = p - w - n
    return s >> shift if shift >= 0 else s << -shift


@functools.lru_cache(maxsize=256)  # 64 steps per grid
def _ln_step(i: int, w: int) -> int:
    """2^w ln(1 + i/64), by which `_ln1p` reduces its argument."""
    return ln_ratio(64 + i, 64, w)[0]


def _ln1p(e: int, w: int) -> int:
    """2^w ln(1 + E) for E = e/2^w in [0, 1]: ln(1 + i/64), i = floor(64 E),
    plus 2 atanh(z) with z = (1 + E - b)/(1 + E + b) <= 2^-7, b = 1 + i/64.
    The series runs on shifts, where `ln_ratio` of w-bit integers would
    divide by one at every term."""
    i = e >> (w - 6)
    base = i << (w - 6)
    z = ((e - base) << w) // ((2 << w) + base + e)
    z2 = z * z >> w
    total = a = z
    j = 3
    while a:
        a = a * z2 >> w
        total += a // j
        j += 2
    return 2 * total + (_ln_step(i, w) if i else 0)


def _power(s: int, n: int, w: int) -> int:
    """s^n on 2^-w for an integer n >= 0, squaring over n's bits."""
    power = 1 << w
    for bit in bin(n)[2:]:
        power = power * power >> w
        if bit == "1":
            power = power * s >> w
    return power


def _rounded_digits(x, digits: int, direction: int = 0, den: int = 1):
    """(q, e) with x/den ~ q 10^(e - digits + 1), rounded as in `decimal_text`.

    q carries the sign and has exactly `digits` digits, e = floor(log10 of
    the rounded |x/den|); zero gives (0, 0).  With den x.denominator =
    odd 2^k, |x/den| 10^s = |num| 5^s 2^(s-k) / odd for s = digits - 1 - e:
    one product, one shift, and a divmod by the odd part d (d = odd 5^-s
    when s < 0), which is 1 for a dyadic.  The rounding reads the remainder
    r and the t bits `low` that the shift drops: to nearest, the fraction
    (r 2^t + low) / (d 2^t) is >= 1/2 exactly when 2 r + (top bit of low)
    >= d.
    """
    num, den = x.numerator, x.denominator * den
    if not num:
        return 0, 0
    mag = abs(num)
    k = (den & -den).bit_length() - 1
    odd = den >> k
    # e = floor(log10 |x|), exact unless |x| lies within ~1e-13 of a power of 10
    e = math.floor(math.log10(mag) - math.log10(den))
    top = 10 ** digits
    while True:
        shift = digits - 1 - e
        n, d = (mag * 5 ** shift, odd) if shift >= 0 else (mag, odd * 5 ** -shift)
        t = k - shift  # bits shifted out
        low, n = (n & ((1 << t) - 1), n >> t) if t > 0 else (0, n << -t)
        q, r = divmod(n, d)  # q = floor(|x| 10^shift)
        step = (q >= top) - (10 * q < top)
        if not step:
            break
        e += step
    if direction == 0:
        up = 2 * r + (low >> (t - 1) if t > 0 else 0) >= d
    else:
        up = (r or low) and (direction > 0) == (num > 0)
    if up:
        q += 1
        if q == top:
            q, e = q // 10, e + 1
    return (q if num > 0 else -q), e


def digits_text(q: int, e: int, digits: int) -> str:
    """`_rounded_digits`' q 10^(e - digits + 1) in the layout of mpmath's
    printer with strip_zeros=False: fixed point when the leading digit's
    exponent e has min(-floor(digits/3), -5) < e < digits, else d.ddde+-N."""
    if not q:
        return "0.0"
    sign = "-" if q < 0 else ""
    text = fraction_text(abs(q))  # str(q) past the digit cap
    if not min(-(digits // 3), -5) < e < digits:
        return f"{sign}{text[0]}.{text[1:]}e{e:+d}"
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{text}"
    return f"{sign}{text[:e + 1]}.{text[e + 1:]}"


def decimal_text(x, digits: int, direction: int = 0, den: int = 1) -> str:
    """The rational x/den to `digits` significant digits, in integer arithmetic
    and in the layout of mpmath's printer with strip_zeros=False.  x is an
    int or a Fraction, den > 0 an int in any terms (no gcd is taken).

    Direction 0 rounds to nearest, ties away from zero; +1 and -1 round
    toward +inf and -inf (Steele and White, PLDI 1990).
    """
    return digits_text(*_rounded_digits(x, digits, direction, den), digits)
