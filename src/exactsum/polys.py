"""Exact polynomials over the integers, and linear factorization.

Coefficient tuples are dense (index = power of n); degrees in this package
are small, so simplicity wins over sparse representations.  Values are
immutable and operations are pure functions.

The arithmetic is generic over exact numbers, but factoring runs on lists
of integer coefficients and makes a Polynomial only for what it returns.
Its one gcd, its root lifts and its cancellations divide exactly by
primitive divisors, which by Gauss's lemma (Knuth, TAOCP vol. 2, 4.6.1)
divide over Z what they divide over Q, so none needs a Fraction.  Rational
coefficients appear only where a result has them, such as a numerator over
a monic denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .closedform import fraction_text, terms_text
from .errors import DuplicateShift, NegativeIntegerShift, NonLinearFactor

# Past this many residues per coefficient, splitting by gcds beats a search
# of every residue mod p (measured at degrees 2 to 32).
_SEARCH_FACTOR = 128


class Polynomial:
    """Dense polynomial in n with exact (integer or Fraction) coefficients.

    The zero polynomial has an empty coefficient tuple and degree -1
    (stand-in for "minus infinity"); nonzero polynomials never carry a
    trailing zero coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = tuple(coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        self.coeffs = cs

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial()
        small, big = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        if len(small.coeffs) == 1:  # a constant scales the other operand
            c = small.coeffs[0]
            return big if c == 1 else big * c
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        rhs = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in rhs:
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        # for k = 1 the loop returns self: a product with the constant 1 is its other operand
        if k > 1 and self.coeffs and not any(self.coeffs[:-1]):  # (c n^j)^k = c^k n^(jk)
            return Polynomial([0] * (self.degree * k) + [self.coeffs[-1] ** k])
        result = Polynomial([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def value(self, x):
        """Horner evaluation at an exact (or float) x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, s, t) -> "Polynomial":
        """The polynomial p(s n + t)."""
        out, inner = Polynomial(), Polynomial([t, s])
        for c in reversed(self.coeffs):
            out = out * inner + Polynomial([c])
        return out

    def primitive(self):
        """(c, p) with self = c * p, p integer and primitive, lead(p) > 0.

        c is an exact rational; the zero polynomial gives (0, itself).
        """
        if not self.coeffs:
            return 0, self
        p, lead = _primitive_part(self.coeffs), self.leading
        return Fraction(lead.numerator, lead.denominator * p.leading), p

    def exact_div(self, other: "Polynomial"):
        """self / other over Z, or None when other does not divide self there.

        Both integer.  For a primitive divisor that is exactly when it
        divides self over Q.
        """
        rem, lead, low = list(self.coeffs), other.leading, other.coeffs[:-1]
        quot = []
        while len(rem) > len(low):
            q, r = divmod(rem.pop(), lead)
            if r:
                return None
            quot.append(q)
            if q:
                k = len(rem) - len(low)
                for i, c in enumerate(low):
                    rem[k + i] -= q * c
        if any(rem):
            return None
        return Polynomial(reversed(quot))

    def __str__(self):
        """The polynomial in the input grammar, e.g. `n^3 - 2` or `n^2 + (1/3)*n`."""
        powers = [(c, {0: None, 1: "n"}.get(k, f"n^{k}")) for k, c in enumerate(self.coeffs) if c]
        return terms_text(reversed(powers))

    def __repr__(self):
        return f"Polynomial({self})"


def _primitive_part(coeffs) -> Polynomial:
    """The primitive integer polynomial, lead > 0, that is a rational multiple
    of the coefficients (ints or Fractions, no trailing zero), with no
    content built; no coefficients give the zero polynomial."""
    if not coeffs:
        return Polynomial()
    # A list, not a generator: on CPython 3.11, unpacking generators of
    # varying length grew memory ~2 MB over 60 rounds of frontend-30d gcds.
    den = math.lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return Polynomial([c // g for c in ints])


def _gcd(a, b):
    """The primitive gcd, lead > 0, of integer coefficients a, b not both zero:
    Euclid on primitive pseudo-remainders (Knuth, TAOCP vol. 2, 4.6.1), each
    step scaled by lead(b) / gcd(lead(b), top) only, so coefficients stay small."""
    while b:
        rem, lead, low = list(a), b[-1], b[:-1]
        while len(rem) > len(low):
            top = rem.pop()
            if top:
                g = math.gcd(top, lead)
                scale, top = lead // g, top // g
                k = len(rem) - len(low)
                rem = [c * scale for c in rem]
                for i, c in enumerate(low):
                    rem[k + i] -= top * c
        while rem and not rem[-1]:
            rem.pop()
        g = math.gcd(*rem)
        a, b = b, [c // g for c in rem]
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // g for c in a]


def primitive_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Greatest common divisor: primitive, integer, with positive leading coefficient."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    return Polynomial(_gcd(_primitive_part(p.coeffs).coeffs, _primitive_part(q.coeffs).coeffs))


class FactorList:
    """Factored denominator: ordered (shift a_i, multiplicity m_i) pairs.

    Shifts are pairwise distinct, sorted ascending, and never negative
    integers (that would put a pole at some n >= 1).
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Sequence):
        # checked in ascending order, so that of several negative integer
        # shifts the same one is named whatever order they come in; a Fraction
        # shift is kept as given
        norm = sorted(((a if isinstance(a, Fraction) else Fraction(a), int(m)) for a, m in pairs),
                      key=lambda t: t[0])
        for a, m in norm:
            if m < 1:
                raise ValueError(f"multiplicity must be >= 1, got {m}")
            if a.denominator == 1 and a < 0:
                raise NegativeIntegerShift(
                    f"shift {fraction_text(a)} is a negative integer: "
                    f"pole at n = {fraction_text(-a)}"
                )
        for (a1, _), (a2, _) in zip(norm, norm[1:]):
            if a1 == a2:
                raise DuplicateShift(f"shift {a1} appears more than once")
        object.__setattr__(self, "pairs", tuple(norm))

    @property
    def total_degree(self) -> int:
        return sum(m for _, m in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return isinstance(other, FactorList) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        inner = ", ".join(f"(a={a}, m={m})" for a, m in self.pairs)
        return f"FactorList([{inner}])"


# -- linear factorization ---------------------------------------------------


def _divmod_p(a: Polynomial, b: Polynomial, p: int):
    """Quotient and remainder of a by a nonzero b over the integers mod p."""
    rem, k, inv = [c % p for c in a.coeffs], b.degree, pow(b.leading, -1, p)
    quot = [0] * max(len(rem) - k, 0)
    for i in reversed(range(len(quot))):
        q = quot[i] = rem[i + k] * inv % p
        for j, c in enumerate(b.coeffs[:-1]):
            rem[i + j] = (rem[i + j] - q * c) % p
    return Polynomial(quot), Polynomial(rem[:k])


def _gcd_p(a: Polynomial, b: Polynomial, p: int) -> Polynomial:
    while not b.is_zero():
        a, b = b, _divmod_p(a, b, p)[1]
    return a


def _powmod_p(a: Polynomial, e: int, f: Polynomial, p: int) -> Polynomial:
    """a^e mod f over the integers mod p, by left-to-right binary powering."""
    out = Polynomial([1])
    for bit in bin(e)[2:]:
        out = _divmod_p(out * out * (a if bit == "1" else 1), f, p)[1]
    return out


def _horner(coeffs, x, m):
    """(f(x), f'(x)) mod m for integer coefficients f, by Horner's rule."""
    value = slope = 0
    for c in reversed(coeffs):
        slope = (slope * x + value) % m
        value = (value * x + c) % m
    return value, slope


def _div_linear(coeffs, a, b):
    """Integer coefficients over b n - a, b > 0, by synthetic division; None if inexact."""
    if not coeffs:
        return []
    if a and coeffs[0] % a:  # f(0) is -a times the quotient's
        return None
    quot, q = [], 0
    for c in coeffs[:0:-1]:
        q, r = divmod(c + a * q, b)
        if r:
            return None
        quot.append(q)
    return None if coeffs[0] + a * q else quot[::-1]


def _reconstruct(u, m):
    """Coprime (a, b), b > 0, with a = b u mod m and |a|, b <= sqrt(m/2), or None:
    Wang's rational reconstruction (von zur Gathen & Gerhard, MCA, 5.10)."""
    half, r0, r1, t0, t1 = math.isqrt(m // 2), m, u, 0, 1
    while r1 > half:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > half or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _roots_mod(fp: Polynomial, p: int):
    """The distinct roots of fp mod p, for a prime p past the residue search:
    their product gcd(fp, x^p - x) split by gcds with (x + a)^((p-1)/2) - 1,
    a = 0, 1, ... (von zur Gathen & Gerhard, Modern Computer Algebra, 14.3)."""
    x = Polynomial([0, 1])
    stack, roots, a = [_gcd_p(fp, _powmod_p(x, p, fp, p) - x, p)], [], 0
    while stack:
        h = stack.pop()
        if h.degree == 1:
            roots.append(-h.coeffs[0] * pow(h.leading, -1, p) % p)
        elif h.degree > 1:
            w = _powmod_p(Polynomial([a, 1]), (p - 1) // 2, h, p)
            g = _gcd_p(h, w - Polynomial([1]), p)
            stack += [g, _divmod_p(h, g, p)[0]] if 0 < g.degree < h.degree else [h]
            a += 1
    return roots


def _rational_roots(s):
    """The rational roots of a primitive square-free integer s, lead > 0 (a
    coefficient list), as pairs (p, q) in lowest terms, q > 0.

    A root a/b has b | lead, so mod a prime p not dividing lead it reduces to
    a root r of s.  p is the least such prime with s'(r) != 0 mod p at every
    residue root r, dropped at the first r where s' vanishes; only primes
    dividing disc(s) fail, so the search ends.  Newton's iteration on s lifts
    each r to mod m = p^(2^k) (Loos, SIAM J. Comput. 12, 1983).  After each
    squaring the candidate a/b is r's rational reconstruction; once m passes
    twice Cauchy's bound lead + max|c_i| on |lead z|, as p itself may, it is
    lead r's symmetric residue over lead, so no rational root is missed.  A
    candidate with b | lead where s divides exactly by b n - a is the one
    p-adic root above r, and its lift stops; a residue whose last candidate
    fails lifts none.
    """
    lead, p, sieve = s[-1], 1, s[-1]
    while True:
        p += 1
        if math.gcd(p, sieve) > 1:  # p divides lead or has a prime factor below it
            continue
        sieve *= p
        sp, simple = [c % p for c in s], []
        for r in range(p) if p <= _SEARCH_FACTOR * len(s) else _roots_mod(Polynomial(sp), p):
            value, slope = _horner(sp, r, p)
            if value == 0:
                if slope == 0:
                    break
                simple.append(r)
        else:
            break
    bound, roots = 2 * (lead + max(abs(c) for c in s)), []
    for r in simple:
        m = p
        while True:  # one squaring at least, though p may be past the bound
            m, old = m * m, m
            value, slope = _horner(s, r, m)
            r = (r - value * pow(slope, -1, old)) % m
            root = (_reconstruct(r, m) if m <= bound  # past the bound, the last candidate
                    else Fraction((lead * r + m // 2) % m - m // 2, lead).as_integer_ratio())
            if root and lead % root[1] == 0 and _div_linear(s, *root) is not None:
                roots.append(root)
                break
            if m > bound:
                break
    return roots


def linear_product(roots) -> Polynomial:
    """The product of the linear factors q n - p of the roots (p, q)."""
    out = [1]
    for p, q in roots:
        out = [q * a - p * b for a, b in zip([0] + out, out + [0])]
    return Polynomial(out)


def factor_linear(p: Polynomial, numerator: Polynomial = None):
    """Factor p into rational linear factors (n + a_i)^{m_i}.

    One gcd g = gcd(f, f') of p's primitive part f leaves the square-free
    part f/g, with f's rational roots; a root of multiplicity m divides g
    m - 1 times, counted by synthetic division.  Raises NonLinearFactor when
    some factor has no rational root; its remainder is the primitive integer
    product of the factors left over, each raised to its multiplicity.

    Given a numerator N, returns (Q, factors) for N/p in lowest terms, Q
    over the monic product of the factors.  N is divided by each root's
    linear factor while it vanishes there, and by its gcd with a nonlinear
    rest, before the rest is reported or the shifts are checked.
    """
    if p.degree < 1:
        raise ValueError("factor_linear requires a nonzero polynomial of degree >= 1")
    content, f = p.primitive()
    g = _gcd(f.coeffs, [k * c for k, c in enumerate(f.coeffs)][1:])
    roots, mult = _rational_roots(f.exact_div(Polynomial(g)).coeffs), []
    for root in roots:
        mult.append(1)
        while len(g) > 1 and (quot := _div_linear(g, *root)) is not None:
            g, mult[-1] = quot, mult[-1] + 1
    linear = [root for root, m in zip(roots, mult) for _ in range(m)]
    rest = f.exact_div(linear_product(linear)) if len(linear) < f.degree else Polynomial([1])
    if numerator is not None:
        scale, numerator = numerator.primitive()
        num, lead = numerator.coeffs, 1
        for i, root in enumerate(roots):
            while mult[i] and (quot := _div_linear(num, *root)) is not None:
                num, mult[i] = quot, mult[i] - 1
            lead *= root[1] ** mult[i]
        numerator = Polynomial(num)
        if rest.degree > 0:
            g = primitive_gcd(numerator, rest)
            numerator, rest = numerator.exact_div(g), rest.exact_div(g)
    if rest.degree > 0:
        raise NonLinearFactor(rest)
    factors = FactorList([(Fraction(-a, b), m) for (a, b), m in zip(roots, mult) if m])
    if numerator is None:
        return factors
    top, low = scale.numerator * content.denominator, scale.denominator * content.numerator * lead
    return Polynomial([Fraction(c * top, low) for c in numerator.coeffs]), factors
