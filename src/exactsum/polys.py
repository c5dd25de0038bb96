"""Exact polynomials over the integers, and linear factorization.

Coefficient tuples are dense (index = power of n); degrees in this package
are small, so simplicity wins over sparse representations.  Values are
immutable and operations are pure functions.

The arithmetic is generic over exact numbers, but every algorithm here
runs on integer coefficients: splitting off the repeated factors with one
gcd, taking out rational roots and cancelling a numerator all divide
exactly by primitive divisors.  By Gauss's lemma (Knuth, TAOCP vol. 2,
4.6.1), a primitive integer polynomial that divides an integer one over Q
divides it over Z, so none of these steps ever needs a Fraction.  Rational
coefficients appear only where a result has them, such as a numerator
over a monic denominator.
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

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

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


def _pseudo_remainder(a: Polynomial, b: Polynomial) -> Polynomial:
    """Primitive part of a pseudo-remainder of integer a by integer b.

    Each step scales the remainder by lead(b) / gcd(lead(b), top) only, so
    the result is a remainder of a times some integer.
    """
    rem, lead, low = list(a.coeffs), b.leading, b.coeffs[:-1]
    while len(rem) > len(low):
        top = rem.pop()
        if top:
            g = math.gcd(top, lead)
            scale, top = lead // g, top // g
            k = len(rem) - len(low)
            rem = [c * scale for c in rem]
            for i, c in enumerate(low):
                rem[k + i] -= top * c
    return _primitive_part(Polynomial(rem).coeffs)


def primitive_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Greatest common divisor: primitive, integer, with positive leading coefficient.

    Euclid's algorithm on primitive pseudo-remainders (Knuth, TAOCP vol. 2,
    4.6.1), so every coefficient stays an integer of bounded size.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    a, b = _primitive_part(p.coeffs), _primitive_part(q.coeffs)
    while not b.is_zero():
        a, b = b, _pseudo_remainder(a, b)
    return a


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


def _value_mod(coeffs, x, m):
    """Horner evaluation of integer coeffs at x, mod m."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _roots_mod(fp: Polynomial, p: int):
    """The roots of fp, square-free mod p, as residues.

    A small field, p = 2 always among them, is searched residue by residue.
    Otherwise the product h = gcd(fp, x^p - x) of the linear factors is
    split by gcds with (x + a)^((p-1)/2) - 1 for a = 0, 1, ...; some a
    separates any two roots (von zur Gathen & Gerhard, Modern Computer
    Algebra, 14.3).
    """
    if p <= _SEARCH_FACTOR * len(fp.coeffs):
        return [r for r in range(p) if _value_mod(fp.coeffs, r, p) == 0]
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


def _rational_roots(f: Polynomial):
    """Rational roots of a primitive square-free integer f, and f divided by them.

    A rational root z makes N = lead * z an integer below lead + max|c_i|,
    Cauchy's bound.  For the least prime p that leaves f square-free and of
    full degree (only the primes dividing lead * disc(f) do not, so the
    search ends), z mod p is a simple root of f mod p.  Newton's iteration
    lifts it to z mod p^e (Loos, SIAM J. Comput. 12, 1983) on f divided by
    the roots found before it, a simple root there too, and once p^e
    exceeds twice the bound, N is the symmetric residue of lead * z.  A
    candidate N / lead is kept only if f divides exactly over Z by q n - p',
    for p'/q its lowest terms, and returned as the pair (p', q), q > 0.
    """
    ints, dints, lead = f.coeffs, f.derivative().coeffs, f.leading
    p = 1
    while True:
        p += 1
        if lead % p and all(p % q for q in range(2, math.isqrt(p) + 1)):
            fp, dp = (Polynomial([c % p for c in g]) for g in (ints, dints))
            if _gcd_p(fp, dp, p).degree == 0:
                break
    bound = 2 * (lead + max(abs(c) for c in ints))
    roots = []
    for r in _roots_mod(fp, p):
        m = p
        while m <= bound:
            m *= m
            r = (r - _value_mod(ints, r, m) * pow(_value_mod(dints, r, m), -1, m)) % m
        num = lead * r % m
        num = num - m if 2 * num > m else num
        g = math.gcd(num, lead)  # lead > 0 keeps q > 0
        root = num // g, lead // g
        quot = f.exact_div(Polynomial([-root[0], root[1]]))
        if quot is not None:
            roots.append(root)
            f = quot
            ints, dints = f.coeffs, f.derivative().coeffs
    return roots, f


def linear_product(roots) -> Polynomial:
    """The product of the linear factors q n - p of the roots (p, q)."""
    out = [1]
    for p, q in roots:
        out = [q * a - p * b for a, b in zip([0] + out, out + [0])]
    return Polynomial(out)


def _vanishes(f: Polynomial, p: int, q: int) -> bool:
    """Whether integer f has the root p/q: q^d f(p/q) = 0, on integers."""
    acc, scale = 0, 1
    for c in reversed(f.coeffs):
        acc, scale = acc * p + c * scale, scale * q
    return acc == 0


def _linear_part(f: Polynomial):
    """(roots (p, q), multiplicities, rest) of a primitive integer f, deg f >= 1.

    One gcd g = gcd(f, f') leaves the square-free part f/g, with f's
    rational roots.  A root of multiplicity m divides g m - 1 times, so g is
    divided once per level by the product of the roots still live; when
    that fails, the roots where g no longer vanishes drop out.  The rest, f
    over its linear factors, has no rational root.
    """
    g = primitive_gcd(f, f.derivative())
    roots = _rational_roots(f.exact_div(g))[0]
    mult, live = [1] * len(roots), range(len(roots))
    while live and g.degree > 0:
        quot = g.exact_div(linear_product(roots[i] for i in live))
        if quot is None:
            live = [i for i in live if _vanishes(g, *roots[i])]
            continue
        g = quot
        for i in live:
            mult[i] += 1
    linear = [r for r, m in zip(roots, mult) for _ in range(m)]
    rest = f.exact_div(linear_product(linear)) if len(linear) < f.degree else Polynomial([1])
    return roots, mult, rest


def factor_linear(p: Polynomial, numerator: Polynomial = None):
    """Factor p into rational linear factors (n + a_i)^{m_i}.

    Raises NonLinearFactor when some factor has no rational root; its
    remainder is the primitive integer product of the factors left over,
    each raised to its multiplicity.

    Given a numerator N, returns (Q, factors) for N/p in lowest terms, Q
    over the monic product of the factors.  N is divided by each root's
    linear factor while it vanishes there, and by its gcd with a nonlinear
    rest, before the rest is reported or the shifts are checked.
    """
    if p.degree < 1:
        raise ValueError("factor_linear requires a nonzero polynomial of degree >= 1")
    content, f = p.primitive()
    roots, mult, rest = _linear_part(f)
    if numerator is not None:
        scale, numerator = numerator.primitive()
        lead = 1
        for i, (a, b) in enumerate(roots):
            while mult[i] and _vanishes(numerator, a, b):
                numerator = numerator.exact_div(Polynomial([-a, b]))
                mult[i] -= 1
            lead *= b ** mult[i]
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
