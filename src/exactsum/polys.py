"""Exact polynomials over the integers, and linear factorization.

Coefficient tuples are dense (index = power of n); degrees in this package
are small, so simplicity wins over sparse representations.  Values are
immutable and operations are pure functions.

The arithmetic is generic over exact numbers, but every algorithm here
runs on integer coefficients: reducing a quotient to lowest terms, Yun's
square-free split and taking out rational roots all divide exactly by
primitive divisors.  By Gauss's lemma (Knuth, TAOCP vol. 2, 4.6.1), a
primitive integer polynomial that divides an integer one over Q divides it
over Z, so none of these steps ever needs a Fraction.  Rational
coefficients appear only where a result has them, such as a numerator
over a monic denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .closedform import fraction_text
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
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
        if k and self.coeffs and not any(self.coeffs[:-1]):  # (c n^j)^k = c^k n^(jk)
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
        # A list, not a generator: on CPython 3.11, unpacking generators of
        # varying length grew memory ~2 MB over 60 rounds of frontend-30d gcds.
        den = math.lcm(*[c.denominator for c in self.coeffs])
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
        return Fraction(g, den), Polynomial([c // g for c in ints])

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
        if self.is_zero():
            return "0"
        out = ""
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            coeff = fraction_text(mag) if mag.denominator == 1 else f"({fraction_text(mag)})"
            power = {0: "", 1: "n"}.get(k, f"n^{k}")
            if not power:
                body = coeff
            elif mag == 1:
                body = power
            else:
                body = f"{coeff}*{power}"
            if not out:
                out = ("-" if c < 0 else "") + body
            else:
                out += (" - " if c < 0 else " + ") + body
        return out

    def __repr__(self):
        return f"Polynomial({self})"


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
    return Polynomial(rem).primitive()[1]


def primitive_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Greatest common divisor: primitive, integer, with positive leading coefficient.

    Euclid's algorithm on primitive pseudo-remainders (Knuth, TAOCP vol. 2,
    4.6.1), so every coefficient stays an integer of bounded size.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    a, b = p.primitive()[1], q.primitive()[1]
    while not b.is_zero():
        a, b = b, _pseudo_remainder(a, b)
    return a


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


class FactorList:
    """Factored denominator: ordered (shift a_i, multiplicity m_i) pairs.

    Shifts are pairwise distinct, sorted ascending, and never negative
    integers (that would put a pole at some n >= 1).
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Sequence):
        norm = []
        for a, m in pairs:
            a = Fraction(a)
            m = int(m)
            if m < 1:
                raise ValueError(f"multiplicity must be >= 1, got {m}")
            if a.denominator == 1 and a < 0:
                raise NegativeIntegerShift(
                    f"shift {fraction_text(a)} is a negative integer: "
                    f"pole at n = {fraction_text(-a)}"
                )
            norm.append((a, m))
        norm.sort(key=lambda t: t[0])
        for (a1, _), (a2, _) in zip(norm, norm[1:]):
            if a1 == a2:
                raise DuplicateShift(f"shift {a1} appears more than once")
        object.__setattr__(self, "pairs", tuple(norm))

    @classmethod
    def from_pairs(cls, pairs: Sequence) -> "FactorList":
        """Build a canonical FactorList, merging duplicate shifts."""
        merged: dict = {}
        for a, m in pairs:
            a = Fraction(a)
            merged[a] = merged.get(a, 0) + int(m)
        return cls(sorted(merged.items()))

    @property
    def total_degree(self) -> int:
        return sum(m for _, m in self.pairs)

    @property
    def shifts(self):
        return tuple(a for a, _ in self.pairs)

    def expand(self) -> Polynomial:
        """The monic product of the factors (n + a_i)^m_i."""
        p = Polynomial([1])
        for a, m in self.pairs:
            p = p * Polynomial([a, 1]) ** m
        return p

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


def _square_free_parts(f: Polynomial):
    """Yun's square-free split of a primitive integer f: f = prod_k parts[k-1] ** k.

    The parts are primitive, square-free and pairwise coprime; a part of
    degree 0 means no factor of that multiplicity.  Every division is by a
    primitive gcd, hence exact over Z, and b and c keep a common scale.
    """
    df = f.derivative()
    a = primitive_gcd(f, df)
    b, c = f.exact_div(a), df.exact_div(a)
    parts = []
    while b.degree > 0:
        d = c - b.derivative()
        a = primitive_gcd(b, d)
        parts.append(a)
        b, c = b.exact_div(a), d.exact_div(a)
    return parts


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
    lifts it to z mod p^e (Loos, SIAM J. Comput. 12, 1983), and once p^e
    exceeds twice the bound, N is the symmetric residue of lead * z.  A
    candidate N / lead is kept only if f divides exactly over Z by q n - p',
    for p'/q its lowest terms.
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
        root = Fraction(num - m if 2 * num > m else num, lead)
        quot = f.exact_div(Polynomial([-root.numerator, root.denominator]))
        if quot is not None:
            roots.append(root)
            f = quot
    return roots, f


def factor_linear(p: Polynomial) -> FactorList:
    """Factor p into rational linear factors (n + a_i)^{m_i}.

    Raises NonLinearFactor when some factor has no rational root; its
    remainder is the primitive integer product of the factors left over,
    each raised to its multiplicity.
    """
    if p.degree < 1:
        raise ValueError("factor_linear requires a nonzero polynomial of degree >= 1")
    pairs = []
    leftover = Polynomial([1])
    for mult, part in enumerate(_square_free_parts(p.primitive()[1]), 1):
        if part.degree < 1:
            continue
        roots, rest = _rational_roots(part)
        pairs.extend((-root, mult) for root in roots)
        leftover = leftover * rest ** mult
    if leftover.degree > 0:
        raise NonLinearFactor(leftover)
    return FactorList(pairs)
