"""Exact polynomials, rational functions and linear factorization over Q.

Coefficient lists are dense (index = power of n); degrees in this package
are tiny, so simplicity wins over sparse representations.  All values are
immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DuplicateShift, NegativeIntegerShift, NonLinearFactor

Rational = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Polynomial:
    """Dense polynomial in n with exact rational coefficients.

    The zero polynomial has an empty coefficient tuple and degree -1
    (stand-in for "minus infinity"); nonzero polynomials never carry a
    trailing zero coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls([_as_fraction(c)])

    @classmethod
    def variable(cls) -> "Polynomial":
        """The polynomial n."""
        return cls([0, 1])

    @classmethod
    def linear(cls, shift) -> "Polynomial":
        """The factor n + shift."""
        return cls([_as_fraction(shift), 1])

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

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
        if isinstance(other, (Fraction, int)):
            return Polynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
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
        result = Polynomial([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c:
                for i, oc in enumerate(other.coeffs):
                    rem[k + i] -= c * oc
        return Polynomial(quot), Polynomial(rem)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """Horner evaluation; works for Fraction, float and mpf arguments."""
        if isinstance(x, (Fraction, int)):
            return self.eval_fraction(Fraction(x))
        zero = 0 * x
        acc = zero
        for c in reversed(self.coeffs):
            acc = acc * x + (zero + c.numerator) / c.denominator
        return acc

    def eval_fraction(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading
        return Polynomial([c / lead for c in self.coeffs])

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
            coeff = str(mag) if mag.denominator == 1 else f"({mag})"
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


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor via the Euclidean algorithm."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    a, b = p, q
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


_ONE = Polynomial([1])


@dataclass(frozen=True)
class RationalFunction:
    """Reduced quotient of polynomials with monic denominator."""

    numerator: Polynomial
    denominator: Polynomial

    @classmethod
    def from_polys(cls, numer: Polynomial, denom: Polynomial) -> "RationalFunction":
        """Reduce by the polynomial gcd and normalize the denominator to monic."""
        if denom.is_zero():
            raise ZeroDivisionError("zero denominator")
        if numer.is_zero():
            return cls(Polynomial(), Polynomial([1]))
        g = poly_gcd(numer, denom)
        if g.degree > 0:
            numer = divmod(numer, g)[0]
            denom = divmod(denom, g)[0]
        lead = denom.leading
        if lead != 1:
            numer = numer * (1 / lead)
            denom = denom.monic()
        return cls(numer, denom)

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Polynomial([_as_fraction(c)]), Polynomial([1]))

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.denominator == _ONE and other.denominator == _ONE:
            # A sum or product of polynomials is already reduced.
            return RationalFunction(self.numerator + other.numerator, self.denominator)
        n = self.numerator * other.denominator + other.numerator * self.denominator
        return RationalFunction.from_polys(n, self.denominator * other.denominator)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.denominator == _ONE and other.denominator == _ONE:
            return RationalFunction(self.numerator * other.numerator, self.denominator)
        return RationalFunction.from_polys(
            self.numerator * other.numerator,
            self.denominator * other.denominator,
        )

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction.from_polys(
            self.numerator * other.denominator,
            self.denominator * other.numerator,
        )

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            raise ValueError("negative power on rational functions")
        # Powers of coprime polynomials stay coprime, and of a monic one monic.
        return RationalFunction(self.numerator ** k, self.denominator ** k)


class FactorList:
    """Factored denominator: ordered (shift a_i, multiplicity m_i) pairs.

    Shifts are pairwise distinct, sorted ascending, and never negative
    integers (that would put a pole at some n >= 1).
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Sequence):
        norm = []
        for a, m in pairs:
            a = _as_fraction(a)
            m = int(m)
            if m < 1:
                raise ValueError(f"multiplicity must be >= 1, got {m}")
            if a.denominator == 1 and a < 0:
                raise NegativeIntegerShift(
                    f"shift {a} is a negative integer: pole at n = {-a}"
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
            a = _as_fraction(a)
            merged[a] = merged.get(a, 0) + int(m)
        return cls(sorted(merged.items()))

    @property
    def total_degree(self) -> int:
        return sum(m for _, m in self.pairs)

    @property
    def shifts(self):
        return tuple(a for a, _ in self.pairs)

    def expand(self) -> Polynomial:
        p = Polynomial([1])
        for a, m in self.pairs:
            p = p * (Polynomial.linear(a) ** m)
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


def _integer_primitive(p: Polynomial):
    """Clear denominators and divide by content; returns integer coeff list."""
    lcm = 1
    for c in p.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in p.coeffs]
    content = 0
    for c in ints:
        content = math.gcd(content, abs(c))
    return [c // content for c in ints]


def _square_free_parts(f: Polynomial):
    """Yun's square-free split of a monic f: f = prod_k parts[k-1] ** k.

    The parts are monic, square-free and pairwise coprime; a part of
    degree 0 means no factor of that multiplicity.
    """
    df = f.derivative()
    a = poly_gcd(f, df)
    b, c = divmod(f, a)[0], divmod(df, a)[0]
    parts = []
    while b.degree > 0:
        d = c - b.derivative()
        a = poly_gcd(b, d)
        parts.append(a)
        b, c = divmod(b, a)[0], divmod(d, a)[0]
    return parts


def _gauss_eval(coeffs, x, scale):
    """2^(scale*deg) * f(x / 2^scale) for integer coeffs and a Gaussian integer x."""
    re, im = coeffs[-1], 0
    xr, xi = x
    for k, c in enumerate(reversed(coeffs[:-1]), 1):
        re, im = re * xr - im * xi + (c << (scale * k)), re * xi + im * xr
    return re, im


def _certified_numerators(ints, prec: int):
    """Integers N such that every rational root of ints is some N / lead.

    ints is square-free, so its roots x_k are simple.  Each approximation
    c_k (rounded to the grid 2^-prec) is certified by exact integer
    arithmetic: a disk of radius deg * |f(c_k) / f'(c_k)| around c_k holds
    a root, and when the deg disks are pairwise disjoint each holds exactly
    one.  A rational root z has lead * z an integer, since its reduced
    denominator divides lead; with every radius below 1/(4 lead), lead * z
    is the integer nearest lead * Re(c_k) for the disk that holds z.
    Returns None when the disks are not certified at this precision.
    """
    import mpmath

    deg, lead = len(ints) - 1, ints[-1]
    with mpmath.workprec(prec):
        try:
            roots = mpmath.polyroots(list(reversed(ints)), maxsteps=prec)
        except mpmath.libmp.NoConvergence:
            return None
        grid = [
            (int(mpmath.nint(mpmath.ldexp(mpmath.re(r), prec))),
             int(mpmath.nint(mpmath.ldexp(mpmath.im(r), prec))))
            for r in roots
        ]
    dints = [k * c for k, c in enumerate(ints)][1:]
    radii = []  # integer upper bounds on 2^prec * radius
    for x in grid:
        fr, fi = _gauss_eval(ints, x, prec)
        gr, gi = _gauss_eval(dints, x, prec)
        g2 = gr * gr + gi * gi
        if g2 == 0:
            return None
        # 2^prec * radius = deg * |F| / |G| with F, G the scaled values above.
        rho = math.isqrt(-(-deg * deg * (fr * fr + fi * fi) // g2)) + 1
        if 4 * lead * rho >= 1 << prec:
            return None
        radii.append(rho)
    for k in range(deg):
        for j in range(k):
            dr, di = grid[k][0] - grid[j][0], grid[k][1] - grid[j][1]
            if (radii[k] + radii[j]) ** 2 >= dr * dr + di * di:
                return None
    return {
        (2 * lead * xr + (1 << prec)) >> (prec + 1)
        for (xr, xi), rho in zip(grid, radii)
        if abs(xi) <= rho
    }


def _rational_roots(f: Polynomial):
    """Rational roots of a monic square-free f, and f divided by them.

    Each candidate N / lead is kept only if exact division by (n - N/lead)
    leaves no remainder.  The starting precision is set by the sizes of
    the leading coefficient and of the coefficient height, and doubles
    until the numeric roots are certified.
    """
    ints = _integer_primitive(f)
    lead = ints[-1]
    prec = 2 * (lead.bit_length() + max(abs(c) for c in ints).bit_length()) + 32
    while (numerators := _certified_numerators(ints, prec)) is None:
        prec *= 2
    roots = []
    for num in sorted(numerators):
        root = Fraction(num, lead)
        quot, rem = divmod(f, Polynomial.linear(-root))
        if rem.is_zero():
            roots.append(root)
            f = quot
    return roots, f


def factor_linear(p: Polynomial) -> FactorList:
    """Factor p into rational linear factors (n + a_i)^{m_i}.

    Raises NonLinearFactor when some factor has no rational root; its
    remainder is the monic product of the factors left over, each raised
    to its multiplicity.
    """
    if p.is_zero() or p.degree < 1:
        raise ValueError("factor_linear requires a nonzero polynomial of degree >= 1")
    pairs = []
    leftover = Polynomial([1])
    for mult, part in enumerate(_square_free_parts(p.monic()), 1):
        if part.degree < 1:
            continue
        roots, rest = _rational_roots(part)
        pairs.extend((-root, mult) for root in roots)
        leftover = leftover * rest ** mult
    if leftover.degree > 0:
        raise NonLinearFactor(leftover)
    return FactorList(pairs)
