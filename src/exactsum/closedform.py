"""Exact reduction of psi terms into a fixed constant basis.

A SymbolicValue is a rational linear combination over
{1, gamma, ln2, pi, pi^2, zeta(k >= 3)} plus residual psi^(o)(arg) terms
that the basis cannot express.  Arguments with denominator 1 or 2 reduce
fully at any order; quarter-integer arguments reduce at order 0 only
(their digamma values are hard-coded and numerically cross-verified in
the tests).  Everything else stays a residual rather than silently
becoming a float.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from .errors import PoleArgument

# Basis symbols as small tags; Zeta carries its integer argument.
ONE = ("one", 0)
GAMMA = ("gamma", 0)
LN2 = ("ln2", 0)
PI = ("pi", 0)
PI_SQUARED = ("pi2", 0)


def ZETA(k: int):
    if k < 3:
        raise ValueError("zeta symbols exist only for k >= 3; zeta(2) is pi^2/6")
    return ("zeta", k)


_SYMBOL_RANK = {"one": 0, "gamma": 1, "ln2": 2, "pi": 3, "pi2": 4, "zeta": 5}


def _symbol_key(sym):
    return (_SYMBOL_RANK[sym[0]], sym[1])


@dataclass(frozen=True)
class SymbolicValue:
    """Immutable exact value: basis coefficients plus residual psi terms."""

    basis_coeffs: Tuple[Tuple[Tuple[str, int], Fraction], ...]
    residuals: Tuple[Tuple[Fraction, int, Fraction], ...]  # (coeff, order, argument)

    @classmethod
    def build(cls, coeffs: Dict, residuals: Iterable = ()) -> "SymbolicValue":
        """The value of the nonzero terms; each residual's (order, argument) is distinct."""
        cs = tuple(
            sorted(((s, c) for s, c in coeffs.items() if c != 0), key=lambda t: _symbol_key(t[0]))
        )
        # a list, not a generator: see polys.Polynomial.primitive
        rs = tuple(sorted([(c, o, a) for c, o, a in residuals if c != 0], key=lambda t: t[1:]))
        return cls(cs, rs)

    def coefficient(self, symbol) -> Fraction:
        for s, c in self.basis_coeffs:
            if s == symbol:
                return c
        return Fraction(0)

    @property
    def fully_reduced(self) -> bool:
        return not self.residuals


# -- closed-form reduction -----------------------------------------------------


# Gauss's digamma values, as integer pairs, at the b/q in (0, 1] that the basis reduces.
_DIGAMMA = {
    (1, 1): {GAMMA: (-1, 1)},
    (1, 2): {GAMMA: (-1, 1), LN2: (-2, 1)},
    (1, 4): {GAMMA: (-1, 1), LN2: (-3, 1), PI: (-1, 2)},
    (3, 4): {GAMMA: (-1, 1), LN2: (-3, 1), PI: (1, 2)},
}


def _base_value(order: int, b: int, q: int) -> Optional[Dict]:
    """Basis coefficients of psi^(order)(b/q), b/q in (0, 1], as integer pairs,
    or None for a residual."""
    if order == 0:
        return _DIGAMMA.get((b, q))
    if q > 2:
        return None
    # psi^(n)(1) = (-1)^(n+1) n! zeta(n+1), and psi^(n)(1/2) = (2^(n+1)-1) psi^(n)(1)
    c = (-1) ** (order + 1) * math.factorial(order) * (2 ** (order + 1) - 1 if q == 2 else 1)
    return {ZETA(order + 1): (c, 1)} if order > 1 else {PI_SQUARED: (c, 6)}


def _add(acc: Dict, key, n: int, d: int):
    """acc[key] += n/d on integer pairs, d > 0, reduced after each sum."""
    if key in acc:
        n0, d0 = acc[key]
        n, d = n0 * d + n * d0, d0 * d
        g = math.gcd(n, d)
        n, d = n // g, d // g
    acc[key] = n, d


def _reciprocal_power_sum(p: int, q: int, count: int, power: int):
    """sum_{i<count} 1/(p/q + i)^power, count >= 1, as an unreduced integer pair.

    Each term is q^power / (p + i q)^power; the integer fractions are
    combined pairwise up a product tree, with no gcd at all.
    """

    def split(lo: int, hi: int):
        if hi - lo == 1:
            return 1, (p + lo * q) ** power
        mid = (lo + hi) // 2
        n1, d1 = split(lo, mid)
        n2, d2 = split(mid, hi)
        return n1 * d2 + n2 * d1, d1 * d2

    num, den = split(0, count)
    return num * q ** power, den


def assemble(terms: Iterable) -> SymbolicValue:
    """Exact linear combination of psi terms: (coeff, order, argument) triples,
    coeff and argument ints or Fractions.

    Each argument is shifted into (0, 1] with the recurrence
    psi^(o)(z+1) = psi^(o)(z) + (-1)^o o!/z^(o+1).  The exact rational part,
    each basis coefficient and each residual base, keyed (order, b, q), add
    up in integer pairs; the value's Fractions are made once, at the end.
    """
    coeffs: Dict = {}
    residuals: Dict = {}
    for coeff, order, argument in terms:
        cn, cd = coeff.numerator, coeff.denominator
        if not cn:
            continue
        if order < 0:
            raise ValueError("order must be >= 0")
        p, q = argument.numerator, argument.denominator
        if q == 1 and p <= 0:
            raise PoleArgument(f"psi^({order}) has a pole at {fraction_text(argument)}")
        shift = (p - 1) // q  # arg - base, for base b/q in (0, 1]
        b = p - shift * q
        if shift:
            # Downward from arg > 1 adds the corrections; upward from arg <= 0 subtracts.
            n, d = _reciprocal_power_sum(p - max(shift, 0) * q, q, abs(shift), order + 1)
            n *= (-1) ** order * math.factorial(order) * cn * (1 if shift > 0 else -1)
            _add(coeffs, ONE, n, d * cd)
        value = _base_value(order, b, q)
        if value is None:
            _add(residuals, (order, b, q), cn, cd)
        else:
            for s, (n, d) in value.items():
                _add(coeffs, s, cn * n, cd * d)
    return SymbolicValue.build(
        {s: Fraction(n, d) for s, (n, d) in coeffs.items()},
        [(Fraction(n, d), o, Fraction(b, q)) for (o, b, q), (n, d) in residuals.items()],
    )


# -- rendering ------------------------------------------------------------------


def fits_str(digits: int) -> bool:
    """Whether str() and int() convert an integer of this many digits under
    the interpreter's int-to-str digit cap; Decimal converts past it."""
    # a cap is 0, for none, or at least 640 digits; before Python 3.10.7
    # there is none, and getattr falls back to int(), 0
    cap = 0 if digits < 640 else getattr(sys, "get_int_max_str_digits", int)()
    return not cap or digits < cap


def fraction_text(c) -> str:
    """str(c) for an int or Fraction of any size."""
    if c.denominator != 1:
        return f"{fraction_text(c.numerator)}/{fraction_text(c.denominator)}"
    n = c.numerator  # of fewer than bitlen/3 + 1 digits
    return str(n) if fits_str(n.bit_length() // 3 + 1) else str(decimal.Decimal(n))


def _symbol_text(sym) -> str:
    kind, k = sym
    return {
        "gamma": "gamma",
        "ln2": "ln(2)",
        "pi": "pi",
        "pi2": "pi^2",
    }.get(kind, f"zeta({k})")


def terms_text(terms) -> str:
    """The sum of (coefficient, name) terms as text, a constant's name None:
    `-1 + gamma + (1/7)*pi`, or `0` for no terms."""
    out = ""
    for c, name in terms:
        mag = abs(c)
        coeff = fraction_text(mag) if mag.denominator == 1 else f"({fraction_text(mag)})"
        if name is None:
            body = coeff
        elif mag == 1:
            body = name
        else:
            body = f"{coeff}*{name}"
        out += f" {'-' if c < 0 else '+'} {body}" if out else ("-" if c < 0 else "") + body
    return out or "0"


def render(value: SymbolicValue) -> str:
    """Deterministic human-readable exact form in canonical symbol order."""
    terms = [(c, None if s == ONE else _symbol_text(s)) for s, c in value.basis_coeffs]
    terms += [(c, f"psi({o}, {fraction_text(a)})") for c, o, a in value.residuals]
    return terms_text(terms)
