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
        cs = tuple(
            sorted(((s, c) for s, c in coeffs.items() if c != 0), key=lambda t: _symbol_key(t[0]))
        )
        merged: Dict = {}
        for coeff, order, arg in residuals:
            key = (order, arg)
            merged[key] = merged.get(key, Fraction(0)) + coeff
        # a list, not a generator: see polys.Polynomial.primitive
        rs = tuple([(c, o, a) for (o, a), c in sorted(merged.items()) if c != 0])
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


# Gauss's digamma values at the arguments in (0, 1] that the basis reduces.
_DIGAMMA = {
    Fraction(1): {GAMMA: Fraction(-1)},
    Fraction(1, 2): {GAMMA: Fraction(-1), LN2: Fraction(-2)},
    Fraction(1, 4): {GAMMA: Fraction(-1), LN2: Fraction(-3), PI: Fraction(-1, 2)},
    Fraction(3, 4): {GAMMA: Fraction(-1), LN2: Fraction(-3), PI: Fraction(1, 2)},
}


def _base_value(order: int, arg: Fraction) -> Optional[Dict]:
    """Basis coefficients of psi^(order)(arg) for arg in (0, 1], or None for a residual."""
    if order == 0:
        return _DIGAMMA.get(arg)
    if arg.denominator > 2:
        return None
    # psi^(n)(1) = (-1)^(n+1) n! zeta(n+1), and psi^(n)(1/2) = (2^(n+1)-1) psi^(n)(1)
    c = Fraction((-1) ** (order + 1) * math.factorial(order))
    if arg != 1:
        c *= 2 ** (order + 1) - 1
    return {PI_SQUARED: c / 6} if order == 1 else {ZETA(order + 1): c}


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
    """Exact linear combination of psi terms: (coeff, order, argument) triples.

    Each argument is shifted into (0, 1] with the recurrence
    psi^(o)(z+1) = psi^(o)(z) + (-1)^o o!/z^(o+1).  The exact rational
    corrections add up in one integer pair, reduced once per term; the base
    values' coefficients accumulate in one dict, the bases with no closed
    form in one residual list, and the value is built once.
    """
    coeffs: Dict = {}
    residuals = []
    num, den = 0, 1  # the rational part
    for coeff, order, argument in terms:
        coeff = Fraction(coeff)
        if coeff == 0:
            continue
        if order < 0:
            raise ValueError("order must be >= 0")
        arg = Fraction(argument)
        p, q = arg.numerator, arg.denominator
        if q == 1 and p <= 0:
            raise PoleArgument(f"psi^({order}) has a pole at {arg}")
        shift = (p - 1) // q  # arg - base, for base in (0, 1]
        base = Fraction(p - shift * q, q)
        if shift:
            # Downward from arg > 1 adds the corrections; upward from arg <= 0 subtracts.
            n, d = _reciprocal_power_sum(p - max(shift, 0) * q, q, abs(shift), order + 1)
            n *= (-1) ** order * math.factorial(order) * coeff.numerator * (1 if shift > 0 else -1)
            d *= coeff.denominator
            num, den = num * d + n * den, den * d
            g = math.gcd(num, den)
            num, den = num // g, den // g
        value = _base_value(order, base)
        if value is None:
            residuals.append((coeff, order, base))
        else:
            for s, c in value.items():
                coeffs[s] = coeffs.get(s, 0) + coeff * c
    coeffs[ONE] = Fraction(num, den)
    return SymbolicValue.build(coeffs, residuals)


# -- rendering ------------------------------------------------------------------


def fraction_text(c: Fraction) -> str:
    """str(c) for any size: Decimal converts ints without the int-to-str digit cap."""
    if c.denominator == 1:
        return str(decimal.Decimal(c.numerator))
    return f"{decimal.Decimal(c.numerator)}/{decimal.Decimal(c.denominator)}"


def _coeff_text(c: Fraction) -> str:
    return fraction_text(c) if c.denominator == 1 else f"({fraction_text(c)})"


def _symbol_text(sym) -> str:
    kind, k = sym
    return {
        "gamma": "gamma",
        "ln2": "ln(2)",
        "pi": "pi",
        "pi2": "pi^2",
    }.get(kind, f"zeta({k})")


def render(value: SymbolicValue) -> str:
    """Deterministic human-readable exact form in canonical symbol order."""
    pieces = []  # (sign, body)
    for sym, c in value.basis_coeffs:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if sym == ONE:
            body = _coeff_text(mag)
        elif mag == 1:
            body = _symbol_text(sym)
        else:
            body = f"{_coeff_text(mag)}*{_symbol_text(sym)}"
        pieces.append((sign, body))
    for c, order, arg in value.residuals:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        psi = f"psi({order}, {fraction_text(arg)})"
        body = psi if mag == 1 else f"{_coeff_text(mag)}*{psi}"
        pieces.append((sign, body))
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
