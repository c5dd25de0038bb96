"""Exact partial-fraction decomposition over a factored denominator.

The decomposition Q(n)/P(n) = sum_ij A_ij / (n + a_i)^j is read off a
local expansion at each pole: with t = n + a_i,

    Q(t - a_i) / prod_{l != i} (t + a_l - a_i)^{m_l} = sum_k g_k t^k,

and A_ij = g_{m_i - j}.  Only the first m_i terms of that series are
needed, so the work is O(N^2) exact operations for total degree N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Tuple

from .errors import DegreeTooHigh, ShiftTooLarge
from .polys import FactorList, Polynomial, RationalFunction

PLAIN = "plain"
ALTERNATING = "alternating"

# Largest |a_i|: the partial-sum bracket's head of 4 (|a| + 1) terms must fit
# its cap, and the closed form's rational part grows with the shift.
MAX_SHIFT = 25_000


@dataclass(frozen=True)
class SumSpec:
    """One convergent series instance: numerator Q, factored denominator, sign mode."""

    numerator: Polynomial
    factors: FactorList
    sign: str = PLAIN

    def __post_init__(self):
        if self.sign not in (PLAIN, ALTERNATING):
            raise ValueError(f"unknown sign mode {self.sign!r}")
        for a, _ in self.factors:
            if abs(a) > MAX_SHIFT:
                raise ShiftTooLarge(f"shift {a} exceeds the limit |a| <= {MAX_SHIFT}")
        n_total = self.factors.total_degree
        bound = n_total - 2 if self.sign == PLAIN else n_total - 1
        if self.numerator.degree > bound:
            raise DegreeTooHigh(
                f"deg Q = {self.numerator.degree} exceeds {bound} "
                f"(deg Q must be <= deg P - {2 if self.sign == PLAIN else 1} "
                f"for {self.sign} sums to converge)"
            )

    def rational_function(self) -> RationalFunction:
        return RationalFunction.from_polys(self.numerator, self.factors.expand())


@dataclass(frozen=True)
class PartialFractions:
    """Coefficient table: one (shift, order, coefficient) entry per (i, j)."""

    entries: Tuple[Tuple[Fraction, int, Fraction], ...]

    def simple_pole_sum(self) -> Fraction:
        """Sum of all order-1 coefficients; zero whenever deg Q <= N - 2."""
        return sum((c for _, j, c in self.entries if j == 1), Fraction(0))

    def coefficient(self, shift, order: int) -> Fraction:
        shift = Fraction(shift)
        for a, j, c in self.entries:
            if a == shift and j == order:
                return c
        raise KeyError((shift, order))


def decompose(spec: SumSpec) -> PartialFractions:
    """Partial-fraction coefficients of Q(n)/P(n) over the factored denominator."""
    q = spec.numerator.coeffs
    entries = []
    for a_i, m_i in spec.factors:
        # Taylor coefficients of Q at n = -a_i, in powers of t = n + a_i.
        g = [
            sum(
                (q[k] * comb(k, r) * (-a_i) ** (k - r) for k in range(r, len(q))),
                Fraction(0),
            )
            for r in range(m_i)
        ]
        for a_l, m_l in spec.factors:
            b = a_l - a_i
            if b == 0:
                continue
            for _ in range(m_l):
                # Divide the truncated series by (t + b).
                for r in range(m_i):
                    g[r] = (g[r] - (g[r - 1] if r else 0)) / b
        entries.extend((a_i, j, g[m_i - j]) for j in range(1, m_i + 1))
    return PartialFractions(tuple(entries))


def recombine(pf: PartialFractions) -> RationalFunction:
    """Common-denominator recombination; inverse of decompose."""
    total = RationalFunction.constant(0)
    for a, j, c in pf.entries:
        if c == 0:
            continue
        term = RationalFunction.from_polys(
            Polynomial.constant(c), Polynomial.linear(a) ** j
        )
        total = total + term
    return total
