"""Exact partial-fraction decomposition over a factored denominator.

The decomposition Q(n)/P(n) = sum_ij A_ij / (n + a_i)^j is read off a
local expansion at each pole: with t = n + a_i,

    Q(t - a_i) / prod_{l != i} (t + a_l - a_i)^{m_l} = sum_k g_k t^k,

and A_ij = g_{m_i - j}.  On integers: for a_i = p/q and u = q t, the left
side is a rational scale times W(u - p) / prod_{l != i} (q_l u + b_l)^{m_l},
b_l = p_l q - p q_l, where W(x) = q^d W0(x/q) for Q = c W0, W0 primitive of
degree d.  A Taylor shift of W and a fraction-free division (von zur Gathen
& Gerhard, ISSAC 1997) give its first m_i coefficients as integers h_k over
r^(k+1), r the divisor's constant term: O(N^2) integer multiply-adds for
total degree N, and one Fraction per coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .closedform import fraction_text
from .errors import DegreeTooHigh, OrderTooLarge, ShiftTooLarge
from .polygamma import MAX_ORDER
from .polys import FactorList, Polynomial

PLAIN = "plain"
ALTERNATING = "alternating"

# Size limits, each checked before the work it bounds.
# Largest |a_i|: the partial-sum bracket's head of 4 (|a| + 1) terms must fit
# its cap.
MAX_SHIFT = 25_000
# Largest multiplicity: a pole of order m needs psi^(m-1).
MAX_MULTIPLICITY = MAX_ORDER + 1
# Largest sum of (|a_i| + 1) m_i: the closed form's rational part has about
# |a_i| terms of order m_i per pole, each with a denominator of m_i log|a_i|
# bits.  At the limit a request takes ~1 s and prints ~57 kB.
MAX_CLOSED_FORM = 64_000
# Largest degree, and coefficient size in bits, that folding may expand.
MAX_DEGREE = 256
MAX_HEIGHT_BITS = 1 << 16


@dataclass(frozen=True)
class SumSpec:
    """One convergent series instance: numerator Q, factored denominator, sign mode."""

    numerator: Polynomial
    factors: FactorList
    sign: str = PLAIN

    def __post_init__(self):
        if self.sign not in (PLAIN, ALTERNATING):
            raise ValueError(f"unknown sign mode {self.sign!r}")
        size, den = 0, 1  # sum (|a| + 1) m = size/den
        for a, m in self.factors:
            p, q = abs(a.numerator), a.denominator
            if p > MAX_SHIFT * q:
                raise ShiftTooLarge(
                    f"shift {fraction_text(a)} exceeds the limit |a| <= {MAX_SHIFT}"
                )
            if m > MAX_MULTIPLICITY:
                raise OrderTooLarge(
                    f"pole of order {m} at shift {a} exceeds the limit {MAX_MULTIPLICITY}"
                )
            size, den = size * q + (p + q) * m * den, den * q
        if -(-size // den) > MAX_CLOSED_FORM:  # the ceiling, as the limit is an integer
            raise ShiftTooLarge(
                f"sum of (|a| + 1) * m over the poles is {fraction_text(Fraction(size, den))} "
                f"> {MAX_CLOSED_FORM}, the closed form's limit"
            )
        n_total = self.factors.total_degree
        bound = n_total - 2 if self.sign == PLAIN else n_total - 1
        if self.numerator.degree > bound and not self.numerator.is_zero():
            raise DegreeTooHigh(
                f"the series diverges: deg Q = {self.numerator.degree} exceeds {bound} "
                f"(deg Q must be <= deg P - {2 if self.sign == PLAIN else 1} "
                f"for {self.sign} sums to converge)"
            )


@dataclass(frozen=True)
class PartialFractions:
    """Coefficient table: one (shift, order, coefficient) entry per (i, j)."""

    entries: Tuple[Tuple[Fraction, int, Fraction], ...]

    def simple_pole_sum(self) -> Fraction:
        """Sum of all order-1 coefficients; zero whenever deg Q <= N - 2."""
        return sum((c for _, j, c in self.entries if j == 1), Fraction(0))


def decompose(spec: SumSpec) -> PartialFractions:
    """Partial-fraction coefficients of Q(n)/P(n) over the factored denominator."""
    content, prim = spec.numerator.primitive()
    deg, total = max(prim.degree, 0), spec.factors.total_degree
    entries = []
    for a, m in spec.factors:
        p, q = a.numerator, a.denominator
        w = [c * q ** (deg - k) for k, c in enumerate(prim.coeffs)] + [0] * m
        for i in range(min(m, deg) if p else 0):
            for k in range(deg - 1, i - 1, -1):
                w[k] -= p * w[k + 1]
        # the divisor to m terms, and the product of its q_l^{m_l}
        den, lead = [1] + [0] * (m - 1), 1
        for a_l, m_l in spec.factors:
            b, q_l = a_l.numerator * q - p * a_l.denominator, a_l.denominator
            if b:
                lead *= q_l ** m_l
                for _ in range(m_l):
                    for k in range(m - 1, 0, -1):
                        den[k] = den[k] * b + den[k - 1] * q_l
                    den[0] *= b
        r, h = den[0], []
        for k in range(m):
            acc = 0
            for j in range(k, 0, -1):
                acc = acc * r + den[j] * h[k - j]
            h.append(w[k] * r ** k - acc)
        # g_k = c q^(N - m - d) lead q^k h_k / r^(k+1), since u = q t
        top, low = content.numerator * lead * q ** (total - m), content.denominator * q ** deg
        for k in range(m - 1, -1, -1):
            entries.append((a, m - k, Fraction(top * h[k] * q ** k, low * r ** (k + 1))))
    return PartialFractions(tuple(entries))
