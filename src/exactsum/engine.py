"""Top-level series evaluation.

Plain sums use the master formula
    S = sum_i sum_j (-1)^j / (j-1)! * A_ij * psi^(j-1)(a_i + 1),
alternating sums split even/odd indices, which turns each partial-fraction
term of order j at shift a into
    (-1)^j / ((j-1)! 2^j) * [psi^(j-1)((a+1)/2) - psi^(j-1)((a+2)/2)].
The exact symbolic path and the numeric path are evaluated independently
from the same psi terms: `assemble` reduces them to the constant basis, and
`polygamma.psi_dyadic` sums them in fixed point to a dyadic with its
target digits, every one true, printed as they are.  A rational closed
form, which may be 0 or lie on a decimal tie, is the value itself, with no
pass.  Either value is an integer pair until a Fraction is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .closedform import ONE, SymbolicValue, assemble
from .fixedpoint import _rounded_digits, digits_text
from .partfrac import PLAIN, PartialFractions, SumSpec, decompose
from .polygamma import DEFAULT_POLICY, PrecisionPolicy, psi_dyadic


@dataclass(frozen=True)
class SumResult:
    exact: SymbolicValue
    ratio: tuple  # (num, den): the rational closed form, or psi_dyadic's m/2^k
    digits: tuple  # (q, e) of `_rounded_digits`: the value to the target digits, all true
    text: str  # `digits` as `digits_text` prints them
    pf_echo: PartialFractions
    value = property(lambda self: Fraction(*self.ratio))  # the exact value, built on access


def _psi_terms(pf: PartialFractions, sign: str):
    """The master formula's (coeff, order, argument) psi terms of `pf`, built from integers."""
    for a, j, coeff in pf.entries:
        if coeff:
            p, q = a.numerator, a.denominator
            c, d = (-1) ** j * coeff.numerator, math.factorial(j - 1) * coeff.denominator
            if sign == PLAIN:
                yield Fraction(c, d), j - 1, Fraction(p + q, q)
            else:
                c = Fraction(c, d << j)
                yield c, j - 1, Fraction(p + q, 2 * q)
                yield -c, j - 1, Fraction(p + 2 * q, 2 * q)


def evaluate(spec: SumSpec, policy: PrecisionPolicy = DEFAULT_POLICY) -> SumResult:
    """Evaluate sum_{n>=1} Q(n)/P(n) exactly and numerically.

    An alternating spec sums (-1)^(n+1) Q(n)/P(n) instead.
    """
    pf = decompose(spec)
    terms = list(_psi_terms(pf, spec.sign))
    exact = assemble(terms)
    target = policy.target_digits
    if exact.fully_reduced and all(s == ONE for s, _ in exact.basis_coeffs):
        value = exact.coefficient(ONE)
        ratio, digits = (value.numerator, value.denominator), _rounded_digits(value, target)
    else:
        num, k, digits = psi_dyadic(terms, policy)
        ratio = num, 1 << k
    return SumResult(exact, ratio, digits, digits_text(*digits, target), pf)
