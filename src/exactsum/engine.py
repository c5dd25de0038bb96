"""Top-level series evaluation.

Plain sums use the master formula
    S = sum_i sum_j (-1)^j / (j-1)! * A_ij * psi^(j-1)(a_i + 1),
alternating sums split even/odd indices, which turns each partial-fraction
term of order j at shift a into
    (-1)^j / ((j-1)! 2^j) * [psi^(j-1)((a+1)/2) - psi^(j-1)((a+2)/2)].
The exact symbolic path and the numeric path are evaluated independently
from the same psi terms: `assemble` reduces them to the constant basis, and
`polygamma.psi_sum` sums them in fixed point to a dyadic whose every printed
digit is true.  A rational closed form, which may be 0 or lie on a decimal
tie, is the value itself, with no pass.  Either value is an exact rational,
formatted once to the target digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .closedform import ONE, SymbolicValue, assemble
from .partfrac import PLAIN, PartialFractions, SumSpec, decompose
from .polygamma import DEFAULT_POLICY, PrecisionPolicy, decimal_text, psi_sum


@dataclass(frozen=True)
class SumResult:
    exact: SymbolicValue
    value: Fraction  # the rational closed form, or psi_sum's dyadic
    text: str  # `value` to the target digits, every digit true
    pf_echo: PartialFractions


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
    if exact.fully_reduced and all(s == ONE for s, _ in exact.basis_coeffs):
        value = exact.coefficient(ONE)
    else:
        value = psi_sum(terms, policy)
    return SumResult(exact, value, decimal_text(value, policy.target_digits), pf)
