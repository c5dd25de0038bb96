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
tie, is the value itself, with no pass.  Both stay exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .closedform import ONE, SymbolicValue, assemble
from .partfrac import PLAIN, PartialFractions, SumSpec, decompose
from .polygamma import DEFAULT_POLICY, PrecisionPolicy, PsiSum, decimal_text, psi_sum


@dataclass(frozen=True)
class SumResult:
    exact: SymbolicValue
    value: Fraction  # the rational closed form, or psi_sum's dyadic
    text: str  # `value` to the target digits, every digit true
    pf_echo: PartialFractions
    working_digits: int  # precision of the accepted fixed-point pass
    digits_lost: int  # digits cancelled between residue classes


def _psi_terms(pf: PartialFractions, sign: str):
    """The master formula's (coeff, order, argument) psi terms of `pf`."""
    for a, j, coeff in pf.entries:
        if coeff == 0:
            continue
        if sign == PLAIN:
            yield (Fraction((-1) ** j, math.factorial(j - 1)) * coeff, j - 1, a + 1)
        else:
            c = Fraction((-1) ** j, math.factorial(j - 1) * 2 ** j) * coeff
            yield (c, j - 1, Fraction(a + 1, 2))
            yield (-c, j - 1, Fraction(a + 2, 2))


def evaluate(spec: SumSpec, policy: PrecisionPolicy = DEFAULT_POLICY) -> SumResult:
    """Evaluate sum_{n>=1} Q(n)/P(n) exactly and numerically.

    An alternating spec sums (-1)^(n+1) Q(n)/P(n) instead.
    """
    pf = decompose(spec)
    terms = list(_psi_terms(pf, spec.sign))
    exact = assemble(terms)
    if exact.fully_reduced and all(s == ONE for s, _ in exact.basis_coeffs):
        r = exact.coefficient(ONE)
        numeric = PsiSum(r, decimal_text(r, policy.target_digits), policy.working_digits, 0)
    else:
        numeric = psi_sum(terms, policy)
    return SumResult(
        exact=exact,
        value=numeric.exact,
        text=numeric.text,
        pf_echo=pf,
        working_digits=numeric.working_digits,
        digits_lost=numeric.digits_lost,
    )
