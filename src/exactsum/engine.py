"""Top-level series evaluation.

Plain sums use the master formula
    S = sum_i sum_j (-1)^j / (j-1)! * A_ij * psi^(j-1)(a_i + 1),
alternating sums split even/odd indices, which turns each partial-fraction
term of order j at shift a into
    (-1)^j / ((j-1)! 2^j) * [psi^(j-1)((a+1)/2) - psi^(j-1)((a+2)/2)].
The exact symbolic path and the numeric path are evaluated independently
from the same psi terms: `assemble` reduces them to the constant basis, and
`polygamma.psi_sum` sums them in fixed point to a value whose every printed
digit is true.  Only where that sum cancels below the precision ceiling
does an exactly zero closed form stand in for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf
from mpmath.libmp import from_rational, round_nearest

from .closedform import ONE, SymbolicValue, assemble
from .partfrac import PLAIN, PartialFractions, SumSpec, decompose
from .polygamma import DEFAULT_POLICY, PrecisionPolicy, PsiSum, _precision_bits, psi_sum


@dataclass(frozen=True)
class SumResult:
    exact: SymbolicValue
    numeric: mpf
    fully_reduced: bool
    spec_echo: SumSpec
    pf_echo: PartialFractions
    working_digits: int  # precision of the accepted fixed-point pass
    digits_lost: int  # digits cancelled between residue classes


def _psi_terms_plain(pf: PartialFractions):
    for a, j, coeff in pf.entries:
        if coeff == 0:
            continue
        c = Fraction((-1) ** j, math.factorial(j - 1)) * coeff
        yield (c, j - 1, a + 1)


def _psi_terms_alternating(pf: PartialFractions):
    for a, j, coeff in pf.entries:
        if coeff == 0:
            continue
        c = Fraction((-1) ** j, math.factorial(j - 1) * 2 ** j) * coeff
        yield (c, j - 1, Fraction(a + 1, 2))
        yield (-c, j - 1, Fraction(a + 2, 2))


def _rational_value(exact: SymbolicValue, policy: PrecisionPolicy) -> PsiSum:
    """A rational closed form as a PsiSum, rounded to working precision plus
    the bits of its denominator, so that no rounding of the target digits
    falls on the other side of a decimal tie."""
    r = exact.coefficient(ONE)
    bits = _precision_bits(policy.working_digits) + r.denominator.bit_length()
    value = mpmath.mp.make_mpf(from_rational(r.numerator, r.denominator, bits, round_nearest))
    return PsiSum(value, policy.working_digits, 0)


def evaluate(spec: SumSpec, policy: PrecisionPolicy = DEFAULT_POLICY) -> SumResult:
    """Evaluate sum_{n>=1} Q(n)/P(n) exactly and numerically.

    An alternating spec sums (-1)^(n+1) Q(n)/P(n) instead.
    """
    pf = decompose(spec)
    if spec.sign == PLAIN:
        terms = list(_psi_terms_plain(pf))
    else:
        terms = list(_psi_terms_alternating(pf))
    exact = assemble(terms)
    if exact.fully_reduced and all(s == ONE for s, _ in exact.basis_coeffs):
        numeric = _rational_value(exact, policy)
    else:
        numeric = psi_sum(terms, policy)
    return SumResult(
        exact=exact,
        numeric=numeric.value,
        fully_reduced=exact.fully_reduced,
        spec_echo=spec,
        pf_echo=pf,
        working_digits=numeric.working_digits,
        digits_lost=numeric.digits_lost,
    )
