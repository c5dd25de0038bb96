"""Top-level series evaluation.

Plain sums use the master formula
    S = sum_i sum_j (-1)^j / (j-1)! * A_ij * psi^(j-1)(a_i + 1),
alternating sums split even/odd indices, which turns each partial-fraction
term of order j at shift a into
    (-1)^j / ((j-1)! 2^j) * [psi^(j-1)((a+1)/2) - psi^(j-1)((a+2)/2)].
The exact symbolic path and the numeric path are evaluated independently
from the same psi terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .closedform import SymbolicValue, assemble
from .partfrac import PLAIN, PartialFractions, SumSpec, decompose
from . import polygamma as pg
from .polygamma import DEFAULT_POLICY, PrecisionPolicy, to_mpf


@dataclass(frozen=True)
class SumResult:
    exact: SymbolicValue
    numeric: mpf
    fully_reduced: bool
    spec_echo: SumSpec
    pf_echo: PartialFractions


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


def _numeric_from_terms(terms, policy: PrecisionPolicy) -> mpf:
    with mpmath.workdps(policy.working_digits):
        acc = mpmath.mpf(0)
        for coeff, order, arg in terms:
            acc += to_mpf(coeff) * pg.polygamma(order, arg, policy)
        return +acc


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
    numeric = _numeric_from_terms(terms, policy)
    return SumResult(
        exact=exact,
        numeric=numeric,
        fully_reduced=exact.fully_reduced,
        spec_echo=spec,
        pf_echo=pf,
    )

