"""Exact evaluation of convergent infinite sums of rational terms.

Evaluates sum_{n>=1} Q(n)/P(n) (plain or alternating sign) exactly via
partial fractions and digamma/polygamma identities, returning both a
closed-form symbolic value and an arbitrary-precision numeric value, each
independently verifiable by quadrature and tail-bracketed partial sums.
"""

from . import fixedpoint, oracle, polygamma
from .closedform import SymbolicValue, assemble, render
from .engine import SumResult, evaluate
from .errors import (
    ConstraintViolated,
    DegreeTooHigh,
    DivisionByZero,
    DuplicateShift,
    ExactSumError,
    ExpressionSyntaxError,
    InsufficientTerms,
    NegativeIntegerShift,
    NonLinearFactor,
    OrderTooLarge,
    PoleArgument,
    PrecisionExhausted,
    ShiftTooLarge,
)
from .fixedpoint import decimal_text
from .oracle import Bracket, partial_sum_bracket, quad_alternating, quad_general
from .parser import ast_to_spec, parse_expression
from .partfrac import PartialFractions, SumSpec, decompose
from .polygamma import PrecisionPolicy, psi_sum
from .polys import FactorList, Polynomial, factor_linear

__all__ = [
    "Bracket",
    "ConstraintViolated",
    "DegreeTooHigh",
    "DivisionByZero",
    "DuplicateShift",
    "ExactSumError",
    "ExpressionSyntaxError",
    "FactorList",
    "InsufficientTerms",
    "NegativeIntegerShift",
    "NonLinearFactor",
    "OrderTooLarge",
    "PartialFractions",
    "PoleArgument",
    "Polynomial",
    "PrecisionExhausted",
    "PrecisionPolicy",
    "SumResult",
    "SumSpec",
    "ShiftTooLarge",
    "SymbolicValue",
    "assemble",
    "ast_to_spec",
    "clear_caches",
    "decimal_text",
    "decompose",
    "evaluate",
    "factor_linear",
    "parse_expression",
    "partial_sum_bracket",
    "psi_sum",
    "quad_alternating",
    "quad_general",
    "render",
]

__version__ = "0.1.0"


def clear_caches():
    """Empty every process-wide cache, the Bernoulli tables back to B_0; no
    result depends on what they held."""
    for cache in (polygamma._psi_at_base, fixedpoint.half_ln2, fixedpoint._ln_step,
                  oracle._series_errors, oracle._level):
        cache.cache_clear()
    polygamma._clear_bernoulli()
