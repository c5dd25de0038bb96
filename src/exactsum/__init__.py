"""Exact evaluation of convergent infinite sums of rational terms.

Evaluates sum_{n>=1} Q(n)/P(n) (plain or alternating sign) exactly via
partial fractions and digamma/polygamma identities, returning both a
closed-form symbolic value and an arbitrary-precision numeric value, each
independently verifiable by quadrature and tail-bracketed partial sums.
"""

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
from .oracle import Bracket, partial_sum_bracket, quad_alternating, quad_general
from .parser import ast_to_spec, parse_expression
from .partfrac import PartialFractions, SumSpec, decompose
from .polygamma import PrecisionPolicy, decimal_text, psi_sum
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
