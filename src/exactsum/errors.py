"""Exception types shared across the package."""


class ExactSumError(Exception):
    """Base class for all errors raised by this package."""


class NonLinearFactor(ExactSumError):
    """The denominator has a factor with no rational root.

    Carries the irreducible remainder so callers can report it.
    """

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__(
            f"denominator has a factor with no rational root: {remainder}"
        )


class NegativeIntegerShift(ExactSumError):
    """A denominator factor (n + a) with a a negative integer: pole at n = -a >= 1."""


class DuplicateShift(ExactSumError):
    """Two factors share the same shift; they must be merged first."""


class DegreeTooHigh(ExactSumError):
    """Numerator degree violates the convergence bound for the sign mode."""


class PoleArgument(ExactSumError):
    """Digamma/polygamma argument is (numerically) a non-positive integer."""


class OrderTooLarge(ExactSumError):
    """Polygamma order above the supported limit."""


class PrecisionExhausted(ExactSumError):
    """The numeric sum cancels below what the precision ceiling can certify."""


class ShiftTooLarge(ExactSumError):
    """A denominator shift |a| above partfrac.MAX_SHIFT."""


class InsufficientTerms(ExactSumError):
    """Partial-sum bracket would need a head longer than its fixed cap."""


class NotApplicable(ExactSumError):
    """Quadrature oracle declines: parameters outside the integral's domain."""


class ConstraintViolated(ExactSumError):
    """Sum of simple-pole coefficients is nonzero; combined integral diverges."""


class ExpressionSyntaxError(ExactSumError):
    """Parse failure, with byte offset and an expected-token hint."""

    def __init__(self, message, offset, hint=None):
        self.offset = offset
        self.hint = hint
        text = f"syntax error at offset {offset}: {message}"
        if hint:
            text += f" ({hint})"
        super().__init__(text)
