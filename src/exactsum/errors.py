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
    """Numerator degree violates the convergence bound for the sign mode,
    or the folded expression exceeds partfrac's degree or coefficient limit."""


class DivisionByZero(ExactSumError, ZeroDivisionError):
    """The expression divides by something that folds to zero."""


class PoleArgument(ExactSumError):
    """Digamma/polygamma argument is a non-positive integer."""


class OrderTooLarge(ExactSumError):
    """Polygamma order above the supported limit."""


class PrecisionExhausted(ExactSumError):
    """The psi kernel (polygamma.psi_dyadic) cannot certify the sum's digits
    below its precision ceiling: the sum cancels too far."""


class ShiftTooLarge(ExactSumError):
    """A denominator shift |a| above partfrac.MAX_SHIFT, or shifts and
    multiplicities whose closed form exceeds partfrac.MAX_CLOSED_FORM."""


class InsufficientTerms(ExactSumError):
    """Partial-sum bracket would need a head longer than its fixed cap."""


class ConstraintViolated(ExactSumError):
    """Sum of simple-pole coefficients is nonzero; combined integral diverges."""


class ExpressionSyntaxError(ExactSumError):
    """Parse failure, with character offset and an expected-token hint."""

    def __init__(self, message, offset, hint=None):
        self.offset = offset
        self.hint = hint
        text = f"syntax error at offset {offset}: {message}"
        if hint:
            text += f" ({hint})"
        super().__init__(text)
