"""Command-line front end.

    exactsum "<expr>" [--alternating] [--digits D]
             [--format exact|numeric|both|json] [--verify]

Exit codes: 0 success, 2 input/validation error, 3 verification failure.

--verify certifies the printed value: the partial-sum bracket (printed
rounded outward to D digits) must be narrower than one unit in the last
printed digit and meet the printed value +- half that unit, and the
quadrature value (printed to ceil(D/2) digits) must agree with it to
ceil(D/2) significant digits (to 10^-ceil(D/2) absolutely when the printed
value is 0).  Quadrature applies to every sum, plain or alternating: it
adds the first k terms, k the fewest that leave every shift >= 0, and
integrates the rest of the partial-fraction table once over [0, 1].

Every number is exact until it is printed: the value with its certified
digits, the bracket's integer ends on 2^-w and the quadrature's rational.
The check compares them as integers scaled to a common 2^a 10^b.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .closedform import fraction_text, render
from .engine import evaluate
from .errors import ExactSumError
from .fixedpoint import decimal_text
from .oracle import partial_sum_bracket, quad_alternating, quad_digits, quad_general
from .parser import ast_to_spec, parse_expression
from .partfrac import ALTERNATING, PLAIN
from .polygamma import PrecisionPolicy


@dataclass(frozen=True)
class CliRequest:
    expression: str
    sign: str = PLAIN
    digits: int = 30
    format: str = "both"
    verify: bool = False

    def __post_init__(self):
        if not 10 <= self.digits <= 1000:
            raise ValueError("digits must be in [10, 1000]")
        if self.format not in ("exact", "numeric", "both", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.sign not in (PLAIN, ALTERNATING):
            raise ValueError(f"unknown sign {self.sign!r}")


def _agrees(result, bracket, quad, digits: int) -> bool:
    """Whether the oracles certify the printed value q 10^s, s = e - d + 1,
    compared as integers on the grid 2^-w 10^-max(0, -s) of the bracket.

    The bracket must be narrower than the printed value's last unit and
    meet its half-unit interval (an exact zero must lie in the bracket);
    quadrature must be within 10^-quad_digits(d) |value|, or within
    10^-quad_digits(d) of a printed 0.
    """
    q, e = result.digits
    s = e - digits + 1
    lo, hi = bracket.lo * 10 ** max(0, -s), bracket.hi * 10 ** max(0, -s)
    unit = (10 ** max(0, s) << bracket.w) if q else 0  # the last printed digit's unit
    narrow = hi - lo <= unit or not q
    certified = narrow and 2 * lo <= (2 * q + 1) * unit and 2 * hi >= (2 * q - 1) * unit
    num, den = result.ratio
    gap = abs(num * quad.denominator - quad.numerator * den) * 10 ** quad_digits(digits)
    return certified and gap <= (abs(num) if q else den) * quad.denominator


def _quadrature_value(spec, pf, policy):
    """The quadrature's exact value, for the spec's sign."""
    return (quad_general if spec.sign == PLAIN else quad_alternating)(pf, policy)


def run(request: CliRequest):
    """Evaluate a request; returns (exit_code, stdout_text, stderr_text)."""
    policy = PrecisionPolicy(target_digits=request.digits)
    try:
        pair = parse_expression(request.expression)
        spec = ast_to_spec(pair, request.sign)
        result = evaluate(spec, policy)
    except ExactSumError as exc:
        return 2, "", f"error: {exc}\n"

    verify_info = None
    verify_ok = True
    if request.verify:
        try:
            bracket = partial_sum_bracket(spec, policy)
            quad = _quadrature_value(spec, result.pf_echo, policy)
        except ExactSumError as exc:
            return 2, "", f"error: {exc}\n"
        verify_ok = _agrees(result, bracket, quad, request.digits)
        verify_info = {
            "bracket_lo": decimal_text(bracket.lo, request.digits, -1, den=1 << bracket.w),
            "bracket_hi": decimal_text(bracket.hi, request.digits, +1, den=1 << bracket.w),
            "quadrature": decimal_text(quad, quad_digits(request.digits)),
            "agree": verify_ok,
        }

    exact_text = render(result.exact)

    if request.format == "json":
        doc = {
            "expression": request.expression,
            "sign": request.sign,
            "exact": exact_text,
            "fully_reduced": result.exact.fully_reduced,
            "numeric": result.text,
            "digits": request.digits,
            "residuals": [
                {"coeff": fraction_text(c), "order": o, "argument": fraction_text(a)}
                for c, o, a in result.exact.residuals
            ],
            "verify": verify_info,
            "partial_fractions": [
                {"shift": fraction_text(a), "order": j, "coeff": fraction_text(c)}
                for a, j, c in result.pf_echo.entries
            ],
        }
        out = json.dumps(doc) + "\n"
    else:
        fmt = request.format
        if not result.exact.fully_reduced and fmt != "both":
            # A residual-bearing exact form is information, not failure:
            # always show it next to the numeric value.
            fmt = "both"
        lines = []
        if fmt == "exact":
            lines.append(exact_text)
        elif fmt == "numeric":
            lines.append(result.text)
        else:
            lines.append(f"exact: {exact_text}")
            lines.append(f"numeric: {result.text}")
        if verify_info is not None:
            lines.append("verify: bracket [{bracket_lo}, {bracket_hi}], quadrature {quadrature}, "
                         "agree: {}".format(str(verify_ok).lower(), **verify_info))
        out = "\n".join(lines) + "\n"

    if request.verify and not verify_ok:
        return 3, out, "error: verification failed\n"
    return 0, out, ""


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="exactsum",
        description="Evaluate convergent infinite sums of rational terms exactly.",
    )
    ap.add_argument("expression", help="summand expression in n, e.g. '1/(n^2+n/2)'")
    ap.add_argument(
        "--alternating",
        action="store_true",
        help="evaluate sum of (-1)^(n+1) times the expression",
    )
    ap.add_argument("--digits", type=int, default=30, help="significant digits (10..1000)")
    ap.add_argument(
        "--format",
        choices=["exact", "numeric", "both", "json"],
        default="both",
    )
    ap.add_argument(
        "--verify",
        action="store_true",
        help="certify the printed value against the partial-sum bracket and quadrature",
    )
    return ap


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        request = CliRequest(
            expression=args.expression,
            sign=ALTERNATING if args.alternating else PLAIN,
            digits=args.digits,
            format=args.format,
            verify=args.verify,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code, out, err = run(request)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
