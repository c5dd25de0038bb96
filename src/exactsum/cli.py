"""Command-line front end.

    exactsum "<expr>" [--alternating] [--digits D]
             [--format exact|numeric|both|json] [--verify] [--oracle-terms N]

Exit codes: 0 success, 2 input/validation error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import mpmath

from .closedform import fraction_text, render
from .engine import evaluate
from .errors import ExactSumError, NotApplicable
from .oracle import partial_sum_bracket, quad_alternating, quad_general
from .parser import ast_to_spec, parse_expression
from .partfrac import ALTERNATING, PLAIN
from .polygamma import PrecisionPolicy, to_mpf

VERIFY_QUAD_TOL_EXP = -10  # |engine - quadrature| < 10^-10 counts as agreement


@dataclass(frozen=True)
class CliRequest:
    expression: str
    sign: str = PLAIN
    digits: int = 30
    format: str = "both"
    verify: bool = False
    oracle_terms: int = 10 ** 6

    def __post_init__(self):
        if not 10 <= self.digits <= 1000:
            raise ValueError("digits must be in [10, 1000]")
        if not 10 ** 3 <= self.oracle_terms <= 10 ** 8:
            raise ValueError("oracle-terms must be in [10^3, 10^8]")
        if self.format not in ("exact", "numeric", "both", "json"):
            raise ValueError(f"unknown format {self.format!r}")


def _numeric_string(x, digits: int) -> str:
    """Plain decimal string with exactly `digits` significant digits."""
    with mpmath.workdps(digits + 5):
        return mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=False)


def _quadrature_value(spec, pf, policy):
    """Matching quadrature oracle for the spec, or None when inapplicable."""
    try:
        if spec.sign == PLAIN:
            return quad_general(pf, policy)
        if all(j == 1 for _, j, _ in pf.entries):
            with mpmath.workdps(policy.working_digits):
                total = mpmath.mpf(0)
                for a, _, c in pf.entries:
                    if c != 0:
                        total += to_mpf(c) * quad_alternating(a, policy)
                return +total
        return None
    except NotApplicable:
        return None


def run(request: CliRequest):
    """Evaluate a request; returns (exit_code, stdout_text, stderr_text)."""
    policy = PrecisionPolicy(target_digits=request.digits)
    try:
        ast = parse_expression(request.expression)
        spec = ast_to_spec(ast, request.sign)
        result = evaluate(spec, policy)
    except ExactSumError as exc:
        return 2, "", f"error: {exc}\n"

    verify_info = None
    verify_ok = True
    if request.verify:
        try:
            bracket = partial_sum_bracket(spec, request.oracle_terms, policy)
            quad = _quadrature_value(spec, result.pf_echo, policy)
        except ExactSumError as exc:
            return 2, "", f"error: {exc}\n"
        in_bracket = bracket.contains(result.numeric)
        quad_ok = (
            quad is None
            or abs(result.numeric - quad) < mpmath.mpf(10) ** VERIFY_QUAD_TOL_EXP
        )
        verify_ok = in_bracket and quad_ok
        verify_info = {
            "bracket_lo": _numeric_string(bracket.lo, request.digits),
            "bracket_hi": _numeric_string(bracket.hi, request.digits),
            "quadrature": None if quad is None else _numeric_string(quad, request.digits),
            "agree": verify_ok,
        }

    exact_text = render(result.exact)
    numeric_text = _numeric_string(result.numeric, request.digits)

    if request.format == "json":
        doc = {
            "expression": request.expression,
            "sign": request.sign,
            "exact": exact_text,
            "fully_reduced": result.fully_reduced,
            "numeric": numeric_text,
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
        if not result.fully_reduced and fmt != "both":
            # A residual-bearing exact form is information, not failure:
            # always show it next to the numeric value.
            fmt = "both"
        lines = []
        if fmt == "exact":
            lines.append(exact_text)
        elif fmt == "numeric":
            lines.append(numeric_text)
        else:
            lines.append(f"exact: {exact_text}")
            lines.append(f"numeric: {numeric_text}")
        if verify_info is not None:
            lines.append(
                "verify: bracket [{}, {}], quadrature {}, agree: {}".format(
                    verify_info["bracket_lo"],
                    verify_info["bracket_hi"],
                    verify_info["quadrature"],
                    str(verify_info["agree"]).lower(),
                )
            )
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
        help="cross-check against the partial-sum bracket and quadrature oracles",
    )
    ap.add_argument(
        "--oracle-terms",
        type=int,
        default=10 ** 6,
        help="terms for the partial-sum oracle (10^3..10^8)",
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
            oracle_terms=args.oracle_terms,
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
