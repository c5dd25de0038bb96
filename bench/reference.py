"""Answers computed apart from the program, and the checks against them.

The reference value of a request is computed from the generated
partial-fraction table with `mpmath.psi` at digits + 30, never from the
program's own decomposition or its in-house polygamma:

    plain        sum_ij A_ij (-1)^j / (j-1)! * psi^(j-1)(a_i + 1)
    alternating  sum_ij A_ij (-1)^j / ((j-1)! 2^j)
                        * [psi^(j-1)((a_i+1)/2) - psi^(j-1)((a_i+2)/2)]

The plain formula needs sum_i A_i1 = 0, which the generator guarantees.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import mpmath

from workloads import PLAIN, Table

EXTRA_DIGITS = 30
QUAD_TOLERANCE = mpmath.mpf(10) ** -10


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def reference_value(table: Table, sign: str, digits: int):
    """Sum of the series with this table, to digits + 30 digits."""
    with mpmath.workdps(digits + EXTRA_DIGITS):
        total = mpmath.mpf(0)
        for (a, j), c in table.items():
            if c == 0:
                continue
            scale = _mpf(c) * (-1) ** j / math.factorial(j - 1)
            if sign == PLAIN:
                total += scale * mpmath.psi(j - 1, _mpf(a + 1))
            else:
                total += scale / 2 ** j * (
                    mpmath.psi(j - 1, _mpf((a + 1) / 2))
                    - mpmath.psi(j - 1, _mpf((a + 2) / 2))
                )
        return +total


# -- the exact string, evaluated with mpmath constants ---------------------------

_COEFF = r"(\d+|\(\d+/\d+\))"
_SYMBOL = r"(gamma|ln\(2\)|pi\^2|pi|zeta\((\d+)\)|psi\((\d+), (\d+(?:/\d+)?)\))"
_PIECE = re.compile(rf"^(?:{_COEFF}\*)?{_SYMBOL}$|^{_COEFF}$")


def _coefficient(text: str) -> Fraction:
    return Fraction(text.strip("()"))


def _symbol_value(m: re.Match):
    name = m.group(2)
    if name == "gamma":
        return mpmath.euler
    if name == "ln(2)":
        return mpmath.log(2)
    if name == "pi":
        return +mpmath.pi
    if name == "pi^2":
        return mpmath.pi ** 2
    if m.group(3) is not None:
        return mpmath.zeta(int(m.group(3)))
    return mpmath.psi(int(m.group(4)), _mpf(Fraction(m.group(5))))


def exact_value(text: str, digits: int):
    """Evaluate the program's rendered closed form at digits + 30 digits.

    The rendering is a sum of pieces `[coeff*]symbol` or `coeff`, joined by
    ' + ' and ' - '; an unknown piece raises ValueError.
    """
    parts = re.split(r" ([+-]) ", text)
    signs = ["-" if parts[0].startswith("-") else "+"] + parts[1::2]
    bodies = [parts[0].lstrip("-")] + parts[2::2]
    with mpmath.workdps(digits + EXTRA_DIGITS):
        total = mpmath.mpf(0)
        for sign, body in zip(signs, bodies):
            m = _PIECE.match(body)
            if m is None:
                raise ValueError(f"unrecognised piece {body!r} in {text!r}")
            if m.group(6) is not None:
                value = _mpf(_coefficient(m.group(6)))
            else:
                coeff = _coefficient(m.group(1)) if m.group(1) else Fraction(1)
                value = _mpf(coeff) * _symbol_value(m)
            total += value if sign == "+" else -value
        return +total


# -- checks -----------------------------------------------------------------------


def _printed_ok(printed: str, ref, digits: int) -> bool:
    """`printed` is `ref` rounded to `digits` significant digits.

    Allows 0.001 of a unit in the last place beyond half a unit, for a
    reference that lies on a rounding midpoint to within the program's
    guard digits.
    """
    with mpmath.workdps(digits + EXTRA_DIGITS):
        value = mpmath.mpf(printed)
        ulp = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(value))) - digits + 1)
        return abs(value - ref) <= mpmath.mpf("0.501") * ulp


def check_output(request, output: str, digits: int, verify: bool, ref) -> str:
    """Empty string when the JSON output is right, else what is wrong."""
    try:
        doc = json.loads(output)
    except ValueError:
        return "output is not JSON"
    if not _printed_ok(doc["numeric"], ref, digits):
        return f"numeric {doc['numeric']} differs from the reference"

    table = {
        (Fraction(e["shift"]), int(e["order"])): Fraction(e["coeff"])
        for e in doc["partial_fractions"]
    }
    if table != request.table:
        return "partial fractions differ from the generated table"

    try:
        exact = exact_value(doc["exact"], digits)
    except ValueError as exc:
        return str(exc)
    with mpmath.workdps(digits + EXTRA_DIGITS):
        if abs(exact - ref) > mpmath.mpf(10) ** -(digits + 10) * max(1, abs(ref)):
            return f"exact form {doc['exact']!r} differs from the reference"

    v = doc["verify"]
    if not verify:
        return "" if v is None else "unexpected verify block"
    if v is None:
        return "missing verify block"
    with mpmath.workdps(digits + EXTRA_DIGITS):
        if not mpmath.mpf(v["bracket_lo"]) <= ref <= mpmath.mpf(v["bracket_hi"]):
            return "reference outside the bracket"
        if v["quadrature"] is None:
            return "no quadrature value"
        if abs(mpmath.mpf(v["quadrature"]) - ref) >= QUAD_TOLERANCE:
            return "quadrature differs from the reference by 1e-10 or more"
    if v["agree"] is not True:
        return "agree is not true"
    return ""
