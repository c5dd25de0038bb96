"""Quick self-test of the benchmark's generator and references.

    python3 bench/selftest.py

Checks, without importing the program, that every generated table
recombines to the expression handed to the program, and that the
reference formulas reproduce known sums. Prints `ok` and exits 0, or
raises on the first mismatch.
"""

from __future__ import annotations

import re
from fractions import Fraction

import mpmath

import reference
import workloads
from workloads import ALTERNATING, PLAIN

_TERM = re.compile(r"^(\d+)?\*?(n(?:\^(\d+))?)?$")


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def _poly_value(text: str, x: Fraction) -> Fraction:
    """Value at x of a polynomial written by workloads._poly_text."""
    parts = re.split(r" ([+-]) ", text)
    signs = ["-" if parts[0].startswith("-") else "+"] + parts[1::2]
    total = Fraction(0)
    for sign, body in zip(signs, [parts[0].lstrip("-")] + parts[2::2]):
        m = _TERM.match(body)
        _expect(m is not None and body != "", f"bad term {body!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        power = 0 if not m.group(2) else int(m.group(3) or 1)
        total += (coeff if sign == "+" else -coeff) * x ** power
    return total


def _table_value(table, x: Fraction) -> Fraction:
    return sum((c / (x + a) ** j for (a, j), c in table.items()), Fraction(0))


def check_tables_recombine(seeds=(1, 2, 3)) -> None:
    for name, w in workloads.WORKLOADS.items():
        for seed in seeds:
            for r in workloads.generate(name, seed):
                num, den = re.fullmatch(r"\((.*)\)/\((.*)\)", r.expression).groups()
                mult = {}
                for a, j in r.table:
                    mult[a] = max(mult.get(a, 0), j)
                _expect(r.degree == sum(mult.values()), f"{name} {r.index}: degree")
                for x in range(1, r.degree + 3):
                    x = Fraction(x, 3)
                    _expect(
                        _poly_value(num, x) / _poly_value(den, x) == _table_value(r.table, x),
                        f"{name} seed {seed} request {r.index} does not recombine",
                    )
                for a in mult:
                    _expect(_poly_value(den, -a) == 0, f"{name} {r.index}: root {-a}")
                    _expect(_poly_value(num, -a) != 0, f"{name} {r.index}: not reduced")
                if r.sign == PLAIN:
                    _expect(
                        sum(c for (_, j), c in r.table.items() if j == 1) == 0,
                        f"{name} {r.index}: plain sum diverges",
                    )
                if w.alternating_simple_only and r.sign == ALTERNATING:
                    _expect(max(mult.values()) == 1, f"{name} {r.index}: not simple")
                _expect(
                    all(0 <= a <= workloads.MAX_SHIFT for a in mult),
                    f"{name} {r.index}: shift outside [0, {workloads.MAX_SHIFT}]",
                )
    _expect(
        workloads.generate("frontend-30d", 7) == workloads.generate("frontend-30d", 7),
        "the same seed gave different inputs",
    )


def check_known_sums(digits=(30, 1000)) -> None:
    half = Fraction(1, 2)
    for d in digits:
        with mpmath.workdps(d + reference.EXTRA_DIGITS):
            tol = mpmath.mpf(10) ** -(d + 20)
            known = (
                ({(Fraction(0), 2): Fraction(1)}, PLAIN, mpmath.pi ** 2 / 6, "(1/6)*pi^2"),
                ({(Fraction(0), 1): Fraction(1)}, ALTERNATING, mpmath.log(2), "ln(2)"),
                (
                    {(Fraction(0), 1): Fraction(2), (half, 1): Fraction(-2)},
                    PLAIN,
                    4 - 4 * mpmath.log(2),
                    "4 - 4*ln(2)",
                ),
            )
            for table, sign, value, text in known:
                ref = reference.reference_value(table, sign, d)
                _expect(abs(ref - value) < tol, f"reference of {text} at {d} digits")
                _expect(
                    abs(reference.exact_value(text, d) - value) < tol,
                    f"exact_value({text!r}) at {d} digits",
                )
            # sum 1/(n + 1/3)^2 = psi(1, 4/3) = psi(1, 1/3) - 9
            residual = reference.exact_value("-9 + psi(1, 1/3)", d)
            _expect(abs(residual - mpmath.psi(1, mpmath.mpf(4) / 3)) < tol, "psi residual")
            _expect(
                reference._printed_ok(mpmath.nstr(value, d, strip_zeros=False), value, d),
                "a correctly rounded value is rejected",
            )


def main() -> None:
    check_tables_recombine()
    check_known_sums()
    print("ok")


if __name__ == "__main__":
    main()
