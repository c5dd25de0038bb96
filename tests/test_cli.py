import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from datetime import timedelta
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from exactsum import engine, parser
from exactsum.cli import CliRequest, main, run
from exactsum.engine import evaluate
from exactsum.errors import (
    DegreeTooHigh,
    InsufficientTerms,
    NegativeIntegerShift,
    NonLinearFactor,
    ShiftTooLarge,
)
from exactsum.partfrac import MAX_SHIFT
from exactsum.polygamma import decimal_text
from exactsum.polys import FactorList, factor_linear


def _run(expression, **kwargs):
    return run(CliRequest(expression=expression, **kwargs))


class TestGoldenOutputs:
    def test_half_shift_pair_both(self):
        code, out, err = _run("1/(n^2+n/2)")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "exact: 4 - 4*ln(2)"
        assert lines[1].startswith("numeric: 1.2274112777602187623310715141")

    def test_basel_exact_format(self):
        code, out, _ = _run("1/n^2", format="exact")
        assert code == 0
        assert out == "exact: (1/6)*pi^2\n".replace("exact: ", "")

    def test_numeric_format_digit_count(self):
        code, out, _ = _run("1/n^2", format="numeric", digits=30)
        assert code == 0
        mantissa = out.strip().replace(".", "").lstrip("-").lstrip("0")
        assert len(mantissa) == 30
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(out.strip()) - mpmath.pi ** 2 / 6) < mpmath.mpf(
                10
            ) ** (-28)

    def test_alternating_ln2(self):
        code, out, _ = _run("1/n", sign="alternating", format="exact")
        assert code == 0
        assert out == "ln(2)\n"

    def test_high_digits(self):
        code, out, _ = _run("1/n^2", format="numeric", digits=100)
        assert code == 0
        with mpmath.workdps(120):
            assert abs(mpmath.mpf(out.strip()) - mpmath.pi ** 2 / 6) < mpmath.mpf(
                10
            ) ** (-98)


class TestResidualPromotion:
    def test_exact_format_promoted_to_both(self):
        # psi(0, 1/3) residual: an exact-only answer would hide the number
        code, out, _ = _run("1/(n^2-1/9)", format="exact")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("exact: ")
        assert "psi(" in lines[0]
        assert lines[1].startswith("numeric: ")

    def test_numeric_format_promoted_to_both(self):
        code, out, _ = _run("1/(n^2-1/9)", format="numeric")
        assert out.splitlines()[0].startswith("exact: ")


class TestExitCodes:
    def test_syntax_error(self):
        code, out, err = _run("n(n+1)")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_divergent_rejected(self):
        code, _, err = _run("1/n")
        assert code == 2 and "deg Q" in err

    def test_negative_integer_shift(self):
        code, _, err = _run("1/(n-3)^2")
        assert code == 2

    def test_nonlinear_denominator(self):
        code, _, err = _run("1/(n^2+1)")
        assert code == 2

    def test_nonlinear_factor_message_in_input_grammar(self, capsys):
        assert main(["1/(n^3-2)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: denominator has a factor with no rational root: n^3 - 2\n"
        )

    def test_bad_digits_request(self):
        with pytest.raises(ValueError):
            CliRequest(expression="1/n^2", digits=5)
        # refused before any parsing or factoring
        with pytest.raises(ValueError, match="unknown sign 'alt'"):
            CliRequest(expression="1/n^2", sign="alt")

    @pytest.mark.parametrize("expression", ["1/(n+100000)^2", "1/(n+200000)^2"])
    def test_shift_height_limit_fails_fast(self, monkeypatch, expression):
        # refused before any closed-form algebra (which took 9.9 s at 100000)
        def refuse(*args):
            raise AssertionError("partial fractions reached")

        monkeypatch.setattr(engine, "decompose", refuse)
        code, out, err = _run(expression)
        assert code == 2 and out == "" and "exceeds the limit" in err

    def test_shift_just_below_limit_accepted(self):
        code, out, _ = _run("1/(n+24000)^2", format="numeric")
        assert code == 0 and out.startswith("0.00004166")

    @pytest.mark.parametrize("expression", ["1/(n-n)", "1/0", "1/n^2/0"])
    def test_division_by_zero(self, expression):
        code, out, err = _run(expression)
        assert (code, out, err) == (2, "", "error: division by zero\n")

    def test_end_of_input_message(self):
        code, _, err = _run("1/(n+1)^2+")
        assert code == 2 and "unexpected end of input" in err and "None" not in err

    @pytest.mark.parametrize(
        "expression",
        [
            "(" * 400 + "1/n^2" + ")" * 400,
            "1/(" + "+(".join(["n"] * 2000) + ")" * 1999 + ")^2",
        ],
        ids=["400-parentheses", "2000-operand-chain"],
    )
    def test_deep_nesting_exits_2(self, expression):
        # deeper than the parser's recursion can go: parentheses, or a chain
        # nested to the right, n+(n+(n+...)), where each operand opens a level
        code, out, err = _run(expression)
        assert code == 2 and out == "" and err.startswith("error:") and "nested" in err

    def test_fold_too_deep_names_no_offset(self):
        # a product chain folds in a loop until its degree passes the limit;
        # the fold's size errors are about the value, so they claim no offset
        code, out, err = _run("1/(" + "*".join(["n"] * 2000) + ")")
        assert (code, out) == (2, "") and "offset" not in err
        assert err == "error: the expression has degree 257 > 256\n"

    def test_operand_chain_has_no_depth_limit(self):
        # a chain is folded in a loop: 1/(2000 n)^2 sums to pi^2/(6*2000^2)
        code, out, err = _run("1/(" + "+".join(["n"] * 2000) + ")^2")
        assert (code, err) == (0, "")
        exact, numeric = out.splitlines()
        assert exact == "exact: (1/24000000)*pi^2"
        with mpmath.workdps(40):
            value = mpmath.mpf(numeric.removeprefix("numeric: "))
            expected = mpmath.pi ** 2 / 24_000_000
            assert abs(value - expected) < 1e-29 * expected

    @pytest.mark.parametrize(
        "expression, offset",
        [("1/n\u00b2", 3), ("1/n^\u00b2", 4), ("1/n^\u0663", 4), ("1/(n+\uff11)^2", 5)],
        ids=["superscript-two", "superscript-exponent", "arabic-indic-three", "fullwidth-one"],
    )
    def test_non_ascii_digit_rejected(self, expression, offset):
        # digits are ASCII 0-9 only; str.isdigit would accept these
        code, out, err = _run(expression)
        assert (code, out) == (2, "")
        assert err == (
            f"error: syntax error at offset {offset}: unexpected character "
            f"{expression[offset]!r} (expected a number, 'n' or an operator)\n"
        )

    @pytest.mark.parametrize(
        "expression",
        ["1/(n+1)^2000", "1/(n+1)^999999999", "1/(n^2*((2^256)^256)^256)"],
    )
    def test_fold_size_limit_fails_fast(self, monkeypatch, expression):
        # refused while folding, before the power is expanded or reduced
        def refuse(*args):
            raise AssertionError("reduction reached")

        monkeypatch.setattr(parser, "reduced", refuse)
        code, out, err = _run(expression)
        assert code == 2 and out == "" and "the expression has" in err

    @pytest.mark.parametrize(
        "expression, message",
        [
            ("1/(n+8000)^31", "the closed form's limit"),
            ("1/(n+25000)^8", "the closed form's limit"),
            ("1/(n+25000)^31", "the closed form's limit"),
            ("1/(n+1)^32", "pole of order 32"),
            ("1/n^200", "pole of order 200"),
        ],
    )
    def test_spec_size_limits_fail_fast(self, monkeypatch, expression, message):
        # refused when the spec is built (1/(n+8000)^31 once took 10.8 s in
        # assemble, and 1/(n+25000)^31 over 90 s)
        def refuse(*args):
            raise AssertionError("partial fractions reached")

        monkeypatch.setattr(engine, "decompose", refuse)
        code, out, err = _run(expression)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize(
        "expression, numeric",
        [
            (f"1/(n+{MAX_SHIFT})^2", "0.0000399992000106666666632533333372"),
            ("1/(n+2000)^31", "3.08118566533783638182139529462e-101"),
        ],
    )
    def test_largest_closed_forms_accepted(self, expression, numeric):
        # both values agree with a direct partial sum whose tail is negligible
        assert _run(expression, format="numeric") == (0, numeric + "\n", "")


class TestLongLiterals:
    @pytest.mark.parametrize(
        "expression, error",
        [
            ("1/(n+" + "1" * 5000 + ")^2", ShiftTooLarge),
            ("1/n^" + "1" * 5000, DegreeTooHigh),
            ("1/(n-" + "1" * 5000 + ")^2", NegativeIntegerShift),
            ("1/(n^2+" + "1" * 5000 + ")", NonLinearFactor),
        ],
        ids=["shift", "exponent", "negative-integer-shift", "nonlinear-factor"],
    )
    def test_past_the_int_str_cap(self, expression, error):
        # 5000 digits, past the interpreter's 4300-digit int-to-str cap: the
        # literal converts, and the error prints it whole
        with pytest.raises(error) as exc:
            parser.ast_to_spec(parser.parse_expression(expression))
        assert "1" * 5000 in str(exc.value)
        assert _run(expression) == (2, "", f"error: {exc.value}\n")

    def test_decimal_past_the_int_str_cap_accepted(self):
        # 0.55...5 with 4400 fives is 5/9 to 4400 digits
        code, out, err = _run("1/(n+0." + "5" * 4400 + ")^2")
        assert (code, err) == (0, "")
        numeric = out.splitlines()[1].removeprefix("numeric: ")
        with mpmath.workdps(40):
            value = mpmath.mpf(numeric)
            expected = mpmath.psi(1, mpmath.mpf(14) / 9)
            assert abs(value - expected) < 1e-29 * expected

    def test_literal_past_the_height_limit_fails_fast(self):
        # refused by its length before converting: Decimal takes tens of
        # seconds over 10^6 digits
        start = time.perf_counter()
        code, out, err = _run("1/(n+" + "1" * 10**6 + ")^2")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == "error: the expression has a literal of 1000000 digits > 19728\n"


class TestZeroSummand:
    ZEROS = ["0/n^2", "1/n^2 - 1/n^2", "0"]

    @pytest.mark.parametrize("expression", ZEROS)
    @pytest.mark.parametrize("sign", ["plain", "alternating"])
    def test_sums_to_zero(self, expression, sign):
        # the sum of 0 is 0, not a divergent series
        code, out, err = _run(expression, sign=sign)
        assert (code, out, err) == (0, "exact: 0\nnumeric: 0.0\n", "")

    @pytest.mark.parametrize("expression", ZEROS)
    @pytest.mark.parametrize("sign", ["plain", "alternating"])
    def test_verify_agrees(self, expression, sign):
        code, out, err = _run(expression, sign=sign, format="json", verify=True)
        doc = json.loads(out)
        assert (code, err) == (0, "")
        assert (doc["exact"], doc["numeric"], doc["partial_fractions"]) == ("0", "0.0", [])
        assert doc["verify"] == {
            "bracket_lo": "0.0",
            "bracket_hi": "0.0",
            "quadrature": "0.0",
            "agree": True,
        }

    def test_spec_has_no_poles(self):
        spec = parser.ast_to_spec(parser.parse_expression("1/n^2 - 1/n^2"))
        assert spec.numerator.is_zero() and spec.factors == FactorList([])

    @pytest.mark.parametrize("expression", ["1", "n+1", "1/n^0"])
    @pytest.mark.parametrize("sign", ["plain", "alternating"])
    def test_nonzero_constant_still_diverges(self, expression, sign):
        code, out, err = _run(expression, sign=sign)
        assert code == 2 and out == "" and "diverges" in err
        with pytest.raises(DegreeTooHigh):
            parser.ast_to_spec(parser.parse_expression(expression), sign)

    @pytest.mark.parametrize("sign, bound", [("plain", "deg P - 2"), ("alternating", "deg P - 1")])
    def test_nonzero_constant_message_names_the_sign(self, sign, bound):
        code, _, err = _run("n+1", sign=sign)
        assert code == 2 and bound in err and f"for {sign} sums" in err


class TestFactoring:
    SIX_POLES = "1/((n+1/3)*(n+1/2)*(n+3/5)*(n+2/3)*(n+5/7)*(n+3/4))"
    # shifts k/7 for k < 32: degree 32, and every prime below 37 is bad
    SEVENTHS = "1/(" + "*".join(f"(n+{k}/7)" for k in range(32)) + ")"

    def test_clustered_poles(self):
        start = time.perf_counter()
        code, out, _ = _run(self.SIX_POLES, format="json")
        assert time.perf_counter() - start < 1
        # mpmath.nsum agrees to all 30 digits
        assert code == 0 and json.loads(out)["numeric"] == "0.0664411097487909626791399092342"

    def test_seventh_shifts_degree_32(self):
        start = time.perf_counter()
        code, out, _ = _run(self.SEVENTHS, format="json")
        assert time.perf_counter() - start < 0.5
        # mpmath.nsum agrees to all 30 digits
        assert code == 0 and json.loads(out)["numeric"] == "1.52042757974121615814398467522e-15"

    def test_no_floating_point_root_finder(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath.polyroots called")

        monkeypatch.setattr(mpmath, "polyroots", refuse)
        shifts = FactorList([(F(k, 7), 1) for k in range(32)])
        assert factor_linear(shifts.expand()) == shifts


_numbers = st.one_of(
    st.integers(0, 30).map(str),
    st.builds("{}.{}".format, st.integers(0, 9), st.integers(0, 99)),
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 9)),
)
_expressions = st.recursive(
    st.one_of(st.just("n"), _numbers),
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.integers(0, 4)),
        inner.map("-{}".format),
    ),
    max_leaves=10,
)
_poles = st.builds("(n {} {})^{}".format, st.sampled_from("+-"), _numbers, st.integers(1, 3))
_summands = st.one_of(
    _expressions,
    st.builds(
        "({})/({})".format,
        _expressions,
        st.lists(st.one_of(_poles, _expressions), min_size=1, max_size=5).map("*".join),
    ),
)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_summands, st.booleans(), st.booleans())
def test_grammar_fuzz_exits_cleanly(expression, alternating, verify):
    """Any expression in the grammar ends in exit 0, 2 or 3, never a traceback."""
    sign = "alternating" if alternating else "plain"
    code, _, err = _run(expression, sign=sign, verify=verify)
    assert code in (0, 2, 3), err


class TestLargeShifts:
    def test_rational_part_beyond_int_str_digit_limit(self):
        # the rational part has ~4300-digit terms, past int.__str__'s default cap
        code, out, err = _run("1/(n+5000)^2", format="exact")
        assert code == 0 and err == ""
        m = re.fullmatch(r"-\((\d+)/(\d+)\) \+ \(1/6\)\*pi\^2\n", out)
        assert m is not None
        rational = -F(int(Decimal(m[1])), int(Decimal(m[2])))
        # sum_{n>=1} 1/(n+5000)^2 = pi^2/6 - H^(2)_5000, summed over lcm(1..5000)^2
        square = math.lcm(*range(1, 5001)) ** 2
        harmonic = F(sum(square // (k * k) for k in range(1, 5001)), square)
        assert rational == -harmonic

        code, out, _ = _run("1/(n+5000)^2", format="json")
        assert code == 0
        assert json.loads(out)["exact"] + "\n" == m[0]


    def test_coefficients_far_above_the_shift_threshold(self):
        # the psi series at the usual shift threshold cannot reach these
        # coefficients' precision; this ended in an ArithmeticError traceback
        expression = "1/((n+200)^31*(n+1/2)^31*(n+3/2)^31)"
        code, out, err = _run(expression, format="json", verify=True)
        assert code == 0 and err == ""
        doc = json.loads(out)
        v = doc["verify"]
        assert v["agree"] is True
        assert Decimal(v["bracket_lo"]) <= Decimal(doc["numeric"]) <= Decimal(v["bracket_hi"])


class TestExtremeScales:
    """Valid sums with coefficients or psi arguments far from 1; every one
    passes the limits table."""

    @staticmethod
    def _numeric(expression, **kwargs):
        code, out, err = _run(expression, format="json", **kwargs)
        assert code == 0 and err == ""
        doc = json.loads(out)
        if kwargs.get("verify"):
            assert doc["verify"]["agree"] is True
        return doc["numeric"]

    def test_argument_near_the_pole_at_0(self):
        # the psi argument is 10^-40 > 0; it was refused as a pole
        with mpmath.workdps(60):
            x = mpmath.mpf(10) ** -40
            plain = mpmath.psi(1, x)
            alternating = (mpmath.psi(1, x / 2) - mpmath.psi(1, (x + 1) / 2)) / 4
        expression = "1/(n-1+1/10^40)^2"
        for sign, ref in (("plain", plain), ("alternating", alternating)):
            text = self._numeric(expression, sign=sign, verify=True)
            assert text == mpmath.nstr(ref, 30, strip_zeros=False)
            assert text == "1.00000000000000000000000000000e+80"

    @pytest.mark.parametrize("expression", ["10^5000/n^2", "10^5000/n^2 + 1/n^3"])
    def test_huge_coefficients(self, expression):
        # the first exited 1 from a str() of a 5000-digit integer after ~40 s;
        # in the second the 1/n^3 term lies 5000 digits below the grid
        with mpmath.workdps(60):
            ref = mpmath.mpf(10) ** 5000 * mpmath.zeta(2) + mpmath.zeta(3)
        text = self._numeric(expression)
        assert text == mpmath.nstr(ref, 30, strip_zeros=False)
        assert text == "1.64493406684822643647241516665e+5000"

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tiny_coefficients(self, sign):
        # nothing cancels, yet the precision ceiling was reported
        with mpmath.workdps(60):
            ref = sign * mpmath.zeta(2) / mpmath.mpf(10) ** 5000
        prefix = "" if sign > 0 else "-"
        text = self._numeric(prefix + "1/(10^5000*n^2)", verify=True)
        assert text == mpmath.nstr(ref, 30, strip_zeros=False)
        assert text == prefix + "1.64493406684822643647241516665e-5000"

    def test_alternating_bracket_far_below_its_bound(self):
        # S ~ 5e-61 lies 109 digits below the bound M ~ 2.9e48 on the
        # composed alternating summand; the bracket stopped at M's scale
        with mpmath.workdps(60):
            ref = (mpmath.psi(19, mpmath.mpf(1001) / 2) - mpmath.psi(19, 501)) / (
                2 ** 20 * mpmath.factorial(19)
            )
        text = self._numeric("1/(n+1000)^20", sign="alternating", verify=True)
        assert text == mpmath.nstr(ref, 30, strip_zeros=False)


class TestCancellationDigit:
    """The alternating spec whose value ...93286097491 once printed ...974."""

    EXPRESSION = (
        "((9/3)*n^0 + (-3/3)*n^1 + (-9/3)*n^2 + (6/4)*n^3 + (-3/2)*n^4 + (9/3)*n^5 + n^6)"
        "/((n + (2))^2*(n + (6))^3*(n + (7))^3)"
    )

    def test_last_digit_rounds_true(self):
        code, out, _ = _run(self.EXPRESSION, sign="alternating", digits=100, format="numeric")
        assert code == 0
        assert out.endswith("66689932860975\n")

    def test_verify_agrees(self):
        code, out, err = _run(self.EXPRESSION, sign="alternating", digits=100, verify=True)
        assert code == 0 and err == ""
        assert out.splitlines()[-1].endswith("agree: true")


class TestRationalValue:
    def test_decimal_tie_prints(self):
        # 1/((n+a)(n+a+1)) telescopes to 1/(a+1) = 0.12345678905 exactly, a
        # tie at 10 digits that no fixed-point interval can round one way
        expression = "1/((n+17530864219/2469135781)*(n+20000000000/2469135781))"
        code, out, err = _run(expression, digits=10, verify=True)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "exact: (2469135781/20000000000)"
        # both neighbours are half a unit away
        assert lines[1] in ("numeric: 0.1234567890", "numeric: 0.1234567891")
        assert lines[2].endswith("agree: true")

    TIE = "1/((n-1/2000000001)*(n+2000000000/2000000001))"

    def test_exact_tie_rounds_away_from_zero(self, capsys):
        # the sum is 2000000001/2000000000 = 1.0000000005 exactly; rounding it
        # to a binary mpf first once printed 1.000000000
        code, out, err = _run(self.TIE, digits=10, verify=True)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[1] == "numeric: 1.000000001"
        assert lines[2].endswith("agree: true")
        assert main(["--digits", "10", "--verify", "--", "-" + self.TIE]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "numeric: -1.000000001"
        assert lines[2].endswith("agree: true")


class TestVerify:
    def test_verify_success(self):
        code, out, err = _run("1/(n^2+n/2)", verify=True)
        assert code == 0 and err == ""
        vline = out.splitlines()[-1]
        assert vline.startswith("verify: bracket [")
        assert vline.endswith("agree: true")

    def test_verify_alternating_simple_poles(self):
        code, out, _ = _run("1/(n+1/2)", sign="alternating", verify=True)
        assert code == 0
        assert "quadrature None" not in out.splitlines()[-1]

    def test_verify_alternating_higher_order_poles(self):
        # sum (-1)^(n+1)/n^2 = pi^2/12, checked by quadrature too
        code, out, _ = _run("1/n^2", sign="alternating", format="json", verify=True)
        assert code == 0
        v = json.loads(out)["verify"]
        assert v["agree"] is True
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(v["quadrature"]) - mpmath.pi ** 2 / 12) < 1e-15

    @pytest.mark.parametrize(
        "expression",
        ["1/(n+1/3)^2", "1/(n-3/4)^3", "(n^2+1)/((n+2)^2*(n+1/7)^3)"],
    )
    def test_verify_alternating_quadrature(self, expression):
        code, out, err = _run(expression, sign="alternating", verify=True)
        assert code == 0 and err == ""
        vline = out.splitlines()[-1]
        assert "quadrature None" not in vline
        assert vline.endswith("agree: true")

    def test_verify_shift_below_minus_one_has_no_quadrature(self):
        # no integral representation applies; the bracket alone certifies
        for sign in ("plain", "alternating"):
            code, out, _ = _run("1/(n-5/4)^2", sign=sign, verify=True)
            assert code == 0
            vline = out.splitlines()[-1]
            assert "quadrature None" in vline and vline.endswith("agree: true")

    def test_verify_oracle_error_exit_code(self, capsys, monkeypatch):
        import exactsum.cli as cli_mod

        def too_long(spec, policy):
            raise InsufficientTerms("the partial-sum bracket needs 400004 head terms")

        monkeypatch.setattr(cli_mod, "partial_sum_bracket", too_long)
        code = main(["1/(n+1/2)^2", "--verify"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_verify_far_numerator_root(self):
        # the terms change sign only at n = 10^6; the bracket's head depends
        # on the poles alone (this exited 1, then 2, with InsufficientTerms)
        code, out, err = _run("(n-1000000)/(n+1)^3", format="json", verify=True)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["verify"]["agree"] is True
        with mpmath.workdps(60):
            ref = mpmath.zeta(2) - 1 - 1000001 * (mpmath.zeta(3) - 1)
            assert mpmath.mpf(doc["verify"]["bracket_lo"]) <= ref
            assert ref <= mpmath.mpf(doc["verify"]["bracket_hi"])

    def test_verify_certifies_every_printed_digit(self):
        # ~40 digits cancel between the partial fractions; the printed
        # bracket now pins all 20 printed digits (it was ~2e-6 wide)
        code, out, _ = _run("n^28/(n+20)^30", digits=20, format="json", verify=True)
        assert code == 0
        doc = json.loads(out)
        v = doc["verify"]
        assert v["agree"] is True
        with mpmath.workdps(60):
            ref = mpmath.nsum(lambda n: n ** 28 / (n + 20) ** 30, [1, mpmath.inf])
            lo, hi = mpmath.mpf(v["bracket_lo"]), mpmath.mpf(v["bracket_hi"])
            assert lo <= ref <= hi
            assert hi - lo <= mpmath.mpf(10) ** -22  # one unit of the 20th digit
            assert lo <= mpmath.mpf(doc["numeric"]) <= hi

    def test_verify_rejects_wrong_last_digits(self, monkeypatch):
        # numeric off by 3 units in the 30th digit: quadrature agrees to far
        # more than 10^-10, but the bracket misses the printed value
        import exactsum.cli as cli_mod

        def skewed(spec, policy):
            result = evaluate(spec, policy)
            value = result.value + F(3, 10 ** 29)
            return dataclasses.replace(
                result, value=value, text=decimal_text(value, policy.target_digits)
            )

        monkeypatch.setattr(cli_mod, "evaluate", skewed)
        code, out, err = _run("1/n^2", verify=True)
        assert code == 3
        assert "agree: false" in out

    def test_verify_high_order_at_large_shift(self):
        # S ~ 2.9e-71 lies 71 digits below the bracket's bound M = 1 on |h|;
        # the bracket once stopped 8.8e-95 wide against a printed unit of 1e-100
        code, out, err = _run("1/(n+200)^31", format="json", verify=True)
        assert code == 0 and err == ""
        doc = json.loads(out)
        v = doc["verify"]
        assert v["agree"] is True
        assert Decimal(v["bracket_hi"]) - Decimal(v["bracket_lo"]) <= Decimal("1e-100")
        with mpmath.workdps(50):
            quad = mpmath.mpf(v["quadrature"])
            assert abs(quad - mpmath.mpf(doc["numeric"])) <= mpmath.mpf(10) ** -15 * quad

    def test_verify_at_1000_digits(self):
        code, out, err = _run("1/(n^2*(n+1/2))", digits=1000, verify=True)
        assert code == 0 and err == ""
        assert out.splitlines()[-1].endswith("agree: true")

    def test_verify_shift_between_minus_one_and_zero(self):
        # quadrature must reach 10^-15 here, where it once reached 4.5e-11
        code, out, _ = _run("-(9/4)*n/((n-3/4)*(n+3)^2)", verify=True)
        assert code == 0
        assert out.splitlines()[-1].endswith("agree: true")

    def test_verify_bracket_rounded_outward(self):
        # lo is rounded down and hi up to the printed digits
        code, out, _ = _run("1/(n^2+n/2)", format="json", verify=True)
        assert code == 0
        v = json.loads(out)["verify"]
        with mpmath.workdps(60):
            exact = 4 * (1 - mpmath.ln(2))
            assert mpmath.mpf(v["bracket_lo"]) <= exact <= mpmath.mpf(v["bracket_hi"])
        assert Decimal(v["bracket_hi"]) - Decimal(v["bracket_lo"]) == Decimal("1e-29")

    def test_verify_failure_exit_code(self, monkeypatch):
        # force a disagreement to exercise the failure path
        import exactsum.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "_quadrature_value", lambda spec, pf, policy: F(999)
        )
        code, out, err = _run("1/n^2", verify=True)
        assert code == 3
        assert "verification failed" in err
        assert "agree: false" in out


class TestJson:
    def test_schema_stability(self):
        code, out, _ = _run("1/(n^2+n/2)", format="json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "expression",
            "sign",
            "exact",
            "fully_reduced",
            "numeric",
            "digits",
            "residuals",
            "verify",
            "partial_fractions",
        }
        assert doc["exact"] == "4 - 4*ln(2)"
        assert doc["sign"] == "plain"
        assert doc["fully_reduced"] is True
        assert doc["residuals"] == []
        assert doc["verify"] is None
        pf = {(e["shift"], e["order"]): e["coeff"] for e in doc["partial_fractions"]}
        assert pf == {("0", 1): "2", ("1/2", 1): "-2"}

    def test_json_residuals(self):
        _, out, _ = _run("1/(n^2-1/9)", format="json")
        doc = json.loads(out)
        assert doc["fully_reduced"] is False
        assert doc["residuals"]
        entry = doc["residuals"][0]
        assert set(entry) == {"coeff", "order", "argument"}

    def test_json_verify_block(self):
        _, out, _ = _run("1/n^2", format="json", verify=True)
        doc = json.loads(out)
        v = doc["verify"]
        assert v["agree"] is True
        assert mpmath.mpf(v["bracket_lo"]) <= mpmath.mpf(doc["numeric"]) <= mpmath.mpf(
            v["bracket_hi"]
        )
        assert v["quadrature"] is not None


class TestMainEntry:
    def test_default_path_never_imports_mpmath(self):
        # mpmath serves only the quadrature oracle; the library calls below
        # return exact rationals without it
        script = (
            "import contextlib, io, json, sys\n"
            "from fractions import Fraction\n"
            "from exactsum.cli import main\n"
            "from exactsum.engine import evaluate\n"
            "from exactsum.oracle import partial_sum_bracket\n"
            "from exactsum.parser import ast_to_spec, parse_expression\n"
            "from exactsum.polygamma import polygamma, psi_sum\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    codes = [main(['1/n^2', '--digits', d, '--format', 'json']) for d in ('30', '1000')]\n"
            "assert codes == [0, 0] and 'mpmath' not in sys.modules, codes\n"
            "spec = ast_to_spec(parse_expression('1/(n^2*(n+1/3))'), 'alternating')\n"
            "values = [evaluate(spec).value, psi_sum([(1, 1, 1), (-2, 0, 2)]).exact,\n"
            "          polygamma(2, Fraction(1, 3)), partial_sum_bracket(spec).lower]\n"
            "assert all(isinstance(v, Fraction) for v in values), values\n"
            "assert 'mpmath' not in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()) as verify_out:\n"
            "    code = main(['1/n^2', '--format', 'json', '--verify'])\n"
            "assert code == 0 and json.loads(verify_out.getvalue())['verify']['agree'] is True\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_main_success(self, capsys):
        assert main(["1/(n^2+n/2)", "--format", "exact"]) == 0
        assert capsys.readouterr().out == "4 - 4*ln(2)\n"

    def test_main_error(self, capsys):
        assert main(["1/n"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_main_bad_digits(self, capsys):
        assert main(["1/n^2", "--digits", "3"]) == 2

    def test_main_alternating_flag(self, capsys):
        assert main(["1/n", "--alternating", "--format", "exact"]) == 0
        assert capsys.readouterr().out == "ln(2)\n"


def test_only_the_oracle_imports_mpmath():
    package = Path(__file__).resolve().parent.parent / "src" / "exactsum"
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "mpmath" for name in names):
                importers.add(path.name)
    assert importers == {"oracle.py"}
