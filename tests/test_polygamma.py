import decimal
import functools
import importlib
import math
import sys
import threading
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp, to_str

import exactsum.fixedpoint as fixedpoint
import exactsum.polygamma as polygamma_module
from exactsum.errors import OrderTooLarge, PoleArgument, PrecisionExhausted
from exactsum.fixedpoint import decimal_text
from exactsum.polygamma import (
    PrecisionPolicy, _ladder, _shift_div, bernoulli, polygamma, psi_sum,
)

from conftest import reference_decimal_text, to_mpf

POLICY = PrecisionPolicy(target_digits=30)

# Reference digits, frozen from widely tabulated constants.
with mpmath.workdps(40):
    GAMMA_30 = mpmath.mpf("0.577215664901532860606512090082")
    LN2_30 = mpmath.mpf("0.693147180559945309417232121458")
    PI_30 = mpmath.mpf("3.14159265358979323846264338328")
    ZETA3_30 = mpmath.mpf("1.20205690315959428539973816151")


def close(x, y, digits=28):
    return abs(x - y) < mpmath.mpf(10) ** (-digits) * max(1, abs(y))


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(12) == F(-691, 2730)
        assert bernoulli(7) == 0

    def test_matches_mpmath_bernfrac(self):
        for m in range(1001):
            assert bernoulli(m) == F(*mpmath.bernfrac(m)), m

    def test_cache_filled_once_per_precision(self):
        # the first call fills the table for every order and argument at
        # this precision; later calls must not refill it
        pg = importlib.import_module("exactsum.polygamma")
        policy = PrecisionPolicy(target_digits=500)
        polygamma(0, 1, policy)
        table = pg._even_bernoulli
        for n in (0, 1, 5, 30):
            for x in (F(1, 3), 7, F(-9, 4), F(1000003, 7)):
                polygamma(n, x, policy)
        assert pg._even_bernoulli is table


class TestDigamma:
    def test_psi_one(self):
        with mpmath.workdps(40):
            assert close(to_mpf(polygamma(0, 1, POLICY)), -GAMMA_30)

    def test_psi_half(self):
        with mpmath.workdps(40):
            assert close(to_mpf(polygamma(0, F(1, 2), POLICY)), -GAMMA_30 - 2 * LN2_30)

    def test_psi_two_recurrence(self):
        with mpmath.workdps(40):
            assert close(to_mpf(polygamma(0, 2, POLICY)), 1 - GAMMA_30)

    def test_pole_rejected(self):
        for x in (0, -1, -7, F(-4, 2)):
            with pytest.raises(PoleArgument):
                polygamma(0, x, POLICY)

    def test_near_pole_numeric_rejected(self):
        # only the pole itself is rejected: 10^-35 from it is a valid argument
        x = -3 + F(1, 10 ** 35)
        mine = to_mpf(polygamma(0, x, POLICY))
        with mpmath.workdps(80):
            assert close(mine, mpmath.psi(0, to_mpf(x)))

    def test_monotone_increasing_on_positive_axis(self):
        with mpmath.workdps(40):
            grid = [F(1, 10), F(1, 2), 1, F(13, 10), 2, F(29, 4), 20, 100]
            values = [to_mpf(polygamma(0, x, POLICY)) for x in grid]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestPolygamma:
    def test_psi1_at_one_is_zeta2(self):
        with mpmath.workdps(40):
            assert close(to_mpf(polygamma(1, 1, POLICY)), PI_30 ** 2 / 6)

    def test_psi1_at_half(self):
        with mpmath.workdps(40):
            assert close(to_mpf(polygamma(1, F(1, 2), POLICY)), PI_30 ** 2 / 2)

    def test_psi2_at_one(self):
        with mpmath.workdps(40):
            assert close(to_mpf(polygamma(2, 1, POLICY)), -2 * ZETA3_30)

    def test_zeta_identities_up_to_order_5(self):
        # psi^(n)(1) = (-1)^(n+1) n! zeta(n+1)
        # psi^(n)(1/2) = (-1)^(n+1) n! (2^(n+1)-1) zeta(n+1)
        with mpmath.workdps(40):
            for n in range(1, 6):
                zeta = mpmath.zeta(n + 1)
                sign = (-1) ** (n + 1)
                assert close(to_mpf(polygamma(n, 1, POLICY)), sign * math.factorial(n) * zeta)
                assert close(
                    to_mpf(polygamma(n, F(1, 2), POLICY)),
                    sign * math.factorial(n) * (2 ** (n + 1) - 1) * zeta,
                )

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            polygamma(31, 1, POLICY)

    def test_recurrence_residuals(self):
        # |psi^(n)(z+1) - psi^(n)(z) - (-1)^n n!/z^(n+1)| small on the grid
        with mpmath.workdps(60):
            tol = mpmath.mpf(10) ** (-POLICY.target_digits + 2)
            for z in (F(1, 10), F(1, 2), F(13, 10), F(29, 4)):
                for n in range(4):
                    lhs = to_mpf(polygamma(n, z + 1, POLICY)) - to_mpf(polygamma(n, z, POLICY))
                    rhs = to_mpf(F((-1) ** n * math.factorial(n)) / F(z) ** (n + 1))
                    assert abs(lhs - rhs) < tol

    def test_reflection_residuals(self):
        # psi(1-z) = psi(z) + pi*cot(pi z) for non-integer z
        with mpmath.workdps(60):
            tol = mpmath.mpf(10) ** (-POLICY.target_digits + 2)
            for z in (F(1, 3), F(1, 4), F(2, 5), F(7, 10)):
                lhs = to_mpf(polygamma(0, 1 - z, POLICY)) - to_mpf(polygamma(0, z, POLICY))
                zm = to_mpf(z)
                rhs = mpmath.pi * mpmath.cot(mpmath.pi * zm)
                assert abs(lhs - rhs) < tol

    def test_negative_noninteger_arguments(self):
        # upward recurrence through the negative axis
        with mpmath.workdps(60):
            for z in (F(-1, 2), F(-9, 4), F(-7, 3)):
                mine = to_mpf(polygamma(0, z, POLICY))
                ref = mpmath.psi(0, to_mpf(z))
                assert abs(mine - ref) < mpmath.mpf(10) ** (-28)


GRID_ARGUMENTS = [
    1, F(1, 2), F(1, 7), F(7, 3), F(-9, 4), F(25, 4), F(400, 3), F(1000003, 7), 200000,
]
GRID_ORDERS = [0, 1, 2, 3, 4, 5, 30]


class TestKernelAccuracy:
    """Relative error <= 10^-d against mpmath.psi evaluated at d + 40 digits.

    psi^(30)(200000) ~ 10^-128 needs the fixed-point kernel to carry
    ~30*log2(200000) bits beyond the target: an absolute 10^-d error
    would be relative error ~1 at 30 digits.
    """

    @pytest.mark.parametrize("digits", [30, 300, 1000])
    def test_grid(self, digits):
        policy = PrecisionPolicy(target_digits=digits)
        with mpmath.workdps(digits + 40):
            tol = mpmath.mpf(10) ** (-digits)
            for x in GRID_ARGUMENTS:
                ref_x = to_mpf(F(x))
                for n in GRID_ORDERS:
                    ref = mpmath.psi(n, ref_x)
                    assert abs(to_mpf(polygamma(n, x, policy)) - ref) <= tol * abs(ref), (n, x)

    @pytest.mark.parametrize("digits", [30, 300])
    def test_mpf_arguments(self, digits):
        # arguments off the grid above, one of them close to the pole at 0
        policy = PrecisionPolicy(target_digits=digits)
        with mpmath.workdps(digits + 40):
            tol = mpmath.mpf(10) ** (-digits)
            for x in (F(10, 3), F(-73, 10), F(1, 10 ** 5)):
                for n in GRID_ORDERS:
                    ref = mpmath.psi(n, to_mpf(x))
                    assert abs(to_mpf(polygamma(n, x, policy)) - ref) <= tol * abs(ref), (n, x)


class TestZeta:
    def test_cross_check_against_polygamma_route(self):
        # zeta(k) = (-1)^k psi^(k-1)(1) / (k-1)!
        with mpmath.workdps(40):
            for k in range(2, 9):
                via_psi = (-1) ** k * to_mpf(polygamma(k - 1, 1, POLICY)) / math.factorial(k - 1)
                assert close(mpmath.zeta(k), via_psi, digits=29)


class TestConstants:
    """The basis constants, from the kernel and from mpmath."""

    def test_ln2(self):
        # psi(1) - psi(1/2) = 2 ln 2
        with mpmath.workdps(40):
            assert close(mpmath.ln2, LN2_30)
            assert close((to_mpf(polygamma(0, 1, POLICY)) - to_mpf(polygamma(0, F(1, 2), POLICY))) / 2, LN2_30)

    def test_pi(self):
        # psi(3/4) - psi(1/4) = pi
        with mpmath.workdps(40):
            assert close(mpmath.pi, PI_30)
            assert close(to_mpf(polygamma(0, F(3, 4), POLICY)) - to_mpf(polygamma(0, F(1, 4), POLICY)), PI_30)

    def test_gamma_against_partial_sum_definition(self):
        # gamma = lim (sum 1/n - ln N); Euler-Maclaurin corrected partial sum
        with mpmath.workdps(50):
            n_cut = 50
            harmonic = mpmath.mpf(0)
            for n in range(1, n_cut + 1):
                harmonic += mpmath.mpf(1) / n
            est = harmonic - mpmath.ln(n_cut) - mpmath.mpf(1) / (2 * n_cut)
            est += to_mpf(bernoulli(2)) / (2 * n_cut ** 2)
            est += to_mpf(bernoulli(4)) / (4 * mpmath.mpf(n_cut) ** 4)
            est += to_mpf(bernoulli(6)) / (6 * mpmath.mpf(n_cut) ** 6)
            assert abs(-to_mpf(polygamma(0, 1, POLICY)) - est) < mpmath.mpf(10) ** (-12)
            assert close(-to_mpf(polygamma(0, 1, POLICY)), GAMMA_30)
            assert close(mpmath.euler, GAMMA_30)


class TestLn2Cache:
    """atanh(1/3) = ln(2)/2 per grid, computed once."""

    def test_same_integers_as_the_series(self, monkeypatch):
        atanh, calls = fixedpoint._atanh, []

        def spy(u, v, w):
            calls.append((u, v, w))
            return atanh(u, v, w)

        monkeypatch.setattr(fixedpoint, "_atanh", spy)
        for w in (64, 3411, 64, 3411, 0):
            assert fixedpoint.half_ln2(w) == atanh(1, 3, w)
        assert calls == [(1, 3, 64), (1, 3, 3411), (1, 3, 0)]
        # a ln of a ratio far from 1 takes ln 2 from the cache
        calls.clear()
        t, e = fixedpoint.ln_ratio(1560, 1, 3411)
        assert all((u, v) != (1, 3) for u, v, _ in calls)
        with mpmath.workprec(3500):
            assert abs(mpmath.mpf(t) - mpmath.ln(1560) * mpmath.mpf(2) ** 3411) <= e

    def test_cache_stays_within_its_bound(self):
        half_ln2 = fixedpoint.half_ln2
        size = half_ln2.cache_info().maxsize
        for w in range(size + 5):
            half_ln2(w)
            assert half_ln2.cache_info().currsize <= size
        # the latest grids are kept and the first ones dropped
        misses = half_ln2.cache_info().misses
        for w in range(5, size + 5):
            half_ln2(w)
        assert half_ln2.cache_info().misses == misses
        half_ln2(0)
        assert half_ln2.cache_info().misses == misses + 1


def test_higher_precision_self_consistency():
    # value at 30 digits must match the 60-digit evaluation to ~30 digits
    with mpmath.workdps(80):
        lo = PrecisionPolicy(target_digits=30)
        hi = PrecisionPolicy(target_digits=60)
        for order, arg in [(0, F(1, 3)), (1, F(7, 5)), (3, F(-5, 4))]:
            a = to_mpf(polygamma(order, arg, lo))
            b = to_mpf(polygamma(order, arg, hi))
            assert abs(a - b) < mpmath.mpf(10) ** (-29) * max(1, abs(b))


def _exact_ladder(q, p0, events, steps):
    """The rungs _ladder sums, in Fractions: rung j has the terms at offsets <= j."""
    total = F(0)
    for j in range(steps):
        y = p0 + j * q
        for o, n, k in events:
            if o <= j:
                total += F((-1) ** (n + 1) * math.factorial(n) * k * q ** (n + 1), y ** (n + 1))
    return total


def _assert_ladder_within_error(q, p0, events, steps, w):
    value, err = _ladder(q, p0, sorted(events), steps, w)
    assert abs(value - _exact_ladder(q, p0, events, steps) * F(2) ** w) <= err
    return err


@settings(max_examples=300, deadline=None)
@given(
    x=st.integers(-(2 ** 4000), 2 ** 4000), w=st.integers(-4000, 200), den=st.integers(1, 2 ** 300)
)
def test_shift_div_is_the_floor(x, w, den):
    assert _shift_div(x, w, den) == math.floor(F(x) * F(2) ** w / den)


class TestLadderError:
    """_ladder's counted error against the exact sum of its rungs times 2^w."""

    @pytest.mark.parametrize("q, p0, events, steps, w", [
        # one order, blocks of one size and a partial last block
        (3, 1, [(0, 1, 1)], 301, 3400),
        (1, 1, [(0, 0, 1)], 157, 3400),
        # events in mid-ladder split it into segments of mixed orders
        (4, 3, [(0, 0, 5), (0, 2, -3), (37, 1, 7), (120, 0, -5), (121, 3, 2)], 260, 3400),
        # a finite class: its coefficients cancel at the last event
        (5, 2, [(0, 1, 3), (0, 0, 2), (90, 1, -3), (131, 0, -2)], 131, 3400),
        # a negative argument, whose rungs pass near zero
        (3, -7, [(0, 1, 2), (0, 0, -1), (40, 0, 1)], 150, 3400),
    ], ids=["one-order", "digamma", "mid-ladder-events", "finite-class", "negative-argument"])
    def test_blocked_ladder(self, q, p0, events, steps, w):
        err = _assert_ladder_within_error(q, p0, events, steps, w)
        assert err < steps / 3  # floored in blocks, not once per rung

    @pytest.mark.parametrize("q, p0, events, steps, w", [
        (3, 1, [(0, 0, 1), (0, 1, -2), (10, 2, 1)], 70, 150),
        (6, 5, [(0, 1, 3 * 2 ** 70), (0, 2, -(2 ** 65)), (15, 0, 4 * 2 ** 60)], 80, -40),
        (2, 1, [(0, 3, -(10 ** 30)), (5, 0, 7)], 40, 0),
    ], ids=["30-digit-grid", "negative-w", "zero-w"])
    def test_per_rung_ladder(self, q, p0, events, steps, w):
        _assert_ladder_within_error(q, p0, events, steps, w)

    def test_events_past_the_ladder_add_no_rungs(self):
        # one rung of C_0 = 4 at y = 1; the event at offset 3 lies past it
        assert _ladder(1, 1, [(0, 0, 4), (3, 0, 1)], 1, 0) == (-4, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(1, 8),
        p0=st.integers(-20, 40),
        events=st.lists(
            st.tuples(
                st.integers(0, 120), st.integers(0, 4), st.integers(-10 ** 6, 10 ** 6).filter(bool)
            ),
            min_size=1, max_size=5,
        ),
        steps=st.integers(1, 160),
        w=st.integers(-80, 4000),
    )
    def test_random_ladders(self, q, p0, events, steps, w):
        # no rung may sit on the pole at 0; events may lie past the ladder
        if p0 <= 0 and p0 % q == 0:
            p0 += q * (1 - p0 // q)
        _assert_ladder_within_error(q, p0, events, steps, w)


class TestHighPrecisionSums:
    """psi_sum at 1000 digits, whose ladders are floored in blocks."""

    @pytest.mark.parametrize("terms", [
        [(1, 0, F(1, 3)), (-2, 1, F(4, 3)), (1, 2, F(7, 3))],
        [(F(5, 7), 0, F(1, 4)), (-3, 3, F(9, 4)), (F(-1, 2), 0, F(21, 4)), (4, 1, F(5, 4))],
        [(2, 1, F(2, 5)), (-7, 4, F(12, 5)),
         (3, 0, F(1, 6)), (-3, 0, F(7, 6)), (F(1, 9), 2, F(-13, 6))],
    ], ids=["psi-orders-0-1-2", "mixed-signs", "three-classes"])
    def test_matches_mpmath(self, monkeypatch, terms):
        ladders = []

        def spy(q, p0, events, steps, w):
            value, err = _ladder(q, p0, events, steps, w)
            ladders.append((steps, err))
            return value, err

        monkeypatch.setattr(polygamma_module, "_ladder", spy)
        text = decimal_text(psi_sum(terms, PrecisionPolicy(target_digits=1000)), 1000)
        with mpmath.workdps(1030):
            reference = mpmath.fsum(to_mpf(F(c)) * mpmath.psi(n, to_mpf(x)) for c, n, x in terms)
            assert text == mpmath.nstr(reference, 1000, strip_zeros=False)
        assert any(steps > 1000 for steps, _ in ladders)
        assert all(err < steps / 3 for steps, err in ladders if steps > 1000)


_CACHE_TERMS = st.lists(
    st.tuples(
        st.builds(F, st.integers(-50, 50).filter(bool), st.integers(1, 9)),
        st.integers(0, 4),
        st.builds(F, st.integers(-36, 72), st.integers(1, 12)).filter(
            lambda x: not (x.denominator == 1 and x <= 0)
        ),
    ),
    min_size=1, max_size=4, unique_by=lambda term: term[1:],
)


def _psi_sum_outcome(terms, digits):
    try:
        return psi_sum(terms, PrecisionPolicy(digits))
    except PrecisionExhausted:  # an exactly zero sum, in every cache state alike
        return PrecisionExhausted


class TestBaseCache:
    """The process-wide cache of psi^(n)(b/q) at the classes' bases."""

    @settings(max_examples=25, deadline=None)
    @given(terms=_CACHE_TERMS, digits=st.integers(10, 300),
           other=_CACHE_TERMS, other_digits=st.integers(10, 300))
    def test_value_does_not_depend_on_the_cache(self, terms, digits, other, other_digits):
        polygamma_module._psi_at_base.cache_clear()
        cold = _psi_sum_outcome(terms, digits)
        # the same bases and grids under other coefficients, then other terms and digits
        warm_up = [([(-3 * c, n, x) for c, n, x in terms], digits),
                   (other, other_digits), (other, digits), (terms, other_digits)]
        for warm_terms, warm_digits in warm_up:
            _psi_sum_outcome(warm_terms, warm_digits)
        assert _psi_sum_outcome(terms, digits) == cold

    def test_cache_stays_within_its_bound(self):
        cache = polygamma_module._psi_at_base
        size = cache.cache_info().maxsize
        for q in range(2, size + 20):
            psi_sum([(1, 1, F(1, q))], PrecisionPolicy(10))
            assert cache.cache_info().currsize <= size
        assert cache.cache_info().currsize == size

    def test_threads_get_identical_results(self, monkeypatch):
        # a bound below the calls' working set keeps every thread evicting
        monkeypatch.setattr(polygamma_module, "_psi_at_base",
                            functools.lru_cache(4)(polygamma_module._psi_at_base.__wrapped__))
        calls = [([(1, n, F(p, q)), (-2, n + 1, F(p + 2 * q, q)), (3, 0, F(p - q, q))], digits)
                 for n in range(3) for p, q in ((1, 3), (5, 7), (2, 5)) for digits in (20, 60)]
        serial = [psi_sum(terms, PrecisionPolicy(digits)) for terms, digits in calls]
        results = [None] * 4

        def work(i):
            results[i] = [psi_sum(terms, PrecisionPolicy(digits)) for terms, digits in calls]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * 4
        assert polygamma_module._psi_at_base.cache_info().currsize <= 4

    def test_second_request_on_the_same_bases_climbs_no_long_ladder(self, monkeypatch):
        policy = PrecisionPolicy(target_digits=1000)
        psi_sum([(1, 0, F(1, 3)), (-2, 1, F(4, 3)), (3, 0, F(-5, 4)), (1, 1, F(3, 4))], policy)
        ladders = []

        def spy(q, p0, events, steps, w):
            ladders.append(steps)
            return _ladder(q, p0, events, steps, w)

        monkeypatch.setattr(polygamma_module, "_ladder", spy)
        psi_sum([(5, 0, F(7, 3)), (1, 1, F(1, 3)), (-4, 0, F(3, 4)), (2, 1, F(11, 4))], policy)
        assert ladders and max(ladders) <= 10


def test_series_skips_dead_orders_bit_identically(monkeypatch):
    # psi^(n)(1/3), n <= 30, at 1000 digits: each series runs its Horner sum
    # from order n down to n only and scales it by rho_n(k); a zero weight
    # at order 0 makes the same call run the sum over every order 0..n,
    # which must give the same integers
    series, lows = polygamma_module._series, []

    def both(q, big_p, totals, terms, w):
        value, err = series(q, big_p, totals, terms, w)
        assert series(q, big_p, {0: 0, **totals}, terms, w)[0] == value
        lows.append(min(totals))
        return value, err

    monkeypatch.setattr(polygamma_module, "_series", both)
    for n in range(31):
        polygamma(n, F(1, 3), PrecisionPolicy(target_digits=1000))
    assert sorted(lows) == list(range(31))


def test_near_tie_reruns_until_the_rounding_is_decided(monkeypatch):
    # pi^2/6 + r (psi(2) - psi(1)) = 1.0000000005 + (pi^2/6 - floor(10^40 pi^2/6)/10^40):
    # ~5e-41 above a decimal tie at 10 digits
    psi_pass, passes = polygamma_module._psi_pass, []

    def spy(classes, w, wd):
        passes.append(wd)
        return psi_pass(classes, w, wd)

    monkeypatch.setattr(polygamma_module, "_psi_pass", spy)
    tie = F("1.0000000005")
    with mpmath.workdps(80):
        scaled = mpmath.pi ** 2 / 6 * mpmath.mpf(10) ** 40
        above = scaled - mpmath.floor(scaled)  # (S - tie) 10^40, far from 0 and 1
        assert mpmath.mpf(10) ** -30 < above < 1 - mpmath.mpf(10) ** -30
        r = tie - F(int(mpmath.floor(scaled)), 10 ** 40)
    # S lies just above the tie, so to nearest it is the tie rounded up
    # (mpmath.nstr at 80 digits prints 1.000000000)
    reference = decimal_text(tie, 10, direction=1)
    value = psi_sum([(1, 1, 1), (-r, 0, 1), (r, 0, 2)], PrecisionPolicy(10))
    assert decimal_text(value, 10) == reference == "1.000000001"
    assert len(passes) >= 3


@pytest.mark.parametrize("digits", [10, 1000])
def test_ends_compared_as_integers_rerun_near_a_tie(monkeypatch, digits):
    # pi^2/6 + r (psi(2) - psi(1)) lies ~10^-(digits+30) above the tie
    # 1 + 5 10^-digits; a pass whose two ends round to different digits,
    # (q, e) and (q + 1, e), reruns, and at 1000 digits the ends are
    # ~3370-bit dyadics
    rounded, ends = polygamma_module._rounded_digits, []

    def spy(x, target, direction=0, den=1):
        result = rounded(x, target, direction, den)
        ends.append((result, den))
        return result

    monkeypatch.setattr(polygamma_module, "_rounded_digits", spy)
    tie = 1 + F(5, 10 ** digits)
    with mpmath.workdps(digits + 80):
        scaled = mpmath.pi ** 2 / 6 * mpmath.mpf(10) ** (digits + 30)
        assert 10 ** -30 < scaled - mpmath.floor(scaled) < 1 - 10 ** -30
        r = tie - F(int(mpmath.floor(scaled)), 10 ** (digits + 30))
    value = psi_sum([(1, 1, 1), (-r, 0, 1), (r, 0, 2)], PrecisionPolicy(digits))
    monkeypatch.undo()
    pairs = [(ends[i][0], ends[i + 1][0]) for i in range(0, len(ends), 2)]
    low = (10 ** (digits - 1), 0)
    assert pairs[-1] == ((low[0] + 1, 0),) * 2
    assert (low, (low[0] + 1, 0)) in pairs[:-1]
    assert decimal_text(value, digits) == "1." + "0" * (digits - 2) + "1"
    if digits == 1000:
        assert min(den.bit_length() for _, den in ends) > 3300


@settings(max_examples=20, deadline=None)
@given(terms=_CACHE_TERMS, digits=st.integers(10, 1000), sign=st.sampled_from([1, -1]))
def test_certified_digits_print_as_the_dyadic_does(terms, digits, sign):
    # the engine prints psi_dyadic's digits as they are, with no third
    # rounding: the text decimal_text makes of psi_sum's dyadic
    terms = [(sign * c, n, x) for c, n, x in terms]
    policy = PrecisionPolicy(digits)
    try:
        m, k, certified = polygamma_module.psi_dyadic(terms, policy)
    except PrecisionExhausted:  # an exactly zero sum
        return
    value = psi_sum(terms, policy)
    assert value == F(m, 1 << k)
    assert fixedpoint.digits_text(*certified, digits) == decimal_text(value, digits)


def test_exact_zero_reaches_the_precision_ceiling():
    # psi'(1/3) + psi'(2/3) = 4 pi^2/3 = 8 psi'(1): no pass can bound the sum away from 0
    with pytest.raises(PrecisionExhausted):
        psi_sum([(1, 1, F(1, 3)), (1, 1, F(2, 3)), (-8, 1, 1)])


@st.composite
def decimal_cases(draw):
    """(x, digits, den): psi_sum's (int, 2^k) ends, odd 2^k denominators
    on x and on den, and values within one unit of the den grid of a tie."""
    digits = draw(st.integers(10, 1000))
    kind = draw(st.sampled_from(["psi_sum", "odd", "tie"]))
    if kind == "psi_sum":
        return draw(st.integers(-(2 ** 3400), 2 ** 3400)), digits, 1 << draw(st.integers(0, 3500))
    odd = 2 * draw(st.integers(0, 2 ** 200)) + 1
    den = draw(st.sampled_from([1, 3, 5 ** 7, 2 * draw(st.integers(0, 2 ** 20)) + 1]))
    den <<= draw(st.integers(0, 400))
    x_den = odd << draw(st.integers(0, 3400))
    if kind == "odd":
        return F(draw(st.integers(-(2 ** 4000), 2 ** 4000)), x_den), digits, den
    # the tie (10 q + 5) 10^(e - digits), then floor(tie D) or one unit above it
    q = draw(st.integers(10 ** (digits - 1), 10 ** digits - 1))
    tie = (10 * q + 5) * F(10) ** (draw(st.integers(-40, 40)) - digits)
    big_d = x_den * den
    units = tie.numerator * big_d // tie.denominator + draw(st.sampled_from([0, 1]))
    return F(units * draw(st.sampled_from([1, -1])), x_den), digits, den


class TestDecimalText:
    """decimal_text against mpmath's own printer, the reference it replaces."""

    @staticmethod
    def _reference(m, e, digits):
        return to_str(from_man_exp(m, e), digits, strip_zeros=False)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(2 ** 3400), 2 ** 3400),
        st.integers(-4000, 1000),
        st.integers(10, 1000),
    )
    def test_matches_mpmath_to_str(self, m, e, digits):
        assert decimal_text(m * F(2) ** e, digits) == self._reference(m, e, digits)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(2 ** 400), 2 ** 400),
        st.integers(1, 2 ** 400),
        st.integers(10, 120),
    )
    def test_directed_rounding_matches_decimal(self, num, den, digits):
        x = F(num, den)
        for direction, mode in ((-1, decimal.ROUND_FLOOR), (1, decimal.ROUND_CEILING)):
            with decimal.localcontext() as ctx:
                ctx.prec, ctx.rounding = digits, mode
                rounded = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
            text = decimal_text(x, digits, direction)
            assert F(text) == F(rounded)
            # a value already on the digit grid prints as itself
            assert text == decimal_text(F(rounded), digits)

    @pytest.mark.parametrize(
        "x, digits, text",
        [
            (0, 10, "0.0"),
            (F(137681640625, 10 ** 9), 11, "137.68164063"),  # a dyadic tie
            (F(-137681640625, 10 ** 9), 11, "-137.68164063"),
            (1489985536, 10, "1489985536."),  # an integer that fills every digit
            (F(99999999995, 10 ** 10), 10, "10.00000000"),  # carry to 10^1
            (F(-99999999995, 10 ** 10), 10, "-10.00000000"),
            (F(99999999995, 10), 10, "1.000000000e+10"),  # carry past the fixed range
            (1234567890, 10, "1234567890."),  # e = 9 = d - 1: fixed
            (12345678901, 10, "1.234567890e+10"),  # e = d: exponent
            (F(123456789, 10 ** 12), 10, "0.0001234567890"),  # e = -4: fixed
            (F(123456789, 10 ** 13), 10, "1.234567890e-5"),  # e = -5: exponent
            (F(1, 10 ** 9), 30, "0.00000000100000000000000000000000000000"),  # e = -9
            (F(1, 10 ** 10), 30, "1.00000000000000000000000000000e-10"),  # e = -10 = -30/3
        ],
    )
    def test_explicit_cases(self, x, digits, text):
        assert decimal_text(x, digits) == text
        x = F(x)
        if x.denominator & (x.denominator - 1) == 0:  # a dyadic: mpmath prints it exactly
            assert text == self._reference(x.numerator, 1 - x.denominator.bit_length(), digits)

    def test_zero_in_every_direction(self):
        assert [decimal_text(0, 10, d) for d in (-1, 0, 1)] == ["0.0"] * 3

    def test_directed_carry(self):
        x = F(99999999991, 10 ** 10)
        assert decimal_text(x, 10, 1) == "10.00000000"
        assert decimal_text(x, 10, -1) == "9.999999999"
        assert decimal_text(-x, 10, -1) == "-10.00000000"
        assert decimal_text(-x, 10, 1) == "-9.999999999"

    @settings(max_examples=400, deadline=None)
    @given(decimal_cases())
    def test_matches_the_division_reference(self, case):
        x, digits, den = case
        for direction in (-1, 0, 1):
            assert (decimal_text(x, digits, direction, den=den)
                    == reference_decimal_text(x, digits, direction, den=den))

    def test_more_digits_than_the_int_to_str_cap(self):
        # a rational library value at 5000 digits; str() of an int stops at 4300
        assert decimal_text(F(11, 18), 5000) == "0.6" + "1" * 4999
