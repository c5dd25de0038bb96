import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from exactsum import polys
from exactsum.errors import DuplicateShift, NegativeIntegerShift, NonLinearFactor
from exactsum.polys import FactorList, Polynomial, factor_linear, primitive_gcd

from conftest import expand, from_pairs, reduced


def P(*coeffs):
    return Polynomial(coeffs)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)

    def test_divmod_by_hand(self):
        # (2n^2 + n) / n  ->  2n + 1 exactly over Z
        assert P(0, 1, 2).exact_div(P(0, 1)) == P(1, 2)
        # 3n + 1 does not divide 2n^2 + n over Q, nor 2 divide 2n + 1 over Z
        assert P(0, 1, 2).exact_div(P(1, 3)) is None
        assert P(1, 2).exact_div(P(2)) is None

    def test_add_zero_identity(self):
        p = P(3, F(1, 7), 2)
        assert p + Polynomial() == p

    def test_divmod_reconstructs(self):
        lhs, rhs = P(1, 0, -2, 5), P(1, 3)
        assert (lhs * rhs).exact_div(rhs) == lhs
        assert (lhs * rhs + P(1)).exact_div(rhs) is None

    def test_division_by_zero_polynomial(self):
        with pytest.raises(ValueError):
            P(1, 1).exact_div(Polynomial())

    def test_degree_of_zero(self):
        assert Polynomial().degree == -1

    def test_evaluation(self):
        p = P(1, 0, 1)  # n^2 + 1
        assert p.value(F(1, 2)) == F(5, 4)
        assert p.value(2.0) == 5.0
        assert p.compose(2, -1) == P(2, -4, 4)  # (2n - 1)^2 + 1

    def test_primitive_part(self):
        content, prim = P(F(-2, 3), 0, F(4, 9)).primitive()
        assert (content, prim) == (F(2, 9), P(-3, 0, 2))
        assert P(0, -6).primitive() == (F(-6), P(0, 1))

    @pytest.mark.parametrize(
        "p",
        [
            P(-3),
            P(F(2, 5)),
            P(0, 0, -2),
            P(0, F(-3, 7)),
            P(0, 0, 0, 1),
            P(1, 1),
            P(0, 1, -1),
            Polynomial(),
        ],
        ids=[
            "negative-constant",
            "fraction-constant",
            "negative-monomial",
            "fraction-monomial",
            "n^3",
            "binomial",
            "no-constant-term",
            "zero",
        ],
    )
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_power_is_repeated_multiplication(self, p, k):
        expected = P(1)
        for _ in range(k):
            expected = expected * p
        assert p ** k == expected
        assert [type(c) for c in (p ** k).coeffs] == [type(c) for c in expected.coeffs]


class TestGcd:
    def test_common_linear_factor(self):
        assert primitive_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_gcd_with_zero_is_primitive(self):
        assert primitive_gcd(P(2, 4), Polynomial()) == P(1, 2)

    def test_distinct_roots_coprime(self):
        assert primitive_gcd(P(0, 1), P(F(1, 2), 1)) == P(1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive_gcd(Polynomial(), Polynomial())


class TestFactorLinear:
    def test_half_shift_pair_denominator(self):
        fl = factor_linear(P(0, F(1, 2), 1))  # n^2 + n/2
        assert fl.pairs == ((F(0), 1), (F(1, 2), 1))

    def test_double_pole_half_shift_denominator(self):
        fl = factor_linear(P(0, 0, F(1, 2), 1))  # n^3 + n^2/2 = n^2 (n+1/2)
        assert fl.pairs == ((F(0), 2), (F(1, 2), 1))

    def test_irreducible_quadratic(self):
        with pytest.raises(NonLinearFactor) as exc:
            factor_linear(P(1, 0, 1))
        assert exc.value.remainder.degree == 2

    def test_negative_integer_shift_rejected(self):
        with pytest.raises(NegativeIntegerShift):
            factor_linear(P(-2, 1))  # n - 2: pole at n = 2

    def test_large_smooth_constant(self):
        fl = FactorList([(F(19, 17), 2), (F(13, 11), 1), (5, 3)])
        p = expand(fl) * F(7, 3)
        assert factor_linear(p) == fl

    @pytest.mark.parametrize(
        "pairs",
        [
            [(F(1000003, 999983), 1), (F(1, 2), 1)],  # constants past 10^6
            [(F(1000003, 999983), 2), (1000003, 1)],
            [(F(1, 1000), 1), (F(1, 1001), 1)],  # roots 1/1001000 apart
            [(F(1, 1000), 2), (F(1, 1001), 3), (F(1, 999), 1)],
            [(F(1, 3), 7)],  # one square-free part at multiplicity 7
            [(F(1, 3), 7), (F(2, 3), 1), (0, 4)],
            [(0, 3)],  # root at zero
            [(0, 2), (F(-5, 2), 2), (F(7, 4), 1)],
        ],
    )
    def test_hard_denominators(self, pairs):
        fl = FactorList(pairs)
        p = expand(fl) * F(-11, 6)
        assert factor_linear(p) == fl

    def test_rational_roots_beside_a_root_cluster(self):
        # n^6 - 2(10^5 n - 1)^2 has two irrational roots very close to each
        # other and to 10^-5; telling them apart needs more than the
        # starting precision, and the rational roots must still be found.
        m = P(0, 0, 0, 0, 0, 0, 1) - P(-1, 10 ** 5) ** 2 * 2
        p = m * P(F(-1, 10 ** 5), 1) ** 2 * P(F(1, 10 ** 5 + 1), 1)
        with pytest.raises(NonLinearFactor) as exc:
            factor_linear(p)
        assert exc.value.remainder == m  # m is monic

    def test_smallest_primes_all_bad(self):
        # the numerators 0..40 collide mod every prime below 41 and the lead
        # 41*43*47 rules out the next three, so the first good prime is 53
        lead = 41 * 43 * 47
        fl = FactorList([(F(k, lead), 1) for k in range(41)])
        assert factor_linear(expand(fl) * lead) == fl

    def test_prime_past_cauchys_bound(self):
        # (n + 2)(n - 1)(n^2 + 1) has a double root mod 2, 3 and 5, so its
        # prime is 7, already past twice Cauchy's bound 1 + 2: each root is
        # still lifted once and tried
        p = P(2, 1) * P(-1, 1) * P(1, 0, 1)
        with pytest.raises(NonLinearFactor) as exc:
            factor_linear(p)
        assert exc.value.remainder == P(1, 0, 1)
        assert factor_linear(p, P(-1, 1) * P(1, 0, 1)) == (P(1), FactorList([(2, 1)]))

    def test_good_prime_past_the_residue_search(self):
        # every prime a residue search would take divides the lead, so the
        # roots mod the first good prime come from splitting by gcds
        last = polys._SEARCH_FACTOR * 3
        lead = math.prod(q for q in range(2, last + 1) if all(q % d for d in range(2, q)))
        fl = FactorList([(F(1, lead), 1), (F(2, lead), 1)])
        assert factor_linear(expand(fl) * lead) == fl

    def test_degree_256_shifts_over_a_prime(self):
        # 256 roots k/257 share one lead, the largest a request may fold;
        # each is lifted on the square-free part itself until its
        # reconstruction divides it
        fl = FactorList([(F(k, 257), 1) for k in range(1, 257)])
        assert factor_linear(expand(fl)) == fl

    def test_roots_mod_a_large_prime(self):
        p = 10007  # p = 3 mod 4, so n^2 + 1 has no root mod p
        roots = [0, 1, 5, 1234, p - 1]
        f = math.prod((P(-r, 1) for r in roots), start=P(1, 0, 1))
        assert sorted(polys._roots_mod(Polynomial([c % p for c in f.coeffs]), p)) == roots

    def test_remainder_is_monic_leftover(self):
        p = P(1, 0, 1) * expand(FactorList([(F(1, 2), 2)])) * 3
        with pytest.raises(NonLinearFactor) as exc:
            factor_linear(p)
        assert exc.value.remainder == P(1, 0, 1)

    def test_remainder_carries_multiplicity(self):
        p = P(2, 0, 1) ** 2 * P(-3, 0, 0, 1) * P(1, 1)
        with pytest.raises(NonLinearFactor) as exc:
            factor_linear(p)
        assert exc.value.remainder == P(2, 0, 1) ** 2 * P(-3, 0, 0, 1)


class TestFactorList:
    def test_duplicate_shift_rejected(self):
        with pytest.raises(DuplicateShift):
            FactorList([(F(1, 2), 1), (F(1, 2), 2)])

    def test_from_pairs_merges(self):
        fl = from_pairs([(F(1, 2), 1), (F(1, 2), 2), (0, 1)])
        assert fl.pairs == ((F(0), 1), (F(1, 2), 3))

    def test_total_degree(self):
        assert FactorList([(0, 2), (F(1, 2), 1)]).total_degree == 3

    def test_fraction_shifts_kept_and_others_wrapped(self):
        half = F(1, 2)
        (zero, _), (kept, _) = FactorList([(half, 1), (0, 2)]).pairs
        assert kept is half
        assert type(zero) is F and zero == 0


class TestRfNormalize:
    """Reduction of a quotient by the test helper `reduced`."""

    def test_cancel_common_factor(self):
        # (n-1)/(n^2-1) -> 1/(n+1)
        assert reduced(P(-1, 1), P(-1, 0, 1)) == (P(1), P(1, 1))

    def test_scalar_cancellation(self):
        assert reduced(P(2), P(0, 2)) == (P(1), P(0, 1))  # 2/(2n) -> 1/n

    def test_already_reduced(self):
        # the numerator is over the monic denominator, n^2 + n/2
        assert reduced(P(1), P(0, F(1, 2), 1)) == (P(1), P(0, 1, 2))
        assert reduced(P(3), P(0, -2, -4)) == (P(F(-3, 4)), P(0, 1, 2))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            reduced(P(1), Polynomial())


# -- properties -----------------------------------------------------------------

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=20
)
shifts = st.fractions(min_value=-20, max_value=20, max_denominator=50).filter(
    lambda a: not (a.denominator == 1 and a < 0)
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(shifts, min_size=1, max_size=6, unique=True),
    st.lists(st.integers(1, 4), min_size=6, max_size=6),
    rationals.filter(lambda c: c != 0),
)
def test_factor_roundtrip(roots, mults, lead):
    fl = FactorList([(a, m) for a, m in zip(roots, mults)])
    p = expand(fl) * lead
    out = factor_linear(p)
    assert out == fl
    assert expand(out) * p.leading == p


def _brute_rational_roots(f):
    """The rational roots of integer f by the rational-root theorem: every
    root of f / n^k is some +-d1/d2 with d1 | f's lowest nonzero coefficient
    and d2 | lead."""
    low = next(c for c in f.coeffs if c)
    divisors = [
        {d for k in range(1, math.isqrt(abs(c)) + 1) if c % k == 0 for d in (k, abs(c) // k)}
        for c in (low, f.leading)
    ]
    candidates = {F(s * d1, d2) for d1 in divisors[0] for d2 in divisors[1] for s in (1, -1)}
    return sorted(z for z in candidates | {F(0)} if f.value(z) == 0)


_quadratics = st.tuples(st.integers(1, 4), st.integers(-9, 9), st.integers(-9, 9)).filter(
    lambda t: math.gcd(*t) == 1 and math.isqrt(max(t[1] ** 2 - 4 * t[0] * t[2], 0)) ** 2
    != t[1] ** 2 - 4 * t[0] * t[2]
)
_cubics = st.tuples(st.integers(1, 3), *[st.integers(-9, 9)] * 3).filter(
    lambda t: math.gcd(*t) == 1 and not _brute_rational_roots(Polynomial(reversed(t)))
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=6), max_size=4, unique=True),
    st.lists(st.one_of(_quadratics, _cubics).map(lambda t: Polynomial(reversed(t))),
             max_size=2, unique=True),
)
def test_rational_roots_match_the_rational_root_theorem(roots, cofactors):
    """A primitive square-free product of linear factors and irreducible
    quadratics or cubics gives back its rational roots, and factor_linear
    the cofactors as its remainder."""
    assume(roots or cofactors)
    rest = math.prod(cofactors, start=P(1))
    f = math.prod((P(-r.numerator, r.denominator) for r in roots), start=rest)
    found = polys._rational_roots(f.coeffs)
    assert all(q > 0 and math.gcd(p, q) == 1 for p, q in found)
    assert sorted(F(p, q) for p, q in found) == _brute_rational_roots(f) == sorted(roots)
    if cofactors:
        with pytest.raises(NonLinearFactor) as exc:
            factor_linear(f)
        assert exc.value.remainder == rest
    elif not any(r.denominator == 1 and r > 0 for r in roots):
        assert factor_linear(f) == FactorList([(-r, 1) for r in roots])


_tall_shifts = st.builds(F, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(_tall_shifts, shifts), st.integers(1, 4)), min_size=1,
             max_size=5, unique_by=lambda t: t[0]).filter(
        lambda pairs: not any(a.denominator == 1 and a < 0 for a, _ in pairs)),
    st.one_of(st.none(), st.one_of(_quadratics, _cubics).map(lambda t: Polynomial(reversed(t)))),
)
def test_lifts_run_past_their_first_reconstructions(pairs, cofactor):
    """Roots of height up to 10^12 over 10^6 beside small ones: a root's
    early reconstructions fail to divide, and its lift goes on until one
    does.  factor_linear gives back the factors, or the cofactor as its
    remainder."""
    fl = FactorList(pairs)
    if cofactor is None:
        assert factor_linear(expand(fl) * F(-5, 3)) == fl
    else:
        with pytest.raises(NonLinearFactor) as exc:
            factor_linear(expand(fl) * cofactor)
        assert exc.value.remainder == cofactor


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=5),
    st.lists(rationals, min_size=1, max_size=5),
)
def test_gcd_divides_both(cs1, cs2):
    p, q = Polynomial(cs1), Polynomial(cs2)
    if p.is_zero() and q.is_zero():
        return
    g = primitive_gcd(p, q)
    for x in (p, q):
        if not x.is_zero():
            assert x.primitive()[1].exact_div(g) is not None


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=5), st.lists(rationals, min_size=1, max_size=5))
def test_rf_normalize_idempotent(num, den):
    pn, pd = Polynomial(num), Polynomial(den)
    if pd.is_zero():
        return
    num, den = reduced(pn, pd)
    assert reduced(num, den * F(1, den.leading)) == (num, den)
