from fractions import Fraction as F

import mpmath
import pytest

from exactsum.engine import evaluate
from exactsum.errors import (
    ConstraintViolated,
    InsufficientTerms,
    NotApplicable,
    ParametersEqual,
)
from exactsum.oracle import (
    partial_sum_bracket,
    quad_alternating,
    quad_general,
    quad_square,
    quad_two_param,
)
from exactsum.partfrac import PartialFractions, decompose
from exactsum.polygamma import PrecisionPolicy, to_mpf

from conftest import make_spec, random_plain_spec

POLICY = PrecisionPolicy(target_digits=30, guard_digits=10)
QUAD_TOL_EXP = -15  # error target 10^(-target/2)


class TestPartialSumBracket:
    def test_basel_bracket(self):
        with mpmath.workdps(40):
            b = partial_sum_bracket(make_spec([(0, 2)]), 1000, POLICY)
            assert b.contains(mpmath.pi ** 2 / 6)
            # tail bound C/(N-1) with margin factor 2: just above 2/N
            assert b.width < mpmath.mpf("2.1e-3")

    def test_half_shift_pair_bracket(self):
        with mpmath.workdps(40):
            b = partial_sum_bracket(make_spec([(0, 1), (F(1, 2), 1)]), 10 ** 4, POLICY)
            assert b.contains(mpmath.mpf("1.22741127776021876233107151417"))

    def test_alternating_bracket(self):
        with mpmath.workdps(40):
            spec = make_spec([(F(1, 2), 1)], sign="alternating")
            b = partial_sum_bracket(spec, 10 ** 4, POLICY)
            assert b.contains(2 - mpmath.pi / 2)
            assert b.width <= to_mpf(F(1, 10 ** 4) ) # first omitted term + pad

    def test_exact_small_path(self):
        with mpmath.workdps(40):
            b = partial_sum_bracket(make_spec([(0, 2)]), 100, POLICY)
            assert b.contains(mpmath.pi ** 2 / 6)

    def test_numpy_large_path(self):
        with mpmath.workdps(40):
            b = partial_sum_bracket(make_spec([(0, 2)]), 10 ** 5, POLICY)
            assert b.contains(mpmath.pi ** 2 / 6)
            assert b.width < mpmath.mpf("5e-5")

    def test_negative_summand_bracket(self):
        # Q = -1: eventually negative terms flip the tail side
        from exactsum.polys import Polynomial

        with mpmath.workdps(40):
            spec = make_spec([(0, 2)], numerator=Polynomial([-1]))
            b = partial_sum_bracket(spec, 2000, POLICY)
            assert b.contains(-mpmath.pi ** 2 / 6)

    def test_insufficient_terms(self):
        with pytest.raises((InsufficientTerms, ValueError)):
            # stabilization bound for a far-out numerator root is huge
            from exactsum.polys import Polynomial

            spec = make_spec([(0, 3)], numerator=Polynomial([-50000, 1]))
            partial_sum_bracket(spec, 1000, POLICY)

    def test_minimum_terms_enforced(self):
        with pytest.raises(ValueError):
            partial_sum_bracket(make_spec([(F(9, 2), 1), (0, 1)]), 20, POLICY)


class TestQuadTwoParam:
    def test_half_shift_pair_value(self):
        with mpmath.workdps(40):
            v = quad_two_param(F(1, 2), 0, POLICY)
            assert abs(v - 4 * (1 - mpmath.ln(2))) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_telescoping_value(self):
        # brute-force-pinned: sum 1/((n+1)n) = 1
        with mpmath.workdps(40):
            assert abs(quad_two_param(1, 0, POLICY) - 1) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_swap_symmetry(self):
        with mpmath.workdps(40):
            a, b = F(1, 3), F(5, 4)
            assert abs(
                quad_two_param(a, b, POLICY) - quad_two_param(b, a, POLICY)
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_equal_parameters(self):
        with pytest.raises(ParametersEqual):
            quad_two_param(F(1, 2), F(1, 2), POLICY)

    def test_domain(self):
        with pytest.raises(NotApplicable):
            quad_two_param(F(-3, 2), 0, POLICY)


class TestQuadSquare:
    def test_basel(self):
        with mpmath.workdps(40):
            assert abs(quad_square(0, POLICY) - mpmath.pi ** 2 / 6) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_half(self):
        with mpmath.workdps(40):
            assert abs(
                quad_square(F(1, 2), POLICY) - (mpmath.pi ** 2 / 2 - 4)
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_shift_one(self):
        with mpmath.workdps(40):
            assert abs(
                quad_square(1, POLICY) - (mpmath.pi ** 2 / 6 - 1)
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_domain(self):
        with pytest.raises(NotApplicable):
            quad_square(-2, POLICY)


class TestQuadAlternating:
    def test_ln2(self):
        with mpmath.workdps(40):
            assert abs(quad_alternating(0, POLICY) - mpmath.ln(2)) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_half(self):
        with mpmath.workdps(40):
            assert abs(
                quad_alternating(F(1, 2), POLICY) - (2 - mpmath.pi / 2)
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_shift_one_by_hand(self):
        # integral of t/(1+t) over [0,1] = 1 - ln 2
        with mpmath.workdps(40):
            assert abs(
                quad_alternating(1, POLICY) - (1 - mpmath.ln(2))
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_domain(self):
        with pytest.raises(NotApplicable):
            quad_alternating(F(-5, 4), POLICY)


class TestQuadGeneral:
    def test_basel(self):
        with mpmath.workdps(40):
            pf = decompose(make_spec([(0, 2)]))
            assert abs(quad_general(pf, POLICY) - mpmath.pi ** 2 / 6) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_half_shift_pair(self):
        with mpmath.workdps(40):
            pf = decompose(make_spec([(0, 1), (F(1, 2), 1)]))
            assert abs(
                quad_general(pf, POLICY) - 4 * (1 - mpmath.ln(2))
            ) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_double_pole_half_shift_matches_engine(self):
        with mpmath.workdps(40):
            spec = make_spec([(0, 2), (F(1, 2), 1)])
            engine = evaluate(spec, POLICY).numeric
            quad = quad_general(decompose(spec), POLICY)
            assert abs(engine - quad) < mpmath.mpf(10) ** QUAD_TOL_EXP

    def test_constraint_violated(self):
        pf = PartialFractions(((F(0), 1, F(1)),))
        with pytest.raises(ConstraintViolated):
            quad_general(pf, POLICY)

    def test_domain(self):
        pf = PartialFractions(((F(-3, 2), 1, F(1)), (F(0), 1, F(-1))))
        with pytest.raises(NotApplicable):
            quad_general(pf, POLICY)

    def test_substitution_equivalence_with_two_param(self):
        # single simple-pole pair: x-domain route equals the t-domain
        # Eq-(5)-style route under t = e^(-x)
        with mpmath.workdps(40):
            for a, b in [(F(1, 2), F(0)), (F(3, 4), F(1, 3)), (F(2), F(1, 5))]:
                pf = decompose(make_spec([(a, 1), (b, 1)]))
                v1 = quad_general(pf, POLICY)
                v2 = quad_two_param(a, b, POLICY)
                assert abs(v1 - v2) < 2 * mpmath.mpf(10) ** QUAD_TOL_EXP


class TestCoherence:
    def test_quadrature_inside_bracket(self, rng):
        with mpmath.workdps(40):
            done = 0
            while done < 8:
                spec = random_plain_spec(rng, max_factors=2, max_mult=2)
                if any(a <= -1 for a in spec.factors.shifts):
                    continue
                pf = decompose(spec)
                quad = quad_general(pf, POLICY)
                bracket = partial_sum_bracket(spec, 4000, POLICY)
                assert bracket.contains(quad)
                done += 1

    def test_closed_forms_inside_brackets(self, rng):
        with mpmath.workdps(40):
            for _ in range(10):
                spec = random_plain_spec(rng, max_factors=3, max_mult=2)
                r = evaluate(spec, POLICY)
                bracket = partial_sum_bracket(spec, 3000, POLICY)
                assert bracket.contains(r.numeric)

    def test_alternating_coherence(self):
        with mpmath.workdps(40):
            spec = make_spec([(F(1, 4), 2)], sign="alternating")
            r = evaluate(spec, POLICY)
            bracket = partial_sum_bracket(spec, 5000, POLICY)
            assert bracket.contains(r.numeric)
