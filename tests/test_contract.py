"""Contraction of algebraic point sets to rational points."""

import dataclasses
import random
from fractions import Fraction

import pytest

from ramcalc import contract
from ramcalc.contract import (
    AlgebraicPointSet,
    ContractionRejected,
    HeightCapExceeded,
    build_cofactor,
    contract_to_rational,
    reduction_step,
    split_degree,
    verify_contraction,
)
from ramcalc.exact import QQ, Poly, _is_squarefree_qq, cyclotomic, squarefree_part

from helpers import from_roots


class TestSplitDegree:
    def test_examples(self):
        assert split_degree(2) == (2, 2)
        assert split_degree(3) == (2, 1)
        assert split_degree(5) == (3, 3)
        assert split_degree(8) == (4, 8)

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            split_degree(1)

    def test_invariant(self):
        for m in range(2, 65):
            k, r = split_degree(m)
            assert m + r == 2 ** k
            assert 0 <= r < m or m == r  # r < m except the power-of-2 doubling case
            assert 2 ** (k - 1) < m + r <= 2 ** k


class TestBuildCofactor:
    def test_cofactor_degree_matches_target_count(self):
        f = Poly(QQ, [-2, 0, 0, 1])  # z^3 - 2; one padding root lifts it to 2^2
        g = build_cofactor(f, [Fraction(1)])
        F = f * g
        assert g.degree == 1 and F.degree == 4
        assert F.derivative().evaluates_to_zero(Fraction(1))

    def test_derivative_vanishes_at_every_target(self):
        f = Poly(QQ, [-2, 0, 1])  # z^2 - 2
        g = build_cofactor(f, [Fraction(0), Fraction(1)])
        F = f * g
        assert F.degree == 4
        assert F.derivative().evaluates_to_zero(Fraction(0))
        assert F.derivative().evaluates_to_zero(Fraction(1))

    def test_repeated_target_is_refused(self):
        with pytest.raises(ValueError, match="repeated target"):
            build_cofactor(Poly(QQ, [-2, 0, 0, 1]), [Fraction(1), Fraction(1)])

    def test_root_of_f_is_refused(self):
        with pytest.raises(ValueError, match="target 2 is a root of f"):
            build_cofactor(Poly(QQ, [-4, 0, 1]), [Fraction(2)])

    def test_singular_system_is_arithmetic_error(self):
        # f'(0) = 0 for z^3 - 2, so the one condition at target 0 reads 0 = 0
        with pytest.raises(ArithmeticError, match="degenerate 1x1 system"):
            build_cofactor(Poly(QQ, [-2, 0, 0, 1]), [Fraction(0)])


class TestSquarefreeCheck:
    def test_modular_route_agrees_with_exact_route(self):
        cases = [
            Poly(QQ, [-2, 0, 0, 1]),
            from_roots([1, 1, 2]),
            from_roots([Fraction(1, 3), -5]) * cyclotomic(5),
            from_roots([2, 2]),
        ]
        for p in cases:
            exact = squarefree_part(p).degree == p.degree
            assert _is_squarefree_qq(p) == exact


def assert_contraction_certificate(result):
    assert result.final_set.all_rational()
    measures = [None]
    for (fin, at_inf), step in zip(result.index_certificate, result.steps):
        assert fin == 2
        assert at_inf == 2 ** step.k
        assert at_inf & (at_inf - 1) == 0  # power of 2
    bound = result.composite_index_bound
    assert bound & (bound - 1) == 0


class TestContraction:
    def test_cube_root_of_two(self):
        S = AlgebraicPointSet.from_polys([Poly(QQ, [-2, 0, 0, 1])])
        result = contract_to_rational(S)
        assert_contraction_certificate(result)
        assert len(result.steps) >= 1

    def test_measure_strictly_decreases(self):
        current = AlgebraicPointSet.from_polys(
            [Poly(QQ, [-2, 0, 0, 1]), Poly(QQ, [-3, 0, 1])]
        )
        seen = [current.measure()]
        while not current.all_rational():
            step, current = reduction_step(current)
            seen.append(current.measure())
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_rational_only_set_needs_zero_steps(self):
        S = AlgebraicPointSet.from_polys([Poly(QQ, [-5, 1])])
        result = contract_to_rational(S)
        assert result.steps == []
        assert result.composite_index_bound == 1

    def test_squarefree_entries_are_not_factored(self):
        z = Poly(QQ, [0, 1])
        cases = [
            # z^4 - 1 stays one entry of degree 4, rational roots and all
            ([z ** 4 - 1], [z ** 4 - 1]),
            ([(z ** 2 - 2) ** 2 * (z - 1)], [(z ** 2 - 2) * (z - 1)]),
            # inputs with equal squarefree parts collapse to one entry
            ([z ** 3 - 2, (z ** 3 - 2) * 2, (z ** 3 - 2) ** 2], [z ** 3 - 2]),
        ]
        for polys, entries in cases:
            S = AlgebraicPointSet.from_polys(polys)
            assert S.polys == entries
            verify_contraction(S, contract_to_rational(S))

    def test_quadratic_single_step(self):
        # F = z^2 - 2 itself: one critical point 0, rational, of index 2
        S = AlgebraicPointSet.from_polys([Poly(QQ, [-2, 0, 1])])
        result = contract_to_rational(S)
        assert len(result.steps) == 1
        assert result.index_certificate == [(2, 2)]
        assert result.steps[0].r == 0 and result.steps[0].targets == []

    def test_squarefree_power_of_two_degree_takes_f_itself(self):
        # Phi5' = 4z^3 + 3z^2 + 2z + 1 is squarefree: F = Phi5, no cofactor
        S = AlgebraicPointSet.from_polys([cyclotomic(5)])
        step, new_set = reduction_step(S)
        assert step.r == 0 and step.targets == []
        assert step.product == cyclotomic(5)
        assert step.k == 2
        assert new_set.measure() < S.measure()

    def test_power_of_two_degree_with_repeated_critical_point_doubles(self):
        # (z^4 - 2)' = 4z^3 has a triple root, so F = f fails the certificate
        S = AlgebraicPointSet.from_polys([Poly(QQ, [-2, 0, 0, 0, 1])])
        step, _ = reduction_step(S)
        assert step.r == 4
        assert step.product.degree == 8


def _contract(*coeff_lists):
    S = AlgebraicPointSet.from_polys([Poly(QQ, c) for c in coeff_lists])
    return S, contract_to_rational(S)


# z^3-2 and z^2-3; Phi5; z^3-2 and z^3-3
MUTATED = [([-2, 0, 0, 1], [-3, 0, 1]), ([1, 1, 1, 1, 1],), ([-2, 0, 0, 1], [-3, 0, 0, 1])]


class TestVerifyContraction:
    def test_accepts_without_replaying_the_steps(self, monkeypatch):
        S, result = _contract([-2, 0, 0, 1], [-3, 0, 1])

        def refuse(*args, **kwargs):
            raise AssertionError("the recheck replayed the construction")
        monkeypatch.setattr(contract, "reduction_step", refuse)
        monkeypatch.setattr(contract, "build_cofactor", refuse)
        verify_contraction(S, result)

    def test_source_points_are_not_carried(self):
        # z^2 - 2 has critical point 0 and critical value -2; the roots
        # go to 0, so the final set is {0, -2} and holds no critical point
        S, result = _contract([-2, 0, 1])
        assert sorted(-p.coeffs[0] for p in result.final_set.polys) == [-2, 0]
        verify_contraction(S, result)

    def test_random_inputs_end_verified_or_capped(self):
        rng = random.Random(12)
        outcomes = {"verified": 0, "capped": 0}
        for _ in range(40):
            polys = [
                Poly(QQ, [rng.randint(-4, 4) for _ in range(rng.randint(2, 5))] + [1])
                for _ in range(rng.randint(1, 3))
            ]
            S = AlgebraicPointSet.from_polys(polys)
            try:
                result = contract_to_rational(S, height_cap=4096)
            except HeightCapExceeded:
                outcomes["capped"] += 1
                continue
            verify_contraction(S, result)
            outcomes["verified"] += 1
        assert outcomes["verified"] >= 10

    @pytest.mark.parametrize("coeffs", MUTATED)
    def test_dropping_a_final_point_is_rejected(self, coeffs):
        S, result = _contract(*coeffs)
        polys = result.final_set.polys
        for j in range(len(polys)):
            mutant = dataclasses.replace(
                result, final_set=AlgebraicPointSet(polys[:j] + polys[j + 1:])
            )
            with pytest.raises(ContractionRejected):
                verify_contraction(S, mutant)

    @pytest.mark.parametrize("coeffs", MUTATED)
    def test_changing_a_coefficient_of_F_is_rejected(self, coeffs):
        S, result = _contract(*coeffs)
        for i, step in enumerate(result.steps):
            for j in range(len(step.product.coeffs)):
                cs = list(step.product.coeffs)
                cs[j] += 1
                steps = list(result.steps)
                steps[i] = dataclasses.replace(step, product=Poly(QQ, cs))
                with pytest.raises(ContractionRejected):
                    verify_contraction(S, dataclasses.replace(result, steps=steps))

    def test_a_rational_critical_value_must_stay_final(self):
        # the first map of z^3-2, z^2-3 has the target 1, and its
        # critical value -1/3 is a rational entry from map 1 on; the two
        # later maps carry it unchanged, so a final set holding its
        # image under map 2 instead is wrong
        S, result = _contract([-2, 0, 0, 1], [-3, 0, 1])
        first, second = result.steps[:2]
        assert first.targets == [1] and len(result.steps) == 3
        value = first.product(Fraction(1))
        assert value == Fraction(-1, 3)
        moved = Poly(QQ, [-second.product(value), 1])
        polys = [p for p in result.final_set.polys if p != Poly(QQ, [-value, 1])]
        assert len(polys) == len(result.final_set.polys) - 1
        assert moved not in polys
        mutant = dataclasses.replace(
            result, final_set=AlgebraicPointSet.from_squarefree(polys + [moved])
        )
        with pytest.raises(ContractionRejected, match="-1/3 after map 1 is not a final point"):
            verify_contraction(S, mutant)

    def test_height_cap_holds_on_the_recheck(self):
        # the images of z^5-3 reach 1970 bits, in the contraction and in
        # the recheck alike
        S, result = _contract([-3, 0, 0, 0, 0, 1])
        contract_to_rational(S, height_cap=1970)
        verify_contraction(S, result, height_cap=1970)
        with pytest.raises(HeightCapExceeded, match="exceeds cap 1969"):
            verify_contraction(S, result, height_cap=1969)

    def test_wrong_certificate_entry_is_rejected(self):
        S, result = _contract([-2, 0, 0, 1])
        cert = [(2, 2 * at_inf) for _, at_inf in result.index_certificate]
        with pytest.raises(ContractionRejected, match="certificate entry"):
            verify_contraction(S, dataclasses.replace(result, index_certificate=cert))
