"""Self-maps of the line: local indices, ramification, chain verification."""

import random
from fractions import Fraction

import pytest

from ramcalc.exact import QQ, RAT, NumberField, NumberFieldElement, Poly, _image_poly
from ramcalc.manifest import bundled_text, parse_chain, parse_point, render_chain
from ramcalc.rmap import (
    INF,
    IncompletenessGap,
    IndexMismatch,
    RamPoint,
    RationalMap,
    verify_chain,
)

from helpers import (
    assert_point_form,
    cube_root_of_two_field,
    element,
    horner_mod,
    modulus,
    point_poly,
)


def rmap(num, den=(1,)):
    return RationalMap(Poly(QQ, list(num)), Poly(QQ, list(den)))


class TestLocalIndex:
    def test_squaring_map(self):
        f = rmap([0, 0, 1])
        assert f.local_index(0) == 2
        assert f.local_index(1) == 1
        assert f.local_index(INF) == 2

    def test_pole_index(self):
        f = rmap([1], [0, 0, 1])  # 1/z^2
        assert f.local_index(0) == 2
        assert f.local_index(INF) == 2

    def test_joukowski_type(self):
        f = rmap([1, 0, 1], [0, 1])  # (z^2+1)/z
        assert f.local_index(1) == 2
        assert f.local_index(-1) == 2
        assert f.local_index(2) == 1
        assert f.local_index(INF) == 1

    def test_degree_and_compose(self):
        f = rmap([0, 0, 1])
        g = rmap([1, 0, 1], [0, 1])
        assert f.degree == 2 and g.degree == 2


FIELDS = [
    NumberField.cyclotomic_field(3),
    NumberField.cyclotomic_field(5),
    NumberField.cyclotomic_field(7),
    cube_root_of_two_field(),
]
FIELD_IDS = ["zeta3", "zeta5", "zeta7", "cbrt2"]


def random_rational(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 6))


def random_poly(rng, degree):
    return Poly(QQ, [random_rational(rng) for _ in range(degree + 1)])


def irrational_element(K, rng):
    while True:
        x = element(K, [random_rational(rng) for _ in range(K.degree)])
        if isinstance(x, NumberFieldElement):
            return x


def reference_local_index(f, x):
    """The local index as computed before the integer kernels: one
    derivative `Poly` per order, values by Horner in `Poly` arithmetic
    mod the modulus of x (`helpers.horner_mod`), and a second map,
    z -> 1/z on the source, at infinity."""
    if x == INF:
        if f.den.degree == 0:
            return f.num.degree
        d = f.degree
        num, den = (Poly(QQ, (list(p.coeffs) + [0] * (d - p.degree))[::-1]) for p in (f.num, f.den))
        return reference_local_index(RationalMap(num, den), Fraction(0))
    q = horner_mod(f.den, x)
    if not q:
        den, order = f.den, 0
        while not horner_mod(den, x):
            den, order = den.derivative(), order + 1
        return order
    p = horner_mod(f.num, x)
    num, den = f.num, f.den
    j = 0
    while True:
        j += 1
        num, den = num.derivative(), den.derivative()
        if (q * horner_mod(num, x) - p * horner_mod(den, x)) % modulus(x):
            return j


def planted_point(K, rng, kind):
    """(x, m): a point and a polynomial over Q that vanishes at it
    once, the minimal polynomial for an irrational element."""
    if kind == "irrational":
        x = irrational_element(K, rng)
        return x, _image_poly(point_poly(x), K.minpoly)
    r = random_rational(rng)
    return (r if kind == "rational" else element(K, [r])), Poly(QQ, [-r, 1])


class TestLocalIndexAgreement:
    """`local_index` on integer lists against the reference above: 20
    seeded maps per field and kind of point."""

    @pytest.mark.parametrize("kind", ["rational", "irrational", "rational-valued"])
    @pytest.mark.parametrize("K", FIELDS, ids=FIELD_IDS)
    def test_planted_ramification(self, K, kind):
        # f = (c Q + m^e R)/Q: f - c has order e at x when Q(x) != 0
        # and m does not divide R
        rng = random.Random(f"{K!r} {kind}")
        cases = 0
        while cases < 20:
            x, m = planted_point(K, rng, kind)
            e = rng.randint(1, 4)
            Q, R = random_poly(rng, rng.randint(0, 4)), random_poly(rng, rng.randint(0, 3))
            if Q.is_zero() or not horner_mod(Q, x) or R.is_zero() or not (R % m):
                continue
            f = RationalMap(Q * random_rational(rng) + m ** e * R, Q)
            assert f.local_index(x) == reference_local_index(f, x) == e
            cases += 1

    @pytest.mark.parametrize("kind", ["rational", "irrational", "rational-valued"])
    @pytest.mark.parametrize("K", FIELDS, ids=FIELD_IDS)
    def test_poles(self, K, kind):
        # f = P/(m^e R) with P(x) != 0 and R(x) != 0 has a pole of order e
        rng = random.Random(f"pole {K!r} {kind}")
        cases = 0
        while cases < 20:
            x, m = planted_point(K, rng, kind)
            e = rng.randint(1, 4)
            P, R = random_poly(rng, rng.randint(0, 5)), random_poly(rng, rng.randint(0, 2))
            if P.is_zero() or R.is_zero() or not horner_mod(P, x) or not horner_mod(R, x):
                continue
            f = RationalMap(P, m ** e * R)
            assert f.local_index(x) == reference_local_index(f, x) == e
            cases += 1

    @pytest.mark.parametrize("K", FIELDS, ids=FIELD_IDS)
    def test_random_maps_at_points_and_infinity(self, K):
        rng = random.Random(f"random {K!r}")
        cases = 0
        while cases < 20:
            P, Q = random_poly(rng, rng.randint(0, 6)), random_poly(rng, rng.randint(0, 6))
            if P.is_zero() or Q.is_zero() or max(P.degree, Q.degree) < 1:
                continue
            f = RationalMap(P, Q)
            for x in (INF, irrational_element(K, rng), element(K, [random_rational(rng)]), random_rational(rng)):
                assert f.local_index(x) == reference_local_index(f, x)
            cases += 1

    def test_f9_of_prop9(self):
        chain = parse_chain(bundled_text("prop9.chain"))
        (f9,) = [s.map for s in chain.steps if s.name == "f9"]
        K = chain.field
        for x, e in ((1, 32), (0, 27), (10, 8), (16, 3), (INF, 3), (parse_point(K, "t"), 1)):
            assert f9.local_index(x) == reference_local_index(f9, x) == e
        # a rational value reached through irrational arithmetic
        one = parse_point(K, "-t-t^2-t^3-t^4")
        assert one == 1 and f9.local_index(one) == 32


class TestRamDivisor:
    def test_accepts_correct_divisor(self):
        f = rmap([1, 0, 1], [0, 1])
        claimed = [RamPoint(Fraction(1), 2), RamPoint(Fraction(-1), 2)]
        assert f.ram_divisor(claimed) == claimed

    def test_rejects_wrong_index(self):
        f = rmap([1, 0, 1], [0, 1])
        with pytest.raises(IndexMismatch):
            f.ram_divisor([RamPoint(Fraction(1), 3), RamPoint(Fraction(-1), 2)])

    def test_rejects_incomplete_divisor(self):
        f = rmap([1, 0, 1], [0, 1])
        with pytest.raises(IncompletenessGap):
            f.ram_divisor([RamPoint(Fraction(1), 2)])


class TestChainVerification:
    def test_bundled_chain_passes(self):
        report = verify_chain(parse_chain(bundled_text("prop9.chain")))
        assert report.passed
        assert all(s.status == "pass" for s in report.steps)
        assert report.bound_ok

    def test_tampered_index_fails_with_mismatch(self):
        text = render_chain(parse_chain(bundled_text("prop9.chain")))
        assert "1:32" in text
        bad = parse_chain(text.replace("1:32", "1:31"))
        report = verify_chain(bad)
        assert not report.passed
        failing = [s for s in report.steps if s.status == "fail"]
        assert failing and any("claimed 31" in d and "actual 32" in d
                               for s in failing for d in s.details)

    def test_wrong_claimed_output_is_erratum(self):
        text = render_chain(parse_chain(bundled_text("prop9.chain")))
        # claim 17 instead of 16 in the f7 output list
        bad = parse_chain(text.replace("out 16 inf 15 0", "out 17 inf 15 0"))
        report = verify_chain(bad)
        assert not report.passed
        assert any(s.erratum for s in report.steps)

    def test_composite_indices_multiply_along_orbits(self):
        report = verify_chain(parse_chain(bundled_text("prop9.chain")))
        assert all(i > 1 for i in report.composite_indices)
        # every composite index divides the recorded bound
        assert all(report.bound % i == 0 for i in report.composite_indices)


class TestPointForm:
    """No element with a rational value comes out of `parse_point`,
    `Poly.__call__` or `RationalMap.eval`: every point is inf, a
    rational, or an irrational element in lowest terms."""

    @pytest.mark.parametrize("name", ["prop9.chain", "prop12.chain", "prop14.chain"])
    def test_bundled_chain_points_and_their_images(self, name):
        chain = parse_chain(bundled_text(name))
        points = [p for p, _ in chain.start]
        for step in chain.steps:
            points += [p for p, _ in step.ram] + list(step.out)
        assert any(isinstance(p, NumberFieldElement) for p in points)
        for p in points:
            assert_point_form(p)
        for step in chain.steps:
            if step.map is None:
                continue
            for p in points:
                assert_point_form(step.map.eval(p))
                if p is not INF:
                    assert_point_form(step.map.num(p))
                    assert_point_form(step.map.den(p))

    def test_rational_values_of_irrational_arguments(self):
        K = NumberField.cyclotomic_field(5)
        t = parse_point(K, "t")
        z5 = Poly(QQ, [0, 0, 0, 0, 0, 1])
        assert type(z5(t)) is RAT and z5(t) == 1
        assert type(K.minpoly(t)) is RAT and K.minpoly(t) == 0
        # (z^5 + 1) / (z^5 - 2) at t is 2 / -1
        assert rmap([1, 0, 0, 0, 0, 1], [-2, 0, 0, 0, 0, 1]).eval(t) == -2
        # t^3 (t^2 + 1) = 1 + t^3
        assert parse_point(K, "t^2+1") * parse_point(K, "t^3") == parse_point(K, "1+t^3")
        for text, value in (("t^5", 1), ("t+t^2+t^3+t^4", -1), ("(t^4)^4*t^4", 1), ("t-t", 0)):
            p = parse_point(K, text)
            assert_point_form(p)
            assert p == value

    @pytest.mark.parametrize("K", FIELDS, ids=FIELD_IDS)
    def test_seeded_evaluations(self, K):
        # p = m R + c with m the minimal polynomial of x has the rational
        # value c at x; a random p has an irrational value there
        rng = random.Random(f"form {K!r}")
        for _ in range(40):
            x = irrational_element(K, rng)
            m = _image_poly(point_poly(x), K.minpoly)
            c = random_rational(rng)
            p = m * random_poly(rng, rng.randint(0, 3)) + c
            assert_point_form(p(x))
            assert p(x) == c
            q = random_poly(rng, rng.randint(1, 5))
            assert_point_form(q(x))
            assert_point_form(RationalMap(p, q).eval(x))
