"""Exact rationals, polynomials, resultants, and cyclotomic fields."""

import ast
import random
import re
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramcalc
from ramcalc.exact import (
    _CERT_PRIMES,
    QQ,
    RAT,
    NumberField,
    NumberFieldElement,
    Poly,
    _evaluator,
    _image_poly,
    _order_ints,
    _poly_gcd_degree_mod,
    cyclotomic,
    factor_over_primes,
    is_irreducible,
    is_smooth,
    poly_gcd,
    resultant,
    solve_linear_system,
    squarefree_part,
)
from ramcalc.rmap import RationalMap

from helpers import (
    assert_point_form,
    cube_root_of_two_field,
    element,
    from_roots,
    horner_mod,
    modulus,
    point_poly,
)

small_rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


def polys(max_degree=4):
    return st.lists(small_rationals, min_size=1, max_size=max_degree + 1).map(
        lambda cs: Poly(QQ, cs)
    )


class TestPolyArithmetic:
    def test_constant_first_coefficients(self):
        p = Poly(QQ, [1, 2, 3])  # 3z^2 + 2z + 1
        assert p(0) == 1
        assert p(1) == 6
        assert p(2) == 17
        assert p.degree == 2

    def test_trailing_zeros_stripped(self):
        assert Poly(QQ, [1, 0, 0]) == Poly(QQ, [1])
        assert Poly(QQ, [0, 0]).is_zero()

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_ring_homomorphism(self, a, b):
        x = Fraction(3, 2)
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_divmod_round_trip(self, a, b):
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_evaluates_to_zero_agrees_with_call(self, p):
        for x in (Fraction(0), Fraction(1), Fraction(-2, 3)):
            assert p.evaluates_to_zero(x) == (p(x) == 0)

    def test_from_roots_and_vanishing_order(self):
        p = from_roots([1, 1, 1, 2])
        assert vanishing_order(p, 1) == 3
        assert vanishing_order(p, 2) == 1
        assert vanishing_order(p, 5) == 0

    def test_derivative(self):
        p = Poly(QQ, [1, 2, 3])
        assert p.derivative() == Poly(QQ, [2, 6])


class TestGcdAndSquarefree:
    def test_gcd_of_shared_factor(self):
        a = from_roots([1, 2])
        b = from_roots([2, 3])
        assert poly_gcd(a, b) == from_roots([2])

    def test_squarefree_part_drops_multiplicity(self):
        p = from_roots([1, 1, 2])
        assert squarefree_part(p) == from_roots([1, 2])

    @given(polys(3), polys(3))
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_both(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        g = poly_gcd(a, b)
        assert (a % g).is_zero()
        assert (b % g).is_zero()


def euclid_gcd(a, b):
    """Reference: monic gcd by the textbook Euclidean loop in Fraction."""
    a = [Fraction(c) for c in a.coeffs]
    b = [Fraction(c) for c in b.coeffs]
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= q * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return Poly(QQ, [c / a[-1] for c in a])


class TestIntegerGcdKernel:
    @given(polys(4), polys(4), polys(3))
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_euclid(self, a, b, c):
        if a.is_zero() or b.is_zero() or c.is_zero():
            return
        # c is a planted common factor
        assert poly_gcd(a * c, b * c) == euclid_gcd(a * c, b * c)
        assert poly_gcd(a, b) == euclid_gcd(a, b)

    def test_unlucky_first_prime(self):
        # z - (2^61 - 1) is z modulo the first prime, coprime to z over Q
        z = Poly(QQ, [0, 1])
        b = Poly(QQ, [-((1 << 61) - 1), 1])
        assert _poly_gcd_degree_mod([0, 1], [-((1 << 61) - 1), 1], _CERT_PRIMES[0]) == 1
        assert poly_gcd(z, b) == Poly(QQ, [1])
        assert poly_gcd(b, z) == Poly(QQ, [1])

    def test_prime_dividing_leading_coefficient_proves_nothing(self):
        # modulo q = 2^61 - 1 the common factor q z - 1 becomes a unit
        q = _CERT_PRIMES[0]
        shared = Poly(QQ, [-1, q])
        a = Poly(QQ, [0, 1]) * shared
        b = Poly(QQ, [1, 1]) * shared
        assert _poly_gcd_degree_mod(list(a.int_form()[0]), list(b.int_form()[0]), q) == 0
        assert poly_gcd(a, b) == shared.monic()

    def test_every_prime_unlucky_forces_prs(self):
        n = 1
        for q in _CERT_PRIMES:
            n *= q
        assert all(_poly_gcd_degree_mod([0, 1], [-n, 1], q) == 1 for q in _CERT_PRIMES)
        z = Poly(QQ, [0, 1])
        assert poly_gcd(z, Poly(QQ, [-n, 1])) == Poly(QQ, [1])
        shared = Poly(QQ, [Fraction(1, 3), 2, 1])
        assert poly_gcd(z * shared, Poly(QQ, [-n, 1]) * shared) == shared.monic()


def field_elements(field):
    return st.lists(small_rationals, min_size=field.degree, max_size=field.degree).map(
        lambda cs: element(field, cs)
    )


FIELDS = [
    NumberField.cyclotomic_field(5),
    NumberField.cyclotomic_field(7),
    cube_root_of_two_field(),
]
FIELD_IDS = ["zeta5", "zeta7", "cbrt2"]


def vanishing_order(p, x):
    """Multiplicity of x as a root of the nonzero p, by the integer
    kernels that `RationalMap.local_index` uses."""
    return _order_ints(p.int_form()[0], _evaluator(x)[0])


def minimal_polynomial(x):
    """The minimal polynomial over Q of a point: the image of the roots
    of its modulus under x as a polynomial."""
    return _image_poly(point_poly(x), modulus(x))


class TestNumberFieldKernels:
    @pytest.mark.parametrize("K", FIELDS, ids=FIELD_IDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mul_matches_poly_product_mod_minpoly(self, K, data):
        x = data.draw(field_elements(K))
        y = data.draw(field_elements(K))
        ref = (point_poly(x) * point_poly(y)) % K.minpoly
        assert_point_form(x * y)
        assert point_poly(x * y) == ref

    @pytest.mark.parametrize("K", FIELDS, ids=FIELD_IDS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_vanishing_order_matches_repeated_divmod(self, K, data):
        # p = m^e R over Q, with m the minimal polynomial of x; the order
        # at x is the number of times m divides p exactly
        x = data.draw(field_elements(K))
        m = minimal_polynomial(x)
        mult = data.draw(st.integers(min_value=0, max_value=3))
        rest = data.draw(polys(3))
        if rest.is_zero():
            return
        p = m ** mult * rest
        expected, q = 0, p
        while True:
            q, r = divmod(q, m)
            if not r.is_zero():
                break
            expected += 1
        assert vanishing_order(p, x) == expected >= mult

    @pytest.mark.parametrize("K", FIELDS, ids=FIELD_IDS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_local_index_at_irrational_points(self, K, data):
        # f = P/Q with P = c Q + m^e R and m not dividing R: f - c has
        # order e at x when Q(x) != 0
        x = data.draw(field_elements(K))
        m = minimal_polynomial(x)
        e = data.draw(st.integers(min_value=1, max_value=3))
        c = data.draw(small_rationals)
        Q, R = data.draw(polys(3)), data.draw(polys(3))
        if Q.is_zero() or not Q(x) or R.is_zero() or not (R % m):
            return
        f = RationalMap(Q * c + m ** e * R, Q)
        assert f.local_index(x) == e

    def test_polynomials_are_over_q(self):
        K = NumberField.cyclotomic_field(5)
        with pytest.raises(TypeError):
            Poly(K, [1])
        with pytest.raises(TypeError):
            Poly(QQ, [element(K, [0, 1])])


class TestResultant:
    def test_known_value(self):
        # res(z^2 - 1, z - 2) = (2^2 - 1) = 3
        a = Poly(QQ, [-1, 0, 1])
        b = Poly(QQ, [-2, 1])
        assert resultant(a, b) == 3

    def test_vanishes_iff_common_root(self):
        a = from_roots([1, 2])
        b = from_roots([2, 5])
        c = from_roots([3, 5])
        assert resultant(a, b) == 0
        assert resultant(a, c) != 0

    @given(polys(3), polys(3), polys(2))
    @settings(max_examples=30, deadline=None)
    def test_multiplicative_in_first_argument(self, a, b, c):
        if a.is_zero() or b.is_zero() or c.is_zero() or c.degree < 1:
            return
        assert resultant(a * b, c) == resultant(a, c) * resultant(b, c)

    def test_product_of_evaluations_route(self):
        # second, independent route: res(a, b) = lc(a)^deg(b) prod b(alpha_i)
        roots = [Fraction(1), Fraction(-2), Fraction(1, 2)]
        a = from_roots(roots)
        b = Poly(QQ, [3, 1, 2])
        expected = 1
        for r in roots:
            expected *= b(r)
        assert resultant(a, b) == expected


class TestCyclotomic:
    def test_small_cyclotomics(self):
        assert cyclotomic(1) == Poly(QQ, [-1, 1])
        assert cyclotomic(2) == Poly(QQ, [1, 1])
        assert cyclotomic(5) == Poly(QQ, [1, 1, 1, 1, 1])
        assert cyclotomic(6) == Poly(QQ, [1, -1, 1])

    def test_degree_is_euler_phi(self):
        phis = {3: 2, 4: 2, 7: 6, 8: 4, 12: 4}
        for n, phi in phis.items():
            assert cyclotomic(n).degree == phi

    def test_product_over_divisors_is_z_n_minus_one(self):
        for n in range(1, 25):
            prod = Poly(QQ, [1])
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == Poly(QQ, [-1] + [0] * (n - 1) + [1]), n


def power(x, n):
    """x^n by n - 1 products."""
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


class TestNumberField:
    def test_fifth_roots_of_unity(self):
        K = NumberField.cyclotomic_field(5)
        t = element(K, [0, 1])
        assert power(t, 5) == 1 and type(power(t, 5)) is RAT
        assert element(K, [0, 1, 1, 1, 1]) == -1

    def test_inverse(self):
        K = NumberField.cyclotomic_field(7)
        x = element(K, [2, 1])
        assert x * x.inverse() == 1
        # zero is the rational 0, so no element is ever inverted at it
        assert type(element(K, [])) is RAT and element(K, []) == 0
        for L in AGREEMENT_FIELDS:
            rng = random.Random(L.degree)
            for _ in range(25):
                x = irrational_element(L, rng)
                assert_point_form(x.inverse())
                assert x * x.inverse() == 1

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_rational_inverse_matches_extended_euclid(self, n):
        K = NumberField.cyclotomic_field(n)
        for v in (Fraction(-7, 3), Fraction(8), Fraction(1, 1000)):
            x = element(K, [v])
            assert type(x) is RAT and 1 / x == 1 / v
        # a rational value reached through irrational arithmetic is a
        # rational, and its inverse is the rational inverse
        s = element(K, [0] + [1] * (n - 1))
        assert type(s) is RAT and 1 / s == -1
        t = element(K, [0, 1])
        assert t * power(t, n - 1) == 1 and type(t.inverse() * t) is RAT

    def test_rationality_detection(self):
        K = NumberField.cyclotomic_field(5)
        t = element(K, [0, 1])
        s = element(K, [0, 1, 1, 1, 1])
        assert type(s) is RAT and s == -1
        assert isinstance(t, NumberFieldElement) and t != -1 and -1 != t
        assert_point_form(t)

    def test_element_only_multiplies_inverts_and_compares(self):
        # sums, differences, quotients and powers of points are taken as
        # polynomials over Q before a point is formed, never on elements
        for name in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__truediv__",
                     "__rtruediv__", "__pow__", "_co", "is_rational", "as_rational"):
            assert not hasattr(NumberFieldElement, name), name
        for name in ("coerce", "zero", "one", "gen"):
            assert not hasattr(NumberField, name), name

    def test_degree_above_checking_bound_rejected(self):
        # z^9 - 2 is irreducible, but no factoring check runs above degree 8
        with pytest.raises(ValueError):
            is_irreducible(Poly(QQ, [-2] + [0] * 8 + [1]))

    def test_cyclotomic_fields_irreducible_by_reference(self):
        # the theorem that cyclotomic_field relies on, checked against
        # sympy's factoring at every n with phi(n) <= 8 (all have n <= 30)
        import sympy

        z = sympy.Symbol("z")
        checked = 0
        for n in range(1, 31):
            K = NumberField.cyclotomic_field(n)
            if K.degree > 8:
                continue
            coeffs = [int(c) for c in reversed(K.minpoly.coeffs)]
            assert sympy.Poly(coeffs, z, domain="QQ").is_irreducible, n
            checked += 1
        assert checked == 18

    def test_cyclotomic_field_above_degree_eight(self):
        K = NumberField.cyclotomic_field(11)
        assert K.degree == 10 and repr(K) == "Q(zeta_11)"
        t = element(K, [0, 1])
        assert power(t, 11) == 1 and power(t, 5) != 1
        x = element(K, [3, 1])
        assert x * x.inverse() == 1


AGREEMENT_FIELDS = [
    NumberField.cyclotomic_field(3),
    NumberField.cyclotomic_field(5),
    NumberField.cyclotomic_field(7),
    cube_root_of_two_field(),
]
AGREEMENT_IDS = ["zeta3", "zeta5", "zeta7", "cbrt2"]


def random_rational(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 6))


def random_poly(rng, degree):
    return Poly(QQ, [random_rational(rng) for _ in range(degree + 1)])


def irrational_element(K, rng):
    while True:
        x = element(K, [random_rational(rng) for _ in range(K.degree)])
        if isinstance(x, NumberFieldElement):
            return x


def reference_vanishing_order(p, x):
    """The least j with p^(j)(x) != 0, one derivative `Poly` per order,
    each value by Horner in `Poly` arithmetic mod the modulus of x."""
    order = 0
    while not horner_mod(p, x):
        order += 1
        p = p.derivative()
    return order


class TestIntegerPointKernels:
    """Horner and vanishing order at an element, in integers mod the
    minimal polynomial, against Horner in `Poly` arithmetic mod the
    minimal polynomial: 60 seeded cases per field and kernel."""

    @pytest.mark.parametrize("K", AGREEMENT_FIELDS, ids=AGREEMENT_IDS)
    def test_call_matches_field_horner(self, K):
        rng = random.Random(100 + K.degree)
        for case in range(60):
            p = random_poly(rng, rng.randint(-1, 12))
            # one case in five is a point with a rational value
            if case % 5:
                x = irrational_element(K, rng)
            else:
                x = element(K, [random_rational(rng)])
            ref = horner_mod(p, x)
            got = p(x)
            assert_point_form(got)
            assert point_poly(got) == ref
            assert p.evaluates_to_zero(x) == (not ref)

    @pytest.mark.parametrize("K", AGREEMENT_FIELDS, ids=AGREEMENT_IDS)
    def test_vanishing_order_matches_derivative_loop(self, K):
        # p = m^e R with m the minimal polynomial of x: a root of
        # planted multiplicity e, or more when m divides R
        rng = random.Random(200 + K.degree)
        for case in range(60):
            if case % 4:
                x = irrational_element(K, rng)
                m = minimal_polynomial(x)
            else:
                r = random_rational(rng)
                x, m = element(K, [r]), Poly(QQ, [-r, 1])
            e = rng.randint(0, 3)
            rest = random_poly(rng, rng.randint(0, 4))
            if rest.is_zero():
                continue
            p = m ** e * rest
            assert vanishing_order(p, x) == reference_vanishing_order(p, x) >= e


class TestImageKernel:
    """`_image_poly` against routes that share none of its Newton code."""

    @given(
        st.lists(small_rationals, min_size=1, max_size=4),
        st.lists(small_rationals, min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_resultants_at_integer_points(self, s_low, f_coeffs):
        # Res(s, y0 - F) = prod (y0 - F(alpha)) for monic s: deg + 1
        # values fix that monic polynomial, whose squarefree part is
        # the image (itself when the images are distinct)
        s = squarefree_part(Poly(QQ, s_low + [1]))
        F = Poly(QQ, f_coeffs)
        k = s.degree
        if k == 0:
            return
        ys = range(k + 1)
        # y0 - F = 0 (a constant F) vanishes at every root
        values = [resultant(s, Poly(QQ, [y]) - F) if Poly(QQ, [y]) != F else 0 for y in ys]
        chi = Poly(QQ, [])
        for yi, vi in zip(ys, values):
            basis, den = Poly(QQ, [vi]), Fraction(1)
            for yj in ys:
                if yj != yi:
                    basis, den = basis * Poly(QQ, [-yj, 1]), den * (yi - yj)
            chi = chi + basis * (1 / den)
        assert chi.degree == k and chi.lc == 1
        assert _image_poly(F, s) == squarefree_part(chi)


def _det(m):
    """Leibniz determinant: independent of any elimination."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        total += -term if inversions % 2 else term
    return total


@st.composite
def rational_systems(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    row = st.lists(small_rationals, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n)), draw(row)


class TestLinearSolve:
    @given(rational_systems())
    @settings(max_examples=80, deadline=None)
    def test_solution_satisfies_system(self, system):
        m, b = system
        sol = solve_linear_system(m, b)
        assert (sol is None) == (_det(m) == 0)
        if sol is not None:
            assert [sum(a * x for a, x in zip(row, sol)) for row in m] == b

    @given(rational_systems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_repeated_row_is_singular(self, system, data):
        m, b = system
        if len(m) < 2:
            return
        i, j = data.draw(st.lists(st.integers(0, len(m) - 1), min_size=2, max_size=2, unique=True))
        m[j] = list(m[i])
        assert solve_linear_system(m, b) is None

    @given(rational_systems())
    @settings(max_examples=60, deadline=None)
    def test_zero_leading_entry_is_solved(self, system):
        m, b = system
        m[0][0] = Fraction(0)
        if _det(m) == 0:
            return
        sol = solve_linear_system(m, b)
        assert [sum(a * x for a, x in zip(row, sol)) for row in m] == b


class TestSmoothness:
    def test_factor_success(self):
        assert factor_over_primes(27648, (2, 3)) == {2: 10, 3: 3}
        assert factor_over_primes(1, (2, 3)) == {}

    def test_factor_failure_witness(self):
        assert factor_over_primes(14, (2, 3)) is None

    def test_is_smooth(self):
        assert is_smooth(2 ** 15 * 3 ** 10 * 5 ** 4 * 13, (2, 3, 5, 13))
        assert not is_smooth(7, (2, 3, 5))

    @pytest.mark.parametrize("primes", [(1,), (2, 1), (0, 3), (-2,)])
    def test_entry_below_two_is_refused(self, primes):
        with pytest.raises(ValueError, match="below 2"):
            is_smooth(2, primes)

    @given(st.integers(min_value=1, max_value=10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_smoothness_matches_direct_division(self, n):
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        assert is_smooth(n, (2, 3, 5)) == (m == 1)


class TestLinearAlgebraAndRoots:
    def test_solve_known_system(self):
        sol = solve_linear_system(
            [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]],
            [Fraction(3), Fraction(1)],
        )
        assert sol == [Fraction(2), Fraction(1)]

    def test_irreducibility(self):
        assert is_irreducible(Poly(QQ, [1, 0, 1]))
        assert is_irreducible(Poly(QQ, [-2, 0, 0, 1]))
        assert not is_irreducible(Poly(QQ, [-1, 0, 1]))


# names kept although only tests call them
UNCALLED_ALLOWED = {
    "permutation_compositum_fiber": "the brute-force oracle for the compositum rule (criterion 5)",
}
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _reads(node, within=()):
    """(name, bare, enclosing definitions) for each name a tree reads:
    identifiers (bare) and attributes in load context, imported names
    and the pieces of dotted-name string constants (the bench names its
    traced entry points as such strings)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        within = within + (node,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, True, within
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, False, within
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1], False, within
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED_NAME.fullmatch(node.value):
        for piece in node.value.split("."):
            yield piece, False, within
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, within)


def _members(cls):
    """(name, definition) of the non-dunder methods of a class, and
    (name, None) of its fields: annotated class-body names and
    attributes assigned on self."""
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                yield stmt.name, stmt
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id, None
    assigned = {
        n.attr for n in ast.walk(cls)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name) and n.value.id == "self"
    }
    for name in sorted(assigned):
        yield name, None


def uncalled_names(root):
    """The top-level functions and classes of src/ramcalc, and the
    methods and fields of its classes, that nothing in src/, bench/ or
    tools/ reads outside their own definition.  A method or field is
    read as an attribute or a dotted string, never as a bare name, so a
    local variable of the same name does not count."""
    package = root / "src" / "ramcalc"
    defined = []  # (label, name, definition or None, top level)
    reads: dict = {}
    for d in ("src", "bench", "tools"):
        for path in sorted((root / d).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for name, bare, within in _reads(tree):
                reads.setdefault(name, []).append((bare, within))
            if path.parent != package:
                continue
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((f"{path.stem}.{stmt.name}", stmt.name, stmt, True))
                if isinstance(stmt, ast.ClassDef):
                    defined += [(f"{path.stem}.{stmt.name}.{name}", name, node, False)
                                for name, node in _members(stmt)]
    return [
        label for label, name, node, top in defined
        if not any(node not in within and (top or not bare) for bare, within in reads.get(name, ()))
    ]


class TestEveryNameHasACaller:
    ROOT = Path(__file__).resolve().parents[1]

    def test_top_level_names_are_used_outside_their_definition(self):
        # labels module.name
        top = [label for label in uncalled_names(self.ROOT) if label.count(".") == 1]
        assert [label for label in top if label.split(".")[1] not in UNCALLED_ALLOWED] == []
        # an allowlisted name that gained a caller leaves the allowlist
        assert {label.split(".")[1] for label in top} == set(UNCALLED_ALLOWED)

    def test_methods_and_fields_are_read_outside_their_definition(self):
        # labels module.class.member
        assert [label for label in uncalled_names(self.ROOT) if label.count(".") == 2] == []


class TestSympyBridge:
    def test_only_exact_imports_sympy(self):
        src = Path(ramcalc.__file__).parent
        importers = set()
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                if any(n == "sympy" or n.startswith("sympy.") for n in names):
                    importers.add(path.name)
        assert importers == {"exact.py"}
