"""Constructions that only tests need."""

from fractions import Fraction
from math import gcd

from ramcalc.exact import QQ, RAT, NumberField, NumberFieldElement, Poly
from ramcalc.rmap import INF


def from_roots(roots) -> Poly:
    """prod (z - r) over the rationals r, repeats included."""
    p = Poly(QQ, [1])
    for r in roots:
        p = p * Poly(QQ, [-r, 1])
    return p


def dlog_numerator(t) -> Poly:
    """N(z) = sum_i r_i prod_{j != i} (z - n_j) of a Belyi tuple,
    expanded: the oracle for the power-sum rule of `verify_belyi`."""
    out = Poly(QQ, [])
    for i, r in enumerate(t.exponents):
        term = Poly(QQ, [r])
        for j, n in enumerate(t.support):
            if j != i:
                term = term * Poly(QQ, [-n, 1])
        out = out + term
    return out


def cube_root_of_two_field() -> NumberField:
    """Q[a]/(a^3 - 2), the one field the tests use that is not
    cyclotomic, built through the seam of `NumberField.cyclotomic_field`
    once sympy's factoring confirms that a^3 - 2 is irreducible."""
    import sympy

    a = sympy.Symbol("a")
    assert sympy.Poly(a ** 3 - 2, a, domain="QQ").is_irreducible
    K = NumberField.__new__(NumberField)
    K._setup(Poly(QQ, [-2, 0, 0, 1]))
    return K


def element(K, coeffs):
    """The point sum_i coeffs[i] a^i of K for rationals coeffs, through
    the constructor every point takes."""
    ints, den = Poly(QQ, coeffs).int_form()
    return K.element(ints, den)


def point_poly(x) -> Poly:
    """A rational, or an element of a number field, as a polynomial over
    Q in the field's generator."""
    if isinstance(x, NumberFieldElement):
        return Poly(QQ, [Fraction(c, x.den) for c in x.num])
    return Poly(QQ, [x])


def modulus(x) -> Poly:
    """A polynomial over Q that vanishes at x once: the minimal
    polynomial of an element, z - x for a rational x."""
    return x.field.minpoly if isinstance(x, NumberFieldElement) else Poly(QQ, [-x, 1])


def horner_mod(p: Poly, x) -> Poly:
    """p(x) as a polynomial in the generator reduced mod `modulus(x)`:
    Horner in `Poly` arithmetic, one product and one remainder per
    coefficient.  An oracle that shares no code with the integer
    kernels; the value is rational exactly when the result is a
    constant."""
    X, m = point_poly(x), modulus(x)
    acc = Poly(QQ, [])
    for c in reversed(p.coeffs):
        acc = (acc * X + c) % m
    return acc


def assert_point_form(x):
    """x is in the one point form: inf, a rational, or an element with
    an irrational value, reduced and in lowest terms with den > 0."""
    if isinstance(x, NumberFieldElement):
        assert len(x.num) == x.field.degree and any(x.num[1:]), x
        assert x.den > 0 and gcd(x.den, *x.num) == 1, x
    else:
        assert x is INF or type(x) is RAT, repr(x)
