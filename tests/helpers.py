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
    p = Poly(QQ, coeffs)
    return K.element(p.ints, p.den)


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
    Horner in the reference arithmetic below, one product and one
    remainder per coefficient.  An oracle that shares no code with the
    integer kernels; the value is rational exactly when the result is a
    constant."""
    X, m = ref(point_poly(x)), ref(modulus(x))
    acc = []
    for c in reversed(ref(p)):
        acc = ref_divmod(ref_add(ref_mul(acc, X), [c]), m)[1]
    return Poly(QQ, acc)


# ---------------------------------------------------------------------------
# reference polynomial arithmetic: lists of Fractions, constant term
# first with no trailing zeros, one Fraction operation per coefficient
# step; it shares no code with the integer kernels of `Poly`


def ref(p: Poly) -> list:
    """The coefficients of p as Fractions."""
    return [Fraction(c) for c in p.coeffs]


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ref_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return _trim([x + y for x, y in zip(a, b)])


def ref_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def ref_divmod(a: list, b: list):
    """(quotient, remainder) of a by the nonzero b, long division over Q."""
    rem = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        return [], rem
    quot = [Fraction(0)] * (dq + 1)
    for i in range(dq, -1, -1):
        q = rem[i + len(b) - 1] / b[-1]
        quot[i] = q
        for j, c in enumerate(b):
            rem[i + j] -= q * c
    return _trim(quot), _trim(rem[:len(b) - 1])


def ref_derivative(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def ref_monic(a: list) -> list:
    return [c / a[-1] for c in a]


def ref_eval(a: list, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_gcd(a: list, b: list) -> list:
    """Monic gcd by the textbook Euclidean loop; gcd(0, 0) = 0."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a) if a else []


def assert_point_form(x):
    """x is in the one point form: inf, a rational, or an element with
    an irrational value, reduced and in lowest terms with den > 0."""
    if isinstance(x, NumberFieldElement):
        assert len(x.num) == x.field.degree and any(x.num[1:]), x
        assert x.den > 0 and gcd(x.den, *x.num) == 1, x
    else:
        assert x is INF or type(x) is RAT, repr(x)
