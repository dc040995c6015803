"""Constructions that only tests need."""

from ramcalc.exact import QQ, NumberField, Poly


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
