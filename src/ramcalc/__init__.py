"""Exact-arithmetic toolkit for ramification chains on the projective line.

Subpackages by role:

- ``exact``: exact rationals, polynomials over Q, resultants,
  cyclotomic number fields for points (a point is a rational, or an
  irrational element as an integer vector over one denominator),
  smoothness checks
- ``rmap``: self-maps of the projective line defined over Q, local
  indices at rational and number-field points, values in that one
  point form, ramification divisors, chain verification
- ``belyi``: four-point product-form maps branched over {0, 1, inf}
- ``cover``: branch-cover profiles, Riemann-Hurwitz genus, compositum
  profiles, parametrized diagram certificates
- ``contract``: contraction of algebraic point sets to rational points
  with power-of-2 index certificates
- ``sunit``: smooth-number and unit-equation enumeration in height boxes
- ``relation``: the curve-domination rule store and derivation search
- ``manifest``: versioned text formats and the bundled artifacts
- ``cli``: the ``ramcalc`` command-line entry point
"""

__version__ = "1.0.0"

__all__ = [
    "belyi",
    "cli",
    "contract",
    "cover",
    "exact",
    "manifest",
    "relation",
    "rmap",
    "sunit",
]
