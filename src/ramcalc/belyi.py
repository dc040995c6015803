"""Belyi functions in product form prod (x - n_i)^{r_i}.

Exponent vectors come from Vandermonde minors, computed in integers
from the pairwise differences of the support; verification works
purely on integer power sums of the exponents and the support, so no
polynomial is expanded, and maps of astronomically large degree are
checked in O(k^2) integer steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .exact import QQ, RAT, _int_vector, is_smooth, prime_list


class DegenerateSupport(ValueError):
    pass


class NotBelyiForm(ValueError):
    pass


# `belyi exponents`, `belyi verify` and a chain's belyi step take O(k^2)
# integer steps on k points: on a 2-vCPU host `belyi exponents` on the
# squares 0..31^2 takes 0.6 ms, and exponents and check at k = 100 take 5 ms
MAX_BELYI_SUPPORT_SIZE = 32


@dataclass(frozen=True)
class BelyiTuple:
    """Support points plus nonzero integer exponents summing to zero."""

    support: tuple
    exponents: tuple

    def __init__(self, support: Sequence, exponents: Sequence[int]):
        support = tuple(QQ.coerce(n) for n in support)
        exponents = tuple(int(r) for r in exponents)
        if len(support) != len(exponents):
            raise ValueError("support and exponent lengths differ")
        if len(set(support)) != len(support):
            raise DegenerateSupport("support points must be distinct")
        if any(r == 0 for r in exponents):
            raise ValueError("exponents must be nonzero")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "exponents", exponents)

    @property
    def k(self) -> int:
        return len(self.support)

    @property
    def degree(self) -> int:
        return sum(r for r in self.exponents if r > 0)


def vandermonde_exponents(support: Sequence) -> tuple[int, ...]:
    """Exponent vector r_i = (-1)^(i-1) V(n_1,...,^n_i,...,n_k), reduced.

    With D_i = prod_{j != i} (n_i - n_j), the minor (-1)^(i-1) V(n
    without n_i) equals (-1)^(k-1) V(n) / D_i, so the vector is
    proportional to 1/D_i.  Scaling and translating the support leave
    it unchanged, so denominators are cleared first and the vector is
    L / D_i in integers, L = lcm |D_i|; its content is 1, since each
    prime reaches its highest power in L at some D_i.  It is
    sign-normalized so the first exponent is positive, and always sums
    to zero.
    """
    pts = [QQ.coerce(n) for n in support]
    if len(set(pts)) != len(pts):
        raise DegenerateSupport("support points must be distinct")
    k = len(pts)
    if k < 2:
        raise DegenerateSupport("need at least two support points")
    ns = _int_vector(pts)[0]
    ds = []
    for a in ns:
        d = 1
        for b in ns:
            if b != a:
                d *= a - b
        ds.append(d)
    top = lcm(*ds)
    ints = [top // d for d in ds]
    if ints[0] < 0:
        ints = [-v for v in ints]
    if sum(ints) != 0:
        raise ArithmeticError("Vandermonde exponents do not sum to zero")
    return tuple(ints)


def verify_belyi(t: BelyiTuple) -> RAT:
    """The constant dlog numerator of the product form, or NotBelyiForm.

    N(z) = sum_i r_i prod_{j != i} (z - n_j) must be a nonzero constant;
    the ramification profile then sits over {0, 1, infinity} with
    indices |r_i| at the support and k - 1 at infinity.  At infinity
    N / prod (z - n_j) = sum_i r_i / (z - n_i) = sum_m p_m z^(-m-1)
    with power sums p_m = sum_i r_i n_i^m, so N has degree k - 1 - m0
    for the least m0 with p_m0 != 0, and N = p_(k-1) when m0 = k - 1.
    With n_i = a_i / D, p_m is zero exactly when sum_i r_i a_i^m is.
    For k >= 1 distinct points make p_0, ..., p_(k-1) determine the
    r_i (a Vandermonde system), so only k = 0 has N = 0.
    """
    if sum(t.exponents) != 0:
        raise NotBelyiForm(f"exponents sum to {sum(t.exponents)}, not zero")
    if t.k == 0:
        raise NotBelyiForm("dlog numerator vanishes identically")
    ns, den = _int_vector(t.support)
    terms = list(t.exponents)
    for m in range(1, t.k):
        terms = [w * a for w, a in zip(terms, ns)]
        if m < t.k - 1 and sum(terms) != 0:
            raise NotBelyiForm(f"dlog numerator is not constant (degree {t.k - 1 - m})")
    return RAT(sum(terms), den ** (t.k - 1))


# ---------------------------------------------------------------------------
# search


def _normalized_supports(k: int, box: int):
    """Supports with n_1 = 0, ascending, content 1, inside [0, box]."""
    for rest in combinations(range(1, box + 1), k - 1):
        if gcd(*rest) == 1:
            yield (0,) + rest


def search_smooth_tuples(k: int, primes: Iterable[int], box: int) -> list[BelyiTuple]:
    """Enumerate normalized supports in the box and keep the smooth ones.

    The exponents are L / D_i up to sign, L = lcm |D_i|, so for a set P
    of primes they are all P-smooth exactly when the |D_i| have equal
    parts prime to P: each support is decided on that test, and only
    the hits have their exponents computed and checked.  Output order
    is lexicographic in the support.
    """
    if not 3 <= k <= 7:
        raise ValueError("support size must be between 3 and 7")
    primes = prime_list(primes)
    # rough[d] is d with the listed primes divided out; rough[0] = 1
    # stands for a point's difference with itself
    rough = [1, *range(1, box + 1)]
    for p in primes:
        for m in range(p, box + 1, p):
            while rough[m] % p == 0:
                rough[m] //= p
    results = []
    for sup in _normalized_supports(k, box):
        first = prod([rough[n] for n in sup])
        for a in sup[1:]:
            if prod([rough[abs(a - b)] for b in sup]) != first:
                break
        else:
            exps = vandermonde_exponents(sup)
            if all(is_smooth(r, primes) for r in exps):
                results.append(BelyiTuple(sup, exps))
    return results
