"""Exact arithmetic substrate: rationals, univariate polynomials over
Q, and the cyclotomic fields Q(zeta_n).

Everything here is immutable and exact; no floating point anywhere.
Polynomials store coefficients constant-term first with no trailing
zeros, so the zero polynomial has an empty coefficient tuple.  Their
coefficients are always rational; number fields hold the points a
polynomial is evaluated at.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

try:  # GMP-backed rationals: identical semantics, far faster gcd
    from gmpy2 import mpq as RAT, gcd as _int_gcd

    BACKEND = "gmpy2.mpq"
except ImportError:  # pragma: no cover
    from math import gcd as _int_gcd

    RAT = Fraction
    BACKEND = "fractions.Fraction"


class RationalField:
    """The field of rational numbers (a coercion target, not a container)."""

    degree = 1

    def coerce(self, v):
        if isinstance(v, (int, numbers.Rational)) or type(v) is RAT:
            return RAT(v)
        raise TypeError(f"cannot coerce {v!r} into Q")

    @property
    def zero(self):
        return RAT(0)

    @property
    def one(self):
        return RAT(1)


QQ = RationalField()


def _int_vector(cs):
    """(integer numerators, common denominator) of a sequence of rationals."""
    den = 1
    for c in cs:
        d = c.denominator
        if d != 1:
            den = den * d // _int_gcd(den, d)
    return [int(c.numerator * (den // c.denominator)) for c in cs], den


def _int_horner(ints, na: int, da: int) -> int:
    """da^n p(na/da) for the integer coefficient list of a degree-n p:
    integer Horner with no division."""
    acc = 0
    bpow = 1
    for c in reversed(ints):
        acc = acc * na + c * bpow
        bpow *= da
    return acc


def _mulmod_zz(a, b, mp) -> list:
    """a b mod mp for integer vectors a, b of length d and the monic
    integer coefficient list mp of degree d: integer convolution, then
    reduction from the top."""
    d = len(mp) - 1
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for i in range(2 * d - 2, d - 1, -1):
        c = prod[i]
        if c:
            for j in range(d):
                prod[i - d + j] -= c * mp[j]
    return prod[:d]


def _nf_horner(ints, an, ad: int, mp) -> list:
    """ad^n p(an/ad) as an integer vector mod mp, for the integer
    coefficient list of a degree-n p and an element an/ad of Z[t]/(mp):
    the number-field twin of `_int_horner`."""
    acc = [0] * (len(mp) - 1)
    bpow = 1
    for c in reversed(ints):
        if any(acc):
            acc = _mulmod_zz(acc, an, mp)
        acc[0] += c * bpow
        bpow *= ad
    return acc


def _evaluator(x):
    """(ev, mul, D) for a point x as `_as_point` gives it, D the common
    denominator of x.  ev maps an integer coefficient list of degree n
    to D^n p(x) as an integer list: one entry for a rational x, a vector
    mod the minimal polynomial for an irrational element.  mul is the
    product of two such values."""
    if isinstance(x, NumberFieldElement):
        an, ad = _int_vector(x.coeffs)
        mp = x.field._minpoly_ints
        return (lambda ints: _nf_horner(ints, an, ad, mp)), (lambda a, b: _mulmod_zz(a, b, mp)), ad
    na, da = int(x.numerator), int(x.denominator)
    return (lambda ints: [_int_horner(ints, na, da)]), (lambda a, b: [a[0] * b[0]]), da


def _derivative_ints(ints) -> list:
    return [i * c for i, c in enumerate(ints)][1:]


def _order_ints(ints, ev) -> int:
    """Multiplicity of the point of ev as a root of the nonzero integer
    coefficient list ints: the least j with p^(j)(x) != 0."""
    order = 0
    while not any(ev(ints)):
        order += 1
        ints = _derivative_ints(ints)
    return order


class Poly:
    """Univariate polynomial over QQ.

    Coefficients are stored constant term first.  All arithmetic keeps
    canonical form (no trailing zero coefficients).  A polynomial is
    evaluated at rationals and at elements of a number field alike.
    """

    __slots__ = ("coeffs", "_intform")

    def __init__(self, field, coeffs: Iterable):
        if not isinstance(field, RationalField):
            raise TypeError(f"polynomials are over QQ, not {field!r}")
        cs = [QQ.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_intform", None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _wrap(coeffs):
        return Poly(QQ, coeffs)

    def __add__(self, other):
        other = self._coerce_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = QQ.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return self._wrap([x + y for x, y in zip(a, b)])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce_poly(other))

    def __rsub__(self, other):
        return (-self) + self._coerce_poly(other)

    def __mul__(self, other):
        other = self._coerce_poly(other)
        if self.is_zero() or other.is_zero():
            return self._wrap([])
        z = QQ.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return self._wrap(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self._wrap([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return self._wrap([]), self
        quot = [QQ.zero] * (dq + 1)
        # one inverse of the leading coefficient serves the whole loop;
        # a monic divisor needs none
        inv_lc = None if other.lc == 1 else 1 / other.lc
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            if not top:
                continue
            q = top if inv_lc is None else top * inv_lc
            quot[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - q * b
        return self._wrap(quot), self._wrap(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def _coerce_poly(self, v) -> "Poly":
        if isinstance(v, Poly):
            return v
        return Poly(QQ, [v])

    # -- calculus and evaluation --------------------------------------

    def int_form(self):
        """Cached (integer coefficients, common denominator)."""
        if self._intform is None:
            ints, denom = _int_vector(self.coeffs)
            object.__setattr__(self, "_intform", (tuple(ints), int(denom)))
        return self._intform

    def __call__(self, x):
        """p(x) at a rational x, or at an element x of a number field.
        An element with a rational value is evaluated as that rational
        and gives a rational."""
        # integer Horner with one reduction at the end: far cheaper
        # than per-step gcd normalization once coefficients are huge
        x = _as_point(x)
        ev, _, ad = _evaluator(x)
        ints, denom = self.int_form()
        den = denom * ad ** max(self.degree, 0)
        vals = [RAT(c, den) for c in ev(ints)]
        if isinstance(x, NumberFieldElement):
            return NumberFieldElement(x.field, tuple(vals))
        return vals[0]

    def evaluates_to_zero(self, x) -> bool:
        """Whether p(x) = 0, skipping the final normalization over Q."""
        ev, _, _ = _evaluator(_as_point(x))
        return not any(ev(self.int_form()[0]))

    def derivative(self) -> "Poly":
        return self._wrap([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.lc
        if lc == 1:
            return self
        inv = 1 / lc
        return self._wrap([c * inv for c in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"({c})*z")
            else:
                terms.append(f"({c})*z^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _as_point(x):
    """x as a rational, or x itself when it is an irrational element of a
    number field."""
    if isinstance(x, NumberFieldElement):
        return x.as_rational() if x.is_rational() else x
    return QQ.coerce(x)


# ---------------------------------------------------------------------------
# gcd / squarefree / resultant


# large primes for the modular coprimality certificate
_CERT_PRIMES = (
    (1 << 61) - 1,
    (1 << 62) - 57,
    (1 << 62) - 87,
    (1 << 62) - 117,
    (1 << 62) - 143,
    (1 << 62) - 153,
    (1 << 62) - 167,
    (1 << 62) - 171,
)


def _poly_gcd_degree_mod(a: list, b: list, q: int) -> int:
    """Degree of gcd of two integer coefficient lists modulo a prime q."""
    a = [c % q for c in a]
    b = [c % q for c in b]
    while b and not b[-1] % q:
        b.pop()
    while a and not a[-1] % q:
        a.pop()
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            factor = a[-1] * inv % q
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] = (a[i + shift] - factor * c) % q
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _primitive(p: list) -> list:
    """An integer coefficient list divided by its content."""
    g = 0
    for c in p:
        g = _int_gcd(g, c)
        if g == 1:
            return p
    return [c // g for c in p]


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder of a by b (integer lists, b nonzero), up to a
    nonzero integer factor; no trailing zeros."""
    r = list(a)
    nb = len(b)
    lb = b[-1]
    while len(r) >= nb:
        top = r.pop()
        g = _int_gcd(lb, top)
        s, t = lb // g, top // g
        shift = len(r) - nb + 1
        if s != 1:
            r = [s * c for c in r]
        for j in range(nb - 1):
            r[shift + j] -= t * b[j]
        while r and not r[-1]:
            r.pop()
    return r


def _gcd_zz(a: list, b: list) -> list:
    """Primitive gcd, up to sign, of two integer coefficient lists, the
    first one nonzero.

    A gcd of degree 0 modulo a prime q that does not divide lc(a)
    proves gcd = 1 over Q: reduction mod q keeps the degree of every
    divisor of a.  Otherwise a primitive PRS (pseudo-remainders with
    the integer content removed at each step) finds it.
    """
    if len(b) <= 1:
        return [1] if b else _primitive(a)
    if len(a) == 1:
        return [1]
    for q in _CERT_PRIMES:
        if a[-1] % q and _poly_gcd_degree_mod(a, b, q) == 0:
            return [1]
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _is_squarefree_qq(p: Poly) -> bool:
    """Certified squarefreeness over Q: gcd(p, p') = 1, by the modular
    certificate when one of the primes is good, else by the PRS."""
    ints, _ = p.int_form()
    return len(_gcd_zz(ints, _derivative_ints(ints))) == 1


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0.  By the integer kernel `_gcd_zz`."""
    if a.is_zero() or b.is_zero():
        return b.monic() if a.is_zero() else a.monic()
    g = _gcd_zz(a.int_form()[0], b.int_form()[0])
    lc = g[-1]
    return Poly(QQ, [RAT(c, lc) for c in g])


def squarefree_part(a: Poly) -> Poly:
    """a / gcd(a, a'), monic.  Keeps exactly the distinct roots of a."""
    if a.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    g = poly_gcd(a, a.derivative())
    if g.degree <= 0:
        return a.monic()
    return (a // g).monic()


def resultant(a: Poly, b: Poly):
    """Res(a, b) = lc(a)^deg(b) * prod b(alpha) over the roots alpha of a,
    by the Euclidean remainder recurrence over Q."""
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of a zero polynomial")
    acc = QQ.one
    sign = 1
    while True:
        if b.degree == 0:
            return acc * sign * b.lc ** a.degree
        if a.degree == 0:
            return acc * sign * a.lc ** b.degree
        r = a % b
        if r.is_zero():
            return QQ.zero
        if (a.degree * b.degree) % 2:
            sign = -sign
        acc = acc * b.lc ** (a.degree - r.degree)
        a, b = b, r


def _image_poly(F: Poly, s: Poly) -> Poly:
    """Squarefree monic polynomial vanishing exactly on F(roots of s).

    Locates no root.  For s squarefree of degree k, prod (y - F(alpha))
    over the roots alpha of s is the characteristic polynomial of
    multiplication by F on Q[z]/(s); no matrix is built for it.  Newton's
    identities give the power sums Tr(z^i) of the roots from the
    coefficients of s; the traces p_j = Tr(F^j mod s) are linear in
    those; and Newton's identities, dividing by 1..k, turn p_1..p_k into
    the coefficients.  This avoids resultants of huge polynomials.  For
    an irreducible s the characteristic polynomial is a power of the
    minimal polynomial of F(alpha), so the result is irreducible.
    """
    s = squarefree_part(s)
    k = s.degree
    if k == 0:
        raise ValueError("image of an empty point set")
    a = s.coeffs
    # Tr(z^i) + a_{k-1} Tr(z^(i-1)) + ... + a_{k-i+1} Tr(z) + i a_{k-i} = 0
    traces = [RAT(k)]
    for i in range(1, k):
        acc = a[k - i] * i
        for j in range(1, i):
            acc = acc + a[k - j] * traces[i - j]
        traces.append(-acc)
    rbar = F % s
    power = Poly(QQ, [1])
    p = [None]
    coeffs = [QQ.one]  # of y^k down to y^0
    for m in range(1, k + 1):
        power = power * rbar % s
        p.append(sum((c * t for c, t in zip(power.coeffs, traces)), QQ.zero))
        # p_m + c_1 p_(m-1) + ... + c_(m-1) p_1 + m c_m = 0
        acc = p[m]
        for j in range(1, m):
            acc = acc + coeffs[j] * p[m - j]
        coeffs.append(acc * RAT(-1, m))
    return squarefree_part(Poly(QQ, coeffs[::-1]))


def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, by iterated exact division of z^n - 1.

    Every division by Phi_d, d | n, d < n, is checked to leave no
    remainder, so the result times those Phi_d is z^n - 1 exactly.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    num = Poly(QQ, [-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num, rem = divmod(num, cyclotomic(d))
            if rem:
                raise ArithmeticError(f"Phi_{d} does not divide z^{n} - 1")
    return num


# ---------------------------------------------------------------------------
# smoothness


def factor_over_primes(n: int, primes: Iterable[int]):
    """Exponent dict {p: e} of |n| over the prime set, nonzero exponents
    only, or None when |n| has a prime factor outside the set."""
    if n == 0:
        raise ValueError("smoothness of zero is undefined")
    ps = sorted(set(primes))
    if ps and ps[0] < 2:
        raise ValueError(f"prime set entry {ps[0]} is below 2")
    m = abs(n)
    out = {}
    for p in ps:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out[p] = e
    return out if m == 1 else None


def is_smooth(n: int, primes: Iterable[int]) -> bool:
    return factor_over_primes(n, primes) is not None


# listed primes are checked by trial division, under a second up to here
MAX_LISTED_PRIME = 10 ** 12

# the most characters of outside input an error message repeats
MAX_EXCERPT = 60


def excerpt(text: str) -> str:
    """text, or its first MAX_EXCERPT characters and '...' when it is
    longer: an error line that quotes an argument stays short however
    long the argument is."""
    return text if len(text) <= MAX_EXCERPT else text[:MAX_EXCERPT] + "..."


def parse_int(text: str) -> int:
    """int(text), whose error line quotes at most MAX_EXCERPT characters
    of the text (int() itself quotes 200)."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid literal for int() with base 10: {excerpt(text)!r}") from None


def prime_list(primes: Iterable[int]) -> tuple:
    """The primes sorted and without repeats; ValueError unless each is
    a prime no larger than MAX_LISTED_PRIME."""
    ps = tuple(sorted(set(primes)))
    for p in ps:
        if p > MAX_LISTED_PRIME:
            raise ValueError(f"{excerpt(str(p))} in the prime list is above {MAX_LISTED_PRIME}")
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} in the prime list is not a prime")
    return ps


# ---------------------------------------------------------------------------
# number fields


class NumberField:
    """Q[a]/(p(a)) for a monic irreducible integer polynomial p.

    The program builds only the cyclotomic fields of `cyclotomic_field`,
    whose irreducibility is Gauss's theorem.
    """

    def _setup(self, minpoly: Poly):
        self.minpoly = minpoly
        self._minpoly_ints = minpoly.int_form()[0]
        self.degree = minpoly.degree
        self.cyclotomic_index = None

    @staticmethod
    def cyclotomic_field(n: int) -> "NumberField":
        """Q(zeta_n), at any degree and without factoring: Phi_n is
        irreducible over Q, and `cyclotomic` checks that its result is
        Phi_n."""
        fld = NumberField.__new__(NumberField)
        fld._setup(cyclotomic(n))
        fld.cyclotomic_index = n
        return fld

    def coerce(self, v) -> "NumberFieldElement":
        if isinstance(v, NumberFieldElement):
            if v.field is not self and v.field != self:
                raise TypeError("element of a different number field")
            return v
        if isinstance(v, (int, numbers.Rational)) or type(v) is RAT:
            return self.element([QQ.coerce(v)])
        raise TypeError(f"cannot coerce {v!r} into {self!r}")

    def element(self, coeffs: Sequence) -> "NumberFieldElement":
        cs = [QQ.coerce(c) for c in coeffs]
        if len(cs) > self.degree:
            rem = Poly(QQ, cs) % self.minpoly
            cs = list(rem.coeffs)
        cs += [QQ.zero] * (self.degree - len(cs))
        return NumberFieldElement(self, tuple(cs))

    @property
    def zero(self):
        return self.element([])

    @property
    def one(self):
        return self.element([1])

    @property
    def gen(self):
        return self.element([0, 1])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly.coeffs == other.minpoly.coeffs

    def __repr__(self):
        if self.cyclotomic_index:
            return f"Q(zeta_{self.cyclotomic_index})"
        return f"Q[t]/({self.minpoly!r})"


class NumberFieldElement:
    """Residue polynomial of degree < deg(p) over Q, reduced mod p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("NumberFieldElement is immutable")

    def _co(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field is not self.field and other.field != self.field:
                raise TypeError("elements of different number fields")
            return other
        return self.field.coerce(other)

    def __add__(self, other):
        other = self._co(other)
        return NumberFieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._co(other))

    def __rsub__(self, other):
        return (-self) + self._co(other)

    def __mul__(self, other):
        # integer convolution, reduction modulo the monic integer
        # minimal polynomial, and one normalisation per coefficient
        other = self._co(other)
        fld = self.field
        an, ad = _int_vector(self.coeffs)
        bn, bd = _int_vector(other.coeffs)
        prod = _mulmod_zz(an, bn, fld._minpoly_ints)
        den = ad * bd
        if den == 1:
            return NumberFieldElement(fld, tuple(RAT(c) for c in prod))
        return NumberFieldElement(fld, tuple(RAT(c, den) for c in prod))

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero in a number field")
        fld = self.field
        if self.is_rational():
            return fld.element([1 / self.coeffs[0]])
        # b = 1/a solves M(a) b = e_0, whose column c is a t^c mod p
        an, ad = _int_vector(self.coeffs)
        mp = fld._minpoly_ints
        d = fld.degree
        cols = [an]
        for _ in range(d - 1):
            top = cols[-1]
            shifted = [0] + top[:-1]
            if top[-1]:
                shifted = [s - top[-1] * m for s, m in zip(shifted, mp)]
            cols.append(shifted)
        b = solve_linear_system(list(zip(*cols)), [1] + [0] * (d - 1))
        return NumberFieldElement(fld, tuple(ad * v for v in b))

    def __truediv__(self, other):
        return self * self._co(other).inverse()

    def __rtruediv__(self, other):
        return self._co(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, numbers.Rational)) or type(other) is RAT:
            other = self.field.coerce(other)
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        # the keys of one table share a field, and hashing it would hash
        # its minimal polynomial on every lookup
        return hash(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def __repr__(self):
        """The element in manifest syntax, a polynomial in t such as
        -1-t^2+3/2*t^3; a point prints this way wherever it is named."""
        out = ""
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                power = "t" if i == 1 else f"t^{i}"
                term = power if c == 1 else f"-{power}" if c == -1 else f"{c}*{power}"
            out += term if not out or term.startswith("-") else "+" + term
        return out or "0"


# ---------------------------------------------------------------------------
# the only bridge to sympy: factoring over Z, and irreducibility over Q
# (small degrees, no caller in the package); `contract` and `verify`
# never reach it


def factor_int(n: int) -> list:
    """Sorted (prime, exponent) pairs of an integer n >= 2, by sympy."""
    from sympy import factorint

    return sorted(factorint(n).items())


MAX_CHECKED_DEGREE = 8


def is_irreducible(p: Poly) -> bool:
    """Irreducibility over Q for degree <= 8; delegates to sympy's
    rational factorization (stdlib-free exact methods cover this fine,
    but sympy's is battle tested)."""
    if p.degree < 1:
        return False
    if p.degree == 1:
        return True
    if p.degree > MAX_CHECKED_DEGREE:
        raise ValueError("degree above the irreducibility checking bound")
    import sympy

    coeffs = [sympy.Rational(int(c.numerator), int(c.denominator)) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ").is_irreducible


# ---------------------------------------------------------------------------
# exact linear algebra over Q


def solve_linear_system(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Solve M x = b over Q: each row is scaled to integers, fraction-free
    (Bareiss) elimination triangularises the augmented matrix, and
    back-substitution runs in rationals.  Every division in the
    elimination is exact, since each entry becomes a minor of the input.

    Returns the solution vector, or None if the square system is singular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("square system expected")
    aug = [_int_vector([QQ.coerce(v) for v in row] + [QQ.coerce(b)])[0] for row, b in zip(matrix, rhs)]
    prev = 1
    for k in range(n):
        if not aug[k][k]:
            swap = next((i for i in range(k + 1, n) if aug[i][k]), None)
            if swap is None:
                return None
            aug[k], aug[swap] = aug[swap], aug[k]
        top = aug[k]
        pivot = top[k]
        for row in aug[k + 1:]:
            a = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * pivot - a * top[j]) // prev
        prev = pivot
    x = [RAT(0)] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        x[i] = (row[n] - sum(row[j] * x[j] for j in range(i + 1, n))) / RAT(row[i])
    return x
