"""Exact arithmetic substrate: rationals, univariate polynomials over
Q, and the cyclotomic fields Q(zeta_n).

Everything here is immutable and exact; no floating point anywhere.
A polynomial over Q and an irrational element of a number field are
stored alike: an integer vector over one positive denominator in lowest
terms, the pair the integer kernels compute in.  A polynomial's vector
is constant term first with no trailing zeros, so the zero polynomial
has an empty one.  A point a polynomial is evaluated at is a rational
when its value is rational, else such an element.  Rationals appear
only at the boundaries: parsed input, printed output, and a point.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable

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
        if type(v) is RAT:
            return v
        if isinstance(v, (int, numbers.Rational)):
            return RAT(v)
        raise TypeError(f"cannot coerce {v!r} into Q")


QQ = RationalField()


def _int_vector(cs):
    """(integer numerators, common denominator) of a sequence of rationals."""
    den = lcm(*(c.denominator for c in cs))
    return [int(c.numerator * (den // c.denominator)) for c in cs], den


def _lowest_terms(ints, den: int):
    """(ints, den) divided by g = gcd(den, *ints), signed like den: an
    integer vector over a nonzero denominator, as a tuple over a
    positive denominator in lowest terms."""
    g = int(_int_gcd(den, *ints)) * (1 if den > 0 else -1)
    if g == 1:
        return tuple(ints), den
    return tuple(c // g for c in ints), den // g


def _int_horner(ints, na: int, da: int) -> int:
    """da^n p(na/da) for the integer coefficient list of a degree-n p:
    integer Horner with no division."""
    acc = 0
    bpow = 1
    for c in reversed(ints):
        acc = acc * na + c * bpow
        bpow *= da
    return acc


def _mod_zz(p, mp) -> list:
    """p mod mp as an integer vector of length deg mp, for an integer
    list p and the monic integer coefficient list mp: reduction from
    the top."""
    d = len(mp) - 1
    p = list(p) + [0] * (d - len(p))
    for i in range(len(p) - 1, d - 1, -1):
        c = p[i]
        if c:
            for j in range(d):
                p[i - d + j] -= c * mp[j]
    return p[:d]


def _mulmod_zz(a, b, mp) -> list:
    """a b mod mp for integer vectors a, b and the monic integer
    coefficient list mp: integer convolution, then `_mod_zz`."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _mod_zz(prod, mp)


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
    """(ev, mul, D) for a point x, a rational or an irrational element,
    D the denominator of x.  ev maps an integer coefficient list of
    degree n to D^n p(x) as an integer list: one entry for a rational x,
    a vector mod the minimal polynomial for an element.  mul is the
    product of two such values."""
    if isinstance(x, NumberFieldElement):
        an, ad, mp = x.num, x.den, x.field.minpoly.ints
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
    """Univariate polynomial over QQ, stored as the integer vector `ints`
    over the positive denominator `den`: the coefficient of z^i is
    ints[i] / den, constant term first.  `ints` has no trailing zeros,
    so the zero polynomial has none, and gcd(den, *ints) = 1.  All
    arithmetic runs in integers and puts each result in lowest terms
    once.  A polynomial is evaluated at rationals and at elements of a
    number field alike.
    """

    __slots__ = ("ints", "den")

    def __new__(cls, field, coeffs: Iterable):
        if not isinstance(field, RationalField):
            raise TypeError(f"polynomials are over QQ, not {field!r}")
        return Poly._of(*_int_vector([c if type(c) is int else QQ.coerce(c) for c in coeffs]))

    @staticmethod
    def _of(ints: list, den: int) -> "Poly":
        """The polynomial sum_i ints[i] z^i / den, for an integer list and
        a nonzero integer den."""
        while ints and not ints[-1]:
            ints.pop()
        p = object.__new__(Poly)
        ints, den = _lowest_terms(ints, den) if ints else ((), 1)
        object.__setattr__(p, "ints", ints)
        object.__setattr__(p, "den", den)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- basic structure ----------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients, constant term first: a view for
        printing and ordering."""
        return tuple(RAT(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def lc(self):
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return RAT(self.ints[-1], self.den)

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ints == other.ints and self.den == other.den

    def __hash__(self):
        return hash((self.ints, self.den))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce_poly(other)
        (a, da), (b, db) = (self.ints, self.den), (other.ints, other.den)
        g = _int_gcd(da, db)
        sa, sb = db // g, da // g
        den = da * sa
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = [c * sa for c in a]
        for i, c in enumerate(b):
            out[i] += c * sb
        return Poly._of(out, den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Poly._of([-c for c in self.ints], self.den)

    def __sub__(self, other):
        return self + (-self._coerce_poly(other))

    def __rsub__(self, other):
        return (-self) + self._coerce_poly(other)

    def __mul__(self, other):
        other = self._coerce_poly(other)
        a, b = self.ints, other.ints
        if not a or not b:
            return Poly._of([], 1)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly._of(out, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly._of([1], 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        """Pseudo-division by the integer vector b of the divisor: with
        lb = lc(b), lb^(dq+1) a = q b + r in integers, every step an
        exact division by lb; both results are then put over the common
        denominator and into lowest terms once."""
        other = self._coerce_poly(other)
        b = other.ints
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        nb = len(b)
        dq = len(self.ints) - nb
        if dq < 0:
            return Poly._of([], 1), self
        lb = b[-1]
        scale = lb ** (dq + 1)
        rem = [scale * c for c in self.ints]
        quot = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            top = rem[i + nb - 1]
            if top:
                q = top // lb
                quot[i] = q
                for j in range(nb - 1):
                    rem[i + j] -= q * b[j]
        den = self.den * scale
        return Poly._of([q * other.den for q in quot], den), Poly._of(rem[:nb - 1], den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def _coerce_poly(self, v) -> "Poly":
        if isinstance(v, Poly):
            return v
        return Poly(QQ, [v])

    # -- calculus and evaluation --------------------------------------

    def __call__(self, x):
        """p(x) at a rational x, or at an irrational element x of a
        number field, as a point: a rational when the value is one."""
        # integer Horner with one reduction at the end: far cheaper
        # than per-step gcd normalization once coefficients are huge
        ev, _, ad = _evaluator(x)
        den = self.den * ad ** max(self.degree, 0)
        if isinstance(x, NumberFieldElement):
            return x.field.element(ev(self.ints), den)
        return RAT(ev(self.ints)[0], den)

    def evaluates_to_zero(self, x) -> bool:
        """Whether p(x) = 0, skipping the final normalization over Q."""
        ev, _, _ = _evaluator(x)
        return not any(ev(self.ints))

    def derivative(self) -> "Poly":
        return Poly._of(_derivative_ints(self.ints), self.den)

    def monic(self) -> "Poly":
        if self.is_zero() or self.ints[-1] == self.den:
            return self
        return Poly._of(list(self.ints), self.ints[-1])

    def __repr__(self):
        terms = [f"{c}" if i == 0 else f"({c})*z" if i == 1 else f"({c})*z^{i}"
                 for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + (" + ".join(terms) or "0") + ")"


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
    g = _int_gcd(*p)
    return p if g == 1 else [c // g for c in p]


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
    return len(_gcd_zz(p.ints, _derivative_ints(p.ints))) == 1


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0.  By the integer kernel `_gcd_zz`."""
    if a.is_zero() or b.is_zero():
        return b.monic() if a.is_zero() else a.monic()
    g = _gcd_zz(a.ints, b.ints)
    return Poly._of(list(g), g[-1])


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
    acc = RAT(1)
    sign = 1
    while True:
        if b.degree == 0:
            return acc * sign * b.lc ** a.degree
        if a.degree == 0:
            return acc * sign * a.lc ** b.degree
        r = a % b
        if r.is_zero():
            return RAT(0)
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
    the coefficients.  With s = S / d, S[k] = d, the traces are kept
    as the integers d^i Tr(z^i), so each p_j is one integer sum over one
    denominator.  This avoids resultants of huge polynomials.  For
    an irreducible s the characteristic polynomial is a power of the
    minimal polynomial of F(alpha), so the result is irreducible.
    """
    s = squarefree_part(s)
    k = s.degree
    if k == 0:
        raise ValueError("image of an empty point set")
    S, d = s.ints, s.den
    # Tr(z^i) + a_{k-1} Tr(z^(i-1)) + ... + a_{k-i+1} Tr(z) + i a_{k-i} = 0
    # for a_j = S[j] / d, times d^i: T_i = d^i Tr(z^i)
    dpow = [d ** j for j in range(k)]
    traces = [k]
    for i in range(1, k):
        acc = i * S[k - i] * dpow[i - 1]
        for j in range(1, i):
            acc += S[k - j] * dpow[j - 1] * traces[i - j]
        traces.append(-acc)
    # Tr(z^i) = traces[i] d^(k-1-i) / d^(k-1)
    traces = [t * dpow[k - 1 - i] for i, t in enumerate(traces)]
    rbar = F % s
    power = Poly(QQ, [1])
    p = [None]
    coeffs = [RAT(1)]  # of y^k down to y^0
    for m in range(1, k + 1):
        power = power * rbar % s
        p.append(RAT(sum(c * t for c, t in zip(power.ints, traces)), power.den * dpow[k - 1]))
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


# the most digits in one run of a numeric token, a numerator or a
# denominator: Python's own default int_max_str_digits
MAX_DIGITS = 4300

# int() and Fraction() read 1_000 as 1000, so an underscore does not end
# a run: a run counts its underscores too, which only errs on the safe side
_DIGIT_RUN = re.compile(r"[\d_]+")


def check_digits(text: str) -> str:
    """text, or ValueError before any conversion when a run of digits in
    it is longer than MAX_DIGITS: the number it names would cost time
    and output that grow with its length."""
    if any(len(run) > MAX_DIGITS for run in _DIGIT_RUN.findall(text)):
        raise ValueError(f"number {excerpt(text)!r} has more than {MAX_DIGITS} digits")
    return text


def parse_int(text: str) -> int:
    """int(text) under the MAX_DIGITS cap, whose error line quotes at
    most MAX_EXCERPT characters of the text (int() itself quotes 200)."""
    check_digits(text)
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

    def element(self, ints, den: int):
        """The point sum_i ints[i] a^i / den, for an integer list ints
        of any length and a nonzero integer den, reduced mod p: a
        rational when its value is rational, else an element in lowest
        terms with den > 0."""
        v = _mod_zz(ints, self.minpoly.ints)
        if not any(v[1:]):
            return RAT(v[0], den)
        return NumberFieldElement(self, *_lowest_terms(v, den))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __repr__(self):
        if self.cyclotomic_index:
            return f"Q(zeta_{self.cyclotomic_index})"
        return f"Q[t]/({self.minpoly!r})"


class NumberFieldElement:
    """An irrational element of a number field: the residue of degree
    < deg(p) with integer coefficients num over the denominator den,
    in lowest terms, as `NumberField.element` builds it.  An element is
    never rational, so it equals no rational and is never zero."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple, den: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("NumberFieldElement is immutable")

    def __mul__(self, other):
        """The product with an element of the same field or a rational:
        integer convolution mod the minimal polynomial, one gcd."""
        fld = self.field
        if isinstance(other, NumberFieldElement):
            return fld.element(_mulmod_zz(self.num, other.num, fld.minpoly.ints), self.den * other.den)
        return fld.element([c * int(other.numerator) for c in self.num], self.den * int(other.denominator))

    __rmul__ = __mul__

    def inverse(self):
        # 1/a = den b for the b with M(num) b = e_0, whose column c is
        # num t^c mod p; M is invertible, since a is not zero
        mp = self.field.minpoly.ints
        cols = [self.num]
        for _ in range(len(self.num) - 1):
            cols.append(_mod_zz([0, *cols[-1]], mp))
        y, det = _solve_zz([list(row) + [int(i == 0)] for i, row in enumerate(zip(*cols))])
        return self.field.element([self.den * c for c in y], det)

    def __eq__(self, other):
        return (
            isinstance(other, NumberFieldElement)
            and self.num == other.num
            and self.den == other.den
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        # the keys of one table share a field, and hashing it would hash
        # its minimal polynomial on every lookup
        return hash((self.num, self.den))

    def __repr__(self):
        """The element in manifest syntax, a polynomial in t such as
        -1-t^2+3/2*t^3; a point prints this way wherever it is named."""
        out = ""
        for i, n in enumerate(self.num):
            if not n:
                continue
            g = int(_int_gcd(n, self.den))
            c = str(n // g) if g == self.den else f"{n // g}/{self.den // g}"
            if i == 0:
                term = c
            else:
                power = "t" if i == 1 else f"t^{i}"
                term = power if c == "1" else f"-{power}" if c == "-1" else f"{c}*{power}"
            out += term if not out or term.startswith("-") else "+" + term
        return out


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

    return sympy.Poly(p.ints[::-1], sympy.Symbol("x"), domain="QQ").is_irreducible


# ---------------------------------------------------------------------------
# exact linear algebra over Q


def _solve_zz(aug: list):
    """(y, D) with M y = D b, for the integer rows [M | b] of a square
    system with M nonsingular, or None when M is singular.  Fraction-free
    (Bareiss) elimination triangularises the rows; every division in it
    is exact, since each entry becomes a minor of the input.  D is the
    last pivot, det M up to sign, so y = D M^-1 b is integral (Cramer)
    and the back-substitution divides exactly too."""
    n = len(aug)
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
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        y[i] = (prev * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return y, prev


def solve_linear_system(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Solve M x = b over Q: each row is scaled to integers and `_solve_zz`
    solves the integer system; x = y / D.

    Returns the solution vector, or None if the square system is singular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("square system expected")
    sol = _solve_zz([_int_vector([QQ.coerce(v) for v in row] + [QQ.coerce(b)])[0] for row, b in zip(matrix, rhs)])
    if sol is None:
        return None
    y, det = sol
    return [RAT(c, det) for c in y]
