"""Exact calculus of rational self-maps of the projective line.

Maps are pairs of coprime polynomials over Q.  Points live on the
projective line over Q or a number field K: either a rational, an
irrational element of K, or the point at infinity, in the one form
`exact` gives them; a map's value at a point is in that form too.  All
computations are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional

from .exact import (
    NumberFieldElement,
    Poly,
    QQ,
    _derivative_ints,
    _evaluator,
    _order_ints,
    is_smooth,
    poly_gcd,
)


class Infinity:
    """The point at infinity on the projective line: a singleton, so it
    equals and hashes as itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = Infinity()


def is_inf(p) -> bool:
    return isinstance(p, Infinity)


class VerificationError(Exception):
    """Base class for structured verification failures."""


class IndexMismatch(VerificationError):
    def __init__(self, point, claimed, actual):
        super().__init__(f"index at {point}: claimed {claimed}, actual {actual}")


class IncompletenessGap(VerificationError):
    def __init__(self, missing):
        super().__init__(f"ramification divisor incomplete: missing total {missing}")


@dataclass(frozen=True)
class RamPoint:
    """A claimed ramification point with its local index."""

    point: object
    index: int

    def __post_init__(self):
        if self.index < 2:
            raise ValueError("ramification index must be >= 2")


class RationalMap:
    """P/Q with gcd(P, Q) = 1 and Q monic, as a morphism of the line."""

    def __init__(self, numerator: Poly, denominator: Poly):
        if denominator.is_zero():
            raise ValueError("zero denominator")
        if denominator.degree > 0:
            g = poly_gcd(numerator, denominator)
            if g.degree > 0:
                numerator = numerator // g
                denominator = denominator // g
        lc = denominator.lc
        if lc != 1:
            numerator = numerator * (1 / lc)
            denominator = denominator.monic()
        self.num = numerator
        self.den = denominator
        if self.degree < 1:
            raise ValueError("constant map is not a morphism of the line")

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"RationalMap({self.num!r} / {self.den!r})"

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """Value at a projective point, as a point; total on the line."""
        if is_inf(x):
            dn, dd = self.num.degree, self.den.degree
            if dn > dd:
                return INF
            if dn < dd:
                return QQ.zero
            return self.num.lc / self.den.lc
        q = self.den(x)
        if not q:
            return INF
        return self.num(x) * (q.inverse() if isinstance(q, NumberFieldElement) else 1 / q)

    # -- structure -----------------------------------------------------

    def local_index(self, x) -> int:
        """Multiplicity of x as a solution of f(z) = f(x).

        At a finite x with Q(x) != 0 this is the least j >= 1 with
        Q(x) P^(j)(x) != P(x) Q^(j)(x): that difference is the j-th
        derivative at x of P Q(x) - Q P(x), which is Q(x) (P - f(x) Q),
        so no product is expanded and nothing is divided.  P and Q are
        integer lists padded to deg f, so both sides carry the same
        power of the denominators and compare as integers.
        """
        d = self.degree
        p, q = (list(poly.int_form()[0]) + [0] * (d - poly.degree) for poly in (self.num, self.den))
        if is_inf(x):
            if self.den.degree == 0:
                # polynomial map: infinity is totally ramified over itself
                return d
            # move x to 0 by z -> 1/z on the source: z^d P(1/z), z^d Q(1/z)
            p, q, x = p[::-1], q[::-1], QQ.zero
        ev, mul, _ = _evaluator(x)
        q0 = ev(q)
        if not any(q0):
            return _order_ints(q, ev)
        p0 = ev(p)
        j = 0
        # P Q(x) - Q P(x) is a nonzero polynomial of degree at most
        # deg f that vanishes at x, so the loop ends by j = deg f
        while True:
            j += 1
            p, q = _derivative_ints(p), _derivative_ints(q)
            if mul(q0, ev(p)) != mul(p0, ev(q)):
                return j

    # -- ramification --------------------------------------------------

    def ram_divisor(self, claimed: Iterable[RamPoint]) -> list[RamPoint]:
        """Verify a claimed full ramification divisor.

        Each claimed index is recomputed via local_index, and
        completeness is checked against Riemann-Hurwitz on the line:
        sum (e - 1) = 2 deg - 2.
        """
        claimed = list(claimed)
        seen = set()
        for rp in claimed:
            if rp.point in seen:
                raise ValueError(f"duplicate claimed point {rp.point}")
            seen.add(rp.point)
        total = 0
        for rp in claimed:
            actual = self.local_index(rp.point)
            if actual != rp.index:
                raise IndexMismatch(rp.point, rp.index, actual)
            total += rp.index - 1
        expect = 2 * self.degree - 2
        if total != expect:
            raise IncompletenessGap(expect - total)
        return claimed


# ---------------------------------------------------------------------------
# chain verification


@dataclass
class ChainStepReport:
    name: str
    status: str  # "pass" | "fail"
    details: list = dc_field(default_factory=list)
    erratum: bool = False


@dataclass
class ChainReport:
    name: str
    steps: list
    final_set: list
    composite_indices: list
    bound_ok: Optional[bool]
    bound: Optional[int]

    @property
    def passed(self) -> bool:
        return all(s.status == "pass" for s in self.steps) and self.bound_ok is not False


def verify_chain(manifest) -> ChainReport:
    """Verify a chain manifest step by step.

    Tracks, for every point ever introduced (initial branch values and
    later ramification points), the set of composite local indices
    accumulated along every orbit reaching it.  Each step recomputes
    the claimed ramification divisor and the claimed output set; any
    disagreement with the recorded claim is reported as a failure (a
    paper erratum is a failure with erratum=True, never silently
    corrected).  A step whose check raises leaves the tracked points
    as they were; a step whose only fault is its claimed output set
    still moves them.
    """
    tracked: dict = {}  # point -> composite indices reaching it
    for pt, idx in manifest.start:
        tracked.setdefault(pt, set()).add(idx)
    reports = []
    for step in manifest.steps:
        rep = ChainStepReport(name=step.name, status="pass")
        try:
            if step.kind == "belyi":
                move, branch, note = _belyi_step(step)
            else:
                move, branch, note = _map_step(step)
            pushed = []
            for pt, idxs in tracked.items():
                img, e = move(pt)
                pushed.append((img, {a * e for a in idxs}))
            pushed += [(img, {e}) for img, e in branch]
            new_tracked: dict = {}
            for img, indices in pushed:
                new_tracked.setdefault(img, set()).update(indices)
            _claimed_set_check(step.out, new_tracked, rep)
            if note:
                rep.details.append(note)
            tracked = new_tracked
        except VerificationError as exc:
            rep.status = "fail"
            rep.details.append(str(exc))
        reports.append(rep)
    composite = sorted({i for idxs in tracked.values() for i in idxs})
    bound_ok = None
    if manifest.bound is not None:
        bound_ok = all(manifest.bound % i == 0 for i in composite)
    if manifest.bound_primes is not None:
        primes_ok = all(is_smooth(i, manifest.bound_primes) for i in composite if i > 1)
        bound_ok = primes_ok if bound_ok is None else (bound_ok and primes_ok)
    return ChainReport(
        name=manifest.name,
        steps=reports,
        final_set=list(tracked),
        composite_indices=composite,
        bound_ok=bound_ok,
        bound=manifest.bound,
    )


def _claimed_set_check(claimed_points, new_tracked, rep):
    claimed = set(claimed_points)
    got = set(new_tracked)
    if claimed != got:
        missing = claimed - got
        extra = got - claimed
        rep.status = "fail"
        rep.erratum = True
        rep.details.append(
            f"claimed output set disagrees with recomputation: "
            f"missing={sorted(map(str, missing))} extra={sorted(map(str, extra))}"
        )


def _map_step(step):
    """(move, branch images, note) of a map or automorphism step, after
    its claimed ramification divisor is verified."""
    f = step.map
    claimed = [RamPoint(p, e) for p, e in step.ram]
    if step.kind == "auto":
        if f.degree != 1:
            raise VerificationError(f"step {step.name}: automorphism must have degree 1")
        if claimed:
            raise VerificationError(f"step {step.name}: automorphism cannot ramify")
    else:
        f.ram_divisor(claimed)

    def move(pt):
        return f.eval(pt), f.local_index(pt)

    return move, [(f.eval(rp.point), rp.index) for rp in claimed], None


def _belyi_step(step):
    """(move, branch images, note) of a belyi-form step, which is
    verified in closed form and never expanded."""
    from .belyi import BelyiTuple, verify_belyi, NotBelyiForm

    t = BelyiTuple(step.support, step.exponents)
    try:
        verify_belyi(t)
    except NotBelyiForm as exc:
        raise VerificationError(f"step {step.name}: {exc}")
    support = dict(zip(t.support, t.exponents))
    k = len(t.support)

    def move(pt):
        if is_inf(pt):
            return QQ.one, k - 1
        if isinstance(pt, NumberFieldElement):
            raise VerificationError(f"step {step.name}: belyi-form step needs rational points, got {pt}")
        r = support.get(pt)
        if r is None:
            raise VerificationError(
                f"step {step.name}: tracked point {pt} outside the belyi support"
            )
        if r > 0:
            return QQ.zero, r
        return INF, -r

    branch = [(QQ.zero if r > 0 else INF, abs(r)) for r in t.exponents]
    branch.append((QQ.one, k - 1))
    return move, branch, f"belyi-form step of degree {t.degree} (not expanded)"
