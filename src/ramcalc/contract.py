"""Contract algebraic point sets on the line to rational points.

Given a finite set of algebraic points (as squarefree polynomials over
Q, never factored), build a composition of polynomial maps over Q, each
of 2-power degree with all finite local indices 2, whose composite
sends every point to a rational point.  The trick in each step:
multiply an entry f of the largest degree m by a solved cofactor g of
degree r = 2^k - m so that F = fg has critical points at chosen
rational targets; roots of f all map to 0 under F.  When m = 2^j and
f' is squarefree, f itself already has this shape and the step takes
F = f (r = 0, no targets); quadratics always do.  The next set holds
the images of the points and the critical values of F, never its
critical points, which lie on the source line of F.  The termination
measure drops for any squarefree entries, so irreducibility is never
needed.  `verify_contraction` rechecks a finished contraction from its
recorded maps alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .exact import (
    Poly,
    QQ,
    _image_poly,
    _is_squarefree_qq,
    solve_linear_system,
    squarefree_part,
)


# target tuples tried per step, and steps per contraction, before
# StrategyExhausted
RETRY_CAP = 1000
MAX_STEPS = 64


class StrategyExhausted(RuntimeError):
    pass


class HeightCapExceeded(RuntimeError):
    pass


class ContractionRejected(RuntimeError):
    pass


@dataclass
class AlgebraicPointSet:
    """Monic squarefree rational polynomials, pairwise distinct.

    Each polynomial stands for its set of roots, a union of conjugacy
    classes; degree-1 entries are rational points.  Two entries may
    share a root: no gcd-free basis is kept, since the termination
    measure drops for any squarefree entries.  Infinity is not tracked:
    every step map is a polynomial, which fixes it.
    """

    polys: list

    def __post_init__(self):
        seen = set()
        for p in self.polys:
            if p.is_zero() or p.lc != 1:
                raise ValueError("entries must be monic polynomials")
            if p.coeffs in seen:
                raise ValueError("duplicate entry")
            seen.add(p.coeffs)

    @staticmethod
    def from_polys(polys: Iterable[Poly]) -> "AlgebraicPointSet":
        """The set of roots of polys: the squarefree part of each nonconstant
        p is one entry."""
        return AlgebraicPointSet.from_squarefree(q for q in map(squarefree_part, polys) if q.degree > 0)

    @staticmethod
    def from_squarefree(polys: Iterable[Poly]) -> "AlgebraicPointSet":
        """The set with the given monic squarefree entries, taken as they
        are: repeats dropped, sorted by (degree, coefficients)."""
        out = {}
        for q in polys:
            out.setdefault(q.coeffs, q)
        return AlgebraicPointSet(sorted(out.values(), key=lambda q: (q.degree, q.coeffs)))

    def max_degree(self) -> int:
        return max((p.degree for p in self.polys), default=0)

    def measure(self) -> tuple:
        """(max degree, count at max degree) — strictly drops each step."""
        m = self.max_degree()
        return (m, sum(1 for p in self.polys if p.degree == m))

    def all_rational(self) -> bool:
        return self.max_degree() <= 1


def split_degree(m: int):
    """The unique (k, r) with 2^(k-1) <= m < 2^k and r = 2^k - m."""
    if m < 2:
        raise ValueError("rational points need no reduction step")
    k = m.bit_length()
    return k, (1 << k) - m


def build_cofactor(f: Poly, targets: list) -> Poly:
    """Monic g with (fg)'(x_i) = 0 at each target, by exact linear solve.

    Write g = z^r + a_{r-1} z^{r-1} + ... + a_0; each condition
    F'(x_i) = 0 is linear in the a_j.  Targets must be distinct and
    avoid the roots of f (ValueError otherwise).  ArithmeticError when
    the system is singular.
    """
    targets = [QQ.coerce(x) for x in targets]
    if len(set(targets)) != len(targets):
        raise ValueError("repeated target")
    for x in targets:
        if f.evaluates_to_zero(x):
            raise ValueError(f"target {x} is a root of f")
    r = len(targets)
    if r == 0:
        return Poly(QQ, [1])
    fp = f.derivative()
    # F' = f'g + fg'; row for target x: sum_j a_j (f'(x) x^j + f(x) j x^(j-1))
    matrix = []
    rhs = []
    for x in targets:
        fx, fpx = f(x), fp(x)
        row = []
        for j in range(r):
            dmono = j * x ** (j - 1) if j else Fraction(0)
            row.append(fpx * x ** j + fx * dmono)
        lead = fpx * x ** r + fx * r * x ** (r - 1)
        matrix.append(row)
        rhs.append(-lead)
    sol = solve_linear_system(matrix, rhs)
    if sol is None:
        raise ArithmeticError(f"degenerate {r}x{r} system for targets {targets}")
    return Poly(QQ, list(sol) + [1])


@dataclass
class ReductionStep:
    eliminated: Poly
    k: int
    r: int
    targets: list
    product: Poly  # F = f * g, degree 2^k
    coeff_bits: int  # largest numerator/denominator bit size in F


@dataclass
class ContractionResult:
    steps: list
    final_set: AlgebraicPointSet
    index_certificate: list  # per-step (finite index bound, index at infinity)

    @property
    def composite_index_bound(self) -> int:
        """Product of per-step index bounds along any orbit (a 2-power)."""
        out = 1
        for _, at_inf in self.index_certificate:
            out *= at_inf
        return out


def default_targets():
    """Deterministic small-height spiral 0, 1, -1, 2, -2, ..."""
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def _check_step(F: Poly, targets: list) -> None:
    """Verify the per-step ramification certificate of F as a map.

    F' vanishes at each target and F' is squarefree.  For a polynomial
    F over Q these two imply the rest: the index at each target is
    1 + ord_x F' = 2, no finite index is above 2, and the index at
    infinity is deg F, so the deg F - 1 simple finite critical points
    complete Riemann-Hurwitz.
    """
    Fp = F.derivative()
    for x in targets:
        if not Fp.evaluates_to_zero(x):
            raise ArithmeticError(f"F'({x}) != 0")
    if not _is_squarefree_qq(Fp):
        raise ArithmeticError("F' is not squarefree")


def _capped_bits(p: Poly, height_cap: Optional[int]) -> int:
    """Largest numerator/denominator bit size in p, checked against the cap."""
    bits = 0
    for c in p.coeffs:
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    if height_cap is not None and bits > height_cap:
        raise HeightCapExceeded(f"coefficient size {bits} bits exceeds cap {height_cap}")
    return bits


def _admissible_step(f: Poly, k: int, targets: list, height_cap: Optional[int]):
    """The ReductionStep for F = f g with g solved at targets, or None
    when the targets are not admissible (no cofactor, or F fails its
    certificate)."""
    try:
        g = build_cofactor(f, targets)
        F = f * g
        _check_step(F, targets)
    except ArithmeticError:
        return None
    return ReductionStep(
        eliminated=f, k=k, r=len(targets), targets=targets, product=F,
        coeff_bits=_capped_bits(F, height_cap),
    )


def reduction_step(S: AlgebraicPointSet, height_cap: Optional[int] = None):
    """One round of the elimination: returns (ReductionStep, new set).

    Picks a maximal-degree entry f.  If its degree m is a power of 2
    and f' is squarefree, F = f passes the certificate as it stands and
    the step has r = 0 and no targets; every quadratic does.  Otherwise
    it slides a window of r targets along `default_targets` and takes
    the first admissible tuple (cofactor solvable, F' squarefree),
    trying at most RETRY_CAP.  The new set is F(S) together with the
    critical values of F: the images of the targets, and the image of
    the remaining critical cofactor as one entry.  Rational entries are
    carried as they are; every other entry is replaced by its image,
    which `_image_poly` returns squarefree.  Nothing is factored.  The
    degree-m count strictly drops: roots of f go to the rational point
    0, no image has a higher degree than its source, and the cofactor
    has degree m - 1.  F and each image polynomial are held to
    `height_cap` as soon as they are built (HeightCapExceeded).
    """
    m = S.max_degree()
    if m < 2:
        raise ValueError("set is already rational")
    f = next(p for p in S.polys if p.degree == m)

    step = None
    # F = f needs a 2-power degree and a squarefree f' (_check_step
    # decides the latter); every quadratic passes, with its one critical
    # point -b/2 rational, and gets the certificate (2, 2)
    if m & (m - 1) == 0:
        step = _admissible_step(f, m.bit_length() - 1, [], height_cap)
    if step is None:
        k, r = split_degree(m)
        attempts = 0
        window: list = []
        for cand in default_targets():
            if attempts >= RETRY_CAP:
                break
            if cand in window or f.evaluates_to_zero(cand):
                continue
            window.append(cand)
            if len(window) < r:
                continue
            attempts += 1
            step = _admissible_step(f, k, list(window), height_cap)
            if step is not None:
                break
            window.pop(0)
        if step is None:
            raise StrategyExhausted(f"no admissible target tuple found in {attempts} attempts")

    F = step.product

    def image(p):
        q = _image_poly(F, p)
        _capped_bits(q, height_cap)
        return q

    # rational points stay rational under every later map; carry them
    # along untouched instead of pushing them forward
    new_polys = [p if p.degree == 1 else image(p) for p in S.polys]
    # critical values of F: the images of the targets and of the
    # remaining critical cofactor; the critical points themselves lie on
    # the source line of F and are not carried
    crit = F.derivative().monic()
    for x in step.targets:
        crit = crit // Poly(QQ, [-x, 1])
        new_polys.append(Poly(QQ, [-F(x), 1]))
    new_polys.append(image(crit))
    new_set = AlgebraicPointSet.from_squarefree(new_polys)

    old_measure, new_measure = S.measure(), new_set.measure()
    if not new_measure < old_measure:
        raise ArithmeticError(f"termination measure did not drop: {old_measure} -> {new_measure}")
    return step, new_set


def contract_to_rational(
    S: AlgebraicPointSet, height_cap: Optional[int] = None
) -> ContractionResult:
    """Iterate reduction steps until every tracked point is rational.

    The composite map is the composition of the step products F; its
    local indices multiply along orbits, and each step contributes
    finite indices in {1, 2} and index 2^k at infinity, so every
    composite index is a power of 2.  A height cap below 1 is a
    ValueError: every polynomial the steps build has a coefficient of
    at least 1 bit.
    """
    if height_cap is not None and height_cap < 1:
        raise ValueError(f"height cap must be at least 1, got {height_cap}")
    steps = []
    cert = []
    current = S
    while not current.all_rational():
        if len(steps) >= MAX_STEPS:
            raise StrategyExhausted(f"points still not rational after {MAX_STEPS} steps")
        step, current = reduction_step(current, height_cap)
        steps.append(step)
        cert.append((2, step.product.degree))
    return ContractionResult(steps=steps, final_set=current, index_certificate=cert)


def verify_contraction(
    S: AlgebraicPointSet, result: ContractionResult, height_cap: Optional[int] = None
) -> None:
    """Recheck that result contracts S, from its recorded maps alone.

    Builds no cofactor and replays no reduction step.  Each step map F
    must have degree 2^k for the step's k, its certificate entry must
    be (2, deg F), and F' must be squarefree of degree deg F - 1 and
    vanish at the step's targets, so every finite local index is 1 or
    2.  The tracked polynomials are the entries of S and the critical
    values of each F: z - F(x) at each target x, and the image of F'
    made monic and divided exactly by z - x for each target.  Each is
    pushed forward one map at a time by `_image_poly`, whole, as
    `reduction_step` pushes an entry, until it has degree 1; a rational
    point is carried unchanged from then on, so it must then be a final
    point.  A polynomial of degree above 1 after the last map is
    rejected.  Every final point must be reached.  Each image is held
    to `height_cap` as soon as it is built (HeightCapExceeded).  Raises
    ContractionRejected naming the first check that fails.
    """
    steps = result.steps
    if len(result.index_certificate) != len(steps):
        raise ContractionRejected("certificate and steps differ in length")
    if any(p.degree != 1 for p in result.final_set.polys):
        raise ContractionRejected("final set is not rational")
    final = {p.coeffs for p in result.final_set.polys}
    maps = []
    tracked = [(0, p) for p in S.polys]  # (maps applied, squarefree polynomial)

    def push(F: Poly, P: Poly) -> Poly:
        P = _image_poly(F, P)
        _capped_bits(P, height_cap)
        return P

    for i, (step, entry) in enumerate(zip(steps, result.index_certificate), 1):
        F = step.product
        d = F.degree
        if step.k < 1 or d != 1 << step.k:
            raise ContractionRejected(f"step {i}: deg F = {d} is not 2^k for k = {step.k}")
        if tuple(entry) != (2, d):
            raise ContractionRejected(f"step {i}: certificate entry {tuple(entry)} is not (2, {d})")
        Fp = F.derivative()
        if Fp.degree != d - 1 or not _is_squarefree_qq(Fp):
            raise ContractionRejected(f"step {i}: F' is not squarefree of degree {d - 1}")
        crit = Fp.monic()
        for x in step.targets:
            crit, rem = divmod(crit, Poly(QQ, [-x, 1]))
            if rem:
                raise ContractionRejected(f"step {i}: F' does not vanish at the target {x}")
            tracked.append((i, Poly(QQ, [-F(x), 1])))
        tracked.append((i, push(F, crit)))
        maps.append(F)

    reached = set()
    for stage, P in tracked:
        # the roots of P are the tracked points after `stage` maps
        while P.degree > 1:
            if stage == len(maps):
                raise ContractionRejected(f"points of degree {P.degree} are left after the last map")
            P = push(maps[stage], P)
            stage += 1
        P = P.monic()
        if P.coeffs not in final:
            raise ContractionRejected(
                f"the rational point {-P.coeffs[0]} after map {stage} is not a final point"
            )
        reached.add(P.coeffs)
    missed = sorted(final - reached)
    if missed:
        raise ContractionRejected(f"the final point {-missed[0][0]} is reached by no tracked point")
