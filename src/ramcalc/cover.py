"""Ramification-profile calculus for covers of curves.

Two layers live here.  The concrete layer works with integer fiber
multisets: Riemann-Hurwitz genus accounting, the gcd/lcm compositum
rule and its permutation-action cross-check.  The certificate layer
works with parametrized index claims (c or c*n) and discharges
unramifiedness diagrams at chosen parameter instances, each fiber
claim read as a pair of bounds lo | e | hi on its indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from math import gcd, lcm
from typing import Optional, Sequence

from .exact import excerpt


class InconsistentProfile(ValueError):
    pass


# ---------------------------------------------------------------------------
# concrete profiles


@dataclass
class CoverProfile:
    """Degree, and for each base-point label a sorted multiset of indices.

    Unlisted base points are implicitly unramified full fibers.  Sheet
    labels are opaque: two covers with equal profiles are
    interchangeable here.
    """

    degree: int
    fibers: dict
    base_genus: int = 0

    def __post_init__(self):
        if self.degree < 1:
            raise InconsistentProfile("degree must be positive")
        clean = {}
        for label, fib in self.fibers.items():
            fib = tuple(sorted(int(e) for e in fib))
            if any(e < 1 for e in fib):
                raise InconsistentProfile(f"nonpositive index over {label!r}")
            if sum(fib) != self.degree:
                raise InconsistentProfile(
                    f"fiber over {label!r} sums to {sum(fib)}, degree is {self.degree}"
                )
            clean[label] = fib
        self.fibers = clean

    def fiber(self, label) -> tuple:
        """Fiber over a label; full unramified fiber if unlisted."""
        return self.fibers.get(label, (1,) * self.degree)


def rh_genus(p: CoverProfile) -> int:
    """Source genus from 2g - 2 = d(2g'' - 2) + sum (e - 1)."""
    branch_sum = sum(e - 1 for fib in p.fibers.values() for e in fib)
    rhs = p.degree * (2 * p.base_genus - 2) + branch_sum
    if rhs % 2:
        raise InconsistentProfile("odd Riemann-Hurwitz sum")
    g = (rhs + 2) // 2
    if g < 0:
        raise InconsistentProfile(f"negative genus {g}")
    return g


def standard_projection_profile(n: int) -> CoverProfile:
    """Degree-2 profile of the hyperelliptic projection of y^2 = x^n - 1.

    Branch points are the n-th roots of unity, plus infinity when n is
    odd; labels are opaque strings.
    """
    if n < 1:
        raise ValueError("n must be positive")
    fibers = {f"root{i}": (2,) for i in range(n)}
    if n % 2:
        fibers["inf"] = (2,)
    return CoverProfile(degree=2, fibers=fibers)


def compositum_profile(f: CoverProfile, g: CoverProfile):
    """The gcd/lcm rule for the fiber product of two covers of a base.

    Above each pair (x_i, y_j) with indices (a, b) over z sit gcd(a, b)
    points of index lcm(a, b) over z, hence lcm/a over x_i and lcm/b
    over y_j.  Returns (profile over base, over f-source, over g-source).
    """
    labels = set(f.fibers) | set(g.fibers)
    base_fibers = {}
    over_f = {}
    over_g = {}
    for z in labels:
        fa, gb = f.fiber(z), g.fiber(z)
        base = []
        for i, a in enumerate(fa):
            pts = []
            for b in gb:
                pts.extend([lcm(a, b)] * gcd(a, b))
            base.extend(pts)
            over_f[(z, i)] = tuple(sorted(e // a for e in pts))
        for j, b in enumerate(gb):
            col = []
            for a in fa:
                col.extend([lcm(a, b) // b] * gcd(a, b))
            over_g[(z, j)] = tuple(sorted(col))
        base_fibers[z] = tuple(sorted(base))
    d = f.degree * g.degree
    return (
        CoverProfile(degree=d, fibers=base_fibers, base_genus=f.base_genus),
        CoverProfile(degree=g.degree, fibers={k: v for k, v in over_f.items() if any(e > 1 for e in v)}),
        CoverProfile(degree=f.degree, fibers={k: v for k, v in over_g.items() if any(e > 1 for e in v)}),
    )


def permutation_compositum_fiber(fa: Sequence[int], gb: Sequence[int]) -> tuple:
    """Brute-force oracle for one base point of the compositum rule.

    Realize each fiber as a permutation with one cycle per index, act
    on the product set, and read off orbit sizes.
    """
    points_f = [(i, s) for i, a in enumerate(fa) for s in range(a)]
    points_g = [(j, s) for j, b in enumerate(gb) for s in range(b)]

    def succ_f(p):
        i, s = p
        return (i, (s + 1) % fa[i])

    def succ_g(p):
        j, s = p
        return (j, (s + 1) % gb[j])

    seen = set()
    orbits = []
    for pf in points_f:
        for pg in points_g:
            if (pf, pg) in seen:
                continue
            size = 0
            cur = (pf, pg)
            while cur not in seen:
                seen.add(cur)
                size += 1
                cur = (succ_f(cur[0]), succ_g(cur[1]))
            orbits.append(size)
    return tuple(sorted(orbits))


# ---------------------------------------------------------------------------
# parametrized indices and fiber claims


_PARAM_RE = re.compile(r"^(\d*)(n?)$")


@dataclass(frozen=True)
class ParamIndex:
    """c * n^e with integer c >= 1 and e in {0, 1}."""

    coeff: int
    power: int = 0

    def __post_init__(self):
        if self.coeff < 1:
            raise ValueError("coefficient must be >= 1")
        if self.power not in (0, 1):
            raise ValueError("parameter power must be 0 or 1")

    def at(self, n: int) -> int:
        return self.coeff * (n if self.power else 1)

    @staticmethod
    def parse(s: str) -> "ParamIndex":
        m = _PARAM_RE.match(s.strip())
        if not m:
            raise ValueError(f"bad parametrized index {excerpt(s)!r}")
        c = int(m.group(1)) if m.group(1) else 1
        return ParamIndex(c, 1 if m.group(2) else 0)

    def divides_symbolically(self, other: "ParamIndex") -> Optional[bool]:
        """Whether self | other for every n >= 1; None when undecided."""
        if self.power == other.power:
            return other.coeff % self.coeff == 0
        if self.power == 0 and other.power == 1:
            # sufficient: c1 | c2 implies c1 | c2*n
            return True if other.coeff % self.coeff == 0 else None
        return None

    def __str__(self):
        if self.power == 0:
            return str(self.coeff)
        return "n" if self.coeff == 1 else f"{self.coeff}n"


@dataclass(frozen=True)
class Fiber:
    """A parametrized fiber claim over one base point.

    form "explicit": the full list of indices; "all": every point has
    this index; "divides": every index divides this value; "multiple":
    every index is a multiple of this value.
    """

    form: str
    data: tuple

    def __post_init__(self):
        if self.form not in ("explicit", "all", "divides", "multiple"):
            raise ValueError(f"unknown fiber form {self.form!r}")
        if self.form != "explicit" and len(self.data) != 1:
            raise ValueError(f"{self.form} fiber takes a single index")

    def values_at(self, n: int):
        return tuple(p.at(n) for p in self.data)

    def __str__(self):
        inner = ",".join(str(p) for p in self.data)
        return f"{self.form}({inner})"


TRIVIAL_FIBER = Fiber("all", (ParamIndex(1),))


@dataclass
class Arrow:
    """A cover in a certificate: named, with parametrized fiber claims."""

    name: str
    source: str
    target: str
    degree: Optional[ParamIndex]
    fibers: dict  # base label -> Fiber


@dataclass
class DiagramCertificate:
    name: str
    nodes: list
    claims: list  # (kind, payload...) tuples in dependency order


@dataclass
class ClaimVerdict:
    kind: str
    subject: str
    status: str  # "pass" | "fail" | "assumed"
    details: list = dc_field(default_factory=list)


@dataclass
class CertificateReport:
    name: str
    instances: list
    verdicts: list
    assumptions: list  # (tag, text), echoed, never counted as pass

    @property
    def passed(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts)

    @property
    def discharged_arrows(self) -> list:
        return [v.subject for v in self.verdicts if v.kind == "unramified" and v.status == "pass"]


class CertificateError(ValueError):
    pass


def _bounds(fiber: Fiber, n: int) -> tuple:
    """(lo, hi) with lo | e | hi for every index e of the fiber at n.

    hi = 0 means unbounded (every integer divides 0).  Both are
    attained prime by prime: for each prime p some index has the
    p-adic valuation of lo and some the valuation of hi, so a rule
    stated through them is exact, not merely sufficient.
    """
    vals = fiber.values_at(n)
    if fiber.form == "divides":
        return 1, vals[0]
    if fiber.form == "multiple":
        return vals[0], 0
    return gcd(*vals), lcm(*vals)


def _show(hi: int) -> str:
    return str(hi) if hi else "unbounded"


def _divisibility_ok(f_fiber: Fiber, g_fiber: Fiber, n: int):
    """Does every g-index divide every f-index at this instance?

    Exactly when the lcm of the g-indices divides the gcd of the
    f-indices: hi_g != 0 and hi_g | lo_f.  Returns (ok, witness).
    """
    lo_f = _bounds(f_fiber, n)[0]
    hi_g = _bounds(g_fiber, n)[1]
    if hi_g and lo_f % hi_g == 0:
        return True, None
    return False, f"lcm {_show(hi_g)} of g-indices does not divide gcd {lo_f} of f-indices"


def _claim_ok(lo: int, hi: int, claimed: Fiber, n: int, what: str):
    """Indices with gcd lo and lcm hi are all multiples of r, or all r."""
    if claimed.form not in ("all", "multiple"):
        return False, f"unsupported claim form {claimed.form}"
    (r,) = claimed.values_at(n)
    if lo % r == 0 if claimed.form == "multiple" else lo == hi == r:
        return True, None
    return False, f"{what} has gcd {lo} and lcm {_show(hi)}, claimed {claimed.form} {r}"


def _project_ok(f_fiber: Fiber, g_fiber: Fiber, claimed: Fiber, n: int):
    """Validate a claimed index profile over the g-source above one base.

    A point over x (f-index a) and y (g-index b) has index
    lcm(a, b)/b = a/gcd(a, b) over y.  These indices have gcd
    lo_f/gcd(lo_f, hi_g) and lcm hi_f/gcd(hi_f, lo_g).
    """
    lo_f, hi_f = _bounds(f_fiber, n)
    lo_g, hi_g = _bounds(g_fiber, n)
    return _claim_ok(lo_f // gcd(lo_f, hi_g), hi_f // gcd(hi_f, lo_g), claimed, n,
                     "index over g-source")


def _compose_ok(outer_fiber: Fiber, inner: Fiber, claimed: Fiber, n: int):
    """Composite index over one base point: outer index times inner index.

    These indices have gcd lo_outer * lo_inner and lcm hi_outer *
    hi_inner.  The inner fiber claim comes from a project step covering
    all the relevant preimages (a certificate assumption records why).
    """
    lo_o, hi_o = _bounds(outer_fiber, n)
    lo_i, hi_i = _bounds(inner, n)
    return _claim_ok(lo_o * lo_i, hi_o * hi_i, claimed, n, "composite index")


def _given_profile_verdict(arrow: Arrow, basis: str, instances: Sequence[int]) -> ClaimVerdict:
    """Check a profile taken as given against its stated degree d(n).

    At each instance an explicit fiber sums to d(n), an "all e" fiber
    has e | d(n), and a "multiple m" fiber has m <= d(n).  An arrow
    without a stated degree, and a "divides" fiber, bound nothing here.
    """
    verdict = ClaimVerdict("profile", arrow.name, "pass", [f"basis {basis}"])
    if arrow.degree is None:
        return verdict
    for label, fiber in arrow.fibers.items():
        for n in instances:
            d = arrow.degree.at(n)
            vals = fiber.values_at(n)
            if fiber.form == "explicit" and sum(vals) != d:
                why = f"indices sum to {sum(vals)}, degree is {d}"
            elif fiber.form == "all" and d % vals[0]:
                why = f"index {vals[0]} does not divide degree {d}"
            elif fiber.form == "multiple" and vals[0] > d:
                why = f"multiple {vals[0]} exceeds degree {d}"
            else:
                continue
            verdict.status = "fail"
            verdict.details.append(f"over {label} at n={n}: {why}")
    return verdict


def verify_certificate(cert: DiagramCertificate, parameter_instances: Sequence[int]) -> CertificateReport:
    """Discharge a diagram certificate at the given parameter values.

    Claims are processed in order; profile claims register arrows (a
    profile given is checked against the arrow's degree),
    unramified/project/compose claims are checked against the arrows
    already registered.  Assumptions are echoed in the report and never
    counted as passes.

    The unramified, project and compose rules are exact on the bounds
    lo | e | hi of each fiber claim (`_bounds`).  A compose whose inner
    arrow has no fiber claims, or unequal ones, fails.

    A conclusion S => T passes when T is reached from S in the lies-over
    graph of the claims before it that did not fail: an arrow A -> B
    gives A => B, `unramified h f g` gives source(f) => source(g), and
    `project p f g` gives source(f) => source(p) once (f, g) has passed
    an unramified claim, the compositum being an unramified cover of
    source(f); => is transitive.
    """
    instances = sorted(set(int(v) for v in parameter_instances))
    if not instances or any(v < 1 for v in instances):
        raise CertificateError("parameter instances must be positive integers")
    arrows: dict = {}
    verdicts = []
    assumptions = []
    nodes = set(cert.nodes)
    lies_over: dict = {node: set() for node in nodes}
    unramified_pairs = set()

    def lookup(name: str) -> Arrow:
        if name not in arrows:
            raise CertificateError(f"claim references unregistered arrow {excerpt(name)!r}")
        return arrows[name]

    def check_nodes(arrow: Arrow):
        if arrow.source not in nodes or arrow.target not in nodes:
            raise CertificateError(f"arrow {excerpt(arrow.name)} references unknown nodes")

    def check(verdict: ClaimVerdict, where: str, rule, *fibers):
        for n in instances:
            ok, why = rule(*fibers, n)
            if not ok:
                verdict.status = "fail"
                verdict.details.append(f"{where} at n={n}: {why}")

    def derive(verdict: ClaimVerdict, *edges):
        verdicts.append(verdict)
        if verdict.status != "fail":
            for a, b in edges:
                lies_over[a].add(b)

    for claim in cert.claims:
        kind = claim[0]
        if kind == "profile":
            _, arrow, basis = claim
            check_nodes(arrow)
            if arrow.name in arrows:
                raise CertificateError(f"duplicate arrow {excerpt(arrow.name)}")
            arrows[arrow.name] = arrow
            if basis.startswith("assume:"):
                tag = basis.split(":", 1)[1]
                assumptions.append((tag, f"profile of {arrow.name} taken as given"))
                verdict = ClaimVerdict("profile", arrow.name, "assumed", [f"tag {tag}"])
            else:
                verdict = _given_profile_verdict(arrow, basis, instances)
            derive(verdict, (arrow.source, arrow.target))
        elif kind == "assume":
            _, tag, text = claim
            assumptions.append((tag, text))
            verdicts.append(ClaimVerdict("assume", tag, "assumed", [text]))
        elif kind == "unramified":
            _, name, f_name, g_name = claim
            f, g = lookup(f_name), lookup(g_name)
            verdict = ClaimVerdict("unramified", name, "pass")
            if f.target != g.target:
                verdict.status = "fail"
                verdict.details.append(f"{f_name} covers {f.target}, {g_name} covers {g.target}")
            labels = set(f.fibers) | set(g.fibers)
            for z in sorted(labels, key=str):
                ff = f.fibers.get(z, TRIVIAL_FIBER)
                gf = g.fibers.get(z, TRIVIAL_FIBER)
                if _symbolic_divides(gf, ff):
                    verdict.details.append(f"over {z}: {gf} | {ff} symbolically")
                else:
                    check(verdict, f"over {z}", _divisibility_ok, ff, gf)
            if verdict.status == "pass":
                unramified_pairs.add((f_name, g_name))
            derive(verdict, (f.source, g.source))
        elif kind == "project":
            _, arrow, f_name, g_name, at_labels = claim
            check_nodes(arrow)
            f, g = lookup(f_name), lookup(g_name)
            verdict = ClaimVerdict("project", arrow.name, "pass")
            for z in at_labels:
                ff = f.fibers.get(z, TRIVIAL_FIBER)
                gf = g.fibers.get(z, TRIVIAL_FIBER)
                for target_label, claimed in arrow.fibers.items():
                    check(verdict, f"base {z} -> {target_label}", _project_ok, ff, gf, claimed)
            arrows[arrow.name] = arrow
            edges = [(arrow.source, arrow.target)]
            if (f_name, g_name) in unramified_pairs:
                edges.append((f.source, arrow.source))
            derive(verdict, *edges)
        elif kind == "compose":
            _, arrow, outer_name, inner_name = claim
            check_nodes(arrow)
            outer, inner = lookup(outer_name), lookup(inner_name)
            verdict = ClaimVerdict("compose", arrow.name, "pass")
            inner_specs = set(inner.fibers.values())
            if len(inner_specs) != 1:
                verdict.status = "fail"
                verdict.details.append("inner fiber claims not uniform" if inner_specs
                                       else "inner arrow has no fiber claims")
            else:
                (inner_spec,) = inner_specs
                for z, claimed in arrow.fibers.items():
                    of = outer.fibers.get(z, TRIVIAL_FIBER)
                    check(verdict, f"over {z}", _compose_ok, of, inner_spec, claimed)
            arrows[arrow.name] = arrow
            derive(verdict, (arrow.source, arrow.target))
        elif kind == "conclude":
            _, source, target = claim
            if source not in nodes or target not in nodes:
                raise CertificateError(f"conclusion {excerpt(source)} => {excerpt(target)} references unknown nodes")
            verdict = ClaimVerdict("conclude", f"{source} => {target}", "pass")
            if target not in _reached(lies_over, source):
                verdict.status = "fail"
                verdict.details.append(f"{target} is not reached from {source} by the claims that passed")
            verdicts.append(verdict)
        else:
            raise CertificateError(f"unknown claim kind {kind!r}")
    return CertificateReport(
        name=cert.name, instances=instances, verdicts=verdicts, assumptions=assumptions
    )


def _reached(graph: dict, start: str) -> set:
    """Nodes reached from start along the graph's edges, start included."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in graph[stack.pop()] - seen:
            seen.add(nxt)
            stack.append(nxt)
    return seen


def _symbolic_divides(g_fiber: Fiber, f_fiber: Fiber) -> bool:
    """Symbolic b | a when both sides are uniform parametrized indices."""
    if g_fiber.form in ("all", "explicit") and f_fiber.form in ("all", "explicit", "multiple"):
        gs, fs = set(g_fiber.data), set(f_fiber.data)
        if len(gs) == 1 and len(fs) == 1:
            res = gs.pop().divides_symbolically(fs.pop())
            return bool(res)
    return False
