"""Versioned text formats for chain and certificate artifacts.

Chains: a base field, a starting branch set with indices, and a list
of steps (explicit rational map, degree-1 automorphism, or a
product-form step given by support and exponents), each with claimed
ramification data and claimed output set.  Every map is over Q, so its
num and den coefficients are rationals; points are rationals or, in a
cyclotomic chain, polynomials over Q in the generator t.  Certificates:
nodes, parametrized arrows, and an ordered claim list for the diagram
checker.  All numbers are exact decimal strings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .belyi import MAX_BELYI_SUPPORT_SIZE
from .exact import RAT, NumberField, Poly, QQ, RationalField, check_digits, excerpt, parse_int, prime_list
from .rmap import INF, RationalMap
from .cover import Arrow, DiagramCertificate, Fiber, ParamIndex

CHAIN_HEADER = "ramcalc-chain 1"
CERT_HEADER = "ramcalc-cert 1"


class ManifestError(ValueError):
    pass


# ---------------------------------------------------------------------------
# point expressions


_TOKEN_RE = re.compile(r"\s*(\d+(?:\.\d*)?|\.\d+|[A-Za-z]\w*|\*\*|[-+*/^()])")

# the largest exponent, the largest degree of a polynomial built while
# parsing, and the deepest nesting of parentheses: expressions are
# outside input, and z^100000 or (z^64)^64 would otherwise be expanded
# before anything looks at them, and each nesting level is a recursion
MAX_DEGREE = 64


def _tokenize(s: str):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise ManifestError(f"bad character in expression {excerpt(s)!r} at {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _degree(v) -> int:
    return v.degree if isinstance(v, Poly) else 0


class _ExprParser:
    """Recursive-descent parser for polynomials over Q, each value a
    rational or a `Poly`.

    Grammar: expr = term (('+'|'-') term)*; term = factor (('*'|'/')
    factor)*; factor = '-'* atom (('^'|'**') int)?; atom = number | name
    | (expr), where a number is an integer or a decimal and each name
    is a key of `gens`, the variables the caller allows.  Division is
    by nonzero constants only, and parentheses nest at most MAX_DEGREE
    deep.
    """

    def __init__(self, gens: dict, tokens):
        self.gens = gens
        self.toks = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        v = self.expr()
        if self.peek() is not None:
            raise ManifestError(f"trailing tokens near {excerpt(self.peek())!r}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            w = self.factor()
            if op == "/":
                if not w:
                    raise ManifestError("division by zero")
                if isinstance(w, Poly):
                    raise ManifestError("division by a polynomial")
                w = 1 / w
            if _degree(v) + _degree(w) > MAX_DEGREE:
                raise ManifestError(f"degree above {MAX_DEGREE}")
            v = v * w
        return v

    def factor(self):
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        v = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise ManifestError("exponent must be a nonnegative integer")
            e = int(e)
            if e > MAX_DEGREE or _degree(v) * e > MAX_DEGREE:
                raise ManifestError(f"exponent or degree above {MAX_DEGREE}")
            v = v ** e
        return v if sign > 0 else -v

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ManifestError("unexpected end of expression")
        if tok[0].isdigit() or tok[0] == ".":
            check_digits(tok)
            return RAT(int(tok) if tok.isdigit() else tok)
        if tok in self.gens:
            return self.gens[tok]
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_DEGREE:
                raise ManifestError(f"parentheses nested deeper than {MAX_DEGREE}")
            v = self.expr()
            if self.take() != ")":
                raise ManifestError("unbalanced parenthesis")
            self.depth -= 1
            return v
        raise ManifestError(f"unexpected token {excerpt(tok)!r}")


def parse_point(field, s: str):
    """'inf', or a polynomial over Q in the generator t (or T) of the
    field, reduced once mod its minimal polynomial into a point."""
    s = s.strip()
    if s == "inf":
        return INF
    gens = {} if isinstance(field, RationalField) else dict.fromkeys("tT", Poly(QQ, [0, 1]))
    v = _ExprParser(gens, _tokenize(s)).parse()
    return field.element(v.ints, v.den) if isinstance(v, Poly) else v


def parse_poly(s: str) -> Poly:
    """Parse a polynomial in z over Q.  Raises ManifestError on bad
    syntax, division by a non-constant, and exponents or degrees above
    MAX_DEGREE."""
    v = _ExprParser({"z": Poly(QQ, [0, 1])}, _tokenize(s.strip())).parse()
    return v if isinstance(v, Poly) else Poly(QQ, [v])


def _render_field_spec(field) -> str:
    if isinstance(field, RationalField):
        return "rational"
    return f"cyclotomic {field.cyclotomic_index}"


def _parse_field_spec(spec: str):
    parts = spec.split()
    if parts == ["rational"]:
        return QQ
    if len(parts) == 2 and parts[0] == "cyclotomic":
        n = parse_int(parts[1])
        if n > MAX_DEGREE:
            raise ManifestError(f"cyclotomic index above {MAX_DEGREE}")
        return NumberField.cyclotomic_field(n)
    raise ManifestError(f"bad field spec {excerpt(spec)!r}")


# ---------------------------------------------------------------------------
# chain manifests


@dataclass
class ChainStep:
    name: str
    kind: str  # "map" | "auto" | "belyi"
    map: Optional[RationalMap] = None
    support: Optional[tuple] = None
    exponents: Optional[tuple] = None
    ram: list = dc_field(default_factory=list)  # (point, index)
    out: list = dc_field(default_factory=list)  # points


@dataclass
class ChainManifest:
    name: str
    field: object
    start: list  # (point, index)
    steps: list
    bound: Optional[int] = None
    bound_primes: Optional[tuple] = None


def render_chain(m: ChainManifest) -> str:
    lines = [CHAIN_HEADER, f"name {m.name}", f"field {_render_field_spec(m.field)}"]
    if m.bound is not None:
        lines.append(f"bound {m.bound}")
    if m.bound_primes is not None:
        lines.append("bound-primes " + " ".join(str(p) for p in m.bound_primes))
    lines.append("start " + " ".join(f"{p}:{i}" for p, i in m.start))
    for step in m.steps:
        lines.append(f"step {step.name} {step.kind}")
        if step.kind == "belyi":
            lines.append("support " + " ".join(str(q) for q in step.support))
            lines.append("exponents " + " ".join(str(r) for r in step.exponents))
        else:
            lines.append("num " + " ".join(str(c) for c in step.map.num.coeffs))
            lines.append("den " + " ".join(str(c) for c in step.map.den.coeffs))
        if step.ram:
            lines.append("ram " + " ".join(f"{p}:{i}" for p, i in step.ram))
        lines.append("out " + " ".join(str(p) for p in step.out))
    return "\n".join(lines) + "\n"


_STEP_KEYS = ("support", "exponents", "num", "den", "ram", "out")


def parse_support(text: str) -> tuple:
    """A belyi support: at most MAX_BELYI_SUPPORT_SIZE rationals under
    the `check_digits` bound, separated by commas or spaces.  An entry in
    exponent form is refused: RAT() reads 1e100000 as a number of
    100 001 digits, which the digit bound does not see."""
    entries = [check_digits(q) for q in text.replace(",", " ").split()]
    if len(entries) > MAX_BELYI_SUPPORT_SIZE:
        raise ManifestError(f"support of size {len(entries)} is above {MAX_BELYI_SUPPORT_SIZE}")
    for q in entries:
        if "e" in q or "E" in q:
            raise ManifestError(f"support entry {excerpt(q)!r} is in exponent form")
    try:
        return tuple(RAT(q) for q in entries)
    except (ValueError, ZeroDivisionError):
        raise ManifestError(f"bad rational list {excerpt(text)!r}") from None


def _parse_coeffs(rest: str) -> Poly:
    """A num or den line: rational coefficients, constant term first."""
    coeffs = []
    for c in rest.split():
        try:
            coeffs.append(_ExprParser({}, _tokenize(c)).parse())
        except ManifestError as exc:
            raise ManifestError(f"map coefficient {excerpt(c)!r} is not rational: {exc}") from None
    return Poly(QQ, coeffs)


def parse_chain(text: str) -> ChainManifest:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CHAIN_HEADER:
        raise ManifestError("missing or wrong chain header")
    name = None
    field = None
    bound = None
    bound_primes = None
    start = []
    steps = []
    current = None

    def close_step():
        if current is None:
            return
        if current.kind == "belyi":
            if current.support is None or current.exponents is None:
                raise ManifestError(f"step {excerpt(current.name)}: missing support/exponents")
        else:
            if current.map is None:
                raise ManifestError(f"step {excerpt(current.name)}: missing num/den")
        steps.append(current)

    num = None
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key == "name":
            name = rest.strip()
        elif key == "field":
            field = _parse_field_spec(rest)
        elif key == "bound":
            bound = parse_int(rest)
            if bound < 1:
                raise ManifestError(f"bound must be at least 1: {excerpt(str(bound))}")
        elif key == "bound-primes":
            bound_primes = prime_list(parse_int(p) for p in rest.split())
        elif key == "start":
            if field is None:
                raise ManifestError("field must precede start")
            for item in rest.split():
                p, _, i = item.rpartition(":")
                index = parse_int(i)
                if index < 1:
                    raise ManifestError(f"start index must be at least 1: {excerpt(item)!r}")
                start.append((parse_point(field, p), index))
        elif key == "step":
            if field is None:
                raise ManifestError("field must precede steps")
            close_step()
            parts = rest.split()
            if len(parts) != 2 or parts[1] not in ("map", "auto", "belyi"):
                raise ManifestError(f"bad step line {excerpt(ln)!r}")
            current = ChainStep(name=parts[0], kind=parts[1])
            num = None
        elif key in _STEP_KEYS and current is None:
            raise ManifestError(f"{key} line outside a step")
        elif key == "support":
            current.support = parse_support(rest)
        elif key == "exponents":
            current.exponents = tuple(parse_int(r) for r in rest.split())
        elif key == "num":
            num = _parse_coeffs(rest)
        elif key == "den":
            den = _parse_coeffs(rest)
            if num is None:
                raise ManifestError(f"step {excerpt(current.name)}: den before num")
            current.map = RationalMap(num, den)
        elif key == "ram":
            for item in rest.split():
                p, _, i = item.rpartition(":")
                current.ram.append((parse_point(field, p), parse_int(i)))
        elif key == "out":
            current.out = [parse_point(field, p) for p in rest.split()]
        else:
            raise ManifestError(f"unknown chain key {excerpt(key)!r}")
    close_step()
    if name is None or field is None or not start:
        raise ManifestError("chain needs name, field, and start")
    return ChainManifest(
        name=name, field=field, start=start, steps=steps, bound=bound, bound_primes=bound_primes
    )


# ---------------------------------------------------------------------------
# certificate manifests


@dataclass
class CertificateManifest:
    certificate: DiagramCertificate
    parameter: str
    instances: tuple
    arrows: list  # declaration order, for rendering


def _render_pi(pi: Optional[ParamIndex]) -> str:
    return "-" if pi is None else str(pi)


def _parse_pi(s: str) -> Optional[ParamIndex]:
    return None if s == "-" else ParamIndex.parse(s)


def render_cert(m: CertificateManifest) -> str:
    cert = m.certificate
    lines = [CERT_HEADER, f"name {cert.name}", f"parameter {m.parameter}"]
    lines.append("instances " + " ".join(str(v) for v in m.instances))
    for node in cert.nodes:
        lines.append(f"node {node}")
    for arrow in m.arrows:
        lines.append(
            f"arrow {arrow.name} {arrow.source} {arrow.target} degree={_render_pi(arrow.degree)}"
        )
        for label, fiber in arrow.fibers.items():
            idx = " ".join(str(p) for p in fiber.data)
            lines.append(f"fiber {arrow.name} {label} {fiber.form} {idx}")
    for kind, *fields in cert.claims:
        if kind not in _CLAIM_FIELDS and kind != "assume":
            raise ManifestError(f"unknown claim kind {kind!r}")
        # arrows print by name, and a project claim's labels follow "at"
        words = [f.name if isinstance(f, Arrow) else f for f in fields]
        if kind == "project":
            words[-1:] = ["at", *words[-1]]
        lines.append(" ".join(["claim", kind, *words]))
    return "\n".join(lines) + "\n"


# names a claim line needs after its kind (for project, before "at")
_CLAIM_FIELDS = {"profile": 2, "unramified": 3, "project": 3, "compose": 3, "conclude": 2}


def parse_cert(text: str) -> CertificateManifest:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CERT_HEADER:
        raise ManifestError("missing or wrong certificate header")
    name = None
    parameter = "n"
    instances: tuple = ()
    nodes = []
    arrows: dict = {}
    order = []
    claims = []
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key == "name":
            name = rest.strip()
        elif key == "parameter":
            parameter = rest.strip()
        elif key == "instances":
            instances = tuple(parse_int(v) for v in rest.split())
        elif key == "node":
            nodes.append(rest.strip())
        elif key == "arrow":
            parts = rest.split()
            if len(parts) != 4 or not parts[3].startswith("degree="):
                raise ManifestError(f"bad arrow line {excerpt(ln)!r}")
            arrow = Arrow(
                name=parts[0],
                source=parts[1],
                target=parts[2],
                degree=_parse_pi(parts[3][len("degree="):]),
                fibers={},
            )
            if arrow.name in arrows:
                raise ManifestError(f"duplicate arrow {excerpt(arrow.name)}")
            arrows[arrow.name] = arrow
            order.append(arrow)
        elif key == "fiber":
            parts = rest.split()
            if len(parts) < 4:
                raise ManifestError(f"bad fiber line {excerpt(ln)!r}")
            arrow = arrows.get(parts[0])
            if arrow is None:
                raise ManifestError(f"fiber for unknown arrow {excerpt(parts[0])!r}")
            fiber = Fiber(parts[2], tuple(ParamIndex.parse(s) for s in parts[3:]))
            arrow.fibers[parts[1]] = fiber
        elif key == "claim":
            ckind, _, crest = rest.partition(" ")
            parts = crest.split()
            if ckind == "project":
                if "at" not in parts:
                    raise ManifestError(f"project claim needs 'at': {excerpt(ln)!r}")
                cut = parts.index("at")
                parts, at_labels = parts[:cut], parts[cut + 1:]
            if len(parts) < _CLAIM_FIELDS.get(ckind, 0):
                raise ManifestError(f"too few fields in claim line {excerpt(ln)!r}")
            if ckind in ("profile", "project", "compose") and parts[0] not in arrows:
                raise ManifestError(f"claim names undeclared arrow {excerpt(parts[0])!r}")
            if ckind == "profile":
                claims.append(("profile", arrows[parts[0]], parts[1]))
            elif ckind == "assume":
                tag, _, text = crest.partition(" ")
                claims.append(("assume", tag, text.strip()))
            elif ckind == "unramified":
                claims.append(("unramified", parts[0], parts[1], parts[2]))
            elif ckind == "project":
                claims.append(("project", arrows[parts[0]], parts[1], parts[2], at_labels))
            elif ckind == "compose":
                claims.append(("compose", arrows[parts[0]], parts[1], parts[2]))
            elif ckind == "conclude":
                claims.append(("conclude", parts[0], parts[1]))
            else:
                raise ManifestError(f"unknown claim kind {excerpt(ckind)!r}")
        else:
            raise ManifestError(f"unknown certificate key {excerpt(key)!r}")
    if name is None or not nodes:
        raise ManifestError("certificate needs a name and nodes")
    cert = DiagramCertificate(name=name, nodes=nodes, claims=claims)
    return CertificateManifest(
        certificate=cert, parameter=parameter, instances=instances, arrows=order
    )


# ---------------------------------------------------------------------------
# bundled artifacts


def bundled_text(filename: str) -> str:
    from importlib import resources

    return resources.files("ramcalc.data").joinpath(filename).read_text()
