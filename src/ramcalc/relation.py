"""Domination-relation engine over the curve family C(n).

Nodes are either curves C(n) (y^2 = x^n - 1) or named class nodes
(universally quantified families, e.g. the hyperbolic hyperelliptic
curves).  Edge rules are parametrized monomial rewrites C(c*n) =>
C(c'*n) with side conditions, backed either by a bundled verified
artifact or by an explicit axiom tag.  Reachability is bounded
breadth-first search; traces re-validate independently.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Optional

STORE_HEADER = "ramcalc-rules 1"
DEFAULT_BOUND = 64
# intermediate curve levels may exceed both endpoints by the rule
# coefficients; this slack covers two nested applications of the
# largest bundled coefficient at desk scale
CAP_FACTOR = 1 << 45


class UnverifiedProvenance(ValueError):
    pass


class StoreFormatError(ValueError):
    pass


@dataclass(frozen=True)
class CurveNode:
    """C(n) for n >= 1, or a named class node."""

    kind: str  # "curve" | "class"
    n: Optional[int] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.kind == "curve":
            if self.n is None or self.n < 1:
                raise ValueError("curve index must be >= 1")
        elif self.kind == "class":
            if not self.name:
                raise ValueError("class node needs a name")
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")

    @staticmethod
    def curve(n: int) -> "CurveNode":
        return CurveNode("curve", n=int(n))

    @staticmethod
    def named(name: str) -> "CurveNode":
        return CurveNode("class", name=name)

    def __str__(self):
        return f"C({self.n})" if self.kind == "curve" else self.name


_PATTERN_RE = re.compile(r"^C\((?:(\d+)(n?)|(n)|(kn))\)$")


@dataclass(frozen=True)
class NodePattern:
    """Matches nodes: a class name, C(c), C(c*n), or the divisor form C(kn).

    The divisor form is only legal as the source of a rule whose target
    is C(n): it matches C(m) and instantiates n as any proper divisor.
    """

    form: str  # "class" | "const" | "monomial" | "divisor"
    coeff: int = 1
    name: Optional[str] = None

    @staticmethod
    def parse(s: str) -> "NodePattern":
        s = s.strip()
        m = _PATTERN_RE.match(s)
        if not m:
            if re.match(r"^[A-Za-z][A-Za-z0-9_-]*$", s):
                return NodePattern("class", name=s)
            raise StoreFormatError(f"bad node pattern {s!r}")
        if m.group(4):
            return NodePattern("divisor")
        if m.group(3):
            return NodePattern("monomial", coeff=1)
        coeff = int(m.group(1))
        if m.group(2):
            return NodePattern("monomial", coeff=coeff)
        return NodePattern("const", coeff=coeff)

    def __str__(self):
        if self.form == "class":
            return self.name
        if self.form == "const":
            return f"C({self.coeff})"
        if self.form == "divisor":
            return "C(kn)"
        return f"C({self.coeff}n)" if self.coeff != 1 else "C(n)"


_COND_RE = re.compile(r"^n>=(\d+)$")


@dataclass(frozen=True)
class EdgeRule:
    """source => target under a side condition, with provenance."""

    rule_id: str
    source: NodePattern
    target: NodePattern
    condition: str  # "n>=<k>"
    kind: str  # "axiom" | "verified"
    provenance: str  # artifact filename for verified rules, citation tag for axioms

    def __post_init__(self):
        if self.kind not in ("axiom", "verified"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if not self.provenance:
            raise ValueError("provenance must be nonempty")
        if not _COND_RE.match(self.condition):
            raise ValueError(f"unsupported side condition {self.condition!r}")
        if self.source.form == "divisor" and not (
            self.target.form == "monomial" and self.target.coeff == 1
        ):
            raise ValueError("divisor source requires target C(n)")
        if self.target.form == "divisor":
            raise ValueError("divisor pattern is only legal as a source")

    @property
    def min_param(self) -> int:
        return int(_COND_RE.match(self.condition).group(1))

    def content_line(self) -> str:
        return (
            f"rule {self.rule_id} kind={self.kind} source={self.source} "
            f"target={self.target} cond={self.condition} provenance={self.provenance}"
        )

    def content_hash(self) -> str:
        return hashlib.sha256(self.content_line().encode()).hexdigest()

    def successors(self, node: CurveNode):
        """All (parameter, next node) pairs this rule yields from a node."""
        out = []
        src = self.source
        if src.form == "class":
            if node.kind == "class" and node.name == src.name:
                out.append((None, self._instantiate(1)))
            return out
        if node.kind != "curve":
            return out
        m = node.n
        if src.form == "const":
            if m == src.coeff and self.min_param <= 1:
                out.append((1, self._instantiate(1)))
        elif src.form == "monomial":
            if m % src.coeff == 0:
                n = m // src.coeff
                if n >= self.min_param:
                    out.append((n, self._instantiate(n)))
        elif src.form == "divisor":
            for d in _proper_divisors(m):
                if d >= self.min_param:
                    out.append((d, CurveNode.curve(d)))
        return out

    def _instantiate(self, n: int) -> CurveNode:
        t = self.target
        if t.form == "class":
            return CurveNode.named(t.name)
        if t.form == "const":
            return CurveNode.curve(t.coeff)
        return CurveNode.curve(t.coeff * n)


def _proper_divisors(m: int):
    """Proper divisors from a small-prime factorization.

    Curve levels in this graph are smooth by construction, so trial
    division by small primes factors them completely; any unfactored
    remainder is kept as a single block (its internal divisors are
    irrelevant for the smooth targets the search cares about).
    """
    factors = []
    rest = m
    for p in range(2, 1000):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    if rest > 1:
        factors.append((rest, 1))
    divs = [1]
    for p, e in factors:
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(d for d in divs if d != m)


@dataclass
class TraceStep:
    rule: EdgeRule
    parameter: Optional[int]
    source: CurveNode
    target: CurveNode


@dataclass
class DerivationTrace:
    """A chain of rule applications witnessing source => target."""

    steps: list

    @property
    def source(self) -> Optional[CurveNode]:
        return self.steps[0].source if self.steps else None

    @property
    def target(self) -> Optional[CurveNode]:
        return self.steps[-1].target if self.steps else None

    def validate(self) -> bool:
        """Re-check endpoint chaining and every rule instantiation."""
        for i, step in enumerate(self.steps):
            if i and self.steps[i - 1].target != step.source:
                return False
            succ = step.rule.successors(step.source)
            if (step.parameter, step.target) not in succ:
                return False
        return True

    def __str__(self):
        if not self.steps:
            return "(empty trace)"
        parts = [str(self.steps[0].source)]
        for step in self.steps:
            inst = f" [{step.rule.rule_id}" + (
                f", n={step.parameter}]" if step.parameter is not None else "]"
            )
            parts.append(f"=>{inst} {step.target}")
        return " ".join(parts)


class RuleStore:
    """Rules with content-hash persistence, single-writer semantics."""

    def __init__(self):
        self._rules: dict = {}  # content hash -> EdgeRule
        self._sorted: Optional[list] = None

    def __iter__(self):
        if self._sorted is None or len(self._sorted) != len(self._rules):
            self._sorted = sorted(self._rules.values(), key=lambda r: r.rule_id)
        return iter(self._sorted)

    def __len__(self):
        return len(self._rules)

    def add_rule(self, rule: EdgeRule, artifact_checker: Optional[Callable[[str], bool]] = None):
        """Insert a rule after checking its provenance.

        Verified rules must name an artifact the checker accepts; axiom
        rules carry a citation tag.  Duplicates (by content hash) are
        merged silently.
        """
        if rule.kind == "verified":
            if artifact_checker is None:
                raise UnverifiedProvenance(
                    f"rule {rule.rule_id}: no artifact checker supplied for a verified rule"
                )
            if not artifact_checker(rule.provenance):
                raise UnverifiedProvenance(
                    f"rule {rule.rule_id}: artifact {rule.provenance!r} did not verify"
                )
        self._rules[rule.content_hash()] = rule
        return rule.content_hash()

    def add_axiom(self, rule: EdgeRule):
        if rule.kind != "axiom":
            raise ValueError("add_axiom takes axiom rules only")
        return self.add_rule(rule)

    # -- persistence ---------------------------------------------------

    def dump(self) -> str:
        lines = [STORE_HEADER]
        for rule in self:
            lines.append(f"{rule.content_line()} sha256={rule.content_hash()}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def load(text: str, artifact_checker: Optional[Callable[[str], bool]] = None) -> "RuleStore":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != STORE_HEADER:
            raise StoreFormatError("missing or wrong store header")
        store = RuleStore()
        for ln in lines[1:]:
            rule, digest = _parse_rule_line(ln)
            if rule.content_hash() != digest:
                raise StoreFormatError(f"hash mismatch on rule {rule.rule_id}")
            if rule.kind == "verified" and artifact_checker is not None:
                store.add_rule(rule, artifact_checker)
            else:
                # hash-checked load; artifact re-verification is the
                # caller's choice via artifact_checker
                store._rules[rule.content_hash()] = rule
        return store

    # -- queries -------------------------------------------------------

    def reachable(
        self,
        source: CurveNode,
        target: CurveNode,
        bound: int = DEFAULT_BOUND,
        value_cap: Optional[int] = None,
    ):
        """Shortest derivation within the bound, or None if not found.

        Intermediate curve levels are capped (rule coefficients can
        blow levels up far beyond both endpoints before contracting
        them back down); the default cap is generous desk scale.
        """
        if bound < 1:
            raise ValueError("search bound must be >= 1")
        if value_cap is None:
            ends = [x.n for x in (source, target) if x.kind == "curve"]
            value_cap = max(ends, default=1) * CAP_FACTOR
        if source == target:
            return DerivationTrace(steps=[])
        parent: dict = {}
        for _ in self._walk([source], bound, value_cap, parent):
            if target in parent:
                return _build_trace(parent, target)
        return None

    def search_tree(
        self,
        source: CurveNode,
        bound: int = DEFAULT_BOUND,
        value_cap: Optional[int] = None,
    ) -> dict:
        """Breadth-first parent map from one source; shared by many queries.

        Keys are reached nodes; values are (predecessor, rule,
        parameter), with None at the source itself.  Use trace_to to
        extract a derivation.
        """
        if value_cap is None:
            base = source.n if source.kind == "curve" else 1
            value_cap = max(base, 1) * CAP_FACTOR
        parent: dict = {}
        for _ in self._walk([source], bound, value_cap, parent):
            pass
        return parent

    @staticmethod
    def trace_to(parent: dict, target: CurveNode) -> Optional[DerivationTrace]:
        if target not in parent:
            return None
        return _build_trace(parent, target)

    def equivalence_classes(self, nodes: Iterable[CurveNode], bound: int = DEFAULT_BOUND):
        """Partition under mutual bounded reachability.

        The bounded rule graph around the inputs is materialized once;
        mutual reachability is strong connectivity inside it.
        """
        nodes = list(dict.fromkeys(nodes))
        if not nodes:
            return []
        levels = [n.n for n in nodes if n.kind == "curve"]
        value_cap = max(levels, default=1) * CAP_FACTOR
        parent: dict = {}
        expanded = {
            node: [succ for _, _, succ in edges]
            for node, edges in self._walk(nodes, bound, value_cap, parent)
        }
        # nodes first reached at the depth bound are never expanded
        adjacency = {node: expanded.get(node, []) for node in parent}
        component = _strongly_connected(adjacency)
        classes: dict = {}
        for node in nodes:
            classes.setdefault(component[node], []).append(node)
        return list(classes.values())

    def _walk(self, sources: list, bound: int, value_cap: int, parent: dict):
        """Breadth-first frontier walk, at most `bound` levels deep.

        Fills `parent` with the first edge (predecessor, rule,
        parameter) into each reached node, None at the sources, and
        yields (node, [(rule, parameter, successor), ...]) for each
        expanded node: every edge in rule order whose curve level is
        within `value_cap`, repeats included.
        """
        for node in sources:
            parent[node] = None
        frontier = list(sources)
        for _ in range(bound):
            nxt = []
            for node in frontier:
                edges = []
                for rule in self:
                    for param, succ in rule.successors(node):
                        if succ.kind == "curve" and succ.n > value_cap:
                            continue
                        edges.append((rule, param, succ))
                        if succ not in parent:
                            parent[succ] = (node, rule, param)
                            nxt.append(succ)
                yield node, edges
            if not nxt:
                break
            frontier = nxt


def _strongly_connected(adjacency: dict) -> dict:
    """Node -> component id, by iterative Tarjan."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    component = {}
    counter = [0]
    comp_id = [0]

    for root in adjacency:
        if root in index:
            continue
        work = [(root, iter(adjacency[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                pred = work[-1][0]
                low[pred] = min(low[pred], low[node])
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component[w] = comp_id[0]
                    if w == node:
                        break
                comp_id[0] += 1
    return component


def _build_trace(parent, target) -> DerivationTrace:
    steps = []
    node = target
    while parent[node] is not None:
        prev, rule, param = parent[node]
        steps.append(TraceStep(rule=rule, parameter=param, source=prev, target=node))
        node = prev
    steps.reverse()
    return DerivationTrace(steps=steps)


_RULE_LINE_RE = re.compile(
    r"^rule (?P<id>\S+) kind=(?P<kind>\S+) source=(?P<src>\S+) "
    r"target=(?P<tgt>\S+) cond=(?P<cond>\S+) provenance=(?P<prov>\S+) sha256=(?P<hash>[0-9a-f]{64})$"
)


def _parse_rule_line(line: str):
    m = _RULE_LINE_RE.match(line.strip())
    if not m:
        raise StoreFormatError(f"bad rule line: {line!r}")
    rule = EdgeRule(
        rule_id=m.group("id"),
        source=NodePattern.parse(m.group("src")),
        target=NodePattern.parse(m.group("tgt")),
        condition=m.group("cond"),
        kind=m.group("kind"),
        provenance=m.group("prov"),
    )
    return rule, m.group("hash")
