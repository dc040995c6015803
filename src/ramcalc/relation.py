"""Domination-relation engine over the curve family C(n).

Nodes are either curves C(n) (y^2 = x^n - 1) or named class nodes
(universally quantified families, e.g. the hyperbolic hyperelliptic
curves).  Edge rules are parametrized monomial rewrites C(c*n) =>
C(c'*n) with side conditions, backed either by a bundled verified
artifact or by an explicit axiom tag.  Reachability is bounded
breadth-first search on plain keys (a curve level is an int, a class
node its name); traces re-validate independently through the per-rule
matcher `EdgeRule.successors`.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from .exact import check_digits, excerpt, factor_int, parse_int

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
            raise StoreFormatError(f"bad node pattern {excerpt(s)!r}")
        if m.group(4):
            return NodePattern("divisor")
        if m.group(3):
            return NodePattern("monomial", coeff=1)
        try:
            coeff = parse_int(m.group(1))
        except ValueError as exc:
            raise StoreFormatError(str(exc)) from None
        if coeff == 0:
            raise StoreFormatError(f"bad node pattern {excerpt(s)!r}: coefficient must be >= 1")
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
        # a store line holds each of them as one token
        for label, value in (("rule id", self.rule_id), ("provenance", self.provenance)):
            if not re.fullmatch(r"\S+", value):
                raise ValueError(f"{label} {value!r} is not one nonempty token without spaces")
        if not _COND_RE.match(check_digits(self.condition)):
            raise ValueError(f"unsupported side condition {self.condition!r}")
        if self.source.form == "divisor" and not (
            self.target.form == "monomial" and self.target.coeff == 1
        ):
            raise ValueError("divisor source requires target C(n)")
        if self.target.form == "divisor":
            raise ValueError("divisor pattern is only legal as a source")

    @cached_property
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


def _factor(m: int) -> list:
    """Sorted (prime, exponent) pairs of a curve level m >= 1.

    Curve levels in this graph are smooth by construction, so trial
    division by the primes below 1000 usually factors them completely;
    a remainder that trial division cannot settle goes to `factor_int`.
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
    else:
        # rest >= 999^2 has no prime factor below 1000 and may be composite
        factors += factor_int(rest)
        rest = 1
    if rest > 1:
        factors.append((rest, 1))
    return factors


def _proper_divisors(m: int):
    """Sorted proper divisors of m, from its full factorization."""
    divs = [1]
    for p, e in _factor(m):
        powers = [p ** i for i in range(e + 1)]
        divs = [d * q for d in divs for q in powers]
    divs.sort()
    divs.pop()  # m itself
    return divs


def _divisors_below(factors: list, x: int) -> int:
    """How many divisors of the number with these sorted (prime,
    exponent) pairs are below x; each of them is generated once."""
    if x <= 1:
        return 0
    count = 0
    stack = [(1, 0)]
    while stack:
        d, i = stack.pop()
        count += 1
        for j in range(i, len(factors)):
            p, e = factors[j]
            if d * p >= x:
                break  # the later primes are larger still
            q = d
            for _ in range(e):
                q *= p
                if q >= x:
                    break
                stack.append((q, j + 1))
    return count


def _divisor_edges(m: int, factors: list, lo: int, cap: int) -> int:
    """#{proper d | m : lo <= d <= cap}, from the exponents of m: all
    proper divisors, less those below lo and those above the cap (whose
    codivisors m/d >= 2 are below ceil(m/cap)).  When m < lo, m itself
    is among those below lo, so the clamp gives 0."""
    if cap < max(lo, 1):
        return 0  # no level lies in [lo, cap]
    tau = 1
    for _, e in factors:
        tau *= e + 1
    count = tau - 1 - _divisors_below(factors, lo)
    if m > cap:
        count -= _divisors_below(factors, -(-m // cap)) - 1
    return max(count, 0)


def _divisor_lattice(m: int, factors: list, lo: int, cap: int, expanded, factored: dict) -> list:
    """Sorted divisor successors of level m walked in its divisor lattice.

    The walk starts at m and divides by one prime at a time.  It skips
    divisors below lo (theirs are all below lo too) and returns those
    at most `cap`; it walks on through larger ones, but not below a
    divisor in `expanded`, whose own expansion has already reached
    every divisor of it in [lo, cap].  Each divisor met is entered into
    `factored` with its (prime, exponent) pairs, taken from m's.
    """
    out = []
    seen = set()
    todo = [(m, factors)]
    while todo:
        d, fs = todo.pop()
        for i, (p, e) in enumerate(fs):
            c = d // p
            if c < lo:
                break  # the later primes give smaller quotients still
            if c in seen:
                continue
            seen.add(c)
            cfs = factored.get(c)
            if cfs is None:
                cfs = fs[:i] + [(p, e - 1)] * (e > 1) + fs[i + 1:]
                factored[c] = cfs
            if c <= cap:
                out.append(c)
            if c not in expanded:
                todo.append((c, cfs))
    out.sort()
    return out


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
        # counters of the latest search: nodes reached, nodes expanded, edges
        self.last_search: Optional[dict] = None

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
    ):
        """Shortest derivation within the bound, or None if not found.

        Intermediate curve levels are capped (rule coefficients can
        blow levels up far beyond both endpoints before contracting
        them back down); the cap is generous desk scale.
        """
        goal = _key(target)
        parent: dict = {}
        for _ in self._walk([_key(source)], bound, _default_cap([source, target]), parent):
            if goal in parent:
                path = [goal]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]][0])
                return _build_trace(_node_map(parent, path), target)
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
            value_cap = _default_cap([source])
        parent: dict = {}
        for _ in self._walk([_key(source)], bound, value_cap, parent):
            pass
        return _node_map(parent, parent)

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
        keys = [_key(node) for node in nodes]
        parent: dict = {}
        expanded = dict(self._walk(keys, bound, _default_cap(nodes), parent))
        # nodes first reached at the depth bound are never expanded
        adjacency = {key: expanded.get(key, []) for key in parent}
        component = _strongly_connected(adjacency)
        classes: dict = {}
        for node, key in zip(nodes, keys):
            classes.setdefault(component[key], []).append(node)
        return list(classes.values())

    def _walk(self, sources: list, bound: int, value_cap: int, parent: dict):
        """Breadth-first frontier walk on keys, at most `bound` levels deep.

        Fills `parent` with the first edge (predecessor, rule,
        parameter) into each reached key, None at the sources, and
        yields (key, [successor, ...]) for each expanded key: the
        target of every edge in rule order whose curve level is within
        `value_cap`, repeats included, except that a divisor rule
        yields only the divisors its lattice walk meets
        (`_divisor_lattice`).  The divisors it leaves out lie below an
        earlier expanded divisor, so they are already in `parent` and
        still reachable along the yielded edges.  `last_search` counts
        the nodes reached and expanded and every edge of the graph so
        far, the divisor edges left out included.
        """
        if bound < 1:
            raise ValueError("search bound must be >= 1")
        # each rule compiled once: (rule, source form, coeff, name,
        # target form, coeff, name, min_param)
        rules = [
            (r, r.source.form, r.source.coeff, r.source.name,
             r.target.form, r.target.coeff, r.target.name, r.min_param)
            for r in self
        ]
        factored: dict = {}  # curve level -> its (prime, exponent) pairs
        expanded = set()
        stats = self.last_search = {"nodes_reached": 0, "nodes_expanded": 0, "edges": 0}
        for key in sources:
            parent[key] = None
        frontier = list(sources)
        for _ in range(bound):
            nxt = []
            for key in frontier:
                succs = []
                edges = 0  # every edge out of key, walked or only counted
                level = key if type(key) is int else None
                for rule, sform, scoeff, sname, tform, tcoeff, tname, lo in rules:
                    if sform == "class":
                        if key != sname:
                            continue
                        param, n = None, 1
                    elif level is None:
                        continue
                    elif sform == "monomial":
                        if level % scoeff:
                            continue
                        param = n = level // scoeff
                        if n < lo:
                            continue
                    elif sform == "const":
                        if level != scoeff or lo > 1:
                            continue
                        param = n = 1
                    else:  # divisor, target C(n)
                        factors = factored.get(level)
                        if factors is None:
                            factors = factored[level] = _factor(level)
                        edges += _divisor_edges(level, factors, lo, value_cap)
                        ds = _divisor_lattice(level, factors, lo, value_cap, expanded, factored)
                        succs += ds
                        for d in ds:
                            if d not in parent:
                                parent[d] = (key, rule, d)
                                nxt.append(d)
                        continue
                    if tform == "class":
                        succ = tname
                    else:
                        succ = tcoeff if tform == "const" else tcoeff * n
                        if succ > value_cap:
                            continue
                    succs.append(succ)
                    edges += 1
                    if succ not in parent:
                        parent[succ] = (key, rule, param)
                        nxt.append(succ)
                expanded.add(key)
                stats["nodes_reached"] = len(parent)
                stats["nodes_expanded"] += 1
                stats["edges"] += edges
                yield key, succs
            if not nxt:
                break
            frontier = nxt


def _default_cap(nodes: list) -> int:
    """The curve-level cap of a search around `nodes`: the largest of
    their levels (1 if none is a curve) times CAP_FACTOR."""
    return max((x.n for x in nodes if x.kind == "curve"), default=1) * CAP_FACTOR


def _key(node: CurveNode):
    return node.n if node.kind == "curve" else node.name


def _node_map(parent: dict, keys: Iterable) -> dict:
    """The entries of a key parent map at `keys`, in their order, on
    CurveNodes; every predecessor must be among `keys`."""
    nodes = {
        key: CurveNode.curve(key) if type(key) is int else CurveNode.named(key)
        for key in keys
    }
    return {
        node: None if parent[key] is None else (nodes[parent[key][0]],) + parent[key][1:]
        for key, node in nodes.items()
    }


def _strongly_connected(adjacency: dict) -> dict:
    """Key -> component id, by iterative Tarjan.

    A key whose component is settled gets an index above every other,
    so `index` alone tells the three states apart: unvisited (absent),
    on the stack (its visit order), settled (`done`).
    """
    index = {}
    low = {}
    stack = []
    component = {}
    comp_id = 0
    done = len(adjacency)

    for root in adjacency:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adjacency[root]))]
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                i = index.get(succ)
                if i is None:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    work.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                if i < low[node]:
                    low[node] = i
            if advanced:
                continue
            work.pop()
            if work:
                pred = work[-1][0]
                if low[node] < low[pred]:
                    low[pred] = low[node]
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    index[w] = done
                    component[w] = comp_id
                    if w == node:
                        break
                comp_id += 1
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
        raise StoreFormatError(f"bad rule line: {excerpt(line)!r}")
    rule = EdgeRule(
        rule_id=m.group("id"),
        source=NodePattern.parse(m.group("src")),
        target=NodePattern.parse(m.group("tgt")),
        condition=m.group("cond"),
        kind=m.group("kind"),
        provenance=m.group("prov"),
    )
    return rule, m.group("hash")
