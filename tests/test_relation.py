"""Rule store, provenance checks, bounded reachability, traces."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramcalc import relation
from ramcalc.manifest import bundled_text
from ramcalc.relation import (
    CAP_FACTOR,
    CurveNode,
    DerivationTrace,
    EdgeRule,
    NodePattern,
    RuleStore,
    StoreFormatError,
    TraceStep,
    UnverifiedProvenance,
    _divisor_edges,
    _factor,
    _proper_divisors,
)


def rule(rule_id, src, tgt, cond="n>=1", kind="axiom", prov="test-citation"):
    return EdgeRule(rule_id, NodePattern.parse(src), NodePattern.parse(tgt),
                    cond, kind, prov)


def bundled_store():
    return RuleStore.load(bundled_text("rules.store"))


class TestPatterns:
    def test_parse_forms(self):
        assert NodePattern.parse("C(8)").form == "const"
        assert NodePattern.parse("C(8n)").form == "monomial"
        assert NodePattern.parse("C(n)").form == "monomial"
        assert NodePattern.parse("C(kn)").form == "divisor"
        assert NodePattern.parse("some-class").form == "class"

    def test_render_round_trip(self):
        for s in ("C(8)", "C(8n)", "C(n)", "C(kn)", "some-class"):
            assert str(NodePattern.parse(s)) == s

    @pytest.mark.parametrize("text", ["C(0)", "C(0n)", "C(00n)"])
    def test_zero_coefficient_refused(self, text):
        with pytest.raises(StoreFormatError):
            NodePattern.parse(text)

    def test_divisor_only_as_source_of_cn(self):
        with pytest.raises(ValueError):
            rule("bad", "C(kn)", "C(2n)")
        with pytest.raises(ValueError):
            rule("bad", "C(2n)", "C(kn)")


class TestSuccessors:
    def test_monomial_instantiation(self):
        r = rule("d", "C(8n)", "C(16n)")
        assert r.successors(CurveNode.curve(24)) == [(3, CurveNode.curve(48))]
        assert r.successors(CurveNode.curve(12)) == []

    def test_side_condition(self):
        r = rule("m", "C(n)", "some-class", cond="n>=5")
        assert r.successors(CurveNode.curve(4)) == []
        assert r.successors(CurveNode.curve(5)) == [(5, CurveNode.named("some-class"))]

    def test_divisor_successors(self):
        r = rule("div", "C(kn)", "C(n)")
        succ = {node.n for _, node in r.successors(CurveNode.curve(12))}
        assert succ == {1, 2, 3, 4, 6}


class TestProperDivisors:
    def test_against_sieve(self):
        limit = 10 ** 5
        sieve = [[] for _ in range(limit + 1)]
        for d in range(1, limit // 2 + 1):
            for m in range(2 * d, limit + 1, d):
                sieve[m].append(d)
        for m in range(1, limit + 1):
            assert _proper_divisors(m) == sieve[m], m

    @pytest.mark.parametrize("p, q", [(1009, 1013), (1009, 1009), (1013, 1000003),
                                      (999983, 1000003), (1000003, 1000003)])
    @pytest.mark.parametrize("cofactor", [1, 6, 1009])
    def test_two_primes_above_1000(self, p, q, cofactor):
        m = cofactor * p * q
        brute = {a * b * c for a in _all_divisors(cofactor) for b in (1, p) for c in (1, q)}
        assert _proper_divisors(m) == sorted(brute - {m})

    def test_divisor_edge_count(self):
        for m in range(1, 400):
            divs = _proper_divisors(m)
            for lo in range(9):
                for cap in (-1, 0, 1, 2, 5, 6, 12, 35, m // 2, m - 1, m, 10 ** 6):
                    want = sum(1 for d in divs if lo <= d <= cap)
                    assert _divisor_edges(m, _factor(m), lo, cap) == want, (m, lo, cap)

    def test_level_factored_once(self, monkeypatch):
        # 1009 * 1013 is above 999^2, so trial division cannot settle it;
        # the divisors of the source take its primes
        calls = []
        real = relation.factor_int
        monkeypatch.setattr(relation, "factor_int", lambda n: calls.append(n) or real(n))
        bundled_store().search_tree(CurveNode.curve(6 * 1009 * 1013))
        assert calls == [1009 * 1013]


def _all_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestProvenance:
    def test_axiom_accepted_without_checker(self):
        store = RuleStore()
        store.add_rule(rule("a", "C(2n)", "C(4n)"))
        assert len(store) == 1

    def test_verified_rule_needs_checker(self):
        store = RuleStore()
        with pytest.raises(UnverifiedProvenance):
            store.add_rule(rule("v", "C(2n)", "C(4n)", kind="verified",
                                prov="missing.cert"))

    def test_failing_artifact_rejected(self):
        store = RuleStore()
        with pytest.raises(UnverifiedProvenance):
            store.add_rule(
                rule("v", "C(2n)", "C(4n)", kind="verified", prov="missing.cert"),
                artifact_checker=lambda name: False,
            )

    def test_passing_artifact_accepted(self):
        store = RuleStore()
        store.add_rule(
            rule("v", "C(2n)", "C(4n)", kind="verified", prov="ok.cert"),
            artifact_checker=lambda name: name == "ok.cert",
        )
        assert len(store) == 1

    def test_duplicates_merge_by_content_hash(self):
        store = RuleStore()
        store.add_rule(rule("a", "C(2n)", "C(4n)"))
        store.add_rule(rule("a", "C(2n)", "C(4n)"))
        assert len(store) == 1


class TestPersistence:
    def test_round_trip_identity(self):
        store = bundled_store()
        text = store.dump()
        assert RuleStore.load(text).dump() == text

    def test_hash_mismatch_rejected(self):
        text = bundled_store().dump()
        lines = text.splitlines()
        tampered = lines[1].replace("cond=n>=1", "cond=n>=2")
        with pytest.raises(StoreFormatError):
            RuleStore.load("\n".join([lines[0], tampered]) + "\n")

    def test_missing_header_rejected(self):
        with pytest.raises(StoreFormatError):
            RuleStore.load("no header here\n")


class TestReachability:
    def test_reflexive(self):
        trace = bundled_store().reachable(CurveNode.curve(6), CurveNode.curve(6))
        assert trace is not None and trace.steps == []

    def test_reference_chain(self):
        trace = bundled_store().reachable(CurveNode.curve(6), CurveNode.curve(48))
        assert trace is not None and trace.validate()
        nodes = [str(trace.steps[0].source)] + [str(s.target) for s in trace.steps]
        assert nodes[:3] == ["C(6)", "hyperbolic-hyperelliptic", "C(8)"]
        assert nodes[-1] == "C(48)"

    def test_unreachable_without_rules(self):
        store = RuleStore()
        store.add_rule(rule("d", "C(8n)", "C(16n)"))
        store.add_rule(rule("f", "C(55296n)", "C(5n)"))
        assert store.reachable(CurveNode.curve(6), CurveNode.curve(7), bound=6) is None

    def test_monotone_in_rule_set(self):
        small = RuleStore()
        small.add_rule(rule("d", "C(2n)", "C(4n)"))
        big = RuleStore()
        big.add_rule(rule("d", "C(2n)", "C(4n)"))
        big.add_rule(rule("t", "C(2n)", "C(6n)"))
        for target in (8, 16, 32):
            if small.reachable(CurveNode.curve(4), CurveNode.curve(target), bound=8):
                assert big.reachable(CurveNode.curve(4), CurveNode.curve(target), bound=8)

    def test_trace_validation_rejects_tampering(self):
        trace = bundled_store().reachable(CurveNode.curve(6), CurveNode.curve(16))
        assert trace.validate()
        bad = DerivationTrace(steps=list(trace.steps))
        bad.steps[-1].target = CurveNode.curve(17)
        assert not bad.validate()


class TestEquivalenceClasses:
    def test_singleton(self):
        cls = bundled_store().equivalence_classes([CurveNode.curve(6)], bound=4)
        assert cls == [[CurveNode.curve(6)]]

    def test_separate_without_connecting_rules(self):
        store = RuleStore()
        store.add_rule(rule("d", "C(8n)", "C(16n)"))
        cls = store.equivalence_classes([CurveNode.curve(5), CurveNode.curve(7)], bound=4)
        assert len(cls) == 2


# -- the store's search against a breadth-first reference on CurveNodes ------

CLASS_NAMES = ("cls-a", "cls-b")
_coeff = st.integers(1, 12)
_plain = st.one_of(
    _coeff.map(lambda c: f"C({c})"),
    _coeff.map(lambda c: f"C({c}n)"),
    st.sampled_from(CLASS_NAMES),
)
_rule_forms = st.one_of(st.tuples(_plain, _plain), st.just(("C(kn)", "C(n)")))
_stores = st.lists(st.tuples(_rule_forms, st.integers(1, 3)), min_size=1, max_size=6)
# small caps, so that edges land exactly on the cap
_caps = st.one_of(st.none(), st.integers(1, 60), st.integers(1, 2000))
# small levels, so that const sources match and levels divide each other
_nodes = st.one_of(
    st.integers(1, 24).map(CurveNode.curve),
    st.sampled_from(CLASS_NAMES).map(CurveNode.named),
)


def _store(forms):
    store = RuleStore()
    for i, ((src, tgt), k) in enumerate(forms):
        store.add_rule(rule(f"r{i}", src, tgt, cond=f"n>={k}"))
    return store


def _reference_walk(store, sources, bound, cap):
    """Parent map and adjacency of the bounded graph, one successors() call
    per rule and node."""
    parent = dict.fromkeys(sources)
    adjacency = {}
    frontier = list(sources)
    for _ in range(bound):
        nxt = []
        for node in frontier:
            adjacency[node] = []
            for r in store:
                for param, succ in r.successors(node):
                    if succ.kind == "curve" and succ.n > cap:
                        continue
                    adjacency[node].append(succ)
                    if succ not in parent:
                        parent[succ] = (node, r, param)
                        nxt.append(succ)
        frontier = nxt
    return parent, adjacency


def _reference_steps(parent, target):
    steps = []
    while parent[target] is not None:
        prev, r, param = parent[target]
        steps.append(TraceStep(rule=r, parameter=param, source=prev, target=target))
        target = prev
    return steps[::-1]


def _reachable_from(adjacency, node):
    seen, todo = {node}, [node]
    while todo:
        for succ in adjacency.get(todo.pop(), []):
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return seen


def _default_cap(*nodes):
    return max([x.n for x in nodes if x.kind == "curve"], default=1) * CAP_FACTOR


class TestSearchAgainstReference:
    @given(_stores, _nodes, st.integers(1, 4), _caps)
    @settings(max_examples=100, deadline=None)
    # edges that land exactly on the cap; a const source under n>=2
    @example([(("C(n)", "C(2n)"), 1)], CurveNode.curve(3), 2, 6)
    @example([(("C(kn)", "C(n)"), 1)], CurveNode.curve(12), 1, 6)
    @example([(("C(5)", "C(7)"), 2), (("C(5)", "C(9)"), 1)], CurveNode.curve(5), 1, None)
    # a source above the cap; divisor edges under n>=2
    @example([(("C(kn)", "C(n)"), 2), (("C(n)", "C(2n)"), 1)], CurveNode.curve(24), 3, 6)
    # C(6) is reached before C(12) is expanded, but not yet expanded
    # itself, so the lattice walk of 12 must pass through 6 to reach 3
    @example([(("C(1)", "C(12)"), 1), (("C(1)", "C(6)"), 1), (("C(kn)", "C(n)"), 1)],
             CurveNode.curve(1), 2, None)
    def test_search_tree(self, forms, source, bound, cap):
        store = _store(forms)
        expected, adjacency = _reference_walk(store, [source], bound,
                                              cap or _default_cap(source))
        got = store.search_tree(source, bound=bound, value_cap=cap)
        assert list(got.items()) == list(expected.items())
        # the edge counter counts every divisor edge, walked or not
        assert store.last_search == {
            "nodes_reached": len(expected),
            "nodes_expanded": len(adjacency),
            "edges": sum(map(len, adjacency.values())),
        }

    @given(_stores, _nodes, _nodes, st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_reachable(self, forms, source, target, bound):
        store = _store(forms)
        got = store.reachable(source, target, bound=bound)
        if source == target:
            assert got is not None and got.steps == []
            return
        parent, _ = _reference_walk(store, [source], bound, _default_cap(source, target))
        if target not in parent:
            assert got is None
        else:
            assert got is not None and got.steps == _reference_steps(parent, target)
            assert got.validate()

    @given(_stores, st.lists(_nodes, min_size=1, max_size=8), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    # a two-node cycle, C(2) => C(4) => C(2)
    @example([(("C(n)", "C(2n)"), 1), (("C(kn)", "C(n)"), 1)],
             [CurveNode.curve(2), CurveNode.curve(4), CurveNode.curve(3)], 2)
    def test_equivalence_classes(self, forms, nodes, bound):
        store = _store(forms)
        nodes = list(dict.fromkeys(nodes))
        _, adjacency = _reference_walk(store, nodes, bound, _default_cap(*nodes))
        reach = {node: _reachable_from(adjacency, node) for node in nodes}
        expected = []
        for node in nodes:
            for cls in expected:
                if node in reach[cls[0]] and cls[0] in reach[node]:
                    cls.append(node)
                    break
            else:
                expected.append([node])
        assert store.equivalence_classes(nodes, bound=bound) == expected

    def test_search_counters(self):
        store = bundled_store()
        parent = store.search_tree(CurveNode.curve(6), bound=6)
        _, adjacency = _reference_walk(store, [CurveNode.curve(6)], 6,
                                       _default_cap(CurveNode.curve(6)))
        assert store.last_search == {
            "nodes_reached": len(parent),
            "nodes_expanded": len(adjacency),
            "edges": sum(map(len, adjacency.values())),
        }
