"""The three ramcalc benchmark workloads: seeded inputs, timed calls, known answers.

A workload is a list of `Item`s.  `Item.run(state)` is the timed call
into ramcalc; `state` is a dict shared by the items of one pass.
`Item.check(result, results)` compares the result with a known answer
from `expected.json` or with a recomputation done outside ramcalc, and
returns an error message or None; `results` holds the whole pass.
`Item.summary(result)` is a string that must be identical in every
pass, traced or not.

The package is reached only through public functions and `cli.main`,
always as module attributes looked up at call time, so the tracer's
replacements are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path
from typing import Callable, Optional

from ramcalc import belyi, cli, contract, cover, manifest, relation, rmap, sunit
from ramcalc.exact import QQ, Poly

BENCH_DIR = Path(__file__).resolve().parent


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


@dataclass
class Item:
    name: str
    run: Callable
    check: Callable
    decided: Callable = lambda result: not isinstance(result, Exception)
    summary: Callable = repr


@dataclass
class Workload:
    name: str
    items: list
    counters: Callable  # list of results of one pass -> dict of exact counts
    inputs: dict  # what the seed chose, for the report


def _failed(result) -> Optional[str]:
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    return None


def _smooth(n: int, primes) -> bool:
    n = abs(n)
    if n == 0:
        return False
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


# ---------------------------------------------------------------------------
# verify-artifacts


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def _cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_summary(r) -> str:
    return repr(r) if isinstance(r, Exception) else f"{r.code}\n{r.out}\n{r.err}"


def _payload(r: CliResult):
    try:
        return json.loads(r.out)
    except json.JSONDecodeError:
        return None


def _check_chain(expected: dict):
    def check(r, results):
        if (msg := _failed(r)) or r.code != 0:
            return msg or f"exit {r.code}: {r.err.strip()}"
        p = _payload(r)
        if p is None or not p["passed"] or any(s["status"] != "pass" for s in p["steps"]):
            return "chain did not pass"
        if sorted(p["final_points"]) != sorted(expected["final_points"]):
            return f"final points {p['final_points']}"
        bad = [i for i in p["composite_indices"] if expected["bound"] % i]
        if bad:
            return f"composite indices {bad} do not divide {expected['bound']}"
        return None

    return check


def _check_cert(tags: list):
    def check(r, results):
        if (msg := _failed(r)) or r.code != 0:
            return msg or f"exit {r.code}: {r.err.strip()}"
        p = _payload(r)
        if p is None or not p["passed"]:
            return "certificate did not pass"
        got = [a["tag"] for a in p["assumptions"]]
        return None if got == tags else f"assumption tags {got}"

    return check


def _step_of_line(lines, row) -> str:
    return next(ln.split()[1] for ln in reversed(lines[:row]) if ln.startswith("step "))


def _mutate_ram(text: str, rng: random.Random):
    """Raise the last claimed index on the last `ram` line of a chain.

    The verifier then checks every other claim of the chain's costliest
    map step before it meets the wrong one, so the mutant's cost does
    not depend on the seed, which picks the amount.
    """
    lines = text.splitlines()
    row = [i for i, ln in enumerate(lines) if ln.startswith("ram ")][-1]
    entries = lines[row].split()[1:]
    point, _, index = entries[-1].rpartition(":")
    claimed = int(index) + rng.randint(1, 3)
    entries[-1] = f"{point}:{claimed}"
    lines[row] = "ram " + " ".join(entries)
    return "\n".join(lines) + "\n", _step_of_line(lines, row), claimed, lines[row]


def _mutate_out(text: str, rng: random.Random):
    """Replace one claimed output point by a rational no step produces."""
    lines = text.splitlines()
    row = rng.choice([i for i, ln in enumerate(lines) if ln.startswith("out ")])
    entries = lines[row].split()[1:]
    j = rng.randrange(len(entries))
    # denominator 101 occurs in no bundled chain, so the point is fresh
    entries[j] = f"{rng.choice([n for n in range(1, 10000) if n % 101])}/101"
    lines[row] = "out " + " ".join(entries)
    return "\n".join(lines) + "\n", _step_of_line(lines, row), lines[row]


def _check_ram_mutant(step: str, claimed: int):
    def check(r, results):
        if (msg := _failed(r)) or r.code != 1:
            return msg or f"exit {r.code}, expected 1"
        p = _payload(r)
        names = [s["name"] for s in p["steps"]]
        k = names.index(step)
        if any(s["status"] != "pass" for s in p["steps"][:k]):
            return "a step before the mutated one failed"
        s = p["steps"][k]
        if s["status"] != "fail" or not any(f"claimed {claimed}," in d for d in s["details"]):
            return f"step {step} did not report the changed index"
        return None

    return check


def _check_out_mutant(step: str):
    def check(r, results):
        if (msg := _failed(r)) or r.code != 1:
            return msg or f"exit {r.code}, expected 1"
        p = _payload(r)
        failing = [s["name"] for s in p["steps"] if s["status"] != "pass"]
        if failing != [step]:
            return f"failing steps {failing}, expected [{step}]"
        if not next(s for s in p["steps"] if s["name"] == step)["erratum"]:
            return "changed output point not flagged as erratum"
        return None

    return check


def _artifact_checker(name: str) -> bool:
    """Provenance check for verified rules, built from public functions."""
    text = manifest.bundled_text(name)
    header = text.splitlines()[0].strip()
    if header == manifest.CERT_HEADER:
        m = manifest.parse_cert(text)
        return cover.verify_certificate(m.certificate, m.instances).passed
    if header == manifest.CHAIN_HEADER:
        return rmap.verify_chain(manifest.parse_chain(text)).passed
    return False


def _verify_item(name: str, path: Path, check) -> Item:
    argv = ["verify", str(path), "--json", "--deterministic"]
    return Item(name, lambda state: _cli(argv), check, summary=_cli_summary)


def verify_artifacts(seed: int, expected: dict, data_dir: Path, tmp_dir: Path) -> Workload:
    # every bundled artifact, as `ramcalc verify --json --deterministic`
    # runs it; prop9 alone is most of the time
    items = [_verify_item(name, data_dir / name, _check_chain(exp))
             for name, exp in expected["chains"].items()]
    items += [_verify_item(name, data_dir / name, _check_cert(tags))
              for name, tags in expected["certificates"].items()]
    # one wrong ram index and one wrong output point per chain: the
    # verifier must localise each planted error, on inputs that cost
    # about what the chain itself does
    rng = random.Random(seed)
    chosen = {}
    for name in expected["chains"]:
        text = (data_dir / name).read_text()
        ram_text, ram_step, claimed, ram_line = _mutate_ram(text, rng)
        out_text, out_step, out_line = _mutate_out(text, rng)
        for kind, body, check, step, line in (
            ("ram", ram_text, _check_ram_mutant(ram_step, claimed), ram_step, ram_line),
            ("out", out_text, _check_out_mutant(out_step), out_step, out_line),
        ):
            label = f"{name} {kind} mutant in {step}"
            path = tmp_dir / f"{kind}-{name}"
            path.write_text(body)
            chosen[label] = line
            items.append(_verify_item(label, path, check))
    # the store's write path re-verifies every verified rule's artifact
    rules = expected["rules"]

    def check_store(r, results):
        if msg := _failed(r):
            return msg
        ids = sorted(rule.rule_id for rule in r)
        return None if ids == rules else f"rules {ids}"

    items.append(Item(
        "rules.store",
        lambda state: relation.RuleStore.load(manifest.bundled_text("rules.store"), _artifact_checker),
        check_store,
        summary=lambda r: repr(r) if isinstance(r, Exception) else r.dump(),
    ))

    def counters(results):
        return {"cli.output_bytes": sum(len(r.out.encode()) for r in results if isinstance(r, CliResult))}

    return Workload("verify-artifacts", items, counters, {"mutants": chosen})


# ---------------------------------------------------------------------------
# contract-ladder

HEIGHT_CAP = 2 ** 16

# minimal polynomials, constant term first
LADDER = [
    # one entry each, degrees 2..4: a few ms each, so added fixed cost
    # per call shows
    ("z^2-2", [[-2, 0, 1]]),
    ("z^3-2", [[-2, 0, 0, 1]]),
    ("z^3-5", [[-5, 0, 0, 1]]),
    ("z^4-2", [[-2, 0, 0, 0, 1]]),
    ("Phi8", [[1, 0, 0, 0, 1]]),
    # two or three entries: coefficients grow to 10-30 kbit, the
    # middle of the range the integer kernels see
    ("z^3-2,z^3-3", [[-2, 0, 0, 1], [-3, 0, 0, 1]]),
    ("z^3-2,z^3-5", [[-2, 0, 0, 1], [-5, 0, 0, 1]]),
    ("z^4-2,z^3-3", [[-2, 0, 0, 0, 1], [-3, 0, 0, 1]]),
    ("z^3-2,z^2-3,z^2-5", [[-2, 0, 0, 1], [-3, 0, 1], [-5, 0, 1]]),
    # the height cap stops these today (about 300 and 190 kbit): the
    # coefficient blow-up and the sympy factoring of huge images stay
    # visible, and deciding them under the cap raises decided_share
    ("Phi5", [[1, 1, 1, 1, 1]]),
    ("z^3-2,z^3-3,z^3-5", [[-2, 0, 0, 1], [-3, 0, 0, 1], [-5, 0, 0, 1]]),
]

_CAP_RE = re.compile(r"coefficient size (\d+) bits")


def _contract(coeff_lists):
    polys = [Poly(QQ, c) for c in coeff_lists]
    return contract.contract_to_rational(
        contract.AlgebraicPointSet.from_polys(polys), height_cap=HEIGHT_CAP
    )


def _fractions(p) -> list:
    return [Fraction(int(c.numerator), int(c.denominator)) for c in p.coeffs]


def _divides(f: list, F: list) -> bool:
    rem = list(F)
    for i in range(len(F) - len(f), -1, -1):
        q = rem[i + len(f) - 1] / f[-1]
        if q:
            for j, c in enumerate(f):
                rem[i + j] -= q * c
    return not any(rem)


def _derivative_at(F: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for i in range(len(F) - 1, 0, -1):
        acc = acc * x + i * F[i]
    return acc


def _measure(S) -> tuple:
    degrees = [p.degree for p in S.polys]
    m = max(degrees, default=0)
    return (m, degrees.count(m))


def _cap_bits(exc) -> Optional[int]:
    m = _CAP_RE.search(str(exc))
    return int(m.group(1)) if m else None


def _check_contraction(coeff_lists):
    def check(r, results):
        if isinstance(r, contract.HeightCapExceeded):
            bits = _cap_bits(r)
            if bits is None or bits <= HEIGHT_CAP:
                return f"cap hit without a size above the cap: {r}"
            return None
        if msg := _failed(r):
            return msg
        if any(p.degree > 1 for p in r.final_set.polys):
            return "final set is not rational"
        for (fin, at_inf), step in zip(r.index_certificate, r.steps):
            F = _fractions(step.product)
            if fin != 2 or at_inf != len(F) - 1 or at_inf & (at_inf - 1):
                return f"certificate entry {(fin, at_inf)} is not (2, 2^k = deg F)"
            if not _divides(_fractions(step.eliminated), F):
                return "eliminated f does not divide F"
            if any(_derivative_at(F, Fraction(x)) for x in step.targets):
                return "F' does not vanish at a target"
        if len(r.index_certificate) != len(r.steps):
            return "certificate and steps differ in length"
        # replay with the public step function: the measure strictly
        # drops and the replay reproduces every step
        current = contract.AlgebraicPointSet.from_polys([Poly(QQ, c) for c in coeff_lists])
        measures = [_measure(current)]
        for step in r.steps:
            replayed, current = contract.reduction_step(current, height_cap=HEIGHT_CAP)
            if replayed.product.coeffs != step.product.coeffs:
                return "replayed step differs"
            measures.append(_measure(current))
        if any(b >= a for a, b in zip(measures, measures[1:])):
            return f"measure did not strictly drop: {measures}"
        return None

    return check


def _hex(p) -> tuple:
    # hex has no length limit, unlike str() of a huge int
    return tuple(f"{int(c.numerator):x}/{int(c.denominator):x}" for c in p.coeffs)


def _contraction_summary(r) -> str:
    if isinstance(r, Exception):
        return f"{type(r).__name__}: {r}"
    return repr((
        [(_hex(s.eliminated), [str(x) for x in s.targets], _hex(s.product)) for s in r.steps],
        r.index_certificate,
        sorted(_hex(p) for p in r.final_set.polys),
    ))


def contract_ladder(seed: int, expected: dict) -> Workload:
    # the ladder is fixed: the seed does not enter it
    items = [
        Item(
            name, lambda state, c=coeffs: _contract(c), _check_contraction(coeffs),
            decided=lambda r: isinstance(r, contract.ContractionResult),
            summary=_contraction_summary,
        )
        for name, coeffs in LADDER
    ]

    def counters(results):
        done = [r for r in results if isinstance(r, contract.ContractionResult)]
        caps = [r for r in results if isinstance(r, contract.HeightCapExceeded)]
        bits = [s.coeff_bits for r in done for s in r.steps]
        bits += [b for b in map(_cap_bits, caps) if b is not None]
        return {
            "contract.max_coeff_bits": max(bits, default=0),
            "contract.steps": sum(len(r.steps) for r in done),
            "contract.cap_hits": len(caps),
        }

    return Workload("contract-ladder", items, counters, {"height_cap": HEIGHT_CAP})


# ---------------------------------------------------------------------------
# search-sweep, first part: the rule-graph search

SEARCH_CAP = 200 << 45
SMOOTH_LEVELS = [n for n in range(5, 201) if _smooth(n, (2, 3, 5))]
CLASS_LEVELS = [n for n in SMOOTH_LEVELS if n <= 60]

# early-exit hits named by the rule set's purpose: the doubling chain
# to 48 and the detour from C(5) through the hyperelliptic class
NAMED_HITS = [(6, 48), (5, 6)]
# {2,3,5}-smooth levels whose shortest derivation from C(5) and from
# C(6) has at most 11 steps: the search stops within 2 ms
SHALLOW = [8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 54, 64, 72, 81, 96, 108, 128, 144, 162, 192]
# 18 to 23 steps, 5 to 16 ms each
MIDDLE = [10, 15, 20, 30, 40, 45, 60, 80, 90, 120, 135, 160, 180]
# 35 to 38 steps, about 0.1-0.16 s each (125, at 53 steps and 0.6 s,
# is left out so that no single draw dominates the pass)
DEEP = [25, 50, 75, 100, 150, 200]
# levels with a prime factor above 5: no rule reaches them from C(6),
# so the search exhausts the capped graph, about 1 s each
MISSES = [7, 11, 13, 14, 17, 19, 21, 22, 23, 26, 28, 29]


def query_batch(rng: random.Random) -> list:
    """(source, target, expect_hit): fixed strata, seeded members.

    Every seed draws the same number from each stratum, so the pass
    costs about the same whatever the seed; two misses keep the
    rule-graph part of a pass at 6-9 s.
    """
    batch = [(s, t, True) for s, t in NAMED_HITS]
    for pool, count in ((SHALLOW, 4), (MIDDLE, 1), (DEEP, 1)):
        batch += [(rng.choice((5, 6)), t, True) for t in rng.sample(pool, count)]
    batch += [(6, t, False) for t in rng.sample(MISSES, 2)]
    return batch


def _trace_nodes(trace) -> list:
    return [trace.steps[0].source] + [s.target for s in trace.steps] if trace.steps else []


def _chained(trace, source, target) -> bool:
    if not trace.steps:
        return source == target
    nodes = _trace_nodes(trace)
    return (
        nodes[0] == source
        and nodes[-1] == target
        and all(a.target == b.source for a, b in zip(trace.steps, trace.steps[1:]))
    )


def _tree_summary(r) -> str:
    if isinstance(r, Exception):
        return repr(r)
    return repr(sorted(
        (str(k), None) if v is None else (str(k), str(v[0]), v[1].rule_id, v[2])
        for k, v in r.items()
    ))


def _trace_summary(r) -> str:
    return repr(r) if isinstance(r, Exception) or r is None else str(r)


def relation_sweep(seed: int, expected: dict, store) -> Workload:
    C = relation.CurveNode.curve
    exp = expected["relation"]
    items = []

    def run_tree(state):
        state["tree"] = store.search_tree(C(6), bound=64, value_cap=SEARCH_CAP)
        return state["tree"]

    def check_tree(r, results):
        if msg := _failed(r):
            return msg
        return None if r.get(C(6), 0) is None else "source is not the root"

    items.append(Item("search_tree C(6)", run_tree, check_tree, summary=_tree_summary))

    def run_sweep(state):
        out = []
        for n in SMOOTH_LEVELS:
            trace = relation.RuleStore.trace_to(state["tree"], C(n))
            out.append((n, trace, trace is not None and trace.validate()))
        return out

    def check_sweep(r, results):
        if msg := _failed(r):
            return msg
        for n, trace, valid in r:
            if trace is None or not valid:
                return f"no valid trace to C({n})"
            if not _chained(trace, C(6), C(n)):
                return f"trace to C({n}): endpoints or chaining wrong"
            if any(x.kind == "curve" and not _smooth(x.n, (2, 3, 5)) for x in _trace_nodes(trace)):
                return f"trace to C({n}) leaves the {{2,3,5}}-smooth levels"
            if n == 48 and [str(x) for x in _trace_nodes(trace)] != exp["trace_48"]:
                return "C(48) trace is not the doubling chain"
        return None

    # every smooth level up to 200 from the shared tree, one input as in
    # the acceptance sweep (each level alone takes about 0.1 ms, too
    # short to time apart on a shared machine)
    items.append(Item(
        "trace sweep [5,200]", run_sweep, check_sweep,
        summary=lambda r: repr(r) if isinstance(r, Exception) else repr([(n, str(t), v) for n, t, v in r]),
    ))

    def check_classes(r, results):
        if msg := _failed(r):
            return msg
        if len(r) != exp["classes"]:
            return f"{len(r)} classes"
        return None if sorted(x.n for c in r for x in c) == CLASS_LEVELS else "classes lose a node"

    # mutual reachability materialises the bounded graph around 16 levels
    items.append(Item(
        "classes [5,60]",
        lambda state: store.equivalence_classes([C(n) for n in CLASS_LEVELS], bound=64),
        check_classes,
        summary=lambda r: repr(r) if isinstance(r, Exception) else repr(sorted(sorted(map(str, c)) for c in r)),
    ))

    batch = query_batch(random.Random(seed))

    def check_query(s, t, hit):
        def check(r, results):
            if isinstance(r, Exception):
                return _failed(r)
            if not hit:
                if r is not None:
                    return f"found a derivation C({s}) => C({t})"
                # cross-check: the miss is absent from the tree of the same source
                tree = results[0]
                return "target is in the search tree" if C(t) in tree else None
            if r is None or not r.validate() or not _chained(r, C(s), C(t)):
                return f"no valid derivation C({s}) => C({t})"
            return None

        return check

    for s, t, hit in batch:
        items.append(Item(
            f"{'hit' if hit else 'miss'} C({s})->C({t})",
            lambda state, s=s, t=t: store.reachable(C(s), C(t), bound=64),
            check_query(s, t, hit),
            summary=_trace_summary,
        ))

    def counters(results):
        tree = results[0]
        return {"relation.nodes_reached": len(tree) if isinstance(tree, dict) else 0}

    return Workload("relation-sweep", items, counters,
                    {"queries": [f"C({s})->C({t})" for s, t, _ in batch]})


# ---------------------------------------------------------------------------
# search-sweep, second part: the belyi and sunit box searches


@lru_cache(maxsize=None)
def _brute_smooth(bound: int, primes) -> list:
    return [n for n in range(1, bound + 1) if _smooth(n, primes)]


def _products(primes, bound: int) -> list:
    """P-smooth numbers up to bound by nested prime powers."""
    out = [1]
    for p in primes:
        grown = []
        for v in out:
            while v <= bound:
                grown.append(v)
                v *= p
        out = grown
    return sorted(out)


def _brute_unit(primes, bound):
    smooth = _brute_smooth(bound, primes)
    members = set(smooth)
    return sorted((a, b, a + b) for a in smooth for b in smooth
                  if a <= b and a + b in members and gcd(a, b) == 1)


def _brute_prop24(primes, bound):
    smooth = _brute_smooth(bound, primes)
    members = set(smooth)
    return sorted((n2, n3) for n2 in smooth for n3 in smooth
                  if n3 < n2 and gcd(n2, n3) == 1 and n2 - n3 in members)


def _brute_thm26(primes, bound):
    smooth = _brute_smooth(2 * bound, primes)
    out = []
    for r3 in smooth:
        if 2 * r3 > bound:
            continue
        for mag in smooth:
            if gcd(mag, r3) != 1:
                continue
            for r1 in (mag, -mag):
                e = (0, 2 * r3, r1 + r3, r3 - r1)
                if len(set(e)) != 4 or any(abs(x) > bound for x in e):
                    continue
                exceptional = any(not _smooth(e[i] - e[j], primes)
                                  for i in range(4) for j in range(i + 1, 4))
                out.append((e, r1, r3, exceptional))
    return sorted(out)


def _check_tuples(primes, required=None):
    def check(r, results):
        if msg := _failed(r):
            return msg
        for t in r:
            try:
                belyi.verify_belyi(t)
            except belyi.NotBelyiForm as exc:
                return f"{t.support} is not a Belyi form: {exc}"
            if not all(_smooth(e, primes) for e in t.exponents):
                return f"{t.support} has an exponent that is not smooth"
        if required is not None and tuple(required) not in {tuple(map(int, t.support)) for t in r}:
            return f"{tuple(required)} not found"
        return None

    return check


def _check_equal(reference: Callable, convert: Callable = lambda r: r):
    def check(r, results):
        if msg := _failed(r):
            return msg
        return None if convert(r) == reference() else "differs from brute force"

    return check


def search_boxes(seed: int, expected: dict) -> Workload:
    # fixed boxes: the seed does not enter them
    P = (2, 3, 5)
    items = [
        # the reference four-point map (0,1,5,6) lies in this box
        Item("search k=4 (2,3) box 30", lambda state: belyi.search_smooth_tuples(4, (2, 3), 30),
             _check_tuples((2, 3), expected["belyi"]["required_support"]), summary=repr),
        # the larger box: about 3.9k supports, most of the search time
        Item("search k=5 (2,3,5) box 20", lambda state: belyi.search_smooth_tuples(5, P, 20),
             _check_tuples(P), summary=repr),
        # the acceptance criterion's prime set at 100 times its height,
        # where the quadratic pair loops start to cost
        Item("unit (2,3,5) 1e6", lambda state: sunit.unit_equation_solutions(P, 10 ** 6),
             _check_equal(lambda: _brute_unit(P, 10 ** 6))),
        Item("prop24 (2,3,5) 1e6", lambda state: sunit.prop24_pairs(P, 10 ** 6),
             _check_equal(lambda: _brute_prop24(P, 10 ** 6))),
        # about 3.7k family tuples, each with six smoothness tests
        Item("thm26 (2,3,5) 1e4", lambda state: sunit.thm26_family(P, 10 ** 4),
             _check_equal(lambda: _brute_thm26(P, 10 ** 4),
                          lambda r: [(t.entries, t.r1, t.r3, t.exceptional) for t in r])),
        # far past any trial-division range: only product generation works
        Item("smooth (2,3,5,7) 1e12", lambda state: sunit.smooth_enum((2, 3, 5, 7), 10 ** 12),
             _check_equal(lambda: _products((2, 3, 5, 7), 10 ** 12), lambda r: list(r.values))),
    ]

    def counters(results):
        found = sum(len(r) for r in results[:2] if isinstance(r, list))
        smooth = [len(r.values) for r in results if isinstance(r, sunit.SmoothSet)]
        return {"belyi.tuples_found": found, "sunit.smooth_values": sum(smooth)}

    return Workload("search-boxes", items, counters, {})


def search_sweep(seed: int, expected: dict, store) -> Workload:
    """The rule-graph search and the box searches, as one workload.

    Every search layer (relation, belyi, sunit) runs here.  The box
    searches alone make a ~1 s pass whose time moves by up to 1.8x from
    one minute to the next on a shared 2-vCPU Xeon host; as part of this workload
    they need no run of their own, so each run can be longer.
    """
    graph = relation_sweep(seed, expected, store)
    boxes = search_boxes(seed, expected)
    n = len(graph.items)

    def counters(results):
        return {**graph.counters(results[:n]), **boxes.counters(results[n:])}

    # the rule-graph items come first: their checks read the search tree
    # from results[0]
    return Workload("search-sweep", graph.items + boxes.items, counters, graph.inputs)
