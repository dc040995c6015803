"""Command-line drivers for the verification toolkit.

Exit codes are a stable contract: 0 = verified pass, 1 = a check ran
and failed, 2 = usage or parse error; a reader that closes stdout
early ends the run with 1 and no traceback.  `--json` selects a
machine-readable rendering; with `--deterministic` the output carries
no environment-dependent content and is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from math import comb

from . import __version__
from .belyi import (
    BelyiTuple,
    NotBelyiForm,
    search_smooth_tuples,
    vandermonde_exponents,
    verify_belyi,
)
from .contract import (
    AlgebraicPointSet,
    ContractionRejected,
    HeightCapExceeded,
    StrategyExhausted,
    contract_to_rational,
    verify_contraction,
)
from .cover import rh_genus, standard_projection_profile, verify_certificate
from .exact import BACKEND, MAX_LISTED_PRIME, Poly, excerpt, factor_over_primes, parse_int, prime_list
from .manifest import (
    CERT_HEADER,
    CHAIN_HEADER,
    ManifestError,
    bundled_text,
    parse_cert,
    parse_chain,
    parse_poly,
    parse_support,
)
from .relation import (
    DEFAULT_BOUND,
    CurveNode,
    EdgeRule,
    NodePattern,
    RuleStore,
    UnverifiedProvenance,
)
from .rmap import ChainReport, verify_chain
from .sunit import prop24_pairs, smooth_enum, thm26_family, unit_equation_solutions

BELYI_HEADER = "ramcalc-belyi 1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# a concrete level is factored when a search expands it: 18-digit levels
# take about a second, and a product of two 21-digit primes takes 13 s
MAX_CURVE_LEVEL = 10 ** 18
# the genus profile lists one fiber per root of unity: 10^5 takes about
# a second, and 10^8 runs out of memory
MAX_GENUS_INDEX = 10 ** 5
# `belyi search` tries comb(box, k - 1) supports: near 10^5 a run takes
# 0.1-0.2 s on a 2-vCPU host with --primes 2,3,5 or 2,3,5,7, where few
# are hits, and 2.7 s (k = 3) to 5.2 s (k = 6) with every prime up to
# the box, where nearly all are
MAX_BELYI_SUPPORTS = 10 ** 5


class UsageError(ValueError):
    pass


def _emit(payload: dict, human_lines: list, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in human_lines:
            print(line)


def _read_text(path: str) -> str:
    try:
        with open(path, "r") as f:
            return f.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _parse_primes(s: str) -> tuple:
    entries = [p.strip() for p in s.split(",") if p.strip()]
    # int() of an entry takes time quadratic in its length, and no
    # listed prime is longer than MAX_LISTED_PRIME
    width = len(str(MAX_LISTED_PRIME))
    for p in entries:
        if len(p) > width:
            raise UsageError(f"prime list entry {excerpt(p)!r} is longer than {width} characters")
    try:
        primes = [int(p) for p in entries]
    except ValueError:
        raise UsageError(f"bad prime list {excerpt(s)!r}")
    return prime_list(primes)


# ---------------------------------------------------------------------------
# verify


def _parse_param_instances(param: str) -> tuple:
    # accepts "n=1,2,3"
    if "=" not in param:
        raise UsageError("--param expects n=<comma-separated integers>")
    name, _, values = param.partition("=")
    if name.strip() != "n":
        raise UsageError("the only supported parameter is n")
    try:
        return tuple(int(v) for v in values.split(","))
    except ValueError:
        raise UsageError(f"bad parameter instances {excerpt(values)!r}")


def _chain_report_payload(report) -> dict:
    return {
        "kind": "chain",
        "name": report.name,
        "passed": report.passed,
        "steps": [
            {
                "name": s.name,
                "status": s.status,
                "erratum": s.erratum,
                "details": list(s.details),
            }
            for s in report.steps
        ],
        "composite_indices": list(report.composite_indices),
        "bound": report.bound,
        "bound_ok": report.bound_ok,
        "final_points": sorted(str(p) for p in report.final_set),
    }


def _chain_report_lines(report) -> list:
    lines = [f"chain {report.name}"]
    for s in report.steps:
        mark = " (erratum)" if s.erratum else ""
        lines.append(f"  step {s.name}: {s.status}{mark}")
        for d in s.details:
            lines.append(f"    {d}")
    lines.append(f"  composite indices: {' '.join(str(i) for i in report.composite_indices)}")
    if report.bound is not None:
        lines.append(f"  divisor bound {report.bound}: {'ok' if report.bound_ok else 'VIOLATED'}")
    lines.append(f"  result: {'PASS' if report.passed else 'FAIL'}")
    return lines


def _cert_report_payload(report) -> dict:
    return {
        "kind": "certificate",
        "name": report.name,
        "passed": report.passed,
        "instances": list(report.instances),
        "verdicts": [
            {
                "kind": v.kind,
                "subject": v.subject,
                "status": v.status,
                "details": list(v.details),
            }
            for v in report.verdicts
        ],
        "assumptions": [{"tag": t, "text": x} for t, x in report.assumptions],
        "discharged_arrows": list(report.discharged_arrows),
    }


def _cert_report_lines(report) -> list:
    lines = [f"certificate {report.name} at n in {{{', '.join(map(str, report.instances))}}}"]
    for v in report.verdicts:
        lines.append(f"  {v.kind} {v.subject}: {v.status}")
        for d in v.details:
            lines.append(f"    {d}")
    for tag, text in report.assumptions:
        lines.append(f"  assumption [{tag}]: {text}")
    lines.append(f"  result: {'PASS' if report.passed else 'FAIL'}")
    return lines


def _verify_text(text: str, param=None):
    """Report of the chain or certificate in text, told apart by its
    first non-blank line; param overrides a certificate's instances."""
    header = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
    if header == CHAIN_HEADER:
        return verify_chain(parse_chain(text))
    if header == CERT_HEADER:
        manifest = parse_cert(text)
        instances = _parse_param_instances(param) if param else manifest.instances
        return verify_certificate(manifest.certificate, instances)
    raise ManifestError(f"unrecognized manifest header {excerpt(header)!r}")


def cmd_verify(args) -> int:
    report = _verify_text(_read_text(args.path), args.param)
    if isinstance(report, ChainReport):
        _emit(_chain_report_payload(report), _chain_report_lines(report), args.json)
    else:
        _emit(_cert_report_payload(report), _cert_report_lines(report), args.json)
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# belyi


def _belyi_payload(t: BelyiTuple, primes) -> dict:
    payload = {
        "support": [str(x) for x in t.support],
        "exponents": list(t.exponents),
        "degree": t.degree,
        "exponent_sum_zero": sum(t.exponents) == 0,
    }
    try:
        payload["dlog_constant"] = str(verify_belyi(t))
        payload["passed"] = True
    except NotBelyiForm as exc:
        payload["dlog_constant"] = None
        payload["passed"] = False
        payload["failure"] = str(exc)
    if primes:
        facs = [factor_over_primes(e, primes) for e in t.exponents]
        payload["factorizations"] = [
            {"exponent": e, "factors": {str(p): x for p, x in f.items()} if f is not None else None}
            for e, f in zip(t.exponents, facs)
        ]
    return payload


def _belyi_lines(payload: dict) -> list:
    lines = [
        f"support: {' '.join(payload['support'])}",
        f"exponents: {' '.join(str(e) for e in payload['exponents'])}",
        f"degree: {payload['degree']}",
        f"dlog constant: {payload['dlog_constant']}",
        f"result: {'PASS' if payload['passed'] else 'FAIL'}",
    ]
    if "factorizations" in payload:
        for item in payload["factorizations"]:
            if item["factors"] is None:
                lines.append(f"  |{item['exponent']}| not smooth over the given primes")
            else:
                fac = " * ".join(f"{p}^{e}" for p, e in sorted(item["factors"].items()))
                lines.append(f"  |{item['exponent']}| = {fac if fac else '1'}")
    return lines


def cmd_belyi_exponents(args) -> int:
    support = parse_support(args.support)
    exps = vandermonde_exponents(support)
    t = BelyiTuple(support, exps)
    primes = _parse_primes(args.primes) if args.primes else None
    payload = _belyi_payload(t, primes)
    _emit(payload, _belyi_lines(payload), args.json)
    return EXIT_PASS if payload["passed"] else EXIT_FAIL


def _parse_belyi_file(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != BELYI_HEADER:
        raise ManifestError("missing or wrong belyi-tuple header")
    support = None
    exponents = None
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key == "support":
            support = parse_support(rest)
        elif key == "exponents":
            exponents = [parse_int(x) for x in rest.split()]
        else:
            raise ManifestError(f"unknown belyi-tuple line {excerpt(ln)!r}")
    if support is None or exponents is None:
        raise ManifestError("belyi-tuple file needs support and exponents lines")
    return BelyiTuple(support, exponents)


def cmd_belyi_verify(args) -> int:
    t = _parse_belyi_file(_read_text(args.path))
    primes = _parse_primes(args.primes) if args.primes else None
    payload = _belyi_payload(t, primes)
    _emit(payload, _belyi_lines(payload), args.json)
    return EXIT_PASS if payload["passed"] else EXIT_FAIL


def _parse_box(text: str, k: int) -> int:
    """The --box argument, at least 1.  A k outside 3..7 is refused by
    search_smooth_tuples itself; inside it comb(box, k - 1) >= box, so a
    box above the cap is refused before comb runs on it, and a box with
    more digits than the cap before int() does, whose time is quadratic
    in the digits."""
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    capped = 3 <= k <= 7
    if capped and digits.isdecimal() and len(digits.lstrip("0")) > len(str(MAX_BELYI_SUPPORTS)):
        # a stand-in with the same verdict
        box = -1 if s[0] == "-" else MAX_BELYI_SUPPORTS + 1
    else:
        box = parse_int(s)
    if box < 1:
        raise UsageError(f"box must be at least 1, got {excerpt(s)}")
    if capped and (box > MAX_BELYI_SUPPORTS or comb(box, k - 1) > MAX_BELYI_SUPPORTS):
        raise UsageError(f"box {excerpt(s)} holds more than {MAX_BELYI_SUPPORTS} supports of size {k}")
    return box


def cmd_belyi_search(args) -> int:
    primes = _parse_primes(args.primes)
    box = _parse_box(args.box, args.k)
    found = search_smooth_tuples(args.k, primes, box)
    payload = {
        "k": args.k,
        "primes": list(primes),
        "box": box,
        "tuples": [
            {"support": [str(x) for x in t.support], "exponents": list(t.exponents)}
            for t in found
        ],
        "count": len(found),
    }
    lines = []
    for t in found:
        lines.append(
            f"support {' '.join(str(x) for x in t.support)}  "
            f"exponents {' '.join(str(e) for e in t.exponents)}"
        )
    lines.append(f"count: {len(found)}")
    _emit(payload, lines, args.json)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# contract


def _parse_poly_expr(s: str) -> Poly:
    try:
        p = parse_poly(s)
    except ManifestError as exc:
        raise UsageError(f"cannot parse polynomial {excerpt(s)!r}: {exc}")
    if p.degree < 1:
        raise UsageError(f"polynomial {excerpt(s)!r} is constant")
    return p


def cmd_contract(args) -> int:
    polys = [_parse_poly_expr(s) for s in args.polys]
    S = AlgebraicPointSet.from_polys(polys)
    try:
        result = contract_to_rational(S, height_cap=args.height_cap)
        verify_contraction(S, result, height_cap=args.height_cap)
    except (StrategyExhausted, HeightCapExceeded, ContractionRejected) as exc:
        _emit({"passed": False, "error": str(exc)}, [str(exc)], args.json)
        return EXIT_FAIL
    payload = {
        "passed": True,
        "steps": [
            {
                "eliminated_degree": st.eliminated.degree,
                "split_exponent": st.k,
                "padding_roots": st.r,
                "finite_index_bound": 2,
                "index_at_infinity": st.product.degree,
                "coeff_bits": st.coeff_bits,
            }
            for st in result.steps
        ],
        "index_certificate": [[a, b] for a, b in result.index_certificate],
        "composite_index_bound": result.composite_index_bound,
        # degree-1 monic entries z + c stand for the rational point -c
        "final_points": sorted(str(-p.coeffs[0]) for p in result.final_set.polys),
    }
    lines = []
    for i, st in enumerate(result.steps, 1):
        lines.append(
            f"step {i}: eliminated degree {st.eliminated.degree}, "
            f"indices (finite <= 2, infinity = 2^{st.k}), {st.coeff_bits}-bit coefficients"
        )
    lines.append(
        "index certificate: "
        + " ".join(f"({a},{b})" for a, b in result.index_certificate)
    )
    lines.append(f"composite index bound: {result.composite_index_bound}")
    lines.append(f"steps: {len(result.steps)}")
    _emit(payload, lines, args.json)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# relation


def _load_store(args) -> RuleStore:
    text = _read_text(args.store) if args.store else bundled_text("rules.store")
    return RuleStore.load(text)


def _parse_curve_node(s: str) -> CurveNode:
    s = s.strip()
    p = NodePattern.parse(s)
    if p.form == "const":
        if p.coeff > MAX_CURVE_LEVEL:
            raise UsageError(f"level of {excerpt(s)!r} is above {MAX_CURVE_LEVEL}")
        return CurveNode.curve(p.coeff)
    if p.form == "class":
        return CurveNode.named(p.name)
    raise UsageError(f"node {excerpt(s)!r} must be concrete (C(<int>) or a class name)")


def _trace_payload(trace) -> dict:
    return {
        "source": str(trace.source) if trace.steps else None,
        "target": str(trace.target) if trace.steps else None,
        "steps": [
            {
                "rule": st.rule.rule_id,
                "parameter": st.parameter,
                "source": str(st.source),
                "target": str(st.target),
            }
            for st in trace.steps
        ],
        "length": len(trace.steps),
    }


def cmd_relation_query(args) -> int:
    """`relation query`, and `relation trace`, which re-validates the
    same derivation and prints it step by step."""
    store = _load_store(args)
    src = _parse_curve_node(args.source)
    tgt = _parse_curve_node(args.target)
    trace = store.reachable(src, tgt, bound=args.bound)
    if trace is None:
        _emit(
            {"reachable": False, "bound": args.bound},
            [f"unreachable within {args.bound} steps"],
            args.json,
        )
        return EXIT_FAIL
    if args.subcommand == "query":
        _emit({"reachable": True, "trace": _trace_payload(trace)}, [str(trace)], args.json)
        return EXIT_PASS
    if not trace.validate():
        _emit(
            {"reachable": True, "validated": False},
            ["trace failed re-validation"],
            args.json,
        )
        return EXIT_FAIL
    payload = {"reachable": True, "validated": True, "trace": _trace_payload(trace)}
    lines = []
    for st in trace.steps:
        param = f" n={st.parameter}" if st.parameter is not None else ""
        lines.append(
            f"{st.source} => {st.target}  [rule {st.rule.rule_id}{param}, "
            f"{st.rule.kind}: {st.rule.provenance}]"
        )
    lines.append("validated: yes")
    _emit(payload, lines, args.json)
    return EXIT_PASS


def cmd_relation_classes(args) -> int:
    store = _load_store(args)
    nodes = [_parse_curve_node(s) for s in args.nodes]
    classes = store.equivalence_classes(nodes, bound=args.bound)
    rendered = sorted(sorted(str(n) for n in cls) for cls in classes)
    search = store.last_search
    _emit(
        {"classes": rendered, "count": len(rendered), "search": search},
        [" ".join(cls) for cls in rendered]
        + [
            f"count: {len(rendered)}",
            f"searched: {search['nodes_reached']} nodes, {search['edges']} edges",
        ],
        args.json,
    )
    return EXIT_PASS


def _bundled_artifact_checker(name: str) -> bool:
    try:
        text = bundled_text(name)
    except (FileNotFoundError, ModuleNotFoundError):
        return False
    try:
        return _verify_text(text).passed
    except ManifestError:
        return False


def cmd_relation_add(args) -> int:
    if not args.store:
        raise UsageError("relation add requires --store (the bundled store is read-only)")
    store = RuleStore.load(_read_text(args.store))
    rule = EdgeRule(
        rule_id=args.id,
        source=NodePattern.parse(args.source),
        target=NodePattern.parse(args.target),
        condition=args.cond,
        kind=args.kind,
        provenance=args.provenance,
    )
    store.add_rule(rule, _bundled_artifact_checker)
    with open(args.store, "w") as f:
        f.write(store.dump())
    _emit(
        {"added": rule.rule_id, "sha256": rule.content_hash(), "rules": len(store)},
        [f"added {rule.rule_id} ({rule.content_hash()[:16]}…), store has {len(store)} rules"],
        args.json,
    )
    return EXIT_PASS


# ---------------------------------------------------------------------------
# sunit / genus


def cmd_sunit(args) -> int:
    primes = _parse_primes(args.primes)
    if args.mode == "smooth":
        vals = smooth_enum(primes, args.height).values
        payload = {"values": list(vals), "count": len(vals)}
        lines = [" ".join(str(v) for v in vals), f"count: {len(vals)}"]
    elif args.mode == "unit":
        sols = unit_equation_solutions(primes, args.height)
        payload = {"solutions": [list(s) for s in sols], "count": len(sols)}
        lines = [f"{a} + {b} = {c}" for a, b, c in sols] + [f"count: {len(sols)}"]
    elif args.mode == "prop24":
        pairs = prop24_pairs(primes, args.height)
        payload = {"pairs": [list(p) for p in pairs], "count": len(pairs)}
        lines = [f"({a}, {b})" for a, b in pairs] + [f"count: {len(pairs)}"]
    else:  # family
        tuples = thm26_family(primes, args.height)
        payload = {
            "tuples": [
                {"entries": list(t.entries), "r1": t.r1, "r3": t.r3, "exceptional": t.exceptional}
                for t in tuples
            ],
            "count": len(tuples),
        }
        lines = [
            f"{t.entries}  r1={t.r1} r3={t.r3}" + ("  [exceptional]" if t.exceptional else "")
            for t in tuples
        ] + [f"count: {len(tuples)}"]
    _emit(payload, lines, args.json)
    return EXIT_PASS


def cmd_genus(args) -> int:
    if args.n < 3:
        raise UsageError("curve index must be >= 3")
    if args.n > MAX_GENUS_INDEX:
        raise UsageError(f"curve index must be <= {MAX_GENUS_INDEX}")
    g = rh_genus(standard_projection_profile(args.n))
    _emit({"n": args.n, "genus": g}, [str(g)], args.json)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no state
    between calls, and building it takes milliseconds."""
    ap = argparse.ArgumentParser(
        prog="ramcalc",
        description="exact verification toolkit for ramification chains, "
        "branch-cover certificates, and curve-domination derivations",
    )
    ap.add_argument(
        "--version", action="version", version=f"ramcalc {__version__} (rationals: {BACKEND})"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="guarantee byte-stable output (no timings or environment data)",
        )

    p = sub.add_parser("verify", help="verify a chain or certificate manifest")
    p.add_argument("path")
    p.add_argument("--param", help="instantiate a parametrized certificate, e.g. n=1,2,3")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("belyi", help="four-point one-branch map tools")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    b = bsub.add_parser("exponents", help="normalized exponents for a support")
    b.add_argument("support", help="comma or space separated rationals")
    b.add_argument("--primes", help="also factor exponents over these primes")
    common(b)
    b.set_defaults(func=cmd_belyi_exponents)
    b = bsub.add_parser("verify", help="check a support/exponents file")
    b.add_argument("path")
    b.add_argument("--primes")
    common(b)
    b.set_defaults(func=cmd_belyi_verify)
    b = bsub.add_parser("search", help="enumerate smooth-exponent supports in a box")
    b.add_argument("--k", type=int, default=4, help="support size")
    b.add_argument("--primes", required=True)
    b.add_argument("--box", required=True, help="largest support entry; supports lie in [0, box]")
    common(b)
    b.set_defaults(func=cmd_belyi_search)

    p = sub.add_parser("contract", help="contract an algebraic point set to rational points")
    p.add_argument("polys", nargs="+", help="polynomials in z whose roots are the points, e.g. 'z^3-2'")
    p.add_argument("--height-cap", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("relation", help="curve-domination rule store queries")
    rsub = p.add_subparsers(dest="subcommand", required=True)

    def rel_common(r):
        r.add_argument("--store", help="store file (default: bundled rule set)")
        r.add_argument("--bound", type=int, default=DEFAULT_BOUND)
        common(r)

    r = rsub.add_parser("query", help="shortest derivation between two nodes")
    r.add_argument("source")
    r.add_argument("target")
    rel_common(r)
    r.set_defaults(func=cmd_relation_query)
    r = rsub.add_parser("trace", help="derivation with per-step provenance, re-validated")
    r.add_argument("source")
    r.add_argument("target")
    rel_common(r)
    r.set_defaults(func=cmd_relation_query)
    r = rsub.add_parser("classes", help="mutual-reachability classes of the given nodes")
    r.add_argument("nodes", nargs="+")
    rel_common(r)
    r.set_defaults(func=cmd_relation_classes)
    r = rsub.add_parser("add", help="add a provenance-checked rule to a store file")
    r.add_argument("--store", required=False)
    r.add_argument("--id", required=True)
    r.add_argument("--source", required=True)
    r.add_argument("--target", required=True)
    r.add_argument("--cond", default="n>=1")
    r.add_argument("--kind", choices=("axiom", "verified"), required=True)
    r.add_argument("--provenance", required=True)
    common(r)
    r.set_defaults(func=cmd_relation_add)

    p = sub.add_parser("sunit", help="smooth-number and unit-equation enumeration")
    p.add_argument("mode", choices=("smooth", "unit", "prop24", "family"))
    p.add_argument("--primes", required=True)
    p.add_argument("--height", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_sunit)

    p = sub.add_parser("genus", help="genus of the standard double-cover profile")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(func=cmd_genus)

    return ap


def main(argv=None) -> int:
    # exact results can run to millions of digits; Pythons that limit
    # integer-string conversion (4300 digits by default) lift it here
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is not None:
        set_limit(0)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes to
        # devnull, so the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except UnverifiedProvenance as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
