"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion and fails
loudly if any stated check or time budget is missed.
"""

import random
import time
from math import gcd

from ramcalc.belyi import (
    BelyiTuple,
    search_smooth_tuples,
    vandermonde_exponents,
    verify_belyi,
)
from ramcalc.contract import AlgebraicPointSet, contract_to_rational, verify_contraction
from ramcalc.cover import (
    CoverProfile,
    compositum_profile,
    permutation_compositum_fiber,
    rh_genus,
    standard_projection_profile,
    verify_certificate,
)
from ramcalc.exact import QQ, RAT, Poly, cyclotomic, is_smooth
from ramcalc.manifest import bundled_text, parse_cert, parse_chain
from ramcalc.relation import CurveNode, RuleStore
from ramcalc.rmap import is_inf, verify_chain
from ramcalc.sunit import prop24_pairs, thm26_family, unit_equation_solutions

from helpers import dlog_numerator, from_roots


def report(criterion: str, ok: bool, extra: str = ""):
    tail = f"  ({extra})" if extra else ""
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}{tail}")
    assert ok, criterion


def naive_smooth(n, primes):
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def test_criterion_01_quintic_chain():
    t0 = time.monotonic()
    manifest = parse_chain(bundled_text("prop9.chain"))
    rep = verify_chain(manifest)
    ok = rep.passed

    # final branch locus is exactly {0, 1, infinity}
    finals = {"inf" if is_inf(pt) else str(RAT(pt)) for pt in rep.final_set}
    ok = ok and finals == {"0", "1", "inf"}

    # composite indices are {2,3}-smooth
    ok = ok and all(is_smooth(i, (2, 3)) for i in rep.composite_indices)

    # exact logarithmic-derivative identity for the last map:
    # d(last)/last = 4320 / (z (z-1) (z-10) (z-16))
    last = manifest.steps[-1].map
    expected_num = from_roots([1] * 32 + [16] * 3)
    expected_den = from_roots([10] * 8 + [0] * 27)
    ok = ok and last.num == expected_num and last.den == expected_den
    n = dlog_numerator(BelyiTuple((0, 1, 10, 16), (-27, 32, -8, 3)))
    ok = ok and n.degree == 0 and n.coeffs[0] == 4320

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report("criterion 1: quintic chain verifies with exact dlog identity", ok,
           f"{elapsed:.2f}s")


def _check_belyi_chain(name, expected_abs_exponents, bound, primes):
    t0 = time.monotonic()
    manifest = parse_chain(bundled_text(name))
    rep = verify_chain(manifest)
    ok = rep.passed and rep.bound_ok

    step = manifest.steps[-1]
    assert step.kind == "belyi"
    t = BelyiTuple(step.support, step.exponents)
    ok = ok and sum(t.exponents) == 0
    ok = ok and verify_belyi(t) != 0

    got = sorted([abs(r) for r in t.exponents] + [t.k - 1])
    ok = ok and got == sorted(expected_abs_exponents)
    ok = ok and all(is_smooth(r, primes) for r in got)
    ok = ok and all(bound % i == 0 for i in rep.composite_indices)

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    return ok, elapsed


def test_criterion_02_septic_chain():
    expected = [
        3 ** 9 * 5 ** 4,
        2 ** 6 * 3 ** 4 * 5 ** 4 * 13,
        2 ** 7 * 3 ** 9 * 13,
        2 ** 12 * 5 ** 4,
        2 ** 7 * 3 ** 2 * 5 ** 2 * 13,
        13,
        5,
    ]
    bound = 2 ** 15 * 3 ** 10 * 5 ** 4 * 13
    ok, elapsed = _check_belyi_chain("prop12.chain", expected, bound, (2, 3, 5, 13))
    report("criterion 2: septic chain with listed exponent factorizations", ok,
           f"{elapsed:.2f}s")


def test_criterion_03_septic_chain_variant():
    manifest = parse_chain(bundled_text("prop14.chain"))
    step = manifest.steps[-1]
    expected = [abs(r) for r in step.exponents] + [len(step.support) - 1]
    bound = 2 ** 18 * 3 ** 8 * 5 ** 2 * 11 * 43
    ok, elapsed = _check_belyi_chain("prop14.chain", expected, bound,
                                     (2, 3, 5, 11, 43))
    report("criterion 3: septic chain variant under its divisor bound", ok,
           f"{elapsed:.2f}s")


def test_criterion_04_four_point_example():
    ok = vandermonde_exponents((0, 1, 5, 6)) == (2, -3, 3, -2)
    found = {t.support for t in search_smooth_tuples(4, (2, 3), 10)}
    ok = ok and (0, 1, 5, 6) in found
    report("criterion 4: reference four-point map found by exponent search", ok)


def test_criterion_05_compositum_oracle():
    rng = random.Random(1729)

    def random_fiber(degree):
        parts = []
        left = degree
        while left:
            e = rng.randint(1, left)
            parts.append(e)
            left -= e
        return tuple(sorted(parts))

    mismatches = 0
    for _ in range(200):
        df, dg = rng.randint(1, 6), rng.randint(1, 6)
        fa, gb = random_fiber(df), random_fiber(dg)
        f = CoverProfile(degree=df, fibers={"z": fa})
        g = CoverProfile(degree=dg, fibers={"z": gb})
        base, _, _ = compositum_profile(f, g)
        if base.fibers.get("z", (1,) * (df * dg)) != permutation_compositum_fiber(fa, gb):
            mismatches += 1
    report("criterion 5: compositum rule matches permutation oracle 200/200",
           mismatches == 0)


EXPECTED_ASSUMPTIONS = {
    "prop7a.cert": ["isogeny-square-profile", "two-torsion-in-unit-fiber"],
    "prop7b.cert": [
        "isogeny-square-profile",
        "three-torsion-in-unit-fiber",
        "double-cover-branch-set",
        "torsion-images-on-branch-set",
        "cube-torsion-preimage",
    ],
    "prop10.cert": [],
    "prop13.cert": [],
    "thm30.cert": [
        "origin-ramification-bound",
        "multiplication-map-unramified",
        "origin-preimage-torsion",
        "quotient-branch-bound",
        "multiplication-map-unramified-second",
        "quotient-branch-bound-second",
        "target-branch-divisibility",
    ],
    "thm32.cert": ["modular-quotient-bound"],
}


def test_criterion_06_certificates_discharge():
    ok = True
    details = []
    for name, expected_tags in EXPECTED_ASSUMPTIONS.items():
        m = parse_cert(bundled_text(name))
        rep = verify_certificate(m.certificate, (1, 2, 3, 6))
        tags = [t for t, _ in rep.assumptions]
        good = rep.passed and tags == expected_tags
        ok = ok and good
        if not good:
            details.append(name)
    report("criterion 6: six diagram certificates discharge at n in {1,2,3,6}",
           ok, "failing: " + ", ".join(details) if details else "")


def _run_contraction(polys):
    t0 = time.monotonic()
    S = AlgebraicPointSet.from_polys(polys)
    result = contract_to_rational(S)
    verify_contraction(S, result)
    elapsed = time.monotonic() - t0
    ok = result.final_set.all_rational()
    measures = [S.measure()]
    for fin, at_inf in result.index_certificate:
        ok = ok and fin == 2 and at_inf & (at_inf - 1) == 0
    bound = result.composite_index_bound
    ok = ok and bound & (bound - 1) == 0
    ok = ok and elapsed < 30.0
    return ok, elapsed, result


def test_criterion_07_contractions():
    ok1, t1, r1 = _run_contraction([Poly(QQ, [-2, 0, 0, 1])])
    ok2, t2, r2 = _run_contraction([cyclotomic(5)])
    # replay the measure decrease on the cyclotomic run
    from ramcalc.contract import reduction_step

    current = AlgebraicPointSet.from_polys([cyclotomic(5)])
    seen = [current.measure()]
    while not current.all_rational():
        _, current = reduction_step(current)
        seen.append(current.measure())
    decreasing = all(b < a for a, b in zip(seen, seen[1:]))
    ok = ok1 and ok2 and decreasing and len(r1.steps) >= 1 and len(r2.steps) >= 1
    report("criterion 7: contractions terminate with power-of-2 certificates",
           ok, f"cubic {t1:.2f}s, cyclotomic {t2:.2f}s")


def test_criterion_08_riemann_hurwitz():
    ok = all(
        rh_genus(standard_projection_profile(n)) == (n - 1) // 2
        for n in range(3, 13)
    )
    ok = ok and rh_genus(standard_projection_profile(5)) == 2
    report("criterion 8: hyperelliptic projection genus floor((n-1)/2)", ok)


def test_criterion_09_relation_sweep():
    store = RuleStore.load(bundled_text("rules.store"))
    src = CurveNode.curve(6)
    parent = store.search_tree(src, bound=64, value_cap=200 * (1 << 45))
    targets = [n for n in range(5, 201) if is_smooth(n, (2, 3, 5))]
    ok = True
    for n in targets:
        trace = RuleStore.trace_to(parent, CurveNode.curve(n))
        good = trace is not None and trace.validate()
        if good and n != 6:
            nodes = [trace.steps[0].source] + [s.target for s in trace.steps]
            levels = [x.n for x in nodes if x.kind == "curve"]
            good = all(
                x.kind != "curve" or is_smooth(x.n, (2, 3, 5)) for x in nodes
            ) and levels[-1] == n
        ok = ok and good

    # doubling-chain shape for a reference power-smooth target
    trace48 = RuleStore.trace_to(parent, CurveNode.curve(48))
    names = [str(trace48.steps[0].source)] + [str(s.target) for s in trace48.steps]
    ok = ok and names == [
        "C(6)", "hyperbolic-hyperelliptic", "C(8)", "C(16)", "C(32)", "C(48)"
    ]

    classes = store.equivalence_classes(
        [CurveNode.curve(n) for n in range(5, 61) if is_smooth(n, (2, 3, 5))],
        bound=64,
    )
    ok = ok and len(classes) == 1
    report("criterion 9: C(6) reaches every {2,3,5}-smooth level in [5,200]", ok)


def test_criterion_10_sunit_completeness():
    primes, bound = (2, 3, 5), 10 ** 4

    got = unit_equation_solutions(primes, bound)
    smooth = [n for n in range(1, bound + 1) if naive_smooth(n, primes)]
    members = set(smooth)
    expected = sorted(
        (a, b, a + b)
        for a in smooth
        for b in smooth
        if a <= b and a + b in members and gcd(a, b) == 1
    )
    ok = got == expected

    got_pairs = prop24_pairs(primes, bound)
    expected_pairs = sorted(
        (n2, n3)
        for n2 in smooth
        for n3 in smooth
        if n3 < n2 and gcd(n2, n3) == 1 and naive_smooth(n2 - n3, primes)
    )
    ok = ok and got_pairs == expected_pairs

    fam = thm26_family((2, 3), 10)
    matches = [t for t in fam if t.entries == (0, 6, 1, 5)]
    ok = ok and matches and all(t.exceptional for t in matches)
    report("criterion 10: unit-equation enumeration equals brute force at 10^4",
           bool(ok))
