"""Generate the bundled chain artifacts from exact step data."""
import sys
sys.path.insert(0, "src")
from fractions import Fraction

from ramcalc.exact import QQ, NumberField, Poly
from ramcalc.manifest import ChainManifest, ChainStep, render_chain, parse_chain
from ramcalc.rmap import INF, RationalMap, verify_chain


def P(coeffs):
    """A polynomial over Q: every map of a chain is defined over Q."""
    return Poly(QQ, coeffs)


def expand(roots_with_mult):
    """prod (z - r)^e as a Poly over Q."""
    out = P([1])
    for r, e in roots_with_mult:
        out = out * P([-r, 1]) ** e
    return out


def build_prop9():
    K = NumberField.cyclotomic_field(5)
    t = K.gen
    start = [(K.one, 2), (t, 2), (t ** 2, 2), (t ** 3, 2), (t ** 4, 2), (INF, 2)]
    steps = []

    def mk(name, kind, num, den, ram, out):
        steps.append(ChainStep(
            name=name, kind=kind,
            map=RationalMap(P(num), P(den)),
            ram=[(K.coerce(p) if p != "inf" else INF, e) for p, e in ram],
            out=[p if p is INF else K.coerce(p) for p in out],
        ))

    mk("f2", "map", [1, 0, 1], [0, 1], [(1, 2), (-1, 2)],
       [2, -2, t + t ** 4, t ** 2 + t ** 3, INF])
    mk("f3", "auto", [-1], [0, 1], [],
       [Fraction(-1, 2), Fraction(1, 2), t ** 2 + t ** 3, t + t ** 4, 0])
    mk("f4", "map", [-1, 1, 1], [1], [(Fraction(-1, 2), 2), ("inf", 2)],
       [Fraction(-5, 4), Fraction(-1, 4), 0, -1, INF])
    mk("f5", "auto", [0, -4], [1], [], [5, 1, 0, 4, INF])
    mk("f6", "map", [25, -20, 4], [1], [(Fraction(5, 2), 2), ("inf", 2)],
       [25, 9, 0, INF])
    mk("f7", "map", [225, 30, 1], [0, 4], [(15, 2), (-15, 2)],
       [16, INF, 15, 0])
    mk("f8", "auto", [0, 1], [-15, 1], [], [16, 1, INF, 0])
    num9 = expand([(1, 32), (16, 3)])
    den9 = expand([(10, 8), (0, 27)])
    steps.append(ChainStep(
        name="f9", kind="map", map=RationalMap(num9, den9),
        ram=[(K.coerce(0), 27), (K.coerce(1), 32), (K.coerce(10), 8), (K.coerce(16), 3), (INF, 3)],
        out=[K.zero, K.one, INF],
    ))
    return ChainManifest(
        name="quintic-branch-collapse", field=K, start=start, steps=steps,
        bound=2 ** 10 * 3 ** 3, bound_primes=(2, 3),
    )


def build_prop12_like(name, h6_support, h6_exponents, bound, bound_primes):
    K = NumberField.cyclotomic_field(7)
    t = K.gen
    start = [(K.one, 2)] + [(t ** i, 2) for i in range(1, 7)] + [(INF, 2)]
    steps = []
    steps.append(ChainStep(
        name="h2", kind="map", map=RationalMap(P([1, 0, 1]), P([0, 1])),
        ram=[(K.coerce(1), 2), (K.coerce(-1), 2)],
        out=[K.coerce(2), K.coerce(-2), t + t ** 6, t ** 2 + t ** 5, t ** 3 + t ** 4, INF],
    ))
    t1 = (t + t ** 6 + 2) / (t + t ** 6 - 2)
    t2 = (t ** 2 + t ** 5 + 2) / (t ** 2 + t ** 5 - 2)
    t3 = (t ** 3 + t ** 4 + 2) / (t ** 3 + t ** 4 - 2)
    steps.append(ChainStep(
        name="h3", kind="auto", map=RationalMap(P([2, 1]), P([-2, 1])),
        ram=[], out=[INF, K.zero, t1, t2, t3, K.one],
    ))
    steps.append(ChainStep(
        name="h4", kind="map", map=RationalMap(P([1, 21, 35, 7]), P([1])),
        ram=[(K.coerce(Fraction(-1, 3)), 2), (K.coerce(-3), 2), (INF, 3)],
        out=[K.coerce(0), K.coerce(1), K.coerce(64), K.coerce(Fraction(-64, 27)), INF],
    ))
    steps.append(ChainStep(
        name="h5", kind="auto", map=RationalMap(P([-256, 256]), P([-64, 1])),
        ram=[], out=[K.coerce(0), K.coerce(4), K.coerce(13), K.coerce(256), INF],
    ))
    steps.append(ChainStep(
        name="h6", kind="belyi", support=tuple(h6_support), exponents=tuple(h6_exponents),
        out=[K.zero, K.one, INF],
    ))
    return ChainManifest(
        name=name, field=K, start=start, steps=steps, bound=bound, bound_primes=bound_primes,
    )


def emit(manifest, path):
    text = render_chain(manifest)
    parsed = parse_chain(text)
    assert render_chain(parsed) == text, f"round-trip failure for {path}"
    report = verify_chain(parsed)
    for s in report.steps:
        status = s.status
        print(f"  {s.name}: {status}" + (f" {s.details}" if status != "pass" else ""))
    print(f"  composite indices: {report.composite_indices}")
    print(f"  bound_ok={report.bound_ok} passed={report.passed}")
    assert report.passed, path
    with open(path, "w") as f:
        f.write(text)
    print(f"wrote {path}")


if __name__ == "__main__":
    emit(build_prop9(), "src/ramcalc/data/prop9.chain")
    emit(build_prop12_like(
        "septic-branch-collapse",
        (0, 6, 256, 4, 13, -14),
        (12301875, 32752512, 13, -42120000, -2560000, -374400),
        2 ** 15 * 3 ** 10 * 5 ** 4 * 13, (2, 3, 5, 13),
    ), "src/ramcalc/data/prop12.chain")
    emit(build_prop12_like(
        "septic-branch-collapse-variant",
        (0, 13, 56, 4, 48, 256),
        (8620425, 7208960, 1539648, -14860800, -2507760, -473),
        2 ** 18 * 3 ** 8 * 5 ** 2 * 11 * 43, (2, 3, 5, 11, 43),
    ), "src/ramcalc/data/prop14.chain")
