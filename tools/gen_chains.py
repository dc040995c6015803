"""Generate the bundled chain artifacts from exact step data."""
import sys
sys.path.insert(0, "src")

from ramcalc.exact import QQ, NumberField, Poly
from ramcalc.manifest import ChainManifest, ChainStep, render_chain, parse_chain, parse_point
from ramcalc.rmap import RationalMap, verify_chain


def P(coeffs):
    """A polynomial over Q: every map of a chain is defined over Q."""
    return Poly(QQ, coeffs)


def expand(roots_with_mult):
    """prod (z - r)^e as a Poly over Q."""
    out = P([1])
    for r, e in roots_with_mult:
        out = out * P([-r, 1]) ** e
    return out


def points(K, text):
    """The points of a space-separated manifest list, read in K."""
    return [parse_point(K, p) for p in text.split()]


def ram_points(K, text):
    """(point, index) pairs of a manifest `ram` list, read in K."""
    return [(parse_point(K, p), int(e)) for p, _, e in (item.rpartition(":") for item in text.split())]


def build_prop9():
    K = NumberField.cyclotomic_field(5)
    start = [(p, 2) for p in points(K, "1 t t^2 t^3 t^4 inf")]
    steps = []

    def mk(name, kind, num, den, ram, out):
        steps.append(ChainStep(
            name=name, kind=kind, map=RationalMap(P(num), P(den)),
            ram=ram_points(K, ram), out=points(K, out),
        ))

    mk("f2", "map", [1, 0, 1], [0, 1], "1:2 -1:2", "2 -2 t+t^4 t^2+t^3 inf")
    mk("f3", "auto", [-1], [0, 1], "", "-1/2 1/2 t^2+t^3 t+t^4 0")
    mk("f4", "map", [-1, 1, 1], [1], "-1/2:2 inf:2", "-5/4 -1/4 0 -1 inf")
    mk("f5", "auto", [0, -4], [1], "", "5 1 0 4 inf")
    mk("f6", "map", [25, -20, 4], [1], "5/2:2 inf:2", "25 9 0 inf")
    mk("f7", "map", [225, 30, 1], [0, 4], "15:2 -15:2", "16 inf 15 0")
    mk("f8", "auto", [0, 1], [-15, 1], "", "16 1 inf 0")
    num9 = expand([(1, 32), (16, 3)])
    den9 = expand([(10, 8), (0, 27)])
    steps.append(ChainStep(
        name="f9", kind="map", map=RationalMap(num9, den9),
        ram=ram_points(K, "0:27 1:32 10:8 16:3 inf:3"), out=points(K, "0 1 inf"),
    ))
    return ChainManifest(
        name="quintic-branch-collapse", field=K, start=start, steps=steps,
        bound=2 ** 10 * 3 ** 3, bound_primes=(2, 3),
    )


def build_prop12_like(name, h6_support, h6_exponents, bound, bound_primes):
    K = NumberField.cyclotomic_field(7)
    start = [(p, 2) for p in points(K, "1 t t^2 t^3 t^4 t^5 t^6 inf")]
    steps = []
    steps.append(ChainStep(
        name="h2", kind="map", map=RationalMap(P([1, 0, 1]), P([0, 1])),
        ram=ram_points(K, "1:2 -1:2"), out=points(K, "2 -2 t+t^6 t^2+t^5 t^3+t^4 inf"),
    ))
    # h3 moves each t^i + t^-i to (t^i + t^-i + 2) / (t^i + t^-i - 2)
    h3 = RationalMap(P([2, 1]), P([-2, 1]))
    steps.append(ChainStep(
        name="h3", kind="auto", map=h3,
        ram=[], out=[h3.eval(p) for p in points(K, "2 -2 t+t^6 t^2+t^5 t^3+t^4 inf")],
    ))
    steps.append(ChainStep(
        name="h4", kind="map", map=RationalMap(P([1, 21, 35, 7]), P([1])),
        ram=ram_points(K, "-1/3:2 -3:2 inf:3"), out=points(K, "0 1 64 -64/27 inf"),
    ))
    steps.append(ChainStep(
        name="h5", kind="auto", map=RationalMap(P([-256, 256]), P([-64, 1])),
        ram=[], out=points(K, "0 4 13 256 inf"),
    ))
    steps.append(ChainStep(
        name="h6", kind="belyi", support=tuple(h6_support), exponents=tuple(h6_exponents),
        out=points(K, "0 1 inf"),
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
