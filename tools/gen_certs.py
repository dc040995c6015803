"""Generate the bundled diagram-certificate artifacts."""
import sys
sys.path.insert(0, "src")

from ramcalc.cover import Arrow, DiagramCertificate, Fiber, ParamIndex, verify_certificate
from ramcalc.manifest import CertificateManifest, render_cert, parse_cert

INSTANCES = (1, 2, 3, 6)


def PI(s):
    return ParamIndex.parse(s)


def allf(s):
    return Fiber("all", (PI(s),))


def exp(*ss):
    return Fiber("explicit", tuple(PI(s) for s in ss))


def div(s):
    return Fiber("divides", (PI(s),))


def mult(s):
    return Fiber("multiple", (PI(s),))


def build_prop7a():
    nodes = ["X8n", "P1", "E", "Ecomp", "P1q", "X16n"]
    f1 = Arrow("f1", "X8n", "P1", PI("8n"),
               {"0": exp("4n", "4n"), "1": exp("8n"), "inf": exp("8n")})
    F1 = Arrow("F1", "E", "P1", PI("16"),
               {"0": allf("4"), "1": allf("2"), "inf": allf("4")})
    f10 = Arrow("f10", "Ecomp", "E", None, {"E2": allf("4n")})
    f6 = Arrow("f6", "E", "P1q", PI("2"),
               {"0": allf("2"), "1": allf("2"), "-1": allf("2"), "inf": allf("2")})
    f6f10 = Arrow("f6f10", "Ecomp", "P1q", None,
                  {"0": allf("8n"), "1": allf("8n"), "-1": allf("8n"), "inf": allf("8n")})
    F2 = Arrow("F2", "X16n", "P1q", PI("32n"),
               {"0": allf("4"), "1": allf("8n"), "inf": allf("4")})
    claims = [
        ("profile", f1, "given"),
        ("profile", F1, "assume:isogeny-square-profile"),
        ("unramified", "f9", "f1", "F1"),
        ("project", f10, "f1", "F1", ["1"]),
        ("assume", "two-torsion-in-unit-fiber",
         "the full 2-torsion of E sits inside the fiber of F1 over 1"),
        ("profile", f6, "given"),
        ("compose", f6f10, "f6", "f10"),
        ("profile", F2, "given"),
        ("unramified", "f13", "f6f10", "F2"),
        ("conclude", "X8n", "X16n"),
    ]
    cert = DiagramCertificate("torsion-level-doubling", nodes, claims)
    return CertificateManifest(cert, "n", INSTANCES, [f1, F1, f10, f6, f6f10, F2])


def build_prop7b():
    nodes = ["X16n", "P1", "E", "Ecomp", "P1q", "C3", "Ccomp", "P1r", "X24n"]
    f1 = Arrow("f1", "X16n", "P1", PI("16n"),
               {"0": exp("8n", "8n"), "1": exp("16n"), "inf": exp("16n")})
    F1 = Arrow("F1", "E", "P1", PI("36"),
               {"0": allf("4"), "1": allf("2"), "inf": allf("4")})
    f10 = Arrow("f10", "Ecomp", "E", None, {"E3": allf("8n")})
    f6 = Arrow("f6", "E", "P1q", PI("2"),
               {"a": allf("2"), "b": allf("2"), "c": allf("2"), "d": allf("2")})
    f6f10 = Arrow("f6f10", "Ecomp", "P1q", None,
                  {"a": allf("16n"), "one": allf("8n"), "z3a": allf("8n"),
                   "z3b": allf("8n"), "inf": allf("8n")})
    f7 = Arrow("f7", "C3", "P1q", PI("18"),
               {"one": allf("2"), "z3a": allf("2"), "z3b": allf("2"), "inf": allf("2")})
    f11 = Arrow("f11", "Ccomp", "C3", None, {"C3tor": allf("4n")})
    f8 = Arrow("f8", "C3", "P1r", PI("3"),
               {"0": allf("3"), "1": allf("3"), "inf": allf("3")})
    f8f11 = Arrow("f8f11", "Ccomp", "P1r", None,
                  {"0": allf("12n"), "1": allf("12n"), "inf": allf("12n")})
    f13 = Arrow("f13", "X24n", "P1r", PI("48n"),
               {"0": allf("4"), "1": allf("12n"), "inf": allf("4")})
    claims = [
        ("profile", f1, "given"),
        ("profile", F1, "assume:isogeny-square-profile"),
        ("unramified", "f9", "f1", "F1"),
        ("project", f10, "f1", "F1", ["1"]),
        ("assume", "three-torsion-in-unit-fiber",
         "the full 3-torsion of E sits inside the fiber of F1 over 1"),
        ("profile", f6, "assume:double-cover-branch-set"),
        ("assume", "torsion-images-on-branch-set",
         "the double cover sends the 3-torsion onto one marked point and the cube-root set"),
        ("compose", f6f10, "f6", "f10"),
        ("profile", f7, "given"),
        ("unramified", "f12", "f6f10", "f7"),
        ("project", f11, "f6f10", "f7", ["one", "z3a", "z3b", "inf"]),
        ("assume", "cube-torsion-preimage",
         "the relevant torsion of C3 lies over the cube-root branch set"),
        ("profile", f8, "given"),
        ("compose", f8f11, "f8", "f11"),
        ("profile", f13, "given"),
        ("unramified", "f14", "f8f11", "f13"),
        ("conclude", "X16n", "X24n"),
    ]
    cert = DiagramCertificate("torsion-level-three-halves", nodes, claims)
    return CertificateManifest(
        cert, "n", INSTANCES, [f1, F1, f10, f6, f6f10, f7, f11, f8, f8f11, f13]
    )


def build_big_drop(name, nodes_tag, c_bound, prime_deg, src_label, tgt_label):
    """Shared shape: big smooth level down to a prime multiple."""
    two_c = 2 * c_bound
    nodes = [src_label, "P1", "Cp", "Comp1", "P1r", tgt_label]
    f1 = Arrow("f1", src_label, "P1", PI(f"{two_c}n"),
               {"0": exp(f"{two_c}n"), "1": exp(f"{two_c}n"),
                "inf": exp(f"{c_bound}n", f"{c_bound}n")})
    f2 = Arrow("f2", "Cp", "P1", None,
               {"0": div(str(c_bound)), "1": div(str(c_bound)), "inf": div(str(c_bound))})
    f6 = Arrow("f6", "Comp1", "Cp", None, {"fib": mult("n")})
    f3 = Arrow("f3", "Cp", "P1r", PI(str(prime_deg)),
               {"0": allf(str(prime_deg)), "1": allf(str(prime_deg)), "inf": allf(str(prime_deg))})
    f3f6 = Arrow("f3f6", "Comp1", "P1r", None,
                 {"0": mult(f"{prime_deg}n"), "1": mult(f"{prime_deg}n"),
                  "inf": mult(f"{prime_deg}n")})
    f4 = Arrow("f4", tgt_label, "P1r", PI(f"{prime_deg}n"),
               {"0": allf(f"{prime_deg}n"), "1": allf(f"{prime_deg}n"),
                "inf": allf(f"{prime_deg}n")})
    claims = [
        ("profile", f1, "given"),
        ("profile", f2, "given"),
        ("unramified", "f5", "f1", "f2"),
        ("project", f6, "f1", "f2", ["0", "1", "inf"]),
        ("profile", f3, "given"),
        ("compose", f3f6, "f3", "f6"),
        ("profile", f4, "given"),
        ("unramified", "f8", "f3f6", "f4"),
        ("conclude", src_label, tgt_label),
    ]
    cert = DiagramCertificate(name, nodes, claims)
    return CertificateManifest(cert, "n", INSTANCES, [f1, f2, f6, f3, f3f6, f4])


def build_prop6():
    nodes = ["H", "P1", "Esq", "Hcomp", "P1q", "X8"]
    g4 = Arrow("g4", "H", "P1", PI("2"),
               {"p1": allf("2"), "p2": allf("2"), "p3": allf("2"),
                "p4": allf("2"), "p5": allf("2"), "p6": allf("2")})
    g5 = Arrow("g5", "Esq", "P1", PI("8"),
               {"p1": allf("2"), "p2": allf("2"), "p3": allf("2"), "p4": allf("2")})
    g3 = Arrow("g3", "Hcomp", "Esq", None, {"E2": allf("2")})
    g8 = Arrow("g8", "Esq", "P1q", PI("2"),
               {"0": allf("2"), "1": allf("2"), "inf": allf("2")})
    g8g3 = Arrow("g8g3", "Hcomp", "P1q", None,
                 {"0": allf("4"), "1": allf("4"), "inf": allf("4")})
    g6 = Arrow("g6", "X8", "P1q", PI("16"),
               {"0": allf("4"), "1": allf("4"), "inf": allf("4")})
    claims = [
        ("profile", g4, "given"),
        ("assume", "six-branch-normalization",
         "four of the branch points are normalized onto the square-cover branch set"),
        ("profile", g5, "assume:elliptic-square-cover"),
        ("unramified", "c1", "g4", "g5"),
        ("project", g3, "g4", "g5", ["p5"]),
        ("assume", "residual-branch-in-torsion-fiber",
         "the residual branch point lies in a full unramified fiber of the square cover"),
        ("profile", g8, "assume:quotient-double-cover"),
        ("compose", g8g3, "g8", "g3"),
        ("profile", g6, "given"),
        ("unramified", "c2", "g8g3", "g6"),
        ("conclude", "H", "X8"),
    ]
    cert = DiagramCertificate("hyperelliptic-to-level-eight", nodes, claims)
    return CertificateManifest(cert, "n", INSTANCES, [g4, g5, g3, g8, g8g3, g6])


def build_thm30():
    nodes = ["E1", "E1cov", "P1q", "E1cov2", "P1r", "Xm"]
    # O is the origin of E1: f3 and the multiplication map f2m both
    # cover E1, so their compositum is taken over E1
    f3 = Arrow("f3", "E1", "E1", None, {"O": mult("2n")})
    f2m = Arrow("f2m", "E1", "E1", None, {})
    f4 = Arrow("f4", "E1cov", "E1", None, {"O": mult("2n")})
    f5 = Arrow("f5", "E1", "P1q", PI("2"),
               {"q1": div("2"), "q2": div("2"), "q3": div("2"), "q4": div("2")})
    f5f4 = Arrow("f5f4", "E1cov", "P1q", None,
                 {"q1": mult("2n"), "q2": mult("2n"), "q3": mult("2n"), "q4": mult("2n")})
    f6 = Arrow("f6", "E1", "P1q", PI("2"),
               {"q1": allf("2"), "q2": allf("2"), "q3": allf("2"), "q4": allf("2")})
    f10 = Arrow("f10", "E1cov2", "E1", None, {"T2": mult("n")})
    f7m = Arrow("f7m", "E1", "E1", None, {})
    f12 = Arrow("f12", "E1cov2", "E1", None, {"T2": mult("n")})
    f8 = Arrow("f8", "E1", "P1r", PI("2"),
               {"s1": div("2"), "s2": div("2"), "s3": div("2")})
    f8f12 = Arrow("f8f12", "E1cov2", "P1r", None,
                  {"s1": mult("n"), "s2": mult("n"), "s3": mult("n")})
    f15 = Arrow("f15", "Xm", "P1r", None,
                {"s1": div("n"), "s2": div("n"), "s3": div("n")})
    claims = [
        ("profile", f3, "assume:origin-ramification-bound"),
        ("profile", f2m, "assume:multiplication-map-unramified"),
        ("unramified", "f1", "f3", "f2m"),
        ("project", f4, "f3", "f2m", ["O"]),
        ("assume", "origin-preimage-torsion",
         "the multiplication preimage of the origin is the relevant torsion subgroup"),
        ("profile", f5, "assume:quotient-branch-bound"),
        ("compose", f5f4, "f5", "f4"),
        ("profile", f6, "given"),
        ("unramified", "f9", "f5f4", "f6"),
        ("project", f10, "f5f4", "f6", ["q1", "q2", "q3", "q4"]),
        ("profile", f7m, "assume:multiplication-map-unramified-second"),
        ("unramified", "f11", "f10", "f7m"),
        ("project", f12, "f10", "f7m", ["T2"]),
        ("profile", f8, "assume:quotient-branch-bound-second"),
        ("compose", f8f12, "f8", "f12"),
        ("profile", f15, "assume:target-branch-divisibility"),
        ("unramified", "f13", "f8f12", "f15"),
        ("conclude", "E1", "Xm"),
    ]
    cert = DiagramCertificate("isogeny-tower-transfer", nodes, claims)
    return CertificateManifest(
        cert, "n", INSTANCES, [f3, f2m, f4, f5, f5f4, f6, f10, f7m, f12, f8, f8f12, f15]
    )


def build_thm32():
    nodes = ["X12n", "P1", "Y6", "Comp"]
    f1 = Arrow("f1", "X12n", "P1", PI("12n"),
               {"0": exp("12n"), "1": exp("12n"), "inf": exp("6n", "6n")})
    f4 = Arrow("f4", "Y6", "P1", None,
               {"0": div("6"), "1": div("6"), "inf": div("6")})
    f3 = Arrow("f3", "Comp", "Y6", None, {"fib": mult("2n")})
    claims = [
        ("profile", f1, "given"),
        ("profile", f4, "assume:modular-quotient-bound"),
        ("unramified", "f2", "f1", "f4"),
        ("project", f3, "f1", "f4", ["0"]),
        ("conclude", "X12n", "Y6"),
    ]
    cert = DiagramCertificate("level-six-descent", nodes, claims)
    return CertificateManifest(cert, "n", INSTANCES, [f1, f4, f3])


def emit(manifest, path):
    text = render_cert(manifest)
    parsed = parse_cert(text)
    assert render_cert(parsed) == text, f"round-trip failure for {path}"
    report = verify_certificate(parsed.certificate, parsed.instances)
    fails = [v for v in report.verdicts if v.status == "fail"]
    for v in fails:
        print("  FAIL", v.kind, v.subject, v.details)
    assert report.passed, path
    print(f"  assumptions: {[t for t, _ in report.assumptions]}")
    with open(path, "w") as f:
        f.write(text)
    print(f"wrote {path}")


if __name__ == "__main__":
    emit(build_prop7a(), "src/ramcalc/data/prop7a.cert")
    emit(build_prop7b(), "src/ramcalc/data/prop7b.cert")
    emit(build_big_drop("smooth-level-to-five", "five", 2 ** 10 * 3 ** 3, 5, "Xbig5", "X5n"),
         "src/ramcalc/data/prop10.cert")
    emit(build_big_drop("smooth-level-to-seven", "seven",
                        2 ** 15 * 3 ** 10 * 5 ** 4 * 13, 7, "Xbig7", "X7n"),
         "src/ramcalc/data/prop13.cert")
    emit(build_prop6(), "src/ramcalc/data/prop6.cert")
    emit(build_thm30(), "src/ramcalc/data/thm30.cert")
    emit(build_thm32(), "src/ramcalc/data/thm32.cert")
