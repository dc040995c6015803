"""Cover profiles, Riemann-Hurwitz, compositum rule, diagram certificates."""

import random
from math import gcd

import pytest

from ramcalc.cover import (
    Arrow,
    CoverProfile,
    DiagramCertificate,
    Fiber,
    InconsistentProfile,
    ParamIndex,
    TRIVIAL_FIBER,
    compositum_profile,
    permutation_compositum_fiber,
    rh_genus,
    standard_projection_profile,
    verify_certificate,
)
from ramcalc.cover import _compose_ok, _divisibility_ok, _project_ok
from ramcalc.manifest import bundled_text, parse_cert


class TestRiemannHurwitz:
    def test_standard_projection_genus(self):
        for n in range(3, 13):
            g = rh_genus(standard_projection_profile(n))
            assert g == (n - 1) // 2

    def test_unramified_cover_of_line_rejected_only_if_inconsistent(self):
        # odd total branch contribution is impossible
        with pytest.raises(InconsistentProfile):
            rh_genus(CoverProfile(degree=2, fibers={"a": (2,)}))

    def test_elliptic_double_cover(self):
        p = CoverProfile(degree=2, fibers={k: (2,) for k in "abcd"})
        assert rh_genus(p) == 1

    def test_fiber_sums_checked(self):
        with pytest.raises(InconsistentProfile):
            CoverProfile(degree=3, fibers={"a": (2, 2)})


def random_fiber(rng, degree):
    """Random partition of `degree` as a cyclic-monodromy fiber."""
    parts = []
    left = degree
    while left:
        e = rng.randint(1, left)
        parts.append(e)
        left -= e
    return tuple(sorted(parts))


class TestCompositumRule:
    def test_reference_example(self):
        f = CoverProfile(degree=4, fibers={"z": (4,)})
        g = CoverProfile(degree=2, fibers={"z": (2,)})
        base, over_f, over_g = compositum_profile(f, g)
        assert base.fibers["z"] == (4, 4)
        assert base.degree == 8

    def test_matches_permutation_oracle_on_random_pairs(self):
        rng = random.Random(20260826)
        for _ in range(200):
            df = rng.randint(1, 6)
            dg = rng.randint(1, 6)
            fa = random_fiber(rng, df)
            gb = random_fiber(rng, dg)
            f = CoverProfile(degree=df, fibers={"z": fa})
            g = CoverProfile(degree=dg, fibers={"z": gb})
            base, _, _ = compositum_profile(f, g)
            assert base.fibers["z"] == permutation_compositum_fiber(fa, gb)


class TestParamIndex:
    def test_parse_and_render(self):
        for s in ("1", "4", "n", "8n"):
            assert str(ParamIndex.parse(s)) == s

    def test_instantiation(self):
        assert ParamIndex.parse("8n").at(3) == 24
        assert ParamIndex.parse("4").at(3) == 4

    def test_symbolic_divisibility(self):
        assert ParamIndex.parse("2").divides_symbolically(ParamIndex.parse("8n"))
        assert ParamIndex.parse("4n").divides_symbolically(ParamIndex.parse("8n"))
        assert not ParamIndex.parse("3").divides_symbolically(ParamIndex.parse("8n"))


def doubling_certificate():
    def PI(s):
        return ParamIndex.parse(s)

    def allf(s):
        return Fiber("all", (PI(s),))

    def exp(*ss):
        return Fiber("explicit", tuple(PI(s) for s in ss))

    f1 = Arrow("f1", "A", "P1", PI("8n"),
               {"0": exp("4n", "4n"), "1": exp("8n"), "inf": exp("8n")})
    F1 = Arrow("F1", "E", "P1", PI("16"),
               {"0": allf("4"), "1": allf("2"), "inf": allf("4")})
    f10 = Arrow("f10", "Ec", "E", None, {"T": allf("4n")})
    f6 = Arrow("f6", "E", "Q1", PI("2"),
               {"0": allf("2"), "1": allf("2"), "-1": allf("2"), "inf": allf("2")})
    f6f10 = Arrow("f6f10", "Ec", "Q1", None,
                  {"0": allf("8n"), "1": allf("8n"), "-1": allf("8n"), "inf": allf("8n")})
    F2 = Arrow("F2", "B", "Q1", PI("32n"),
               {"0": allf("4"), "1": allf("8n"), "inf": allf("4")})
    claims = [
        ("profile", f1, "given"),
        ("profile", F1, "given"),
        ("unramified", "u1", "f1", "F1"),
        ("project", f10, "f1", "F1", ["1"]),
        ("profile", f6, "given"),
        ("compose", f6f10, "f6", "f10"),
        ("profile", F2, "given"),
        ("unramified", "u2", "f6f10", "F2"),
        ("conclude", "A", "B"),
    ]
    return DiagramCertificate("test-doubling", ["A", "P1", "E", "Ec", "Q1", "B"], claims)


class TestCertificates:
    def test_valid_certificate_discharges(self):
        report = verify_certificate(doubling_certificate(), (1, 2, 3))
        assert report.passed
        assert "u1" in report.discharged_arrows and "u2" in report.discharged_arrows

    def test_tampered_compose_claim_fails(self):
        cert = doubling_certificate()
        bad_claims = []
        for c in cert.claims:
            if c[0] == "compose":
                arrow = c[1]
                wrong = Arrow(arrow.name, arrow.source, arrow.target, arrow.degree,
                              {k: Fiber("all", (ParamIndex.parse("4n"),))
                               for k in arrow.fibers})
                bad_claims.append(("compose", wrong, c[2], c[3]))
            else:
                bad_claims.append(c)
        bad = DiagramCertificate(cert.name, cert.nodes, bad_claims)
        report = verify_certificate(bad, (1, 2))
        assert not report.passed

    def test_assumptions_never_count_as_pass(self):
        cert = doubling_certificate()
        claims = [("assume", "extra", "an uncheckable geometric input")] + list(cert.claims)
        with_assume = DiagramCertificate(cert.name, cert.nodes, claims)
        report = verify_certificate(with_assume, (1,))
        assert report.passed
        assert ("extra", "an uncheckable geometric input") in report.assumptions
        statuses = {v.status for v in report.verdicts if v.kind == "assume"}
        assert statuses <= {"assumed"}

    def test_conclusion_is_derived(self):
        cert = doubling_certificate()
        (verdict,) = [v for v in verify_certificate(cert, (1, 2)).verdicts if v.kind == "conclude"]
        assert (verdict.subject, verdict.status, verdict.details) == ("A => B", "pass", [])
        # every node reached from A: the lies-over graph's closure
        for target in ("A", "P1", "E", "Ec", "Q1", "B"):
            claims = list(cert.claims[:-1]) + [("conclude", "A", target)]
            report = verify_certificate(DiagramCertificate(cert.name, cert.nodes, claims), (1,))
            assert report.verdicts[-1].status == "pass", target
        # nothing lies back over A
        for source in ("B", "Ec", "E", "P1"):
            claims = list(cert.claims[:-1]) + [("conclude", source, "A")]
            report = verify_certificate(DiagramCertificate(cert.name, cert.nodes, claims), (1,))
            assert report.verdicts[-1].status == "fail" and not report.passed, source

    def test_conclusion_needs_passing_claims(self):
        # an F2 fiber that f6f10 does not divide fails u2, which carried Ec => B
        cert = doubling_certificate()
        for claim in cert.claims:
            if claim[0] == "profile" and claim[1].name == "F2":
                claim[1].fibers["0"] = Fiber("all", (ParamIndex.parse("16n"),))
        report = verify_certificate(cert, (1, 2))
        statuses = {v.subject: v.status for v in report.verdicts}
        assert statuses["u2"] == "fail" and statuses["A => B"] == "fail"

    def test_project_without_unramified_pair_derives_nothing(self):
        cert = doubling_certificate()
        claims = [c for c in cert.claims if c[:2] != ("unramified", "u1")]
        report = verify_certificate(DiagramCertificate(cert.name, cert.nodes, claims), (1,))
        assert report.verdicts[-1].status == "fail"

    def test_conclusion_naming_undeclared_node_rejected(self):
        from ramcalc.cover import CertificateError

        cert = doubling_certificate()
        claims = list(cert.claims[:-1]) + [("conclude", "A", "Nowhere")]
        with pytest.raises(CertificateError, match="unknown nodes"):
            verify_certificate(DiagramCertificate(cert.name, cert.nodes, claims), (1,))

    def test_unramified_needs_a_common_target(self):
        cert = doubling_certificate()
        claims = list(cert.claims) + [("unramified", "u3", "f1", "F2")]
        report = verify_certificate(DiagramCertificate(cert.name, cert.nodes, claims), (1,))
        verdict = report.verdicts[-1]
        assert verdict.status == "fail" and verdict.details[0] == "f1 covers P1, F2 covers Q1"

    def test_unknown_arrow_reference_rejected(self):
        from ramcalc.cover import CertificateError

        cert = doubling_certificate()
        claims = list(cert.claims) + [("unramified", "u3", "nope", "F2")]
        bad = DiagramCertificate(cert.name, cert.nodes, claims)
        with pytest.raises(CertificateError):
            verify_certificate(bad, (1,))

    @pytest.mark.parametrize("arrow,label,fiber", [
        ("f1", "0", Fiber("explicit", (ParamIndex.parse("4n"), ParamIndex.parse("2n")))),
        ("f6", "-1", Fiber("all", (ParamIndex.parse("3"),))),
        ("F2", "0", Fiber("multiple", (ParamIndex.parse("64"),))),
    ])
    def test_given_profile_checked_against_degree(self, arrow, label, fiber):
        cert = doubling_certificate()
        for claim in cert.claims:
            if claim[0] == "profile" and claim[1].name == arrow:
                claim[1].fibers[label] = fiber
        report = verify_certificate(cert, (1, 2, 3))
        statuses = {v.subject: v.status for v in report.verdicts if v.kind == "profile"}
        assert statuses.pop(arrow) == "fail"
        assert set(statuses.values()) == {"pass"}

    def test_bundled_mutant_profile_fails(self):
        text = bundled_text("prop7a.cert")
        assert "fiber f6 -1 all 2\n" in text
        m = parse_cert(text.replace("fiber f6 -1 all 2\n", "fiber f6 -1 all 3\n"))
        report = verify_certificate(m.certificate, m.instances)
        (verdict,) = [v for v in report.verdicts if v.kind == "profile" and v.subject == "f6"]
        assert verdict.status == "fail"
        assert verdict.details == ["basis given"] + [
            f"over -1 at n={n}: index 3 does not divide degree 2" for n in (1, 2, 3, 6)
        ]


def random_claim_fiber(rng, forms=("explicit", "all", "divides", "multiple")):
    form = rng.choice(forms)
    k = rng.randint(1, 4) if form == "explicit" else 1
    return Fiber(form, tuple(ParamIndex(rng.randint(1, 12)) for _ in range(k)))


def possible_indices(fiber):
    """Every index a fiber claim allows at n = 1, multiples m*k for k <= 210."""
    vals = fiber.values_at(1)
    if fiber.form == "divides":
        return [d for d in range(1, vals[0] + 1) if vals[0] % d == 0]
    if fiber.form == "multiple":
        return [vals[0] * k for k in range(1, 211)]
    return list(vals)


def claim_holds(claimed, indices):
    (r,) = claimed.values_at(1)
    if claimed.form == "multiple":
        return all(e % r == 0 for e in indices)
    return set(indices) == {r}


class TestBoundsRules:
    """The (gcd, lcm) rules against brute force over every index each
    fiber claim allows: exact on unramified and multiple claims, sound
    on all claims."""

    TRIALS = 2000

    def test_unramified_is_exact(self):
        rng = random.Random(24)
        for _ in range(self.TRIALS):
            f, g = random_claim_fiber(rng), random_claim_fiber(rng)
            truth = all(a % b == 0 for a in possible_indices(f) for b in possible_indices(g))
            assert _divisibility_ok(f, g, 1)[0] == truth, (f, g)

    @pytest.mark.parametrize("rule", ["project", "compose"])
    def test_claims_against_brute_force(self, rule):
        rng = random.Random(f"{rule}-24")
        for _ in range(self.TRIALS):
            x, y = random_claim_fiber(rng), random_claim_fiber(rng)
            claimed = random_claim_fiber(rng, ("all", "multiple"))
            if rule == "project":
                ok = _project_ok(x, y, claimed, 1)[0]
                indices = {a // gcd(a, b) for a in possible_indices(x) for b in possible_indices(y)}
            else:
                ok = _compose_ok(x, y, claimed, 1)[0]
                indices = {a * b for a in possible_indices(x) for b in possible_indices(y)}
            truth = claim_holds(claimed, indices)
            if claimed.form == "multiple":
                assert ok == truth, (x, y, claimed)
            else:
                assert truth or not ok, (x, y, claimed)

    def test_rules_read_bounds_prime_by_prime(self):
        def fiber(form, *vals):
            return Fiber(form, tuple(ParamIndex(v) for v in vals))

        # a divides-4 fiber over an unlisted (index 1) g fiber
        assert _divisibility_ok(fiber("divides", 4), TRIVIAL_FIBER, 1) == (True, None)
        assert _divisibility_ok(fiber("explicit", 4, 6), fiber("divides", 2), 1) == (True, None)
        assert _divisibility_ok(TRIVIAL_FIBER, fiber("all", 2), 1) == (
            False, "lcm 2 of g-indices does not divide gcd 1 of f-indices")
        assert _divisibility_ok(fiber("all", 4), fiber("multiple", 2), 1) == (
            False, "lcm unbounded of g-indices does not divide gcd 4 of f-indices")
        # 6/gcd(6, b) for b | 4 is 3 or 6
        assert _project_ok(fiber("all", 6), fiber("divides", 4), fiber("multiple", 3), 1) == (True, None)
        assert _project_ok(fiber("all", 6), fiber("divides", 4), fiber("multiple", 6), 1) == (
            False, "index over g-source has gcd 3 and lcm 6, claimed multiple 6")
        assert _compose_ok(fiber("divides", 4), fiber("multiple", 3), fiber("multiple", 3), 1) == (True, None)
        assert _compose_ok(fiber("all", 2), fiber("multiple", 3), fiber("all", 6), 1) == (
            False, "composite index has gcd 6 and lcm unbounded, claimed all 6")
