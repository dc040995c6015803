"""Versioned text formats and the bundled artifacts."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcalc.cover import verify_certificate
from ramcalc.exact import NumberField, Poly, QQ
from ramcalc.manifest import (
    MAX_DEGREE,
    ManifestError,
    bundled_text,
    parse_cert,
    parse_chain,
    parse_point,
    parse_poly,
    render_cert,
    render_chain,
)
from ramcalc.rmap import INF, verify_chain

CHAIN_FILES = ["prop9.chain", "prop12.chain", "prop14.chain"]
CERT_FILES = [
    "prop6.cert",
    "prop7a.cert",
    "prop7b.cert",
    "prop10.cert",
    "prop13.cert",
    "thm30.cert",
    "thm32.cert",
]


class TestPointExpressions:
    def test_rational_round_trip(self):
        for s in ("0", "1", "-5", "3/2", "-7/4", "inf"):
            assert str(parse_point(QQ, s)) == s

    def test_cyclotomic_round_trip(self):
        K = NumberField.cyclotomic_field(5)
        for s in ("t", "t^2", "-1-t^2-t^3", "1/2", "t+t^4"):
            p = parse_point(K, s)
            assert parse_point(K, str(p)) == p

    def test_arithmetic_in_expressions(self):
        # a point is a polynomial in t over Q, reduced once mod Phi_n:
        # sums, products, powers and division by nonzero constants
        K = NumberField.cyclotomic_field(7)
        assert parse_point(K, "(t+2)*(t-2)/3") == parse_point(K, "-4/3+t^2/3")
        assert parse_point(K, "(t^4)^2") == parse_point(K, "t")
        assert parse_point(K, "t*(t^6+1)-t") == 1
        for text, message in (("(t+2)/(t-2)", "division by a polynomial"),
                              ("1/(t-t)", "division by zero"),
                              ("(t^8)^9", f"exponent or degree above {MAX_DEGREE}"),
                              ("t^40*t^25", f"degree above {MAX_DEGREE}")):
            with pytest.raises(ManifestError, match=re.escape(message)):
                parse_point(K, text)

    def test_infinity(self):
        assert parse_point(QQ, "inf") is INF

    def test_malformed_rejected(self):
        with pytest.raises(ManifestError):
            parse_point(QQ, "3 +")
        with pytest.raises(ManifestError):
            parse_point(QQ, "")


def _space(draw):
    return draw(st.sampled_from(["", " "]))


@st.composite
def _constants(draw, nonzero=False):
    a = draw(st.integers(1 if nonzero else 0, 40))
    if draw(st.booleans()):
        return str(a)
    return f"{a}.{draw(st.integers(0, 99))}"


@st.composite
def _poly_exprs(draw, depth=3):
    """(text, bound on the degree of every subexpression)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return ("z", 1) if draw(st.booleans()) else (draw(_constants()), 0)
    kind = draw(st.sampled_from(["+", "-", "*", "/", "^", "**", "neg", "()"]))
    a, da = draw(_poly_exprs(depth - 1))
    sp = _space(draw)
    if kind in ("+", "-", "*"):
        b, db = draw(_poly_exprs(depth - 1))
        return f"({a}){sp}{kind}{sp}({b})", (da + db if kind == "*" else max(da, db))
    if kind == "/":
        return f"({a}){sp}/{sp}{draw(_constants(nonzero=True))}", da
    if kind in ("^", "**"):
        k = draw(st.integers(0, 3))
        return f"({a}){sp}{kind}{sp}{k}", da * k
    if kind == "neg":
        return f"-{sp}({a})", da
    return f"({sp}{a}{sp})", da


class TestPolyExpressions:
    @given(_poly_exprs().filter(lambda e: e[1] <= MAX_DEGREE))
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, expr):
        # sympy, which evaluates its input as Python, is the reference
        import sympy

        text, _ = expr
        z = sympy.Symbol("z")
        ref = sympy.Poly(sympy.sympify(text, locals={"z": z}, rational=True), z, domain="QQ")
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(ref.all_coeffs())]
        assert parse_poly(text) == Poly(QQ, coeffs)

    @pytest.mark.parametrize("text, coeffs", [
        ("z**3-2", [-2, 0, 0, 1]),
        ("0.5*z^2-1", [-1, 0, Fraction(1, 2)]),
        ("2*z^3-4", [-4, 0, 0, 2]),
        ("(z-1)*(z+2)^2", [-4, 0, 3, 1]),
        (" z/4 + 1/3 ", [Fraction(1, 3), Fraction(1, 4)]),
        ("z^64", [0] * 64 + [1]),
    ])
    def test_examples(self, text, coeffs):
        assert parse_poly(text) == Poly(QQ, coeffs)

    @pytest.mark.parametrize("text", [
        "1/(z-1)", "z/0", "x^2-2", "2z", "z^-1", "z^2.5", "z^65", "(z^8)^9",
        "z^40*z^25", "__import__('os').getcwd() or z",
    ])
    def test_rejected(self, text):
        with pytest.raises(ManifestError):
            parse_poly(text)


class TestBundledChains:
    @pytest.mark.parametrize("name", CHAIN_FILES)
    def test_round_trip_is_byte_identity(self, name):
        text = bundled_text(name)
        assert render_chain(parse_chain(text)) == text

    @pytest.mark.parametrize("name", CHAIN_FILES)
    def test_verifies(self, name):
        report = verify_chain(parse_chain(bundled_text(name)))
        assert report.passed
        assert report.bound_ok

    def test_step_outputs_feed_next_step(self):
        m = parse_chain(bundled_text("prop9.chain"))
        # the verifier re-derives each output set; a passing report means
        # every claimed handoff matched, so here we just check the shape
        assert [s.name for s in m.steps] == [f"f{i}" for i in range(2, 10)]

    def test_missing_header_rejected(self):
        with pytest.raises(ManifestError):
            parse_chain("not a manifest\n")

    def test_garbled_body_rejected(self):
        text = bundled_text("prop9.chain")
        with pytest.raises(ManifestError):
            parse_chain(text.replace("step f2 map", "step f2 sideways"))

    def test_belyi_support_of_32_points_parses(self):
        support = " ".join(map(str, range(32)))
        m = parse_chain("ramcalc-chain 1\nname wide\nfield rational\nstart 0:2\n"
                        f"step b belyi\nsupport {support}\nexponents {' '.join(['1'] * 32)}\n")
        assert len(m.steps[0].support) == 32

    @pytest.mark.parametrize(
        "edit",
        [
            # num, den, ram and out lines before any step line
            lambda text: text.replace("step h2 map\n", ""),
            # steps without a field
            lambda text: "\n".join(
                ln for ln in text.splitlines() if not ln.startswith(("field", "start"))
            ),
            lambda text: text.replace("den 0 1\n", "den inf\n"),
            lambda text: text.replace("support 0 6", "support 1/0 6"),
            # maps are over Q, even in a cyclotomic chain
            lambda text: text.replace("num 1 0 1\n", "num t 1\n"),
        ],
        ids=["outside-step", "no-field", "inf-coefficient", "zero-denominator",
             "irrational-coefficient"],
    )
    def test_misplaced_or_bad_lines_rejected(self, edit):
        text = bundled_text("prop12.chain")
        assert edit(text) != text
        with pytest.raises(ManifestError):
            parse_chain(edit(text))


class TestBundledCertificates:
    @pytest.mark.parametrize("name", CERT_FILES)
    def test_round_trip_is_byte_identity(self, name):
        text = bundled_text(name)
        assert render_cert(parse_cert(text)) == text

    @pytest.mark.parametrize("name", CERT_FILES)
    def test_discharges_at_bundled_instances(self, name):
        m = parse_cert(bundled_text(name))
        report = verify_certificate(m.certificate, m.instances)
        assert report.passed

    def test_instances_cover_required_values(self):
        for name in CERT_FILES:
            assert set(parse_cert(bundled_text(name)).instances) >= {1, 2, 3, 6}

    def test_missing_header_rejected(self):
        with pytest.raises(ManifestError):
            parse_cert("ramcalc-chain 1\n")
