"""Self-maps of the line: local indices, ramification, chain verification."""

from fractions import Fraction

import pytest

from ramcalc.exact import QQ, NumberField, Poly
from ramcalc.manifest import load_bundled_chain, parse_chain, render_chain
from ramcalc.rmap import (
    INF,
    IncompletenessGap,
    IndexMismatch,
    RamPoint,
    RationalMap,
    verify_chain,
)


def rmap(num, den=(1,)):
    return RationalMap(Poly(QQ, list(num)), Poly(QQ, list(den)))


class TestLocalIndex:
    def test_squaring_map(self):
        f = rmap([0, 0, 1])
        assert f.local_index(0) == 2
        assert f.local_index(1) == 1
        assert f.local_index(INF) == 2

    def test_pole_index(self):
        f = rmap([1], [0, 0, 1])  # 1/z^2
        assert f.local_index(0) == 2
        assert f.local_index(INF) == 2

    def test_joukowski_type(self):
        f = rmap([1, 0, 1], [0, 1])  # (z^2+1)/z
        assert f.local_index(1) == 2
        assert f.local_index(-1) == 2
        assert f.local_index(2) == 1
        assert f.local_index(INF) == 1

    def test_degree_and_compose(self):
        f = rmap([0, 0, 1])
        g = rmap([1, 0, 1], [0, 1])
        assert f.degree == 2 and g.degree == 2


class TestRamDivisor:
    def test_accepts_correct_divisor(self):
        f = rmap([1, 0, 1], [0, 1])
        claimed = [RamPoint(Fraction(1), 2), RamPoint(Fraction(-1), 2)]
        assert f.ram_divisor(claimed) == claimed

    def test_rejects_wrong_index(self):
        f = rmap([1, 0, 1], [0, 1])
        with pytest.raises(IndexMismatch):
            f.ram_divisor([RamPoint(Fraction(1), 3), RamPoint(Fraction(-1), 2)])

    def test_rejects_incomplete_divisor(self):
        f = rmap([1, 0, 1], [0, 1])
        with pytest.raises(IncompletenessGap):
            f.ram_divisor([RamPoint(Fraction(1), 2)])


class TestChainVerification:
    def test_bundled_chain_passes(self):
        report = verify_chain(load_bundled_chain("prop9.chain"))
        assert report.passed
        assert all(s.status == "pass" for s in report.steps)
        assert report.bound_ok

    def test_tampered_index_fails_with_mismatch(self):
        text = render_chain(load_bundled_chain("prop9.chain"))
        assert "1:32" in text
        bad = parse_chain(text.replace("1:32", "1:31"))
        report = verify_chain(bad)
        assert not report.passed
        failing = [s for s in report.steps if s.status == "fail"]
        assert failing and any("claimed 31" in d and "actual 32" in d
                               for s in failing for d in s.details)

    def test_wrong_claimed_output_is_erratum(self):
        text = render_chain(load_bundled_chain("prop9.chain"))
        # claim 17 instead of 16 in the f7 output list
        bad = parse_chain(text.replace("out 16 inf 15 0", "out 17 inf 15 0"))
        report = verify_chain(bad)
        assert not report.passed
        assert any(s.erratum for s in report.steps)

    def test_composite_indices_multiply_along_orbits(self):
        K = NumberField.cyclotomic_field(5)
        report = verify_chain(load_bundled_chain("prop9.chain"))
        assert all(i > 1 for i in report.composite_indices)
        # every composite index divides the recorded bound
        assert all(report.bound % i == 0 for i in report.composite_indices)
