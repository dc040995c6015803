"""Four-point product-form maps branched over {0, 1, infinity}."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcalc.belyi import (
    BelyiTuple,
    DegenerateSupport,
    NotBelyiForm,
    search_smooth_tuples,
    vandermonde_exponents,
    verify_belyi,
)
from ramcalc.exact import Poly, factor_over_primes, is_smooth
from ramcalc.manifest import bundled_text, parse_chain

from helpers import dlog_numerator


def minor_exponents(support):
    """Reference: r_i = (-1)^i V(n without n_i), each minor a product of
    Fraction differences, cleared of denominators, divided by the
    content and sign-normalized."""
    pts = [Fraction(n) for n in support]
    raw = []
    for i in range(len(pts)):
        rest = pts[:i] + pts[i + 1:]
        v = Fraction(1)
        for a in range(len(rest)):
            for b in range(a + 1, len(rest)):
                v *= rest[b] - rest[a]
        raw.append(v if i % 2 == 0 else -v)
    den = lcm(*(v.denominator for v in raw))
    ints = [int(v * den) for v in raw]
    g = gcd(*ints)
    sign = 1 if ints[0] > 0 else -1
    return tuple(sign * v // g for v in ints)


@lru_cache(maxsize=None)
def minor_table(k, box):
    """The normalized supports in lexicographic order, each with its
    minor exponents."""
    return [((0,) + rest, minor_exponents((0,) + rest))
            for rest in combinations(range(1, box + 1), k - 1) if gcd(*rest) == 1]


def minor_search(k, primes, box):
    """Reference box search: the normalized supports kept when every
    minor exponent is smooth."""
    return [(sup, exps) for sup, exps in minor_table(k, box)
            if all(is_smooth(r, primes) for r in exps)]


class TestVandermondeExponents:
    def test_reference_support(self):
        assert vandermonde_exponents((0, 1, 5, 6)) == (2, -3, 3, -2)

    def test_exponents_sum_to_zero(self):
        for sup in [(0, 1, 5, 6), (0, 2, 3, 7), (0, 1, 2, 4, 7)]:
            assert sum(vandermonde_exponents(sup)) == 0

    def test_degenerate_support_rejected(self):
        with pytest.raises(DegenerateSupport):
            vandermonde_exponents((0, 1, 1, 5))

    def test_matches_minor_formula_on_rational_supports(self):
        rng = random.Random(3)
        for k in range(3, 8):
            for _ in range(300):
                sup = set()
                while len(sup) < k:
                    sup.add(Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
                sup = rng.sample(sorted(sup), k)
                assert vandermonde_exponents(sup) == minor_exponents(sup), sup

    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=4, max_size=4,
                    unique=True))
    @settings(max_examples=60, deadline=None)
    def test_resulting_tuple_verifies(self, sup):
        exps = vandermonde_exponents(tuple(sup))
        t = BelyiTuple(tuple(sup), exps)
        assert verify_belyi(t) != 0


class TestVerifyBelyi:
    def test_reference_tuple(self):
        t = BelyiTuple((0, 1, 5, 6), (2, -3, 3, -2))
        assert t.degree == 5
        assert verify_belyi(t) == -60

    def test_dlog_numerator_constant_iff_belyi(self):
        good = BelyiTuple((0, 1, 5, 6), (2, -3, 3, -2))
        assert dlog_numerator(good).degree == 0
        bad = BelyiTuple((0, 1, 2, 3), (1, 1, -1, -1))
        assert dlog_numerator(bad).degree > 0
        with pytest.raises(NotBelyiForm):
            verify_belyi(bad)

    def test_nonzero_sum_rejected(self):
        with pytest.raises(NotBelyiForm):
            verify_belyi(BelyiTuple((0, 1, 5, 6), (2, -3, 3, -1)))


def expanded_verdict(t):
    """The verdict read off the expanded dlog numerator: its constant,
    or the NotBelyiForm text."""
    if sum(t.exponents) != 0:
        return f"exponents sum to {sum(t.exponents)}, not zero"
    n = dlog_numerator(t)
    if n.degree > 0:
        return f"dlog numerator is not constant (degree {n.degree})"
    if n.is_zero():
        return "dlog numerator vanishes identically"
    return n.coeffs[0]


def power_sum_verdict(t):
    try:
        return verify_belyi(t)
    except NotBelyiForm as exc:
        return str(exc)


def tuple_of_degree(points, d, rng):
    """A zero-sum tuple on the points whose dlog numerator has degree d
    (0 <= d <= k - 2): a combination of Vandermonde vectors of windows
    of k - d points, each with p_0 = ... = p_(k-d-2) = 0 and
    p_(k-d-1) != 0, redrawn until no exponent is zero and the expanded
    numerator has degree d."""
    k = len(points)
    n = k - d
    while True:
        exps = [0] * k
        for start in range(0, k, n - 1):
            idx = [(start + i) % k for i in range(n)]
            c = rng.choice([-1, 1]) * rng.randint(1, 5)
            for i, r in zip(idx, vandermonde_exponents([points[i] for i in idx])):
                exps[i] += c * r
        if all(exps):
            t = BelyiTuple(points, exps)
            if dlog_numerator(t).degree == d:
                return t


class TestPowerSumRule:
    def seeded_tuples(self):
        """Tuples for k = 0..12 on negative and fractional supports, with
        exponents of both signs: random ones, which mostly fail on their
        sum, and zero-sum ones of each numerator degree 0..k - 2."""
        rng = random.Random(25)
        for k in range(13):
            for rep in range(20):
                sup = set()
                while len(sup) < k:
                    sup.add(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
                sup = rng.sample(sorted(sup), k)
                yield BelyiTuple(sup, [rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(k)])
                if rep < 3:
                    for d in range(k - 1):
                        yield tuple_of_degree(sup, d, rng)

    def test_matches_expanded_numerator(self):
        kinds = {k: set() for k in range(13)}
        for t in self.seeded_tuples():
            want = expanded_verdict(t)
            assert power_sum_verdict(t) == want, (t.support, t.exponents)
            if not isinstance(want, str):
                want = "constant"
            elif want.startswith("exponents sum to"):
                want = "sum"
            kinds[t.k].add(want)
        assert kinds[0] == {"dlog numerator vanishes identically"}
        assert kinds[1] == {"sum"}
        for k in range(2, 13):
            assert kinds[k] == {"sum", "constant"} | {
                f"dlog numerator is not constant (degree {d})" for d in range(1, k - 1)}

    def test_decides_without_polynomial_arithmetic(self, monkeypatch):
        h6 = next(s for s in parse_chain(bundled_text("prop12.chain")).steps if s.kind == "belyi")
        squares = [i * i for i in range(32)]
        tuples = [BelyiTuple(h6.support, h6.exponents),
                  BelyiTuple(squares, vandermonde_exponents(squares))]
        want = [verify_belyi(t) for t in tuples]

        def refuse(*args):
            raise AssertionError("a polynomial was built")
        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(Poly, "__add__", refuse)
        assert [verify_belyi(t) for t in tuples] == want
        assert all(w != 0 for w in want)


class TestFactorizationsAndHyperplane:
    def test_exponent_factorizations(self):
        t = BelyiTuple((0, 1, 5, 6), (2, -3, 3, -2))
        facs = [factor_over_primes(r, (2, 3)) for r in t.exponents]
        assert facs == [{2: 1}, {3: 1}, {3: 1}, {2: 1}]

    def test_nonsmooth_exponent_gives_none(self):
        t = BelyiTuple((0, 1, 6, 7), vandermonde_exponents((0, 1, 6, 7)))
        facs = [factor_over_primes(r, (2, 3)) for r in t.exponents]
        assert any(f is None for f in facs)


class TestSearch:
    def test_box_search_finds_reference(self):
        found = search_smooth_tuples(4, (2, 3), 10)
        supports = {t.support for t in found}
        assert (0, 1, 5, 6) in supports

    @pytest.mark.parametrize("k,primes,box", [(4, (2, 3), 30), (5, (2, 3, 5), 20)])
    def test_bench_boxes_match_minor_search(self, k, primes, box):
        found = [(t.support, t.exponents) for t in search_smooth_tuples(k, primes, box)]
        assert found == minor_search(k, primes, box)

    @pytest.mark.parametrize("k,box", [(k, box) for k in range(3, 8)
                                       for box in (8, 12, 16) if k < 7 or box <= 12])
    def test_grid_matches_minor_search(self, k, box):
        # prime sets without 2, and sets whose rough parts (what is left
        # of a difference after the listed primes are divided out) are
        # not all 1 inside the box
        for primes in [(), (2,), (2, 3), (3, 5), (2, 3, 5, 7), (5, 7, 11)]:
            found = [(t.support, t.exponents) for t in search_smooth_tuples(k, primes, box)]
            assert found == minor_search(k, primes, box), primes

    @pytest.mark.parametrize("primes", [(4,), (1,), (2, 9)])
    def test_non_prime_entry_refused(self, primes):
        with pytest.raises(ValueError):
            search_smooth_tuples(4, primes, 10)

    def test_all_results_verify(self):
        for t in search_smooth_tuples(4, (2, 3), 10):
            assert verify_belyi(t) != 0
