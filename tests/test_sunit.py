"""Smooth-number enumeration and unit-equation solving, against brute force."""

from math import gcd

import pytest

from ramcalc import sunit
from ramcalc.sunit import (
    prop24_pairs,
    smooth_enum,
    thm26_family,
    unit_equation_solutions,
)


def naive_smooth(n, primes):
    """Independent per-number route: repeated division."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


class TestSmoothEnum:
    def test_small_case(self):
        s = smooth_enum((2, 3), 20)
        assert s.values == (1, 2, 3, 4, 6, 8, 9, 12, 16, 18)

    def test_matches_naive_route(self):
        s = smooth_enum((2, 3, 5), 2000)
        expected = tuple(n for n in range(1, 2001) if naive_smooth(n, (2, 3, 5)))
        assert s.values == expected

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            smooth_enum((), 10)
        with pytest.raises(ValueError):
            smooth_enum((2,), 0)

    @pytest.mark.parametrize("search", [smooth_enum, unit_equation_solutions, prop24_pairs,
                                        thm26_family])
    def test_composite_in_the_prime_list_refused(self, search):
        with pytest.raises(ValueError, match="^4 in the prime list is not a prime$"):
            search([2, 4], 20)


class TestUnitEquation:
    def test_matches_brute_force(self):
        primes, bound = (2, 3, 5), 500
        got = unit_equation_solutions(primes, bound)
        expected = []
        for a in range(1, bound + 1):
            if not naive_smooth(a, primes):
                continue
            for b in range(a, bound + 1 - a):
                c = a + b
                if gcd(a, b) != 1:
                    continue
                if naive_smooth(b, primes) and naive_smooth(c, primes):
                    expected.append((a, b, c))
        assert got == sorted(expected)

    @pytest.mark.parametrize("primes,bound", [((2,), 1024), ((3, 5), 1000)])
    def test_other_prime_sets_match_brute_force(self, primes, bound):
        smooth = [n for n in range(1, bound + 1) if naive_smooth(n, primes)]
        expected = [(a, b, a + b) for a in smooth for b in smooth
                    if a <= b and a + b <= bound and gcd(a, b) == 1
                    and naive_smooth(a + b, primes)]
        assert unit_equation_solutions(primes, bound) == sorted(expected)

    def test_bound_is_inclusive(self):
        for a, b, c in unit_equation_solutions((2, 3, 5), 500):
            assert (a, b, c) in unit_equation_solutions((2, 3, 5), c)

    def test_classic_solutions_present(self):
        sols = unit_equation_solutions((2, 3), 10)
        assert (1, 1, 2) in sols
        assert (1, 2, 3) in sols
        assert (1, 3, 4) in sols
        assert (1, 8, 9) in sols


class TestProp24Pairs:
    def test_requires_two(self):
        with pytest.raises(ValueError):
            prop24_pairs((3, 5), 100)

    def test_matches_brute_force(self):
        primes, bound = (2, 3, 5), 300
        got = prop24_pairs(primes, bound)
        expected = [
            (n2, n3)
            for n2 in range(2, bound + 1)
            for n3 in range(1, n2)
            if gcd(n2, n3) == 1
            and naive_smooth(n2, primes)
            and naive_smooth(n3, primes)
            and naive_smooth(n2 - n3, primes)
        ]
        assert got == sorted(expected)

    def test_canonical_form(self):
        for n2, n3 in prop24_pairs((2, 3), 200):
            assert n2 > n3 >= 1
            assert gcd(n2, n3) == 1


class TestFamily:
    def test_contains_reference_tuple_as_exceptional(self):
        fam = thm26_family((2, 3), 10)
        match = [t for t in fam if t.entries == (0, 6, 1, 5)]
        assert match, "reference tuple missing"
        assert all(t.exceptional for t in match)

    def test_entry_structure(self):
        for t in thm26_family((2, 3), 12):
            assert t.entries == (0, 2 * t.r3, t.r1 + t.r3, t.r3 - t.r1)
            assert gcd(abs(t.r1), t.r3) == 1
            assert len(set(t.entries)) == 4

    def test_exceptional_flag_meaning(self):
        for t in thm26_family((2, 3), 10):
            diffs = [
                t.entries[i] - t.entries[j]
                for i in range(4)
                for j in range(i + 1, 4)
            ]
            assert t.exceptional == any(not naive_smooth(abs(d), (2, 3)) for d in diffs)

    @pytest.mark.parametrize("primes,bound", [((2, 3, 5), 200), ((2, 3), 97), ((2, 3, 5, 7), 97)])
    def test_matches_brute_force(self, primes, bound):
        # differences of entries run past the bound (to 2 * 96 at (2, 3)
        # and 97), into the top half of the family's smooth set, which
        # stops at 2 * bound; at (2, 3, 5, 7) and 97 the tuple
        # (0, 2, 50, -48) is not exceptional only because 98 is smooth
        smooth = [n for n in range(1, 2 * bound + 1) if naive_smooth(n, primes)]
        expected = []
        for r3 in smooth:
            for mag in smooth:
                for r1 in (mag, -mag):
                    e = (0, 2 * r3, r1 + r3, r3 - r1)
                    if (gcd(mag, r3) != 1 or len(set(e)) != 4
                            or any(abs(x) > bound for x in e)):
                        continue
                    exceptional = any(not naive_smooth(abs(e[i] - e[j]), primes)
                                      for i in range(4) for j in range(i + 1, 4))
                    expected.append((e, r1, r3, exceptional))
        got = [(t.entries, t.r1, t.r3, t.exceptional) for t in thm26_family(primes, bound)]
        assert got == sorted(expected)
        largest = max(abs(e[i] - e[j]) for e, *_ in got for i in range(4) for j in range(i + 1, 4))
        assert bound < largest <= 2 * bound


class TestCaps:
    P = (2, 3, 5, 7, 11, 13)

    @pytest.mark.parametrize("search,cap,bound", [
        (unit_equation_solutions, "MAX_PAIR_VALUES", 10 ** 8),
        (prop24_pairs, "MAX_PAIR_VALUES", 10 ** 8),
        (thm26_family, "MAX_FAMILY_VALUES", 10 ** 8),
    ])
    def test_pair_loop_refuses_above_its_cap(self, search, cap, bound):
        limit = getattr(sunit, cap)
        with pytest.raises(ValueError, match=f"smooth values up to \\d+, above {limit}$"):
            search(self.P, bound)

    @pytest.mark.parametrize("search,cap,scale", [
        (unit_equation_solutions, "MAX_PAIR_VALUES", 1),
        (prop24_pairs, "MAX_PAIR_VALUES", 1),
        (thm26_family, "MAX_FAMILY_VALUES", 2),
    ])
    def test_pair_loop_runs_at_its_cap(self, monkeypatch, search, cap, scale):
        # 30 values up to 80 at (2, 3, 5): a cap of 30 runs, 29 refuses
        assert len(smooth_enum((2, 3, 5), 80).values) == 30
        monkeypatch.setattr(sunit, cap, 30)
        search((2, 3, 5), 80 // scale)
        monkeypatch.setattr(sunit, cap, 29)
        with pytest.raises(ValueError, match="30 smooth values up to 80, above 29"):
            search((2, 3, 5), 80 // scale)

    def test_smooth_enum_stops_past_its_cap(self, monkeypatch):
        monkeypatch.setattr(sunit, "MAX_SMOOTH_VALUES", 30)
        assert len(smooth_enum((2, 3, 5), 80).values) == 30
        with pytest.raises(ValueError, match="more than 30 smooth values up to 81"):
            smooth_enum((2, 3, 5), 81)

    def test_bench_calls_under_the_caps(self):
        assert len(smooth_enum((2, 3, 5), 10 ** 6).values) == 507 < sunit.MAX_PAIR_VALUES
        assert len(smooth_enum((2, 3, 5), 2 * 10 ** 4).values) == 212 < sunit.MAX_FAMILY_VALUES
        assert len(smooth_enum((2, 3, 5, 7), 10 ** 12).values) == 14672 < sunit.MAX_SMOOTH_VALUES
