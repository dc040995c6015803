"""Smooth-number enumeration and small unit-equation solving.

Everything here is desk-scale and exhaustive within an explicit height
box: smooth numbers, coprime smooth solutions of a + b = c, the
coprime pair classification (both entries and their difference
smooth), and the one-parameter family of four-point supports whose
exponent vectors stay smooth.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .exact import excerpt, prime_list

# `smooth_enum` stops past this many values: 10^6 take 1.6-1.9 s on a
# 2-vCPU host
MAX_SMOOTH_VALUES = 10 ** 6
# the largest height `smooth_enum` enumerates to (`thm26_family` goes to
# twice its height): each listed value then has at most 19 digits, so
# `sunit smooth` prints at most MAX_SMOOTH_VALUES of them, about 20 MB
MAX_HEIGHT = 10 ** 18
# the pair loops are quadratic in the smooth set: on a 2-vCPU host
# `unit_equation_solutions` and `prop24_pairs` take about 0.8 s on 4 106
# values and 2-3 s on 8 289, and `thm26_family` takes 0.7 s on 1 301
# values (up to twice the height) and 2 s on 2 378
MAX_PAIR_VALUES = 4500
MAX_FAMILY_VALUES = 1500


@dataclass(frozen=True)
class SmoothSet:
    """All P-smooth positive integers up to a height bound, sorted."""

    values: tuple


def _normalize_primes(primes: Iterable[int]) -> tuple:
    ps = prime_list(primes)
    if not ps:
        raise ValueError("prime set must be nonempty")
    return ps


def smooth_enum(primes: Iterable[int], bound: int) -> SmoothSet:
    """Every P-smooth n <= bound, by product generation."""
    ps = _normalize_primes(primes)
    if bound < 1:
        raise ValueError("height bound must be >= 1")
    if bound > MAX_HEIGHT:
        raise ValueError(f"height bound {excerpt(str(bound))} is above {MAX_HEIGHT}")
    vals = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for p in ps:
                w = v * p
                if w <= bound and w not in vals:
                    vals.add(w)
                    nxt.append(w)
            if len(vals) > MAX_SMOOTH_VALUES:
                raise ValueError(f"more than {MAX_SMOOTH_VALUES} smooth values up to {excerpt(str(bound))}")
        frontier = nxt
    return SmoothSet(tuple(sorted(vals)))


def _capped_enum(ps: tuple, bound: int, cap: int) -> SmoothSet:
    """smooth_enum, refused when the set is larger than a pair loop's cap."""
    smooth = smooth_enum(ps, bound)
    if len(smooth.values) > cap:
        raise ValueError(f"{len(smooth.values)} smooth values up to {excerpt(str(bound))}, above {cap}")
    return smooth


def unit_equation_solutions(primes: Iterable[int], bound: int) -> list:
    """Coprime triples (a, b, c) with a + b = c, all P-smooth, a <= b <= c <= bound.

    Exhaustive within the box, in lexicographic order.
    """
    ps = _normalize_primes(primes)
    if bound < 2:
        raise ValueError("height bound must be >= 2")
    smooth = _capped_enum(ps, bound, MAX_PAIR_VALUES)
    members = set(smooth.values)
    vals = smooth.values
    out = []
    for i, a in enumerate(vals):
        # b runs from a up to bound - a
        for b in vals[i:bisect_right(vals, bound - a)]:
            if a + b in members and gcd(a, b) == 1:
                out.append((a, b, a + b))
    return out


def prop24_pairs(primes: Iterable[int], bound: int) -> list:
    """Coprime pairs (n2, n3), n2 > n3 >= 1, with n2, n3, n2 - n3 all P-smooth.

    The prime set must contain 2 (the hypothesis under which the
    finiteness argument runs).  Pairs are canonical representatives:
    larger entry first, both positive, coprime.  Lexicographic order.
    """
    ps = _normalize_primes(primes)
    if 2 not in ps:
        raise ValueError("the prime set must contain 2")
    smooth = _capped_enum(ps, bound, MAX_PAIR_VALUES)
    members = set(smooth.values)
    out = []
    for n2 in smooth.values:
        for n3 in smooth.values:
            if n3 >= n2:
                break
            if n2 - n3 in members and gcd(n2, n3) == 1:
                out.append((n2, n3))
    return out


@dataclass(frozen=True)
class FamilyTuple:
    """A support tuple (0, 2*r3, r1 + r3, r3 - r1) from the smooth pair family.

    `exceptional` marks tuples where some pairwise difference fails to
    be P-smooth, so the smooth-exponent sufficient condition does not
    apply even though the exponents themselves may be smooth.
    """

    entries: tuple
    r1: int
    r3: int
    exceptional: bool


def thm26_family(primes: Iterable[int], bound: int) -> list:
    """All tuples (0, 2*r3, r1+r3, r3-r1) with smooth coprime (r1, r3) in the box.

    r3 >= 1 and r1 may be negative (smoothness is of the absolute
    value); entries must be pairwise distinct and bounded by the
    height.  Each tuple carries the exceptional tag.  Lexicographic
    order in the entries.
    """
    ps = _normalize_primes(primes)
    if bound < 2:
        return []
    smooth = _capped_enum(ps, 2 * bound, MAX_FAMILY_VALUES)
    # every difference of two distinct entries is nonzero and at most
    # 2 * bound in size, so membership decides its smoothness
    members = set(smooth.values)
    r3_values = [v for v in smooth.values if 2 * v <= bound]
    out = []
    for r3 in r3_values:
        for mag in smooth.values:
            if gcd(mag, r3) != 1:
                continue
            for r1 in (mag, -mag):
                entries = (0, 2 * r3, r1 + r3, r3 - r1)
                if len(set(entries)) != 4:
                    continue
                if any(abs(e) > bound for e in entries):
                    continue
                exceptional = any(
                    abs(entries[i] - entries[j]) not in members
                    for i in range(4)
                    for j in range(i + 1, 4)
                )
                out.append(FamilyTuple(entries, r1, r3, exceptional))
    out.sort(key=lambda t: t.entries)
    return out
