"""Brute-force ground truth for cross-validating the solvers at small scale.

For factors up to 2 it suffices to search non-increasing load profiles (any
equilibrium can be rearranged into one by swapping whole resources), which
collapses the profile space to integer partitions of n into at most m parts.
Every optimum the fast solvers report is checked against these enumerations
in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .core import Instance, _fraction, _occupied, _score

__all__ = [
    "enumerate_profiles",
    "oracle_best_alpha",
    "oracle_best_additive_epsilon",
]


def enumerate_profiles(n: int, m: int) -> Iterator[Tuple[int, ...]]:
    """All non-increasing load vectors of length m summing to n.

    Zero-padded partitions of n into at most m parts, yielded in
    lexicographically descending order, each exactly once.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    yield from _descending(n, m, n)


def _descending(remaining: int, slots: int, cap: int) -> Iterator[Tuple[int, ...]]:
    if remaining == 0:  # Zeros at once: recursing per empty slot would nest m deep.
        yield (0,) * slots
        return
    if slots == 0:
        return
    top = min(cap, remaining)
    for first in range(top, -1, -1):
        if first * slots < remaining:
            break
        for rest in _descending(remaining - first, slots - 1, first):
            yield (first,) + rest


def oracle_best_alpha(inst: Instance) -> Tuple[Fraction, Tuple[int, ...]]:
    """Exact smallest feasible factor and a witness profile.

    Minimizes max(needed_alpha, 1) over all decreasing profiles; ties go to
    the lexicographically largest profile.  Valid as the global optimum
    whenever the result is at most 2, which the universal existence bound
    guarantees.
    """
    best: Optional[Tuple[int, int]] = None
    best_profile: Optional[Tuple[int, ...]] = None
    for profile in enumerate_profiles(inst.n, inst.m):
        # An INFINITY score (1, 0) never wins: by the existence theorem
        # some profile needs at most K.
        value = _score(inst.form, profile)
        if best is None or value[0] * best[1] < best[0] * value[1]:
            best, best_profile = value, profile
    return Fraction(*best), best_profile


def oracle_best_additive_epsilon(
    inst: Instance,
) -> Tuple[Fraction, Tuple[int, ...]]:
    """Smallest additive slack over decreasing profiles, with witness.

    The slack of a profile is the worst, over occupied resources, of
    cost minus best deviation cost, clamped at zero.  The swap argument
    behind the decreasing-profile restriction is made for the factor; for
    the slack the tests check it, against the minimum over every ordered
    load vector (see README).
    """
    best: Optional[Tuple[int, int]] = None
    best_profile: Optional[Tuple[int, ...]] = None
    for profile in enumerate_profiles(inst.n, inst.m):
        # Slacks are integer cost pairs like those of _occupied, compared crosswise.
        slack = (0, 1)
        for _, cost, k, dev, j, _ in _occupied(inst.form, profile):
            if dev is None:
                continue
            gap = (cost * j - dev * k, k * j)
            if gap[0] * slack[1] > slack[0] * gap[1]:
                slack = gap
        if best is None or slack[0] * best[1] < best[0] * slack[1]:
            best, best_profile = slack, profile
    return _fraction(inst.form, *best), best_profile
