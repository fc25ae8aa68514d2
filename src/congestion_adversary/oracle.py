"""Brute-force ground truth for cross-validating the solvers at small scale.

For factors up to 2 it suffices to search non-increasing load profiles (any
equilibrium can be rearranged into one by swapping whole resources), which
collapses the profile space to integer partitions of n into at most m parts.
Every optimum the fast solvers report is checked against this enumeration
in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Tuple

from .core import Instance, _fraction, _occupied

__all__ = ["enumerate_profiles", "oracle_best_alpha", "oracle_optima"]


def enumerate_profiles(n: int, m: int) -> Iterator[Tuple[int, ...]]:
    """All non-increasing load vectors of length m summing to n.

    Zero-padded partitions of n into at most m parts, yielded in
    lexicographically descending order, each exactly once.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    parts = [n]  # The nonzero parts; zeros are only padding.
    while True:
        yield tuple(parts) + (0,) * (m - len(parts))
        # Step the rightmost part that can lose a player and still refill
        # what follows it, plus that player, within m parts of at most its
        # new size; refilling greedily with that size gives the next profile.
        i, rest = len(parts) - 1, 1
        while i >= 0 and (parts[i] == 1 or i + 1 - (-rest // (parts[i] - 1)) > m):
            rest += parts[i]
            i -= 1
        if i < 0:
            return
        top = parts[i] - 1
        count, extra = divmod(rest, top)
        parts[i:] = [top] * (count + 1) + [extra] * (extra > 0)


def oracle_optima(inst: Instance) -> Tuple[Fraction, Tuple[int, ...], Fraction, Tuple[int, ...]]:
    """Smallest feasible factor and smallest additive slack, each with a witness.

    Returns ``(alpha, witness, epsilon, epsilon_witness)`` from one pass over
    the decreasing profiles, each measure's witness the first profile that
    attains its minimum, so the lexicographically largest.  The factor of a
    profile is max(needed_alpha, 1); it is the global optimum whenever it is
    at most 2, which the universal existence bound guarantees.  The slack of
    a profile is the worst, over occupied resources, of cost minus best
    deviation cost, clamped at zero.  The swap argument behind the
    decreasing-profile restriction is made for the factor; for the slack
    the tests check it, against the minimum over every ordered load vector
    (see README).
    """
    form = inst.form
    best = least = None
    for profile in enumerate_profiles(inst.n, inst.m):
        # Integer pairs p, q for p / q, compared crosswise as in _occupied: the
        # factor cost / dev, infinite at q = 0, and the slack cost - dev.
        factor, slack = (1, 1), (0, 1)
        for _, cost, k, dev, j, _ in _occupied(form, profile):
            if dev is None:  # One resource: no move, so factor 1 and no slack.
                break
            if cost * j * factor[1] > factor[0] * k * dev:
                factor = (cost * j, k * dev)
            if (cost * j - dev * k) * slack[1] > slack[0] * k * j:
                slack = (cost * j - dev * k, k * j)
        # An infinite factor never wins: by the existence theorem some
        # profile needs at most K.
        if best is None or factor[0] * best[1] < best[0] * factor[1]:
            best, witness = factor, profile
        if least is None or slack[0] * least[1] < least[0] * slack[1]:
            least, epsilon_witness = slack, profile
    return Fraction(*best), witness, _fraction(form, *least), epsilon_witness


def oracle_best_alpha(inst: Instance) -> Tuple[Fraction, Tuple[int, ...]]:
    """The factor half of :func:`oracle_optima`: ``(alpha, witness)``."""
    return oracle_optima(inst)[:2]
