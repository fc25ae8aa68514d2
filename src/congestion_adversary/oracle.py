"""Brute-force ground truth for cross-validating the solvers at small scale.

For factors up to 2 it suffices to search non-increasing load profiles (any
equilibrium can be rearranged into one by swapping whole resources), which
collapses the profile space to integer partitions of n into at most m parts.
Equal loads of such a profile form bands, at most about sqrt(2n) of them, and
each profile is priced over its bands, not its resources: with coefficients
sorted, a band's first index is its cheapest target and its last index its
costliest mover.  Every optimum the fast solvers report is checked against
this enumeration in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Tuple

from .core import Instance, _fraction, _occupied, _pricing
from .solver import _peaks

__all__ = ["oracle_best_alpha", "oracle_optima"]


def _partitions(n: int, m: int) -> Iterator[List[int]]:
    """The partitions of n into at most m parts, in lexicographically descending order.

    Each is the nonzero parts of one non-increasing load vector, yielded
    once, as one list stepped in place: copy it to keep a profile.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    parts = [n]
    while True:
        yield parts
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


def _padded(parts: List[int], m: int) -> Tuple[int, ...]:
    return tuple(parts) + (0,) * (m - len(parts))


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

    The pass stops at the first profile of factor 1.  Neither measure has
    a value below its floor, factor 1 and slack 0, and a profile is at one
    floor iff it is at the other: every tail's cost is at most its best
    deviation cost (m = 1 included, where nobody moves).  Both minima are
    kept on a strict improvement, so that profile is both witnesses and no
    later one could replace either.

    Each profile is priced over its bands of equal load, in time linear in
    its nonzero parts: band heads as targets, band tails as movers.  A
    tail pays its band's largest cost, and every player of the band has the
    same cheapest move, to a band head, unless that head is the player's
    own resource; the runner-up is read only then, for a band of one
    resource, where every other band's cheapest target is its head.  So
    the tails attain both the largest ratio and the largest difference.
    """
    form, m = inst.form, inst.m
    best = least = None
    for parts in _partitions(inst.n, m):
        size, peak = len(parts), parts[0]
        heads, tails, prev = [(0, peak)], [], peak
        for i, x in enumerate(parts):
            if x != prev:
                tails.append((i - 1, prev))
                heads.append((i, x))
                prev = x
        tails.append((size - 1, prev))
        if size < m:
            heads.append((size, 0))
        priced = _pricing(form, parts, heads, _peaks(heads, tails, m))
        # Integer pairs p, q for p / q, compared crosswise as in _occupied: the
        # factor cost / dev, infinite at q = 0, and the slack cost - dev.
        factor, slack = (1, 1), (0, 1)
        for _, cost, k, dev, j, _ in _occupied(form, parts, priced, tails):
            if dev is None:  # One resource: no move, so factor 1 and no slack.
                break
            if cost * j * factor[1] > factor[0] * k * dev:
                factor = (cost * j, k * dev)
            if (cost * j - dev * k) * slack[1] > slack[0] * k * j:
                slack = (cost * j - dev * k, k * j)
        # An infinite factor never wins: by the existence theorem some
        # profile needs at most K.
        if best is None or factor[0] * best[1] < best[0] * factor[1]:
            best, witness = factor, parts[:]
        if least is None or slack[0] * least[1] < least[0] * slack[1]:
            least, epsilon_witness = slack, parts[:]
        if best == (1, 1):  # Both floors: no later profile replaces either witness.
            break
    return Fraction(*best), _padded(witness, m), _fraction(form, *least), _padded(epsilon_witness, m)


def oracle_best_alpha(inst: Instance) -> Tuple[Fraction, Tuple[int, ...]]:
    """The factor half of :func:`oracle_optima`: ``(alpha, witness)``."""
    return oracle_optima(inst)[:2]
