"""Incremental computation of approximate equilibria.

Players are inserted one at a time onto a best-response resource.  Whenever
some seated player could cut her cost by more than the configured factor, the
most expensive such player moves to a best response, until everyone is
settled; only then is the next player inserted.  For any factor at or above
the threshold constant (see :func:`congestion_adversary.core.compute_K`) this
terminates with at most 2k deviations in round k, the bound of the
termination analysis, which the run checks as its one guard.

Players are interchangeable, so state is a load vector and the trace's moves
name resources, not players, with each cost an exact integer pair.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import List, Tuple

from .core import GameError, Instance, _pricing, _rational, k_upper_bound

__all__ = ["STRICT", "GuardExceeded", "SolveTrace", "SolverConfig", "solve"]

#: The only guard mode; it stays a name because the benchmark passes it.
STRICT = "strict"


class GuardExceeded(RuntimeError):
    """A settling round k took more than 2k deviations.

    With alpha at or above the threshold constant this signals a bug; with a
    smaller alpha it may simply mean no such equilibrium is reachable.
    """


@dataclass(frozen=True)
class SolveTrace:
    """The moves of a :func:`solve` run, in integers; `documents.write_trace` writes them.

    Each of `moves` is ``(round, source, target, cost, k, dev, j)``, round
    1-based: source None for an entering player, whose ``cost, k`` are
    None; otherwise ``cost, k`` is the mover's cost before the move and
    ``dev, j`` after it, each an integer pair worth ``p / (k * scale)``.
    `scale` is the common denominator D of the instance's integer form.
    """

    moves: Tuple[tuple, ...]
    per_round_deviation_counts: Tuple[int, ...]
    scale: int

    def replay(self, m: int) -> Tuple[int, ...]:
        """Re-apply all moves from the empty profile; returns the final loads.

        Raises GameError on an empty or out-of-range source, an out-of-range
        target, or a move that leaves the loads out of non-increasing order.
        """
        loads = [0] * m
        for move in self.moves:
            source, target = move[1], move[2]
            if source is not None:
                if not (0 <= source < m and loads[source]):
                    raise GameError(f"move {move} leaves no player on resource {source}")
                loads[source] -= 1
            if not 0 <= target < m:
                raise GameError(f"move {move} targets resource {target}, not in range({m})")
            loads[target] += 1
            _check_order(loads, source, target, GameError)
        return tuple(loads)


@dataclass(frozen=True)
class SolverConfig:
    alpha: Fraction
    guard_mode: str = STRICT  # Accepts only STRICT, kept for the benchmark's keyword.

    def __post_init__(self):
        object.__setattr__(self, "alpha", _rational(self.alpha, "alpha"))
        if self.alpha < 1:
            raise GameError(f"alpha must be >= 1, got {self.alpha}")
        if self.guard_mode != STRICT:
            raise GameError(f"unknown guard mode {self.guard_mode!r}")

    @classmethod
    def default(cls, precision: int = 12) -> "SolverConfig":
        return cls(alpha=k_upper_bound(precision))


def solve(inst: Instance, config: SolverConfig) -> Tuple[Tuple[int, ...], SolveTrace]:
    """Run the incremental insertion/settling schedule to completion.

    Returns the final load vector (an alpha-approximate equilibrium) and a
    trace of its moves.  Deterministic: identical inputs yield identical traces.
    Loads stay non-increasing, so equal loads form bands, kept as two lists
    in index order: `heads`, each band's ``(first, load)``, the load-0 band
    included, and `tails`, each occupied band's ``(last, load)``.  A move
    finds its resource's band by one bisection and changes at most one entry
    of each list, plus at most one insert or delete.  A step prices the
    heads, O(bands) <= sqrt(2n) + 1, which names the deviator among the
    tails, its target and both costs; the last pricing of a round holds the
    next entering move.

    A round is quiet when its player lands on a resource r at load P - 2 or
    less, P the peak before: P and the counts at P and P - 1 stay, so every
    other player keeps its cost and its move prices but r's, which rose, and
    r's players pay the cheapest entering price, which no below-peak move
    undercuts.  As the round began settled, nobody improves by any alpha >=
    1, so a quiet round prices, for the next entering move, and never scans.
    """
    m = inst.m
    alpha = config.alpha
    num, den = alpha.numerator, alpha.denominator
    loads: List[int] = [0] * m
    heads, tails = [(0, 0)], []
    moves = []
    per_round: List[int] = []
    form = inst.form
    priced = _pricing(form, loads, heads, _peaks(heads, tails, m))

    for k in range(1, inst.n + 1):
        peak, _, (dev, dev_den, target, _, _), _ = priced
        _shift(heads, tails, loads, target, 1)
        _check_order(loads, None, target)
        moves.append((k, None, target, None, None, dev, dev_den))
        quiet = loads[target] <= peak - 2

        deviations = 0
        while True:
            priced = _pricing(form, loads, heads, _peaks(heads, tails, m))
            found = None if quiet else _deviator(form, priced, tails, num, den)
            if found is None:
                break
            deviations += 1
            if deviations > 2 * k:
                raise GuardExceeded(f"round {k} exceeded {2 * k} deviations (strict guard, alpha={alpha})")
            source, cost, cost_den, dev, dev_den, target = found
            # cost / (cost_den * D) > alpha * dev / (dev_den * D), every denominator positive.
            if not cost * dev_den * den > num * dev * cost_den:
                raise AssertionError(
                    f"selected deviation {source}->{target} is not alpha-improving"
                )
            _shift(heads, tails, loads, source, -1)
            _shift(heads, tails, loads, target, 1)
            _check_order(loads, source, target)
            moves.append((k, source, target, cost, cost_den, dev, dev_den))
        per_round.append(deviations)

    return tuple(loads), SolveTrace(tuple(moves), tuple(per_round), form[2])


def _deviator(form, priced, tails, num, den):
    """The costliest mover improving by more than ``num / den``, ties toward the largest index.

    `tails` are ``(r, loads[r])`` pairs of occupied resources in index
    order, and `priced` is the profile's :func:`_pricing`.  A mover on r
    pays ``cost, k`` and moves to the cheapest target of its kind, or to the
    runner-up when that target is r, at ``dev, j``.  Returns ``(r, cost, k, dev, j, target)``, or None
    when nobody improves by more than the factor, as always when m = 1.
    """
    peak, count, below, at_peak = priced
    coeffs, budget, _ = form
    found = None
    for r, x in tails:
        if x == peak:
            dev, j, target, dev2, target2 = at_peak
            cost, k = coeffs[r] * peak * count + budget, count
        else:
            dev, j, target, dev2, target2 = below
            cost, k = coeffs[r] * x, 1
        if target == r:
            dev, target = dev2, target2
        if dev is not None and cost * j * den > num * dev * k:
            if found is None or cost * found[2] >= found[1] * k:
                found = (r, cost, k, dev, j, target)
    return found


def _peaks(heads, tails, m):
    """``(P, count at P, count at P - 1)`` of the profile, read from its first two bands.

    The load-0 band, last if any, has no entry in `tails` and ends at m - 1.
    """
    peak = heads[0][1]
    count = (tails[0][0] if tails else m - 1) + 1
    if len(heads) > 1 and heads[1][1] == peak - 1:
        return peak, count, (tails[1][0] if len(tails) > 1 else m - 1) - heads[1][0] + 1
    return peak, count, 0


def _shift(heads, tails, loads, r, step):
    """Add a player on r (step 1), first in its band, or take one off (-1), last in it.

    r leaves its band, which goes if r was its only resource, and joins the
    neighbouring band toward the larger loads (step 1) or the smaller ones
    (-1) if that band's load is r's new one, or else a band of r alone.
    """
    x = loads[r]
    loads[r] = y = x + step
    # Loads pass m, so only an infinite load keeps every head at r left of the key.
    i = bisect_right(heads, (r, inf)) - 1
    if heads[i][0] == (tails[i][0] if x else len(loads) - 1):
        del heads[i]
        if x:
            del tails[i]
    elif step > 0:
        heads[i] = (r + 1, x)
    else:
        tails[i] = (r - 1, x)
        i += 1
    # r goes in at position i; its neighbour is the band before it or the one there.
    near = i - 1 if step > 0 else i
    if 0 <= near < len(heads) and heads[near][1] == y:
        (tails if step > 0 else heads)[near] = (r, y)
    else:
        heads.insert(i, (r, y))
        if y:
            tails.insert(i, (r, y))


def _check_order(loads, source, target, error=AssertionError):
    """Raise `error` unless the move source -> target kept the profile non-increasing."""
    # The old profile was ordered; only left of target and right of source can break.
    if (target and loads[target - 1] < loads[target]) or (
        source is not None and source + 1 < len(loads) and loads[source] < loads[source + 1]
    ):
        raise error(f"loads {tuple(loads)} are not non-increasing after {source}->{target}")
