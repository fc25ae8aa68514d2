"""Incremental computation of approximate equilibria.

Players are inserted one at a time onto a best-response resource.  Whenever
some seated player could cut her cost by more than the configured factor, the
most expensive such player moves to a best response, until everyone is
settled; only then is the next player inserted.  For any factor at or above
the threshold constant (see :func:`congestion_adversary.core.compute_K`) this
terminates, and the run is guarded by a per-round deviation budget that turns
the termination guarantee into a runtime check.

Players are interchangeable, so state is a load vector and the trace's moves
name resources, not players, with each cost an exact integer pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .core import GameError, Instance, _fraction, _pricing, k_upper_bound

__all__ = ["STRICT", "LENIENT", "GuardExceeded", "SolveTrace", "SolverConfig", "solve"]

STRICT = "strict"
LENIENT = "lenient"


class GuardExceeded(RuntimeError):
    """A settling round exceeded its deviation budget.

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
    guard_mode: str = LENIENT

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha < 1:
            raise GameError(f"alpha must be >= 1, got {self.alpha}")
        if self.guard_mode not in (STRICT, LENIENT):
            raise GameError(f"unknown guard mode {self.guard_mode!r}")

    def round_budget(self, round_index: int, m: int) -> int:
        # Strict is the bound from the termination analysis (no player moves
        # more than twice per round); lenient adds O(m) slack.
        if self.guard_mode == STRICT:
            return 2 * round_index
        return 2 * round_index + 3 * m + 3

    @classmethod
    def default(cls, precision: int = 12, guard_mode: str = LENIENT) -> "SolverConfig":
        return cls(alpha=k_upper_bound(precision), guard_mode=guard_mode)


def solve(inst: Instance, config: SolverConfig) -> Tuple[Tuple[int, ...], SolveTrace]:
    """Run the incremental insertion/settling schedule to completion.

    Returns the final load vector (an alpha-approximate equilibrium) and a
    trace of its moves.  Deterministic: identical inputs yield identical traces.
    Loads stay non-increasing, so equal loads form bands (``load -> [first,
    last]``).  A step prices the first index of every band, O(bands) <=
    sqrt(2n) + 1, which names the deviator among the occupied band tails,
    its target and both costs; the last pricing of a round holds the next
    entering move.
    """
    m = inst.m
    alpha = config.alpha
    loads: List[int] = [0] * m
    bands = {0: [0, m - 1]}
    moves = []
    per_round: List[int] = []
    form = inst.form
    priced, tails = _price_bands(form, loads, bands)

    for k in range(1, inst.n + 1):
        dev, dev_den, target = priced[2][:3]
        _shift(bands, loads, target, 1)
        _check_order(loads, None, target)
        moves.append((k, None, target, None, None, dev, dev_den))

        deviations = 0
        budget = config.round_budget(k, m)
        while True:
            priced, tails = _price_bands(form, loads, bands)
            found = _deviator(form, priced, tails, alpha)
            if found is None:
                break
            deviations += 1
            if deviations > budget:
                raise GuardExceeded(
                    f"round {k} exceeded {budget} deviations "
                    f"({config.guard_mode} guard, alpha={alpha})"
                )
            source, cost, cost_den, dev, dev_den, target = found
            if not _fraction(form, cost, cost_den) > alpha * _fraction(form, dev, dev_den):
                raise AssertionError(
                    f"selected deviation {source}->{target} is not alpha-improving"
                )
            _shift(bands, loads, source, -1)
            _shift(bands, loads, target, 1)
            _check_order(loads, source, target)
            moves.append((k, source, target, cost, cost_den, dev, dev_den))
        per_round.append(deviations)

    return tuple(loads), SolveTrace(tuple(moves), tuple(per_round), form[2])


def _deviator(form, priced, tails, alpha):
    """The costliest alpha-improving mover among `tails`, ties toward the largest index.

    `tails` are ``(r, loads[r])`` pairs of occupied resources in index
    order, and `priced` is the profile's :func:`_pricing`.  A mover on r
    pays ``cost, k`` and moves to the cheapest target of its kind, or to the
    runner-up when that target is r, at ``dev, j``.  Returns ``(r, cost, k, dev, j, target)``, or None
    when nobody improves by more than factor `alpha`, as always when m = 1.
    """
    peak, count, below, at_peak = priced
    coeffs, budget, _ = form
    num, den = alpha.numerator, alpha.denominator
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


def _price_bands(form, loads, bands):
    """The profile's pricing over the first index of each band, and its occupied band tails.

    With coefficients sorted, a band's first index is its cheapest target of
    either kind, ties toward the smaller index, so the cheapest target of
    each kind is exact.  The runner-up may not be: it is read only when the
    cheapest target is the mover, a band's last index, whose band is then
    that one resource, and every other band's cheapest is its head.
    """
    heads, tails = [], []
    for x in sorted(bands, reverse=True):
        first, last = bands[x]
        heads.append((first, x))
        if x:
            tails.append((last, x))
    peak = heads[0][1]
    (first, last), (low, high) = bands[peak], bands.get(peak - 1, (1, 0))
    return _pricing(form, loads, heads, (peak, last - first + 1, high - low + 1)), tails


def _shift(bands, loads, r, step):
    """Add a player on r (step 1), first in its band, or take one off (-1), last in it."""
    x = loads[r]
    loads[r] = x + step
    bands[x][0 if step > 0 else 1] += step
    if bands[x][0] > bands[x][1]:
        del bands[x]
    if x + step in bands:
        bands[x + step][1 if step > 0 else 0] += step
    else:
        bands[x + step] = [r, r]


def _check_order(loads, source, target, error=AssertionError):
    """Raise `error` unless the move source -> target kept the profile non-increasing."""
    # The old profile was ordered; only left of target and right of source can break.
    if (target and loads[target - 1] < loads[target]) or (
        source is not None and source + 1 < len(loads) and loads[source] < loads[source + 1]
    ):
        raise error(f"loads {tuple(loads)} are not non-increasing after {source}->{target}")
