"""Incremental computation of approximate equilibria.

Players are inserted one at a time onto a best-response resource.  Whenever
some seated player could cut her cost by more than the configured factor, the
most expensive such player moves to a best response, until everyone is
settled; only then is the next player inserted.  For any factor at or above
the threshold constant (see :func:`congestion_adversary.core.compute_K`) this
terminates, and the run is guarded by a per-round deviation budget that turns
the termination guarantee into a runtime check.

Players are interchangeable, so state is a load vector and trace events name
resources, not players.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import (
    ExtendedRational,
    GameError,
    INFINITY,
    Instance,
    _fraction,
    _integer_form,
    _occupied,
    _pricing,
    k_upper_bound,
)

__all__ = [
    "PLAYER_ADDED",
    "DEVIATION",
    "STRICT",
    "LENIENT",
    "GuardExceeded",
    "TraceEvent",
    "SolveTrace",
    "SolverConfig",
    "solve",
]

PLAYER_ADDED = "player_added"
DEVIATION = "deviation"

STRICT = "strict"
LENIENT = "lenient"


class GuardExceeded(RuntimeError):
    """A settling round exceeded its deviation budget.

    With alpha at or above the threshold constant this signals a bug; with a
    smaller alpha it may simply mean no such equilibrium is reachable.
    """


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # PLAYER_ADDED or DEVIATION
    round: int  # 1-based insertion round
    source: Optional[int]  # resource index, None for an entering player
    target: int
    cost_before: ExtendedRational  # INFINITY for an entering player
    cost_after: Fraction
    loads_after: Tuple[int, ...]


@dataclass(frozen=True)
class SolveTrace:
    events: Tuple[TraceEvent, ...]
    per_round_deviation_counts: Tuple[int, ...]

    def replay(self, m: int) -> Tuple[int, ...]:
        """Re-apply all events from the empty profile; returns the final loads."""
        loads = [0] * m
        for ev in self.events:
            if ev.source is not None:
                loads[ev.source] -= 1
            loads[ev.target] += 1
            if tuple(loads) != ev.loads_after:
                raise GameError(f"trace is inconsistent at event {ev}")
        return tuple(loads)


@dataclass(frozen=True)
class SolverConfig:
    alpha: Fraction
    guard_mode: str = LENIENT

    def __post_init__(self):
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
    full event trace.  Deterministic: identical inputs yield identical traces.
    Loads stay non-increasing, so equal loads form bands (``load -> [first,
    last]``).  A step prices the first two indices of every band, O(bands) <=
    sqrt(2n) + 1, which names the deviator among the band tails, its target
    and both costs; the last pricing of a round holds the next entering move.
    """
    m = inst.m
    alpha = config.alpha
    loads: List[int] = [0] * m
    bands = {0: [0, m - 1]}
    events: List[TraceEvent] = []
    per_round: List[int] = []
    form = _integer_form(inst)
    priced, tails = _price_bands(form, loads, bands)

    for k in range(1, inst.n + 1):
        dev, dev_den, target = priced[2][:3]
        _shift(bands, loads, target, 1)
        cost_after = _fraction(form, dev, dev_den)
        _record(events, PLAYER_ADDED, k, None, target, INFINITY, cost_after, loads)

        deviations = 0
        budget = config.round_budget(k, m)
        while True:
            priced, tails = _price_bands(form, loads, bands)
            found = _deviator(_occupied(form, loads, priced, tails), alpha)
            if found is None:
                break
            deviations += 1
            if deviations > budget:
                raise GuardExceeded(
                    f"round {k} exceeded {budget} deviations "
                    f"({config.guard_mode} guard, alpha={alpha})"
                )
            source, cost, cost_den, dev, dev_den, target = found
            cost_before = _fraction(form, cost, cost_den)
            cost_after = _fraction(form, dev, dev_den)
            if not cost_before > alpha * cost_after:
                raise AssertionError(
                    f"selected deviation {source}->{target} is not alpha-improving"
                )
            _shift(bands, loads, source, -1)
            _shift(bands, loads, target, 1)
            _record(events, DEVIATION, k, source, target, cost_before, cost_after, loads)
        per_round.append(deviations)

    return tuple(loads), SolveTrace(tuple(events), tuple(per_round))


def _deviator(entries, alpha):
    """The costliest alpha-improving entry of :func:`_occupied`, ties toward the largest index.

    None when nobody improves by more than factor `alpha`, as always when m = 1.
    """
    num, den = alpha.numerator, alpha.denominator
    found = None
    for entry in entries:
        _, cost, k, dev, j, _ = entry
        if dev is not None and cost * j * den > num * dev * k:
            if found is None or cost * found[2] >= found[1] * k:
                found = entry
    return found


def _price_bands(form, loads, bands):
    """The profile's pricing over its band heads, and its band tails."""
    heads, tails = [], []
    for x in sorted(bands, reverse=True):
        first, last = bands[x]
        heads.append((first, x))
        if first < last:
            heads.append((first + 1, x))
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


def _record(events, kind, k, source, target, before, after, loads):
    # The old profile was ordered; only left of target and right of source can break.
    if (target and loads[target - 1] < loads[target]) or (
        source is not None and source + 1 < len(loads) and loads[source] < loads[source + 1]
    ):
        raise AssertionError(f"loads {tuple(loads)} are not non-increasing after {kind}")
    events.append(TraceEvent(kind, k, source, target, before, after, tuple(loads)))
