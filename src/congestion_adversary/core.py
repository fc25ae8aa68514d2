"""Exact-arithmetic model of singleton congestion games with a budgeted adversary.

A game has n identical players, m resources with per-unit cost coefficients
a_1 <= ... <= a_m, and an adversary with budget B > 0.  After the players pick
resources, the adversary spreads B evenly over the resources carrying maximum
load; every player on an attacked resource pays her share of the budget on top
of the congestion cost.

Every quantity a public function takes or returns is a `fractions.Fraction`;
the private pricing kernel works on the same values scaled to exact integers,
so every comparison in this module is exact.  Resources are 0-indexed
throughout the code base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

__all__ = [
    "INFINITY",
    "ExtendedRational",
    "GameError",
    "EmptyResources",
    "NonPositiveBudget",
    "NegativeCoefficient",
    "NonPositivePlayers",
    "EmptyGame",
    "UnoccupiedResource",
    "SameResource",
    "EmptySource",
    "Instance",
    "KConstant",
    "validate_instance",
    "scale_instance",
    "attack",
    "resource_cost",
    "deviation_cost",
    "cheapest_deviation",
    "needed_alpha",
    "binding_deviation",
    "is_alpha_pne",
    "compute_K",
    "k_upper_bound",
]

#: Marker for "no finite approximation factor suffices".  A float infinity
#: compares exactly against any Fraction, which is all we need.
INFINITY = float("inf")

ExtendedRational = Union[Fraction, float]

Loads = Sequence[int]


class GameError(ValueError):
    """Base class for invalid game data or invalid operations on it."""


class EmptyResources(GameError):
    pass


class NonPositiveBudget(GameError):
    pass


class NegativeCoefficient(GameError):
    pass


class NonPositivePlayers(GameError):
    pass


class EmptyGame(GameError):
    """Raised when an operation needs at least one seated player."""


class UnoccupiedResource(GameError):
    pass


class SameResource(GameError):
    pass


class EmptySource(GameError):
    pass


@dataclass(frozen=True)
class Instance:
    """A game instance: player count, sorted cost coefficients, adversary budget.

    Construct through :func:`validate_instance`; the constructor itself does
    not sort or validate.
    """

    n: int
    coefficients: Tuple[Fraction, ...]
    budget: Fraction

    @property
    def m(self) -> int:
        return len(self.coefficients)


def validate_instance(
    raw_coefficients: Iterable[Union[Fraction, int]],
    n: int,
    budget: Union[Fraction, int],
) -> Instance:
    """Build an Instance, sorting coefficients non-decreasingly.

    Original resource labels are discarded: the game is symmetric in resources
    of equal coefficient and every algorithm here assumes the sorted order.
    """
    coeffs = tuple(sorted(Fraction(a) for a in raw_coefficients))
    budget = Fraction(budget)
    if not coeffs:
        raise EmptyResources("need at least one resource")
    if n < 1:
        raise NonPositivePlayers(f"player count must be positive, got {n}")
    if budget <= 0:
        raise NonPositiveBudget(f"budget must be positive, got {budget}")
    for a in coeffs:
        if a < 0:
            raise NegativeCoefficient(f"coefficient must be non-negative, got {a}")
    return Instance(n=n, coefficients=coeffs, budget=budget)


def scale_instance(inst: Instance, factor: Union[Fraction, int]) -> Instance:
    """Scale all coefficients and the budget by a positive rational factor."""
    factor = Fraction(factor)
    if factor <= 0:
        raise GameError(f"scale factor must be positive, got {factor}")
    return Instance(
        n=inst.n,
        coefficients=tuple(a * factor for a in inst.coefficients),
        budget=inst.budget * factor,
    )


def attack(loads: Loads, budget: Union[Fraction, int]) -> Tuple[Fraction, ...]:
    """The adversary's optimal budget split: B shared evenly over max-load resources."""
    budget = Fraction(budget)
    peak = max(loads)
    if peak == 0:
        raise EmptyGame("no players seated; the adversary has nothing to attack")
    share = budget / sum(1 for x in loads if x == peak)
    return tuple(share if x == peak else Fraction(0) for x in loads)


# resource_cost and deviation_cost price one player or one move at a time, in
# Fractions: the readable specification that the integer kernel `_pricing`
# below is tested against.


def resource_cost(inst: Instance, loads: Loads, r: int) -> Fraction:
    """Cost experienced by any player seated on resource r: a_r * load + attack share."""
    if loads[r] < 1:
        raise UnoccupiedResource(f"resource {r} carries no player")
    return _seated_cost(inst, loads, r)


def deviation_cost(
    inst: Instance, loads: Loads, source: Optional[int], target: int
) -> Fraction:
    """Cost a player would pay after moving from `source` to `target`.

    `source=None` models a newly entering player.  The result depends only on
    the load vector and the two resources, never on player identity.
    """
    if source == target:
        raise SameResource(f"deviation target equals source resource {target}")
    if source is not None and loads[source] < 1:
        raise EmptySource(f"cannot deviate from empty resource {source}")
    after = list(loads)
    if source is not None:
        after[source] -= 1
    after[target] += 1
    return _seated_cost(inst, after, target)


def _seated_cost(inst: Instance, loads: Loads, r: int) -> Fraction:
    """a_r * loads[r], plus the attack share when r carries the peak load."""
    peak = max(loads)
    base = inst.coefficients[r] * loads[r]
    if loads[r] < peak:
        return base
    return base + inst.budget / loads.count(peak)


def _integer_form(inst: Instance) -> Tuple[Tuple[int, ...], int, int]:
    """``(A, B, D)``: coefficients and budget times D, the lcm of their denominators.

    Callers compute it once per call and pass it to every :func:`_pricing` of
    that call; it is not cached on the Instance, so instances stay as small
    as their fields.
    """
    scale = math.lcm(inst.budget.denominator, *(a.denominator for a in inst.coefficients))
    coeffs = tuple(a.numerator * (scale // a.denominator) for a in inst.coefficients)
    return coeffs, inst.budget.numerator * (scale // inst.budget.denominator), scale


def _pricing(form, loads: Loads):
    """Exact integer pricing of a whole profile in one O(m) pass.

    Returns ``(seated, entering)``.  ``seated[r]`` is ``(cost, dev, target)``
    for an occupied resource r: the cost of its players and their cheapest
    move, with ``dev`` and ``target`` None when m = 1; it is None for an
    empty resource.  ``entering`` is ``(dev, target)`` for a newly entering
    player.  A cost is an integer pair ``(p, k)`` worth ``p / (k * D)``, with
    `form` = ``(A, B, D)`` from :func:`_integer_form`; compare two costs by
    cross-multiplication.  Moves break ties toward the smallest target.

    A move's cost depends only on the target's load relative to the peak P
    and on whether the mover leaves a peak resource.  So every target is
    priced twice, for a mover from below the peak (or entering) and for one
    from the peak, each time over a common denominator.  A resource's
    cheapest move is the cheapest target of its kind, or the second cheapest
    when that target is the resource itself.  Raises GameError unless the
    profile has m non-negative loads.
    """
    coeffs, budget, _ = form
    m = len(coeffs)
    if len(loads) != m or min(loads) < 0:
        raise GameError(f"profile {tuple(loads)} is not {m} non-negative loads")
    peak = max(loads)
    count = loads.count(peak)
    # Entering, or leaving a resource below the peak: a target at P becomes
    # the sole peak, one at P - 1 joins the count + 1 peak resources, and
    # lower targets pay no share.
    joined = count + 1
    from_below = _targets(coeffs, loads, joined, {peak: budget * joined, peak - 1: budget})
    seated = [None] * m
    if peak > 0:
        if count > 1:
            # Leaving one of several peak resources: a target at P - 1 joins
            # the count peak resources.
            shares = {peak: budget * count, peak - 1: budget}
            from_peak = _targets(coeffs, loads, count, shares)
        else:
            # Leaving the sole peak: a target at P - 1 becomes the sole peak,
            # and one at P - 2 ties at P - 1 with the mover and every resource
            # already there.
            tied = loads.count(peak - 1) + 2
            shares = {peak: budget * tied, peak - 1: budget * tied, peak - 2: budget}
            from_peak = _targets(coeffs, loads, tied, shares)
        for r, x in enumerate(loads):
            if x == peak:
                cost = (coeffs[r] * peak * count + budget, count)
                seated[r] = (cost,) + _move(from_peak, r)
            elif x:
                seated[r] = ((coeffs[r] * x, 1),) + _move(from_below, r)
    return seated, _move(from_below, None)


def _targets(coeffs, loads, denominator, shares):
    """Every target's move price over `denominator`, plus the cheapest ``(price, target)``.

    A target on load x costs ``a * (x + 1)`` plus ``shares.get(x, 0)``, the
    budget share it attracts, already over `denominator`.
    """
    prices = [
        (a * (x + 1) * denominator + shares.get(x, 0), t)
        for t, (a, x) in enumerate(zip(coeffs, loads))
    ]
    return denominator, prices, min(prices)


def _move(targets, source):
    """``(dev, target)``: the cheapest move off `source`, ``(None, None)`` if none."""
    denominator, prices, best = targets
    if best[1] == source:
        best = min(prices[:source] + prices[source + 1 :], default=None)
        if best is None:
            return None, None
    return (best[0], denominator), best[1]


def _seated_pricing(form, loads: Loads):
    """The ``seated`` half of :func:`_pricing`; raises EmptyGame when nobody is seated."""
    seated, _ = _pricing(form, loads)
    if not any(seated):
        raise EmptyGame("profile seats no players")
    return seated


def _fraction(form, cost) -> Fraction:
    """The Fraction value of an integer cost pair from :func:`_pricing`."""
    return Fraction(cost[0], cost[1] * form[2])


def cheapest_deviation(
    inst: Instance, loads: Loads, source: Optional[int]
) -> Optional[Tuple[Fraction, int]]:
    """Cheapest ``(deviation_cost, target)`` for a player on `source` (None: entering).

    Ties break toward the smallest target.  None when a seated player has no
    other resource (m = 1).
    """
    if source is not None and loads[source] < 1:
        raise EmptySource(f"cannot deviate from empty resource {source}")
    form = _integer_form(inst)
    seated, entering = _pricing(form, loads)
    dev, target = entering if source is None else seated[source][1:]
    return None if dev is None else (_fraction(form, dev), target)


def needed_alpha(inst: Instance, loads: Loads) -> ExtendedRational:
    """Smallest factor making every unilateral deviation non-improving.

    Returns the raw maximum, over occupied resources r, of
    ``resource_cost(r) / min_{r' != r} deviation_cost(r -> r')``; a result
    below 1 means the profile is an exact equilibrium with slack.  Returns
    INFINITY when a positive-cost player has a zero-cost deviation.  With a
    single resource there is no deviation and the profile is vacuously an
    exact equilibrium, so 1 is returned.
    """
    found = _binding_deviation_impl(inst, loads)
    return Fraction(1) if found is None else found[0]


def binding_deviation(
    inst: Instance, loads: Loads
) -> Optional[Tuple[ExtendedRational, int, int, Fraction, Fraction]]:
    """The deviation pair realizing needed_alpha.

    Returns ``(ratio, r, r_to, cost, dev)`` for the occupied resource r with
    the largest cost-to-best-deviation ratio, or None when m = 1.
    """
    return _binding_deviation_impl(inst, loads)


def _binding_deviation_impl(inst, loads):
    form = _integer_form(inst)
    found = _binding(form, loads)
    if found is None:
        return None
    (num, den), r, target, (cost, dev, _) = found
    ratio = INFINITY if den == 0 else Fraction(num, den)
    return ratio, r, target, _fraction(form, cost), _fraction(form, dev)


def _binding(form, loads):
    """The tightest deviation in exact integers, or None when m = 1.

    Returns ``(ratio, r, target, priced)``: `ratio` is cost/dev as an integer
    pair ``(numerator, denominator)``, with denominator 0 for INFINITY, and
    `priced` is ``seated[r]`` of :func:`_pricing`.  The first resource with
    the largest ratio wins.
    """
    seated = _seated_pricing(form, loads)
    if len(seated) == 1:
        return None
    best = None
    for r, priced in enumerate(seated):
        if priced is None:
            continue
        (cost, k), (dev, j), target = priced
        # cost/dev as (numerator, denominator); denominator 0 stands for INFINITY.
        if dev == 0:
            ratio = (1, 0) if cost > 0 else (0, 1)
        else:
            ratio = (cost * j, k * dev)
        if best is None or ratio[0] * best[0][1] > best[0][0] * ratio[1]:
            best = (ratio, r, target, priced)
    return best


def is_alpha_pne(inst: Instance, loads: Loads, alpha: Union[Fraction, int]) -> bool:
    """True iff no player can improve her cost by more than factor `alpha`."""
    if sum(loads) != inst.n:
        raise GameError(f"loads sum to {sum(loads)}, expected {inst.n} players")
    return needed_alpha(inst, loads) <= Fraction(alpha)


TOWARD_ZERO = "toward-zero"
AWAY_FROM_ZERO = "away-from-zero"


@dataclass(frozen=True)
class KConstant:
    """A rational bracket endpoint for the universal threshold constant.

    The constant is the unique root of x^3 - x^2/2 - 1 in (1, 2), roughly
    1.1974.  ``away-from-zero`` endpoints lie at or above the root,
    ``toward-zero`` endpoints at or below, and the two differ by at most
    10**-precision.
    """

    value: Fraction
    rounding: str
    precision: int


def _threshold_polynomial(x: Fraction) -> Fraction:
    return x * x * x - x * x / 2 - 1


def compute_K(precision: int, rounding: str = AWAY_FROM_ZERO) -> KConstant:
    """Bracket the threshold constant by exact-rational bisection on [1, 2]."""
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    if rounding not in (TOWARD_ZERO, AWAY_FROM_ZERO):
        raise ValueError(f"unknown rounding direction {rounding!r}")
    lo, hi = Fraction(1), Fraction(2)
    width = Fraction(1, 10**precision)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if _threshold_polynomial(mid) >= 0:
            hi = mid
        else:
            lo = mid
    value = lo if rounding == TOWARD_ZERO else hi
    return KConstant(value=value, rounding=rounding, precision=precision)


def k_upper_bound(precision: int = 12) -> Fraction:
    """Rational upper bound on the threshold constant (safe solver alpha)."""
    return compute_K(precision, AWAY_FROM_ZERO).value
