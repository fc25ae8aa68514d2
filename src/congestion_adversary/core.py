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
from functools import cached_property, lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "INFINITY",
    "GameError",
    "validate_instance",
    "scale_instance",
    "resource_cost",
    "deviation_cost",
    "needed_alpha",
    "binding_deviation",
    "is_alpha_pne",
    "K",
    "compute_K",
    "k_upper_bound",
]

#: Marker for "no finite approximation factor suffices".  A float infinity
#: compares exactly against any Fraction, which is all we need.
INFINITY = float("inf")

ExtendedRational = Union[Fraction, float]

#: The threshold constant itself as a factor, as result documents write it; test it by identity.
K = "K"

Loads = Sequence[int]


class GameError(ValueError):
    """Invalid game data or an invalid operation on it; the message names the fault."""


#: _instance refuses an instance whose integer form, m times the bit length
#: of D, the lcm of the denominators, passes this, counted as D grows.
#: solve-k on 3 players and 1/p over the first k primes, whole process, 2-core
#: Xeon host, Python 3.11: k = 2 000 is 5.0e7 bits, 0.2 s and 23 MB; 4 000
#: 2.2e8, 0.5 s and 45 MB; 6 000 5.1e8, 0.9-1.0 s and 83 MB; past it, 8 000
#: 9.4e8, 1.2-1.6 s and 139 MB.  Refused, 8 000 or 20 000 take 0.3 s, 23 MB.
FORM_MAX_BITS = 2**29


@dataclass(frozen=True)
class Instance:
    """A game instance: player count and integer form, built only by :func:`_instance`.

    `form` is ``(A, B, D)``: the sorted coefficients and the budget times D,
    the lcm of their lowest-terms denominators, so equality and hash over
    ``(n, form)`` are those of the values.  `coefficients` and `budget` are
    Fraction views of it, made on first access.
    """

    n: int
    form: Tuple[Tuple[int, ...], int, int]

    @property
    def m(self) -> int:
        return len(self.form[0])

    @cached_property
    def coefficients(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(a, self.form[2]) for a in self.form[0])

    @cached_property
    def budget(self) -> Fraction:
        return Fraction(self.form[1], self.form[2])


def validate_instance(
    raw_coefficients: Iterable[Union[Fraction, int]],
    n: int,
    budget: Union[Fraction, int],
) -> Instance:
    """Build an Instance, sorting coefficients non-decreasingly.

    Original resource labels are discarded: the game is symmetric in resources
    of equal coefficient and every algorithm here assumes the sorted order.
    Raises GameError as :func:`_instance` does, after any value that is not
    a finite rational.
    """
    values = [_rational(a, "coefficient") for a in raw_coefficients]
    values.append(_rational(budget, "budget"))
    return _instance(n, [a.numerator for a in values], [a.denominator for a in values])


def _instance(n, nums: List[int], dens: List[int]) -> Instance:
    """The Instance of n players whose budget is ``nums[-1] / dens[-1]`` and coefficients the other pairs.

    Each pair is in lowest terms, its denominator positive.  Raises GameError,
    in this order, for no resource, a player count that is not a positive
    int, a budget <= 0, a form past FORM_MAX_BITS, before the lcm grows
    further, and a negative coefficient.
    """
    m, scale = len(nums) - 1, 1
    if not m:
        raise GameError("need at least one resource")
    if not isinstance(n, int) or isinstance(n, bool):
        raise GameError(f"player count must be an integer, got {n!r}")
    if n < 1:
        raise GameError(f"player count must be positive, got {n}")
    if nums[-1] <= 0:
        raise GameError(f"budget must be positive, got {Fraction(nums[-1], dens[-1])}")
    for d in set(dens):
        scale = math.lcm(scale, d)
        if m * scale.bit_length() > FORM_MAX_BITS:
            raise GameError(
                f"m times the bit length of the denominators' lcm passes {FORM_MAX_BITS} (m={m})"
            )
    coeffs = [a * (scale // d) for a, d in zip(nums, dens)]
    budget = coeffs.pop()
    coeffs.sort()
    if coeffs[0] < 0:
        raise GameError(f"coefficient must be non-negative, got {Fraction(coeffs[0], scale)}")
    return Instance(n, (tuple(coeffs), budget, scale))


def scale_instance(inst: Instance, factor: Union[Fraction, int]) -> Instance:
    """Scale all coefficients and the budget by a positive rational factor."""
    factor = _rational(factor, "scale factor")
    if factor <= 0:
        raise GameError(f"scale factor must be positive, got {factor}")
    return validate_instance((a * factor for a in inst.coefficients), inst.n, inst.budget * factor)


def _rational(value, what: str) -> Fraction:
    """Fraction(value), or GameError naming `what` for a bool, a nan, an infinity, a malformed string or a non-number."""
    if type(value) is Fraction:  # Already exact: Fraction(value) would only copy it.
        return value
    try:
        if isinstance(value, bool):  # Fraction takes True as 1.
            raise TypeError(f"got {value!r}")
        return Fraction(value)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError) as exc:
        raise GameError(f"{what} must be a finite rational: {exc}") from None


# resource_cost and deviation_cost price one player or one move at a time, in
# Fractions: the readable specification that the integer kernel `_pricing`
# below is tested against.


def resource_cost(inst: Instance, loads: Loads, r: int) -> Fraction:
    """Cost experienced by any player seated on resource r: a_r * load + budget share."""
    _check_resource(inst, r)
    if loads[r] < 1:
        raise GameError(f"resource {r} carries no player")
    return _seated_cost(inst, loads, r)


def deviation_cost(
    inst: Instance, loads: Loads, source: Optional[int], target: int
) -> Fraction:
    """Cost a player would pay after moving from `source` to `target`.

    `source=None` models a newly entering player.  The result depends only on
    the load vector and the two resources, never on player identity.
    """
    _check_resource(inst, target)
    if source == target:
        raise GameError(f"deviation target equals source resource {target}")
    after = list(loads)
    if source is not None:
        _check_resource(inst, source)
        if loads[source] < 1:
            raise GameError(f"cannot deviate from empty resource {source}")
        after[source] -= 1
    after[target] += 1
    return _seated_cost(inst, after, target)


def _check_resource(inst: Instance, r: int) -> None:
    """Raise GameError unless r indexes a resource of `inst`."""
    if not 0 <= r < inst.m:
        raise GameError(f"resource {r} is not in range({inst.m})")


def _seated_cost(inst: Instance, loads: Loads, r: int) -> Fraction:
    """a_r * loads[r], plus the budget share when r carries the peak load."""
    peak = max(loads)
    base = inst.coefficients[r] * loads[r]
    if loads[r] < peak:
        return base
    return base + inst.budget / loads.count(peak)


def _pricing(form, loads: Loads, targets=None, peaks=None):
    """Exact integer pricing of a profile in one pass over candidate targets.

    A move's cost depends only on the target's load relative to the peak P
    and on whether the mover leaves a peak resource.  So the pass prices each
    target for a mover from below the peak (or entering) and for one from
    the peak, each kind over a common denominator, and keeps the two
    cheapest targets of each kind, ties toward the smaller index.

    `targets`, ``(t, loads[t])`` pairs in index order, must hold the
    cheapest of each kind, as the first index of each band of equal load on
    a non-increasing profile does; the runner-up is then the cheapest among
    the other targets, which is exact wherever the cheapest target's band is
    that one resource.  `peaks` is ``(P, count at P, count at P - 1)``.  By
    default both come from the whole profile.

    Returns ``(peak, count, below, at_peak)``: P, the number of resources at
    P, and per kind ``(dev, j, target, dev2, target2)``, the cheapest and
    runner-up targets (``dev2``, ``target2`` None when m = 1); ``below[:3]``
    is the entering player's move.  A pair ``p, k`` is the cost ``p / (k *
    D)``, with `form` = ``(A, B, D)``, an Instance's `form`; compare
    costs by cross-multiplication.  Without `peaks`, raises GameError unless
    the profile has m non-negative loads.
    """
    coeffs, budget, _ = form
    if peaks is None:
        if len(loads) != len(coeffs) or min(loads) < 0:
            raise GameError(f"profile {tuple(loads)} is not {len(coeffs)} non-negative loads")
        targets, peak = enumerate(loads), max(loads)
        count = loads.count(peak)
    else:
        peak, count, _ = peaks
    # Budget shares by P - load of the target.  Entering, or leaving a
    # resource below the peak: a target at P becomes the sole peak, one at
    # P - 1 joins the count + 1 peak resources, lower targets pay no share.
    joined = count + 1
    low = (budget * joined, budget, 0)
    if count > 1:
        # Leaving one of several peak resources: a target at P - 1 joins them.
        tied = count
        high = (budget * count, budget, 0)
    else:
        # Leaving the sole peak: a target at P - 1 becomes the sole peak, and
        # one at P - 2 ties at P - 1 with the mover and every resource there.
        tied = (loads.count(peak - 1) if peaks is None else peaks[2]) + 2
        high = (budget * tied, budget * tied, budget)
    dev = target = dev2 = target2 = None
    top = at = top2 = at2 = None
    for t, x in targets:
        move = coeffs[t] * (x + 1)
        gap = peak - x
        if gap < 3:
            price, other = move * joined + low[gap], move * tied + high[gap]
        else:
            price, other = move * joined, move * tied
        if target is None or price < dev:
            dev, target, dev2, target2 = price, t, dev, target
        elif target2 is None or price < dev2:
            dev2, target2 = price, t
        if at is None or other < top:
            top, at, top2, at2 = other, t, top, at
        elif at2 is None or other < top2:
            top2, at2 = other, t
    return peak, count, (dev, joined, target, dev2, target2), (top, tied, at, top2, at2)


def _occupied(form, loads: Loads, priced=None, movers=None):
    """Every occupied resource's ``(r, cost, k, dev, j, target)``, in index order.

    ``cost, k`` is the cost of r's players and ``dev, j`` their cheapest
    move, to the cheapest target of their kind in the profile's
    :func:`_pricing`, or to the runner-up when that target is r; ``dev`` and
    ``target`` are None when m = 1.  Raises GameError if nobody sits.
    `priced`, the profile's pricing, and `movers`, ``(r, loads[r])`` pairs
    in index order, default to the whole profile's; given, only `movers`
    are read, and not `loads`.
    """
    if priced is None:
        priced, movers = _pricing(form, loads), enumerate(loads)
    peak, count, below, at_peak = priced
    if peak == 0:
        raise GameError("profile seats no players")
    coeffs, budget, _ = form
    for r, x in movers:
        if x == peak:
            dev, j, target, dev2, target2 = at_peak
            cost, k = coeffs[r] * peak * count + budget, count
        elif x:
            dev, j, target, dev2, target2 = below
            cost, k = coeffs[r] * x, 1
        else:
            continue
        if target == r:
            dev, target = dev2, target2
        yield r, cost, k, dev, j, target


def _fraction(form, p: int, k: int) -> Fraction:
    """The Fraction value of an integer cost pair ``p, k`` from :func:`_pricing`."""
    return Fraction(p, k * form[2])


def needed_alpha(inst: Instance, loads: Loads) -> ExtendedRational:
    """Smallest factor making every unilateral deviation non-improving.

    Returns the raw maximum, over occupied resources r, of
    ``resource_cost(r) / min_{r' != r} deviation_cost(r -> r')``; a result
    below 1 means the profile is an exact equilibrium with slack.  Returns
    INFINITY when a positive-cost player has a zero-cost deviation.  With a
    single resource there is no deviation and the profile is vacuously an
    exact equilibrium, so 1 is returned.
    """
    found = _binding(inst.form, loads)
    if found is None:
        return Fraction(1)
    num, den = found[0]
    return INFINITY if den == 0 else Fraction(num, den)


def binding_deviation(
    inst: Instance, loads: Loads
) -> Optional[Tuple[ExtendedRational, int, int, Fraction, Fraction]]:
    """The deviation pair realizing needed_alpha.

    Returns ``(ratio, r, r_to, cost, dev)`` for the occupied resource r with
    the largest cost-to-best-deviation ratio, or None when m = 1.
    """
    return _deviation(inst.form, _binding(inst.form, loads))


def _deviation(form, found):
    """A :func:`_binding` result as :func:`binding_deviation` returns it; None stays None."""
    if found is None:
        return None
    (num, den), r, cost, k, dev, j, target = found
    ratio = INFINITY if den == 0 else Fraction(num, den)
    return ratio, r, target, _fraction(form, cost, k), _fraction(form, dev, j)


def _binding(form, loads):
    """The tightest deviation in exact integers, or None when m = 1.

    Returns ``(ratio, r, cost, k, dev, j, target)``: `ratio` is cost/dev as
    an integer pair ``(numerator, denominator)``, with denominator 0 for
    INFINITY, followed by r's entry of :func:`_occupied`.  The first resource
    with the largest ratio wins.
    """
    best = None
    for r, cost, k, dev, j, target in _occupied(form, loads):
        if dev is None:
            return None
        if dev == 0:
            ratio = (1, 0) if cost > 0 else (0, 1)
        else:
            ratio = (cost * j, k * dev)
        if best is None or ratio[0] * best[0][1] > best[0][0] * ratio[1]:
            best = (ratio, r, cost, k, dev, j, target)
    return best


def _score(form, loads) -> Tuple[int, int]:
    """``max(1, needed_alpha)`` of the profile as ``(p, q)`` for p/q, q = 0 for INFINITY."""
    found = _binding(form, loads)
    return found[0] if found is not None and found[0][0] > found[0][1] else (1, 1)


def is_alpha_pne(inst: Instance, loads: Loads, alpha: Union[Fraction, int, str]) -> bool:
    """True iff no player can improve her cost by more than factor `alpha`, a rational or K."""
    if sum(loads) != inst.n:
        raise GameError(f"loads sum to {sum(loads)}, expected {inst.n} players")
    found = _binding(inst.form, loads)
    alpha = alpha if alpha is K else _rational(alpha, "alpha")
    # needed_alpha <= alpha in integers: 1 when m = 1, and INFINITY, (1, 0), passes no alpha.
    return not _above(alpha, *((1, 1) if found is None else found[0]))


def _above(alpha, a: int, b: int) -> bool:
    """True iff a/b > alpha, a Fraction or K, for a, b >= 0, b = 0 an infinite ratio.

    f(x) = x^3 - x^2/2 - 1 is negative below its one real root K and positive
    above, so a/b > K iff 2a^3 - a^2 b - 2b^3 > 0, which at b = 0 is a > 0.
    """
    if alpha is K:
        return 2 * a * a * a - a * a * b - 2 * b * b * b > 0
    return a * alpha.denominator > alpha.numerator * b


def compute_K(precision: int) -> Tuple[Fraction, Fraction]:
    """Bracket the threshold constant by exact-rational bisection on [1, 2] (memoized).

    The constant is the unique root of x^3 - x^2/2 - 1 in (1, 2), roughly
    1.1974.  Returns ``(lo, hi)``, with lo at or below the root, hi at or
    above it, and hi - lo at most 10**-precision.
    """
    return _bisect_K(precision)


@lru_cache(maxsize=64, typed=True)
def _bisect_K(precision: int) -> Tuple[Fraction, Fraction]:
    if precision < 1:
        raise GameError(f"precision must be >= 1, got {precision}")
    lo, hi = Fraction(1), Fraction(2)
    width = Fraction(1, 10**precision)
    while hi - lo > width:
        mid = (lo + hi) / 2  # A rational, so never K itself.
        lo, hi = (lo, mid) if _above(K, mid.numerator, mid.denominator) else (mid, hi)
    return lo, hi


def k_upper_bound(precision: int = 12) -> Fraction:
    """Rational upper bound on K, for callers that need a Fraction: solve and is_alpha_pne take K itself."""
    return compute_K(precision)[1]
