"""Instance-optimal approximation factor via load-shape enumeration.

A decreasing load profile is summarized by its shape: the maximum load M, the
last index k carrying load M, and the first indices k', k'' whose loads drop
below M-1 and M-2.  For each shape there are only polynomially many candidate
values for the best-alternative costs seen by max-load players and by the
rest; given a shape, those two values, and a factor alpha, a short greedy
procedure either produces a witness load vector or proves none exists.  For
a fixed shape and pair of values the factors that pass form a half-line, so
each pair has a least factor, a maximum of a few ratios of cost values.  The
search first probes alpha = 1; failing that, it fills each pair at its least
factor, scores each fill by the factor it needs, and takes the least score,
probing once more at that factor for the witness.  Both passes share one
table of the shape data that does not depend on alpha: the prefix loads and
the two candidate lists, already cut by the head conditions without alpha.
The scan is in exact integers on one scale, :func:`_scaled_form`; only the
factors, scores and witness checks use Fractions.

Shape indices k, k', k'' are 1-based to match the non-increasing load
picture; the sentinel value m+1 for k' (or k'') means no resource has load
below M-1 (or M-2).  Coefficient lookups translate to the 0-based arrays used
everywhere else.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from heapq import merge
from itertools import islice, tee
from typing import Callable, Iterator, List, Optional, Tuple

from .core import (
    Instance,
    _integer_form,
    binding_deviation,
    is_alpha_pne,
    needed_alpha,
)

__all__ = [
    "OptResult",
    "cbar_candidates",
    "best_alpha",
]


@dataclass(frozen=True)
class OptResult:
    alpha_star: Fraction
    witness: Tuple[int, ...]
    #: (ratio, resource, best deviation target, cost, deviation cost) of the
    #: tightest deviation in the witness, or None for a single resource.
    binding: Optional[Tuple[object, int, int, Fraction, Fraction]]


def _scaled_form(inst: Instance) -> Tuple[Tuple[int, ...], int, int]:
    """``(A, B, D)`` of :func:`core._integer_form`, each times L = lcm(1..m).

    A cost value a_r * load + B / p with p <= m is then the integer
    ``A[r] * load + B // p`` over the common denominator D, exactly.
    """
    coeffs, budget, scale = _integer_form(inst)
    shares = math.lcm(*range(1, inst.m + 1))
    return tuple(a * shares for a in coeffs), budget * shares, scale * shares


def cbar_candidates(
    form, M: int, k: int, k_prime: int, k_dprime: int
) -> Tuple[int, List[int], int, List[int]]:
    """This shape's head conditions, stated once: ``(need_max, cmax, need_rest, crest)``.

    `cmax` holds every value the best-alternative cost of the max-load
    players can take: each argument of its minimum, sorted, deduplicated and
    cut at the smallest argument outside the tail, which bounds the realized
    minimum.  `crest` is the same for the rest.  At a factor alpha, a value c
    of `cmax` passes the head conditions iff ``need_max <= alpha * c``, and a
    value of `crest` iff ``need_rest <= alpha * c``.  Values are integers on
    the scale of `form`, the instance's :func:`_scaled_form`.
    """
    a, B, _ = form
    tail_terms = {c * t for c in set(a[k_dprime - 1 :]) for t in range(1, M - 1)}
    top = a[0] * (M + 1) + B
    caps_max = [top] if k >= 2 else []
    caps_rest = [top]
    need_rest = 0
    if k_prime >= k + 2:
        caps_max.append(a[k] * M + B // k)  # a_{k+1}, 0-based a[k]
        caps_rest.append(a[k] * M + B // (k + 1))
        need_rest = a[k_prime - 2] * (M - 1)
    if k_prime < k_dprime:
        caps_max.append(a[k_prime - 1] * (M - 1) + (B // k_prime if k == 1 else 0))
        caps_rest.append(a[k_prime - 1] * (M - 1))
        need_rest = max(need_rest, a[k_dprime - 2] * (M - 2))

    def capped(caps: List[int]) -> List[int]:
        values = sorted(tail_terms.union(caps))
        return values[: bisect_right(values, min(caps))] if caps else values

    return a[k - 1] * M + B // k, capped(caps_max), need_rest, capped(caps_rest)


def _prefix_loads(M: int, k: int, k_prime: int, k_dprime: int) -> Optional[List[int]]:
    """Loads of resources 1..k''-1, or None if some band would go negative."""
    prefix = (
        [M] * k + [M - 1] * (k_prime - k - 1) + [M - 2] * (k_dprime - k_prime)
    )
    if prefix and prefix[-1] < 0:
        return None
    return prefix


def feasible_load_vector(
    coeffs, row: tuple, alpha: Tuple[int, int], cbar_max: int, cbar_rest: int
) -> Optional[Tuple[int, ...]]:
    """Witness load vector for this shape, alpha and pair of costs, or None.

    `coeffs` and the costs are on the :func:`_scaled_form` scale, and alpha
    is ``(p, q)`` for p/q.  `row` starts as a :func:`_shape_table` row,
    ``(shape, prefix, leftover)``; the caller has checked both costs against
    the head conditions at alpha.  What remains is to bound each tail load,
    from ``ceil(c / a_r) - 1`` for c either cost up to ``floor(alpha *
    cbar_rest / a_r)``, and to fill the leftover players in greedily from the
    left.  A zero-coefficient tail resource would offer a free alternative,
    which is compatible with the assumed minima only if both are zero.
    """
    (M, _, _, k_dprime), prefix, leftover = row[:3]
    p, q = alpha
    least, most = max(cbar_max, cbar_rest), p * cbar_rest
    bounds = []
    for a in coeffs[k_dprime - 1 :]:
        if a:
            lower, upper = max(0, -(-least // a) - 1), min(M - 3, most // (q * a))
        elif least:
            return None
        else:
            lower, upper = 0, M - 3
        if lower > upper:
            return None
        bounds.append((lower, upper))

    spare = leftover - sum(lower for lower, _ in bounds)
    if spare < 0:
        return None
    loads = list(prefix)
    for lower, upper in bounds:
        take = min(upper - lower, spare)
        loads.append(lower + take)
        spare -= take
    return None if spare else tuple(loads)


def _shape_table(inst: Instance, form) -> Iterator[tuple]:
    """One row for every shape that fits n players, in scan order.

    A row is ``(shape, prefix, leftover, need_max, cmax, need_rest, crest)``.
    `shape` is ``(M, k, k', k'')``, `prefix` its :func:`_prefix_loads`,
    `leftover` the players left for resources k''..m, and the last four its
    :func:`cbar_candidates` on the scale of `form`, the instance's
    :func:`_scaled_form`; none depends on alpha.
    """
    n, m = inst.n, inst.m
    for M in range(-(-n // m), n + 1):
        for k in range(1, m):
            if k * M > n:
                break
            for k_prime in range(k + 1, m + 2):
                for k_dprime in range(k_prime, m + 2):
                    prefix = _prefix_loads(M, k, k_prime, k_dprime)
                    if prefix is None:
                        continue
                    leftover = n - sum(prefix)
                    if leftover < 0 or (k_dprime == m + 1 and leftover != 0):
                        continue
                    shape = (M, k, k_prime, k_dprime)
                    yield (shape, prefix, leftover) + cbar_candidates(form, *shape)


def _pairs(row: tuple, alpha: Fraction, passes: Callable) -> Iterator:
    """What `passes` gives, bar None, for the row's pairs inside the windows at alpha.

    Pairs (cbar_max, cbar_rest) come in increasing order of cbar_max, then of
    cbar_rest; at alpha = p/q a value c passes ``need <= alpha * c`` iff c >=
    ceil(q * need / p), so each sorted list is kept from one bisection on.
    `passes` gives None for a pair whose fill fails at alpha.  The fill then
    fails for every larger cbar_max too, as the tail lower bounds only grow
    with it, so that cbar_rest is dropped for the rest of the row.
    """
    _, _, _, need_max, cmax_all, need_rest, crest_all = row
    p, q = alpha.numerator, alpha.denominator
    live = crest_all[bisect_left(crest_all, -(-q * need_rest // p)) :]
    for cmax in cmax_all[bisect_left(cmax_all, -(-q * need_max // p)) :]:
        if not live:
            return
        kept = []
        for crest in live:
            found = passes(cmax, crest)
            if found is not None:
                kept.append(crest)
                yield found
        live = kept


def _feasible_witness(inst: Instance, form, alpha: Fraction, shapes) -> Optional[Tuple[int, ...]]:
    """The first fill of :func:`_pairs` that is an alpha-approximate equilibrium, or None.

    `shapes` are :func:`_shape_table` rows of `inst`.  An all-equal profile,
    which has no shape, is tried first.
    """
    n, m, a = inst.n, inst.m, form[0]
    if n % m == 0 and is_alpha_pne(inst, (n // m,) * m, alpha):
        return (n // m,) * m
    for row in shapes:
        fill = partial(feasible_load_vector, a, row, (alpha.numerator, alpha.denominator))
        for witness in _pairs(row, alpha, fill):
            if is_alpha_pne(inst, witness, alpha):
                return witness
    return None


def _room(coeffs, row: tuple) -> Optional[int]:
    """Least integer ``alpha * cbar_rest`` at which the row's tail holds its leftover players.

    Tail load r holds at most ``min(M - 3, floor(alpha * cbar_rest / a_r))``
    players, or M - 3 if a_r = 0, so x = ``alpha * cbar_rest`` makes room for
    one more player at each step ``t * a_r <= x`` with t <= M - 3: the least
    x is the step, in the merged sorted steps, that seats the last player
    the free resources leave over.  None if there are too few steps.
    """
    (M, _, _, k_dprime), _, leftover = row[:3]
    tail = coeffs[k_dprime - 1 :]
    short = leftover - (M - 3) * tail.count(0)
    steps = merge(*(range(a, a * (M - 2), a) for a in tail if a))
    return 0 if short <= 0 else next(islice(steps, short - 1, None), None)


def _least_factor(
    coeffs, row: tuple, room: Optional[int], cbar_max: int, cbar_rest: int
) -> Optional[Fraction]:
    """Least alpha at which the pair passes the row's head conditions and fills, or None.

    `room` is the row's :func:`_room`.  Besides 1, ``need_max / cbar_max``
    and ``need_rest / cbar_rest``, alpha must reach ``room / cbar_rest`` and
    lift every upper tail bound of :func:`feasible_load_vector` to its lower
    one, ``lower_r = ceil(max(cbar_max, cbar_rest) / a_r) - 1``: ``lower_r *
    a_r / cbar_rest``.  No alpha helps if a lower bound exceeds M - 3, if
    they sum past the leftover, or if a free tail resource undercuts a
    positive cost.
    """
    if room is None or not cbar_max:
        return None
    (M, _, _, k_dprime), _, leftover, need_max, _, need_rest, _ = row
    least = max(cbar_max, cbar_rest)
    top, total = max(room, need_rest), 0
    for a in coeffs[k_dprime - 1 :]:
        lower = max(0, -(-least // a) - 1) if a else 0
        if (least and not a) or lower > M - 3:
            return None
        top, total = max(top, lower * a), total + lower
    if total > leftover or (top and not cbar_rest):
        return None
    return max(Fraction(1), Fraction(need_max, cbar_max), Fraction(top, cbar_rest or 1))


def _least_score(inst: Instance, form, shapes) -> Fraction:
    """The least ``max(1, needed_alpha)`` of a pair's fill at its :func:`_least_factor`.

    The score starts at 2, above every optimum, or at the all-equal
    profile's.  :func:`_pairs` keeps each row's pairs whose least factor is
    at most the score the row starts with, and scores a fill only if its
    factor is below the running score.
    """
    n, m, a = inst.n, inst.m, form[0]
    best = Fraction(2)
    if n % m == 0:
        best = min(best, max(Fraction(1), needed_alpha(inst, (n // m,) * m)))
    for row in shapes:
        room, bound = _room(a, row), best

        def within(cmax: int, crest: int):
            factor = _least_factor(a, row, room, cmax, crest)
            return None if factor is None or factor > bound else (cmax, crest, factor)

        for cmax, crest, factor in _pairs(row, bound, within):
            if factor < best:
                alpha = (factor.numerator, factor.denominator)
                fill = feasible_load_vector(a, row, alpha, cmax, crest)
                best = min(best, max(Fraction(1), needed_alpha(inst, fill)))
    return best


def best_alpha(inst: Instance) -> OptResult:
    """Smallest factor for which an approximate equilibrium exists, with witness.

    A probe at alpha = 1 settles most instances.  Otherwise the optimum is
    :func:`_least_score`, and the witness is a probe's at that factor.  The
    passes share the lazily built shape table.
    """
    form = _scaled_form(inst)
    first, second, third = tee(_shape_table(inst, form), 3)
    alpha, witness = Fraction(1), _feasible_witness(inst, form, Fraction(1), first)
    if witness is None:
        alpha = _least_score(inst, form, second)
        witness = _feasible_witness(inst, form, alpha, third) if alpha < 2 else None
    if witness is None:
        raise RuntimeError("no factor below 2 is feasible, against the existence guarantee")
    return OptResult(alpha_star=alpha, witness=witness, binding=binding_deviation(inst, witness))
