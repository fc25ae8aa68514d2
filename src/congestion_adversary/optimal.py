"""Instance-optimal approximation factor via load-shape enumeration.

A decreasing load profile is summarized by its shape: the maximum load M, the
last index k carrying load M, and the first indices k', k'' whose loads drop
below M-1 and M-2.  For each shape there are only polynomially many candidate
values for the best-alternative costs seen by max-load players and by the
rest; given a shape, those two values, and a factor alpha, a short greedy
procedure either produces a witness load vector or proves none exists.  For
a fixed shape and pair of values the factors that pass form a half-line, so
each pair has a least factor, a maximum of a few ratios of cost values.  One
pass over a table of the shape data that does not depend on alpha fills each
pair at its least factor and scores the fill by the factor it needs; the
optimum is the least score, and the witness the first pair met on the way
whose fill at the optimum passes there.  The scan is in exact integers on
one scale, :func:`_scaled_form`; only the optimum and witness checks use
Fractions.

Shape indices k, k', k'' are 1-based to match the non-increasing load
picture; the sentinel value m+1 for k' (or k'') means no resource has load
below M-1 (or M-2).  Coefficient lookups translate to the 0-based arrays used
everywhere else.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .core import Instance, _score, binding_deviation

__all__ = ["best_alpha"]


@dataclass(frozen=True)
class OptResult:
    alpha_star: Fraction
    witness: Tuple[int, ...]
    #: (ratio, resource, best deviation target, cost, deviation cost) of the
    #: tightest deviation in the witness, or None for a single resource.
    binding: Optional[Tuple[object, int, int, Fraction, Fraction]]


def _scaled_form(inst: Instance) -> Tuple[Tuple[int, ...], int, int]:
    """The instance's `form` ``(A, B, D)``, each times L = lcm(1..m).

    A cost value a_r * load + B / p with p <= m is then the integer
    ``A[r] * load + B // p`` over the common denominator D, exactly.
    """
    coeffs, budget, scale = inst.form
    shares = math.lcm(*range(1, inst.m + 1))
    return tuple(a * shares for a in coeffs), budget * shares, scale * shares


def cbar_candidates(
    form, M: int, k: int, k_prime: int, k_dprime: int, terms: List[int]
) -> Tuple[int, List[int], int, List[int]]:
    """This shape's head conditions, stated once: ``(need_max, cmax, need_rest, crest)``.

    `cmax` holds every value the best-alternative cost of the max-load
    players can take: each argument of its minimum, sorted, deduplicated and
    cut at the smallest argument outside the tail, which bounds the realized
    minimum.  `crest` is the same for the rest.  At a factor alpha, a value c
    of `cmax` passes the head conditions iff ``need_max <= alpha * c``, and a
    value of `crest` iff ``need_rest <= alpha * c``.  Values are integers on
    the scale of `form`, the instance's :func:`_scaled_form`; `terms` are the
    tail's, from :func:`_tail_data`.
    """
    a, B, _ = form
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
        return terms[: bisect_left(terms, min(caps))] + [min(caps)] if caps else terms

    return a[k - 1] * M + B // k, capped(caps_max), need_rest, capped(caps_rest)


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


def _tail_data(coeffs, M: int, k_dprime: int) -> Tuple[List[int], int, List[int]]:
    """What every shape with this ``(M, k'')`` shares: ``(terms, free, steps)``.

    `terms` are the sorted distinct tail costs ``c * t``, t < M - 1, that
    :func:`cbar_candidates` cuts; `free` counts zero tail coefficients;
    `steps` are the sorted ``t * a_r``, a_r > 0 and t <= M - 3.  Tail load r
    holds at most ``min(M - 3, floor(alpha * cbar_rest / a_r))`` players, so
    ``alpha * cbar_rest`` seats one more at each step, and a lower tail bound
    ``ceil(c / a_r) - 1`` counts r's steps below c.
    """
    tail = coeffs[k_dprime - 1 :]
    terms = sorted({c * t for c in set(tail) for t in range(1, M - 1)})
    steps = sorted([a * t for a in tail if a for t in range(1, M - 2)])
    return terms, tail.count(0), steps


def _shape_table(inst: Instance, form) -> Iterator[tuple]:
    """One row for each shape of a decreasing profile not all at the peak, in scan order.

    A row is ``(shape, prefix, leftover, need_max, cmax, need_rest, crest,
    room, steps)``: ``(M, k, k', k'')``, the loads of resources 1..k''-1, the
    players left for k''..m, the shape's :func:`cbar_candidates` on the scale
    of `form`, the least integer ``alpha * cbar_rest`` at which the tail seats
    them, and the tail's `steps` from :func:`_tail_data`, built once per
    ``(M, k'')``.  Admitted iff ``0 <= leftover <= (m - k'' + 1) * (M - 3)``:
    M - 3 players per tail resource, a bound that at M < 3 refuses a tail or a
    band below load 0, and falls by one less than leftover per step of k''.
    """
    n, m, a = inst.n, inst.m, form[0]
    for M in range(-(-n // m), n + 1):
        tails = {}
        for k in range(1, m):
            if k * M > n:
                break
            for k_prime in range(k + 1, m + 2):
                base = n - k * M - (k_prime - k - 1) * (M - 1)  # leftover at k'' = k'
                for k_dprime in range(k_prime + max(0, base - (m - k_prime + 1) * (M - 3)), m + 2):
                    leftover = base - (k_dprime - k_prime) * (M - 2)
                    if leftover < 0:
                        break
                    if k_dprime not in tails:
                        tails[k_dprime] = _tail_data(a, M, k_dprime)
                    terms, free, steps = tails[k_dprime]
                    short = leftover - (M - 3) * free
                    room = steps[short - 1] if short > 0 else 0
                    shape = (M, k, k_prime, k_dprime)
                    prefix = [M] * k + [M - 1] * (k_prime - k - 1) + [M - 2] * (k_dprime - k_prime)
                    heads = cbar_candidates(form, *shape, terms)
                    yield (shape, prefix, leftover, *heads, room, steps)


def _least_factor(coeffs, row: tuple, cbar_max: int, cbar_rest: int) -> Optional[Tuple[int, int]]:
    """Least alpha at which the pair passes the row's head conditions and fills, or None.

    Returned as ``(p, q)`` for p/q, not in lowest terms.  Besides 1 and the
    two ``need / c``, alpha must reach the row's ``room / cbar_rest`` and
    lift each upper tail bound of :func:`feasible_load_vector` to its lower
    one, ``lower_r = ceil(c / a_r) - 1`` for c the larger cost: ``lower_r *
    a_r / cbar_rest``, the largest step below c.  None if c > ``(M - 2) *
    a_r`` for the least tail coefficient (then lower_r > M - 3), or if the
    steps below c, the lower bounds' sum, outnumber the leftover players.
    """
    (M, _, _, k_dprime), _, leftover, need_max, _, need_rest, _, room, steps = row
    least = max(cbar_max, cbar_rest)
    if not cbar_max or (k_dprime <= len(coeffs) and least > (M - 2) * coeffs[k_dprime - 1]):
        return None
    total = bisect_left(steps, least)
    top = max(room, need_rest, steps[total - 1] if total else 0)
    if total > leftover or (top and not cbar_rest):
        return None
    if top * cbar_max >= need_max * (cbar_rest or 1):
        return (top, cbar_rest) if top > cbar_rest else (1, 1)
    return (need_max, cbar_max) if need_max > cbar_max else (1, 1)


def best_alpha(inst: Instance) -> OptResult:
    """Smallest factor for which an approximate equilibrium exists, with witness.

    One pass over the shape table fills each pair at its least factor and
    scores the fill; the optimum is the least score, from 2 or the all-equal
    profile's.  A pair of factor 1 whose fill is exact answers at once.  Only
    pairs of factor at most the running score count: a row's `crest` values
    below its ``need_rest`` or ``room`` at that score are cut up front, and
    those that fail by their tail part are dropped for the rest of the row,
    where the tail part only grows.  The witness is the all-equal profile or
    the first pair recorded on the way whose fill at the optimum passes there.
    """
    form = _scaled_form(inst)
    n, m, a = inst.n, inst.m, form[0]
    equal = (n // m,) * m if n % m == 0 else None
    start = _score(form, equal) if equal else (2, 1)
    if start == (1, 1):
        return _checked(inst, Fraction(1), equal)
    p, q = start if start[0] <= 2 * start[1] else (2, 1)
    recorded, kept_at = [], 0
    for row in _shape_table(inst, form):
        head, (need_max, cmax_all, need_rest, crest_all, room, _) = row[:3], row[3:]
        live = crest_all[bisect_left(crest_all, -(-q * max(need_rest, room) // p)) :]
        for cmax in cmax_all[bisect_left(cmax_all, -(-q * need_max // p)) :]:
            if not live:
                break
            if need_max * q > p * cmax:
                continue
            kept = []
            for crest in live:
                factor = _least_factor(a, row, cmax, crest)
                if factor is None:
                    continue
                f, g = factor
                if f * q > p * g:
                    if need_max * q > p * cmax:  # need_max / cmax alone fails: keep crest
                        kept.append(crest)
                    continue
                kept.append(crest)
                recorded.append((head, cmax, crest, factor))
                if f == g or f * q < p * g:
                    fill = feasible_load_vector(a, head, factor, cmax, crest)
                    score = _score(form, fill)
                    if f == g and score == (1, 1):
                        return _checked(inst, Fraction(1), fill)
                    if score[0] * q < p * score[1]:
                        p, q = score
                        if len(recorded) > 2 * kept_at:  # drop what the new best rules out
                            recorded = [r for r in recorded if r[3][0] * q <= p * r[3][1]]
                            kept_at = len(recorded)
            live = kept
    if p >= 2 * q:
        raise RuntimeError("no factor below 2 is feasible, against the existence guarantee")
    alpha = Fraction(p, q)
    if equal and start[0] * q <= p * start[1]:
        return _checked(inst, alpha, equal)
    for head, cmax, crest, (f, g) in recorded:
        if f * q <= p * g:
            fill = feasible_load_vector(a, head, (p, q), cmax, crest)
            score = _score(form, fill)
            if score[0] * q <= p * score[1]:
                return _checked(inst, alpha, fill)
    return _checked(inst, alpha, None)


def _checked(inst: Instance, alpha: Fraction, witness) -> OptResult:
    """The result for this optimum and witness, once one pricing shows it passes there."""
    if witness is None or sum(witness) != inst.n:
        raise RuntimeError(f"no witness of {inst.n} players at the optimum {alpha}")
    binding = binding_deviation(inst, witness)
    if binding is not None and binding[0] > alpha:
        raise RuntimeError(f"the witness needs {binding[0]}, above the optimum {alpha}")
    return OptResult(alpha_star=alpha, witness=witness, binding=binding)
