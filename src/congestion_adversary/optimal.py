"""Instance-optimal approximation factor via load-shape enumeration.

A decreasing load profile is summarized by its shape: the maximum load M, the
last index k carrying load M, and the first indices k', k'' whose loads drop
below M-1 and M-2.  For each shape there are only polynomially many candidate
values for the best-alternative costs seen by max-load players and by the
rest; given a shape, those two values, and a factor alpha, a short greedy
procedure either produces a witness load vector or proves none exists.  The
optimal factor is then the smallest member of a finite candidate-ratio set
for which any shape is feasible.  The probes of that binary search share one
table of the shape data that does not depend on alpha: the prefix loads and
the two candidate lists, already cut by the head conditions without alpha, so
that a probe keeps the suffix of each list past one bisection.  The scan is in
exact integers on one scale, :func:`_scaled_form`; only the witness checks use
Fractions.

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
from typing import Iterator, List, Optional, Tuple

from .core import (
    Instance,
    _integer_form,
    binding_deviation,
    is_alpha_pne,
    k_upper_bound,
)

__all__ = [
    "OptResult",
    "cbar_candidates",
    "candidate_alphas",
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


def candidate_alphas(inst: Instance, precision: int = 12) -> List[Fraction]:
    """All ratios of possible cost values, clipped to [1, upper threshold].

    Cost values are a_r * load + (an even budget share or nothing); the
    optimal factor is always a ratio of two of them, so this list contains it.

    Only ratios inside the window are formed.  Every value is scaled to an
    integer, by the lcm of the denominators times lcm(1..m) for the shares
    B/p, p <= m, and the distinct values are sorted once.  For each u the
    values v with 1 <= u/v <= cn/cd, the threshold bound, are the sorted run
    ceil(u*cd/cn) <= v <= u, found by two bisections.  Two distinct ratios
    u/v and u'/v' differ by at least 1/(v*v') > 1/S, with S = (largest
    value)**2 + 1, so the integer key u*S // v orders the ratios and tells
    them apart.  Fractions are made only for the ratios returned.
    """
    coeffs, budget, _ = _scaled_form(inst)
    extras = [0] + [budget // p for p in range(1, inst.m + 1)]
    values = sorted(
        {
            a * load + extra
            for a in set(coeffs)
            for load in range(inst.n + 1)
            for extra in extras
        }
    )
    ceiling = k_upper_bound(precision)
    cn, cd = ceiling.numerator, ceiling.denominator
    S = values[-1] ** 2 + 1
    ratios = {S: (1, 1)}
    for u in values[bisect_right(values, 0) :]:
        low = bisect_left(values, -(-u * cd // cn))
        high = bisect_right(values, u, low)
        ratios.update((u * S // v, (u, v)) for v in values[low:high])
    return [Fraction(*ratios[key]) for key in sorted(ratios)]


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


class _Memo:
    """An iterable that draws each item from `source` once, on first use."""

    def __init__(self, source: Iterator) -> None:
        self._source = source
        self._items: list = []

    def __iter__(self) -> Iterator:
        i = 0
        while True:
            if i == len(self._items):
                item = next(self._source, None)
                if item is None:
                    return
                self._items.append(item)
            yield self._items[i]
            i += 1


def _feasible_witness(inst: Instance, form, alpha: Fraction, shapes) -> Optional[Tuple[int, ...]]:
    """Some alpha-approximate equilibrium with decreasing loads, or None.

    `shapes` is the :func:`_shape_table` of `inst`.  Pairs (cbar_max,
    cbar_rest) are tried in increasing order of cbar_max, then of cbar_rest.
    Once :func:`feasible_load_vector` gives None for a cbar_rest, it gives
    None for every larger cbar_max that passes the head condition: the tail
    lower bounds only grow with cbar_max, and nothing else depends on it.  So
    that cbar_rest is dropped for the rest of the shape; the pairs still
    tried keep their order, and the first witness returned is the same.  On
    the scale of `form`, a value c passes ``need <= alpha * c`` at alpha =
    p/q iff c >= ceil(q * need / p), so each sorted list is kept from one
    bisection on.
    """
    n, m = inst.n, inst.m
    a, B, _ = form
    p, q = alpha.numerator, alpha.denominator

    if n % m == 0:
        M = n // m
        if q * (a[m - 1] * M + B // m) <= p * (a[0] * (M + 1) + B):
            witness = (M,) * m
            if is_alpha_pne(inst, witness, alpha):
                return witness

    for row in shapes:
        _, _, _, need_max, cmax_all, need_rest, crest_all = row
        first = bisect_left(cmax_all, -(-q * need_max // p))
        if first == len(cmax_all):
            continue
        live = crest_all[bisect_left(crest_all, -(-q * need_rest // p)) :]
        for cmax in cmax_all[first:]:
            if not live:
                break
            kept = []
            for crest in live:
                witness = feasible_load_vector(a, row, (p, q), cmax, crest)
                if witness is None:
                    continue
                if is_alpha_pne(inst, witness, alpha):
                    return witness
                kept.append(crest)
            live = kept
    return None


def best_alpha(inst: Instance) -> OptResult:
    """Smallest factor for which an approximate equilibrium exists, with witness.

    Binary search over the candidate ratios; feasibility is monotone in the
    factor, and existence at the upper threshold is guaranteed, so the search
    always succeeds.  The optimum is at most K, inside every candidate window.
    """
    candidates = candidate_alphas(inst)
    lo, hi = 0, len(candidates) - 1
    witnesses = {}
    form = _scaled_form(inst)
    shapes = _Memo(_shape_table(inst, form))

    def feasible(i: int) -> bool:
        if i not in witnesses:
            witnesses[i] = _feasible_witness(inst, form, candidates[i], shapes)
        return witnesses[i] is not None

    if not feasible(hi):
        raise RuntimeError(
            "no candidate factor is feasible; this contradicts the existence "
            "guarantee and indicates a bug"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    witness = witnesses[hi]
    return OptResult(
        alpha_star=candidates[hi],
        witness=witness,
        binding=binding_deviation(inst, witness),
    )
