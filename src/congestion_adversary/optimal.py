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
whose fill at the optimum passes there.  No pair past a row's cut has a
least factor, so the scan reads each row's values only from the window its
head conditions leave at the running score up to that cut, out of a prefix
of the tail's steps shared by every row of the same M and k''.  The scan is
in exact integers on one scale, :func:`_scaled_form`; only the optimum and
witness checks use Fractions.

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

from .core import FORM_MAX_BITS, GameError, Instance, _score, binding_deviation

__all__ = ["best_alpha"]


@dataclass(frozen=True)
class OptResult:
    alpha_star: Fraction
    witness: Tuple[int, ...]
    #: (ratio, resource, best deviation target, cost, deviation cost) of the
    #: tightest deviation in the witness, or None for a single resource.
    binding: Optional[Tuple[object, int, int, Fraction, Fraction]]


def _scaled_form(inst: Instance) -> Tuple[Tuple[int, ...], int, int]:
    """The instance's `form` ``(A, B, D)``, each times L = lcm(1..min(m, n + 1)).

    Every budget share the scan forms is B / p with p in {k, k + 1, k'}, all
    at most m.  They are at most n + 1 too: k * M <= n gives k <= n, and B /
    k' is formed only when k = 1 and k' < k'', where one resource carries M
    and k' - 2 carry M - 1 >= 1, so k' <= n (at M = 1 the table admits no k'
    < k'': those resources would sit at load -1).  A cost value a_r * load +
    B / p is then the integer ``A[r] * load + B // p`` over the common
    denominator D, exactly; pricing and scoring never divide.  Raises
    GameError when m times the bit length of D * L passes FORM_MAX_BITS, as
    :func:`_instance` does for D, before any coefficient is scaled.
    """
    coeffs, budget, scale = inst.form
    shares = math.lcm(*range(1, min(inst.m, inst.n + 1) + 1))
    if inst.m * (scale * shares).bit_length() > FORM_MAX_BITS:
        raise GameError(f"m times the bit length of the scaled denominator passes {FORM_MAX_BITS} (m={inst.m})")
    return tuple(a * shares for a in coeffs), budget * shares, scale * shares


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
    """One row for each shape of a decreasing profile not all at the peak, in scan order.

    A row is ``(shape, prefix, leftover, need_max, cap_max, need_rest,
    cap_rest, tail)``: ``(M, k, k', k'')``, the loads of resources 1..k''-1,
    the players left for k''..m, the shape's head conditions on the scale of
    `form`, and the tail's step prefix ``[steps, values, bound]`` that
    :func:`_drawn` extends, shared by every row of one ``(M, k'')`` (None
    when k'' = m + 1).  Admitted iff ``0 <= leftover <= (m - k'' + 1) * (M -
    3)``: M - 3 players per tail resource, a bound that at M < 3 refuses a
    tail or a band below load 0, and falls by one less than leftover per
    step of k''.  So the admitted k'' form a window, which is empty until k'
    reaches the first that leaves ``base <= (m - k' + 1) * (M - 2)``, and
    again once `base` turns negative.

    The best-alternative cost of the max-load players is the least of the
    tail's costs ``c * t`` (c a tail coefficient, t < M - 1) and of the
    arguments outside the tail, whose least, `cap_max`, bounds it; None when
    there is none.  So the values it can take are the distinct tail costs
    below `cap_max`, then `cap_max`.  `cap_rest` is the same for the rest.
    At a factor alpha, a value c passes the max-load head conditions iff
    ``need_max <= alpha * c``, and those of the rest iff ``need_rest <=
    alpha * c``.  Only need_rest's ``a_{k''-1} * (M - 2)`` is found per row.
    """
    n, m = inst.n, inst.m
    a, B, _ = form
    for M in range(-(-n // m), n + 1):
        tails, top = {}, a[0] * (M + 1) + B
        for k in range(1, m):
            if k * M > n:
                break
            rest = n - k * M
            need_max, first = a[k - 1] * M + B // k, top if k >= 2 else None
            # A band at M - 1 adds a_{k+1} (0-based a[k]) to each cap, one at M - 2 a_{k'}.
            second = a[k] * M + B // k if k == 1 else min(top, a[k] * M + B // k)
            second_rest = min(top, a[k] * M + B // (k + 1))
            for k_prime in range(k + 1 + max(0, rest - (m - k) * (M - 2)), m + 2):
                base = rest - (k_prime - k - 1) * (M - 1)  # leftover at k'' = k'
                if base < 0:
                    break
                if k_prime >= k + 2:
                    cap_max, need, cap_rest = second, a[k_prime - 2] * (M - 1), second_rest
                else:
                    cap_max, need, cap_rest = first, 0, top
                if k_prime <= m:
                    low = a[k_prime - 1] * (M - 1)
                    band_max = low + (B // k_prime if k == 1 else 0)
                    band_max = band_max if cap_max is None else min(cap_max, band_max)
                    band_rest = min(cap_rest, low)
                for k_dprime in range(k_prime + max(0, base - (m - k_prime + 1) * (M - 3)), m + 2):
                    leftover = base - (k_dprime - k_prime) * (M - 2)
                    if leftover < 0:
                        break
                    if k_dprime not in tails:
                        tails[k_dprime] = [[], [], a[k_dprime - 1]] if k_dprime <= m else None
                    prefix = [M] * k + [M - 1] * (k_prime - k - 1) + [M - 2] * (k_dprime - k_prime)
                    if k_dprime == k_prime:
                        heads = (need_max, cap_max, need, cap_rest)
                    else:
                        heads = (need_max, band_max, max(need, a[k_dprime - 2] * (M - 2)), band_rest)
                    yield ((M, k, k_prime, k_dprime), prefix, leftover, *heads, tails[k_dprime])


def _drawn(coeffs, M: int, k_dprime: int, tail: list, count: int) -> Tuple[List[int], List[int]]:
    """The tail's sorted steps ``t * a_r`` (t <= M - 3), drawn to `count` or all: ``(steps, values)``.

    `tail` is ``[steps, values, bound]``, the steps below `bound` and their
    distinct `values`, extended in place one value band ``[bound, 2 *
    bound)`` at a time: a ``range`` per tail coefficient that has steps in
    it, and one sort.  The tail's least coefficient must be positive.
    """
    steps, values, bound = tail
    most = (M - 3) * coeffs[-1]
    while len(steps) < count and bound <= most:
        high, band = 2 * bound, []
        first = bisect_left(coeffs, -(-bound // (M - 3)), k_dprime - 1)
        for a in coeffs[first : bisect_left(coeffs, high, first)]:
            band += range(-(-bound // a) * a, min(high, (M - 3) * a + 1), a)
        band.sort()
        steps += band
        values += dict.fromkeys(band)
        bound = high
    tail[2] = bound
    return steps, values


def _windows(coeffs, row: tuple, p: int, q: int) -> Optional[tuple]:
    """The row's values that can make a pair of least factor at most p/q, or None if none can.

    Returns ``(cmax, crest, room, steps)``.  A pair has no least factor once
    its larger cost passes the cut: the least of ``(M - 2) * a_{k''}`` and
    the ``(leftover + 1)``-th smallest step (see :func:`_least_factor`).  So
    each list is the window of its values from ``ceil(need / alpha)`` up to
    its cap or the cut: the distinct steps there, then the top itself if it
    is the cap or ``(M - 2) * a_{k''}``, the one tail cost ``c * t`` up to
    the cut that need not be a step.  `room` is the least integer ``alpha *
    cbar_rest`` at which the tail seats the leftover players, the
    leftover-th smallest step, and `steps` the prefix those reads come from.
    Before the draw, a = a_{k''}, whose own steps are a, 2a, ..., bounds
    both: ``cut <= min(leftover + 1, M - 2) * a``, and ``room >=
    ceil(leftover / (m - k'' + 1)) * a``, as no tail coefficient has more
    than x // a steps up to x; a row that these show empty is not drawn.
    """
    (M, _, _, k_dprime), _, leftover, need_max, cap_max, need_rest, cap_rest, tail = row
    if (cap_max is not None and need_max * q > p * cap_max) or need_rest * q > p * cap_rest:
        return None
    if tail is None:  # No tail, no cut: each list is its cap.
        cut = last = max(cap_max, cap_rest)
        room, steps, values = 0, [], []
    else:
        least = coeffs[k_dprime - 1]
        cut, last = min(leftover + 1, M - 2) * least, (M - 2) * least
        room = -(-leftover // (len(coeffs) - k_dprime + 1)) * least
        if need_max * q > p * cut or max(need_rest, room) * q > p * min(cap_rest, cut):
            return None
        steps, values = _drawn(coeffs, M, k_dprime, tail, leftover + 1)
        room = steps[leftover - 1] if leftover else 0
        if len(steps) > leftover:
            cut = min(cut, steps[leftover])
    windows = []
    for low, cap in ((-(-q * need_max // p), cap_max), (-(-q * max(need_rest, room) // p), cap_rest)):
        top = cut if cap is None else min(cap, cut)
        window = values[bisect_left(values, low) : bisect_right(values, top)]
        if low <= top and top in (cap, last) and not (window and window[-1] == top):
            window.append(top)
        windows.append(window)
    return (*windows, room, steps)


def _least_factor(steps, room, need_max, need_rest, cbar_max, cbar_rest) -> Optional[Tuple[int, int]]:
    """Least alpha at which a pair within its row's cut passes the head conditions and fills, or None.

    Returned as ``(p, q)`` for p/q, not in lowest terms.  Besides 1 and the
    two ``need / c``, alpha must reach the row's ``room / cbar_rest`` and
    lift each upper tail bound of :func:`feasible_load_vector` to its lower
    one, ``lower_r = ceil(c / a_r) - 1`` for c the larger cost: ``lower_r *
    a_r / cbar_rest``, the largest of the row's `steps` below c.  The lower
    bounds fail past the cut of :func:`_windows`: lower_r > M - 3 for the
    least tail coefficient, or more steps below c, the lower bounds' sum,
    than leftover players.  Within it, None only for a zero `cbar_max`, or
    a zero `cbar_rest` that must lift a bound.
    """
    if not cbar_max:
        return None
    total = bisect_left(steps, max(cbar_max, cbar_rest))
    top = max(room, need_rest, steps[total - 1] if total else 0)
    if top and not cbar_rest:
        return None
    if top * cbar_max >= need_max * (cbar_rest or 1):
        return (top, cbar_rest) if top > cbar_rest else (1, 1)
    return (need_max, cbar_max) if need_max > cbar_max else (1, 1)


def best_alpha(inst: Instance) -> OptResult:
    """Smallest factor for which an approximate equilibrium exists, with witness.

    One pass over the shape table fills each pair at its least factor and
    scores the fill; the optimum is the least score, from 2 or the all-equal
    profile's.  A pair of factor 1 whose fill is exact answers at once.  Only
    pairs of factor at most the running score count: each row's values are
    cut to its :func:`_windows` at that score up front, without drawing its
    tail where the least tail coefficient shows a window empty, and `crest`
    values that fail by their tail part are dropped for the rest of the row,
    where the tail part only grows.  The witness is the all-equal profile or
    the first pair recorded on the way whose fill at the optimum passes there.
    Raises GameError where :func:`_scaled_form` passes FORM_MAX_BITS.
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
        windows = _windows(a, row, p, q)
        if windows is None:
            continue
        head, need_max, need_rest = row[:3], row[3], row[5]
        cmax_window, live, room, steps = windows
        for cmax in cmax_window:
            if not live:
                break
            if need_max * q > p * cmax:
                continue
            kept = []
            for crest in live:
                factor = _least_factor(steps, room, need_max, need_rest, cmax, crest)
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
