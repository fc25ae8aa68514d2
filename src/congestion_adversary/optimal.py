"""Instance-optimal approximation factor via load-shape enumeration.

A decreasing load profile is summarized by its shape: the maximum load M, the
last index k carrying load M, and the first indices k', k'' whose loads drop
below M-1 and M-2.  For each shape there are only polynomially many candidate
values for the best-alternative costs seen by max-load players and by the
rest.  For a fixed shape and pair of values the factors at which some load
vector of that shape is a witness form a half-line, so each pair has a least
factor, a maximum of a few ratios of cost values, which alone decides the
pair; at it a short greedy procedure builds the witness load vector.  One
pass over a table of each shape's alpha-free data fills each pair at its
least factor and scores the fill by the factor it needs; the optimum is the
least score, and the witness the first profile scored at it.  The table
reads the running score: it builds no row whose heads or tail's least
coefficient leave no pair there, and stops at the first M whose one shape
left its cut refuses.  Each row's values run from where its heads start at
the score up to its cut, past which no pair has a least factor.  All is in
exact integers, the scan on one scale, :func:`_scaled_form`, built only
where inserting each player at its cheapest move ends off an exact
equilibrium; it starts from that profile.  Only the binding is in Fractions.

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

from .core import FORM_MAX_BITS, GameError, Instance, _above, _binding, _deviation, _pricing, _score
from .solver import _peaks, _shift

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
) -> Tuple[int, ...]:
    """The witness load vector for this shape, alpha and pair of costs.

    `coeffs` and the costs are on the :func:`_scaled_form` scale, and alpha
    is ``(p, q)`` for p/q.  `row` is a row :func:`_shape_table` built, so
    every tail coefficient a_r is positive (a zero least one puts the cut at
    0, below need_max >= 1), and the pair lies within its cut with a
    :func:`_least_factor` of at most alpha.  Tail load r runs from ``lower
    = ceil(c / a_r) - 1``, c the larger cost, up to ``min(M - 3, floor(alpha
    * cbar_rest / a_r))``: lower * a_r is a step below c, so at most that
    factor times cbar_rest, and lower <= M - 3 as c <= (M - 2) * a_{k''}.
    The lower bounds sum to the steps below c, at most leftover within the
    cut; the upper ones seat every leftover player, as the room, the
    leftover-th step, is at most that factor times cbar_rest too.
    """
    (M, _, _, k_dprime), prefix, leftover = row[:3]
    p, q = alpha
    least, most = max(cbar_max, cbar_rest), p * cbar_rest
    bounds = [(-(-least // a) - 1, min(M - 3, most // (q * a))) for a in coeffs[k_dprime - 1 :]]
    spare, loads = leftover - sum(lower for lower, _ in bounds), list(prefix)
    for lower, upper in bounds:
        take = min(upper - lower, spare)
        loads.append(lower + take)
        spare -= take
    if spare:
        raise RuntimeError(f"the fill of shape {row[0]} seats {leftover - spare} of its {leftover} tail players")
    return tuple(loads)


def _shape_table(inst: Instance, form, score) -> Iterator[tuple]:
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

    A row is built only if some pair can pass at `score`, the scan's running
    ``(p, q)``, read afresh for each row ((1, 0) is infinite): both heads,
    and two bounds from the tail's least coefficient a = a_{k''}, whose own
    steps are a, 2a, ...: :func:`_windows`' ``cut <= min(leftover + 1, M -
    2) * a``, and ``room >= ceil(leftover / (m - k'' + 1)) * a``, as no tail
    coefficient has more than x // a steps up to x.  As k'' grows the needs
    only grow and the caps only fall, so a head failure ends its loop; for
    k >= 2 every cap_max is at most `top`, which skips (M, k).

    Once 2M >= n + 3 no second resource fits at M, M - 1 or M - 2 (that
    needs 2M, 2M - 1 or 2M - 2 <= n), k'' = m + 1 included: (M, 1, 2, 2) is
    the one shape, its tail from a[1] seating n - M.  Its need_max is ``a[0]
    * M + B`` and its cut ``(n - M + 1) * a[1]``, as n - M + 1 <= M - 2; the
    tail test refuses the row once the need passes the score times the cut,
    whatever else may refuse it too.  As M grows the need never falls, the
    cut never rises and the score only falls, so the first M refused so ends
    the loop; at m = 1 there is no a[1] and no row.
    """
    n, m = inst.n, inst.m
    a, B, _ = form
    for M in range(-(-n // m), n + 1):
        if m > 1 and 2 * M >= n + 3 and (a[0] * M + B) * score[1] > score[0] * (n - M + 1) * a[1]:
            break
        tails, top = {}, a[0] * (M + 1) + B
        for k in range(1, m):
            if k * M > n:
                break
            rest = n - k * M
            need_max, first = a[k - 1] * M + B // k, top if k >= 2 else None
            if k >= 2 and need_max * score[1] > score[0] * top:
                continue
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
                    cmax_cap, crest_cap = (cap_max, cap_rest) if k_dprime == k_prime else (band_max, band_rest)
                    need_rest = need if k_dprime == k_prime else max(need, a[k_dprime - 2] * (M - 2))
                    p, q = score
                    if (cmax_cap is not None and need_max * q > p * cmax_cap) or need_rest * q > p * crest_cap:
                        break  # and so every later k''
                    if k_dprime <= m:
                        least = a[k_dprime - 1]
                        cut, room = min(leftover + 1, M - 2) * least, -(-leftover // (m - k_dprime + 1)) * least
                        if need_max * q > p * cut or max(need_rest, room) * q > p * min(crest_cap, cut):
                            continue
                    if k_dprime not in tails:
                        tails[k_dprime] = [[], [], a[k_dprime - 1]] if k_dprime <= m else None
                    prefix = [M] * k + [M - 1] * (k_prime - k - 1) + [M - 2] * (k_dprime - k_prime)
                    heads = (need_max, cmax_cap, need_rest, crest_cap)
                    yield ((M, k, k_prime, k_dprime), prefix, leftover, *heads, tails[k_dprime])


#: Per the gen ladder the count was fitted on, a row takes 2.6 us and a counted step 0.14 us: about 16.
ROW_WORK = 16


def _scan_work(n: int, m: int, limit: int) -> int:
    """The scan's work count: ROW_WORK per row of :func:`_shape_table`, a bound on its tail steps, and m * min(m, n + 1) // 32.

    Rows are counted exactly, per peak load M and first tail index k'': a
    row is a way to write s = 2k + j (k resources at M, j at M - 1, k + j <
    k'') that leaves ``n - (k'' - 1)(M - 2) - s`` players, between 0 and the
    tail's ``(m - k'' + 1)(M - 3)``.  Each (M, k'') draws at most its largest
    leftover plus one of its steps, and at most all of them: at most
    ``min(n - 1 - (k'' - 1)(M - 2), (m - k'' + 1)(M - 3))``, summed here over
    every M >= 3 and k'' that leaves a player, so that the count never falls
    as n or m grows.  Below M = n // m + 1 no row is admitted and the first
    term is the larger, which sums in closed form.  ``m * min(m, n + 1) //
    32`` is the integer form over lcm(1..min(m, n + 1)), the scan's scale: m
    numbers of about 1.44 min(m, n + 1) bits each.
    Where a bound on the count, n peak loads of at most m**3 rows and n * m
    steps each, fits under `limit`, it is returned uncounted: counting takes
    18-29 us at n <= 15, m = 3.  Else counting stops once past `limit`; past
    it the count is a lower bound.
    """

    def ways(s: int, k_dprime: int) -> int:  # to write at most s as 2k + j, k >= 1, j >= 0, k + j < k''
        over = max(0, s - k_dprime)
        return s * s // 4 - over * (over + 1) // 2

    if m < 2:
        return 0
    form = m * min(m, n + 1) // 32
    work = n * m * (ROW_WORK * m * m + n) + form
    if work <= limit:
        return work
    low, row = n // m, ROW_WORK
    t = max(0, low - 3)
    work = form + row * (n < m) + m * (m - 1) // 2 * (t * (t + 1) // 2)
    for M in range(max(2, low + 1), n + 1):
        if work > limit:
            break
        s = n - m * (M - 2)  # No tail: the leftover 0 fixes s, and k < m.
        if 2 <= s <= 2 * m:
            work += row * (ways(s, m + 1) - ways(s - 1, m + 1) - (s == 2 * m))
        if M < 3:
            continue
        b, c = M - 2, M - 3
        last = min(m, (n - 2) // b + 1)  # the last k'' that leaves a player
        split = min(max(2, n - m * c), last + 1)  # from here n - 1 - (k'' - 1) b is the smaller
        work += c * ((split - 2) * (m - 1) - (split - 2) * (split - 3) // 2)
        work += (last - split + 1) * (2 * n - 2 - b * (split + last - 2)) // 2
        for k_dprime in range(max(2, -(-(n - m * c + 3) // 3)), last + 1):
            top = n - (k_dprime - 1) * b  # leftover plus s
            first = max(1, top - (m - k_dprime + 1) * c - 1)
            work += row * max(0, ways(min(2 * k_dprime - 2, top), k_dprime) - ways(first, k_dprime))
    return work


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


def _windows(coeffs, row: tuple, p: int, q: int) -> tuple:
    """The row's values that can make a pair of least factor at most p/q.

    Returns ``(cmax, crest, room)``.  A pair has no least factor once
    its larger cost passes the cut: the least of ``(M - 2) * a_{k''}`` and
    the ``(leftover + 1)``-th smallest step (see :func:`_least_factor`).  So
    each list is the window of its values from ``ceil(need / alpha)`` up to
    its cap or the cut: the distinct steps there, then the top itself if it
    is the cap or ``(M - 2) * a_{k''}``, the one tail cost ``c * t`` up to
    the cut that need not be a step.  `room` is the least integer ``alpha *
    cbar_rest`` at which the tail seats the leftover players, the
    leftover-th smallest step.  The row must be one :func:`_shape_table`
    built at p/q: its least tail coefficient is then positive.
    """
    (M, _, _, k_dprime), _, leftover, need_max, cap_max, need_rest, cap_rest, tail = row
    if tail is None:  # No tail, no cut: each list is its cap.
        cut = last = max(cap_max, cap_rest)
        room, values = 0, []
    else:
        least = coeffs[k_dprime - 1]
        cut, last = min(leftover + 1, M - 2) * least, (M - 2) * least
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
    return (*windows, room)


def _least_factor(room, need_max, need_rest, cbar_max, cbar_rest) -> Tuple[int, int]:
    """Least alpha at which a pair within its row's cut passes the head conditions and fills.

    Returned as ``(p, q)`` for p/q, not in lowest terms; it alone decides
    the pair, and :func:`feasible_load_vector` builds its fill.  Besides 1
    and the two ``need / c``, alpha must reach ``room / cbar_rest`` and lift
    each tail load's upper bound ``floor(alpha * cbar_rest / a_r)`` to its
    lower one ``ceil(c / a_r) - 1``, c the larger cost: the largest step
    below c, over cbar_rest, which never passes the room, as within the cut
    at most leftover steps lie below c.  The lower bounds fail past the cut
    of :func:`_windows`: lower_r > M - 3 for the least tail coefficient, or
    more steps below c, the lower bounds' sum, than leftover players.
    Within the windows every pair has one: a `cbar_max` window starts at
    ``ceil(need_max / alpha) >= 1``, as need_max >= B / k >= 1 on the scaled
    form, and a zero `cbar_rest` needs need_rest = room = 0: nothing to lift.
    """
    top = max(room, need_rest)
    if top * cbar_max >= need_max * (cbar_rest or 1):
        return (top, cbar_rest) if top > cbar_rest else (1, 1)
    return (need_max, cbar_max) if need_max > cbar_max else (1, 1)


def best_alpha(inst: Instance) -> OptResult:
    """Smallest factor for which an approximate equilibrium exists, with witness.

    One resource seats everyone at 1.  Else each player enters in turn at
    its cheapest move on the instance's own form, as :func:`solver.solve`
    inserts; an exact equilibrium there is the witness at 1, checked by the
    pricing that found it.  Else :func:`_scan` answers, seeded with that
    profile and its score, on :func:`_scaled_form`, which may raise GameError.
    """
    form, m = inst.form, inst.m
    if m == 1:
        return _checked(inst, Fraction(1), (inst.n,))
    loads, heads, tails = [0] * m, [(0, 0)], []
    for _ in range(inst.n):
        _shift(heads, tails, loads, _pricing(form, loads, heads, _peaks(heads, tails, m))[2][2], 1)
    found = _binding(form, loads)
    if found[0][0] <= found[0][1]:
        return _checked(inst, Fraction(1), tuple(loads), found)
    return _scan(inst, _scaled_form(inst), tuple(loads), found[0])


def _scan(inst: Instance, form, seed, seed_score: Tuple[int, int]) -> OptResult:
    """The optimum and witness from one pass over the shape table of `form`, the scaled form.

    The pass fills each pair at its least factor and scores the fill; the
    optimum is the least score, from the least of 2, the all-equal profile's
    and `seed_score`, the ``(p, q)`` of the profile `seed`.  Only pairs of
    factor at most the running score count: the table, reading that score,
    builds no row it shows empty, each row's values are cut to its
    :func:`_windows` at that score up front, and `crest` values that fail by
    their tail part are dropped for the rest of the row, where the tail part
    only grows.  The witness is the first profile whose score reached the
    optimum: the all-equal profile, then `seed`, then each fill in scan
    order; a fill that scores 1 answers at once.
    """
    n, m, a = inst.n, inst.m, form[0]
    equal = (n // m,) * m if n % m == 0 else None
    start = _score(form, equal) if equal else (2, 1)
    if start == (1, 1):
        return _checked(inst, Fraction(1), equal)
    witness, (p, q) = (equal, start) if start[0] < 2 * start[1] else (None, (2, 1))
    if seed_score[0] * q < p * seed_score[1]:
        witness, (p, q) = seed, seed_score
    running = [p, q]
    for row in _shape_table(inst, form, running):
        need_max, need_rest = row[3], row[5]
        cmax_window, live, room = _windows(a, row, p, q)
        for cmax in cmax_window:
            if not live:
                break
            if need_max * q > p * cmax:
                continue
            kept = []
            for crest in live:
                f, g = factor = _least_factor(room, need_max, need_rest, cmax, crest)
                if f * q > p * g:
                    if need_max * q > p * cmax:  # need_max / cmax alone fails: keep crest
                        kept.append(crest)
                    continue
                kept.append(crest)
                if f == g or f * q < p * g:
                    fill = feasible_load_vector(a, row, factor, cmax, crest)
                    score = _score(form, fill)
                    if score == (1, 1):
                        return _checked(inst, Fraction(1), fill)
                    if score[0] * q < p * score[1]:
                        witness, (p, q) = fill, score
                        running[:] = score
            live = kept
    if p >= 2 * q:
        raise RuntimeError("no factor below 2 is feasible, against the existence guarantee")
    return _checked(inst, Fraction(p, q), witness)


def _checked(inst: Instance, alpha: Fraction, witness, found=None) -> OptResult:
    """The result for this optimum and witness, once one integer pricing, `found` or its own, shows it passes."""
    if witness is None or sum(witness) != inst.n:
        raise RuntimeError(f"no witness of {inst.n} players at the optimum {alpha}")
    found = found or _binding(inst.form, witness)
    binding = _deviation(inst.form, found)
    if found is not None and _above(alpha, *found[0]):
        raise RuntimeError(f"the witness needs {binding[0]}, above the optimum {alpha}")
    return OptResult(alpha_star=alpha, witness=witness, binding=binding)
