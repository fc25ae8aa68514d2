import math
import random
from bisect import bisect_left
from fractions import Fraction
from heapq import merge
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congestion_adversary import (
    GameError,
    best_alpha,
    binding_deviation,
    generate_instance,
    is_alpha_pne,
    k_upper_bound,
    make_fixtures,
    needed_alpha,
    oracle_best_alpha,
    scale_instance,
    validate_instance,
)
from congestion_adversary import optimal
from congestion_adversary.core import FORM_MAX_BITS
from congestion_adversary.optimal import (
    _checked,
    _drawn,
    _least_factor,
    _scaled_form,
    _shape_table,
    _windows,
    feasible_load_vector,
)
from test_oracle import padded_partitions

# The V^2 candidate set and the shape scan that best_alpha replaced, with
# each shape's uncapped candidate lists and its head conditions checked value
# by value, and the scan's capped lists, tail bounds, fill, per-row steps,
# room and least factor in Fractions, built whole for every row, kept as the
# specification the faster integer versions must reproduce exactly.


def reference_candidate_alphas(inst, precision=12):
    values = set()
    for a in set(inst.coefficients):
        for load in range(inst.n + 1):
            base = a * load
            values.add(base)
            for p in range(1, inst.m + 1):
                values.add(base + inst.budget / p)
    ceiling = k_upper_bound(precision)
    ratios = {Fraction(1)}
    windows = [(v, ceiling * v) for v in values if v > 0]
    for u in values:
        for v, top in windows:
            if v <= u <= top:
                ratios.add(u / v)
    return sorted(ratios)


def reference_cbar_candidates(inst, M, k, k_prime, k_dprime):
    """Every argument of each best-alternative minimum: (for max-load players, for the rest)."""
    a, B, m = inst.coefficients, inst.budget, inst.m
    tail_terms = [a[r - 1] * (load + 1) for r in range(k_dprime, m + 1) for load in range(M - 2)]
    cmax = [] if k == 1 else [a[0] * (M + 1) + B]
    if k_prime >= k + 2:
        cmax.append(a[k] * M + B / k)
    if k_prime < k_dprime:
        if k == 1:
            cmax.append(a[k_prime - 1] * (M - 1) + B / k_prime)
        else:
            cmax.append(a[k_prime - 1] * (M - 1))
    cmax.extend(tail_terms)
    crest = [a[0] * (M + 1) + B]
    if k_prime >= k + 2:
        crest.append(a[k] * M + B / (k + 1))
    if k_prime < k_dprime:
        crest.append(a[k_prime - 1] * (M - 1))
    crest.extend(tail_terms)
    return sorted(set(cmax)), sorted(set(crest))


def reference_head_ok_max(inst, M, k, k_prime, k_dprime, alpha, cbar_max):
    """Head conditions involving only the max-load alternative cost."""
    a, B = inst.coefficients, inst.budget
    if a[k - 1] * M + B / k > alpha * cbar_max:
        return False
    if k >= 2 and a[0] * (M + 1) + B < cbar_max:
        return False
    if k_prime >= k + 2 and a[k] * M + B / k < cbar_max:
        return False
    if k_prime < k_dprime:
        if k == 1 and a[k_prime - 1] * (M - 1) + B / k_prime < cbar_max:
            return False
        if k >= 2 and a[k_prime - 1] * (M - 1) < cbar_max:
            return False
    return True


def reference_head_ok_rest(inst, M, k, k_prime, k_dprime, alpha, cbar_rest):
    """Head conditions involving only the below-max alternative cost."""
    a, B = inst.coefficients, inst.budget
    if k_prime >= k + 2 and a[k_prime - 2] * (M - 1) > alpha * cbar_rest:
        return False
    if k_prime < k_dprime and a[k_dprime - 2] * (M - 2) > alpha * cbar_rest:
        return False
    if a[0] * (M + 1) + B < cbar_rest:
        return False
    if k_prime >= k + 2 and a[k] * M + B / (k + 1) < cbar_rest:
        return False
    if k_prime < k_dprime and a[k_prime - 1] * (M - 1) < cbar_rest:
        return False
    return True


def reference_windows(inst, shape, alpha):
    """The reference's cbar_max and cbar_rest values that pass the head conditions at alpha."""
    cmax_all, crest_all = reference_cbar_candidates(inst, *shape)
    return (
        [c for c in cmax_all if reference_head_ok_max(inst, *shape, alpha, c)],
        [c for c in crest_all if reference_head_ok_rest(inst, *shape, alpha, c)],
    )


def reference_capped_candidates(inst, M, k, k_prime, k_dprime):
    """``(need_max, cmax, need_rest, crest)`` in Fractions, each list cut at its smallest cap."""
    a = inst.coefficients
    B = inst.budget
    tail_terms = {
        a[r - 1] * (load + 1) for r in range(k_dprime, inst.m + 1) for load in range(0, M - 2)
    }
    top = a[0] * (M + 1) + B
    caps_max = [top] if k >= 2 else []
    caps_rest = [top]
    need_rest = 0
    if k_prime >= k + 2:
        caps_max.append(a[k] * M + B / k)
        caps_rest.append(a[k] * M + B / (k + 1))
        need_rest = a[k_prime - 2] * (M - 1)
    if k_prime < k_dprime:
        caps_max.append(a[k_prime - 1] * (M - 1) + (B / k_prime if k == 1 else 0))
        caps_rest.append(a[k_prime - 1] * (M - 1))
        need_rest = max(need_rest, a[k_dprime - 2] * (M - 2))

    def capped(caps):
        values = sorted(tail_terms.union(caps))
        return [v for v in values if v <= min(caps)] if caps else values

    return a[k - 1] * M + B / k, capped(caps_max), need_rest, capped(caps_rest)


def reference_prefix_loads(M, k, k_prime, k_dprime):
    """Loads of resources 1..k''-1, or None if some band would go negative."""
    prefix = [M] * k + [M - 1] * (k_prime - k - 1) + [M - 2] * (k_dprime - k_prime)
    if prefix and prefix[-1] < 0:
        return None
    return prefix


def reference_room(inst, row):
    """Least alpha * cbar_rest at which the row's tail holds its leftover players, or None.

    Built per row as the scan used to: the free resources take M - 3 players
    each, and the rest are seated at the merged steps t * a_r, t <= M - 3.
    """
    (M, _, _, k_dprime), _, leftover = row[:3]
    tail = inst.coefficients[k_dprime - 1 :]
    short = leftover - (M - 3) * tail.count(0)
    steps = merge(*([a * t for t in range(1, M - 2)] for a in tail if a))
    return 0 if short <= 0 else next(islice(steps, short - 1, None), None)


def reference_steps(inst, row):
    """Every step ``t * a_r`` of the row's tail, a_r > 0 and t <= M - 3, sorted."""
    (M, _, _, k_dprime), _, _ = row[:3]
    return sorted(a * t for a in inst.coefficients[k_dprime - 1 :] if a for t in range(1, M - 2))


def reference_cut(inst, row):
    """The cost past which no pair of the row has a least factor, or None without a tail.

    The least of ``(M - 2) * a_{k''}``, past which the least tail coefficient's
    lower bound passes M - 3, and the ``(leftover + 1)``-th smallest step,
    past which the lower bounds sum past the leftover players.
    """
    (M, _, _, k_dprime), _, leftover = row[:3]
    if k_dprime > inst.m:
        return None
    return min([(M - 2) * inst.coefficients[k_dprime - 1]] + reference_steps(inst, row)[leftover : leftover + 1])


def reference_least_factor(inst, row, room, cbar_max, cbar_rest):
    """Least alpha at which a pair passes the head conditions and fills, by the tail loop."""
    if room is None or not cbar_max:
        return None
    (M, _, _, k_dprime), _, leftover = row[:3]
    need_max, _, need_rest, _ = reference_capped_candidates(inst, *row[0])
    least = max(cbar_max, cbar_rest)
    top, total = max(room, need_rest), 0
    for a in inst.coefficients[k_dprime - 1 :]:
        lower = max(0, math.ceil(least / a) - 1) if a else 0
        if (least and not a) or lower > M - 3:
            return None
        top, total = max(top, lower * a), total + lower
    if total > leftover or (top and not cbar_rest):
        return None
    return max(Fraction(1), need_max / cbar_max, top / (cbar_rest or 1))


def reference_tail_bounds(inst, r, M, alpha, cbar_max, cbar_rest):
    """Lower/upper load bounds for a tail resource r (1-based), or None."""
    a_r = inst.coefficients[r - 1]
    if a_r == 0:
        if cbar_rest > 0 or cbar_max > 0:
            return None
        lower = 0
        upper = M - 3
    else:
        lower = max(0, math.ceil(cbar_rest / a_r) - 1, math.ceil(cbar_max / a_r) - 1)
        upper = min(M - 3, math.floor(alpha * cbar_rest / a_r))
    if lower > upper:
        return None
    return lower, upper


def reference_load_vector(inst, row, alpha, cbar_max, cbar_rest):
    """The greedy fill of a row's tail at a Fraction alpha and Fraction costs."""
    (M, _, _, k_dprime), prefix, leftover = row[:3]
    bounds = []
    for r in range(k_dprime, inst.m + 1):
        b = reference_tail_bounds(inst, r, M, alpha, cbar_max, cbar_rest)
        if b is None:
            return None
        bounds.append(b)
    low = sum(b[0] for b in bounds)
    high = sum(b[1] for b in bounds)
    if not low <= leftover <= high:
        return None
    loads = prefix + [b[0] for b in bounds]
    leftover -= low
    for i, (b_low, b_high) in enumerate(bounds):
        take = min(b_high - b_low, leftover)
        loads[k_dprime - 1 + i] += take
        leftover -= take
    return tuple(loads)


def reference_feasible_witness(inst, alpha):
    n, m = inst.n, inst.m
    a, B = inst.coefficients, inst.budget
    if n % m == 0:
        M = n // m
        if a[m - 1] * M + B / m <= alpha * (a[0] * (M + 1) + B):
            witness = (M,) * m
            if is_alpha_pne(inst, witness, alpha):
                return witness
    for M in range(math.ceil(n / m), n + 1):
        for k in range(1, m):
            if k * M > n:
                break
            for k_prime in range(k + 1, m + 2):
                for k_dprime in range(k_prime, m + 2):
                    prefix = reference_prefix_loads(M, k, k_prime, k_dprime)
                    if prefix is None:
                        continue
                    leftover = n - sum(prefix)
                    if leftover < 0:
                        continue
                    if k_dprime == m + 1 and leftover != 0:
                        continue
                    shape = (M, k, k_prime, k_dprime)
                    cmax_ok, crest_ok = reference_windows(inst, shape, alpha)
                    row = (shape, prefix, leftover)
                    for cmax in cmax_ok:
                        for crest in crest_ok:
                            witness = reference_load_vector(inst, row, alpha, cmax, crest)
                            if witness is not None and is_alpha_pne(inst, witness, alpha):
                                return witness
    return None


def reference_best_alpha(inst):
    candidates = reference_candidate_alphas(inst)
    lo, hi = 0, len(candidates) - 1
    witnesses = {}

    def feasible(i):
        if i not in witnesses:
            witnesses[i] = reference_feasible_witness(inst, candidates[i])
        return witnesses[i] is not None

    assert feasible(hi)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return candidates[hi], witnesses[hi], binding_deviation(inst, witnesses[hi])


def jittered(name, t, seed):
    """A fixture with coefficients and budget jittered by up to 2 %, players and budget times t."""
    rng = random.Random(seed)
    base = make_fixtures()[name].instance

    def jitter():
        return 1 + Fraction(rng.randint(-20, 20), 1000)

    return validate_instance(
        [a * jitter() for a in base.coefficients], base.n * t, base.budget * jitter() * t
    )


@st.composite
def small_instances(draw, min_m=1, max_m=6, max_n=10):
    """Coefficients and budget over denominators up to 12, often with a zero coefficient."""
    m = draw(st.integers(min_m, max_m))
    fractions = st.builds(Fraction, st.integers(0, 24), st.integers(1, 12))
    coefficients = draw(st.lists(fractions, min_size=m, max_size=m))
    if draw(st.booleans()):
        coefficients[0] = Fraction(0)
    budget = draw(st.builds(Fraction, st.integers(1, 24), st.integers(1, 12)))
    return validate_instance(coefficients, draw(st.integers(1, max_n)), budget)


class TestCandidates:
    @pytest.mark.parametrize("seed", range(25))
    def test_contains_the_optimum(self, seed):
        inst = generate_instance(n=2 + seed % 6, m=2 + seed % 3, seed=seed).instance
        value, _ = oracle_best_alpha(inst)
        assert value in reference_candidate_alphas(inst)


def shape_of(loads):
    """``(M, k, k', k'')`` of a decreasing profile, indices 1-based as in `optimal`."""
    m, M = len(loads), loads[0]
    k_prime = next((i + 1 for i, x in enumerate(loads) if x < M - 1), m + 1)
    k_dprime = next((i + 1 for i, x in enumerate(loads) if x < M - 2), m + 1)
    return M, loads.count(M), k_prime, k_dprime


def scan_inputs(inst):
    """The instance's scaled form and its shape table as a list, as best_alpha builds them."""
    form = _scaled_form(inst)
    return form, list(_shape_table(inst, form))


def assert_rows_are_the_profile_shapes(inst, form, rows):
    """The table holds each shape of a decreasing profile not all at the peak once, and no other.

    Admission by tail capacity is exact, so every row whose tail has no free
    resource has at least leftover steps, and its room is one of them.
    """
    shapes = [row[0] for row in rows]
    assert len(set(shapes)) == len(shapes)
    assert set(shapes) == {
        shape_of(loads) for loads in padded_partitions(inst.n, inst.m) if loads[-1] != loads[0]
    }
    for (M, _, _, k_dprime), _, leftover, *_, tail in rows:
        if tail is not None and form[0][k_dprime - 1]:
            assert len(_drawn(form[0], M, k_dprime, tail, leftover)[0]) >= leftover


def table_row(inst, shape):
    """The one row of the instance's shape table for `shape`."""
    (row,) = [row for row in scan_inputs(inst)[1] if row[0] == shape]
    return row


def in_fractions(form, row):
    """A row's first seven fields, costs divided by the scale: the reference's values."""
    scale = form[2]
    shape, prefix, leftover, need_max, cap_max, need_rest, cap_rest = row[:7]
    return (
        shape,
        prefix,
        leftover,
        Fraction(need_max, scale),
        None if cap_max is None else Fraction(cap_max, scale),
        Fraction(need_rest, scale),
        Fraction(cap_rest, scale),
    )


def scan_windows(form, row, alpha=None):
    """The row's ``(cmax, crest, room, steps)`` as best_alpha cuts them at alpha, or None.

    Without alpha, at a factor past every ratio the row can need, so that
    each list runs from its least positive value up to the row's cut.
    """
    if alpha is None:
        p, q = 1 + max(row[3], row[5], row[0][0] * max(form[0])), 1
    else:
        p, q = alpha.numerator, alpha.denominator
    return _windows(form[0], row, p, q)


def least_factor(form, row, cmax, crest):
    """The least factor of a pair within the row's cut, from the room and steps best_alpha draws."""
    cut = scan_windows(form, row)
    return None if cut is None else _least_factor(cut[3], cut[2], row[3], row[5], cmax, crest)


def reference_scan_windows(inst, row, alpha):
    """The reference windows at alpha as the scan cuts them: up to the row's cut, crest from room / alpha."""
    cut, room = reference_cut(inst, row), reference_room(inst, row)
    cmax_ok, crest_ok = reference_windows(inst, row[0], alpha)
    return (
        [c for c in cmax_ok if cut is None or c <= cut],
        [c for c in crest_ok if (cut is None or c <= cut) and room <= alpha * c],
    )


def assert_scan_windows(inst, form, row, alpha):
    """best_alpha's windows of the row at alpha are the reference's, and None only where one is empty."""
    cut = scan_windows(form, row, alpha)
    expected = reference_scan_windows(inst, row, alpha)
    if cut is None:
        assert not expected[0] or not expected[1]
    else:
        assert [[Fraction(c, form[2]) for c in values] for values in cut[:2]] == list(expected)


def capped_ints(inst, form, shape):
    """The reference's capped cmax and crest lists, on the integer scale of `form`."""
    _, cmax, _, crest = reference_capped_candidates(inst, *shape)
    return [int(c * form[2]) for c in cmax], [int(c * form[2]) for c in crest]


def boundary_ratios(inst, form, rows):
    """Every row's ratios need / c over the reference's values: where only equality decides."""
    scale = form[2]
    return {
        Fraction(need, scale) / c
        for row in rows
        for need, values in zip((row[3], row[5]), reference_cbar_candidates(inst, *row[0]))
        for c in values
        if c > 0 and need > 0
    }


def witness_at(inst, alpha):
    """The witness best_alpha takes at an optimum alpha, found without the pass.

    The all-equal profile if it passes at alpha; otherwise, over every pair
    of every row in scan order, the first with least factor at most alpha
    whose fill at alpha passes there.
    """
    n, m = inst.n, inst.m
    if n % m == 0 and is_alpha_pne(inst, (n // m,) * m, alpha):
        return (n // m,) * m
    form, rows = scan_inputs(inst)
    for row in rows:
        cut = scan_windows(form, row, alpha)
        if cut is None:
            continue
        cmax_window, crest_window, room, steps = cut
        for cmax in cmax_window:
            for crest in crest_window:
                factor = _least_factor(steps, room, row[3], row[5], cmax, crest)
                if factor is None or Fraction(*factor) > alpha:
                    continue
                p, q = alpha.numerator, alpha.denominator
                fill = feasible_load_vector(form[0], row, (p, q), cmax, crest)
                if is_alpha_pne(inst, fill, alpha):
                    return fill
    return None


class TestFeasibleLoadVector:
    def test_witness_shape_for_example(self, example1):
        # (2,2,1): two resources at the maximum load 2, the third at 1 = M-1,
        # so both breakpoint indices sit past the last resource.  The
        # alternative cost of a max-load player is 6 (join r1), of the r3
        # player also 6.
        row = table_row(example1, (2, 2, 4, 4))
        assert row[1:3] == ([2, 2, 1], 0)
        coeffs, _, scale = _scaled_form(example1)
        witness = feasible_load_vector(coeffs, row, (7, 6), 6 * scale, 6 * scale)
        assert witness == (2, 2, 1)
        assert witness == reference_load_vector(
            example1, row, Fraction(7, 6), Fraction(6), Fraction(6)
        )
        assert is_alpha_pne(example1, witness, Fraction(7, 6))

    def test_infeasible_below_the_optimum(self, example1):
        # At 8/7 the r2 players' cost 7 exceeds 8/7 times their best
        # alternative 6: the max-load head condition rules the shape out
        # before any fill, and no other shape holds a witness either.
        form, rows = scan_inputs(example1)
        row = table_row(example1, (2, 2, 4, 4))
        _, _, _, need_max, cap_max, _, _ = in_fractions(form, row)
        assert need_max == 7 and cap_max == 6
        assert scan_windows(form, row, Fraction(8, 7)) is None
        assert scan_windows(form, row, Fraction(7, 6))[0] == [6 * form[2]]
        assert witness_at(example1, Fraction(8, 7)) is None
        assert witness_at(example1, Fraction(7, 6)) == (2, 2, 1)
        assert Fraction(*least_factor(form, row, 6 * form[2], 6 * form[2])) == Fraction(7, 6)

    @given(small_instances(min_m=2, max_n=12), st.data())
    @settings(deadline=None, max_examples=150)
    def test_none_stays_none_as_cbar_max_grows(self, inst, data):
        # The lemma behind the scan's pruning: for a fixed shape and
        # cbar_rest, once the greedy fill fails at some cbar_max, it fails at
        # every larger cbar_max that passes the max-load head conditions.
        # The shape is that of a random decreasing profile, and the factor is
        # often the one that profile needs, so that many fills succeed.
        n, m = inst.n, inst.m
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
        loads = sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True)
        shape = shape_of(loads)
        assume(shape[1] < m)
        ceiling = k_upper_bound(12)
        needed = max(needed_alpha(inst, loads), Fraction(1))
        alpha = data.draw(
            st.sampled_from([needed, ceiling] if needed <= ceiling else [ceiling])
            | st.fractions(min_value=1, max_value=Fraction(6, 5), max_denominator=12)
        )
        form = _scaled_form(inst)
        scale = form[2]
        row = table_row(inst, shape)
        cmax_window, crest_window = (
            [int(c * scale) for c in values] for values in reference_windows(inst, shape, alpha)
        )
        # Values off the table count too, so long as they pass the head
        # conditions of the specification.
        extra = data.draw(st.lists(st.integers(0, 40 * scale)))
        cmax_ok = sorted(
            set(cmax_window)
            | {c for c in extra if reference_head_ok_max(inst, *shape, alpha, Fraction(c, scale))}
        )
        # As in the scan, only cbar_rest values that pass the head conditions
        # are filled; the fill itself no longer checks them.
        for crest in crest_window:
            fills = [
                feasible_load_vector(form[0], row, (alpha.numerator, alpha.denominator), c, crest)
                for c in cmax_ok
            ]
            assert fills == [
                reference_load_vector(inst, row, alpha, Fraction(c, scale), Fraction(crest, scale))
                for c in cmax_ok
            ]
            first_none = next((i for i, w in enumerate(fills) if w is None), len(fills))
            assert all(w is None for w in fills[first_none:])

    @given(small_instances(min_m=2, max_n=12), st.data())
    @settings(deadline=None, max_examples=150)
    def test_windows_and_tail_bounds_equal_the_reference(self, inst, data):
        # The integer windows and fills equal the Fraction reference's where
        # rounding could tell them apart: at candidate ratios, at each row's
        # boundary ratios need / c, and at each exact quotient a_r * t / c of
        # a tail coefficient, a load t <= M - 3 and a cbar_rest c, where the
        # upper tail bound floor(alpha * c / a_r) lands on t exactly.  A run
        # of leading zero coefficients puts free resources in the tail.
        zeros = data.draw(st.integers(0, inst.m - 1))
        inst = validate_instance(
            [0] * zeros + list(inst.coefficients[zeros:]), inst.n, inst.budget
        )
        form, rows = scan_inputs(inst)
        scale = form[2]
        capped = {row[0]: capped_ints(inst, form, row[0]) for row in rows}
        tails = [
            (row, a, c)
            for row in rows
            for a in set(inst.coefficients[row[0][3] - 1 :])
            for c in capped[row[0]][1]
            if a > 0 and c > 0 and row[0][0] > 3
        ]
        ratios = sorted(boundary_ratios(inst, form, rows))
        source = data.draw(
            st.sampled_from(["candidate"] + ["boundary"] * bool(ratios) + ["quotient"] * bool(tails))
        )
        # The fill does not read the head conditions, so every pair of a few
        # rows is filled, windowed or not; a quotient's own row is one of them.
        checked = data.draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []
        if source == "quotient":
            row, a, c = data.draw(st.sampled_from(tails))
            alpha = a * data.draw(st.integers(1, row[0][0] - 3)) / Fraction(c, scale)
            checked.append(row)
        else:
            alpha = data.draw(
                st.sampled_from(ratios if source == "boundary" else reference_candidate_alphas(inst))
            )
        p, q = alpha.numerator, alpha.denominator
        for row in rows:
            assert_scan_windows(inst, form, row, alpha)
        for row in checked:
            for cmax in capped[row[0]][0]:
                for crest in capped[row[0]][1]:
                    assert feasible_load_vector(
                        form[0], row, (p, q), cmax, crest
                    ) == reference_load_vector(
                        inst, row, alpha, Fraction(cmax, scale), Fraction(crest, scale)
                    )


class TestShapeTable:
    @given(small_instances(min_m=2, max_n=12))
    @settings(deadline=None, max_examples=150)
    def test_every_decreasing_profile_has_its_row(self, inst):
        # The fill takes a shape's prefix and leftover from its row and
        # checks neither, so every shape some profile has must be there once,
        # with exactly that profile's head loads and tail total, with the
        # caps of the reference's capped lists on the integer scale, and,
        # cut at every factor, with the reference's lists up to the row's
        # cut, its room, and a prefix of its steps that reaches past
        # leftover, drawn into the record every row of its (M, k'') shares.
        form, rows = scan_inputs(inst)
        by_shape = {row[0]: row for row in rows}
        assert_rows_are_the_profile_shapes(inst, form, rows)
        for loads in padded_partitions(inst.n, inst.m):
            shape = shape_of(loads)
            if shape[1] == inst.m:
                continue  # All at the peak: best_alpha tries it directly.
            row = by_shape[shape]
            (M, _, _, k_dprime), prefix, leftover, *heads, tail = row
            assert prefix == list(loads[: k_dprime - 1])
            assert leftover == sum(loads[k_dprime - 1 :])
            need_max, cmax, need_rest, crest = reference_capped_candidates(inst, *shape)
            assert in_fractions(form, row)[3:] == (
                need_max,
                None if heads[1] is None else cmax[-1],
                need_rest,
                crest[-1],
            )
            cut = scan_windows(form, row)
            if cut is None:
                continue  # A free tail resource or a zero cap: no pair has a least factor.
            top = reference_cut(inst, row)
            assert [Fraction(c, form[2]) for c in cut[0]] == [
                c for c in cmax if c > 0 and (top is None or c <= top)
            ]
            room, steps = cut[2:]
            assert room == reference_room(inst, row) * form[2]
            if tail is None:
                assert steps == []
            else:
                assert steps is tail[0]
            reference = [s * form[2] for s in reference_steps(inst, row)]
            assert steps == reference[: len(steps)]
            assert len(steps) > leftover or steps == reference

    @pytest.mark.parametrize("m", range(1, 9))
    def test_rows_are_the_profile_shapes_on_a_grid(self, m):
        # Shapes depend on n and m alone, rooms on the zero coefficients too:
        # a third of the coefficients are zero.
        zeros = m // 3
        for n in range(1, 31):
            inst = validate_instance([0] * zeros + list(range(1, m - zeros + 1)), n, 1)
            assert_rows_are_the_profile_shapes(inst, *scan_inputs(inst))

    @given(small_instances(min_m=2, max_n=12))
    @settings(deadline=None, max_examples=100)
    def test_rows_of_one_m_and_k_dprime_share_their_tail_data(self, inst):
        # Each (M, k'') builds its tail record once: every row of it holds
        # the very same one, whose step prefix each row draws further.
        _, rows = scan_inputs(inst)
        by_tail = {}
        for row in rows:
            assert row[7] is by_tail.setdefault((row[0][0], row[0][3]), row[7])

    @given(small_instances(min_m=2, max_n=12), st.data())
    @settings(deadline=None, max_examples=150)
    def test_windows_equal_the_reference_filter(self, inst, data):
        # Each row's capped lists, kept from one bisection on, are exactly the
        # reference's values that pass every head condition at alpha, and the
        # witness best_alpha would take at alpha is the reference probe's.
        # The factors include each row's boundary ratios need / c, where only
        # the equality case decides.
        form, rows = scan_inputs(inst)
        alphas = data.draw(
            st.lists(
                st.sampled_from(reference_candidate_alphas(inst))
                | st.sampled_from(sorted(boundary_ratios(inst, form, rows)) or [Fraction(1)]),
                min_size=1,
                max_size=4,
            )
        )
        for alpha in alphas:
            for row in rows:
                assert_scan_windows(inst, form, row, alpha)
            if alpha >= 1:  # Least factors start at 1, as every optimum does.
                assert witness_at(inst, alpha) == reference_feasible_witness(inst, alpha)

    @pytest.mark.parametrize("name", ["example1", "tightness"])
    @pytest.mark.parametrize("t", [2, 3, 12])
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_refused_before_the_draw_have_an_empty_window(self, name, t, seed):
        # _windows refuses a row before drawing its tail where the least
        # tail coefficient's own steps bound the cut below what cmax needs,
        # or the room above what crest allows.  High peaks with few leftover
        # players, as on these hard instances, are the rows those bounds
        # refuse; each must have an empty reference window, at the optimum,
        # just below it, and at factors past it.
        inst = jittered(name, t, seed)
        form, rows = scan_inputs(inst)
        optimum = best_alpha(inst).alpha_star
        for alpha in (optimum, optimum - (optimum - 1) / 10**9, Fraction(6, 5), Fraction(2)):
            for row in rows:
                assert_scan_windows(inst, form, row, alpha)

    @given(small_instances(max_n=40), st.sampled_from([Fraction(1), Fraction(101, 100), Fraction(3, 2)]))
    @settings(deadline=None, max_examples=100)
    def test_rows_refused_before_the_draw_have_an_empty_window_on_random_instances(self, inst, alpha):
        # Up to 40 players on at most 6 resources: peaks high enough for the
        # tail's least coefficient to refuse rows at small leftover.
        form, rows = scan_inputs(inst)
        for row in rows:
            assert_scan_windows(inst, form, row, alpha)


class TestLeastFactor:
    @given(small_instances(min_m=2, max_n=12), st.data())
    @settings(deadline=None, max_examples=150)
    def test_no_pair_past_the_cut_has_a_least_factor(self, inst, data):
        # best_alpha draws each row's values only up to its cut, the least of
        # (M - 2) * a_{k''} and the (leftover + 1)-th smallest step, and
        # prices no pair past it: the reference must find no least factor
        # there, whatever the other cost.  A run of leading zero
        # coefficients puts free resources in the tail, where the cut is 0.
        zeros = data.draw(st.integers(0, inst.m - 1))
        inst = validate_instance(
            [0] * zeros + list(inst.coefficients[zeros:]), inst.n, inst.budget
        )
        _, rows = scan_inputs(inst)
        for row in rows:
            cut = reference_cut(inst, row)
            if cut is None:
                continue
            room = reference_room(inst, row)
            _, cmax_all, _, crest_all = reference_capped_candidates(inst, *row[0])
            for cmax in cmax_all:
                for crest in crest_all:
                    if max(cmax, crest) > cut:
                        assert reference_least_factor(inst, row, room, cmax, crest) is None

    @given(small_instances(), st.data())
    @settings(deadline=None, max_examples=100)
    def test_is_where_the_reference_starts_to_pass(self, inst, data):
        # A pair passes at alpha when the reference windows keep both its
        # costs and the reference fill succeeds.  At its least factor every
        # pair passes; at the largest candidate ratio below it, the last
        # place below where passing could change, it fails.  A pair with no
        # least factor fails even at the largest candidate.  A run of
        # leading zero coefficients puts free resources in the tail.
        zeros = data.draw(st.integers(0, inst.m - 1))
        inst = validate_instance(
            [0] * zeros + list(inst.coefficients[zeros:]), inst.n, inst.budget
        )
        form, rows = scan_inputs(inst)
        scale = form[2]
        candidates = reference_candidate_alphas(inst)

        def passes(row, alpha, cmax, crest):
            cmax_ok, crest_ok = reference_windows(inst, row[0], alpha)
            return (
                cmax in cmax_ok
                and crest in crest_ok
                and reference_load_vector(inst, row, alpha, cmax, crest) is not None
            )

        for row in rows:
            room = reference_room(inst, row)
            cmax_window, crest_window, *_ = scan_windows(form, row) or ([], [])
            cmax_all, crest_all = capped_ints(inst, form, row[0])
            for cmax in cmax_all:
                for crest in crest_all:
                    costs = Fraction(cmax, scale), Fraction(crest, scale)
                    # A pair off the row's windows at every factor is one the
                    # scan never prices: it must have no least factor.
                    factor = None
                    if cmax in cmax_window and crest in crest_window:
                        factor = least_factor(form, row, cmax, crest)
                    assert (factor and Fraction(*factor)) == reference_least_factor(
                        inst, row, room, *costs
                    )
                    if factor is None:
                        assert not passes(row, candidates[-1], *costs)
                        continue
                    factor = Fraction(*factor)
                    assert passes(row, factor, *costs)
                    below = bisect_left(candidates, factor)
                    if below:
                        assert not passes(row, candidates[below - 1], *costs)


class TestBestAlpha:
    def test_example_optimum(self, example1):
        result = best_alpha(example1)
        assert result.alpha_star == Fraction(7, 6)
        assert result.witness == (2, 2, 1)
        ratio, source, target, cost, dev = result.binding
        assert (source, target, cost, dev) == (1, 0, Fraction(7), Fraction(6))
        assert ratio == Fraction(7, 6)

    def test_single_resource(self):
        inst = validate_instance([2], 3, 1)
        result = best_alpha(inst)
        assert result.alpha_star == 1
        assert result.witness == (3,)
        assert result.binding is None

    def test_exact_equilibrium_instance(self):
        inst = validate_instance([1, 1, 1], 6, 3)
        result = best_alpha(inst)
        assert result.alpha_star == 1
        assert is_alpha_pne(inst, result.witness, 1)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_oracle(self, seed):
        inst = generate_instance(n=2 + seed % 8, m=2 + seed % 3, seed=1000 + seed).instance
        oracle_value, _ = oracle_best_alpha(inst)
        result = best_alpha(inst)
        assert result.alpha_star == oracle_value
        assert max(needed_alpha(inst, result.witness), Fraction(1)) == oracle_value

    @pytest.mark.parametrize("seed", range(20))
    def test_invariant_under_scaling(self, seed):
        inst = generate_instance(n=2 + seed % 6, m=2 + seed % 3, seed=seed).instance
        factor = Fraction(seed + 2, 3)
        assert best_alpha(scale_instance(inst, factor)).alpha_star == best_alpha(
            inst
        ).alpha_star

    @pytest.mark.parametrize(
        "inst",
        [doc.instance for doc in make_fixtures().values()]
        + [generate_instance(n=2 + i % 14, m=2 + i % 4, seed=3000 + i).instance for i in range(60)]
        + [
            jittered(name, t, seed)
            for name in ("example1", "tightness")
            for t in (2, 3)
            for seed in range(3)
        ],
    )
    def test_matches_reference(self, inst):
        result = best_alpha(inst)
        assert (result.alpha_star, result.witness, result.binding) == reference_best_alpha(inst)

    def test_jittered_fixtures_are_hard(self):
        # The jittered classes above exercise the scoring: no pair of factor 1
        # fills to an exact equilibrium.
        for name in ("example1", "tightness"):
            for t in (2, 3):
                assert best_alpha(jittered(name, t, 0)).alpha_star > 1

    @pytest.mark.parametrize("name", ["example1", "tightness"])
    @pytest.mark.parametrize("t", [2, 3, 4, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_witness_is_the_reference_probe_at_the_optimum(self, name, t, seed):
        # The pass records its pairs on the way and fills them at the optimum
        # afterwards; the witness must be the one a probe over the whole
        # table at that factor finds first.
        inst = jittered(name, t, seed)
        result = best_alpha(inst)
        assert result.witness == reference_feasible_witness(inst, result.alpha_star)

    def test_factor_one_pair_answers_after_an_earlier_score_of_one(self, monkeypatch):
        # On example1 x 6 (seed 0) a pair of factor above 1 fills to an
        # exact equilibrium before any pair of factor 1 does.  The optimum is
        # then 1, and the pass must go on to the first factor-1 pair whose
        # fill is exact: that is the witness a probe at 1 finds.
        inst = jittered("example1", 6, 0)
        fills, scores = [], []
        fill, score = optimal.feasible_load_vector, optimal._score

        def logged_fill(coeffs, row, alpha, cmax, crest):
            fills.append(Fraction(*alpha))
            return fill(coeffs, row, alpha, cmax, crest)

        def logged_score(form, loads):
            scores.append(Fraction(*score(form, loads)))
            return score(form, loads)

        monkeypatch.setattr(optimal, "feasible_load_vector", logged_fill)
        monkeypatch.setattr(optimal, "_score", logged_score)
        result = best_alpha(inst)
        # The all-equal profile is scored first, then each fill once.
        scored = list(zip(fills, scores[len(scores) - len(fills) :]))
        first_one = scored.index((1, 1))
        assert any(factor > 1 and value == 1 for factor, value in scored[:first_one])
        assert first_one == len(scored) - 1
        assert result.alpha_star == 1
        assert result.witness == reference_feasible_witness(inst, Fraction(1))

    def test_one_call_draws_each_table_row_at_most_once(self, monkeypatch):
        drawn = []

        def counted(inst, form):
            drawn.append([])
            for row in _shape_table(inst, form):
                drawn[-1].append(row[0])
                yield row

        monkeypatch.setattr(optimal, "_shape_table", counted)
        for inst in [jittered("example1", 2, 0), jittered("tightness", 3, 1)] + [
            generate_instance(n=5 + i, m=2 + i % 4, seed=i).instance for i in range(10)
        ]:
            drawn.clear()
            best_alpha(inst)
            assert len(drawn) <= 1
            assert all(len(set(shapes)) == len(shapes) for shapes in drawn)

    def test_a_row_that_draws_has_a_cmax_window(self, monkeypatch):
        # A row is refused before its tail is drawn wherever the least tail
        # coefficient's steps show a window empty: over these 100 hard
        # instances (80 with alpha* > 1) no row that draws ends with an empty
        # cmax window, where the caps and (M - 2) * a_{k''} alone leave most
        # drawing rows empty.
        drew, results = [], []
        drawn, windows = optimal._drawn, optimal._windows

        def counted_draw(*args):
            drew.append(None)
            return drawn(*args)

        def logged_windows(*args):
            before = len(drew)
            result = windows(*args)
            if len(drew) > before:
                results.append(result)
            return result

        monkeypatch.setattr(optimal, "_drawn", counted_draw)
        monkeypatch.setattr(optimal, "_windows", logged_windows)
        for name in ("example1", "tightness"):
            for t in (2, 3, 4, 6, 12):
                for seed in range(10):
                    best_alpha(jittered(name, t, seed))
        assert results
        assert all(cmax_window for cmax_window, *_ in results)

    def test_checked_refuses_a_missing_witness_or_one_of_other_players(self, example1):
        # (2, 1, 1) and (3, 2, 1) need only 5/6 but hold 4 and 6 of the 5 players.
        for witness in (None, (2, 1, 1), (3, 2, 1)):
            with pytest.raises(RuntimeError):
                _checked(example1, Fraction(7, 6), witness)

    def test_checked_refuses_every_profile_below_the_optimum(self, example1):
        # example1 has no exact equilibrium: at 1 every profile needs more.
        for loads in padded_partitions(example1.n, example1.m):
            with pytest.raises(RuntimeError):
                _checked(example1, Fraction(1), loads)
        result = _checked(example1, Fraction(7, 6), (2, 2, 1))
        assert result.binding == binding_deviation(example1, (2, 2, 1))

    def test_checked_passes_a_single_resource_without_a_binding(self):
        result = _checked(validate_instance([2], 3, 1), Fraction(1), (3,))
        assert (result.alpha_star, result.witness, result.binding) == (1, (3,), None)

    def test_never_exceeds_threshold_upper_bound(self):
        for seed in range(30):
            inst = generate_instance(n=2 + seed % 9, m=2 + seed % 4, seed=seed).instance
            assert best_alpha(inst).alpha_star <= k_upper_bound(12)

    def test_refuses_a_scaled_form_past_the_bit_limit(self, monkeypatch):
        # The scan's integers are the form times lcm(1..min(m, n + 1)), here
        # lcm(1..4): m of them, each of about as many bits as D * 12, counted
        # before any is made.
        inst = validate_instance([Fraction(1, p) for p in (2, 3, 5, 7)], 3, 1)
        bits = inst.m * (inst.form[2] * 12).bit_length()
        monkeypatch.setattr(optimal, "FORM_MAX_BITS", bits)
        assert best_alpha(inst).alpha_star >= 1
        monkeypatch.setattr(optimal, "FORM_MAX_BITS", bits - 1)
        with pytest.raises(GameError):
            best_alpha(inst)


def all_shares_form(inst):
    """The instance's form times lcm(1..m), a budget share B / p for every p <= m: the reference scale."""
    coeffs, budget, scale = inst.form
    shares = math.lcm(*range(1, inst.m + 1))
    return tuple(a * shares for a in coeffs), budget * shares, scale * shares


def widened(inst, seed, kind):
    """`inst` on n + 2 + seed % 3 resources, the added coefficients drawn by `kind`.

    "spread" draws them up to three times the largest coefficient, "high"
    from 1.5 to 3 times it, and "far" from one to two times n times it plus
    the budget, where few profiles put a player.
    """
    rng = random.Random(seed)
    top = max(inst.coefficients[-1], Fraction(1))
    low, high, unit = {
        "spread": (0, 300, top),
        "high": (150, 300, top),
        "far": (100, 200, inst.n * top + inst.budget),
    }[kind]
    more = [unit * Fraction(rng.randint(low, high), 100) for _ in range(inst.n + 2 + seed % 3 - inst.m)]
    return validate_instance([*inst.coefficients, *more], inst.n, inst.budget)


#: Instances with m > n + 1: the jittered fixtures, players times 1 to 3,
#: widened, and generated ones with few distinct coefficients, so zero and
#: tied ones.
WIDE = {
    **{
        f"{name}x{t}-{kind}-{seed}": widened(jittered(name, t, seed), seed, kind)
        for name in ("example1", "tightness", "appendix_a")
        for t in (1, 2, 3)
        for seed, kind in enumerate(["spread", "high", "far"] * 3)
    },
    **{
        f"gen{i}": generate_instance(1 + i % 7, 3 + i % 7 + i % 5, i, coeff_max=1 + i % 4).instance
        for i in range(100)
    },
}


class TestShareScale:
    """best_alpha scales by lcm(1..min(m, n + 1)); the reference scale is lcm(1..m)."""

    @pytest.mark.parametrize("name", WIDE)
    def test_wide_instances_match_the_reference_scale(self, monkeypatch, name):
        # Every share a row forms, B / p for p in k, k + 1 and k' as
        # _shape_table forms them, is exact on the scale.
        inst = WIDE[name]
        assert inst.m > inst.n + 1
        form = _scaled_form(inst)
        for (_, k, k_prime, k_dprime), *_ in _shape_table(inst, form):
            shares = [k, k + 1] if k_prime >= k + 2 else [k]
            shares += [k_prime] if k == 1 and k_prime < k_dprime else []
            assert all(form[1] % p == 0 for p in shares)
        result = best_alpha(inst)
        monkeypatch.setattr(optimal, "_scaled_form", all_shares_form)
        reference = best_alpha(inst)
        assert (result.alpha_star, result.witness, result.binding) == (
            reference.alpha_star,
            reference.witness,
            reference.binding,
        )

    def test_the_wide_set_reaches_past_factor_one(self):
        # Only the jittered fixtures on the "high" and "far" resources do.
        assert sum(best_alpha(inst).alpha_star > 1 for inst in WIDE.values()) == 30

    @given(small_instances(min_m=3, max_m=9, max_n=7))
    @settings(max_examples=300)
    def test_random_wide_instances_match_the_reference_scale(self, inst):
        assume(inst.m > inst.n + 1)
        result = best_alpha(inst)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(optimal, "_scaled_form", all_shares_form)
            reference = best_alpha(inst)
        assert (result.alpha_star, result.witness, result.binding) == (
            reference.alpha_star,
            reference.witness,
            reference.binding,
        )

    def test_a_wide_generated_instance_stays_under_the_bit_limit(self):
        # gen (10, 20 000): lcm(1..11) = 27 720 scales the form, where
        # lcm(1..20 000), about 28 800 bits, passes FORM_MAX_BITS.
        inst = generate_instance(10, 20_000, 1).instance
        assert inst.m * (inst.form[2] * math.lcm(*range(1, inst.m + 1))).bit_length() > FORM_MAX_BITS
        assert _scaled_form(inst)[2] == inst.form[2] * 27_720
        result = best_alpha(inst)
        assert is_alpha_pne(inst, result.witness, result.alpha_star)
