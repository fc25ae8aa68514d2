import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from congestion_adversary import (
    GameError,
    GuardExceeded,
    INFINITY,
    STRICT,
    SolveTrace,
    SolverConfig,
    binding_deviation,
    generate_instance,
    is_alpha_pne,
    k_upper_bound,
    make_fixtures,
    needed_alpha,
    resource_cost,
    solve,
    validate_instance,
)
from congestion_adversary.core import _fraction, _pricing
from congestion_adversary.solver import _deviator, _peaks, _shift
from test_core import (
    kernel_moves,
    reference_binding_deviation,
    reference_cheapest_deviation,
    reference_select_deviator,
    whole_deviator,
)


def trace_events(trace):
    """The trace's moves as ``(kind, round, source, target, cost_before, cost_after)``.

    The Fraction view of a trace, the reference for what write_trace writes:
    each cost pair ``(p, k)`` is ``Fraction(p, k * scale)``, and an entering
    player's cost before is INFINITY.
    """
    return tuple(
        (
            "player_added" if source is None else "deviation",
            k,
            source,
            target,
            INFINITY if source is None else Fraction(cost, cost_den * trace.scale),
            Fraction(dev, dev_den * trace.scale),
        )
        for k, source, target, cost, cost_den, dev, dev_den in trace.moves
    )


def reference_solve(inst, config):
    """The insertion/settling schedule with every move priced by the Fraction spec.

    Returns ``(loads, events, per-round deviation counts, loads after each
    move)``, as :func:`traced_solve` does; the loads are its own, kept move by move.
    """
    loads = [0] * inst.m
    events, per_round, profiles = [], [], []
    for k in range(1, inst.n + 1):
        cost, target = reference_cheapest_deviation(inst, loads, None)
        loads[target] += 1
        events.append(("player_added", k, None, target, INFINITY, cost))
        profiles.append(tuple(loads))
        deviations = 0
        while (source := reference_select_deviator(inst, loads, config.alpha)) is not None:
            deviations += 1
            if deviations > 2 * k:
                raise GuardExceeded(f"round {k}")
            before = resource_cost(inst, loads, source)
            after, target = reference_cheapest_deviation(inst, loads, source)
            loads[source] -= 1
            loads[target] += 1
            events.append(("deviation", k, source, target, before, after))
            profiles.append(tuple(loads))
        per_round.append(deviations)
    return tuple(loads), tuple(events), tuple(per_round), tuple(profiles)


def replayed_profiles(moves, m):
    """The loads after each move, re-applied one at a time from the empty profile."""
    loads, profiles = [0] * m, []
    for _, source, target, *_ in moves:
        if source is not None:
            loads[source] -= 1
        loads[target] += 1
        profiles.append(tuple(loads))
    return tuple(profiles)


def traced_solve(inst, config):
    """solve's ``(loads, events, per-round deviation counts, loads after each move)``."""
    loads, trace = solve(inst, config)
    profiles = replayed_profiles(trace.moves, inst.m)
    return loads, trace_events(trace), trace.per_round_deviation_counts, profiles


class TestConfig:
    def test_the_guard_trips_at_2k_plus_one_deviations(self, example1, monkeypatch):
        # At alpha = 1 example1 has no equilibrium, so some round never
        # settles: its 2k + 1-th deviation raises, its 2k-th did not.
        found = []

        def deviator(*args):
            move = _deviator(*args)
            found.append(move is not None)
            return move

        monkeypatch.setattr("congestion_adversary.solver._deviator", deviator)
        with pytest.raises(GuardExceeded) as exc:
            solve(example1, SolverConfig(alpha=1))
        k = int(str(exc.value).split()[1])
        assert str(exc.value) == f"round {k} exceeded {2 * k} deviations (strict guard, alpha=1)"
        assert found[-(2 * k + 2) :] == [False] + [True] * (2 * k + 1)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=Fraction(1, 2))

    def test_rejects_unknown_guard(self):
        # The 2k guard is the only one; STRICT still names it.
        assert SolverConfig(alpha=2, guard_mode=STRICT) == SolverConfig(alpha=2)
        for guard in ("lenient", "loose"):
            with pytest.raises(GameError, match="unknown guard mode"):
                SolverConfig(alpha=2, guard_mode=guard)

    def test_default_alpha_is_threshold_upper_bound(self):
        assert SolverConfig.default().alpha == k_upper_bound(12)

    @pytest.mark.parametrize("alpha", [1.5, 1.25, 1.125, 1])
    def test_float_or_int_alpha_solves_as_the_equal_fraction(self, alpha):
        # 22 deviations at 3/2 and 5/4, 24 at 9/8 and 1: each compares costs
        # against the factor.
        inst = generate_instance(60, 6, seed=6).instance
        config = SolverConfig(alpha=alpha)
        assert type(config.alpha) is Fraction and config.alpha == alpha
        exact = traced_solve(inst, SolverConfig(alpha=Fraction(alpha)))
        assert traced_solve(inst, config) == exact
        assert sum(exact[2]) > 20


class TestBestResponse:
    """The entering player's move, from ``_pricing(...)[2]``, and who may move."""

    def test_entering_player_prefers_cheapest(self, example1):
        assert kernel_moves(example1, (0, 0, 0))[None] == (None, (Fraction(6), 0))

    def test_ties_break_to_smallest_index(self):
        inst = validate_instance([1, 1, 1], 3, 3)
        assert kernel_moves(inst, (0, 0, 0))[None] == (None, (Fraction(4), 0))
        assert kernel_moves(inst, (1, 1, 0))[None] == (None, (Fraction(2), 2))

    def test_requires_seated_player(self, example1):
        # Only occupied resources have movers; the entering player always does.
        assert set(kernel_moves(example1, (5, 0, 0))) == {None, 0}


class TestUnhappySet:
    """solve's deviator: the costliest alpha-improving mover, over a whole profile."""

    def test_no_exact_equilibrium_profile(self, example1):
        # On (2,2,1) only the r2 players have a strictly improving move.
        form = example1.form
        assert whole_deviator(form, (2, 2, 1), Fraction(1))[0] == 1
        assert whole_deviator(form, (2, 2, 1), Fraction(7, 6)) is None

    def test_select_deviator_max_cost_largest_index(self):
        inst = validate_instance([0, 3, 3], 4, 4)
        # (0,2,2): the two max-load resources both cost 8 and both improve by
        # moving to the free resource; the tie goes to index 2.
        found = whole_deviator(inst.form, (0, 2, 2), Fraction(1))
        assert found[0] == 2
        moves = kernel_moves(inst, (0, 2, 2))
        assert moves[1][0] == moves[2][0] == Fraction(8)

    def test_select_deviator_none_when_all_settled(self, example1):
        assert whole_deviator(example1.form, (2, 2, 1), Fraction(2)) is None


class TestSolve:
    def test_example_reaches_seven_sixths_profile(self, example1):
        loads, trace = solve(example1, SolverConfig.default())
        assert loads == (2, 2, 1)
        assert needed_alpha(example1, loads) == Fraction(7, 6)
        assert trace.replay(example1.m) == loads

    def test_seven_player_final_round(self, seven_player):
        loads, trace = solve(seven_player, SolverConfig.default())
        assert loads == (2, 2, 1, 1, 1)
        assert trace.per_round_deviation_counts == (0, 0, 0, 0, 0, 0, 2)
        last = [ev[:4] for ev in trace_events(trace) if ev[1] == 7]
        assert [kind for kind, *_ in last] == ["player_added", "deviation", "deviation"]
        assert last[1][2:] == (4, 1)
        assert last[2][2:] == (0, 4)
        assert needed_alpha(seven_player, loads) == Fraction(25, 24)

    def test_insertion_events_have_infinite_prior_cost(self, example1):
        _, trace = solve(example1, SolverConfig.default())
        added = [ev for ev in trace_events(trace) if ev[0] == "player_added"]
        assert len(added) == example1.n
        assert all(ev[4] == INFINITY for ev in added)
        assert [ev[1] for ev in added] == list(range(1, example1.n + 1))

    def test_guard_trips_when_no_equilibrium_exists(self, example1):
        # At alpha = 1 the example has no equilibrium, so settling can never
        # finish and the guard must fire.
        with pytest.raises(GuardExceeded):
            solve(example1, SolverConfig(alpha=Fraction(1)))

    @pytest.mark.parametrize("alpha", [k_upper_bound(12), Fraction(11, 10)])
    @pytest.mark.parametrize("above", [0, 1])
    def test_in_loop_assertion_fires_at_the_factor(self, seven_player, monkeypatch, alpha, above):
        # The first move _deviator selects comes back with its cost set to
        # alpha times its cost after, plus `above` over a denominator of
        # j * den: cost * j * den == num * dev * k at 0, just past it at 1.
        num, den = alpha.numerator, alpha.denominator
        altered = []

        def deviator(form, priced, tails, num_, den_):
            found = _deviator(form, priced, tails, num_, den_)
            if found is None or altered:
                return found
            r, _, _, dev, j, target = found
            altered.append((r, num * dev + above, j * den, dev, j, target))
            return altered[0]

        monkeypatch.setattr("congestion_adversary.solver._deviator", deviator)
        config = SolverConfig(alpha=alpha)
        if above:
            loads, trace = solve(seven_player, config)
            assert is_alpha_pne(seven_player, loads, alpha)
            r, cost, k, dev, j, target = altered[0]
            assert any(move[1:] == (r, target, cost, k, dev, j) for move in trace.moves)
            return
        with pytest.raises(AssertionError, match="is not alpha-improving"):
            solve(seven_player, config)
        # The Fraction form of the same test sits exactly at the factor.
        _, cost, k, dev, j, _ = altered[0]
        form = seven_player.form
        assert _fraction(form, cost, k) == alpha * _fraction(form, dev, j)

    def test_replay_rejects_altered_moves(self, seven_player):
        loads, trace = solve(seven_player, SolverConfig.default())
        m = seven_player.m
        profiles = replayed_profiles(trace.moves, m)
        assert trace.replay(m) == profiles[-1] == loads
        # Every move with its target one index to the right, and every
        # deviation leaving a resource that is empty before it.
        altered = []
        for i, move in enumerate(trace.moves):
            altered.append((i, move[:2] + (move[2] + 1,) + move[3:]))
            before = profiles[i - 1] if i else (0,) * m
            if move[1] is not None:
                altered += [(i, move[:1] + (r,) + move[2:]) for r in range(m) if not before[r]]
        assert len(altered) > len(trace.moves)
        for i, move in altered:
            moves = trace.moves[:i] + (move,) + trace.moves[i + 1 :]
            try:
                replayed = dataclasses.replace(trace, moves=moves).replay(m)
            except GameError:
                continue
            assert replayed != loads

    @pytest.mark.parametrize(
        "moves",
        [
            # Out of order: a player on resource 1 while resource 0 is empty.
            [(1, None, 1, None, None, 1, 1)],
            [(1, None, 0, None, None, 1, 1), (2, None, 2, None, None, 1, 1)],
            # Deviations leaving an empty resource; from the last one, the
            # negative load it leaves would keep the order.
            [(1, None, 0, None, None, 1, 1), (1, 1, 0, 1, 1, 1, 1)],
            [(1, None, 0, None, None, 1, 1), (1, 2, 0, 1, 1, 1, 1)],
            # Out of range.
            [(1, None, 3, None, None, 1, 1)],
            [(1, None, -1, None, None, 1, 1)],
            [(1, None, 0, None, None, 1, 1), (1, 3, 1, 1, 1, 1, 1)],
            [(1, None, 0, None, None, 1, 1), (1, -3, 1, 1, 1, 1, 1)],
        ],
    )
    def test_replay_rejects_a_hand_built_trace(self, moves):
        trace = SolveTrace(tuple(moves), (len(moves) - 1,), 1)
        with pytest.raises(GameError):
            trace.replay(3)

    def test_events_are_built_afresh_from_the_moves(self, example1):
        _, trace = solve(example1, SolverConfig.default())
        # The trace keeps its moves and nothing built from them.
        assert set(vars(trace)) == {"moves", "per_round_deviation_counts", "scale"}
        assert [ev[1:4] for ev in trace_events(trace)] == [move[:3] for move in trace.moves]

    def test_deterministic(self, seven_player):
        first = solve(seven_player, SolverConfig.default())
        second = solve(seven_player, SolverConfig.default())
        assert first == second

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances_settle_within_strict_guard(self, seed):
        inst = generate_instance(
            n=1 + seed % 12, m=1 + seed % 5, seed=seed
        ).instance
        config = SolverConfig.default()
        loads, trace = solve(inst, config)
        assert is_alpha_pne(inst, loads, config.alpha)
        assert trace.replay(inst.m) == loads
        assert sum(loads) == inst.n
        assert all(loads[i] >= loads[i + 1] for i in range(inst.m - 1))
        for round_index, count in enumerate(trace.per_round_deviation_counts, 1):
            assert count <= 2 * round_index


class TestSolveMatchesReference:
    """solve's trace equals the one priced move by move through the Fraction spec."""

    CASES = [doc.instance for doc in make_fixtures().values()] + [
        generate_instance(30, 6, seed).instance for seed in range(50)
    ]

    # At alpha = 1, 13 of the 53 cases never settle: the 2k guard stops
    # both solvers in the same round.
    @pytest.mark.parametrize("alpha", [k_upper_bound(12), Fraction(1)], ids=["K", "1"])
    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_trace_identity(self, index, alpha):
        inst = self.CASES[index]
        config = SolverConfig(alpha=alpha)
        assert solve_outcome(traced_solve, inst, config) == solve_outcome(reference_solve, inst, config)


def solve_outcome(solver, inst, config):
    """The solver's four-part outcome, or GuardExceeded when the guard stops the run."""
    try:
        return solver(inst, config)
    except GuardExceeded:
        return GuardExceeded


@st.composite
def tie_heavy_instances(draw):
    """Up to three resources with equal and zero coefficients.

    Coefficients and budget are small, so many moves cost the same; a budget
    small next to the coefficients piles players on the cheap resources, so
    settling passes through a sole peak over P - 1 and P - 2 bands, and a
    large one spreads them into ties at the peak.
    """
    m = draw(st.sampled_from([1, 2, 3, 3, 3]))
    values = st.sampled_from([0, 0, 1, 2, 2, 3, 5, Fraction(1, 2)])
    coefficients = draw(st.lists(values, min_size=m, max_size=m))
    budget = draw(st.integers(1, 32).map(lambda x: Fraction(x, 2)))
    return validate_instance(coefficients, draw(st.integers(1, 12)), budget)


class TestSolveMatchesReferenceOnTies:
    @given(
        tie_heavy_instances(),
        st.sampled_from([Fraction(1), 1 + Fraction(1, 10**9), k_upper_bound(12)]),
    )
    @settings(deadline=None, max_examples=400)
    def test_trace_identity(self, inst, alpha):
        config = SolverConfig(alpha=alpha)
        outcome = solve_outcome(traced_solve, inst, config)
        assert outcome == solve_outcome(reference_solve, inst, config)
        # A resource whose cheapest target is itself never improves, so the
        # runner-up move never decides a step; the factor each profile of
        # the trace needs does depend on it.
        for loads in () if outcome is GuardExceeded else outcome[3]:
            assert binding_deviation(inst, loads) == reference_binding_deviation(inst, loads)
        # Steer the search toward runs with many deviations, or ones the guard stops.
        deviations = (
            inst.n**2
            if outcome is GuardExceeded
            else sum(outcome[2])
        )
        target(float(deviations))


@st.composite
def wide_band_instances(draw):
    """Four to ten resources whose coefficients repeat, zero among them.

    Resources of equal coefficient fill in step, so a band of equal load
    spans several of them and splits, merges, empties and takes over the
    peak as players enter and move.  A budget small next to the
    coefficients stacks players into a sole peak over P - 1 and P - 2 bands
    and many lower ones; a large one ties them at the peak.
    """
    m = draw(st.integers(4, 10))
    values = st.sampled_from([0, 0, 1, 1, 2, 3, Fraction(1, 2)])
    coefficients = draw(st.lists(values, min_size=m, max_size=m))
    budget = draw(st.integers(1, 60).map(lambda x: Fraction(x, 2)))
    return validate_instance(coefficients, draw(st.integers(1, 30)), budget)


class TestSolveMatchesReferenceOnWideBands:
    """solve's band bookkeeping against the Fraction spec on many-band profiles."""

    @given(
        wide_band_instances(),
        st.sampled_from([Fraction(1), 1 + Fraction(1, 10**9), k_upper_bound(12)]),
    )
    @settings(deadline=None, max_examples=150)
    def test_trace_identity(self, inst, alpha):
        config = SolverConfig(alpha=alpha)
        outcome = solve_outcome(traced_solve, inst, config)
        assert outcome == solve_outcome(reference_solve, inst, config)
        if outcome is not GuardExceeded:
            # Steer the search toward many bands and many deviations.
            _, events, _, profiles = outcome
            target(float(max(len(set(loads)) for loads in profiles)), label="bands")
            target(float(sum(ev[0] == "deviation" for ev in events)), label="deviations")

    @given(
        wide_band_instances(),
        st.lists(st.integers(0, 8), min_size=10, max_size=10),
        st.integers(0, 2),
        st.sampled_from([Fraction(1), k_upper_bound(12)]),
    )
    @settings(deadline=None, max_examples=300)
    def test_band_pricing_equals_whole_pricing(self, inst, draws, lift, alpha):
        # Compare the pricing itself, on any non-increasing profile, in what
        # solve reads of it: the peak, its count and each kind's cheapest
        # target.  The runner-up is read only when the cheapest target is the
        # mover, a band's last index, so its band is that one resource; band
        # pricing gets the runner-up right there, and need not elsewhere.
        loads = sorted(draws[: inst.m], reverse=True)
        loads[0] += lift + (loads[0] == 0)
        heads, tails = derived_bands(loads)
        form = inst.form
        priced = _pricing(form, loads, heads, _peaks(heads, tails, inst.m))
        whole = _pricing(form, loads)
        assert priced[:2] == whole[:2]
        for kind in (2, 3):
            assert priced[kind][:3] == whole[kind][:3]
            if loads.count(loads[priced[kind][2]]) == 1:
                assert priced[kind][3:] == whole[kind][3:]
        found = _deviator(form, priced, tails, alpha.numerator, alpha.denominator)
        assert found == whole_deviator(form, loads, alpha)


def derived_bands(loads):
    """`heads` and `tails` of a non-increasing profile, as solve keeps them, from scratch."""
    m = len(loads)
    heads = [(r, x) for r, x in enumerate(loads) if r == 0 or loads[r - 1] != x]
    tails = [(r, x) for r, x in enumerate(loads) if x and (r == m - 1 or loads[r + 1] != x)]
    return heads, tails


class TestBandBookkeeping:
    """solve's band lists, kept move by move, against a derivation from the loads."""

    @given(st.integers(1, 6), st.lists(st.integers(-40, 40), max_size=80))
    # m = 1: the load-0 band empties, loads pass m, and it comes back.
    @example(1, [0, 0, 0, -1, -1, -1, 0])
    # Loads pass m = 2 on the sole peak, which a bisection key (r, m) misplaces.
    @example(2, [0, 0, 0, 0])
    # New sole peaks ([1, 0, 0], [2, 0, 0]); the one-resource bands of 2 and
    # 1 merge ([2, 1, 0] to [2, 2, 0]); the load-0 band empties ([2, 2, 1])
    # and comes back ([2, 2, 0]); a sole peak again by taking a player off
    # the band it shared ([2, 1, 0]).
    @example(3, [0, 0, 1, 1, 1, -1, -1])
    @settings(deadline=None, max_examples=300)
    def test_moves_keep_the_lists_and_peaks(self, m, ops):
        # Each op adds a player on a band head (op >= 0, or nobody to take)
        # or takes one off an occupied band's tail, the band picked by op.
        loads, expected = [0] * m, [0] * m
        heads, tails = [(0, 0)], []
        for op in ops:
            if op >= 0 or not tails:
                r, step = heads[op % len(heads)][0], 1
            else:
                r, step = tails[op % len(tails)][0], -1
            _shift(heads, tails, loads, r, step)
            expected[r] += step
            assert loads == expected
            assert (heads, tails) == derived_bands(loads)
            peak = max(loads)
            assert _peaks(heads, tails, m) == (peak, loads.count(peak), loads.count(peak - 1))


def scanned_solve(inst, config, rounds):
    """solve's schedule with the deviator scan run in every round, quiet or not.

    The same band lists, pricing and deviator as solve, but no round is
    skipped: after each insertion that leaves its resource at P - 2 or
    less, P the peak before it, the scan must find nobody.  Counts each
    round in `rounds` by ``(P - load after the insertion, deviated)``.
    Returns ``(loads, moves, per-round deviation counts)`` as solve's
    result and trace hold them, or raises GuardExceeded where solve does.
    """
    m, form, alpha = inst.m, inst.form, config.alpha
    loads, heads, tails = [0] * m, [(0, 0)], []
    moves, per_round = [], []
    priced = _pricing(form, loads, heads, _peaks(heads, tails, m))
    for k in range(1, inst.n + 1):
        peak, (dev, j, target) = priced[0], priced[2][:3]
        _shift(heads, tails, loads, target, 1)
        moves.append((k, None, target, None, None, dev, j))
        gap, deviations = peak - loads[target], 0
        while True:
            priced = _pricing(form, loads, heads, _peaks(heads, tails, m))
            found = _deviator(form, priced, tails, alpha.numerator, alpha.denominator)
            if found is None:
                break
            assert gap < 2 or deviations, f"round {k} is quiet, yet {found} moves"
            deviations += 1
            if deviations > 2 * k:
                raise GuardExceeded(f"round {k}")
            source, cost, cost_den, dev, dev_den, target = found
            assert _fraction(form, cost, cost_den) > alpha * _fraction(form, dev, dev_den)
            _shift(heads, tails, loads, source, -1)
            _shift(heads, tails, loads, target, 1)
            moves.append((k, source, target, cost, cost_den, dev, dev_den))
        per_round.append(deviations)
        rounds[gap, deviations > 0] += 1
    return tuple(loads), tuple(moves), tuple(per_round)


def solved_moves(inst, config):
    """solve's ``(loads, moves, per-round deviation counts)``."""
    loads, trace = solve(inst, config)
    return loads, trace.moves, trace.per_round_deviation_counts


class TestQuietRounds:
    """A round whose player lands at P - 2 or below moves nobody, at any alpha >= 1.

    Each run is scanned in every round and must equal solve's, which skips
    the scan in quiet rounds, so the lemma is checked, not the skip.
    """

    def test_criterion_4_instances(self):
        rng = random.Random(20260823)
        config = SolverConfig.default()
        rounds = Counter()
        for i in range(10_000):
            inst = generate_instance(n=rng.randint(1, 30), m=rng.randint(1, 10), seed=i).instance
            assert scanned_solve(inst, config, rounds) == solved_moves(inst, config)
        quiet = sum(count for (gap, _), count in rounds.items() if gap >= 2)
        assert quiet > 0
        # A round that lands at P - 1 can move someone: the bound is tight.
        assert rounds[1, True] > 0

    @given(
        st.one_of(tie_heavy_instances(), wide_band_instances()),
        st.sampled_from([Fraction(1), Fraction(11, 10), k_upper_bound(12)]),
    )
    @settings(deadline=None, max_examples=300)
    def test_ties_and_zero_coefficients(self, inst, alpha):
        config = SolverConfig(alpha=alpha)
        rounds = Counter()
        outcome = solve_outcome(lambda *args: scanned_solve(*args, rounds), inst, config)
        assert outcome == solve_outcome(solved_moves, inst, config)
        target(float(sum(count for (gap, _), count in rounds.items() if gap >= 2)), label="quiet")
