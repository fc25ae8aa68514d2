import importlib
import math
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congestion_adversary import (
    GameError,
    INFINITY,
    SolverConfig,
    binding_deviation,
    compute_K,
    deviation_cost,
    is_alpha_pne,
    k_upper_bound,
    needed_alpha,
    resource_cost,
    scale_instance,
    validate_instance,
)
import congestion_adversary.core as core_module
from congestion_adversary.core import _fraction, _occupied, _pricing
from congestion_adversary.solver import _deviator

rationals = st.fractions(min_value=0, max_value=20, max_denominator=8)
positive_rationals = st.fractions(min_value=Fraction(1, 8), max_value=20, max_denominator=8)


def instances(min_m=1, max_m=6, max_n=12):
    return st.builds(
        lambda coeffs, n, budget: validate_instance(coeffs, n, budget),
        st.lists(rationals, min_size=min_m, max_size=max_m),
        st.integers(min_value=1, max_value=max_n),
        positive_rationals,
    )


@st.composite
def games(draw):
    """A small instance and a non-empty profile; zero and equal coefficients are common."""
    m = draw(st.integers(min_value=1, max_value=5))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=2),
            min_size=m,
            max_size=m,
        )
    )
    budget = draw(st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=2))
    loads = draw(
        st.lists(st.integers(min_value=0, max_value=4), min_size=m, max_size=m).filter(
            lambda ls: sum(ls) > 0
        )
    )
    return validate_instance(coeffs, sum(loads), budget), tuple(loads)


@st.composite
def wide_games(draw):
    """Up to 12 resources, loads up to 8, coefficient and budget denominators up to 12.

    Half of the profiles with three or more resources have a sole peak P over
    bands at P - 1 and P - 2: only there does a move to P - 2 pay a share.
    """
    m = draw(st.integers(min_value=1, max_value=12))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=0, max_value=6, max_denominator=12),
            min_size=m,
            max_size=m,
        )
    )
    budget = draw(st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12))
    if m >= 3 and draw(st.booleans()):
        peak = draw(st.integers(min_value=2, max_value=8))
        band = st.one_of(
            st.sampled_from([peak - 1, peak - 2]),
            st.integers(min_value=0, max_value=peak - 1),
        )
        loads = draw(st.lists(band, min_size=m - 1, max_size=m - 1))
        loads.insert(draw(st.integers(min_value=0, max_value=m - 1)), peak)
    else:
        loads = draw(
            st.lists(st.integers(min_value=0, max_value=8), min_size=m, max_size=m).filter(
                lambda ls: sum(ls) > 0
            )
        )
    return validate_instance(coeffs, sum(loads), budget), tuple(loads)


# Reference pricing: every move priced on its own through resource_cost and
# deviation_cost.  Any faster pricing kernel must match these exactly.


def reference_cheapest_deviation(inst, loads, source):
    targets = [s for s in range(inst.m) if s != source]
    if not targets:
        return None
    target = min(targets, key=lambda s: (deviation_cost(inst, loads, source, s), s))
    return deviation_cost(inst, loads, source, target), target


def reference_binding_deviation(inst, loads):
    if inst.m == 1:
        return None
    best = None
    for r in range(inst.m):
        if loads[r] < 1:
            continue
        cost = resource_cost(inst, loads, r)
        dev_to = min(
            range(inst.m),
            key=lambda s: (deviation_cost(inst, loads, r, s), s) if s != r else (INFINITY, s),
        )
        dev = deviation_cost(inst, loads, r, dev_to)
        if dev == 0:
            ratio = INFINITY if cost > 0 else Fraction(0)
        else:
            ratio = cost / dev
        if best is None or ratio > best[0]:
            best = (ratio, r, dev_to, cost, dev)
    return best


def reference_unhappy_set(inst, loads, alpha):
    return {
        r
        for r in range(inst.m)
        if loads[r] > 0
        and any(
            resource_cost(inst, loads, r) > alpha * deviation_cost(inst, loads, r, s)
            for s in range(inst.m)
            if s != r
        )
    }


def reference_select_deviator(inst, loads, alpha):
    unhappy = reference_unhappy_set(inst, loads, alpha)
    if not unhappy:
        return None
    return max(unhappy, key=lambda r: (resource_cost(inst, loads, r), r))


def whole_deviator(form, loads, alpha):
    """solve's deviator over a whole profile: every occupied ``(r, loads[r])`` is a tail."""
    tails = [(r, x) for r, x in enumerate(loads) if x]
    return _deviator(form, _pricing(form, loads), tails, alpha.numerator, alpha.denominator)


def kernel_moves(inst, loads):
    """The integer kernel's pricing in Fractions: ``{source: (cost, move)}``.

    Source None is the entering player, priced by ``_pricing(...)[2]``, with
    cost None; each occupied resource's entry comes from ``_occupied``.  A
    move is ``(deviation_cost, target)``, None when m = 1.
    """
    form = inst.form

    def move(dev, j, target):
        return None if dev is None else (_fraction(form, dev, j), target)

    moves = {None: (None, move(*_pricing(form, loads)[2][:3]))}
    if any(loads):
        for r, cost, k, dev, j, target in _occupied(form, loads):
            moves[r] = (_fraction(form, cost, k), move(dev, j, target))
    return moves


def assert_matches_reference(inst, loads, alpha):
    """Kernel costs, moves, binding deviation and deviator against the Fraction spec."""
    sources = [None] + [r for r in range(inst.m) if loads[r] > 0]
    assert kernel_moves(inst, loads) == {
        source: (
            None if source is None else resource_cost(inst, loads, source),
            reference_cheapest_deviation(inst, loads, source),
        )
        for source in sources
    }
    assert binding_deviation(inst, loads) == reference_binding_deviation(inst, loads)
    found = whole_deviator(inst.form, loads, alpha)
    assert (None if found is None else found[0]) == reference_select_deviator(inst, loads, alpha)


def random_profile(inst, rng):
    loads = [0] * inst.m
    for _ in range(inst.n):
        loads[rng.randrange(inst.m)] += 1
    return tuple(loads)


#: Mersenne primes of 61 to 127 bits, 384 together.
LONG_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


class TestValidation:
    def test_sorts_coefficients(self):
        inst = validate_instance([5, 0, 2], 5, 6)
        assert inst.coefficients == (Fraction(0), Fraction(2), Fraction(5))
        assert inst.m == 3

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**130),
                st.sampled_from([1, 2, 3, 4, 6, 7, 12, 10**12, *LONG_PRIMES]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example([(2, 4), (1, 1), (1, 2), (12, 6), (2, 1), (0, 7), (10**12 + 1, 10**12)])
    @example([(p // 2, p) for p in LONG_PRIMES] + [(2**120, 3), (1, 2)])
    def test_sorts_as_the_fractions_do(self, pairs):
        # Mixed denominators, and equal values written over different ones
        # (2/4 and 1/2, 12/6 and the int 2): the integer sort key orders
        # them as Fraction comparisons do, also when the lcm of the
        # denominators is long, as that of LONG_PRIMES is.
        raw = [p if q == 1 else Fraction(p, q) for p, q in pairs]
        inst = validate_instance(raw, 3, 1)
        assert inst.coefficients == tuple(sorted(Fraction(a) for a in raw))
        assert all(type(a) is Fraction for a in inst.coefficients)

    def test_rejects_empty_resources(self):
        with pytest.raises(GameError, match="^need at least one resource$") as exc:
            validate_instance([], 3, 1)
        assert type(exc.value) is GameError

    def test_rejects_non_positive_players(self):
        with pytest.raises(GameError, match="^player count must be positive, got 0$") as exc:
            validate_instance([1], 0, 1)
        assert type(exc.value) is GameError

    @pytest.mark.parametrize("n", [float("nan"), 2.5, 3.0, True, Fraction(3), "3", None])
    def test_rejects_a_player_count_that_is_not_an_int(self, n):
        # A float or a bool passed the n < 1 check and reached solve, which
        # raised TypeError on a float and took True for one player.
        with pytest.raises(GameError, match="^player count must be an integer, got ") as exc:
            validate_instance([1, 2], n, 1)
        assert type(exc.value) is GameError

    def test_rejects_non_positive_budget(self):
        with pytest.raises(GameError, match="^budget must be positive, got 0$") as exc:
            validate_instance([1], 2, 0)
        assert type(exc.value) is GameError

    def test_rejects_negative_coefficient(self):
        with pytest.raises(GameError, match="^coefficient must be non-negative, got -1$") as exc:
            validate_instance([1, -1], 2, 1)
        assert type(exc.value) is GameError

    @pytest.mark.parametrize("factor", [0, -1, Fraction(-1, 3)])
    def test_scale_rejects_non_positive_factor(self, example1, factor):
        with pytest.raises(GameError, match="scale factor must be positive"):
            scale_instance(example1, factor)

    @given(instances(), positive_rationals)
    def test_form_is_the_instance_times_the_lcm_of_its_denominators(self, inst, factor):
        for each in (inst, scale_instance(inst, factor)):
            scale = math.lcm(each.budget.denominator, *(a.denominator for a in each.coefficients))
            scaled = [a * scale for a in each.coefficients + (each.budget,)]
            assert all(x.denominator == 1 for x in scaled)
            ints = tuple(int(x) for x in scaled)
            assert each.form == (ints[:-1], ints[-1], scale)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), "x", "1/0x", "1/0", None, [1], True, False]
    )
    @pytest.mark.parametrize(
        "entry, name",
        [
            (lambda inst, v: validate_instance([1, v], 3, 1), "coefficient"),
            (lambda inst, v: validate_instance([1], 3, v), "budget"),
            (lambda inst, v: scale_instance(inst, v), "scale factor"),
            (lambda inst, v: SolverConfig(alpha=v), "alpha"),
            (lambda inst, v: is_alpha_pne(inst, (2, 2, 1), v), "alpha"),
        ],
        ids=["coefficient", "budget", "scale_instance", "SolverConfig", "is_alpha_pne"],
    )
    def test_a_non_finite_or_malformed_rational_is_a_game_error(self, example1, entry, name, value):
        # Fraction raises ValueError on nan and on a malformed string,
        # OverflowError on an infinity, ZeroDivisionError on a zero
        # denominator and TypeError on None or a list, and takes a bool as 0
        # or 1, which is refused first; the message names the argument.
        with pytest.raises(GameError, match=f"^{name} must be a finite rational: ") as exc:
            entry(example1, value)
        assert type(exc.value) is GameError

    def test_refuses_an_integer_form_past_its_limit(self, monkeypatch):
        # D = lcm(2, 3, 5, 7) = 210 has 8 bits, so the form of 3 coefficients is 24 bits.
        raw, budget = [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)], Fraction(1, 2)
        monkeypatch.setattr(core_module, "FORM_MAX_BITS", 24)
        assert validate_instance(raw, 2, budget).form == ((30, 42, 70), 105, 210)
        monkeypatch.setattr(core_module, "FORM_MAX_BITS", 23)
        with pytest.raises(GameError) as exc:
            validate_instance(raw, 2, budget)
        assert str(exc.value) == "m times the bit length of the denominators' lcm passes 23 (m=3)"

    def test_form_refusal_stops_taking_the_lcm_at_the_limit(self, monkeypatch):
        # 1/p over 200 primes: D passes 200 * 64 bits long before its last factor.
        primes = [p for p in range(2, 1300) if all(p % q for q in range(2, math.isqrt(p) + 1))][:200]
        steps, lcm = [], math.lcm

        def counted(*args):
            steps.append(args)
            return lcm(*args)

        monkeypatch.setattr(core_module, "FORM_MAX_BITS", 200 * 64)
        monkeypatch.setattr(core_module.math, "lcm", counted)
        with pytest.raises(GameError, match="passes 12800 "):
            validate_instance([Fraction(1, p) for p in primes], 3, 1)
        assert 0 < len(steps) < 20


def attack_shares(inst, loads):
    """The budget share paid on each resource: resource_cost minus a_r * x_r, 0 when empty."""
    return tuple(
        resource_cost(inst, loads, r) - inst.coefficients[r] * x if x else Fraction(0)
        for r, x in enumerate(loads)
    )


class TestAttack:
    """The adversary's split, read off resource_cost as the attack share."""

    def test_even_split_over_max_load(self):
        assert attack_shares(validate_instance([0, 2, 5], 5, 6), (2, 2, 1)) == (3, 3, 0)
        assert attack_shares(validate_instance([1, 1, 1], 4, 5), (3, 1, 0)) == (5, 0, 0)

    def test_empty_profile_rejected(self):
        # Nobody is seated, so no resource has a cost to carry a share.
        inst = validate_instance([1, 2], 1, 1)
        for r in range(2):
            with pytest.raises(GameError, match=f"^resource {r} carries no player$") as exc:
                resource_cost(inst, (0, 0), r)
            assert type(exc.value) is GameError

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6).filter(
            lambda ls: sum(ls) > 0
        ),
        positive_rationals,
        st.data(),
    )
    def test_spends_budget_on_max_load_only(self, loads, budget, data):
        coeffs = data.draw(st.lists(rationals, min_size=len(loads), max_size=len(loads)))
        kappa = attack_shares(validate_instance(coeffs, sum(loads), budget), loads)
        assert sum(kappa) == budget
        peak = max(loads)
        assert all((k > 0) == (x == peak) for k, x in zip(kappa, loads))
        assert len(set(k for k in kappa if k > 0)) == 1

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5).filter(
            lambda ls: sum(ls) > 0
        ),
        positive_rationals,
        st.randoms(use_true_random=False),
    )
    @settings(deadline=None)
    def test_maximizes_total_inflicted_cost(self, loads, budget, rng):
        """The even max-load split attains the optimal total extra cost B * max(loads).

        Compared against random feasible budget splits as an independent check.
        """
        coeffs = [Fraction(rng.randint(0, 10), rng.randint(1, 4)) for _ in loads]
        kappa = attack_shares(validate_instance(coeffs, sum(loads), budget), loads)
        best = sum(k * x for k, x in zip(kappa, loads))
        assert best == budget * max(loads)
        for _ in range(50):
            weights = [Fraction(rng.randint(0, 10)) for _ in loads]
            total = sum(weights)
            if total == 0:
                continue
            split = [w * budget / total for w in weights]
            assert sum(k * x for k, x in zip(split, loads)) <= best


class TestCosts:
    def test_resource_cost_decomposition(self, example1):
        # Budget 6 split evenly over the two peak resources of (2,2,1).
        loads = (2, 2, 1)
        kappa = (3, 3, 0)
        for r in range(3):
            assert (
                resource_cost(example1, loads, r)
                == example1.coefficients[r] * loads[r] + kappa[r]
            )

    def test_resource_cost_requires_occupancy(self, example1):
        with pytest.raises(GameError, match="^resource 1 carries no player$") as exc:
            resource_cost(example1, (5, 0, 0), 1)
        assert type(exc.value) is GameError

    def test_deviation_rejects_same_resource(self, example1):
        with pytest.raises(GameError, match="^deviation target equals source resource 1$") as exc:
            deviation_cost(example1, (2, 2, 1), 1, 1)
        assert type(exc.value) is GameError

    @pytest.mark.parametrize(
        "call, args",
        [
            (resource_cost, (-1,)),
            (resource_cost, (3,)),
            (deviation_cost, (-1, 0)),
            (deviation_cost, (0, -1)),
            (deviation_cost, (3, 0)),
            (deviation_cost, (None, 3)),
        ],
        ids=lambda v: v.__name__ if callable(v) else ",".join(map(str, v)),
    )
    def test_rejects_resource_out_of_range(self, example1, call, args):
        with pytest.raises(GameError, match="not in range"):
            call(example1, (2, 2, 1), *args)

    @given(instances(min_m=2), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_deviation_cost_matches_post_move_profile(self, inst, rng):
        loads = random_profile(inst, rng)
        occupied = [r for r in range(inst.m) if loads[r] > 0]
        source = rng.choice(occupied)
        target = rng.choice([r for r in range(inst.m) if r != source])
        after = list(loads)
        after[source] -= 1
        after[target] += 1
        assert deviation_cost(inst, loads, source, target) == resource_cost(
            inst, after, target
        )

    @given(instances(), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_entering_player_cost_matches_post_entry_profile(self, inst, rng):
        loads = [0] * inst.m
        for _ in range(inst.n - 1):
            loads[rng.randrange(inst.m)] += 1
        target = rng.randrange(inst.m)
        after = list(loads)
        after[target] += 1
        assert deviation_cost(inst, loads, None, target) == resource_cost(
            inst, after, target
        )


class TestCheapestDeviation:
    def test_example_moves(self, example1):
        # On (2,2,1) an r2 player pays 7, and would pay 6 on r1 and 13 on r3.
        # The first player to enter pays only the budget on r1.
        assert kernel_moves(example1, (2, 2, 1))[1] == (Fraction(7), (Fraction(6), 0))
        assert kernel_moves(example1, (0, 0, 0))[None] == (None, (Fraction(6), 0))

    def test_single_resource(self):
        inst = validate_instance([3], 4, 2)
        assert kernel_moves(inst, (4,))[0] == (Fraction(14), None)
        assert kernel_moves(inst, (3,))[None] == (None, (Fraction(14), 0))

    def test_ties_break_to_smallest_target(self):
        inst = validate_instance([1, 1, 1], 3, 3)
        assert kernel_moves(inst, (1, 1, 1))[2] == (Fraction(2), (Fraction(5), 0))

    def test_rejects_empty_source(self, example1):
        with pytest.raises(GameError, match="^cannot deviate from empty resource 1$") as exc:
            deviation_cost(example1, (3, 0, 2), 1, 0)
        assert type(exc.value) is GameError


class TestPricingMatchesReference:
    @given(games(), st.fractions(min_value=1, max_value=2, max_denominator=6))
    @example((validate_instance([0, 0, 1], 3, 1), (2, 0, 1)), Fraction(1))
    @example((validate_instance([0, 3, 3], 4, 4), (0, 2, 2)), Fraction(1))
    @example((validate_instance([1, 1, 1], 3, 3), (1, 1, 1)), Fraction(1))
    @example((validate_instance([2], 3, 1), (3,)), Fraction(1))
    @settings(deadline=None)
    def test_matches_reference(self, game, alpha):
        assert_matches_reference(*game, alpha)

    @given(wide_games(), st.fractions(min_value=1, max_value=2, max_denominator=12))
    @example((validate_instance([1, 2, 3], 6, Fraction(5, 7)), (3, 2, 1)), Fraction(1))
    @example(
        (validate_instance([Fraction(1, 11), 1, 1, 1], 7, Fraction(1, 12)), (1, 3, 1, 2)),
        Fraction(1),
    )
    @settings(deadline=None, max_examples=200)
    def test_matches_reference_on_wide_games(self, game, alpha):
        inst, loads = game
        empty = (0,) * inst.m
        assert kernel_moves(inst, empty) == {
            None: (None, reference_cheapest_deviation(inst, empty, None))
        }
        assert_matches_reference(inst, loads, alpha)


class TestMalformedProfiles:
    @pytest.mark.parametrize("loads", [(2, 2, 1, 0), (3, 3, -1), (5, 0)])
    def test_rejected(self, example1, loads):
        # Each sums to the five players of the three-resource example.
        with pytest.raises(GameError):
            is_alpha_pne(example1, loads, 2)
        with pytest.raises(GameError):
            needed_alpha(example1, loads)
        with pytest.raises(GameError):
            binding_deviation(example1, loads)

    @pytest.mark.parametrize("loads", [(2, 2, 0), (2, 2, 2)])
    def test_is_alpha_pne_rejects_a_wrong_player_count(self, example1, loads):
        # Well-formed profiles of the wrong total: the pricing would accept them.
        with pytest.raises(GameError, match="expected 5 players"):
            is_alpha_pne(example1, loads, 2)


class TestNeededAlpha:
    def test_single_resource_is_exact(self):
        inst = validate_instance([3], 4, 2)
        assert needed_alpha(inst, (4,)) == 1
        assert binding_deviation(inst, (4,)) is None
        assert is_alpha_pne(inst, (4,), 1)

    def test_zero_cost_escape_is_infinite(self):
        inst = validate_instance([0, 0, 1], 3, 1)
        assert needed_alpha(inst, (2, 0, 1)) == INFINITY
        assert not is_alpha_pne(inst, (2, 0, 1), 10**9)

    def test_example_values(self, example1):
        assert needed_alpha(example1, (2, 2, 1)) == Fraction(7, 6)
        assert needed_alpha(example1, (4, 1, 0)) == Fraction(3, 2)
        assert needed_alpha(example1, (3, 2, 0)) == Fraction(6, 5)
        assert needed_alpha(example1, (3, 1, 1)) == Fraction(5, 4)
        assert needed_alpha(example1, (5, 0, 0)) == Fraction(3)

    def test_binding_deviation_realizes_needed_alpha(self, example1):
        ratio, source, target, cost, dev = binding_deviation(example1, (2, 2, 1))
        assert (source, target) == (1, 0)
        assert (cost, dev) == (Fraction(7), Fraction(6))
        assert ratio == needed_alpha(example1, (2, 2, 1)) == cost / dev

    def test_empty_profile_rejected(self, example1):
        with pytest.raises(GameError, match="^profile seats no players$") as exc:
            needed_alpha(example1, (0, 0, 0))
        assert type(exc.value) is GameError

    @given(instances(), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_monotone_in_alpha(self, inst, rng):
        loads = random_profile(inst, rng)
        value = needed_alpha(inst, loads)
        if value == INFINITY:
            assert not is_alpha_pne(inst, loads, 10**6)
            return
        assert is_alpha_pne(inst, loads, max(value, Fraction(1)))
        if value > 1:
            assert not is_alpha_pne(
                inst, loads, value - Fraction(1, 10**9)
            )

    @given(
        instances(),
        st.fractions(
            min_value=Fraction(1, 16), max_value=100, max_denominator=16
        ),
        st.randoms(use_true_random=False),
    )
    @settings(deadline=None)
    def test_invariant_under_scaling(self, inst, factor, rng):
        loads = random_profile(inst, rng)
        scaled = scale_instance(inst, factor)
        assert needed_alpha(scaled, loads) == needed_alpha(inst, loads)

    @given(wide_games(), st.fractions(min_value=0, max_value=3, max_denominator=12))
    @example((validate_instance([0, 0, 1], 3, 1), (2, 0, 1)), Fraction(2))
    @example((validate_instance([3], 4, 2), (4,)), Fraction(1, 2))
    @example((validate_instance([1, 2, 3], 6, Fraction(5, 7)), (3, 2, 1)), Fraction(1))
    @settings(deadline=None, max_examples=200)
    def test_is_alpha_pne_is_needed_alpha_at_most_alpha(self, game, alpha):
        # is_alpha_pne decides in integers; needed_alpha builds the Fraction.
        # The examples are an infinite factor (a zero-cost move), m = 1 below
        # factor 1, and a sole peak over bands at P - 1 and P - 2.
        inst, loads = game
        needed = needed_alpha(inst, loads)
        probes = [alpha, Fraction(1, 2), 1, 2, 1.5, 10**6]
        if needed != INFINITY:
            probes += [needed, needed - Fraction(1, 10**9), needed + Fraction(1, 10**9)]
        for probe in probes:
            assert is_alpha_pne(inst, loads, probe) == (needed <= Fraction(probe))


class TestThresholdConstant:
    def test_brackets_the_root(self):
        for precision in (3, 6, 9, 12):
            lo, hi = compute_K(precision)
            assert lo**3 - lo**2 / 2 - 1 <= 0 <= hi**3 - hi**2 / 2 - 1
            assert 0 < hi - lo <= Fraction(1, 10**precision)

    def test_approximate_value(self):
        assert abs(float(k_upper_bound(12)) - 1.1974293) < 1e-6

    @pytest.mark.parametrize("precision", [0, -3])
    def test_rejects_bad_arguments(self, precision):
        # A GameError, which is still a ValueError.
        for error in (GameError, ValueError):
            with pytest.raises(error, match=f"precision must be >= 1, got {precision}"):
                compute_K(precision)
        with pytest.raises(TypeError):
            compute_K(5, "toward-zero")

    def test_memoized_and_still_rejects_on_every_call(self):
        assert compute_K(7) is compute_K(7)
        for _ in range(2):
            with pytest.raises(GameError):
                compute_K(0)

    def test_every_spelling_shares_one_cache_entry(self):
        # A bisection returns a fresh tuple, so one object means one run.
        first = compute_K(23)
        assert compute_K(precision=23) is first
        assert k_upper_bound(23) is first[1]
        assert k_upper_bound(precision=23) is first[1]

    def test_tightens_with_precision(self):
        coarse_lo, coarse_hi = compute_K(4)
        fine_lo, fine_hi = compute_K(12)
        assert coarse_lo <= fine_lo <= fine_hi <= coarse_hi

    def test_upper_bound_is_the_bracket_top(self):
        # What the library's default solver factor and the benchmark read.
        assert k_upper_bound() == compute_K(12)[1] == Fraction(658293739699, 549755813888)


#: The package's public names, 27 of them.
PUBLIC_NAMES = {
    "FIXTURE_NAMES", "GameError", "GuardExceeded", "INFINITY",
    "InstanceDocument", "STRICT", "SolveTrace", "SolverConfig",
    "best_alpha", "binding_deviation", "compute_K", "deviation_cost",
    "format_rational", "generate_instance", "is_alpha_pne", "k_upper_bound",
    "load_instance_document", "make_fixtures", "needed_alpha",
    "oracle_best_alpha", "oracle_optima", "parse_instance_document",
    "parse_rational", "resource_cost", "scale_instance", "solve", "validate_instance",
}


def test_every_exported_name_resolves():
    package = importlib.import_module("congestion_adversary")
    modules = [package] + [
        importlib.import_module(f"congestion_adversary.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
    # The package exports the union of its modules' lists, each name
    # declared once, in the list of the module that defines it.
    lists = {module.__name__: getattr(module, "__all__", []) for module in modules[1:]}
    declared = [name for names in lists.values() for name in names]
    assert len(declared) == len(set(declared))
    assert sorted(package.__all__) == sorted(declared)
    assert set(declared) == PUBLIC_NAMES and len(PUBLIC_NAMES) == 27
    for module, names in lists.items():
        for name in names:
            assert getattr(getattr(package, name), "__module__", module) == module, name


def test_core_has_one_exception_class():
    # Every model error is a GameError; its message, not a subclass, names the fault.
    core = importlib.import_module("congestion_adversary.core")
    errors = [value for value in vars(core).values() if isinstance(value, type) and issubclass(value, Exception)]
    assert errors == [GameError]
