import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congestion_adversary import (
    deviation_cost,
    generate_instance,
    is_alpha_pne,
    make_fixtures,
    needed_alpha,
    oracle_best_alpha,
    oracle_optima,
    resource_cost,
    scale_instance,
    validate_instance,
)
from congestion_adversary import oracle as oracle_module
from congestion_adversary.core import _fraction, _occupied


def padded_partitions(n, m):
    """The oracle's profiles in its order: each of oracle._partitions, zero-padded to m."""
    for parts in oracle_module._partitions(n, m):
        yield oracle_module._padded(parts, m)


def descending(remaining, slots, cap):
    """Recursive reference enumerator: the zero-padded partitions of `remaining` into
    at most `slots` parts of at most `cap`, in lexicographically descending order."""
    if remaining == 0:  # Zeros at once: recursing per empty slot would nest m deep.
        yield (0,) * slots
        return
    if slots == 0:
        return
    for first in range(min(cap, remaining), -1, -1):
        if first * slots < remaining:
            break
        for rest in descending(remaining - first, slots - 1, first):
            yield (first,) + rest


def all_compositions(n, m):
    """Every load vector (ordered, not just non-increasing) — independent check."""
    for cut in itertools.combinations(range(n + m - 1), m - 1):
        prev = -1
        parts = []
        for c in cut + (n + m - 1,):
            parts.append(c - prev - 1)
            prev = c
        yield tuple(parts)


def reference_slack(inst, profile):
    """The profile's additive slack, every move priced through the Fraction spec."""
    return max(
        [
            resource_cost(inst, profile, r) - deviation_cost(inst, profile, r, s)
            for r in range(inst.m)
            if profile[r] > 0
            for s in range(inst.m)
            if s != r
        ]
        + [Fraction(0)]
    )


def reference_best_additive_epsilon(inst):
    """The first minimum of reference_slack over decreasing profiles."""
    best = None
    for profile in descending(inst.n, inst.m, inst.n):
        slack = reference_slack(inst, profile)
        if best is None or slack < best[0]:
            best = (slack, profile)
    return best


def reference_oracle_best_alpha(inst):
    """max(needed_alpha, 1) of every profile in Fractions; first minimum over profiles."""
    best = None
    for profile in descending(inst.n, inst.m, inst.n):
        value = max(needed_alpha(inst, profile), Fraction(1))
        if best is None or value < best[0]:
            best = (value, profile)
    return best


def reference_oracle_optima(inst):
    """The per-resource oracle: every profile priced over all m resources by _occupied.

    Same integer pairs and first-minimum rule as oracle_optima, which prices
    band heads and tails only; this one reads every resource.
    """
    form = inst.form
    best = least = None
    for profile in padded_partitions(inst.n, inst.m):
        factor, slack = (1, 1), (0, 1)
        for _, cost, k, dev, j, _ in _occupied(form, profile):
            if dev is None:
                break
            if cost * j * factor[1] > factor[0] * k * dev:
                factor = (cost * j, k * dev)
            if (cost * j - dev * k) * slack[1] > slack[0] * k * j:
                slack = (cost * j - dev * k, k * j)
        if best is None or factor[0] * best[1] < best[0] * factor[1]:
            best, witness = factor, profile
        if least is None or slack[0] * least[1] < least[0] * slack[1]:
            least, epsilon_witness = slack, profile
    return Fraction(*best), witness, _fraction(form, *least), epsilon_witness


@st.composite
def banded_instances(draw):
    """Up to 20 players on 1 to 12 resources, often fewer players than resources.

    Coefficients are mostly drawn from a few values, zero among them, so
    ties and zero-cost moves are common.  The oracle enumerates every
    profile, so each instance brings profiles of up to five bands, and with
    six or more players on three or more resources a sole peak P over bands
    at P - 1 and P - 2.
    """
    m = draw(st.integers(min_value=1, max_value=12))
    coefficient = st.one_of(
        st.sampled_from([0, 0, 1, 1, Fraction(1, 3), 2]),
        st.fractions(min_value=0, max_value=6, max_denominator=12),
    )
    coefficients = draw(st.lists(coefficient, min_size=m, max_size=m))
    budget = draw(st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12))
    return validate_instance(coefficients, draw(st.integers(min_value=1, max_value=20)), budget)


def truncated(inst):
    """`inst` on its n + 1 cheapest resources."""
    return validate_instance(inst.coefficients[: inst.n + 1], inst.n, inst.budget)


def padded(optima, m):
    alpha, witness, epsilon, epsilon_witness = optima
    pad = (0,) * (m - len(witness))
    return alpha, witness + pad, epsilon, epsilon_witness + pad


def jittered(inst, seed):
    """`inst` with each coefficient and the budget times a seeded factor within 2 % of 1."""
    rng = random.Random(seed)
    factors = [1 + Fraction(rng.randint(-100, 100), 5000) for _ in range(inst.m + 1)]
    coefficients = [a * f for a, f in zip(inst.coefficients, factors)]
    return validate_instance(coefficients, inst.n, inst.budget * factors[-1])


RANDOM = [generate_instance(n=1 + i % 8, m=1 + i % 4, seed=i).instance for i in range(64)]
ZERO_COEFFICIENTS = [
    validate_instance([0, 0, 1], 4, 2),
    validate_instance([0, 0], 3, 1),
    validate_instance([0, 0, 0], 5, 1),
    validate_instance([0, Fraction(1, 7), Fraction(5, 11)], 6, Fraction(3, 4)),
]
#: Each fixture with coefficients and budget jittered, five seeds each.
JITTERED = [jittered(doc.instance, seed) for doc in make_fixtures().values() for seed in range(5)]


class TestEnumeration:
    @given(st.integers(1, 9), st.integers(1, 5))
    @settings(deadline=None)
    def test_profiles_are_exactly_sorted_compositions(self, n, m):
        profiles = list(padded_partitions(n, m))
        expected = {
            tuple(sorted(c, reverse=True)) for c in all_compositions(n, m)
        }
        assert set(profiles) == expected
        assert len(profiles) == len(expected)

    @given(st.integers(1, 12), st.integers(1, 6))
    @settings(deadline=None)
    def test_descending_order_and_shape(self, n, m):
        profiles = list(padded_partitions(n, m))
        assert profiles == sorted(profiles, reverse=True)
        for p in profiles:
            assert len(p) == m and sum(p) == n
            assert all(p[i] >= p[i + 1] for i in range(m - 1))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(padded_partitions(0, 3))
        with pytest.raises(ValueError):
            list(padded_partitions(3, 0))

    @pytest.mark.parametrize("m", [*range(1, 9), 30])
    def test_matches_the_recursive_reference(self, m):
        for n in range(1, 26):
            assert list(padded_partitions(n, m)) == list(descending(n, m, n))

    def test_matches_the_recursive_reference_on_many_resources(self):
        assert list(padded_partitions(26, 2000)) == list(descending(26, 2000, 26))

    def test_partition_counts(self):
        # p(10) = 42 partitions into at most 10 parts; 1 part -> single profile.
        assert len(list(padded_partitions(10, 10))) == 42
        assert len(list(padded_partitions(10, 1))) == 1
        assert len(list(padded_partitions(1, 7))) == 1


class TestBestAlpha:
    def test_example_optimum(self, example1):
        value, witness = oracle_best_alpha(example1)
        assert value == Fraction(7, 6)
        assert witness == (2, 2, 1)
        assert is_alpha_pne(example1, witness, value)

    def test_exact_equilibrium_detection(self, example1):
        assert not oracle_best_alpha(example1)[0] <= 1
        inst = validate_instance([1, 1], 2, 2)
        value, witness = oracle_best_alpha(inst)
        assert value <= 1
        assert needed_alpha(inst, witness) <= 1

    @pytest.mark.parametrize("seed", range(30))
    def test_restriction_to_decreasing_profiles_is_lossless(self, seed):
        """The optimum over all load vectors equals the optimum over sorted ones.

        Justifies the partition-based search space; checked against a direct
        enumeration of every composition.
        """
        inst = generate_instance(n=2 + seed % 5, m=2 + seed % 3, seed=seed).instance
        value, _ = oracle_best_alpha(inst)
        full = min(
            max(needed_alpha(inst, c), Fraction(1))
            for c in all_compositions(inst.n, inst.m)
        )
        assert value == full

    @pytest.mark.parametrize("inst", RANDOM[:40] + ZERO_COEFFICIENTS)
    def test_matches_reference(self, inst):
        assert oracle_best_alpha(inst) == reference_oracle_best_alpha(inst)

    @pytest.mark.parametrize("seed", range(20))
    def test_witness_is_optimal_and_verifies(self, seed):
        inst = generate_instance(n=3 + seed % 6, m=2 + seed % 4, seed=seed).instance
        value, witness = oracle_best_alpha(inst)
        assert max(needed_alpha(inst, witness), Fraction(1)) == value
        assert is_alpha_pne(inst, witness, value)


class TestAdditiveEpsilon:
    def test_example_value(self, example1):
        epsilon, witness = oracle_optima(example1)[2:]
        assert epsilon == Fraction(1)
        # (3,2,0) and (2,2,1) both have slack 1; enumeration order keeps the
        # lexicographically larger one.
        assert witness == (3, 2, 0)

    def test_zero_iff_exact_equilibrium(self):
        for seed in range(25):
            inst = generate_instance(n=2 + seed % 5, m=2 + seed % 3, seed=seed).instance
            epsilon, _ = oracle_optima(inst)[2:]
            assert (epsilon == 0) == (oracle_best_alpha(inst)[0] <= 1)

    def test_scales_linearly(self, example1):
        epsilon, _ = oracle_optima(example1)[2:]
        scaled_epsilon, _ = oracle_optima(scale_instance(example1, Fraction(7, 3)))[2:]
        assert scaled_epsilon == epsilon * Fraction(7, 3)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference(self, seed):
        inst = generate_instance(n=1 + seed % 8, m=1 + seed % 4, seed=seed).instance
        assert oracle_optima(inst)[2:] == reference_best_additive_epsilon(inst)

    @pytest.mark.parametrize("inst", RANDOM + JITTERED)
    def test_decreasing_profiles_reach_the_minimum_over_all_compositions(self, inst):
        # The swap argument behind the restriction is made for the factor;
        # for the slack, this compares with every ordered load vector.
        epsilon, witness = oracle_optima(inst)[2:]
        assert epsilon == min(reference_slack(inst, c) for c in all_compositions(inst.n, inst.m))
        assert reference_slack(inst, witness) == epsilon

    def test_single_resource_has_no_slack(self):
        inst = validate_instance([3], 5, 2)
        epsilon, witness = oracle_optima(inst)[2:]
        assert epsilon == 0 and witness == (5,)


class TestOptima:
    @pytest.mark.parametrize("inst", RANDOM + ZERO_COEFFICIENTS + JITTERED)
    def test_both_optima_and_witnesses_match_the_references(self, inst):
        # One pass keeps each measure's first minimum, as two separate passes would.
        optima = oracle_optima(inst)
        assert optima == reference_oracle_best_alpha(inst) + reference_best_additive_epsilon(inst)
        assert optima == reference_oracle_optima(inst)
        assert oracle_best_alpha(inst) == optima[:2]

    def test_example(self, example1):
        assert oracle_optima(example1) == (Fraction(7, 6), (2, 2, 1), Fraction(1), (3, 2, 0))


class TestBands:
    @given(banded_instances())
    @example(validate_instance([3], 5, 2))
    @example(validate_instance([0, 0, 1, 1, 1], 3, 1))
    @example(validate_instance([1, 1, 2, 3], 6, Fraction(5, 7)))
    @settings(deadline=None, max_examples=150)
    def test_matches_the_per_resource_oracle(self, inst):
        assert oracle_optima(inst) == reference_oracle_optima(inst)

    def test_matches_the_per_resource_oracle_on_many_resources(self):
        inst = generate_instance(26, 2000, 1).instance
        assert oracle_optima(inst) == reference_oracle_optima(inst)

    @pytest.mark.parametrize("extra", [2, 5, 9])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_resources_past_the_first_empty_one_never_matter(self, n, extra):
        # Each resource past index n is an empty one no cheaper than the
        # resource at n, so the per-resource oracle on the n + 1 cheapest
        # gives the same optima, padded.
        inst = generate_instance(n, n + extra, seed=100 * n + extra).instance
        assert reference_oracle_optima(inst) == padded(reference_oracle_optima(truncated(inst)), inst.m)

    def test_matches_the_per_resource_oracle_on_forty_players(self):
        # The per-resource oracle takes about 25 s on all 2 000 resources;
        # by the test above, its optima on the first 41 are the same, padded.
        inst = generate_instance(40, 2000, 1).instance
        assert oracle_optima(inst) == padded(reference_oracle_optima(truncated(inst)), inst.m)


class TestEarlyExit:
    """oracle_optima stops at the first profile at factor 1, which is also at slack 0."""

    @staticmethod
    def priced(monkeypatch, inst):
        """oracle_optima(inst) and the number of profiles it priced."""
        calls, pricing = [], oracle_module._pricing

        def counted(*args):
            calls.append(None)
            return pricing(*args)

        monkeypatch.setattr(oracle_module, "_pricing", counted)
        return oracle_optima(inst), len(calls)

    @pytest.mark.parametrize("inst", RANDOM + ZERO_COEFFICIENTS + JITTERED)
    def test_prices_up_to_the_first_exact_equilibrium(self, monkeypatch, inst):
        # The references walk every profile; the witness of both measures is
        # the first exact equilibrium, and nothing past it is priced.
        optima, count = self.priced(monkeypatch, inst)
        assert optima == reference_oracle_optima(inst)
        alpha, witness, epsilon, epsilon_witness = optima
        profiles = list(padded_partitions(inst.n, inst.m))
        if alpha == 1:
            assert (epsilon, epsilon_witness) == (0, witness)
            assert count == profiles.index(witness) + 1
        else:
            assert epsilon > 0
            assert count == len(profiles)

    def test_the_pool_has_each_kind_of_exit(self):
        # The test above sees the witness first, last and in between, and
        # instances that walk every profile.
        kinds = set()
        for inst in RANDOM + ZERO_COEFFICIENTS + JITTERED:
            alpha, witness = reference_oracle_optima(inst)[:2]
            if alpha > 1:
                kinds.add("walk")
                continue
            profiles = list(padded_partitions(inst.n, inst.m))
            i = profiles.index(witness)
            kinds.add("first" if i == 0 else "last" if i == len(profiles) - 1 else "between")
        assert kinds == {"first", "last", "between", "walk"}

    def test_example_walks_every_profile(self, monkeypatch, example1):
        assert self.priced(monkeypatch, example1) == (oracle_optima(example1), 5)

    def test_one_resource_prices_its_one_profile(self, monkeypatch):
        inst = validate_instance([3], 5, 2)
        assert self.priced(monkeypatch, inst) == ((1, (5,), 0, (5,)), 1)
