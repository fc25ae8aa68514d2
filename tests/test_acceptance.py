"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line (outside pytest's capture) and checks
both the mathematical claim and its time budget.  The bulk tests share their
instances with the final universal-bound check through a module-level
collection, so that check covers everything actually solved in this run.
"""

import json
import pathlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from congestion_adversary import (
    SolverConfig,
    best_alpha,
    K,
    compute_K,
    generate_instance,
    is_alpha_pne,
    needed_alpha,
    oracle_best_alpha,
    oracle_optima,
    scale_instance,
    solve,
    validate_instance,
)
from congestion_adversary.cli import main as cli_main
from test_optimal import inserted, scanned
from test_solver import trace_events

FIXTURES_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

#: (instance, equilibrium witness) pairs accumulated by the bulk criteria and
#: re-checked against the universal threshold at the end.
_collected = []


@contextmanager
def criterion(capsys, number, title, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    with capsys.disabled():
        print(f"PASS criterion {number}: {title} ({elapsed:.2f}s)")


def test_criterion_1_no_exact_equilibrium_in_example(capsys):
    # Every decreasing profile of the three-resource example fails at
    # alpha = 1 with exactly the documented improving deviation.
    expected = {
        (5, 0, 0): (0, 1, "6", "2"),
        (4, 1, 0): (0, 1, "6", "4"),
        (3, 2, 0): (0, 2, "6", "5"),
        (3, 1, 1): (2, 1, "5", "4"),
        (2, 2, 1): (1, 0, "7", "6"),
    }
    with criterion(capsys, 1, "example has no exact equilibrium", 1.0):
        for profile, (source, target, cost, dev) in expected.items():
            code = cli_main(
                [
                    "verify",
                    str(FIXTURES_DIR / "example1.json"),
                    ",".join(map(str, profile)),
                    "1",
                ]
            )
            obj = json.loads(capsys.readouterr().out)
            assert code == 1, profile
            assert obj["is_alpha_pne"] is False
            violation = obj["violation"]
            assert violation["from"] == source, profile
            assert violation["to"] == target, profile
            assert violation["cost"] == cost, profile
            assert violation["deviation_cost"] == dev, profile


def test_criterion_2_tightness_instance_approaches_threshold(capsys):
    with criterion(capsys, 2, "worst-case instance meets the threshold", 5.0):
        from congestion_adversary import load_instance_document

        inst = load_instance_document(str(FIXTURES_DIR / "tightness.json")).instance
        k_lo, k_hi = compute_K(12)
        tolerance = Fraction(1, 10**6)
        solver_value = best_alpha(inst).alpha_star
        oracle_value, _ = oracle_best_alpha(inst)
        assert solver_value == oracle_value
        assert k_lo - tolerance <= solver_value <= k_hi + tolerance


def test_criterion_3_seven_player_trace(capsys, seven_player):
    with criterion(capsys, 3, "seven-player run ends at 25/24", 1.0):
        loads, trace = solve(seven_player, SolverConfig())
        assert loads == (2, 2, 1, 1, 1)
        last_round = [
            ev[2:4] for ev in trace_events(trace) if ev[1] == 7 and ev[0] == "deviation"
        ]
        assert last_round == [(4, 1), (0, 4)]
        assert needed_alpha(seven_player, loads) == Fraction(25, 24)


def test_criterion_4_termination_within_strict_guard(capsys):
    with criterion(
        capsys, 4, "10000 random instances settle within the strict guard", 120.0
    ):
        rng = random.Random(20260823)
        config = SolverConfig()
        for i in range(10_000):
            inst = generate_instance(
                n=rng.randint(1, 30), m=rng.randint(1, 10), seed=i
            ).instance
            loads, _ = solve(inst, config)  # GuardExceeded would fail the test
            assert is_alpha_pne(inst, loads, config.alpha)
            _collected.append((inst, loads))


def test_criterion_5_small_games_always_have_exact_equilibria(capsys):
    with criterion(
        capsys, 5, "1000 instances with n <= 4 or m <= 2 have exact equilibria", 30.0
    ):
        rng = random.Random(5)
        for i in range(1_000):
            if i % 2 == 0:
                n, m = rng.randint(1, 4), rng.randint(1, 10)
            else:
                n, m = rng.randint(1, 25), rng.randint(1, 2)
            inst = generate_instance(n=n, m=m, seed=i).instance
            value, witness = oracle_best_alpha(inst)
            assert value <= 1, inst
            assert is_alpha_pne(inst, witness, 1)
            _collected.append((inst, witness))


def test_criterion_6_optimal_solver_matches_oracle(capsys):
    with criterion(
        capsys, 6, "500 random instances: shape enumeration equals oracle", 300.0
    ):
        # best_alpha answers most of these from the insertion profile, so
        # the shape scan alone is held to the oracle too.
        rng, answered = random.Random(6), 0
        for i in range(500):
            inst = generate_instance(
                n=rng.randint(1, 10), m=rng.randint(1, 4), seed=10_000 + i
            ).instance
            result = best_alpha(inst)
            scan = scanned(inst)
            oracle_value, oracle_witness = oracle_best_alpha(inst)
            assert result.alpha_star == scan.alpha_star == oracle_value, inst
            assert is_alpha_pne(inst, result.witness, result.alpha_star)
            assert is_alpha_pne(inst, scan.witness, scan.alpha_star)
            assert is_alpha_pne(inst, oracle_witness, oracle_value)
            answered += is_alpha_pne(inst, inserted(inst), 1)
            _collected.append((inst, result.witness))
        with capsys.disabled():
            print(f"criterion 6: the insertion profile answered {answered} of 500")


def test_criterion_7_threshold_constant_identity(capsys):
    with criterion(capsys, 7, "threshold constant satisfies its cubic", 1.0):
        lo, hi = compute_K(12)
        residual = hi**3 - hi**2 / 2 - 1
        assert 0 <= residual < Fraction(1, 10**11)
        assert hi - lo <= Fraction(1, 10**12)


def test_criterion_8_scale_invariance(capsys):
    with criterion(capsys, 8, "scaling preserves factors, scales slack", 30.0):
        rng = random.Random(8)
        for i in range(100):
            inst = generate_instance(
                n=rng.randint(1, 8), m=rng.randint(1, 3), seed=20_000 + i
            ).instance
            factor = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            scaled = scale_instance(inst, factor)
            assert oracle_best_alpha(scaled) == oracle_best_alpha(inst)
            epsilon, witness = oracle_optima(inst)[2:]
            scaled_epsilon, scaled_witness = oracle_optima(scaled)[2:]
            assert scaled_epsilon == epsilon * factor
            assert scaled_witness == witness
        # No universal additive guarantee can exist: the example's slack is
        # positive, so scaling beats any fixed epsilon.
        example = validate_instance([0, 2, 5], 5, 6)
        base_epsilon, _ = oracle_optima(example)[2:]
        assert base_epsilon > 0
        target = Fraction(10**6)
        blown_up = scale_instance(example, target / base_epsilon + 1)
        worst, _ = oracle_optima(blown_up)[2:]
        assert worst > target


def test_criterion_9_universal_bound_on_all_witnesses(capsys):
    with criterion(
        capsys, 9, "every computed equilibrium respects the universal bound", 120.0
    ):
        assert len(_collected) == 11_500  # criteria 4-6 all ran first
        for inst, witness in _collected:
            assert is_alpha_pne(inst, witness, K)
