"""Tests of the benchmark itself: determinism, coverage of the wrappers, output format.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import Tracer, is_traced  # noqa: E402
from workloads import CHECK_REPEATS, WORKLOADS  # noqa: E402

SEED = 7
HELD_OUT_SEED = 90210
#: Any positive length gives one run of the shortest kind: one instance
#: untraced, one pair of passes traced.
SHORT = 0.01

#: Counts that must repeat exactly between traced runs of the same seed.
EXACT = [
    name
    for name in run.per_layer_units()
    if name.endswith(".calls")
    or name in ("optimal.candidates", "oracle.profiles", "solver.deviations")
]

_cache = {}


def traced(name: str, seed: int = SEED, index: int = 0) -> dict:
    key = (name, seed, index)
    if key not in _cache:
        _cache[key] = run.run_workload(name, seed, SHORT, trace=True)
    return _cache[key]


def values(out: dict) -> dict:
    return {k: v["value"] for k, v in out["result"]["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_the_same_seed(name):
    first, second = values(traced(name)), values(traced(name, index=1))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert traced(name)["record"]["counts"] == traced(name, index=1)["record"]["counts"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_seed_passes_every_check(name):
    for trace in (False, True):
        out = run.run_workload(name, HELD_OUT_SEED, SHORT, trace=trace)
        assert out["result"]["correct"], out["record"]["failures"]
        assert out["result"]["failed"] == 0
        assert out["result"]["attempted"] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_has_every_metric_with_its_unit(name):
    untraced = run.run_workload(name, SEED, SHORT, trace=False)["result"]
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    assert {k: v["unit"] for k, v in traced(name)["result"]["metrics"].items()} == (
        run.per_layer_units()
    )


def test_solve_uniform_wrappers_see_the_solver_layers():
    m = values(traced("solve_uniform"))
    instances = traced("solve_uniform")["record"]["trace_set"]
    for name in (
        "solver.unhappy_set.calls",
        "solver.best_response.calls",
        "core.resource_cost.calls",
        "core.deviation_cost.calls",
        "solver.unhappy_set.self_s",
        "solver.solve.self_s",
    ):
        assert m[name] > 0, name
    # One is_alpha_pne per check repetition, each through needed_alpha.
    assert m["core.needed_alpha.calls"] == CHECK_REPEATS * instances
    assert m["optimal.candidates"] == 0 and m["oracle.profiles"] == 0


def test_best_alpha_uniform_wrappers_see_optimal_and_oracle():
    m = values(traced("best_alpha_uniform"))
    instances = traced("best_alpha_uniform")["record"]["trace_set"]
    for name in (
        "optimal.candidates",
        "optimal.feasible_load_vector.calls",
        "optimal.cbar_candidates.calls",
        "optimal.post_check.calls",
        "oracle.profiles",
        "core.deviation_cost.calls",
        "optimal.candidate_alphas.self_s",
    ):
        assert m[name] > 0, name
    assert m["oracle.oracle_best_alpha.calls"] == CHECK_REPEATS * instances
    # best_alpha reports the binding deviation of its witness once.
    assert m["core.binding_deviation.calls"] == instances
    assert m["optimal.hard_share"] <= 0.1
    assert m["solver.unhappy_set.calls"] == 0


def test_cli_hard_wrappers_see_the_cli_and_documents():
    m = values(traced("cli_hard"))
    instances = traced("cli_hard")["record"]["trace_set"]
    # The oracle command calls oracle_best_alpha directly and again through
    # oracle_has_exact_pne.
    assert m["oracle.oracle_best_alpha.calls"] == 2 * CHECK_REPEATS * instances
    for name in (
        "cli.main.self_s",
        "documents.load_instance_document.self_s",
        "documents.result_document.self_s",
        "oracle.oracle_best_additive_epsilon.self_s",
        "optimal.feasible_load_vector.calls",
    ):
        assert m[name] > 0, name
    assert m["optimal.hard_share"] >= 0.9


def test_wrappers_are_restored_after_a_traced_run():
    traced("cli_hard")
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith(run.PACKAGE):
            leftovers = [a for a, v in vars(module).items() if is_traced(v)]
            assert leftovers == [], module_name


def test_wrappers_are_restored_when_the_pass_raises():
    mods = run.import_program()
    original = mods.solver.deviation_cost
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed(mods):
            assert is_traced(mods.solver.deviation_cost)
            assert is_traced(mods.core.deviation_cost)
            1 / 0
    assert mods.solver.deviation_cost is original
    assert not is_traced(mods.core.deviation_cost)


def test_counts_are_summed_over_calling_modules():
    mods = run.import_program()
    inst = mods.core.validate_instance([0, 2, 5], 5, 6)
    tracer = Tracer()
    with tracer.installed(mods):
        # needed_alpha prices two moves per resource and the best one again.
        mods.core.needed_alpha(inst, (2, 2, 1))
        # best_response prices the two moves away from resource 0.
        mods.solver.best_response(inst, (2, 2, 1), 0)
    assert tracer.counts["core.deviation_cost.calls"] == 3 * 3 + 2
    assert tracer.counts["core.needed_alpha.calls"] == 1


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("b", 5.0, 6.0, 0, 0)]
    assert tracer.self_times() == {"a": 6.0, "b": 4.0}


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_exits_without_a_result_when_the_program_is_missing():
    os.makedirs(run.WORK_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_DIR)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "solve_uniform",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
