"""Benchmark of the congestion_adversary solvers, end to end and per layer.

One run measures one workload in this process, a single-threaded closed loop
with one caller:

    python3 bench/run.py --workload solve_uniform --seed 1 --seconds 30 --trace 0

``--trace 0`` cycles through the workload's instance pool for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` repeats pairs of passes
over the first instances of the pool, one plain and one with every layer
wrapped (see tracing.py), and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it is the run record
(interpreter, machine, commit, seed, sample counts, workload shares).

    python3 bench/run.py --all --seed 1 --seconds 30

runs every workload plain and traced, each in its own process, prints every
metric by name and unit with its sample count, and writes both runs side by
side to ``.bench_out/all-seed<seed>.json``.

The program is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with an error, printing no result, if it is missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import List  # noqa: E402

from tracing import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, Context, Samples, percentiles  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "congestion_adversary"
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")

#: Set-ups per run; setup_s is their median.
SETUPS = 9
#: Seconds the calibration kernel takes at the reference speed.
REFERENCE_S = 0.0032

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "solver_ms_p50": "ms",
    "solver_ms_p90": "ms",
    "check_ms_p50": "ms",
    "check_ms_p90": "ms",
}

#: Spanned layers reporting calls and self time per pass.
LAYER_TIMES = (
    "solver.unhappy_set",
    "solver.best_response",
    "solver.solve",
    "core.needed_alpha",
    "core.is_alpha_pne",
    "optimal.candidate_alphas",
    "optimal.feasible_load_vector",
    "optimal.best_alpha",
    "oracle.oracle_best_alpha",
    "oracle.oracle_best_additive_epsilon",
    "documents.load_instance_document",
    "documents.result_document",
    "cli.main",
)
#: Exact counts per pass of a traced run.
LAYER_COUNTS = (
    "solver.unhappy_set.calls",
    "solver.best_response.calls",
    "core.resource_cost.calls",
    "core.deviation_cost.calls",
    "core.needed_alpha.calls",
    "core.binding_deviation.calls",
    "optimal.candidates",
    "optimal.feasible_load_vector.calls",
    "optimal.cbar_candidates.calls",
    "optimal.post_check.calls",
    "optimal.post_check.rejections",
    "oracle.profiles",
    "oracle.oracle_best_alpha.calls",
    "solver.deviations",
)
SHARES = ("optimal.hard_share", "solver.guard_use_max", "solver.zero_deviation_share")


def per_layer_units() -> dict:
    units = {f"{name}.self_s": "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["optimal.witness_ratio"] = "ratio"
    units.update({name: "ratio" for name in SHARES})
    units["trace.overhead"] = "ratio"
    return units


# --- speed calibration ---------------------------------------------------------


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel of exact rational arithmetic.

    The kernel uses no code of the program, so a change to the program
    cannot change it; it shows how fast this machine runs Python right now.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for p in range(1, 40):
        a = Fraction(p, 7)
        for q in range(1, 12):
            b = Fraction(q, 3) + a
            if b * 5 > a * q:
                total += a / b
    elapsed = time.perf_counter() - start
    if total <= 0:
        raise AssertionError("calibration kernel lost its result")
    return elapsed


class Speed:
    """Calibrations over a run, and scaling of timed calls to the reference speed.

    On a shared host the speed of this process drifts by up to a factor of
    two, and changes within a second.  The kernel is timed just before each
    instance and just before its checks; a call's time is scaled by
    REFERENCE_S over the kernel time interpolated at the call's midpoint.
    This removes the drift and keeps any change in the program.
    """

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []

    def calibrate(self) -> None:
        start = time.perf_counter()
        took = calibrate()
        self.at.append(start + took / 2)
        self.took.append(took)

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """`seconds` measured over [start, end], at the reference speed."""
        middle = (start + end) / 2
        i = bisect.bisect(self.at, middle)
        if i == 0:
            took = self.took[0]
        elif i == len(self.at):
            took = self.took[-1]
        else:
            w = (middle - self.at[i - 1]) / (self.at[i] - self.at[i - 1])
            took = self.took[i - 1] * (1 - w) + self.took[i] * w
        return seconds * REFERENCE_S / took

    def summary(self) -> dict:
        return {
            "reference_s": REFERENCE_S,
            "calibrations": len(self.took),
            "median_s": statistics.median(self.took),
            "min_s": min(self.took),
            "max_s": max(self.took),
        }


# --- set-up -----------------------------------------------------------------


def import_program() -> SimpleNamespace:
    """Import the package afresh from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        sys.exit(f"error: {PACKAGE} not found under {SRC}; run from a checkout of the repository")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = SimpleNamespace(
        **{short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
    )
    if not os.path.abspath(mods.core.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported {mods.core.__file__}, not the checkout's {SRC}")
    return mods


def set_up(workload, seed: int, workdir: str):
    """Everything before the first timed call: import, K bracket, instances, files."""
    ctx = Context(import_program(), workdir)
    return ctx, workload.make_pool(ctx, seed, workload.pool_size)


def set_up_repeatedly(workload, seed: int, workdir: str, speed: Speed):
    """Set up SETUPS times; the first is timed from the start of this script.

    Returns the context and pool of the last set-up, and each set-up's time
    as measured and scaled to the reference speed.
    """
    spans = []
    start = STARTED
    for index in range(SETUPS):
        if index:
            # Collect the previous set-up's modules and pool now, not inside
            # the next timed set-up.
            ctx = pool = None
            gc.collect()
            start = time.perf_counter()
        ctx, pool = set_up(workload, seed, workdir)
        spans.append((start, time.perf_counter()))
        speed.calibrate()
    # Objects made at set-up live for the whole run; keep them out of the
    # collector's full passes so those cost the same in every run.
    gc.collect()
    gc.freeze()
    raw = [end - start for start, end in spans]
    return ctx, pool, raw, [speed.scaled(a, b, b - a) for a, b in spans]


# --- measurement ------------------------------------------------------------


class Timings:
    """A run's timed calls at the reference speed, in milliseconds."""

    def __init__(self, s: Samples, speed: Speed) -> None:
        self.ms = defaultdict(list)
        self.raw_ms = defaultdict(list)
        for op, start, end in s.timed:
            self.raw_ms[op].append((end - start) * 1000)
            self.ms[op].append(speed.scaled(start, end, end - start) * 1000)
        self.check_ms = [speed.scaled(a, b, seconds) * 1000 for a, b, seconds in s.checks]
        #: Seconds inside the program's calls, over whole instances.
        self.program_s = sum(sum(values) for values in self.ms.values()) / 1000

    def operations(self) -> dict:
        """Per operation: sample count, scaled and as-measured percentiles."""
        summary = {}
        for op, values in sorted(self.ms.items()):
            raw = percentiles(self.raw_ms[op])
            summary[op] = {
                "samples": len(values),
                **percentiles(values),
                "raw_p50": raw["p50"],
                "raw_p90": raw["p90"],
            }
        return summary


def run_instance(workload, ctx, inst, s: Samples) -> None:
    s.calibrate()
    workload.run_one(ctx, inst, s)
    s.instances += 1


def measure(workload, ctx, pool, seconds: float, speed: Speed):
    """Closed loop over the pool until `seconds` have passed."""
    s = Samples(speed.calibrate)
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        run_instance(workload, ctx, pool[index % len(pool)], s)
        index += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    speed.calibrate()
    t = Timings(s, speed)
    solver = percentiles(t.ms[workload.solver_op])
    check = percentiles(t.check_ms)
    metrics = {
        "instances_per_s": s.instances / t.program_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "solver_ms_p50": solver["p50"],
        "solver_ms_p90": solver["p90"],
        "check_ms_p50": check["p50"],
        "check_ms_p90": check["p90"],
    }
    operations = t.operations()
    record = {
        "timed_wall_s": wall,
        "raw_instances_per_s": s.instances / wall,
        "instances": s.instances,
        "samples": {
            "solver_ms": len(t.ms[workload.solver_op]),
            "check_ms": len(t.check_ms),
            **{f"{op}_ms": n["samples"] for op, n in operations.items()},
        },
        "operations_ms": operations,
        "fail_rate": s.failed / s.attempted if s.attempted else 0.0,
        "shares": s.shares(),
    }
    return s, metrics, record


def measure_traced(workload, ctx, pool, seconds: float, speed: Speed, spans_path: str):
    """Pairs of plain and traced passes over the trace set until `seconds` pass.

    Counts must repeat exactly in every traced pass; a pass that differs is a
    failed operation.  Self times are averaged over the traced passes, and
    trace.overhead compares the scaled time inside the program's calls of
    the two kinds of pass.
    """
    instances = pool[: workload.trace_size]
    total = Samples(speed.calibrate)
    passes = {"plain": [], "traced": []}
    self_sum: Counter = Counter()
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        for kind in passes:
            s = Samples(speed.calibrate)
            tracer = Tracer()
            with tracer.installed(ctx.mods) if kind == "traced" else contextlib.nullcontext():
                for index, inst in enumerate(instances):
                    tracer.instance = index
                    run_instance(workload, ctx, inst, s)
            speed.calibrate()
            passes[kind].append(Timings(s, speed).program_s)
            total.attempted += s.attempted
            total.failed += s.failed
            total.failures.extend(s.failures)
        # The traced pass runs last, so `tracer` and `s` are its own here.
        counts = dict(tracer.counts, **{"solver.deviations": s.deviations})
        if first is None:
            first = (counts, s.shares())
            write_spans(spans_path, tracer.spans)
        elif counts != first[0]:
            total.attempted += 1
            total.fail("trace", "counts differ between traced passes of the same instances")
        self_sum.update(tracer.self_times())
        if time.perf_counter() >= deadline:
            break
    counts, shares = first
    traced_passes = len(passes["traced"])
    metrics = {f"{name}.self_s": self_sum[name] / traced_passes for name in LAYER_TIMES}
    metrics.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    fills = counts.get("optimal.feasible_load_vector.calls", 0)
    metrics["optimal.witness_ratio"] = (
        counts.get("optimal.feasible_load_vector.witnesses", 0) / fills if fills else 0.0
    )
    metrics.update({name: shares[name]["value"] for name in SHARES})
    metrics["trace.overhead"] = sum(passes["plain"]) / sum(passes["traced"])
    record = {
        "trace_set": len(instances),
        "passes": traced_passes,
        "plain_pass_s": passes["plain"],
        "traced_pass_s": passes["traced"],
        "counts": dict(sorted(counts.items())),
        "shares": shares,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return total, metrics, record


def write_spans(path: str, spans) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index,name,start_s,end_s,parent,instance\n")
        for index, (name, start, end, parent, instance) in enumerate(spans):
            handle.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{instance}\n")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set up, measure, and return the result object and run record."""
    workload = WORKLOADS[name]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    speed = Speed()
    try:
        ctx, pool, raw_setups, setups = set_up_repeatedly(workload, seed, workdir, speed)
        if trace:
            spans = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.csv")
            s, metrics, detail = measure_traced(workload, ctx, pool, seconds, speed, spans)
            units = per_layer_units()
        else:
            s, metrics, detail = measure(workload, ctx, pool, seconds, speed)
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "speed": speed.summary(),
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "attempted": s.attempted,
        "failed": s.failed,
        "failures": s.failures,
        **detail,
    }
    result = {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return {"record": record, "result": result}


# --- all workloads ------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Every workload, plain then traced, each in its own process."""
    runs = {}
    for name in WORKLOADS:
        runs[name] = {}
        for trace in (0, 1):
            argv = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr, file=sys.stderr)
                print(f"error: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            runs[name]["traced" if trace else "untraced"] = {
                "record": json.loads(lines[-2])["record"],
                "result": json.loads(lines[-1]),
            }
    print_tables(runs)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"all-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=2)
    print(f"\nwrote {os.path.relpath(path, ROOT)}")
    return 0 if all(r[k]["result"]["correct"] for r in runs.values() for k in r) else 1


def print_tables(runs: dict) -> None:
    names = list(runs)
    print(f"{'end-to-end metric':<26}{'unit':<7}" + "".join(f"{n:>26}" for n in names))
    rows = []
    for metric, unit in END_TO_END.items():
        cells = []
        for name in names:
            run = runs[name]["untraced"]
            value = run["result"]["metrics"][metric]["value"]
            samples = _sample_count(run["record"], metric)
            cells.append(f"{value:.4g} (n={samples})")
        rows.append((metric, unit, cells))
    rows.append(("fail_rate", "ratio", [
        f"{runs[n]['untraced']['record']['fail_rate']:.4g} "
        f"(n={runs[n]['untraced']['result']['attempted']})" for n in names
    ]))
    for op in ("solve", "verify", "best_alpha", "oracle"):
        for q in ("p50", "p90"):
            cells = []
            for name in names:
                ops = runs[name]["untraced"]["record"]["operations_ms"]
                cells.append(f"{ops[op][q]:.4g} (n={ops[op]['samples']})" if op in ops else "n/a")
            rows.append((f"{op}_ms_{q}", "ms", cells))
    for metric, unit, cells in rows:
        print(f"{metric:<26}{unit:<7}" + "".join(f"{c:>26}" for c in cells))
    print()
    print(f"{'per-layer metric (per pass)':<44}{'unit':<7}" + "".join(f"{n:>20}" for n in names))
    for metric, unit in per_layer_units().items():
        cells = [f"{runs[n]['traced']['result']['metrics'][metric]['value']:.5g}" for n in names]
        print(f"{metric:<44}{unit:<7}" + "".join(f"{c:>20}" for c in cells))
    print("trace set / passes: " + ", ".join(
        f"{n} {runs[n]['traced']['record']['trace_set']}/{runs[n]['traced']['record']['passes']}"
        for n in names
    ))


def _sample_count(record: dict, metric: str) -> int:
    if metric == "setup_s":
        return len(record["setup_s"])
    if metric == "peak_rss_mb":
        return 1
    if metric == "instances_per_s":
        return record["instances"]
    return record["samples"][metric.rsplit("_", 1)[0]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, plain and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.all:
        return run_all(args.seed, args.seconds)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["record"]["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
