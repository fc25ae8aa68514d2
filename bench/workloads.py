"""The three benchmark workloads: seeded instance pools and checked pipelines.

Each workload turns a seed into a pool of instances at set-up, then runs one
pipeline per instance: the workload's solving call, followed by the calls that
check its answer.  Every call is an attempted operation; a call that raises,
or whose result fails its check, is one failed operation and the run goes on.

Why each workload exists (see README.md for the layer table):

* ``solve_uniform`` -- the incremental solver at alpha = K on uniform random
  instances.  Nearly all time is in ``solver.unhappy_set`` and the ``core``
  cost primitives; ``optimal`` and ``oracle`` are not used.  The check goes
  through ``core.needed_alpha``, a second path through the same layer.
* ``best_alpha_uniform`` -- ``best_alpha`` cross-checked against the
  brute-force oracle on uniform random instances small enough for it.
  alpha* = 1 on almost all of them, so the candidate-ratio set dominates and
  the shape scan stops at its first witness.
* ``cli_hard`` -- the command line on jittered, scaled copies of the
  ``example1`` and ``tightness`` fixtures, where alpha* > 1.  Probes below
  alpha* are infeasible and scan every shape, so the shape scan
  (``optimal.feasible_load_vector``) dominates.  This is the only workload
  that covers ``cli`` and ``documents``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable, List, Optional, Tuple

#: Size of uniform instances for the solver workload: (players, resources).
SOLVE_SIZE = (100, 10)
#: Within what ``best-alpha --oracle-check`` accepts (n <= 12, m <= 5).  At
#: (8, 4) about 300 instances fit into a 30 s run; at (12, 5) about 100 would,
#: and the spread of the median between seeds, which shrinks with the square
#: root of the sample count, would be about 1.7 times larger.
BEST_ALPHA_SIZE = (8, 4)
#: Hard-instance classes, in the order the pool cycles through them:
#: (fixture, player scale t).  Players and budget are multiplied by t.  Taking
#: the classes in turn keeps the same mix in every run, and with three classes
#: the median falls inside one class, not in the gap between two.
HARD_CLASSES = (("example1", 2), ("tightness", 2), ("example1", 3))
#: Multiplicative jitter of coefficients and budget, in parts per thousand.
HARD_JITTER = 20
#: Times the checking calls run per instance.
CHECK_REPEATS = 3


@dataclass
class Samples:
    """Timed calls, failure counts and workload properties of a run.

    Calls are kept as measured, with their start and end, so that they can be
    scaled afterwards to the speed the machine had while they ran.
    ``calibrate`` is called just before each instance and before its checks.
    """

    calibrate: Callable[[], None]
    #: (operation, start, end) of every call that returned, in order.
    timed: List[Tuple[str, float, float]] = field(default_factory=list)
    #: Per instance, (start, end, seconds) of the fastest check repetition.
    checks: List[Tuple[float, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    instances: int = 0
    rounds: int = 0
    zero_rounds: int = 0
    deviations: int = 0
    guard_use_max: float = 0.0
    alphas: int = 0
    hard: int = 0

    def call(self, op: str, fn: Callable, *args):
        """Time one public call; an exception is one failed operation."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the run goes on: count it and continue
            self.fail(op, f"raised {exc!r}")
            return None
        self.timed.append((op, start, perf_counter()))
        return result

    def timed_check(self, check: Callable[[], bool]) -> None:
        """Run the calls that check an answer CHECK_REPEATS times.

        The check calls take a few milliseconds, so one interrupt moves their
        tail; the fastest repetition gives the instance's check time.  `check`
        returns False when a call raised or its output was unusable.
        """
        fastest = None
        self.calibrate()
        for _ in range(CHECK_REPEATS):
            first = len(self.timed)
            if not check():
                return
            calls = self.timed[first:]
            seconds = sum(end - start for _op, start, end in calls)
            if fastest is None or seconds < fastest[2]:
                fastest = (calls[0][1], calls[-1][2], seconds)
        self.checks.append(fastest)

    def check(self, op: str, ok: bool, why: str) -> bool:
        if not ok:
            self.fail(op, why)
        return ok

    def fail(self, op: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op}: {why}")

    def note_rounds(self, per_round) -> None:
        for k, deviations in enumerate(per_round, start=1):
            self.rounds += 1
            self.zero_rounds += deviations == 0
            self.deviations += deviations
            self.guard_use_max = max(self.guard_use_max, deviations / (2 * k))

    def note_alpha(self, alpha: Fraction) -> None:
        self.alphas += 1
        self.hard += alpha > 1

    def shares(self) -> dict:
        """Workload properties, each with its base."""
        return {
            "optimal.hard_share": _share(self.hard, self.alphas, "instances with alpha* computed"),
            "solver.zero_deviation_share": _share(
                self.zero_rounds, self.rounds, "solver insertion rounds"
            ),
            "solver.guard_use_max": {
                "value": self.guard_use_max,
                "base": self.rounds,
                "of": "solver insertion rounds (max of deviations / 2k)",
            },
        }


def _share(part: int, whole: int, of: str) -> dict:
    return {"value": part / whole if whole else 0.0, "part": part, "base": whole, "of": of}


def percentiles(values: List[float]) -> dict:
    """Median and 90th percentile (exclusive method) of a sample."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return {"p50": only, "p90": only}
    return {
        "p50": statistics.median(values),
        "p90": statistics.quantiles(values, n=10)[8],
    }


class Context:
    """Program modules and shared inputs made at set-up."""

    def __init__(self, mods, workdir: str) -> None:
        self.mods = mods
        self.workdir = workdir
        self.alpha = mods.core.k_upper_bound(12)
        self.config = mods.solver.SolverConfig(alpha=self.alpha, guard_mode=mods.solver.STRICT)


# --- instance pools ---------------------------------------------------------


def uniform_pool(ctx: Context, seed: int, size: int, shape) -> list:
    rng = random.Random(seed)
    n, m = shape
    return [
        ctx.mods.documents.generate_instance(n, m, rng.getrandbits(32)).instance
        for _ in range(size)
    ]


def _jitter(rng: random.Random) -> Fraction:
    return 1 + Fraction(rng.randint(-HARD_JITTER, HARD_JITTER), 1000)


def hard_pool(ctx: Context, seed: int, size: int) -> list:
    """Instance files for the CLI: jittered fixtures, players scaled by t."""
    rng = random.Random(seed)
    documents = ctx.mods.documents
    fixtures = documents.make_fixtures()
    pool = []
    for i in range(size):
        name, t = HARD_CLASSES[i % len(HARD_CLASSES)]
        base = fixtures[name].instance
        inst = ctx.mods.core.validate_instance(
            [a * _jitter(rng) for a in base.coefficients],
            base.n * t,
            base.budget * _jitter(rng) * t,
        )
        path = os.path.join(ctx.workdir, f"hard-{i:04d}.json")
        doc = documents.InstanceDocument(instance=inst, name=f"{name}-t{t}-{i}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(doc.dumps())
        pool.append(path)
    return pool


# --- per-instance pipelines -------------------------------------------------


def run_solve_uniform(ctx: Context, inst, s: Samples) -> None:
    core = ctx.mods.core
    out = s.call("solve", ctx.mods.solver.solve, inst, ctx.config)
    if out is None:
        return
    loads, trace = out
    s.check("solve", _replays(ctx, trace, inst.m, loads), "trace replay differs from loads")
    s.note_rounds(trace.per_round_deviation_counts)

    def check() -> bool:
        ok = s.call("verify", core.is_alpha_pne, inst, loads, ctx.alpha)
        if ok is None:
            return False
        s.check("verify", ok is True, f"solver loads {loads} are not an alpha-PNE")
        return True

    s.timed_check(check)


def _replays(ctx: Context, trace, m: int, loads) -> bool:
    try:
        return trace.replay(m) == loads
    except ctx.mods.core.GameError:
        return False


def run_best_alpha_uniform(ctx: Context, inst, s: Samples) -> None:
    oracle, core = ctx.mods.oracle, ctx.mods.core
    result = s.call("best_alpha", ctx.mods.optimal.best_alpha, inst)
    if result is None:
        return
    alpha = result.alpha_star
    s.note_alpha(alpha)

    def check() -> bool:
        out = s.call("oracle", oracle.oracle_best_alpha, inst)
        if out is None:
            return False
        value, profile = out
        s.check("oracle", value == alpha, f"best_alpha {alpha} != oracle {value}")
        for witness in (result.witness, profile):
            ok = s.call("verify", core.is_alpha_pne, inst, witness, alpha)
            if ok is None:
                return False
            s.check("verify", ok is True, f"witness {witness} fails at {alpha}")
        return True

    s.timed_check(check)


def _run_cli(main, argv: List[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _cli_json(s: Samples, op: str, out, expected_code: int) -> Optional[dict]:
    if out is None:
        return None
    code, text = out
    if not s.check(op, code == expected_code, f"exit {code}, expected {expected_code}"):
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        s.fail(op, f"output is not JSON: {text[:80]!r}")
        return None


def run_cli_hard(ctx: Context, path: str, s: Samples) -> None:
    main = ctx.mods.cli.main
    doc = _cli_json(s, "best_alpha", s.call("best_alpha", _run_cli, main, ["best-alpha", path]), 0)
    if doc is None:
        return
    alpha_text = doc["alpha"]
    alpha = Fraction(alpha_text)
    s.note_alpha(alpha)
    loads = ",".join(str(x) for x in doc["loads"])
    # Every profile needs at least alpha*, so the witness must fail just below
    # it; below alpha* = 1 the command refuses the factor, so that probe is
    # made only on hard instances.
    probes = [(alpha_text, 0)]
    if alpha > 1:
        probes.append((ctx.mods.documents.format_rational(alpha - (alpha - 1) / 10**9), 1))

    def check() -> bool:
        for factor, code in probes:
            out = s.call("verify", _run_cli, main, ["verify", path, loads, factor])
            if _cli_json(s, "verify", out, code) is None:
                return False
        oracle = _cli_json(s, "oracle", s.call("oracle", _run_cli, main, ["oracle", path]), 0)
        if oracle is None:
            return False
        s.check(
            "oracle",
            oracle["alpha"] == alpha_text and oracle["exact_pne"] == (alpha == 1),
            f"oracle alpha {oracle['alpha']} (exact {oracle['exact_pne']}) vs best-alpha {alpha_text}",
        )
        return True

    s.timed_check(check)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Instances made at set-up; a run cycles through them.
    pool_size: int
    #: Instances in one pass of a traced run (the first ones of the pool).
    trace_size: int
    #: The operation whose latency is reported as solver_ms.
    solver_op: str
    make_pool: Callable
    run_one: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve_uniform",
            "solve at alpha=K on uniform (100,10) instances: unhappy_set and core cost primitives dominate",
            pool_size=800,
            trace_size=40,
            solver_op="solve",
            make_pool=lambda ctx, seed, size: uniform_pool(ctx, seed, size, SOLVE_SIZE),
            run_one=run_solve_uniform,
        ),
        Workload(
            "best_alpha_uniform",
            "best_alpha vs the oracle on uniform (8,4) instances: alpha*=1, candidate ratios dominate",
            pool_size=600,
            trace_size=30,
            solver_op="best_alpha",
            make_pool=lambda ctx, seed, size: uniform_pool(ctx, seed, size, BEST_ALPHA_SIZE),
            run_one=run_best_alpha_uniform,
        ),
        Workload(
            "cli_hard",
            "CLI best-alpha, verify and oracle on jittered fixtures with alpha*>1: the shape scan dominates",
            pool_size=300,
            trace_size=12,
            solver_op="best_alpha",
            make_pool=hard_pool,
            run_one=run_cli_hard,
        ),
    )
}
