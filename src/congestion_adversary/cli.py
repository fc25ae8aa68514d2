"""Command-line front end.

Subcommands: solve-k, best-alpha, verify, oracle, gen, fixtures.  Results are
JSON on stdout (``--pretty`` for indented output); diagnostics go to stderr.

Exit codes: 0 success (verify: profile passes), 1 verify failure, 2 malformed
input or refused parameters, 3 solver guard exceeded (at alpha >= K, a broken
termination bound: a bug), 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
from typing import List, Optional

from .core import K, GameError, _above, _binding, is_alpha_pne, needed_alpha
from .documents import (
    _parse_rationals,
    _ratio,
    format_rational,
    generate_instance,
    load_instance_document,
    make_fixtures,
    result_document,
    write_result,
    write_trace,
)
from .optimal import ROW_WORK, _scan_work, best_alpha
from .oracle import _walk_work, oracle_best_alpha, oracle_optima
from .solver import GuardExceeded, SolverConfig, solve

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_ORACLE_MISMATCH = 4

#: solve-k's trace holds one event per move, about two per player, and no
#: loads, so its work is 50 * n + m, at most the n * (m + 50) it was while
#: each event held m loads.  Whole process with --trace, gen --seed 1, 2-core
#: Xeon host, Python 3.11: (10 000, 950) is 5e5 and takes 0.22-0.26 s and
#: 19 MB, (10, 500 000) 5e5 and 0.6-1.1 s and 54 MB, (100 000, 1 000) 5e6
#: and 1.7-2.1 s and 49 MB, (200 000, 50) 1e7 and 3.0-3.9 s and 65 MB,
#: (200 000, 20 000) 1.002e7 and 3.3-3.8 s and 101 MB, and (279 999, 50),
#: at the limit, 3.7-5.1 s and 83 MB: the time (239 999, 50), at 1.2e7,
#: took on the same host, 3.8-5.1 s, while each move built Fractions.
SOLVE_K_MAX_WORK = 14_000_000
#: best-alpha's work is its shape table's rows and the tail steps they draw,
#: see optimal._scan_work: a bound on the scan, which runs only where the
#: insertion profile is not exact: of the rungs below, on gen's draws at
#: seed 1 at (5 000, 5) alone, and with numerators from [1, 10] at (1 000,
#: 20) and (5 000, 5) alone.  The scan alone, from (2, 1), on the draws with
#: numerators from [1, 10], whole process, 2-core Xeon host, Python 3.11:
#: (1 000, 10) is 1.1e6 and takes 0.24-0.26 s, (1 000, 20) 1.9e6 and
#: 0.28-0.31 s, (2 000, 20) 6.4e6 and 0.51-0.66 s, (4 000, 3) 6.7e6 and
#: 0.69-0.79 s, (3 000, 10) 9.2e6 and 0.63-0.69 s, (6 600, 2) 1.09e7 and
#: 1.26-1.46 s; refused, (3 000, 20) at 1.35e7 0.68-1.04 s, (5 000, 5) and
#: (8 000, 2) at 1.6e7 0.71-0.77 and 2.2-2.9 s: 0.04-0.18 us per unit.
BEST_ALPHA_MAX_WORK = 11_500_000
BEST_ALPHA_UNIT = f"{ROW_WORK} per shape-table row, its tail steps and m * min(m, n + 1) // 32, counted up to the limit"
#: The oracle's work is its profiles, see oracle._walk_work.  Whole
#: process, gen --seed 1, 2-core Xeon host, Python 3.11, 16-17 MB:
#: (200, 3) is 7.9e4 and takes 0.1-0.15 s, (40, 2 000) 2.3e6 and 0.4-0.6 s;
#: at the limit (1 612, 3), (305, 4), (69, 8) and (44, 2 000) take 1.2-1.6,
#: 1.6-1.7, 1.6-1.9 and 0.6-0.8 s, walking 91 %, 99 %, 97 % and all of the
#: profiles: 0.1-0.38 us per unit; (47, 20) stops at its 45th profile, in
#: 0.1 s, where the full walk takes 0.9-1.2 s.  Reading the document is not
#: counted, as its length limit bounds it: (5, 300 000) takes 0.42-0.48 s
#: and 40 MB, (10, 500 000) 0.57-0.72 s and 56 MB, and 10 players on
#: 775 000 resources, just under that limit, 1.1-1.6 s and 104 MB.
ORACLE_MAX_WORK = 5_000_000
ORACLE_UNIT = "profiles times min(n, m) + 20, counted up to the limit"
#: gen's time is drawing, sorting and printing its m coefficients.  Whole
#: process, --n 5 --seed 1, 2-core Xeon host, Python 3.11: m = 100 000 takes
#: 0.33-0.38 s and 28 MB, 300 000 0.7-0.9 s and 45 MB, and 500 000 0.9-1.4 s
#: and 62 MB (0.9-1.5 s and 94 MB with --pretty); refused, 1 000 000 takes
#: 0.1 s and 16 MB.
GEN_MAX_M = 500_000


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _refuse(command: str, n: int, m: int, work: int, limit: int, unit: str) -> None:
    """Raise GameError when `work` at n players and m resources is past `limit`."""
    if work > limit:
        try:
            got = str(work)
        except ValueError:  # Past the digits Python prints: a power of ten at most 2**(bits - 1).
            got = f"at least 10**{(work.bit_length() - 1) * 301_029 // 10**6}"
        raise GameError(f"{command} refuses more than {limit} units of work, {unit} (got {got} at n={n}, m={m})")


def _deviation_json(binding) -> dict:
    """A :func:`binding_deviation`'s move and its two costs, as JSON."""
    _, source, target, cost, dev = binding
    return {"from": source, "to": target, "cost": format_rational(cost), "deviation_cost": format_rational(dev)}


def cmd_solve_k(args) -> int:
    def check(n: int, m: int) -> None:
        _refuse("solve-k", n, m, 50 * n + m, SOLVE_K_MAX_WORK, "50 * n + m")

    doc = load_instance_document(args.instance, check)
    start = time.perf_counter()
    try:
        loads, trace = solve(doc.instance, SolverConfig())
    except GuardExceeded as exc:
        return _fail(EXIT_GUARD, f"error: {exc}")
    elapsed = (time.perf_counter() - start) * 1000
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as handle:
                write_trace(trace, handle)
        except OSError as exc:
            return _fail(EXIT_PARSE, f"error: cannot write trace to {args.trace}: {exc}")
    obj = result_document(
        loads,
        solver="incremental",
        elapsed_ms=elapsed,
        alpha=K,
        needed=needed_alpha(doc.instance, loads),
        trace=None if args.trace else trace,
    )
    write_result(obj, sys.stdout, args.pretty)
    return EXIT_OK


def cmd_best_alpha(args) -> int:
    def check(n: int, m: int) -> None:
        _refuse("best-alpha", n, m, _scan_work(n, m, BEST_ALPHA_MAX_WORK), BEST_ALPHA_MAX_WORK, BEST_ALPHA_UNIT)
        if args.oracle_check:
            _refuse("--oracle-check", n, m, _walk_work(n, m, ORACLE_MAX_WORK), ORACLE_MAX_WORK, ORACLE_UNIT)

    inst = load_instance_document(args.instance, check).instance
    start = time.perf_counter()
    result = best_alpha(inst)
    elapsed = (time.perf_counter() - start) * 1000
    if args.oracle_check:
        oracle_value, oracle_witness = oracle_best_alpha(inst)
        if oracle_value != result.alpha_star or not is_alpha_pne(
            inst, oracle_witness, result.alpha_star
        ):
            return _fail(
                EXIT_ORACLE_MISMATCH,
                f"error: solver found {result.alpha_star} but oracle found "
                f"{oracle_value}; this indicates a bug",
            )
    obj = result_document(
        result.witness,
        solver="shape-enumeration",
        elapsed_ms=elapsed,
        alpha=result.alpha_star,
        binding=None if result.binding is None else _deviation_json(result.binding),
    )
    write_result(obj, sys.stdout, args.pretty)
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = load_instance_document(args.instance)
    # Digits only, as parse_rational: int() would take signs, spaces, "_" and non-ASCII digits.
    if not re.fullmatch("[0-9]+(,[0-9]+)*", args.loads):
        return _fail(EXIT_PARSE, f"error: loads must be comma-separated digits 0-9, got {args.loads!r}")
    try:
        loads = [int(part) for part in args.loads.split(",")]
    except ValueError as exc:  # More digits than Python converts to an int.
        return _fail(EXIT_PARSE, f"error: {exc}")
    exact = args.alpha == "K"  # K itself, decided by its cubic's sign; K > 1.
    (p,), (q,) = ([1], [1]) if exact else _parse_rationals([args.alpha])  # alpha = p/q in lowest terms
    inst = doc.instance
    if len(loads) != inst.m or sum(loads) != inst.n or p < q:  # The digits make every load >= 0.
        return _fail(
            EXIT_PARSE,
            f"error: loads must be {inst.m} non-negative integers summing to "
            f"{inst.n} and alpha must be >= 1",
        )
    # One integer pricing for the verdict and the violation; None (m = 1)
    # passes, and an infinite ratio, (1, 0), passes no alpha.
    found = _binding(inst.form, loads)
    ok = found is None or not (_above(K, *found[0]) if exact else found[0][0] * q > p * found[0][1])
    obj = {"loads": loads, "alpha": K if exact else _ratio(p, q), "is_alpha_pne": ok}
    if not ok:
        (num, den), r, cost, k, dev, j, target = found
        cost, dev = _ratio(cost, k * inst.form[2]), _ratio(dev, j * inst.form[2])
        ratio = "inf" if den == 0 else _ratio(num, den)
        obj["violation"] = {"from": r, "to": target, "cost": cost, "deviation_cost": dev, "ratio": ratio}
    write_result(obj, sys.stdout, args.pretty)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_oracle(args) -> int:
    def check(n: int, m: int) -> None:
        _refuse("oracle", n, m, _walk_work(n, m, ORACLE_MAX_WORK), ORACLE_MAX_WORK, ORACLE_UNIT)

    inst = load_instance_document(args.instance, check).instance
    start = time.perf_counter()
    value, witness, epsilon, epsilon_witness = oracle_optima(inst)
    exact = value <= 1
    elapsed = (time.perf_counter() - start) * 1000
    obj = result_document(
        witness,
        solver="oracle",
        elapsed_ms=elapsed,
        alpha=value,
        exact_pne=exact,
        exact_pne_loads=list(witness) if exact else None,
        epsilon=format_rational(epsilon),
        epsilon_loads=list(epsilon_witness),
    )
    write_result(obj, sys.stdout, args.pretty)
    return EXIT_OK


def cmd_gen(args) -> int:
    _refuse("gen", args.n, args.m, args.m, GEN_MAX_M, "the resource count m")
    doc = generate_instance(args.n, args.m, args.seed, args.coeff_max, args.budget_max)
    print(doc.dumps(pretty=args.pretty))
    return EXIT_OK


def cmd_fixtures(args) -> int:
    written = []
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, doc in make_fixtures().items():
            path = os.path.join(args.out_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(doc.dumps(pretty=True))
                handle.write("\n")
            written.append(path)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"error: cannot write fixtures to {args.out_dir}: {exc}")
    write_result({"written": written}, sys.stdout, args.pretty)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congestion-adversary",
        description="Solvers for singleton congestion games with a budgeted adversary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pretty(p):
        p.add_argument(
            "--pretty", action="store_true", help="indent JSON output"
        )

    p = sub.add_parser("solve-k", help="compute a threshold-approximate equilibrium")
    p.add_argument("instance", help="path to an instance JSON document")
    p.add_argument("--trace", help="write the event trace to this path")
    add_pretty(p)
    p.set_defaults(func=cmd_solve_k)

    p = sub.add_parser("best-alpha", help="compute the instance-optimal factor")
    p.add_argument("instance")
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check against the brute-force oracle (small instances only)",
    )
    add_pretty(p)
    p.set_defaults(func=cmd_best_alpha)

    p = sub.add_parser("verify", help="check a load profile against a factor")
    p.add_argument("instance")
    p.add_argument("loads", help="comma-separated loads, e.g. 2,2,1")
    p.add_argument("alpha", help="rational factor, e.g. 7/6, or K")
    add_pretty(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force optimum, exact-equilibrium test, additive slack")
    p.add_argument("instance")
    add_pretty(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit a deterministic random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--coeff-max", type=int, default=10)
    p.add_argument("--budget-max", type=int, default=10)
    add_pretty(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fixtures", help="write the canonical instances")
    p.add_argument("out_dir")
    add_pretty(p)
    p.set_defaults(func=cmd_fixtures)

    parser.commands = sub.choices  # Each command's parser, as the top-level one dispatches to it.
    return parser


# Built once per process: building the parser costs more than a verify.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    # One parse: the command's own parser reads its arguments, and reports
    # them with its usage line; the top-level one runs only when none is named.
    if argv and argv[0] in parser.commands:
        parser, argv = parser.commands[argv[0]], argv[1:]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameError as exc:
        return _fail(EXIT_PARSE, f"error: {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
