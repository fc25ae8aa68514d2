"""JSON instance/result documents, canonical fixtures, and random instances.

Rationals are serialized as strings ("7/6", "-3", never floats) so documents
round-trip bit-exactly.  Instance documents produced here are canonical:
coefficients sorted non-decreasingly and rationals in lowest terms.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, TextIO, Tuple, Union

from .core import INFINITY, K, GameError, Instance, _instance, compute_K, validate_instance
from .solver import SolveTrace

__all__ = [
    "InstanceDocument",
    "parse_rational",
    "format_rational",
    "parse_instance_document",
    "load_instance_document",
    "generate_instance",
    "make_fixtures",
    "FIXTURE_NAMES",
]

#: A refusal by a document header's player and coefficient counts: raises or returns None.
Check = Callable[[int, int], None]

RATIONAL_RE = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")

#: load_instance_document refuses a document of more bytes than this, as many
#: characters in ASCII, before parsing it; it reads a regular file at the
#: file's size, allocating no buffer of this size.  gen --n 10 --seed 1 at its
#: limit, m = 500 000, writes 3.0 MB, and 5.0 MB with --pretty.  solve-k
#: --trace on those, whole process, 2-core Xeon host, Python 3.11: 0.6-1.1 s
#: and 54 MB, and 0.7-1.2 s and 57 MB; at the limit, 914 077 resources,
#: 1.3-2.0 s and 87 MB; 2 000 000 (11.9 MB), unrefused, takes 2.2 s and 166
#: MB; refused by its size, 0.06-0.09 s and 16 MB (0.07-0.1 s and 27 MB read).
DOCUMENT_MAX_CHARS = 5_500_000


def parse_rational(text: str) -> Fraction:
    nums, dens = _parse_rationals([text])
    return Fraction(nums[0], dens[0])


def _parse_rationals(texts: Sequence) -> Tuple[List[int], List[int]]:
    """Each string's numerator and denominator in lowest terms, from the two digit strings of one match."""
    nums, dens = [], []
    match, gcd = RATIONAL_RE.fullmatch, math.gcd
    for text in texts:
        if not isinstance(text, str) or not match(text):
            raise GameError(f"not a rational string: {text!r}")
        num, _, den = text.partition("/")
        try:
            p, q = int(num), int(den or 1)
        except ValueError as exc:  # More digits than Python converts to an int.
            raise GameError(f"not a usable rational: {exc}") from None
        g = gcd(p, q)
        nums.append(p // g)
        dens.append(q // g)
    return nums, dens


def format_rational(value: Union[Fraction, int]) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class InstanceDocument:
    instance: Instance
    name: Optional[str] = None
    description: Optional[str] = None

    def to_json_obj(self) -> dict:
        obj = {}
        if self.name is not None:
            obj["name"] = self.name
        if self.description is not None:
            obj["description"] = self.description
        coeffs, budget, scale = self.instance.form
        obj.update(
            {
                "players": self.instance.n,
                "budget": _ratio(budget, scale),
                "coefficients": [_ratio(a, scale) for a in coeffs],
            }
        )
        return obj

    def dumps(self, pretty: bool = False) -> str:
        return json.dumps(self.to_json_obj(), indent=2 if pretty else None)


def parse_instance_document(obj: dict, check: Optional[Check] = None) -> InstanceDocument:
    """The document in `obj`, refused first by `check`, if given.

    `check(n, m)` runs on the header's player and coefficient counts before
    any rational is parsed, and is skipped at n < 1 or m = 0.
    """
    if not isinstance(obj, dict):
        raise GameError("instance document must be a JSON object")
    try:
        players = obj["players"]
        budget = obj["budget"]
        coefficients = obj["coefficients"]
    except KeyError as exc:
        raise GameError(f"missing key {exc.args[0]!r}") from None
    if not isinstance(players, int) or isinstance(players, bool):
        raise GameError(f"players must be an integer, got {players!r}")
    if not isinstance(coefficients, list):
        raise GameError("coefficients must be an array of rational strings")
    if check is not None and players >= 1 and coefficients:
        check(players, len(coefficients))
    instance = _instance(players, *_parse_rationals([*coefficients, budget]))
    name = obj.get("name")
    description = obj.get("description")
    if name is not None and not isinstance(name, str):
        raise GameError("name must be a string")
    if description is not None and not isinstance(description, str):
        raise GameError("description must be a string")
    return InstanceDocument(instance=instance, name=name, description=description)


def load_instance_document(path: str, check: Optional[Check] = None) -> InstanceDocument:
    """The document at `path`, parsed with `check`; GameError if over DOCUMENT_MAX_CHARS bytes.

    A regular file is refused by the size fstat gives, or read at that size;
    a pipe, of size 0, is read up to one byte past the limit.  The bytes are
    strict UTF-8, their newlines read as text mode reads them.
    """
    limit = DOCUMENT_MAX_CHARS
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            data = handle.read(size or limit + 1) if size <= limit else b""
        if max(size, len(data)) > limit:
            raise ValueError(f"over {limit} characters")
        text = data.decode("utf-8")  # json.loads would also take UTF-16 and UTF-32 bytes.
        if "\r" in text:  # Newlines as text mode read them, for json's error positions.
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        obj = json.loads(text)
    # ValueError: too long, bad UTF-8, bad JSON or a number past Python's int digit limit.
    except (OSError, ValueError, RecursionError) as exc:
        raise GameError(f"cannot read instance from {path}: {exc}") from exc
    return parse_instance_document(obj, check)


#: One trace event, compact as json.dumps writes it and pretty as indent=2
#: writes it one level deep, as the "trace" of an indented result document.
EVENT = '{"kind": "%s", "round": %d, "from": %s, "to": %d, "cost_before": "%s", "cost_after": "%s"}'
PRETTY_EVENT = EVENT.replace("{", "{\n      ").replace(", ", ",\n      ").replace("}", "\n    }")


def _ratio(p: int, q: int) -> str:
    """format_rational(Fraction(p, q)) for p >= 0 and q > 0, reduced by one gcd."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def write_trace(trace: SolveTrace, handle: TextIO, pretty: bool = False) -> None:
    """Write the JSON list of the trace's events, one per move, from its integers.

    An event is ``{kind, round, from, to, cost_before, cost_after}``, "from"
    null and "cost_before" "inf" for an entering player; the bytes are those
    of ``json.dumps`` on the list, with `pretty` as the "trace" of a result
    document indented by 2.
    """
    if not trace.moves:
        handle.write("[]")
        return
    event, lead, sep, end = (
        (PRETTY_EVENT, "[\n    ", ",\n    ", "\n  ]") if pretty else (EVENT, "[", ", ", "]")
    )
    scale = trace.scale
    for k, source, target, cost, cost_den, dev, dev_den in trace.moves:
        if source is None:
            kind, source, before = "player_added", "null", "inf"
        else:
            kind, before = "deviation", _ratio(cost, cost_den * scale)
        handle.write(lead + event % (kind, k, source, target, before, _ratio(dev, dev_den * scale)))
        lead = sep
    handle.write(end)


def result_document(
    loads: Sequence[int],
    solver: str,
    elapsed_ms: float,
    alpha: Optional[Union[Fraction, str]] = None,
    needed: Optional[object] = None,
    trace: Optional[SolveTrace] = None,
    **extra,
) -> dict:
    """A solver's result; a `trace` is kept as is, for :func:`write_result` to stream."""
    obj = {"loads": list(loads), "solver": solver}
    if alpha is not None:
        obj["alpha"] = alpha if alpha is K else format_rational(alpha)
    if needed is not None:
        obj["needed_alpha"] = "inf" if needed == INFINITY else format_rational(needed)
    if trace is not None:
        obj["trace"] = trace
    obj.update(extra)
    obj["elapsed_ms"] = round(elapsed_ms, 3)
    return obj


def write_result(obj: dict, handle: TextIO, pretty: bool = False) -> None:
    """Write ``json.dumps(obj)`` and a newline, indented by 2 if `pretty`.

    A SolveTrace under "trace", as :func:`result_document` keeps it, goes
    through :func:`write_trace`, so the document is never held whole.
    """
    indent = 2 if pretty else None
    trace = obj.get("trace")
    if trace is None:
        handle.write(json.dumps(obj, indent=indent) + "\n")
        return
    head, tail = json.dumps({**obj, "trace": 0}, indent=indent).split('"trace": 0', 1)
    handle.write(head + '"trace": ')
    write_trace(trace, handle, pretty)
    handle.write(tail + "\n")


def generate_instance(
    n: int,
    m: int,
    seed: int,
    coeff_max: int = 10,
    budget_max: int = 10,
) -> InstanceDocument:
    """Deterministic pseudorandom instance for property suites and the CLI.

    Coefficients are rationals with numerator in [0, coeff_max] and
    denominator in [1, 4]; the budget has numerator in [1, budget_max].
    """
    if n < 1 or m < 1 or coeff_max < 0 or budget_max < 1:
        raise GameError("generator parameters must be positive")
    rng = random.Random(seed)
    nums, dens = [], []
    for low, high in [(0, coeff_max)] * m + [(1, budget_max)]:  # m coefficients, then the budget
        p, q = rng.randint(low, high), rng.randint(1, 4)
        g = math.gcd(p, q)
        nums.append(p // g)
        dens.append(q // g)
    instance = _instance(n, nums, dens)
    return InstanceDocument(instance=instance, name=f"random-n{n}-m{m}-seed{seed}")


GRID = 10**12


def _tightness_coefficients():
    """12-digit rational approximations of the tightness coefficients.

    Both are rounded so that the instance's optimal factor stays at or below
    the threshold constant: the middle coefficient rounds down, the largest
    (the constant's reciprocal) rounds up.
    """
    k_lo, _ = compute_K(15)
    a2 = Fraction(math.floor((k_lo / 2 - Fraction(1, 4)) * GRID), GRID)
    a3 = Fraction(math.ceil(GRID / k_lo), GRID)
    return Fraction(0), a2, a3


FIXTURE_NAMES = ("example1", "tightness", "appendix_a")


def make_fixtures() -> dict:
    """The canonical instances keyed by fixture name."""
    a1, a2, a3 = _tightness_coefficients()
    return {
        "example1": InstanceDocument(
            instance=validate_instance([0, 2, 5], 5, 6),
            name="example1",
            description="Five players, three resources, budget 6; "
            "no exact pure Nash equilibrium exists.",
        ),
        "tightness": InstanceDocument(
            instance=validate_instance([a1, a2, a3], 5, 1),
            name="tightness",
            description="Worst-case instance whose optimal factor approaches "
            "the universal threshold ~1.1974; irrational coefficients are "
            "approximated by rationals on a 10^-12 grid (middle rounded "
            "down, largest rounded up).",
        ),
        "appendix_a": InstanceDocument(
            instance=validate_instance([1, 4, 4, 10, 10], 7, 9),
            name="appendix_a",
            description="Seven players, five resources, budget 9; the "
            "incremental solver's final round performs exactly two "
            "deviations and ends in a 25/24-approximate equilibrium.",
        ),
    }
