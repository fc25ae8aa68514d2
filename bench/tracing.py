"""Outside-in tracing of the congestion_adversary layers.

The benchmark never edits the program.  For a traced pass it replaces each
traced public function, in the namespace of every package module that binds
it, by a wrapper; calls resolve module globals at call time, so calls made
inside the program go through the wrappers too.  `solver` imports
`deviation_cost` by name, `optimal` imports `is_alpha_pne`, and so on: each of
those bindings is wrapped, and counts are summed under the defining module's
name (`core.deviation_cost`), whichever module made the call.

Spanned functions record (name, start, end, parent span, instance id) in
memory; per-call cost primitives are only counted, because a span around
each of them would cost more than the primitive itself.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Dict, Iterator, List, Tuple

#: Module names of the package, in import order.
MODULES = ("core", "solver", "optimal", "oracle", "documents", "cli")

SPANNED = (
    "core.needed_alpha",
    "core.is_alpha_pne",
    "core.binding_deviation",
    "solver.solve",
    "solver.unhappy_set",
    "solver.best_response",
    "optimal.best_alpha",
    "optimal.candidate_alphas",
    "optimal.cbar_candidates",
    "optimal.feasible_load_vector",
    "oracle.oracle_best_alpha",
    "oracle.oracle_has_exact_pne",
    "oracle.oracle_best_additive_epsilon",
    "documents.load_instance_document",
    "documents.result_document",
    "cli.main",
)

COUNTED = ("core.resource_cost", "core.deviation_cost")

#: Generators whose yielded items are counted under the given name.
YIELD_COUNTED = {"oracle.enumerate_profiles": "oracle.profiles"}

Span = Tuple[str, float, float, int, int]


class Tracer:
    """Spans and counters for one traced pass over a set of instances."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.instance = -1
        self._stack: List[int] = []

    def _on_result(self, namespace: str, name: str, result) -> None:
        if name == "optimal.candidate_alphas":
            self.counts["optimal.candidates"] += len(result)
        elif name == "optimal.feasible_load_vector":
            self.counts["optimal.feasible_load_vector.witnesses"] += result is not None
        elif name == "core.is_alpha_pne" and namespace == "optimal":
            # The only is_alpha_pne calls made by `optimal` are the final
            # checks of greedy witnesses in the shape scan.
            self.counts["optimal.post_check.calls"] += 1
            self.counts["optimal.post_check.rejections"] += result is False

    def _spanned(self, namespace: str, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.instance)
            self._on_result(namespace, name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def _wrapper(self, namespace: str, name: str, fn):
        if name in SPANNED:
            wrapper = self._spanned(namespace, name, fn)
        elif name in COUNTED:
            wrapper = self._counted(name, fn)
        else:
            wrapper = self._yield_counted(YIELD_COUNTED[name], fn)
        wrapper.bench_traced = True
        return wrapper

    @contextlib.contextmanager
    def installed(self, mods) -> Iterator["Tracer"]:
        """Wrap every traced binding in every package module; restore on exit."""
        traced = {}
        for short in MODULES:
            module = getattr(mods, short)
            for attr, value in vars(module).items():
                if callable(value) and getattr(value, "__module__", None) == module.__name__:
                    name = f"{short}.{attr}"
                    if name in SPANNED or name in COUNTED or name in YIELD_COUNTED:
                        traced[id(value)] = name
        replaced = []
        try:
            for short in MODULES:
                module = getattr(mods, short)
                for attr, value in list(vars(module).items()):
                    name = traced.get(id(value))
                    if name is not None:
                        replaced.append((module, attr, value))
                        setattr(module, attr, self._wrapper(short, name, value))
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time covered by child spans.

        Children of one span run one after another, so the part of the
        parent's interval they cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _instance in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = Counter()
        for (name, start, end, _parent, _instance), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return dict(totals)


def is_traced(value) -> bool:
    """True for a wrapper installed by :class:`Tracer`."""
    return getattr(value, "bench_traced", False) is True
