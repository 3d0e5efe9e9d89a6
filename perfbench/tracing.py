"""Span tracer over the public callables of temperedk's layer modules.

``Tracer.install`` discovers, at run time, every public function of each
layer module, every public method and property of the classes defined
there, and each such class's ``__init__``.  It replaces each function
under every name it is bound to in any loaded ``temperedk`` module, and
each method, property and ``__init__`` on its class, so that callables
added later are traced without editing this file.  Classes themselves
stay bound, so ``isinstance`` checks inside the package are unaffected.

Every call records a span ``[name, start, end, parent, op, items, extra]``
in memory: ``items`` is the length of a list or tuple a public function
returns, and ``extra`` is the value of a named counter attached to that
span name.  ``summarize`` turns the spans of one op into per-layer self
time, call counts and counters.  The wrapper's own work outside a span
lands in the caller's self time; ``Tracer.call_cost`` measures it per call
so that it can be moved out again.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import refclock

PACKAGE = "temperedk"
LAYERS = ("levi", "param_space", "ktheory", "weil", "base_change", "cli")

NAME, START, END, PARENT, OP, ITEMS, EXTRA = range(7)
CALIBRATION_CALLS = 2000
CALIBRATION_ROUNDS = 9

Counter = Callable[[tuple, Any], int]


def _generators(args: tuple, result: Any) -> int:
    return sum(len(p.generators) for p in result)


def _class_terms(args: tuple, result: Any) -> int:
    return len(args[0].items)


def _stdout_bytes(args: tuple, result: Any) -> int:
    """Bytes ``cli.main`` wrote, when stdout is a fresh in-memory buffer
    per call, as ``workloads.run_cli`` gives it."""
    getvalue = getattr(sys.stdout, "getvalue", None)
    return len(getvalue().encode("utf-8")) if getvalue is not None else 0


# Span name -> (counter name, how to count).  Counters read plain attributes
# only, so counting never records a span of its own.
COUNTERS: dict[str, tuple[str, Counter]] = {
    "ktheory.k_real": ("generators", _generators),
    "ktheory.k_complex": ("generators", _generators),
    "ktheory.KClass.__init__": ("class_terms", _class_terms),
    "cli.main": ("out_bytes", _stdout_bytes),
    "param_space.canonicalize_point": ("canonicalize_calls", lambda args, result: 1),
}


def _sequence_length(args: tuple, result: Any) -> int:
    return len(result) if isinstance(result, (list, tuple)) else 0


@dataclass
class Tracer:
    spans: list[list] = field(default_factory=list)
    names: list[tuple[str, str]] = field(default_factory=list)
    op: int = 0
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                raise RuntimeError(f"layer module {PACKAGE}.{layer} is not imported")
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    functions[id(value)] = self._wrap(value, layer, attr, _sequence_length)
                elif isinstance(value, type):
                    self._patch_class(value, layer)
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = functions.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _package_modules() -> list[types.ModuleType]:
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _patch_class(self, cls: type, layer: str) -> None:
        for attr, value in sorted(vars(cls).items()):
            qualname = f"{cls.__name__}.{attr}"
            if attr == "__init__" and isinstance(value, types.FunctionType):
                self._set(cls, attr, self._wrap(value, layer, qualname, None))
            elif attr.startswith("_"):
                continue
            elif isinstance(value, types.FunctionType):
                self._set(cls, attr, self._wrap(value, layer, qualname, None))
            elif isinstance(value, property) and value.fget is not None:
                fget = self._wrap(value.fget, layer, qualname, None)
                self._set(cls, attr, property(fget, value.fset, value.fdel, value.__doc__))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn: Callable, layer: str, qualname: str, items: Optional[Counter]) -> Callable:
        span_name = f"{layer}.{qualname}"
        name_id = len(self.names)
        self.names.append((layer, span_name))
        extra = COUNTERS.get(span_name, (None, None))[1]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name_id, 0.0, 0.0, parent, self.op, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if items is not None:
                record[ITEMS] = items(args, result)
            if extra is not None:
                record[EXTRA] = extra(args, result)
            return result

        return traced

    def call_cost(self) -> float:
        """Seconds at reference speed that one traced call adds to its
        caller's self time: the wrapper's call and bookkeeping outside the
        callee's own span, less the plain call it replaces.  Measured on an
        empty function, median over ``CALIBRATION_ROUNDS`` rounds of
        ``CALIBRATION_CALLS`` calls, each scaled by the kernel around it."""

        def empty(a: Any, b: Any) -> None:
            return None

        traced = self._wrap(empty, "trace", "empty", _sequence_length)
        clock = time.perf_counter
        costs = []
        for _ in range(CALIBRATION_ROUNDS):
            before = refclock.time_kernel()
            self.take_spans()
            start = clock()
            for _ in range(CALIBRATION_CALLS):
                traced(1, 2)
            outside = clock() - start - sum(record[END] - record[START] for record in self.spans)
            start = clock()
            for _ in range(CALIBRATION_CALLS):
                empty(1, 2)
            plain = clock() - start
            after = refclock.time_kernel()
            costs.append(refclock.scaled(max(0.0, outside - plain) / CALIBRATION_CALLS, (before + after) / 2))
        self.take_spans()
        return statistics.median(costs)

    def take_spans(self) -> list[list]:
        """Spans recorded since the last call, which must not be inside a span."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


# Span name -> the part of cli.main it is: main minus build and render is
# serialisation.
CLI_PARTS = {"cli.main": "main", "cli.build_document": "build", "cli.render_table": "render"}


@dataclass
class OpSummary:
    """One op's spans reduced to raw seconds and counts."""

    self_s: dict[str, float]
    calls: dict[str, int]
    items: dict[str, int]
    nested_calls: dict[str, int]
    cli_s: dict[str, float]
    counters: dict[str, int]
    covered_s: float
    enumerated_under_ktheory: int


def summarize(spans: list[list], names: list[tuple[str, str]]) -> OpSummary:
    """Self time per layer: a span's duration minus the part its children
    cover.  Also call and item counts per layer, the traced calls made
    directly from each layer's spans, the inclusive time of the CLI_PARTS,
    named counters, the time covered by top-level spans, and the
    param_space items returned while a ktheory span was open."""
    child = [0.0] * len(spans)
    under_ktheory = [False] * len(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    nested_calls: dict[str, int] = {}
    cli_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    enumerated = 0
    covered = 0.0
    for index, record in enumerate(spans):
        parent = record[PARENT]
        duration = record[END] - record[START]
        layer, span_name = names[record[NAME]]
        if parent < 0:
            covered += duration
        else:
            child[parent] += duration
            parent_layer = names[spans[parent][NAME]][0]
            nested_calls[parent_layer] = nested_calls.get(parent_layer, 0) + 1
            under_ktheory[index] = parent_layer == "ktheory" or under_ktheory[parent]
        calls[layer] = calls.get(layer, 0) + 1
        part = CLI_PARTS.get(span_name)
        if part is not None:
            cli_s[part] = cli_s.get(part, 0.0) + duration
        if record[ITEMS]:
            items[layer] = items.get(layer, 0) + record[ITEMS]
            if layer == "param_space" and under_ktheory[index]:
                enumerated += record[ITEMS]
        if record[EXTRA]:
            counter = COUNTERS[span_name][0]
            counters[counter] = counters.get(counter, 0) + record[EXTRA]
    for index, record in enumerate(spans):
        layer = names[record[NAME]][0]
        own = record[END] - record[START] - child[index]
        self_s[layer] = self_s.get(layer, 0.0) + own
    return OpSummary(self_s, calls, items, nested_calls, cli_s, counters, covered, enumerated)
