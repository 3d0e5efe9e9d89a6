"""Run one workload in this (fresh, single-threaded) process.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace]

The worker builds the workload's ops from the seed, runs each once to warm
up, then repeats the whole batch until ``--seconds`` have passed (at least
``MIN_REPS`` times).  Every op is timed between two runs of the reference
kernel and every answer is checked.  Peak RSS is read after the first
``MIN_REPS`` timed batches: the samples the worker keeps grow with the
number of batches, which depends on the host's speed.  With ``--trace`` the layer modules are
wrapped by ``tracing.Tracer`` after the warm-up.  The last line of stdout is
one JSON object; ``run.py`` reads it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

import refclock
import tracing
from workloads import WORKLOADS

MIN_REPS = 5
KEPT_FAILURES = 10


class Run:
    """Samples of one worker run: per op, its raw wall and CPU times and,
    when traced, the summary of its spans; plus the kernel timeline."""

    def __init__(self, ops: list, tracer: Optional[tracing.Tracer]) -> None:
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.kernel: list[float] = []
        self.samples: list[tuple[int, float, float, Optional[tracing.OpSummary]]] = []
        self.spans: list[list] = []
        self.peak_rss_mb = 0.0

    def execute(self, index: int) -> None:
        """Run op ``index`` once, untimed, and check its answer."""
        op = self.ops[index]
        self.attempted += 1
        try:
            result = op.run()
        except Exception:
            self._fail(op, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return
        self._check(op, result)

    def timed_pass(self, keep_spans: bool) -> None:
        tracer = self.tracer
        if not self.kernel:
            self.kernel.append(refclock.time_kernel())
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.take_spans()
                tracer.op = index
            self.attempted += 1
            error = None
            result = None
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            self.kernel.append(refclock.time_kernel())
            summary = None
            if tracer is not None:
                spans = tracer.take_spans()
                summary = tracing.summarize(spans, tracer.names)
                if keep_spans:
                    offset = len(self.spans)
                    for record in spans:
                        if record[tracing.PARENT] >= 0:
                            record[tracing.PARENT] += offset
                    self.spans.extend(spans)
            self.samples.append((index, wall, cpu, summary))
            if error is not None:
                self._fail(op, error)
            else:
                self._check(op, result)

    def _check(self, op: Any, result: Any) -> None:
        try:
            problem = op.check(result)
        except Exception:
            problem = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        if problem is not None:
            self._fail(op, problem)

    def _fail(self, op: Any, message: str) -> None:
        self.failures.append(f"{op.name}: {message}")


def _median_sample(values: list[float]) -> int:
    """Index of the lower median of values."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def results(run: Run) -> dict:
    refs = refclock.window_refs(run.kernel)
    scaled: dict[int, list[float]] = {}
    raw: dict[int, list[tuple[float, float, float, Optional[tracing.OpSummary]]]] = {}
    for (index, wall, cpu, summary), ref in zip(run.samples, refs):
        scaled.setdefault(index, []).append(refclock.scaled(wall, ref))
        raw.setdefault(index, []).append((wall, cpu, ref, summary))
    out: dict[str, Any] = {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:KEPT_FAILURES],
        "reps": len(run.samples) // len(run.ops),
        "ref_s": 0.0,
        "wall_s": 0.0,
        "cpu_s": 0.0,
        "kernel_ms": statistics.median(run.kernel) * 1e3,
        "kernel_spread": refclock.spread(run.kernel),
        "peak_rss_mb": run.peak_rss_mb,
        "per_op_ref_s": {},
    }
    layers = Layers(run.tracer.call_cost()) if run.tracer is not None else None
    for index, values in sorted(scaled.items()):
        m = _median_sample(values)
        wall, _, ref, summary = raw[index][m]
        out["ref_s"] += values[m]
        out["wall_s"] += statistics.median_low(w for w, _, _, _ in raw[index])
        out["cpu_s"] += statistics.median_low(c for _, c, _, _ in raw[index])
        out["per_op_ref_s"][run.ops[index].name] = values[m]
        if layers is not None:
            layers.add(summary, wall, refclock.NOMINAL_S / ref)
    if layers is not None:
        out["layers"] = layers.metrics()
    return out


class Layers:
    """Per-layer totals over the median sample of every op, in seconds at
    reference speed: the layers' self times plus the unattributed time add
    up to the traced ``ref_s``.  The tracer's cost for each call a layer
    makes into a traced callable is moved from that layer's self time to
    the unattributed time."""

    def __init__(self, call_cost: float) -> None:
        self.call_cost = call_cost
        self.self_s = {layer: 0.0 for layer in tracing.LAYERS}
        self.calls = {layer: 0 for layer in tracing.LAYERS}
        self.items = {layer: 0 for layer in tracing.LAYERS}
        self.unattributed_s = 0.0
        self.ref_s = 0.0
        self.cli = {part: 0.0 for part in tracing.CLI_PARTS.values()}
        self.counters = {counter: 0 for counter, _ in tracing.COUNTERS.values()}
        self.enumerated_under_ktheory = 0

    def add(self, summary: tracing.OpSummary, wall: float, scale: float) -> None:
        self.ref_s += wall * scale
        self.unattributed_s += (wall - summary.covered_s) * scale
        for layer, seconds in summary.self_s.items():
            moved = min(summary.nested_calls.get(layer, 0) * self.call_cost, seconds * scale)
            self.self_s[layer] += seconds * scale - moved
            self.unattributed_s += moved
        for layer, count in summary.calls.items():
            self.calls[layer] += count
        for layer, count in summary.items.items():
            self.items[layer] += count
        for part, seconds in summary.cli_s.items():
            self.cli[part] += seconds * scale
        for counter, count in summary.counters.items():
            self.counters[counter] += count
        self.enumerated_under_ktheory += summary.enumerated_under_ktheory

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in tracing.LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.items"] = self.items[layer]
        out["cli.build_s"] = self.cli["build"]
        out["cli.render_s"] = self.cli["render"]
        out["cli.serialize_s"] = self.cli["main"] - self.cli["build"] - self.cli["render"]
        out["cli.out_bytes"] = self.counters["out_bytes"]
        denominator = self.enumerated_under_ktheory
        out["ktheory.generator_yield"] = self.counters["generators"] / denominator if denominator else 0.0
        out["ktheory.class_terms"] = self.counters["class_terms"]
        out["param_space.canonicalize_point.calls"] = self.counters["canonicalize_calls"]
        out["unattributed.self_s"] = self.unattributed_s
        out["trace.ref_s"] = self.ref_s
        out["trace.call_cost_us"] = self.call_cost * 1e6
        return out


def write_spans(path: Path, spans: list[list], names: list[tuple[str, str]]) -> None:
    """Spans as CSV rows: name, start and end in seconds from the first
    span, parent row (-1 for a top-level span) and op index."""
    origin = spans[0][tracing.START] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("name,start_s,end_s,parent,op\n")
        for record in spans:
            handle.write(
                f"{names[record[tracing.NAME]][1]},{record[tracing.START] - origin:.9f},"
                f"{record[tracing.END] - origin:.9f},{record[tracing.PARENT]},{record[tracing.OP]}\n"
            )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, help="CSV file for the spans of the first traced pass")
    args = parser.parse_args(argv)

    run = Run(WORKLOADS[args.workload](args.seed), None)
    for index in range(len(run.ops)):
        run.execute(index)
    if args.trace:
        run.tracer = tracing.Tracer()
        run.tracer.install()
    deadline = time.perf_counter() + args.seconds
    reps = 0
    while reps < MIN_REPS or time.perf_counter() < deadline:
        run.timed_pass(keep_spans=args.trace and reps == 0)
        reps += 1
        if reps == MIN_REPS:
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if run.tracer is not None:
        run.tracer.uninstall()
    out = results(run)
    if args.spans is not None and run.tracer is not None:
        write_spans(args.spans, run.spans, run.tracer.names)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
