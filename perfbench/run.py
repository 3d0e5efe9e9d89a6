"""temperedk benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/temperedk``.  With
``--trace 0`` it measures ``setup_s`` (interpreter start until temperedk
and temperedk.cli are imported, relative to a reference launch; see
``measure_setup``) and then runs the workload untraced in a fresh worker
process for the given seconds, reporting ``ref_s`` and ``peak_rss_mb``.
With ``--trace 1`` it runs the workload untraced and then traced, each in
its own worker for half the seconds, and reports the per-layer metrics.
Op times are in seconds at reference speed (see refclock.py).  Units come
from BENCHMARK.json.  Human-readable lines come first: the host and its raw drift, any failures, ``fail_frac`` and
every metric with its unit.  The last line of stdout is one JSON object.
The full report, and the spans of a traced run, are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import refclock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("catalog_export", "kgroup_ladder", "class_algebra", "point_transport")
SETUP_PAIRS = 41
REFERENCE_LAUNCH_S = 0.08
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def launch_time(which: str) -> float:
    """Seconds from just before launching setup_probe.py until its imports
    are done."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), which],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"{which} import probe failed:\n{done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1]) - start


def measure_setup() -> dict:
    """Interpreter start until temperedk and temperedk.cli are imported, in
    seconds at the speed where the reference launch takes
    ``REFERENCE_LAUNCH_S``.

    Each of ``SETUP_PAIRS`` pairs launches one interpreter that imports
    temperedk and, right after it, one that imports a fixed set of standard
    library modules; the metric is the median ratio of the two times.  Both
    launches pay the same process start, interpreter start-up and ``.pyc``
    reads, so host drift cancels in the ratio.  The in-process kernel does
    not track that kind of work.  One unmeasured pair first warms the
    ``.pyc`` cache."""
    ratios, raw = [], []
    for pair in range(SETUP_PAIRS + 1):
        probe = launch_time("temperedk")
        reference = launch_time("reference")
        if pair:
            raw.append(probe)
            ratios.append(probe / reference)
    return {
        "setup_s": statistics.median(ratios) * REFERENCE_LAUNCH_S,
        "setup_spread": refclock.spread(ratios),
        "setup_raw_s": statistics.median(raw),
    }


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
    ]
    if trace:
        command += ["--trace", "--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}.csv")]
    try:
        done = subprocess.run(
            command, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=seconds + CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} did not finish in {exc.timeout:.0f} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"worker for {workload} exited with {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_info() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": model,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def declared_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Full report of one benchmark run; its "result" is the JSON line."""
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "host": host_info()}
    if not trace:
        setup = measure_setup()
        worker = run_worker(workload, seed, seconds, trace=False)
        metrics = {"ref_s": worker["ref_s"], "setup_s": setup["setup_s"], "peak_rss_mb": worker["peak_rss_mb"]}
        report.update(setup=setup, worker=worker)
        workers = [worker]
    else:
        plain = run_worker(workload, seed, seconds / 2, trace=False)
        traced = run_worker(workload, seed, seconds / 2, trace=True)
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = traced["ref_s"] / plain["ref_s"]
        metrics.update({
            "host.wall_s": plain["wall_s"],
            "host.cpu_s": plain["cpu_s"],
            "host.ref_kernel_ms": plain["kernel_ms"],
            "host.ref_kernel_spread": plain["kernel_spread"],
        })
        report.update(worker=plain, traced_worker=traced)
        workers = [plain, traced]
    units = declared_units()
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise BenchError(f"metrics missing from BENCHMARK.json: {', '.join(undeclared)}")
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    report["failures"] = [f for w in workers for f in w["failures"]]
    report["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return report


def print_report(report: dict) -> None:
    """Human-readable lines: the host and its raw drift, then every metric
    with its unit, ``fail_frac`` among them."""
    host = report["host"]
    worker = report["worker"]
    result = report["result"]
    workload = report["workload"]
    print(
        f"host: {host['cpu']}, nproc {host['nproc']}, {host['implementation']} {host['python']}; "
        f"kernel median {worker['kernel_ms']:.3f} ms, IQR/median {worker['kernel_spread']:.3f}; "
        f"raw wall {worker['wall_s']:.4f} s, raw cpu {worker['cpu_s']:.4f} s per batch, {worker['reps']} reps"
    )
    if "setup" in report:
        setup = report["setup"]
        print(f"setup: raw median {setup['setup_raw_s']:.4f} s, IQR/median of the ratios {setup['setup_spread']:.3f}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(
        f"{workload} fail_frac: {result['failed'] / result['attempted']:.6g} ratio "
        f"({result['failed']} of {result['attempted']} ops failed)"
    )
    for name, metric in result["metrics"].items():
        print(f"{workload} {name}: {metric['value']:.6g} {metric['unit']}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "temperedk" / "__init__.py").is_file():
        print(f"error: {SRC / 'temperedk'} not found; run from a temperedk checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
