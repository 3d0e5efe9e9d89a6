"""Tests of the benchmark's own arithmetic, tracing, checks and inputs.

    python3 -m pytest perfbench/tests
"""

import sys

import pytest

import refclock
import tracing
import worker
import workloads


def test_scaled_converts_wall_time_to_reference_speed():
    # An op that takes 20 kernel times takes 20 nominal kernel times.
    assert refclock.scaled(0.05, 0.0025) == pytest.approx(20 * refclock.NOMINAL_S)
    with pytest.raises(ValueError):
        refclock.scaled(0.05, 0.0)


def test_window_refs_take_the_median_of_the_samples_around_each_op():
    # HALF_WINDOW samples on each side of an op, clipped at both ends; the
    # single disturbed sample is always outvoted.
    assert refclock.HALF_WINDOW == 3
    samples = [1.0, 2.0, 3.0, 100.0, 4.0, 5.0, 6.0, 7.0]
    assert refclock.window_refs(samples) == [2.5, 3.0, 3.5, 4.5, 5.5, 6.0, 5.5]
    with pytest.raises(ValueError):
        refclock.window_refs([])


def test_spread_is_interquartile_range_over_median():
    assert refclock.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert refclock.spread([7.0]) == 0.0


def _span(name, start, end, parent, items=0, extra=0):
    return [name, start, end, parent, 0, items, extra]


def test_self_time_subtracts_the_time_children_cover():
    names = [("cli", "cli.main"), ("ktheory", "ktheory.k_real"), ("param_space", "param_space.real_components")]
    spans = [
        _span(0, 0.0, 10.0, -1),
        _span(1, 1.0, 7.0, 0, items=2, extra=3),
        _span(2, 2.0, 4.0, 1, items=8),
        _span(2, 4.5, 5.0, 1, items=4),
        _span(0, 11.0, 12.0, -1),
    ]
    summary = tracing.summarize(spans, names)
    assert summary.self_s == pytest.approx({"cli": 5.0, "ktheory": 3.5, "param_space": 2.5})
    assert summary.covered_s == pytest.approx(11.0)
    assert sum(summary.self_s.values()) == pytest.approx(summary.covered_s)
    assert summary.calls == {"cli": 2, "ktheory": 1, "param_space": 2}
    assert summary.items == {"ktheory": 2, "param_space": 12}
    assert summary.nested_calls == {"cli": 1, "ktheory": 2}
    assert summary.cli_s == pytest.approx({"main": 11.0})
    assert summary.counters == {"generators": 3}
    assert summary.enumerated_under_ktheory == 12

    # The tracer's cost per nested call moves from the caller's self time
    # to the unattributed time; the parts still add up to the op's time.
    layers = worker.Layers(call_cost=0.5)
    layers.add(summary, wall=13.0, scale=1.0)
    metrics = layers.metrics()
    assert metrics["cli.self_s"] == pytest.approx(4.5)
    assert metrics["ktheory.self_s"] == pytest.approx(2.5)
    assert metrics["param_space.self_s"] == pytest.approx(2.5)
    assert metrics["unattributed.self_s"] == pytest.approx(3.5)
    parts = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) + metrics["unattributed.self_s"]
    assert parts == pytest.approx(metrics["trace.ref_s"]) == pytest.approx(13.0)


def test_tracer_wraps_every_binding_and_restores_them():
    from temperedk import cli, ktheory

    original = ktheory.k_real
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ktheory.k_real is not original
        assert cli.k_real is ktheory.k_real
        assert sys.modules["temperedk"].k_real is ktheory.k_real
        ktheory.k_real(3, 2)
        spans = tracer.take_spans()
    finally:
        tracer.uninstall()
    assert ktheory.k_real is original and cli.k_real is original
    summary = tracing.summarize(spans, tracer.names)
    assert summary.calls["ktheory"] >= 1 and summary.calls["param_space"] >= 1
    assert summary.counters["generators"] == sum(p.rank for p in original(3, 2))
    assert summary.enumerated_under_ktheory > 0


def test_call_cost_is_a_small_positive_time():
    assert 0.0 <= tracing.Tracer().call_cost() < 1e-3


def _cli_op(stdout, code=0):
    expected = workloads.cli_fingerprint(0, "K0 rank 1\n")
    return workloads.Op("cli", lambda: (code, stdout), workloads.golden_check(expected))


@pytest.mark.parametrize(
    "stdout, code, failed",
    [("K0 rank 1\n", 0, 0), ("K0 rank 2\n", 0, 1), ("K0 rank 1 \n", 0, 1), ("K0 rank 1\n", 1, 1)],
)
def test_a_changed_output_byte_or_exit_code_is_a_failed_op(stdout, code, failed):
    run = worker.Run([_cli_op(stdout, code)], None)
    run.timed_pass(keep_spans=False)
    out = worker.results(run)
    assert (out["attempted"], out["failed"]) == (1, failed)


def test_an_exception_is_a_failed_op_not_a_crash():
    def boom():
        raise ValueError("bad input")

    run = worker.Run([workloads.Op("boom", boom, lambda result: None)], None)
    run.timed_pass(keep_spans=False)
    assert worker.results(run)["failed"] == 1
    assert "ValueError: bad input" in run.failures[0]


def test_golden_outputs_cover_every_catalog_command():
    golden = workloads.load_golden()
    assert set(golden) == {" ".join(argv) for argv in workloads.CATALOG_COMMANDS}
    assert {entry["exit"] for entry in golden.values()} == {0, 1}


def _fingerprint(ops):
    """Op names plus the cheap generated inputs a workload holds."""
    inputs = []
    for op in ops:
        if op.name.startswith(("kclass ", "build batch")):
            result = op.run()
            inputs.append(result.coefficients if op.name.startswith("kclass") else result)
    return [op.name for op in ops], inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_same_seed_gives_the_same_inputs(name):
    build = workloads.WORKLOADS[name]
    first = _fingerprint(build(7))
    assert first == _fingerprint(build(7))
    assert first != _fingerprint(build(8))
