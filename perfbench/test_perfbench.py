"""Self-tests of the benchmark: span arithmetic, percentiles, patching.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import measure, run, tracer as tracing  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _span(tracer: tracing.Tracer, clock: FakeClock, name: str, before: float, body, after: float):
    def fn():
        clock.now += before
        body()
        clock.now += after

    tracer.call(name, fn, (), {})


def test_self_time_subtracts_covered_child_time():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    # outer [0, 10] holds child [1, 4] (which holds leaf [2, 3]) and child [5, 7]
    def outer_body():
        def leaf():
            _span(tracer, clock, "leaf", 1.0, lambda: None, 0.0)

        _span(tracer, clock, "child", 1.0, leaf, 1.0)
        clock.now += 1.0
        _span(tracer, clock, "child", 2.0, lambda: None, 0.0)

    _span(tracer, clock, "outer", 1.0, outer_body, 3.0)
    # outer: 1 + (3) + 1 + (2) + 3 = 10
    assert clock.now == pytest.approx(10.0)
    calls, inclusive, self_s = tracer.spans["outer"]
    assert (calls, inclusive, self_s) == (1, pytest.approx(10.0), pytest.approx(5.0))
    calls, inclusive, self_s = tracer.spans["child"]
    assert (calls, inclusive, self_s) == (2, pytest.approx(5.0), pytest.approx(4.0))
    assert tracer.spans["leaf"] == [1, pytest.approx(1.0), pytest.approx(1.0)]
    assert tracer.top_level_s == pytest.approx(10.0)


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def inner():
        clock.now += 2.0

    _span(tracer, clock, "f", 1.0, lambda: _span(tracer, clock, "f", 0.0, inner, 0.0), 1.0)
    calls, inclusive, self_s = tracer.spans["f"]
    assert calls == 2
    assert inclusive == pytest.approx(4.0)  # the outer call only
    assert self_s == pytest.approx(4.0)  # 2 (outer own) + 2 (inner own)


def test_span_records_time_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def boom():
        clock.now += 1.5
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("boom", boom, (), {})
    assert tracer.spans["boom"] == [1, pytest.approx(1.5), pytest.approx(1.5)]
    assert tracer._stack == []


def test_percentiles_on_a_synthetic_sample_list():
    values = [float(x) for x in range(1, 41)]  # 1..40: 10 samples above p75
    p50, p75 = measure.percentiles(values)
    assert p50 == pytest.approx(20.5)
    assert p75 == pytest.approx(30.25)
    assert sum(1 for v in values if v > p75) == 10
    assert measure.percentiles([3.0]) == (3.0, 3.0)
    assert measure.percentiles([1.0, 2.0]) == (1.5, pytest.approx(1.75))


def test_install_patches_names_where_they_are_looked_up_and_restore_undoes_it():
    import repro.analysis.montecarlo as montecarlo
    import repro.analysis.pipeline as pipeline
    import repro.dfg.evaluate as evaluate
    import repro.dfg.range_analysis as range_analysis
    import repro.optimize.decomposed as decomposed
    import repro.optimize.problem as problem
    from repro.optimize.cost import HardwareCostModel

    originals = {
        "problem": problem.infer_ranges,
        "pipeline": pipeline.infer_ranges,
        "decomposed": decomposed.partition_graph,
        "montecarlo": montecarlo.simulate_fixed_point_batch,
        "affected_by": HardwareCostModel.__dict__["affected_by"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert problem.infer_ranges is not originals["problem"]
        assert pipeline.infer_ranges is problem.infer_ranges
        assert range_analysis.infer_ranges is problem.infer_ranges
        assert decomposed.partition_graph is not originals["decomposed"]
        assert montecarlo.simulate_fixed_point_batch is evaluate.simulate_fixed_point_batch
        assert montecarlo.simulate_fixed_point_batch is not originals["montecarlo"]
        assert isinstance(HardwareCostModel.__dict__["affected_by"], staticmethod)
        with pytest.raises(RuntimeError):
            tracer.assert_restored()
    finally:
        tracer.restore()
    tracer.assert_restored()
    assert problem.infer_ranges is originals["problem"]
    assert pipeline.infer_ranges is originals["pipeline"]
    assert decomposed.partition_graph is originals["decomposed"]
    assert montecarlo.simulate_fixed_point_batch is originals["montecarlo"]
    assert HardwareCostModel.__dict__["affected_by"] is originals["affected_by"]


def test_traced_operations_fire_their_wrappers_and_keep_outputs_identical():
    from perfbench.workloads import OptSuite

    workload = OptSuite(seed=7, workdir=None)
    ops = [op for op in workload.ops if op.label.startswith(("fir4/", "iir_biquad/"))]
    untraced = [op.digest(op.timed()) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        traced = [op.digest(op.timed()) for op in ops]
    finally:
        tracer.restore()
    tracer.assert_restored()
    assert traced == untraced
    fired = tracer.fired()
    for name in (
        "optimize.greedy",
        "optimize.anneal",
        "optimize.evaluate",
        "optimize.cost.reprice",
        "dfg.successors.calls",
        "analysis.incremental.noise_power",
        "analysis.batched.price_moves",
        "analysis.monte_carlo",
        "dfg.unroll_sequential",
        "optimize.pareto_front",
    ):
        assert name in fired, name
    values = tracing.layer_values(tracer, passes=1, covered_share=1.0, overhead=0.0)
    assert set(values) == {name for name, _, _ in tracing.PER_LAYER}
    assert values["optimize.evaluate.calls"] > 0
    assert 0.0 < values["optimize.evaluate.hit_ratio"] < 1.0


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
    from perfbench.workloads import EXPECTED_TRACE, WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(EXPECTED_TRACE) == set(WORKLOADS)


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "opt_suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
