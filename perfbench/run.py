"""Benchmark of the word-length optimizer and the noise-analysis pipeline.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload opt_suite --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py``): ``opt_suite``, ``opt_scale``
and ``analyze_mc``.  The program is imported from ``src/`` of the same
checkout; without it the benchmark exits with code 2 and prints no
result.

``--trace 0`` measures for ``--seconds`` with no instrumentation and
reports the end-to-end metrics.  ``--trace 1`` first measures whole
passes with every layer boundary wrapped (``perfbench/tracer.py``),
then restores every original, checks that nothing is left patched, and
measures untraced passes to price the tracing overhead; it reports the
per-layer metrics.  Each half gets ``--seconds / 2``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it (prefixed ``#``) record the environment, the output digest and the
designs or analyses that missed their quality targets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics as ``(name, unit)``; see BENCHMARK.json for bounds.
END_TO_END = (
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_s", "s"),
    ("op_p75_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("area_saving", "ratio"),
    ("noise_ratio_worst", "ratio"),
    ("pass_rate", "ratio"),
)

SETUP_REPEATS = 9


class Ledger:
    """Per-execution bookkeeping: failures, digests, checks and verdicts.

    The first execution of each operation is checked (re-pricing,
    re-evaluation, completeness) and judged for quality; every later
    execution must reproduce the first one's digest exactly.
    """

    def __init__(self, workload: Any, tracer: Any = None) -> None:
        self.workload = workload
        self.tracer = tracer  # paused while the bookkeeping runs
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.verdicts: List[Any] = []
        self.first_digest: Dict[int, str] = {}

    def record(self, pass_index: int, op_index: int, payload: Any) -> None:
        op = self.workload.ops[op_index]
        self.attempted += 1
        if isinstance(payload, Exception):
            self.failed += 1
            self.errors.append(f"{op.label}: raised {type(payload).__name__}: {payload}")
            return
        tracing = self.tracer is not None and self.tracer.active
        if tracing:
            self.tracer.active = False
        try:
            digest = hashlib.sha256("\n".join(op.digest(payload)).encode()).hexdigest()
            if op_index not in self.first_digest:
                self.first_digest[op_index] = digest
                verdicts, errors = op.check(payload)
                self.verdicts.extend(verdicts)
                self.errors.extend(errors)
            elif self.first_digest[op_index] != digest:
                self.errors.append(f"{op.label}: output differs from its first execution")
        finally:
            if tracing:
                self.tracer.active = True

    def digest(self) -> str:
        joined = "\n".join(self.first_digest[i] for i in sorted(self.first_digest))
        return hashlib.sha256(joined.encode()).hexdigest()

    @property
    def correct(self) -> bool:
        return not self.errors and len(self.first_digest) == len(self.workload.ops)


def _loop_figures(timing: Any) -> Dict[str, float]:
    """One pass's wall and CPU time (sums of per-operation medians) and
    the percentiles of the per-operation median wall times."""
    from perfbench.measure import percentiles

    wall = timing.medians("wall")
    p50, p75 = percentiles(wall)
    return {
        "run_s": sum(wall),
        "cpu_s": sum(timing.medians("cpu")),
        "op_p50_s": p50,
        "op_p75_s": p75,
    }


def run_untraced(workload: Any, seconds: float, seed: int) -> tuple[Ledger, Dict[str, float]]:
    from perfbench import measure

    setup = measure.setup_seconds(ROOT, workload.name, seed, SETUP_REPEATS)
    ledger = Ledger(workload)
    timing = measure.closed_loop(workload.ops, seconds, ledger.record)
    values = {
        **_loop_figures(timing),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    quality = {
        "area_saving": workload.area_saving(ledger.verdicts),
        "noise_ratio_worst": workload.noise_ratio_worst(ledger.verdicts),
        "pass_rate": workload.pass_rate(ledger.verdicts),
    }
    values.update({name: value for name, value in quality.items() if value is not None})
    _info(f"passes={timing.passes} executions={timing.executions} ops_per_pass={len(workload.ops)}")
    _info(f"setup_samples_s={[round(x, 4) for x in setup]}")
    return ledger, values


def run_traced(workload: Any, seconds: float) -> tuple[Ledger, Dict[str, float]]:
    from perfbench import measure, tracer as tracing
    from perfbench.workloads import EXPECTED_TRACE

    tracer = tracing.Tracer()
    ledger = Ledger(workload, tracer)
    tracer.install()
    try:
        tracer.active = True
        traced = measure.closed_loop(workload.ops, seconds / 2.0, ledger.record, whole_passes=True)
    finally:
        tracer.restore()
    tracer.assert_restored()
    missing = sorted(set(EXPECTED_TRACE[workload.name]) - tracer.fired())
    if missing:
        ledger.errors.append(f"trace self-test: wrappers never fired: {', '.join(missing)}")
    untraced = measure.closed_loop(workload.ops, seconds / 2.0, ledger.record)
    traced_run_s = _loop_figures(traced)["run_s"]
    untraced_run_s = _loop_figures(untraced)["run_s"]
    values = tracing.layer_values(
        tracer,
        traced.passes,
        covered_share=tracer.top_level_s / traced.op_wall_total,
        overhead=traced_run_s / untraced_run_s - 1.0,
    )
    _info(
        f"traced_passes={traced.passes} untraced_passes={untraced.passes} "
        f"patched_sites={len(tracer.installed_sites())}"
    )
    return ledger, values


def _info(line: str) -> None:
    print(f"# {line}", flush=True)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
        )

    workdir = ROOT / ".perfbench-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            ledger, values = run_traced(workload, args.seconds)
        else:
            ledger, values = run_untraced(workload, args.seconds, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if multiprocessing.active_children():
        ledger.errors.append("worker processes were left running")

    _info(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()}"
    )
    _info(f"digest={ledger.digest()}")
    misses = [v for v in ledger.verdicts if not v.ok]
    if ledger.verdicts:
        _info(
            f"error_rate={len(misses) / len(ledger.verdicts):.4f} "
            f"({len(misses)}/{len(ledger.verdicts)})"
        )
    for verdict in misses:
        _info(f"miss {verdict.label}: {verdict.extra.get('why', '')}")
    for error in ledger.errors:
        _info(f"error {error}")

    if args.trace:
        from perfbench.tracer import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        units = dict(END_TO_END)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    result = {
        "correct": ledger.correct and len(metrics) == len(units),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
