"""Closed-loop timing, per-operation statistics and set-up probes."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Sequence

from perfbench.workloads import Op


@dataclass
class LoopTiming:
    """Wall and CPU samples per operation from one closed-loop run."""

    wall: List[List[float]]
    cpu: List[List[float]]
    passes: int = 0  # complete passes over the operation list
    executions: int = 0
    op_wall_total: float = 0.0  # sum of every execution's wall time

    def medians(self, which: str = "wall") -> List[float]:
        samples = self.wall if which == "wall" else self.cpu
        return [statistics.median(values) for values in samples]


#: After the first pass, an operation shorter than this runs several
#: times per pass (up to ``MAX_REPEATS``), in rounds spread over the
#: pass, so that short operations collect as many samples as long ones
#: collect time.
REPEAT_TARGET_S = 0.1
MAX_REPEATS = 5


def closed_loop(
    ops: Sequence[Op],
    seconds: float,
    on_result: Callable[[int, int, Any], None],
    whole_passes: bool = False,
) -> LoopTiming:
    """Run ``ops`` in order, over and over, for about ``seconds``.

    One client: each operation starts when the previous one (and its
    untimed ``on_result`` bookkeeping) has finished.  The first pass
    runs every operation once and always completes, so every operation
    has at least one sample.  With ``whole_passes=False`` later passes
    repeat short operations (see :data:`REPEAT_TARGET_S`) and no new
    operation starts after the deadline.  With ``whole_passes=True``
    every pass runs each operation exactly once, so per-pass counts are
    exact, and no new pass starts after the deadline.  An operation
    that raises hands the exception to ``on_result`` as its payload.
    """
    timing = LoopTiming(wall=[[] for _ in ops], cpu=[[] for _ in ops])
    deadline = time.perf_counter() + seconds
    repeats = [1] * len(ops)
    pass_index = 0
    while pass_index == 0 or time.perf_counter() < deadline:
        for round_index in range(max(repeats)):
            for index, op in enumerate(ops):
                if repeats[index] <= round_index:
                    continue
                if pass_index > 0 and not whole_passes and time.perf_counter() >= deadline:
                    return timing
                wall_start = time.perf_counter()
                cpu_start = time.process_time()
                try:
                    payload = op.timed()
                except Exception as exc:  # reported through on_result as a failed operation
                    payload = exc
                cpu = time.process_time() - cpu_start
                wall = time.perf_counter() - wall_start
                timing.wall[index].append(wall)
                timing.cpu[index].append(cpu)
                timing.executions += 1
                timing.op_wall_total += wall
                on_result(pass_index, index, payload)
        if pass_index == 0 and not whole_passes:
            repeats = [
                max(1, min(MAX_REPEATS, int(REPEAT_TARGET_S / max(samples[0], 1e-9))))
                for samples in timing.wall
            ]
        pass_index += 1
        timing.passes = pass_index
    return timing


def percentiles(values: Sequence[float]) -> tuple[float, float]:
    """``(p50, p75)`` of ``values``, interpolated within the data range."""
    if len(values) == 1:
        return values[0], values[0]
    p75 = statistics.quantiles(values, n=4, method="inclusive")[2]
    return statistics.median(values), p75


def setup_seconds(root: Path, workload: str, seed: int, repeats: int) -> List[float]:
    """Set-up time (imports + circuit construction) of ``repeats`` fresh
    interpreters, each timed from inside by ``perfbench/setup_probe.py``."""
    probe = root / "perfbench" / "setup_probe.py"
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples
