"""Process-parallel execution of independent job shards, fault-tolerantly.

:class:`JobRunner` runs a batch of :class:`~repro.jobs.spec.JobSpec`
work units on one of two backends:

``serial``
    A plain in-process loop — the reference semantics, no pickling
    requirements, and the fallback when ``workers == 1`` or process
    pools are unavailable.
``process``
    A :class:`concurrent.futures.ProcessPoolExecutor` fed one job per
    submit through a bounded window (twice the worker count), so each
    job starts as soon as a worker frees up.  The loop kills hung
    workers, respawns a broken pool, and resubmits only the unfinished
    jobs; with no retry policy each job gets one attempt.

Both backends return results **in submission order**, never completion
order, and every per-job seed derives from the job key alone — so a
merge over the result list is bit-identical for any worker count, any
retry schedule, and any resume point.  A job that raises is captured as
a failed :class:`JobResult` (error + traceback), not an exception in
the parent; a worker that dies without reporting (killed, segfault) is
retried under the :class:`~repro.jobs.policy.RetryPolicy` and surfaces
as :class:`JobError` (carrying the already-completed results) only once
its attempt budget is spent.  A pool death is charged only to a job
that was alone in flight: when several were, they are all resubmitted
uncharged and run one at a time until each has run alone, so a crash
never costs an attempt to a job that did not cause it.
"""

from __future__ import annotations

import heapq
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import JobError
from repro.jobs.checkpoint import JobCheckpoint
from repro.jobs.faults import FaultPlan
from repro.jobs.policy import NO_RETRY, ExecutionContext, RetryPolicy
from repro.jobs.spec import JobResult, JobSpec

__all__ = ["JobRunner", "RunStats", "execute_job", "summarize_run", "BACKENDS"]

BACKENDS = ("serial", "process")

#: Poll interval of the process loop; bounds how late a timeout kill
#: can fire past the deadline.
_POLL_S = 0.05

#: Environment marker set inside every pool worker process.  A
#: :class:`JobRunner` constructed under it (a job that itself shards —
#: e.g. a benchmark cell running the decomposed optimizer) silently
#: degrades to the serial backend instead of spawning a pool-inside-a-
#: pool that oversubscribes the machine.  Results are unaffected: both
#: backends are bit-identical by design.
_WORKER_ENV = "REPRO_JOBS_WORKER"


def _mark_worker_process() -> None:
    """Pool initializer: brand this process as a jobs worker."""
    os.environ[_WORKER_ENV] = "1"


def execute_job(spec: JobSpec, context: ExecutionContext | None = None) -> JobResult:
    """Run one job, timing it and converting any exception into data.

    Module-level so the process backend can pickle it; the serial
    backend calls it directly, guaranteeing identical semantics.  The
    optional ``context`` carries the attempt number and the fault plan
    (consulted *before* the job body, so injected faults never perturb
    a surviving attempt's value).
    """
    attempt = context.attempt if context is not None else 1
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        if context is not None and context.fault_plan is not None:
            context.fault_plan.inject(spec.key, attempt)
        value = spec.fn(*spec.args, **dict(spec.kwargs))
    except Exception as exc:  # noqa: BLE001 - the whole point is capture
        return JobResult(
            key=spec.key,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
            wall_s=time.perf_counter() - wall,
            cpu_s=time.process_time() - cpu,
            seed=spec.seed,
            attempts=attempt,
        )
    return JobResult(
        key=spec.key,
        ok=True,
        value=value,
        wall_s=time.perf_counter() - wall,
        cpu_s=time.process_time() - cpu,
        seed=spec.seed,
        attempts=attempt,
    )


@dataclass
class RunStats:
    """Fault-tolerance counters of one :meth:`JobRunner.run` call.

    Volatile by construction — retries and restarts depend on
    scheduling, machine load, and injected faults, never on the merged
    answer — so every consumer records them inside the already-stripped
    ``parallel`` block of a benchmark document.
    """

    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    resumed_jobs: int = 0

    def to_dict(self) -> dict:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "resumed_jobs": self.resumed_jobs,
        }


class JobRunner:
    """Execute independent jobs serially or on a process pool.

    Parameters
    ----------
    workers:
        Worker-process count.  ``1`` selects the serial backend unless
        ``backend`` overrides it; values above 1 select the process
        backend by default.
    backend:
        ``"serial"`` or ``"process"``; ``None`` picks from ``workers``.
    timeout_s:
        Per-job wall-clock budget.  On the process backend a job
        past its deadline is killed (pool terminated and respawned; the
        other in-flight jobs are resubmitted uncharged); on the serial
        path the overrun is detected after the fact and the result is
        converted to a timeout failure.  Each kill charges one attempt.
    retry:
        :class:`~repro.jobs.policy.RetryPolicy` governing re-execution
        of failed, timed-out, or pool-killed jobs.  ``None`` means run
        once (the historical behavior).
    fault_plan:
        Optional :class:`~repro.jobs.faults.FaultPlan` injecting
        deterministic faults ahead of each attempt — the test harness
        for every recovery path above.
    """

    def __init__(
        self,
        workers: int = 1,
        backend: str | None = None,
        timeout_s: float | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        workers = int(workers)
        if workers < 1:
            raise JobError(f"workers must be >= 1, got {workers}")
        if backend is None:
            backend = "process" if workers > 1 else "serial"
        if backend not in BACKENDS:
            raise JobError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.nested = bool(os.environ.get(_WORKER_ENV))
        if backend == "process" and self.nested:
            backend = "serial"  # never nest pools inside a pool worker
        if timeout_s is not None and timeout_s <= 0.0:
            raise JobError(f"timeout_s must be > 0, got {timeout_s}")
        self.workers = workers
        self.backend = backend
        self.timeout_s = timeout_s
        self.retry = retry
        self.fault_plan = fault_plan
        self.last_stats = RunStats()

    # ------------------------------------------------------------------ #
    def run(
        self,
        specs: Iterable[JobSpec],
        check: bool = False,
        checkpoint: JobCheckpoint | None = None,
    ) -> List[JobResult]:
        """Execute every job and return results in submission order.

        With ``check=True`` the first failed job raises :class:`JobError`
        carrying the worker's error and traceback; with ``check=False``
        failures come back as ``JobResult(ok=False)`` for the caller to
        inspect.  With a ``checkpoint``, finished jobs stream to its
        append-only log as they complete, jobs already on disk are
        replayed instead of recomputed (``resumed=True``), and a
        ``KeyboardInterrupt`` flushes the log before propagating — an
        interrupted run loses at most the in-flight jobs.
        """
        ordered = list(specs)
        seen: set[str] = set()
        for spec in ordered:
            if spec.key in seen:
                raise JobError(f"duplicate job key {spec.key!r}; keys must be unique")
            seen.add(spec.key)
        self.last_stats = RunStats()
        if not ordered:
            return []
        resumed: Dict[str, JobResult] = {}
        try:
            if checkpoint is not None:
                resumed = checkpoint.begin(ordered)
                self.last_stats.resumed_jobs = len(resumed)
            pending = [spec for spec in ordered if spec.key not in resumed]
            if self.backend == "serial" or not pending:
                computed = self._run_serial(pending, checkpoint)
            else:
                computed = self._run_process(pending, checkpoint)
        finally:
            if checkpoint is not None:
                checkpoint.close()
        by_key = dict(resumed)
        by_key.update({result.key: result for result in computed})
        results = [by_key[spec.key] for spec in ordered]
        if check:
            self.raise_on_failure(results)
        return results

    # ------------------------------------------------------------------ #
    # serial backend (with post-hoc timeout detection)
    # ------------------------------------------------------------------ #
    def _run_serial(
        self, ordered: Sequence[JobSpec], checkpoint: JobCheckpoint | None
    ) -> List[JobResult]:
        results: List[JobResult] = []
        for spec in ordered:
            result = self._serial_attempts(spec)
            if checkpoint is not None:
                checkpoint.record(result)
            results.append(result)
        return results

    def _serial_attempts(self, spec: JobSpec) -> JobResult:
        retry = self.retry or NO_RETRY
        attempt = 0
        timeouts = 0
        while True:
            attempt += 1
            context = ExecutionContext(attempt=attempt, fault_plan=self.fault_plan)
            result = execute_job(spec, context)
            if self.timeout_s is not None and result.wall_s > self.timeout_s:
                # The serial loop cannot preempt, so the kill is post hoc:
                # the overrun attempt is discarded exactly as a killed one.
                timeouts += 1
                self.last_stats.timeouts += 1
                result = replace(
                    result,
                    ok=False,
                    value=None,
                    error=(
                        f"TimeoutError: job exceeded the {self.timeout_s:g}s wall-clock "
                        f"budget (ran {result.wall_s:.2f}s)"
                    ),
                    traceback=None,
                )
            result = replace(result, attempts=attempt, timeouts=timeouts)
            if result.ok or not retry.allows(attempt):
                return result
            self.last_stats.retries += 1
            delay = retry.delay_s(spec.key, attempt, spec.seed)
            if delay > 0.0:
                time.sleep(delay)

    # ------------------------------------------------------------------ #
    # process backend (timeouts, retries, pool respawn)
    # ------------------------------------------------------------------ #
    def _run_process(
        self, ordered: Sequence[JobSpec], checkpoint: JobCheckpoint | None
    ) -> List[JobResult]:
        retry = self.retry or NO_RETRY
        workers = min(self.workers, len(ordered))
        window = workers * 2
        max_restarts = len(ordered) * max(retry.max_attempts, 1) + 4
        results: Dict[int, JobResult] = {}
        # Min-heap of (ready_at, index, attempt, timeouts): retry backoff
        # delays re-submission without blocking the other jobs.
        pending: List[Tuple[float, int, int, int]] = [
            (0.0, index, 1, 0) for index in range(len(ordered))
        ]
        heapq.heapify(pending)
        futures: Dict[Future, Tuple[int, int, int, float | None]] = {}
        # Jobs in flight together when their pool died: any of them may
        # be the crasher, so they are resubmitted uncharged and run one
        # at a time (window 1) until each has run alone.
        suspects: set[int] = set()
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_mark_worker_process
        )
        pool_broken = False
        try:
            while pending or futures:
                suspects.difference_update(results)  # timed out for good
                pool, pool_broken = self._submit_ready(
                    pool,
                    pool_broken,
                    pending,
                    futures,
                    ordered,
                    1 if suspects else window,
                    workers,
                    max_restarts,
                    results,
                )
                if not futures:
                    if pending:
                        wait_s = max(pending[0][0] - time.monotonic(), 0.0)
                        if wait_s > 0.0:
                            time.sleep(min(wait_s, _POLL_S))
                    continue
                done, _running = wait(set(futures), timeout=_POLL_S, return_when=FIRST_COMPLETED)
                for future in done:
                    index, attempt, timeouts, _deadline = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        alone = not pool_broken and not futures
                        pool_broken = True
                        if alone:
                            suspects.discard(index)
                            self._charge_pool_death(
                                index, attempt, timeouts, pending, results, ordered, retry
                            )
                        else:
                            suspects.add(index)
                            heapq.heappush(pending, (0.0, index, attempt, timeouts))
                        continue
                    except Exception as exc:  # noqa: BLE001 - result unpickling etc.
                        result = JobResult(
                            key=ordered[index].key,
                            ok=False,
                            error=f"{type(exc).__name__}: {exc}",
                            seed=ordered[index].seed,
                        )
                    suspects.discard(index)
                    self._settle(
                        index, result, attempt, timeouts, pending, results, ordered, retry, checkpoint
                    )
                if self.timeout_s is not None and futures:
                    pool = self._kill_expired(
                        pool, pending, futures, results, ordered, retry, checkpoint, workers, max_restarts
                    )
                if pool_broken and not futures:
                    pool = self._respawn(pool, workers, max_restarts, results)
                    pool_broken = False
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return [results[index] for index in sorted(results)]

    def _submit_ready(self, pool, pool_broken, pending, futures, ordered, window, workers, max_restarts, results):
        while pending and len(futures) < window and not pool_broken:
            ready_at, index, attempt, timeouts = pending[0]
            if ready_at > time.monotonic():
                break
            heapq.heappop(pending)
            context = ExecutionContext(attempt=attempt, fault_plan=self.fault_plan)
            try:
                future = pool.submit(execute_job, ordered[index], context)
            except (BrokenProcessPool, RuntimeError):
                # The pool died between loop iterations; requeue and respawn.
                heapq.heappush(pending, (ready_at, index, attempt, timeouts))
                if futures:
                    pool_broken = True
                else:
                    pool = self._respawn(pool, workers, max_restarts, results)
                break
            deadline = time.monotonic() + self.timeout_s if self.timeout_s is not None else None
            futures[future] = (index, attempt, timeouts, deadline)
        return pool, pool_broken

    def _settle(
        self, index, result, attempt, timeouts, pending, results, ordered, retry, checkpoint
    ) -> None:
        spec = ordered[index]
        if self.timeout_s is not None and result.wall_s > self.timeout_s:
            # Completed past the deadline before the kill scan caught it:
            # count it as a timeout so the outcome matches a real kill.
            timeouts += 1
            self.last_stats.timeouts += 1
            result = replace(
                result,
                ok=False,
                value=None,
                error=(
                    f"TimeoutError: job exceeded the {self.timeout_s:g}s wall-clock "
                    f"budget (ran {result.wall_s:.2f}s)"
                ),
                traceback=None,
            )
        result = replace(result, attempts=attempt, timeouts=timeouts, seed=spec.seed)
        if result.ok or not retry.allows(attempt):
            if checkpoint is not None:
                checkpoint.record(result)
            results[index] = result
            return
        self.last_stats.retries += 1
        ready_at = time.monotonic() + retry.delay_s(spec.key, attempt, spec.seed)
        heapq.heappush(pending, (ready_at, index, attempt + 1, timeouts))

    def _charge_pool_death(self, index, attempt, timeouts, pending, results, ordered, retry) -> None:
        spec = ordered[index]
        if retry.allows(attempt):
            self.last_stats.retries += 1
            ready_at = time.monotonic() + retry.delay_s(spec.key, attempt, spec.seed)
            heapq.heappush(pending, (ready_at, index, attempt + 1, timeouts))
            return
        raise JobError(
            "a worker process died without reporting a result (killed, "
            f"out-of-memory, or a hard crash); job {spec.key!r} exhausted its "
            f"{attempt} attempt(s); re-run with workers=1 to localize the failure",
            completed=[result for result in results.values() if result.ok],
        )

    def _kill_expired(
        self, pool, pending, futures, results, ordered, retry, checkpoint, workers, max_restarts
    ):
        now = time.monotonic()
        expired = [
            future
            for future, (_i, _a, _t, deadline) in futures.items()
            if deadline is not None and now > deadline and not future.done()
        ]
        if not expired:
            return pool
        for future in expired:
            index, attempt, timeouts, _deadline = futures.pop(future)
            spec = ordered[index]
            timeouts += 1
            self.last_stats.timeouts += 1
            if retry.allows(attempt):
                self.last_stats.retries += 1
                ready_at = time.monotonic() + retry.delay_s(spec.key, attempt, spec.seed)
                heapq.heappush(pending, (ready_at, index, attempt + 1, timeouts))
            else:
                result = JobResult(
                    key=spec.key,
                    ok=False,
                    error=(
                        f"TimeoutError: job exceeded the {self.timeout_s:g}s wall-clock "
                        "budget and its retry budget; killed"
                    ),
                    seed=spec.seed,
                    attempts=attempt,
                    timeouts=timeouts,
                )
                if checkpoint is not None:
                    checkpoint.record(result)
                results[index] = result
        # The pool API cannot kill one task, so terminate every worker
        # and resubmit the innocent in-flight jobs uncharged.
        for future, (index, attempt, timeouts, _deadline) in list(futures.items()):
            if future.done():
                continue  # finished in the race window; settled next loop
            futures.pop(future)
            heapq.heappush(pending, (0.0, index, attempt, timeouts))
        self._terminate_pool(pool)
        return self._respawn(pool, workers, max_restarts, results)

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()

    def _respawn(self, pool, workers, max_restarts, results) -> ProcessPoolExecutor:
        # Join the dead pool fully — a half-closed executor leaks file
        # descriptors its atexit hook later trips over.
        pool.shutdown(wait=True, cancel_futures=True)
        if self.last_stats.pool_restarts >= max_restarts:
            raise JobError(
                f"the process pool died {self.last_stats.pool_restarts} times; giving up "
                "(persistent worker crash or resource exhaustion)",
                completed=[result for result in results.values() if result.ok],
            )
        self.last_stats.pool_restarts += 1
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_mark_worker_process
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def raise_on_failure(results: Sequence[JobResult]) -> None:
        """Raise :class:`JobError` describing every failed job, if any.

        The exception's ``completed`` attribute carries the successful
        results so callers can salvage the finished shards.
        """
        failed = [result for result in results if not result.ok]
        if not failed:
            return
        first = failed[0]
        detail = f"\n--- worker traceback ({first.key}) ---\n{first.traceback}"
        keys = ", ".join(result.key for result in failed)
        raise JobError(
            f"{len(failed)} of {len(results)} jobs failed ({keys}); "
            f"first failure: {first.error}{detail}",
            completed=[result for result in results if result.ok],
        )


def summarize_run(runner: JobRunner, results: Sequence[JobResult], wall_s: float) -> dict:
    """Sharding summary block the benchmark documents record.

    ``serial_estimate_s`` is the sum of per-job wall times — what the
    batch would have cost on one worker — so ``parallel_speedup`` is a
    measured (not modeled) wall-clock improvement of this very run.
    ``cpu_speedup`` divides the summed per-job *CPU* time by the wall
    time instead; on a machine with fewer cores than workers the jobs
    time-share and inflate each other's wall clocks, so the CPU variant
    is the honest lower bound there (the two agree when cores >=
    workers).  The fault-tolerance counters (retries, timeout kills,
    pool restarts, resumed jobs) live here precisely because this block
    is stripped wholesale by ``canonical_document``.
    """
    serial_estimate = sum(result.wall_s for result in results)
    cpu_total = sum(result.cpu_s for result in results)
    stats = getattr(runner, "last_stats", None) or RunStats()
    return {
        "backend": runner.backend,
        "workers": runner.workers,
        "jobs": len(results),
        "wall_s": wall_s,
        "serial_estimate_s": serial_estimate,
        "cpu_total_s": cpu_total,
        "max_job_wall_s": max((result.wall_s for result in results), default=0.0),
        "parallel_speedup": serial_estimate / wall_s if wall_s > 0.0 else float("inf"),
        "cpu_speedup": cpu_total / wall_s if wall_s > 0.0 else float("inf"),
        "attempts": sum(result.attempts for result in results),
        **stats.to_dict(),
    }
