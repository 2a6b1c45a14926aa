"""Per-layer tracing from outside the program.

The benchmark never instruments ``src/``.  Instead, for a traced run it
replaces the public functions and methods at each layer boundary with
thin wrappers that record a span (calls, inclusive time, self time) and
a few counters, then puts every original back before any untraced
measurement.

Two rules keep the numbers honest:

* **Patch names where they are looked up.**  ``from x import f`` binds
  ``f`` into the importing module, so patching only ``x.f`` misses every
  caller that goes through the importer's copy (``repro.optimize.problem``
  and ``repro.analysis.pipeline`` hold their own ``infer_ranges``,
  ``repro.optimize.decomposed`` its own ``partition_graph``, and
  ``repro.analysis.montecarlo`` its own ``simulate_fixed_point_batch``).
  :meth:`Tracer.install` therefore imports every ``repro`` module and
  rebinds *each* module attribute that is the original function.
  Methods are patched on the class that defines them.
* **Self time comes from a span stack.**  A span's self time is its
  duration minus the part of it that its child spans cover; a span that
  is active more than once (recursion) counts its inclusive time only at
  the outermost level.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

# Module-level functions: (home module, attribute, span name).
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.dfg.range_analysis", "infer_ranges", "dfg.infer_ranges"),
    ("repro.dfg.unroll", "unroll_sequential", "dfg.unroll_sequential"),
    ("repro.noisemodel.gains", "transfer_gains", "noisemodel.transfer_gains"),
    ("repro.dfg.partition", "partition_graph", "dfg.partition_graph"),
    ("repro.dfg.partition", "extract_partition", "dfg.extract_partition"),
    ("repro.analysis.montecarlo", "monte_carlo_error", "analysis.monte_carlo"),
    ("repro.analysis.montecarlo", "monte_carlo_error_sharded", "analysis.monte_carlo"),
    ("repro.dfg.evaluate", "simulate_fixed_point_batch", "dfg.simulate_fixed_point_batch"),
    ("repro.histogram.arithmetic", "combine_histograms", "histogram.combine_histograms"),
    ("repro.analysis.probabilistic", "affine_error_pdf", "analysis.affine_error_pdf"),
    ("repro.optimize.pareto", "pareto_front", "optimize.pareto_front"),
)

# Methods: (module, class, attribute, span name).  A span name of None
# records counters only (no timing), for the hottest tiny calls whose
# time belongs to their caller.
METHOD_SPANS: Tuple[Tuple[str, str, str, str | None], ...] = (
    ("repro.optimize.strategies", "GreedyBitStealingOptimizer", "_search", "optimize.greedy"),
    ("repro.optimize.strategies", "SimulatedAnnealingOptimizer", "_search", "optimize.anneal"),
    ("repro.optimize.decomposed", "DecomposedOptimizer", "_search", "optimize.decomposed"),
    ("repro.optimize.strategies", "WordLengthOptimizer", "optimize", None),
    ("repro.optimize.cost", "HardwareCostModel", "price", "optimize.cost.price"),
    ("repro.optimize.cost", "HardwareCostModel", "reprice", "optimize.cost.reprice"),
    ("repro.optimize.cost", "HardwareCostModel", "affected_by", "optimize.cost.affected_by"),
    (
        "repro.optimize.problem",
        "OptimizationProblem",
        "predicted_noise_increase",
        "optimize.predicted_noise_increase",
    ),
    ("repro.optimize.problem", "OptimizationProblem", "evaluate", "optimize.evaluate"),
    (
        "repro.noisemodel.assignment",
        "WordLengthAssignment",
        "with_fractional_bits",
        "optimize.with_fractional_bits",
    ),
    ("repro.dfg.graph", "DFG", "successors", None),
    (
        "repro.analysis.incremental",
        "IncrementalAnalyzer",
        "noise_power",
        "analysis.incremental.noise_power",
    ),
    ("repro.analysis.batched", "BatchedAnalyzer", "price_moves", "analysis.batched.price_moves"),
    ("repro.noisemodel.analyzer", "DatapathNoiseAnalyzer", "analyze", "noisemodel.analyze"),
    ("repro.jobs.runner", "JobRunner", "run", "jobs.run"),
    ("repro.jobs.checkpoint", "SearchCheckpoint", "save", "jobs.checkpoint_save"),
)


class Tracer:
    """Aggregating span recorder with a nested span stack.

    ``clock`` is injectable so the self-time arithmetic can be tested on
    a synthetic trace.  Totals are kept per span name as
    ``[calls, inclusive_s, self_s]``; :attr:`top_level_s` sums the spans
    that started with no other span open.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.top_level_s = 0.0
        self.active = False
        self._stack: List[float] = []  # child time covered, per open span
        self._open: Dict[str, int] = {}  # open depth per span name
        self._patches: List[Tuple[Any, str, Any]] = []  # (owner, attr, original)
        self._installed: List[Tuple[Any, str, Any]] = []  # every patch ever made
        self._wrappers: Dict[int, Any] = {}  # id -> wrapper, held so ids stay unique

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        open_depth = self._open
        stack.append(0.0)
        open_depth[name] = open_depth.get(name, 0) + 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            covered = stack.pop()
            open_depth[name] -= 1
            totals = self.spans.get(name)
            if totals is None:
                totals = self.spans[name] = [0.0, 0.0, 0.0]
            totals[0] += 1
            if open_depth[name] == 0:
                totals[1] += elapsed
            totals[2] += elapsed - covered
            if stack:
                stack[-1] += elapsed
            else:
                self.top_level_s += elapsed

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.top_level_s = 0.0

    def fired(self) -> set[str]:
        """Names of every span and counter that recorded anything."""
        return set(self.spans) | {name for name, value in self.counters.items() if value}

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every layer boundary; :meth:`restore` undoes it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        _import_all_repro_modules()
        for module_name, attr, span in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._function_wrapper(span, attr, original)
            bound_in = [
                module
                for name, module in list(sys.modules.items())
                if (name == "repro" or name.startswith("repro."))
                and module is not None
                and module.__dict__.get(attr) is original
            ]
            for module in bound_in:
                self._patch(module, attr, wrapper)
        for module_name, class_name, attr, span in METHOD_SPANS:
            owner = getattr(importlib.import_module(module_name), class_name)
            if attr not in owner.__dict__:
                raise AttributeError(f"{class_name} does not define {attr!r}")
            descriptor = owner.__dict__[attr]
            if isinstance(descriptor, staticmethod):
                replacement = staticmethod(
                    self._method_wrapper(span, class_name, attr, descriptor.__func__, False)
                )
            else:
                replacement = self._method_wrapper(span, class_name, attr, descriptor, True)
            self._patch(owner, attr, replacement)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        patch = (owner, attr, owner.__dict__[attr])
        self._patches.append(patch)
        self._installed.append(patch)
        self._wrappers[id(replacement)] = replacement
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def installed_sites(self) -> List[str]:
        """``module.attr`` / ``Class.attr`` of every patch ever installed."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in self._installed]

    def assert_restored(self) -> None:
        """Raise unless every patched name holds its original again.

        Checks each patched site by identity, then scans every loaded
        ``repro`` module for a wrapper that escaped into a namespace the
        tracer never patched (e.g. a lazy ``from x import f``).
        """
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._installed
            if owner.__dict__.get(attr) is not original
        ]
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(module.__dict__.items()):
                if id(value) in self._wrappers:
                    stale.append(f"{name}.{attr}")
        if stale:
            raise RuntimeError(f"tracer wrappers still bound: {', '.join(sorted(stale))}")

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _function_wrapper(self, span: str, attr: str, fn: Callable) -> Callable:
        tracer = self

        if attr == "partition_graph":

            def after(result: Any, args: tuple, kwargs: dict) -> None:
                tracer.count("dfg.partition.cut_signals", len(result.cut_signals))

        elif span == "analysis.monte_carlo":

            def after(result: Any, args: tuple, kwargs: dict) -> None:
                tracer.count("analysis.monte_carlo.samples", result.samples)

        else:
            after = None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.call(span, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _method_wrapper(
        self, span: str | None, class_name: str, attr: str, fn: Callable, bound: bool
    ) -> Callable:
        tracer = self
        before: Callable[[tuple, dict], Any] | None = None
        after: Callable[[Any, Any, tuple, dict], None] | None = None

        if attr == "successors":

            def before(args: tuple, kwargs: dict) -> None:
                tracer.count("dfg.successors.calls")

        elif attr == "optimize":

            def after(state: Any, result: Any, args: tuple, kwargs: dict) -> None:
                accepted = sum(
                    1
                    for record in result.iterations
                    if record.accepted
                    and (record.action.startswith("[") or record.action.startswith("move"))
                )
                tracer.count("optimize.accepted_moves", accepted)

        elif attr == "evaluate":

            def before(args: tuple, kwargs: dict) -> int:
                return args[0].evaluate_cache_hits

            def after(state: int, result: Any, args: tuple, kwargs: dict) -> None:
                tracer.count("optimize.evaluate.hits", args[0].evaluate_cache_hits - state)

        elif class_name == "IncrementalAnalyzer":

            def before(args: tuple, kwargs: dict) -> int:
                return args[0].stats.nodes_recomputed

            def after(state: int, result: Any, args: tuple, kwargs: dict) -> None:
                tracer.count(
                    "analysis.incremental.nodes_recomputed",
                    args[0].stats.nodes_recomputed - state,
                )

        elif attr == "price_moves":

            def before(args: tuple, kwargs: dict) -> int:
                moves = args[2] if len(args) > 2 else kwargs["moves"]
                tracer.count("analysis.batched.price_moves.moves", len(moves))
                return args[0].fallback_probes

            def after(state: int, result: Any, args: tuple, kwargs: dict) -> None:
                tracer.count("analysis.batched.fallback_probes", args[0].fallback_probes - state)

        elif class_name == "JobRunner":

            def before(args: tuple, kwargs: dict) -> None:
                runner = args[0]
                if runner.workers != 1 or runner.backend != "serial":
                    raise RuntimeError(
                        f"benchmark requires one serial worker, got workers={runner.workers} "
                        f"backend={runner.backend!r}"
                    )

            def after(state: Any, result: Any, args: tuple, kwargs: dict) -> None:
                tracer.count("jobs.run.jobs", len(result))
                tracer.count("jobs.run.retries", args[0].last_stats.retries)
                tracer.count("jobs.run.failed", sum(1 for item in result if not item.ok))

        elif class_name == "SearchCheckpoint":

            def after(state: Any, result: Any, args: tuple, kwargs: dict) -> None:
                tracer.count("jobs.checkpoint_save.bytes", os.path.getsize(args[0].path))

        offset = 1 if bound else 0
        per_method = attr == "analyze" and class_name == "DatapathNoiseAnalyzer"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            if span is None:
                result = fn(*args, **kwargs)
            else:
                name = span
                if per_method:
                    method = args[offset] if len(args) > offset else kwargs.get("method", "sna")
                    name = f"{span}.{str(method).lower()}"
                result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(state, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", attr)
        return wrapper


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module so that no binding site is missed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


#: Names recorded with :meth:`Tracer.count` that are reported per pass.
COUNTERS = frozenset(
    {
        "dfg.successors.calls",
        "analysis.incremental.nodes_recomputed",
        "analysis.batched.price_moves.moves",
        "analysis.batched.fallback_probes",
        "analysis.monte_carlo.samples",
        "dfg.partition.cut_signals",
        "jobs.run.jobs",
        "jobs.run.retries",
        "jobs.run.failed",
        "jobs.checkpoint_save.bytes",
    }
)


def _timed(span: str, *fields: str) -> List[Tuple[str, str, str]]:
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return [(f"{span}.{name}", units[name], "lower") for name in fields]


#: Every per-layer metric as ``(name, unit, better)``, grouped by layer.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    [
        # ranking
        *_timed("optimize.greedy", "self_s"),
        *_timed("optimize.anneal", "self_s"),
        *_timed("optimize.decomposed", "self_s"),
        *_timed("optimize.cost.price", "calls", "s"),
        *_timed("optimize.cost.reprice", "calls", "s"),
        *_timed("optimize.cost.affected_by", "calls", "s"),
        *_timed("optimize.predicted_noise_increase", "calls", "s"),
        *_timed("optimize.with_fractional_bits", "calls", "s"),
        ("dfg.successors.calls", "count", "lower"),
        ("optimize.accept_ratio", "ratio", "higher"),
        # candidate analysis
        *_timed("optimize.evaluate", "calls", "s"),
        ("optimize.evaluate.hit_ratio", "ratio", "higher"),
        *_timed("analysis.incremental.noise_power", "calls", "s"),
        ("analysis.incremental.nodes_recomputed", "count", "lower"),
        *_timed("analysis.batched.price_moves", "calls"),
        ("analysis.batched.price_moves.moves", "count", "lower"),
        *_timed("analysis.batched.price_moves", "s"),
        ("analysis.batched.fallback_probes", "count", "lower"),
        *_timed("analysis.affine_error_pdf", "calls", "s"),
        *_timed("histogram.combine_histograms", "calls", "s"),
        *_timed("optimize.pareto_front", "s"),
        # fresh analysis and Monte-Carlo
        *[
            metric
            for method in ("ia", "aa", "taylor", "sna", "pna")
            for metric in _timed(f"noisemodel.analyze.{method}", "calls", "s")
        ],
        *_timed("analysis.monte_carlo", "calls"),
        ("analysis.monte_carlo.samples", "count", "lower"),
        *_timed("analysis.monte_carlo", "s"),
        *_timed("dfg.simulate_fixed_point_batch", "calls", "s"),
        # problem set-up
        *_timed("dfg.infer_ranges", "calls", "s"),
        *_timed("dfg.unroll_sequential", "calls", "s"),
        *_timed("noisemodel.transfer_gains", "calls", "s"),
        # decomposition plumbing
        *_timed("dfg.partition_graph", "s"),
        *_timed("dfg.extract_partition", "s"),
        ("dfg.partition.cut_signals", "count", "lower"),
        *_timed("jobs.run", "calls"),
        ("jobs.run.jobs", "count", "lower"),
        ("jobs.run.retries", "count", "lower"),
        ("jobs.run.failed", "count", "lower"),
        *_timed("jobs.run", "self_s"),
        *_timed("jobs.checkpoint_save", "calls", "s"),
        ("jobs.checkpoint_save.bytes", "bytes", "lower"),
        # trace health
        ("trace.covered_share", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def layer_values(
    tracer: Tracer, passes: int, covered_share: float, overhead: float
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric, per traced pass over the workload.

    Layers a workload never reaches report 0.
    """
    spans, counters = tracer.spans, tracer.counters
    evaluations = spans.get("optimize.evaluate", (0.0, 0.0, 0.0))[0]
    derived = {
        "optimize.evaluate.hit_ratio": (
            counters.get("optimize.evaluate.hits", 0.0) / evaluations if evaluations else 0.0
        ),
        "optimize.accept_ratio": (
            counters.get("optimize.accepted_moves", 0.0) / evaluations if evaluations else 0.0
        ),
        "trace.covered_share": covered_share,
        "trace.overhead": overhead,
    }
    field_index = {"calls": 0, "s": 1, "self_s": 2}
    values: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name in COUNTERS:
            values[name] = counters.get(name, 0.0) / passes
        else:
            span, _, field = name.rpartition(".")
            values[name] = spans.get(span, (0.0, 0.0, 0.0))[field_index[field]] / passes
    return values
