"""The SNR-constrained word-length optimization problem.

An :class:`OptimizationProblem` bundles everything a strategy needs:

* the circuit (graph + input ranges) and the analysis output to protect;
* the constraint — an output SNR floor in dB (plus an optional safety
  margin the analytic model must clear);
* the objective — a :class:`~repro.optimize.cost.HardwareCostModel`;
* one noise-analysis method (``ia`` / ``aa`` / ``taylor`` / ``sna``)
  used to judge feasibility, with an analyzer-call counter so strategies
  can report how much analysis their search spent;
* precomputed per-node noise gains (one adjoint sweep over the unrolled
  graph), which let greedy strategies *rank* bit-shaving candidates
  without re-analyzing the whole graph for every candidate.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass
from typing import Dict, Mapping, NamedTuple, Sequence, Tuple

from repro.config import OptimizeConfig
from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.dfg.range_analysis import infer_ranges
from repro.dfg.unroll import base_name as _base_name
from repro.dfg.unroll import unroll_sequential
from repro.errors import (
    DivisionByZeroIntervalError,
    DomainError,
    NoiseModelError,
    OptimizationError,
    ReproError,
)
from repro.fixedpoint.format import FixedPointFormat
from repro.intervals.interval import Interval, RangeLike, coerce_interval, uniform_power
from repro.noisemodel.analyzer import (
    ANALYSIS_METHODS,
    PDF_METHODS,
    DatapathNoiseAnalyzer,
    propagation_algebra,
)
from repro.noisemodel.assignment import (
    WordLengthAssignment,
    covering_format,
    diff_formats,
    ensure_range_coverage,
)
from repro.noisemodel.gains import transfer_gains
from repro.optimize.cost import COST_TABLES, CostBreakdown, HardwareCostModel
from repro.utils.mathutils import integer_bits_for_range

__all__ = ["DesignEvaluation", "OptimizationProblem"]


#: Default of :meth:`OptimizationProblem.monte_carlo_snr`'s ``confidence``:
#: "use the problem's own level", distinct from an explicit ``None``
#: (mean-square).
_UNSET = object()


@dataclass(frozen=True, slots=True)
class DesignEvaluation:
    """One analyzed candidate: its cost, achieved SNR and feasibility."""

    assignment: WordLengthAssignment
    cost: float
    snr_db: float
    noise_power: float
    feasible: bool
    breakdown: CostBreakdown
    index: int  # analyzer-call number that produced this evaluation


class _Candidate(NamedTuple):
    """What :meth:`OptimizationProblem.evaluate` keeps of the last candidate."""

    formats: Dict[str, FixedPointFormat]  # a copy of its formats
    widened: Dict[str, FixedPointFormat]  # node -> format widening gave it, if changed
    items: tuple  # per-node items of its widened key(), sorted by name
    positions: Dict[str, int]  # node -> index in ``items``


class OptimizationProblem:
    """Circuit + SNR floor + cost model, ready for a strategy to search.

    Parameters
    ----------
    graph:
        The dataflow graph (combinational or sequential).
    input_ranges:
        Range of every external input.
    snr_floor_db:
        The constraint: achieved output SNR must be at least this.
        ``None`` falls back to ``config.snr_floor_db``.
    cost_model:
        Objective; defaults to :class:`HardwareCostModel` over
        ``config.cost_table``.
    config:
        An :class:`~repro.config.OptimizeConfig` carrying the analysis
        method, search-space box constraints, analyzer knobs and the
        candidate-evaluation engine.
    """

    def __init__(
        self,
        graph: DFG,
        input_ranges: Mapping[str, RangeLike],
        snr_floor_db: float | None = None,
        cost_model: HardwareCostModel | None = None,
        config: OptimizeConfig | None = None,
        output: str | None = None,
        name: str | None = None,
    ) -> None:
        if config is None:
            config = OptimizeConfig()
        if snr_floor_db is not None:
            config = config.replace(snr_floor_db=float(snr_floor_db))
        if str(config.method).lower() not in ANALYSIS_METHODS:
            raise OptimizationError(
                f"unknown analysis method {config.method!r}; choose from {ANALYSIS_METHODS}"
            )
        if str(config.method).lower() != config.method:
            config = config.replace(method=str(config.method).lower())
        #: The resolved :class:`OptimizeConfig` this problem searches under.
        self.config = config
        self.graph = graph
        self.input_ranges = {str(k): coerce_interval(v) for k, v in input_ranges.items()}
        missing = [n for n in graph.inputs() if n not in self.input_ranges]
        if missing:
            raise OptimizationError(f"missing input ranges for: {', '.join(sorted(missing))}")
        self.snr_floor_db = float(config.snr_floor_db)
        if cost_model is None:
            table = COST_TABLES.get(config.cost_table)
            if table is None:
                raise OptimizationError(
                    f"unknown cost table {config.cost_table!r}; available: "
                    f"{', '.join(COST_TABLES)}"
                )
            cost_model = HardwareCostModel(table)
        self.cost_model = cost_model
        self.method = config.method
        #: Confidence level of the SNR constraint (see
        #: :attr:`OptimizeConfig.confidence`): ``None`` = mean-square
        #: power, ``1.0`` = worst-case peak, fractional = the squared
        #: confidence-quantile of ``|error|``.
        self.confidence = config.confidence
        if (
            self.confidence is not None
            and self.confidence < 1.0
            and config.method not in PDF_METHODS
        ):
            raise OptimizationError(
                f"confidence={self.confidence!r} needs a PDF-producing analysis "
                f"method ({', '.join(PDF_METHODS)}); method {config.method!r} only "
                "supports confidence=1.0 (worst case) or confidence=None "
                "(mean-square power)"
            )
        self.horizon = int(config.horizon)
        self.bins = int(config.bins)
        self.margin_db = float(config.margin_db)
        self.min_fractional_bits = int(config.min_fractional_bits)
        self.max_word_length = int(config.max_word_length)
        self.quantization = config.quantization
        self.overflow = config.overflow
        self.name = name or graph.name

        range_result = infer_ranges(graph, self.input_ranges)
        if not range_result.converged:
            raise OptimizationError(
                f"range analysis of {graph.name!r} did not converge after "
                f"{range_result.iterations} iterations (unstable feedback?)"
            )
        self.ranges: Dict[str, Interval] = range_result.ranges

        outputs = graph.outputs()
        if not outputs:
            raise OptimizationError(f"graph {graph.name!r} has no outputs")
        if output is None:
            output = outputs[0]
        elif output not in outputs:
            raise OptimizationError(f"unknown output {output!r}; graph outputs: {outputs}")
        self.output = output
        self.signal_power = uniform_power(self.ranges[output])

        #: Per-node minimum integer bits (range-derived, fixed during search).
        self.integer_bits: Dict[str, int] = {
            node.name: integer_bits_for_range(
                self.ranges[node.name].lo, self.ranges[node.name].hi, signed=True
            )
            for node in graph
            if node.op is not OpType.OUTPUT
        }
        #: Nodes whose fractional precision a strategy may change.  DELAY
        #: registers are excluded: they forward already-quantized values,
        #: so their nominal format neither injects noise nor sizes hardware.
        self.tunable: list[str] = [
            node.name
            for node in graph
            if node.op not in (OpType.OUTPUT, OpType.DELAY)
        ]

        #: Analyzer invocations so far (strategies report deltas of this).
        self.analyzer_calls = 0
        #: Memoized :meth:`evaluate` results served without an analyzer call.
        self.evaluate_cache_hits = 0
        #: Wall time spent inside noise analysis (evaluations + baseline
        #: commits), excluding costing/widening/caching — the optimizer
        #: "inner loop" number the perf benchmarks report.
        self.analysis_time_s = 0.0
        #: CPU time (``time.process_time``) over the same region as
        #: :attr:`analysis_time_s` — immune to scheduling noise on
        #: shared CI runners, so smoke-speedup gates prefer it.
        self.analysis_cpu_s = 0.0
        #: When set to a list, evaluate() appends every (widened) assignment
        #: it actually analyzes — benchmarks replay these through other
        #: evaluators for apples-to-apples timing.
        self.analysis_log: list | None = None
        #: Candidate-evaluation engine (``fresh`` / ``incremental`` /
        #: ``batched``); ``batched`` keeps :meth:`evaluate` on the
        #: incremental engine and additionally exposes vectorized batch
        #: pricing to strategies through :meth:`price_moves`.
        self.engine = config.engine
        #: Whether :meth:`evaluate` routes through the incremental engine
        #: (back-compat mirror of ``engine != "fresh"``).
        self.use_incremental = config.engine != "fresh"
        #: Whether a broken engine degrades to the next-slower one
        #: (``batched -> incremental -> fresh``) instead of raising.
        self.engine_fallback = bool(getattr(config, "engine_fallback", True))
        #: Structured :class:`~repro.analysis.degradation.DegradationEvent`
        #: log of every fallback this problem has taken.
        self.degradations: list = []
        #: Default worker count of :meth:`monte_carlo_snr`.  ``None``
        #: keeps the legacy single-stream validator; any integer selects
        #: the sharded validator, whose numbers are identical for every
        #: worker count (``1`` shards serially, ``N`` in processes).
        self.mc_workers = config.mc_workers
        self._uniform_cache: Dict[int, DesignEvaluation] = {}
        self._eval_cache: Dict[tuple, DesignEvaluation] = {}
        # The last candidate evaluate() widened; replaced whole, never
        # mutated, so rescoped() clones may share it.
        self._last_candidate: _Candidate | None = None
        self._incremental = None  # lazily-built IncrementalAnalyzer
        self._batched = None  # lazily-built BatchedAnalyzer
        self._gain_sq: Dict[str, float] | None = None
        self._gain_abs: Dict[str, float] | None = None

    # ------------------------------------------------------------------ #
    # candidate construction
    # ------------------------------------------------------------------ #
    @property
    def min_word_length(self) -> int:
        """Smallest uniform word length whose integer parts all fit."""
        return max(self.integer_bits.values(), default=1)

    def uniform(self, word_length: int) -> WordLengthAssignment:
        """Coverage-widened uniform assignment at ``word_length`` bits."""
        assignment = WordLengthAssignment.uniform(
            self.graph,
            word_length,
            self.ranges,
            quantization=self.quantization,
            overflow=self.overflow,
        )
        return ensure_range_coverage(assignment, self.ranges)

    def max_fractional_bits(self, node: str) -> int:
        """Largest fractional precision of ``node`` under the word cap."""
        return self.max_word_length - self.integer_bits.get(node, 1)

    def evaluate_uniform(self, word_length: int) -> DesignEvaluation:
        """Cached :meth:`evaluate` of the uniform design at ``word_length``.

        Every strategy climbs the same uniform ladder to find its
        baseline; on a shared problem the cache means only the first
        strategy pays the analyzer for it.
        """
        cached = self._uniform_cache.get(word_length)
        if cached is None:
            cached = self.evaluate(self.uniform(word_length))
            self._uniform_cache[word_length] = cached
        return cached

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, assignment: WordLengthAssignment) -> DesignEvaluation:
        """Analyze one candidate and price it.

        The assignment is coverage-widened first: shaving fractional bits
        *lowers* a format's ``max_value`` (``2**(i-1) - 2**-f``), so a
        node whose range ends within one old quantization step of the
        power-of-two boundary can start clipping after a shave — which
        would break the saturation-free premise of the error models.  The
        returned evaluation carries (and prices) the widened assignment;
        strategies must continue from ``evaluation.assignment``.

        **Caching contract.**  Evaluations are memoized on the canonical
        :meth:`WordLengthAssignment.key` of the *widened* assignment: two
        candidates that widen to the same design return the same (cached)
        evaluation, cost nothing, and bump :attr:`evaluate_cache_hits`
        instead of :attr:`analyzer_calls` — annealing never re-prices a
        revisited design.  Cache misses run through a long-lived
        :class:`~repro.analysis.incremental.IncrementalAnalyzer` (unless
        the problem runs under ``OptimizeConfig(engine="fresh")``), which
        re-propagates only the downstream cone of the nodes whose formats
        changed since the last analyzed candidate; greedy single-node
        probes therefore cost O(cone) instead of O(graph).  The cache is
        sound because an evaluation depends only on the assignment and on
        problem-level constants (graph, ranges, method, floor, cost
        model); mutate any of those and the problem must be rebuilt, not
        reused.

        Widening and the key are derived from a diff against the previous
        candidate: only the nodes whose formats changed are re-checked
        against their ranges and re-keyed.  The result equals
        ``ensure_range_coverage`` and its ``key()``, and is ``assignment``
        itself when no format needs widening.
        """
        assignment, key = self._widen(assignment)
        cached = self._eval_cache.get(key)
        if cached is not None:
            self.evaluate_cache_hits += 1
            return cached
        if self.analysis_log is not None:
            self.analysis_log.append(assignment)
        started = time.perf_counter()
        started_cpu = time.process_time()
        noise_power = self._analyze(assignment)
        self.analysis_time_s += time.perf_counter() - started
        self.analysis_cpu_s += time.process_time() - started_cpu
        self.analyzer_calls += 1
        snr_db = self._snr_db(noise_power)
        breakdown = self.cost_model.price(self.graph, assignment)
        evaluation = DesignEvaluation(
            assignment=assignment,
            cost=breakdown.total,
            snr_db=snr_db,
            noise_power=noise_power,
            feasible=snr_db >= self.snr_floor_db + self.margin_db,
            breakdown=breakdown,
            index=self.analyzer_calls,
        )
        self._eval_cache[key] = evaluation
        return evaluation

    def _widen(self, assignment: WordLengthAssignment) -> Tuple[WordLengthAssignment, tuple]:
        """Coverage-widened ``assignment`` and its :meth:`~WordLengthAssignment.key`."""
        formats = assignment.formats
        last = self._last_candidate
        changed = None
        if last is not None and len(formats) == len(last.formats):
            changed = diff_formats(formats, last.formats)
            widened, items, positions = last.widened, last.items, last.positions
            if any(name not in positions for name in changed):
                changed = None  # a different set of nodes
        if changed is None:
            # First candidate, or a different set of nodes: every node changed.
            changed = list(formats)
            widened, items = {}, (None,) * len(formats)
            positions = {name: i for i, name in enumerate(sorted(formats))}
        if changed:
            widened, items = dict(widened), list(items)
            for name in changed:
                fmt = formats[name]
                interval = self.ranges.get(name)
                cover = fmt if interval is None else covering_format(fmt, interval, name)
                if cover is fmt:
                    widened.pop(name, None)
                else:
                    widened[name] = cover
                item = (name, cover.integer_bits, cover.fractional_bits, cover.signed)
                items[positions[name]] = item
            items = tuple(items)
        self._last_candidate = _Candidate(dict(formats), widened, items, positions)
        key = (assignment.quantization.value, assignment.overflow.value, items)
        if not widened:
            return assignment, key
        formats = {**formats, **widened}
        return WordLengthAssignment(formats, assignment.quantization, assignment.overflow), key

    def _snr_db(self, noise_power: float) -> float:
        if noise_power <= 0.0:
            return float("inf")
        if math.isinf(noise_power) or self.signal_power <= 0.0:
            return float("-inf")
        return 10.0 * math.log10(self.signal_power / noise_power)

    def _analyze(self, assignment: WordLengthAssignment) -> float:
        """Output noise power of one candidate (incremental when enabled).

        A candidate whose errors grow past a nonlinear operator's domain
        premise (``sqrt``/``log`` enclosures crossing their boundary, a
        divisor enclosure swallowing zero) cannot be analyzed soundly;
        it is reported as infinite noise power — i.e. infeasible — so
        the search simply backs away from it instead of crashing.
        """
        try:
            return self._analyze_unchecked(assignment)
        except (DomainError, DivisionByZeroIntervalError):
            return float("inf")

    def _analyze_unchecked(self, assignment: WordLengthAssignment) -> float:
        if not self.use_incremental:
            return self._analyze_fresh(assignment)
        try:
            if self._incremental is None:
                # Local import: repro.analysis imports repro.optimize at module
                # scope (pipeline wiring); importing back lazily avoids the cycle.
                from repro.analysis.incremental import IncrementalAnalyzer

                self._incremental = IncrementalAnalyzer(
                    self.graph,
                    assignment,
                    self.input_ranges,
                    horizon=self.horizon,
                    bins=self.bins,
                )
            return self._incremental.noise_power(
                assignment, self.method, output=self.output, confidence=self.confidence
            )
        except (DomainError, DivisionByZeroIntervalError):
            raise  # candidate-level infeasibility, judged by _analyze
        except ReproError as exc:
            if not self.engine_fallback:
                raise
            self._degrade("incremental", "fresh", exc)
            self._incremental = None
            return self._analyze_fresh(assignment)

    def _analyze_fresh(self, assignment: WordLengthAssignment) -> float:
        analyzer = DatapathNoiseAnalyzer(
            self.graph,
            assignment,
            self.input_ranges,
            horizon=self.horizon,
            bins=self.bins,
        )
        if self.confidence is None:
            report = analyzer.analyze(self.method, output=self.output, contributions=False)
            return report.noise_power
        target = analyzer._resolve_output(self.output)
        _values, errors, _context = analyzer._propagate(
            propagation_algebra(self.method), target
        )
        return analyzer.effective_noise_power(self.method, errors[target], self.confidence)

    def _degrade(self, stage: str, to_engine: str, exc: Exception) -> None:
        """Record one engine fallback and switch the problem onto it."""
        # Local import: repro.analysis imports repro.optimize at module
        # scope (pipeline wiring); importing back lazily avoids the cycle.
        from repro.analysis.degradation import DegradationEvent

        self.degradations.append(
            DegradationEvent(
                stage=stage,
                from_engine=self.engine,
                to_engine=to_engine,
                reason=f"{type(exc).__name__}: {exc}",
            )
        )
        self.engine = to_engine
        self.use_incremental = to_engine != "fresh"

    def notify_accepted(self, assignment: WordLengthAssignment) -> None:
        """Tell the evaluator that ``assignment`` is the search's new current design.

        Strategies call this when they accept a move (passing the widened
        ``evaluation.assignment``).  The incremental engine then commits
        the design as its re-propagation baseline, so every subsequent
        probe pays only the cone of its own perturbation instead of
        (probe + drift-since-baseline).  Purely a performance hint —
        results are identical without it.
        """
        if self._incremental is not None:
            started = time.perf_counter()
            started_cpu = time.process_time()
            self._incremental.commit(assignment)
            self.analysis_time_s += time.perf_counter() - started
            self.analysis_cpu_s += time.process_time() - started_cpu

    # ------------------------------------------------------------------ #
    # batched candidate pricing
    # ------------------------------------------------------------------ #
    def batched_engine(self):
        """The problem's lazily-built, shared :class:`BatchedAnalyzer`.

        The engine compiles the (unrolled) graph into a vectorized NumPy
        program once; afterwards :meth:`price_moves` prices whole batches
        of candidate shaves in one array pass.  Available regardless of
        :attr:`engine` — strategies consult :attr:`engine` to decide
        whether to route their inner loops through it.
        """
        if self._batched is None:
            # Local import: repro.analysis imports repro.optimize at module
            # scope (pipeline wiring); importing back lazily avoids the cycle.
            from repro.analysis.batched import BatchedAnalyzer

            try:
                self._batched = BatchedAnalyzer(
                    self.graph,
                    self.uniform(self.min_word_length),
                    self.input_ranges,
                    horizon=self.horizon,
                    bins=self.bins,
                    method=self.method,
                    ranges=self.ranges,
                )
            except ReproError as exc:
                if not self.engine_fallback:
                    raise
                if self.engine == "batched":
                    self._degrade("batched-compile", "incremental", exc)
                if isinstance(exc, NoiseModelError):
                    raise
                raise NoiseModelError(
                    f"batched engine unavailable for {self.name!r}: {exc}"
                ) from exc
        return self._batched

    def price_moves(
        self,
        assignment: WordLengthAssignment,
        moves: Sequence[Tuple[str, int]],
    ):
        """Noise power of every ``(node, new_fractional_bits)`` move at once.

        Lane *k* carries exactly the noise power :meth:`evaluate` would
        analyze for ``assignment.with_fractional_bits(*moves[k])`` — the
        per-move coverage widening included — with domain-violating or
        uncoverable lanes priced at ``inf``.  ``assignment`` must already
        be coverage-widened (every ``DesignEvaluation.assignment`` is).
        One vectorized pass replaces ``len(moves)`` analyzer probes; no
        caches or counters are touched.
        """
        engine = self.batched_engine()  # compile failures degrade in there
        started = time.perf_counter()
        started_cpu = time.process_time()
        try:
            noise = engine.price_moves(
                assignment,
                moves,
                method=self.method,
                output=self.output,
                confidence=self.confidence,
            )
        except ReproError as exc:
            if not self.engine_fallback:
                raise
            if self.engine == "batched":
                self._degrade("batched-price", "incremental", exc)
            if isinstance(exc, NoiseModelError):
                raise
            raise NoiseModelError(
                f"batched pricing failed for {self.name!r}: {exc}"
            ) from exc
        finally:
            self.analysis_time_s += time.perf_counter() - started
            self.analysis_cpu_s += time.process_time() - started_cpu
        return noise

    @property
    def batched_calls(self) -> int:
        """Vectorized sweeps priced by the batched engine (0 if unused)."""
        return self._batched.batched_calls if self._batched is not None else 0

    @property
    def fallback_probes(self) -> int:
        """Per-candidate probes the batched engine routed incrementally.

        Non-``"ia"`` methods have no compiled vector program, so the
        batched engine answers them one candidate at a time through the
        incremental analyzer; this counts those probes.
        """
        return self._batched.fallback_probes if self._batched is not None else 0

    # ------------------------------------------------------------------ #
    # re-scoping and Pareto sweeps
    # ------------------------------------------------------------------ #
    def rescoped(
        self, snr_floor_db: float, margin_db: float | None = None
    ) -> "OptimizationProblem":
        """A warm-started clone of this problem under a different SNR floor.

        The clone shares every floor-independent artifact — ranges, gains,
        the incremental and batched engines, and the evaluation cache
        (with each entry's ``feasible`` verdict re-judged against the new
        floor) — so sweeping a Pareto front pays the analyzer only for
        designs no earlier floor visited.  The clone's ``analysis_log``
        starts disabled regardless of this problem's.
        """
        clone = object.__new__(OptimizationProblem)
        clone.__dict__.update(self.__dict__)
        clone.snr_floor_db = float(snr_floor_db)
        if margin_db is not None:
            clone.margin_db = float(margin_db)
        clone.config = self.config.replace(
            snr_floor_db=clone.snr_floor_db, margin_db=clone.margin_db
        )
        clone.analysis_log = None
        threshold = clone.snr_floor_db + clone.margin_db
        clone._eval_cache = {
            key: dataclasses.replace(ev, feasible=ev.snr_db >= threshold)
            for key, ev in self._eval_cache.items()
        }
        clone._uniform_cache = {
            w: clone._eval_cache[ev.assignment.key()]
            for w, ev in self._uniform_cache.items()
        }
        return clone

    def pareto(
        self,
        floors: Sequence[float],
        strategy: str | None = None,
        **strategy_options: object,
    ):
        """Cost-vs-SNR Pareto front over a list of SNR floors in one call.

        See :func:`repro.optimize.pareto.pareto_front` — floors are swept
        tightest-first with warm-started state so the resulting curve is
        monotone by construction.
        """
        from repro.optimize.pareto import pareto_front

        return pareto_front(self, floors, strategy=strategy, **strategy_options)

    def monte_carlo_snr(
        self,
        assignment: WordLengthAssignment,
        samples: int = 20_000,
        seed: int | None = 0,
        workers: int | None = None,
        confidence: "float | None | object" = _UNSET,
    ) -> float:
        """Measured SNR of a design under the bit-true Monte-Carlo simulator.

        ``workers`` (default: the problem's ``mc_workers``) selects the
        sharded validator: the sample budget is split into fixed chunks
        with per-chunk derived seeds, so the measured SNR is identical
        whether the chunks run on one worker or many.  ``None`` keeps
        the legacy single-stream draw; ``seed=None`` with workers set
        still shards (and still parallelizes) from a fresh OS-entropy
        base seed.

        ``confidence`` defaults to the problem's own level so validation
        judges the same functional the search optimized: the sampled
        noise measure becomes the squared empirical
        ``confidence``-quantile of ``|error|`` (``1.0`` = the squared
        peak error).  Pass ``confidence=None`` explicitly to force the
        legacy mean-square reading.
        """
        # Local import: repro.analysis imports repro.optimize at module
        # scope (pipeline wiring); importing back lazily avoids the cycle.
        from repro.analysis.montecarlo import monte_carlo_error, monte_carlo_error_sharded

        if workers is None:
            workers = self.mc_workers
        if workers is not None and seed is None:
            # Entropy requested alongside sharding: derive the chunk
            # seeds from a random base instead of dropping the workers.
            seed = int.from_bytes(os.urandom(4), "big")
        if workers is not None:
            result = monte_carlo_error_sharded(
                self.graph,
                assignment,
                self.input_ranges,
                samples=samples,
                steps=self.horizon,
                output=self.output,
                seed=seed,
                workers=workers,
            )
        else:
            result = monte_carlo_error(
                self.graph,
                assignment,
                self.input_ranges,
                samples=samples,
                steps=self.horizon,
                output=self.output,
                rng=seed,
            )
        if confidence is _UNSET:
            confidence = self.confidence
        if confidence is None:
            return self._snr_db(result.noise_power)
        import numpy as np

        if confidence >= 1.0:
            level = float(np.max(np.abs(result.errors)))
        else:
            level = float(np.quantile(np.abs(result.errors), confidence))
        return self._snr_db(level * level)

    # ------------------------------------------------------------------ #
    # gain-based candidate ranking (no analyzer calls)
    # ------------------------------------------------------------------ #
    def _compute_gains(self) -> None:
        if self.graph.is_sequential:
            unrolled = unroll_sequential(self.graph, self.horizon)
            work = unrolled.graph
            target = unrolled.final_instance(self.output)
            inst_ranges = {
                inst: self.ranges.get(_base_name(inst), Interval.point(0.0))
                for inst in work.names()
            }
        else:
            work = self.graph
            target = self.output
            inst_ranges = self.ranges
        profile = transfer_gains(work, inst_ranges, output=target)
        gain_sq: Dict[str, float] = {}
        gain_abs: Dict[str, float] = {}
        for inst in work.names():
            base = _base_name(inst)
            magnitude = profile.magnitude_of(inst)
            gain_sq[base] = gain_sq.get(base, 0.0) + magnitude * magnitude
            gain_abs[base] = gain_abs.get(base, 0.0) + magnitude
        self._gain_sq = gain_sq
        self._gain_abs = gain_abs

    def noise_gain(self, node: str) -> float:
        """Sum over time instances of the squared output gain of ``node``."""
        if self._gain_sq is None:
            self._compute_gains()
        assert self._gain_sq is not None
        return self._gain_sq.get(node, 0.0)

    def predicted_noise_increase(
        self, assignment: WordLengthAssignment, node: str, new_fractional_bits: int
    ) -> float:
        """Cheap estimate of the output noise-power increase of one shave.

        Uses the precomputed adjoint gains: for a rounding source the
        per-instance variance is ``q^2/12``, so the aggregate delta is
        ``sum(g^2) * (q_new^2 - q_old^2)/12``.  Constants inject a
        *deterministic* residue instead, estimated through the absolute
        gain.  Only a ranking heuristic — acceptance is always decided by
        a real analyzer call.
        """
        fmt = assignment.format_of(node)
        node_obj = self.graph.node(node)
        if node_obj.op is OpType.CONST:
            from repro.fixedpoint.quantize import quantize

            value = float(node_obj.value)
            old_res = quantize(value, fmt, assignment.quantization, assignment.overflow) - value
            new_fmt = fmt.with_fractional_bits(new_fractional_bits)
            new_res = quantize(value, new_fmt, assignment.quantization, assignment.overflow) - value
            if self._gain_abs is None:
                self._compute_gains()
            assert self._gain_abs is not None
            gain = self._gain_abs.get(node, 0.0)
            return max(0.0, (gain * new_res) ** 2 - (gain * old_res) ** 2)
        q_old = 2.0 ** (-fmt.fractional_bits)
        q_new = 2.0 ** (-new_fractional_bits)
        return self.noise_gain(node) * (q_new * q_new - q_old * q_old) / 12.0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_circuit(
        cls,
        circuit: object,
        snr_floor_db: float,
        input_ranges: Mapping[str, RangeLike] | None = None,
        **options: object,
    ) -> "OptimizationProblem":
        """Build a problem from a duck-typed benchmark circuit or a DFG."""
        if isinstance(circuit, DFG):
            graph = circuit
        elif hasattr(circuit, "graph") and hasattr(circuit, "input_ranges"):
            graph = circuit.graph
            if input_ranges is None:
                input_ranges = circuit.input_ranges
            options.setdefault("name", getattr(circuit, "name", None))
            options.setdefault("output", getattr(circuit, "output", None))
        else:
            raise OptimizationError(
                f"cannot optimize {type(circuit).__name__}; pass a DFG or a benchmark circuit"
            )
        if input_ranges is None:
            raise OptimizationError("input_ranges is required (none supplied by the circuit)")
        return cls(graph, input_ranges, snr_floor_db, **options)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OptimizationProblem({self.name!r}, method={self.method!r}, "
            f"floor={self.snr_floor_db:.1f}dB, nodes={len(self.tunable)} tunable)"
        )
