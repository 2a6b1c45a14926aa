"""Word-length search strategies: uniform sweep, greedy descent, annealing.

All strategies answer the same question — the cheapest per-node
word-length assignment whose analyzed output SNR clears the floor — and
return the same :class:`~repro.optimize.result.OptimizationResult`:

* :class:`UniformSweepOptimizer` is the paper's baseline: one shared word
  length everywhere, increased until feasible.  Because hardware cost is
  monotone in word length, the first feasible sweep point is also the
  cheapest feasible uniform design.
* :class:`GreedyBitStealingOptimizer` starts from a feasible uniform
  design (optionally with a little headroom above the cheapest one) and
  repeatedly shaves the fractional bit with the best cost-saved /
  noise-added ratio.  Candidates are *ranked* with the problem's
  precomputed adjoint noise gains — no analyzer call per candidate — and
  only the chosen shave is re-analyzed; an infeasible shave blocks that
  node for the rest of the descent (noise only grows, so a failed shave
  can never become feasible later).  Each shave is scored once per
  descent; an accepted shave re-scores only the candidates whose score
  reads a format it changed (:class:`_ShaveRanking`).
* :class:`SimulatedAnnealingOptimizer` performs Metropolis moves (+-1
  fractional bit on a random node) over an energy mixing cost with an
  SNR-deficit penalty, keeping the best feasible design it visits.

When the problem's :class:`~repro.config.OptimizeConfig` selects the
``batched`` engine, the expensive inner loops change shape without
changing their contracts: greedy prices *every* unblocked one-bit shave
in a single vectorized pass (:meth:`OptimizationProblem.price_moves`)
and ranks by **exact** noise added instead of the adjoint-gain estimate.
Accepted shaves are always confirmed through
:meth:`OptimizationProblem.evaluate`, so traces and results stay grounded
in the same evaluator as the scalar engines; any batched setup failure
falls back to the incremental path.  Annealing has one path for every
engine: each proposal goes through :meth:`OptimizationProblem.evaluate`.

Every strategy also accepts a ``warm_start`` assignment — Pareto sweeps
hand the previous floor's solution to the next one so most of the
descent is already paid for.
"""

from __future__ import annotations

import abc
import heapq
import math
import time
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import NoiseModelError, OptimizationError
from repro.jobs.checkpoint import SearchCheckpoint
from repro.noisemodel.assignment import WordLengthAssignment, diff_formats
from repro.optimize.problem import DesignEvaluation, OptimizationProblem
from repro.optimize.result import IterationRecord, OptimizationResult

__all__ = [
    "WordLengthOptimizer",
    "UniformSweepOptimizer",
    "GreedyBitStealingOptimizer",
    "SimulatedAnnealingOptimizer",
    "OPTIMIZERS",
    "get_optimizer",
]


def _record(
    trace: List[IterationRecord],
    problem: OptimizationProblem,
    action: str,
    evaluation: DesignEvaluation,
    accepted: bool,
) -> None:
    trace.append(
        IterationRecord(
            index=len(trace),
            action=action,
            cost=evaluation.cost,
            snr_db=evaluation.snr_db,
            feasible=evaluation.feasible,
            accepted=accepted,
            analyzer_calls=problem.analyzer_calls,
            cache_hits=problem.evaluate_cache_hits,
        )
    )


def _sweep_uniform(
    problem: OptimizationProblem, trace: List[IterationRecord]
) -> Tuple[DesignEvaluation | None, int | None, DesignEvaluation | None]:
    """Scan uniform word lengths upward; first feasible one is cheapest.

    Returns ``(feasible_eval, word_length, last_eval)``; the first two are
    ``None`` when no uniform design up to ``max_word_length`` is feasible.
    """
    last: DesignEvaluation | None = None
    for word_length in range(problem.min_word_length, problem.max_word_length + 1):
        try:
            evaluation = problem.evaluate_uniform(word_length)
        except NoiseModelError:
            continue
        last = evaluation
        _record(trace, problem, f"uniform W={word_length}", evaluation, evaluation.feasible)
        if evaluation.feasible:
            return evaluation, word_length, evaluation
    return None, None, last


def _evaluate_warm_start(
    problem: OptimizationProblem,
    warm_start: WordLengthAssignment | None,
    trace: List[IterationRecord],
) -> DesignEvaluation | None:
    """Evaluate a Pareto warm start; ``None`` when absent or infeasible."""
    if warm_start is None:
        return None
    try:
        evaluation = problem.evaluate(warm_start)
    except NoiseModelError:
        return None
    _record(trace, problem, "warm start", evaluation, evaluation.feasible)
    return evaluation if evaluation.feasible else None


class WordLengthOptimizer(abc.ABC):
    """Common interface: ``optimize(problem) -> OptimizationResult``."""

    name: str = "abstract"

    def optimize(
        self,
        problem: OptimizationProblem,
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> OptimizationResult:
        """Run the search, timing it and accounting analyzer calls.

        ``warm_start`` seeds the search with a known design (typically
        the previous point of a Pareto sweep); a strategy uses it when
        it is feasible under this problem's floor and never returns a
        design worse than the best feasible one it saw.

        ``checkpoint`` (a :class:`~repro.jobs.checkpoint.SearchCheckpoint`)
        makes the search crash-safe: strategies that support it persist
        their state as they go (greedy after every accepted shave,
        annealing periodically), an interrupted run resumes from the
        snapshot instead of from scratch, and a run that completes
        clears the snapshot.  The resumed *design* is identical to the
        uninterrupted one; trace lengths and analyzer-call counts may
        differ (in-memory caches do not survive a crash).
        """
        trace: List[IterationRecord] = []
        calls_before = problem.analyzer_calls
        hits_before = problem.evaluate_cache_hits
        started = time.perf_counter()
        best, baseline_cost, baseline_w = self._search(problem, trace, warm_start, checkpoint)
        runtime = time.perf_counter() - started
        if checkpoint is not None:
            checkpoint.clear()
        extra = {"evaluate_cache_hits": float(problem.evaluate_cache_hits - hits_before)}
        if best is None:
            return OptimizationResult(
                strategy=self.name,
                method=problem.method,
                circuit=problem.name,
                snr_floor_db=problem.snr_floor_db,
                margin_db=problem.margin_db,
                assignment=None,
                cost=float("inf"),
                snr_db=float("-inf"),
                feasible=False,
                baseline_cost=baseline_cost,
                baseline_word_length=baseline_w,
                iterations=trace,
                analyzer_calls=problem.analyzer_calls - calls_before,
                runtime_s=runtime,
                extra=extra,
            )
        return OptimizationResult(
            strategy=self.name,
            method=problem.method,
            circuit=problem.name,
            snr_floor_db=problem.snr_floor_db,
            margin_db=problem.margin_db,
            assignment=best.assignment,
            cost=best.cost,
            snr_db=best.snr_db,
            feasible=best.feasible,
            baseline_cost=baseline_cost,
            baseline_word_length=baseline_w,
            iterations=trace,
            analyzer_calls=problem.analyzer_calls - calls_before,
            runtime_s=runtime,
            extra=extra,
        )

    @abc.abstractmethod
    def _search(
        self,
        problem: OptimizationProblem,
        trace: List[IterationRecord],
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> Tuple[DesignEvaluation | None, float | None, int | None]:
        """Return ``(best_eval, baseline_cost, baseline_word_length)``."""


class UniformSweepOptimizer(WordLengthOptimizer):
    """The paper's baseline: one word length everywhere, swept upward."""

    name = "uniform"

    def _search(
        self,
        problem: OptimizationProblem,
        trace: List[IterationRecord],
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> Tuple[DesignEvaluation | None, float | None, int | None]:
        # warm_start intentionally unused: the sweep is already minimal
        # over its (one-dimensional) search space.  checkpoint likewise:
        # the sweep re-derives in seconds, there is no state worth saving.
        evaluation, word_length, _last = _sweep_uniform(problem, trace)
        if evaluation is None:
            return None, None, None
        return evaluation, evaluation.cost, word_length


class _ShaveRanking:
    """The one-bit shaves of one greedy descent, ranked by cost saved per noise added.

    A shave of candidate ``Y`` scores ``saved / max(added, 1e-30)``:
    ``saved`` is the cost :meth:`HardwareCostModel.reprice` says it
    saves over :meth:`HardwareCostModel.affected_by` of ``Y``, ``added``
    the noise :meth:`OptimizationProblem.predicted_noise_increase`
    predicts.  That score reads only a few formats: ``Y``'s own, and the
    ones :meth:`HardwareCostModel.reads` names for every node whose price
    it moves.
    A reverse index, built once, maps each format to the candidates
    reading it, so an accepted shave re-scores only the readers of the
    formats it changed (coverage widening can change more than the
    shaved node), and a rejected one re-scores nothing.

    The best shave comes off a lazy max-heap keyed ``(-score, index in
    problem.tunable)`` — the highest score, the first tunable node on
    ties.  A re-score bumps the candidate's version; entries with an old
    version, or of a node in ``blocked``, are dropped when they surface.
    The heap (and so every ``added``) is built on the first :meth:`best`
    call only; the batched engine reads just the savings (:meth:`moves`).
    """

    def __init__(
        self,
        problem: OptimizationProblem,
        assignment: WordLengthAssignment,
        blocked: set[str],
    ) -> None:
        self.problem = problem
        self.assignment = assignment
        #: Nodes whose shave is rejected for the rest of the descent
        #: (shared with the caller, who adds to it).
        self.blocked = blocked
        graph, cost_model = problem.graph, problem.cost_model
        self._tunable = problem.tunable
        self._index = {node: index for index, node in enumerate(self._tunable)}
        self._affected = {node: cost_model.affected_by(graph, node) for node in self._tunable}
        self._readers: Dict[str, List[str]] = {}
        for node in self._tunable:
            reads = {node: None}
            for priced in self._affected[node]:
                reads.update(dict.fromkeys(cost_model.reads(graph, priced)))
            for name in reads:
                self._readers.setdefault(name, []).append(node)
        self._version = dict.fromkeys(self._tunable, 0)
        self._moves: Dict[str, Tuple[int, float]] = {}  # node -> (new_frac, saved)
        self._heap: List[Tuple[float, int, int]] | None = None
        for node in self._tunable:
            if node not in blocked:
                self._score(node)

    def dependents(self, names: Iterable[str]) -> List[str]:
        """Candidates whose score reads the format of any of ``names``."""
        return list(
            dict.fromkeys(reader for name in names for reader in self._readers.get(name, ()))
        )

    def _score(self, node: str) -> None:
        self._version[node] += 1
        self._moves.pop(node, None)
        problem = self.problem
        fmt = self.assignment.formats.get(node)
        if fmt is None or fmt.fractional_bits <= problem.min_fractional_bits:
            return
        new_frac = fmt.fractional_bits - 1
        shaved = self.assignment.with_fractional_bits(node, new_frac)
        saved = -problem.cost_model.reprice(
            problem.graph, self.assignment, shaved, self._affected[node]
        )
        if saved <= 0.0:
            return
        self._moves[node] = (new_frac, saved)
        if self._heap is not None:
            self._push(node)

    def _push(self, node: str) -> None:
        new_frac, saved = self._moves[node]
        added = self.problem.predicted_noise_increase(self.assignment, node, new_frac)
        score = saved / max(added, 1e-30)
        heapq.heappush(self._heap, (-score, self._index[node], self._version[node]))

    def best(self) -> Tuple[str, int] | None:
        """The highest-scoring unblocked shave as ``(node, new_frac)``."""
        if self._heap is None:
            self._heap = []
            for node in self._moves:
                self._push(node)
        heap = self._heap
        while heap:
            _neg_score, index, version = heap[0]
            node = self._tunable[index]
            if version == self._version[node] and node not in self.blocked:
                return node, self._moves[node][0]
            heapq.heappop(heap)
        return None

    def moves(self) -> List[Tuple[str, int, float]]:
        """Every unblocked shave as ``(node, new_frac, saved)``, in tunable order."""
        return [
            (node, *self._moves[node])
            for node in self._tunable
            if node in self._moves and node not in self.blocked
        ]

    def accept(self, assignment: WordLengthAssignment) -> None:
        """Move to ``assignment`` and re-score the readers of every changed format."""
        changed = diff_formats(assignment.formats, self.assignment.formats)
        self.assignment = assignment
        for node in self.dependents(changed):
            if node not in self.blocked:
                self._score(node)


class GreedyBitStealingOptimizer(WordLengthOptimizer):
    """Feasible-start descent shaving the best cost/noise fractional bit.

    Parameters
    ----------
    headroom:
        Extra uniform bits above the cheapest feasible word length to
        start the descent from (a second descent always starts at the
        cheapest feasible uniform itself; the better outcome wins).  More
        headroom gives the shaver more SNR slack to trade for area.
    max_iterations:
        Hard cap on descent steps (guards pathological problems).
    """

    name = "greedy"

    def __init__(self, headroom: int = 2, max_iterations: int = 400) -> None:
        if headroom < 0:
            raise OptimizationError(f"headroom must be >= 0, got {headroom}")
        self.headroom = int(headroom)
        self.max_iterations = int(max_iterations)

    def _search(
        self,
        problem: OptimizationProblem,
        trace: List[IterationRecord],
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> Tuple[DesignEvaluation | None, float | None, int | None]:
        uniform_eval, uniform_w, _last = _sweep_uniform(problem, trace)
        if uniform_eval is None or uniform_w is None:
            return None, None, None

        starts: List[Tuple[str, DesignEvaluation]] = [(f"W{uniform_w}", uniform_eval)]
        headroom_w = min(uniform_w + self.headroom, problem.max_word_length)
        if headroom_w != uniform_w:
            evaluation = problem.evaluate_uniform(headroom_w)
            _record(trace, problem, f"headroom start W={headroom_w}", evaluation, True)
            starts.append((f"W{headroom_w}", evaluation))
        warm_eval = _evaluate_warm_start(problem, warm_start, trace)
        if warm_eval is not None:
            starts.append(("warm", warm_eval))

        # A snapshot replays the interrupted descent from its last
        # accepted shave (same blocked set, so the same moves follow)
        # and restores the best design of every descent already done —
        # the resumed search returns the design an uninterrupted run
        # would have.
        start_index = 0
        resume_eval: DesignEvaluation | None = None
        resume_blocked: set[str] = set()
        best = uniform_eval
        state = checkpoint.load() if checkpoint is not None else None
        if state and state.get("strategy") == self.name:
            start_index = int(state.get("start_index", 0))
            if state.get("best") is not None:
                best_eval = problem.evaluate(WordLengthAssignment.from_doc(state["best"]))
                _record(trace, problem, "resume best", best_eval, best_eval.feasible)
                if best_eval.feasible and best_eval.cost < best.cost:
                    best = best_eval
            if state.get("assignment") is not None:
                resume_eval = problem.evaluate(
                    WordLengthAssignment.from_doc(state["assignment"])
                )
                resume_blocked = set(state.get("blocked", ()))
                _record(trace, problem, "resume descent", resume_eval, resume_eval.feasible)

        for index, (tag, start) in enumerate(starts):
            if index < start_index:
                continue
            blocked: set[str] = set()
            if index == start_index and resume_eval is not None and resume_eval.feasible:
                start = resume_eval
                blocked = set(resume_blocked)
            final = self._descend(
                problem, start, trace, tag,
                blocked=blocked, checkpoint=checkpoint, start_index=index, best=best,
            )
            if final.feasible and final.cost < best.cost:
                best = final
            if checkpoint is not None:
                checkpoint.save(
                    {
                        "strategy": self.name,
                        "start_index": index + 1,
                        "assignment": None,
                        "blocked": [],
                        "best": best.assignment.to_doc() if best.feasible else None,
                    }
                )
        return best, uniform_eval.cost, uniform_w

    def _descend(
        self,
        problem: OptimizationProblem,
        start: DesignEvaluation,
        trace: List[IterationRecord],
        tag: str,
        blocked: set[str] | None = None,
        checkpoint: SearchCheckpoint | None = None,
        start_index: int = 0,
        best: DesignEvaluation | None = None,
    ) -> DesignEvaluation:
        current = start
        blocked = set() if blocked is None else blocked
        best_doc = best.assignment.to_doc() if best is not None and best.feasible else None
        use_batched = getattr(problem, "engine", "incremental") == "batched"
        problem.notify_accepted(current.assignment)
        ranking = _ShaveRanking(problem, current.assignment, blocked)
        for _step in range(self.max_iterations):
            if use_batched:
                try:
                    candidate = self._best_candidate_batched(problem, current, ranking)
                except NoiseModelError:
                    # batched setup failed (e.g. uncoverable baseline) —
                    # the incremental path answers the same question.
                    use_batched = False
                    candidate = ranking.best()
            else:
                candidate = ranking.best()
            if candidate is None:
                break
            node, new_frac = candidate
            shaved = current.assignment.with_fractional_bits(node, new_frac)
            evaluation = problem.evaluate(shaved)
            action = f"[{tag}] shave {node} -> {new_frac} frac"
            # evaluate() may have coverage-widened the shaved assignment,
            # which can cost more than the shave saved — accept only
            # feasible moves that actually got cheaper.
            if evaluation.feasible and evaluation.cost < current.cost:
                _record(trace, problem, action, evaluation, True)
                current = evaluation
                problem.notify_accepted(current.assignment)
                ranking.accept(current.assignment)
                if checkpoint is not None:
                    checkpoint.save(
                        {
                            "strategy": self.name,
                            "start_index": start_index,
                            "tag": tag,
                            "assignment": current.assignment.to_doc(),
                            "blocked": sorted(blocked),
                            "best": best_doc,
                        }
                    )
            else:
                _record(trace, problem, action, evaluation, False)
                blocked.add(node)
        return current

    def _best_candidate_batched(
        self,
        problem: OptimizationProblem,
        current: DesignEvaluation,
        ranking: _ShaveRanking,
    ) -> Tuple[str, int] | None:
        """One vectorized pass pricing *every* unblocked one-bit shave.

        Where the scalar path ranks by the adjoint-gain *estimate* of the
        noise added and discovers infeasibility one evaluation at a time,
        this prices all shaves exactly (:meth:`OptimizationProblem.price_moves`)
        and blocks every shave the floor already rejects — noise only
        grows as the descent progresses, so a rejected shave stays
        rejected (the same monotonicity argument the scalar path uses,
        applied to the whole frontier at once).  The cost each shave
        saves comes from ``ranking``.
        """
        candidates = ranking.moves()
        if not candidates:
            return None
        noise = problem.price_moves(current.assignment, [move[:2] for move in candidates])
        threshold = problem.snr_floor_db + problem.margin_db
        best: Tuple[str, int] | None = None
        best_score = 0.0
        for (node, new_frac, saved), noise_power in zip(candidates, noise):
            if problem._snr_db(float(noise_power)) < threshold:
                ranking.blocked.add(node)
                continue
            added = max(float(noise_power) - current.noise_power, 0.0)
            score = saved / max(added, 1e-30)
            if best is None or score > best_score:
                best, best_score = (node, new_frac), score
        return best


class SimulatedAnnealingOptimizer(WordLengthOptimizer):
    """Metropolis search over per-node fractional bits.

    Energy is ``cost + penalty * SNR-deficit`` so infeasible states are
    strongly discouraged but still traversable at high temperature.  The
    best *feasible* design ever visited is returned (never worse than the
    cheapest feasible uniform, which seeds the search).
    """

    name = "anneal"

    def __init__(
        self,
        iterations: int = 150,
        seed: int = 0,
        cooling: float = 0.95,
        headroom: int = 0,
        initial_temperature_scale: float = 0.05,
        downhill_bias: float = 0.65,
    ) -> None:
        if iterations < 1:
            raise OptimizationError(f"iterations must be >= 1, got {iterations}")
        if not (0.0 < cooling <= 1.0):
            raise OptimizationError(f"cooling must be in (0, 1], got {cooling}")
        if not (0.0 <= downhill_bias <= 1.0):
            raise OptimizationError(f"downhill_bias must be in [0, 1], got {downhill_bias}")
        self.iterations = int(iterations)
        self.seed = seed
        self.cooling = float(cooling)
        self.headroom = int(headroom)
        self.initial_temperature_scale = float(initial_temperature_scale)
        self.downhill_bias = float(downhill_bias)
        #: How many Metropolis steps between checkpoint snapshots.
        self.checkpoint_every = 20

    def _energy(
        self, problem: OptimizationProblem, evaluation: DesignEvaluation, scale: float
    ) -> float:
        deficit = max(0.0, problem.snr_floor_db + problem.margin_db - evaluation.snr_db)
        return evaluation.cost + scale * deficit

    def _search(
        self,
        problem: OptimizationProblem,
        trace: List[IterationRecord],
        warm_start: WordLengthAssignment | None = None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> Tuple[DesignEvaluation | None, float | None, int | None]:
        uniform_eval, uniform_w, _last = _sweep_uniform(problem, trace)
        if uniform_eval is None or uniform_w is None:
            return None, None, None

        rng = np.random.default_rng(self.seed)
        start_w = min(uniform_w + self.headroom, problem.max_word_length)
        if start_w != uniform_w:
            current = problem.evaluate_uniform(start_w)
            _record(trace, problem, f"anneal start W={start_w}", current, True)
        else:
            current = uniform_eval
        warm_eval = _evaluate_warm_start(problem, warm_start, trace)
        if warm_eval is not None and warm_eval.cost < current.cost:
            current = warm_eval
        best = uniform_eval if uniform_eval.cost <= current.cost else current
        if not best.feasible:  # pragma: no cover - both seeds are feasible
            best = uniform_eval
        if warm_eval is not None and warm_eval.cost < best.cost:
            best = warm_eval

        # A snapshot captures the full Metropolis state — step, temperature,
        # current/best designs and the PCG64 generator state — so a resumed
        # chain draws the exact same proposal sequence an uninterrupted run
        # would have.
        start_step = 0
        state = checkpoint.load() if checkpoint is not None else None
        if state and state.get("strategy") == self.name:
            start_step = int(state.get("step", 0))
            temperature_override = float(state["temperature"])
            current = problem.evaluate(WordLengthAssignment.from_doc(state["current"]))
            _record(trace, problem, "resume current", current, current.feasible)
            resumed_best = problem.evaluate(WordLengthAssignment.from_doc(state["best"]))
            _record(trace, problem, "resume best", resumed_best, resumed_best.feasible)
            if resumed_best.feasible:
                best = resumed_best
            rng.bit_generator.state = state["rng"]
        else:
            temperature_override = None

        # 1 dB of SNR deficit costs as much as the whole uniform design:
        # high temperature can wander, low temperature cannot stay infeasible.
        penalty_scale = uniform_eval.cost
        temperature = max(self.initial_temperature_scale * current.cost, 1e-9)
        if temperature_override is not None:
            temperature = temperature_override
        tunable = [
            node
            for node in problem.tunable
            if current.assignment.formats.get(node) is not None
        ]
        if not tunable:
            return best, uniform_eval.cost, uniform_w

        current_energy = self._energy(problem, current, penalty_scale)
        problem.notify_accepted(current.assignment)
        for _step in range(start_step, self.iterations):
            node = tunable[int(rng.integers(len(tunable)))]
            fmt = current.assignment.format_of(node)
            step = -1 if rng.random() < self.downhill_bias else +1
            new_frac = fmt.fractional_bits + step
            new_frac = max(problem.min_fractional_bits, new_frac)
            # clamp against the format's *actual* integer bits (coverage
            # widening may have added some), so the word cap truly holds
            new_frac = min(problem.max_word_length - fmt.integer_bits, new_frac)
            if new_frac == fmt.fractional_bits:
                continue
            candidate = problem.evaluate(
                current.assignment.with_fractional_bits(node, new_frac)
            )
            candidate_energy = self._energy(problem, candidate, penalty_scale)
            delta = candidate_energy - current_energy
            accept = delta <= 0.0 or rng.random() < math.exp(-delta / temperature)
            _record(
                trace,
                problem,
                f"move {node} -> {new_frac} frac (T={temperature:.2f})",
                candidate,
                accept,
            )
            if accept:
                current, current_energy = candidate, candidate_energy
                problem.notify_accepted(current.assignment)
                if current.feasible and current.cost < best.cost:
                    best = current
            temperature = max(temperature * self.cooling, 1e-9)
            if checkpoint is not None and (_step + 1) % self.checkpoint_every == 0:
                checkpoint.save(
                    {
                        "strategy": self.name,
                        "step": _step + 1,
                        "temperature": temperature,
                        "current": current.assignment.to_doc(),
                        "best": best.assignment.to_doc(),
                        "rng": rng.bit_generator.state,
                    }
                )
        return best, uniform_eval.cost, uniform_w


#: Strategy registry, keyed by CLI-friendly names.
OPTIMIZERS: Dict[str, type[WordLengthOptimizer]] = {
    UniformSweepOptimizer.name: UniformSweepOptimizer,
    GreedyBitStealingOptimizer.name: GreedyBitStealingOptimizer,
    SimulatedAnnealingOptimizer.name: SimulatedAnnealingOptimizer,
}


def get_optimizer(name: str, **options: object) -> WordLengthOptimizer:
    """Instantiate a strategy by registry name."""
    if str(name).lower() == "decomposed" and "decomposed" not in OPTIMIZERS:
        import repro.optimize.decomposed  # noqa: F401 - registers itself
    try:
        factory = OPTIMIZERS[str(name).lower()]
    except KeyError as exc:
        raise OptimizationError(
            f"unknown optimization strategy {name!r}; available: {', '.join(OPTIMIZERS)}"
        ) from exc
    return factory(**options)  # type: ignore[arg-type]
