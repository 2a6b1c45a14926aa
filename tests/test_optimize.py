"""End-to-end tests of the word-length optimization subsystem."""

from __future__ import annotations

import pickle
import random
from dataclasses import replace

import pytest

from repro.analysis import AnalysisConfig, NoiseAnalysisPipeline
from repro.benchmarks.circuits import get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.config import OptimizeConfig
from repro.errors import NoiseModelError, OptimizationError
from repro.fixedpoint.format import FixedPointFormat
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage
from repro.optimize import (
    HardwareCostModel,
    OptimizationProblem,
    get_optimizer,
)
from repro.optimize.strategies import _ShaveRanking

# Chosen so the cheapest feasible uniform design lands with a few dB of
# slack over the floor: quadratic's AA SNR steps ~6 dB per uniform bit
# (50.5 dB at W=10, 56.5 at W=11, 62.5 at W=12), so a 58 dB floor with
# the 1 dB test margin leaves ~3.5 dB for the shavers to trade for area.
# A floor landing with near-zero slack makes uniform == optimized the
# genuinely correct answer, which is not what these tests probe.
FLOOR = 58.0


def make_problem(circuit_name: str = "quadratic", method: str = "aa", **options):
    options.setdefault("horizon", 4)
    options.setdefault("bins", 8)
    options.setdefault("margin_db", 1.0)
    config = OptimizeConfig(snr_floor_db=FLOOR, method=method, **options)
    return OptimizationProblem.from_circuit(get_circuit(circuit_name), FLOOR, config=config)


class TestProblem:
    def test_evaluate_counts_analyzer_calls(self):
        problem = make_problem()
        assert problem.analyzer_calls == 0
        evaluation = problem.evaluate(problem.uniform(12))
        assert problem.analyzer_calls == 1
        assert evaluation.index == 1
        assert evaluation.cost > 0.0
        assert evaluation.snr_db > 0.0

    def test_delays_are_not_tunable(self):
        problem = make_problem("iir_biquad")
        graph = problem.graph
        assert all(graph.node(n).op.value != "delay" for n in problem.tunable)
        assert all(graph.node(n).op.value != "output" for n in problem.tunable)

    def test_unknown_method_rejected(self):
        with pytest.raises(OptimizationError, match="unknown analysis method"):
            make_problem(method="voodoo")

    def test_evaluate_rewidens_formats_that_clip_after_a_shave(self):
        # x's range [0.5, 1.75] needs 2 integer bits and >= 2 fractional
        # bits to reach 1.75 (max_value = 2 - 2^-f); shaving to 1
        # fractional bit would silently clip unless evaluate() re-widens.
        from repro.dfg.builder import DFGBuilder

        builder = DFGBuilder("clip")
        x = builder.input("x")
        builder.output(x + builder.const(0.0), name="y")
        problem = OptimizationProblem(
            builder.build(),
            {"x": (0.5, 1.75)},
            10.0,
            config=OptimizeConfig(snr_floor_db=10.0, method="aa", horizon=2, bins=8),
        )
        shaved = problem.uniform(6).with_fractional_bits("x", 1)
        assert shaved.format_of("x").max_value < 1.75
        evaluation = problem.evaluate(shaved)
        fmt = evaluation.assignment.format_of("x")
        assert fmt.max_value >= 1.75

    def test_uniform_evaluations_are_cached_across_strategies(self):
        problem = make_problem()
        get_optimizer("uniform").optimize(problem)
        calls_after_first = problem.analyzer_calls
        result = get_optimizer("uniform").optimize(problem)
        assert result.feasible
        assert problem.analyzer_calls == calls_after_first  # all cache hits

    def test_predicted_noise_increase_is_nonnegative_and_ranks(self):
        problem = make_problem()
        assignment = problem.uniform(12)
        for node in problem.tunable:
            fmt = assignment.format_of(node)
            if fmt.fractional_bits == 0:
                continue
            delta = problem.predicted_noise_increase(
                assignment, node, fmt.fractional_bits - 1
            )
            assert delta >= 0.0


class TestEvaluateDiff:
    """evaluate() widens and keys each candidate from its diff to the previous one."""

    def test_keys_and_widening_match_a_fresh_computation_across_a_greedy_run(self):
        problem = make_problem("iir_biquad", method="ia")
        calls = []
        evaluate = problem.evaluate

        def recording(assignment):
            before = problem.analyzer_calls
            evaluation = evaluate(assignment)
            calls.append((assignment, evaluation, problem.analyzer_calls > before))
            return evaluation

        problem.evaluate = recording
        result = get_optimizer("greedy").optimize(problem)
        assert result.feasible and len(calls) > 20
        for assignment, evaluation, analyzed in calls:
            widened = ensure_range_coverage(assignment, problem.ranges)
            assert evaluation.assignment.key() == widened.key()
            if analyzed and widened is assignment:
                assert evaluation.assignment is assignment
        for key, evaluation in problem._eval_cache.items():
            assert key == evaluation.assignment.key()
        clone = problem.rescoped(FLOOR - 3.0)
        assert clone.evaluate(result.assignment).cost == result.cost

    def test_narrowed_and_uncoverable_formats_in_a_random_walk(self):
        problem = make_problem("fir4", method="ia")
        rng = random.Random("walk")
        start = current = problem.uniform(12)
        wide = [name for name in problem.tunable if start.format_of(name).integer_bits > 1]
        assert wide
        restored = 0
        for step in range(120):
            roll = rng.random()
            name = rng.choice(wide if roll < 0.6 else problem.tunable)
            fmt = current.format_of(name)
            if roll < 0.25:
                # Too few integer bits: evaluate() must widen it back.
                new = FixedPointFormat(max(1, fmt.integer_bits - 1), fmt.fractional_bits)
            elif roll < 0.3:
                new = FixedPointFormat(1, 0)  # beyond what widening may add
            elif roll < 0.6:
                # Covers its range again: a widened node stops being widened.
                fmt = start.format_of(name)
                new = fmt.with_fractional_bits(fmt.fractional_bits + rng.randint(0, 2))
                restored += current.format_of(name).integer_bits < fmt.integer_bits
            else:
                new = fmt.with_fractional_bits(max(0, fmt.fractional_bits + rng.choice((-1, 1))))
            candidate = WordLengthAssignment(
                {**current.formats, name: new}, current.quantization, current.overflow
            )
            try:
                expected = ensure_range_coverage(candidate, problem.ranges)
            except NoiseModelError:
                with pytest.raises(NoiseModelError, match="cannot cover"):
                    problem.evaluate(candidate)
                continue
            evaluation = problem.evaluate(candidate)
            assert evaluation.assignment.key() == expected.key(), step
            assert evaluation.assignment.formats == expected.formats
            assert evaluation.cost == problem.cost_model.price(problem.graph, expected).total
            current = candidate  # keep walking from the (possibly narrowed) input
        assert restored > 5

    def test_in_place_writes_to_an_evaluated_assignment_are_seen(self):
        problem = make_problem("fir4", method="ia")
        assignment = problem.uniform(12)
        first_key = problem.evaluate(assignment).assignment.key()
        name = problem.tunable[0]
        fmt = assignment.formats[name]
        assignment.formats[name] = fmt.with_fractional_bits(fmt.fractional_bits - 2)
        second = problem.evaluate(assignment)
        assert second.assignment.key() == assignment.key() != first_key
        assert second.cost == HardwareCostModel().price(problem.graph, assignment).total

    def test_problem_pickles_after_evaluate(self):
        problem = make_problem("fir4", method="ia")
        result = get_optimizer("greedy").optimize(problem)
        restored = pickle.loads(pickle.dumps(problem))
        again = restored.evaluate(result.assignment)
        assert again.cost == result.cost
        assert again.snr_db == result.snr_db
        shaved = result.assignment.with_fractional_bits(problem.tunable[0], 0)
        assert restored.evaluate(shaved).cost == problem.evaluate(shaved).cost


class TestUniformSweep:
    def test_finds_cheapest_feasible_uniform(self):
        problem = make_problem()
        result = get_optimizer("uniform").optimize(problem)
        assert result.feasible
        assert result.snr_db >= FLOOR
        assert result.cost == result.baseline_cost
        assert result.baseline_word_length is not None
        # one bit less must be infeasible (that is what "cheapest" means)
        w = result.baseline_word_length
        if w - 1 >= problem.min_word_length:
            leaner = problem.evaluate(problem.uniform(w - 1))
            assert not leaner.feasible

    def test_infeasible_floor_reported_not_raised(self):
        problem = make_problem(max_word_length=8)
        problem.snr_floor_db = 500.0
        result = get_optimizer("uniform").optimize(problem)
        assert not result.feasible
        assert result.assignment is None
        assert result.cost == float("inf")


class TestGreedy:
    def test_beats_uniform_baseline_and_stays_feasible(self):
        problem = make_problem()
        result = get_optimizer("greedy").optimize(problem)
        assert result.feasible
        assert result.snr_db >= FLOOR
        assert result.baseline_cost is not None
        assert result.cost < result.baseline_cost
        assert result.improvement and result.improvement > 0.0

    def test_accepted_shaves_reduce_cost_monotonically(self):
        problem = make_problem("fft_butterfly")
        result = get_optimizer("greedy").optimize(problem)
        # one descent per start point, tagged "[W<start>]" in the action
        descents: dict[str, list[float]] = {}
        for record in result.iterations:
            if record.accepted and "shave" in record.action:
                tag = record.action.split("]", 1)[0]
                descents.setdefault(tag, []).append(record.cost)
        assert descents
        for costs in descents.values():
            assert costs == sorted(costs, reverse=True)
        assert all(
            record.feasible for record in result.iterations if record.accepted
        )

    def test_returned_design_passes_monte_carlo(self):
        problem = make_problem()
        result = get_optimizer("greedy").optimize(problem)
        mc_snr = problem.monte_carlo_snr(result.assignment, samples=4_000, seed=0)
        assert mc_snr >= FLOOR

    def test_analyzer_calls_accounted(self):
        problem = make_problem()
        result = get_optimizer("greedy").optimize(problem)
        assert result.analyzer_calls == problem.analyzer_calls
        assert result.analyzer_calls >= len(
            [r for r in result.iterations if "shave" in r.action]
        )


def _reference_moves(problem, assignment, blocked):
    """Every unblocked one-bit shave priced from scratch, in tunable order."""
    moves = []
    for node in problem.tunable:
        if node in blocked:
            continue
        fmt = assignment.formats.get(node)
        if fmt is None or fmt.fractional_bits <= problem.min_fractional_bits:
            continue
        shaved = assignment.with_fractional_bits(node, fmt.fractional_bits - 1)
        saved = -problem.cost_model.reprice(
            problem.graph, assignment, shaved, problem.cost_model.affected_by(problem.graph, node)
        )
        if saved > 0.0:
            moves.append((node, fmt.fractional_bits - 1, saved))
    return moves


def _reference_pick(problem, assignment, blocked):
    """Full re-rank: highest saved/added score, first tunable node on ties."""
    best, best_score = None, 0.0
    for node, new_frac, saved in _reference_moves(problem, assignment, blocked):
        added = problem.predicted_noise_increase(assignment, node, new_frac)
        score = saved / max(added, 1e-30)
        if best is None or score > best_score:
            best, best_score = (node, new_frac), score
    return best


def _headroom_start(problem, headroom=2):
    """The greedy optimizer's headroom start: cheapest feasible uniform + ``headroom``."""
    for word_length in range(problem.min_word_length, problem.max_word_length + 1):
        if problem.evaluate_uniform(word_length).feasible:
            return problem.evaluate_uniform(
                min(word_length + headroom, problem.max_word_length)
            )
    pytest.fail(f"no feasible uniform design for {problem.name}")


def _checked_descent(problem):
    """Walk one greedy descent, comparing the ranking with a full re-rank at every step.

    Returns the number of accepted and rejected shaves.
    """
    current = _headroom_start(problem)
    blocked: set[str] = set()
    ranking = _ShaveRanking(problem, current.assignment, blocked)
    accepted = rejected = 0
    for _step in range(400):
        assert ranking.moves() == _reference_moves(problem, current.assignment, blocked)
        pick = ranking.best()
        assert pick == _reference_pick(problem, current.assignment, blocked)
        if pick is None:
            break
        evaluation = problem.evaluate(current.assignment.with_fractional_bits(*pick))
        if evaluation.feasible and evaluation.cost < current.cost:
            current = evaluation
            ranking.accept(current.assignment)
            accepted += 1
        else:
            blocked.add(pick[0])
            rejected += 1
    return accepted, rejected


def _ranking_problem(circuit, cost_table, floor=58.0):
    config = OptimizeConfig(
        snr_floor_db=floor, method="ia", horizon=4, bins=8, cost_table=cost_table
    )
    return OptimizationProblem.from_circuit(circuit, floor, config=config)


class TestShaveRanking:
    """The lazy heap picks what a full re-rank of every shave would pick."""

    @pytest.mark.parametrize("cost_table", ["lut4", "asic"])
    @pytest.mark.parametrize(
        "spec", ["fir_cascade:taps=4,samples=6", "iir_cascade:sections=2,samples=4"]
    )
    def test_matches_full_rerank_on_generated_graphs(self, spec, cost_table):
        accepted, rejected = _checked_descent(
            _ranking_problem(generate_circuit(spec), cost_table)
        )
        assert accepted > 0 and rejected > 0

    @pytest.mark.parametrize("cost_table", ["lut4", "asic"])
    @pytest.mark.parametrize("name", ["fir4", "iir_biquad", "matmul2"])
    def test_matches_full_rerank_through_delay_chains(self, name, cost_table):
        accepted, rejected = _checked_descent(_ranking_problem(get_circuit(name), cost_table))
        assert accepted > 0 and rejected > 0

    @pytest.mark.parametrize("cost_table", ["lut4", "asic"])
    def test_matches_full_rerank_on_random_graphs(self, random_circuit_factory, cost_table):
        totals = [0, 0]
        for seed in range(8):
            circuit = random_circuit_factory(seed)
            accepted, rejected = _checked_descent(
                _ranking_problem(circuit, cost_table, floor=30.0)
            )
            totals[0] += accepted
            totals[1] += rejected
        assert totals[0] > 0 and totals[1] > 0

    def test_accept_rescores_every_changed_format(self):
        # Widening one node's integer bits and shaving another's fraction
        # at once: both formats' readers must be re-scored.
        problem = _ranking_problem(generate_circuit("fir_cascade:taps=4,samples=6"), "asic")
        current = _headroom_start(problem)
        ranking = _ShaveRanking(problem, current.assignment, set())
        formats = dict(current.assignment.formats)
        candidates = [node for node in problem.tunable if formats[node].fractional_bits]
        widened, shaved = candidates[0], candidates[-1]
        fmt = formats[widened]
        formats[widened] = replace(fmt, integer_bits=fmt.integer_bits + 1)
        formats[shaved] = formats[shaved].with_fractional_bits(formats[shaved].fractional_bits - 1)
        moved = replace(current.assignment, formats=formats)
        ranking.accept(moved)
        assert ranking.moves() == _reference_moves(problem, moved, set())
        assert ranking.best() == _reference_pick(problem, moved, set())

    def test_accepted_shave_rescores_only_its_dependents(self, monkeypatch):
        problem = _ranking_problem(generate_circuit("fir_cascade:taps=4,samples=6"), "lut4")
        current = _headroom_start(problem)
        ranking = _ShaveRanking(problem, current.assignment, set())
        node, new_frac = ranking.best()
        evaluation = problem.evaluate(current.assignment.with_fractional_bits(node, new_frac))
        assert evaluation.feasible and evaluation.cost < current.cost
        changed = [
            name
            for name, fmt in evaluation.assignment.formats.items()
            if current.assignment.formats.get(name) != fmt
        ]
        expected = [
            reader
            for reader in ranking.dependents(changed)
            if evaluation.assignment.format_of(reader).fractional_bits
            > problem.min_fractional_bits
        ]
        calls = []
        original = problem.cost_model.reprice
        monkeypatch.setattr(
            problem.cost_model,
            "reprice",
            lambda *args: calls.append(args) or original(*args),
        )
        ranking.accept(evaluation.assignment)
        assert len(calls) == len(expected)
        assert 0 < len(expected) < len(problem.tunable)


class TestAnnealing:
    def test_never_worse_than_uniform_and_deterministic(self):
        first = get_optimizer("anneal", iterations=40, seed=7).optimize(make_problem())
        second = get_optimizer("anneal", iterations=40, seed=7).optimize(make_problem())
        assert first.feasible
        assert first.baseline_cost is not None
        assert first.cost <= first.baseline_cost
        assert first.cost == pytest.approx(second.cost)

    def test_bad_options_rejected(self):
        with pytest.raises(OptimizationError):
            get_optimizer("anneal", iterations=0)
        with pytest.raises(OptimizationError):
            get_optimizer("anneal", cooling=1.5)
        with pytest.raises(OptimizationError):
            get_optimizer("greedy", headroom=-1)


class TestPipelineWiring:
    def test_pipeline_optimize_returns_result(self):
        pipeline = NoiseAnalysisPipeline(AnalysisConfig(horizon=4, bins=8))
        result = pipeline.optimize(
            get_circuit("quadratic"),
            snr_floor_db=FLOOR,
            strategy="greedy",
            config=OptimizeConfig(method="aa", horizon=4, bins=8),
        )
        assert result.strategy == "greedy"
        assert result.method == "aa"
        assert result.feasible
        # the optimized assignment is consumable by the analysis pipeline
        report = pipeline.analyze(
            get_circuit("quadratic"), assignment=result.assignment, method="aa"
        )
        assert report.results["aa"].snr_db >= FLOOR

    def test_unknown_strategy_raises(self):
        pipeline = NoiseAnalysisPipeline(AnalysisConfig(horizon=4, bins=8))
        with pytest.raises(OptimizationError, match="unknown optimization strategy"):
            pipeline.optimize(get_circuit("quadratic"), FLOOR, strategy="gradient")

    def test_custom_cost_model_is_used(self):
        pipeline = NoiseAnalysisPipeline(AnalysisConfig(horizon=4, bins=8))
        free = HardwareCostModel(
            HardwareCostModel().table.scaled(0.0, name="free")
        )
        result = pipeline.optimize(
            get_circuit("quadratic"), FLOOR, strategy="uniform", cost_model=free
        )
        assert result.cost == 0.0

    def test_result_serializes(self):
        pipeline = NoiseAnalysisPipeline(AnalysisConfig(horizon=4, bins=8))
        result = pipeline.optimize(get_circuit("quadratic"), FLOOR, strategy="uniform")
        doc = result.to_dict()
        assert doc["strategy"] == "uniform"
        assert doc["iteration_count"] == len(doc["iterations"])
        assert isinstance(result.summary(), str)
