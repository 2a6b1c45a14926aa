"""The benchmark's three workloads, built from the public API only.

Each workload is a fixed list of operations run one after another in a
closed loop (one client; the next operation starts when the last one
returns).  An operation is one ``optimize()`` call, one ``pareto_front``
sweep or one ``analyze()`` call, each with the Monte-Carlo validation a
user would run on its result.  Every process-level knob is serial:
``mc_workers=None`` everywhere and ``workers=1`` for the decomposed
optimizer, so process CPU time covers all the work.

The workload seed drives every random choice the benchmark makes (the
annealing seeds, the Monte-Carlo stimulus seeds and the decomposed
optimizer's job seeds); the program only ever sees the derived integers.
The same seed gives the same inputs, pass after pass.

Each operation provides three callables:

``timed()``
    the measured work; returns a payload.
``digest(payload)``
    canonical strings (design documents, costs, analytic noise figures)
    hashed into the output digest; a later change that claims to keep
    outputs bit-identical must keep this digest.
``check(payload)``
    untimed correctness checks and quality verdicts: every design is
    re-priced with a fresh cost model and re-evaluated for feasibility on
    a fresh problem; every analysis must carry all six methods with
    finite figures.
"""

from __future__ import annotations

import json
import math
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

# Imported eagerly (not on first use inside an operation) so that lazy
# module loading is part of set-up, not of the first timed operation.
import repro.analysis as ra
import repro.analysis.batched  # noqa: F401
import repro.analysis.incremental  # noqa: F401
import repro.analysis.probabilistic  # noqa: F401
import repro.benchmarks as rb
import repro.benchmarks.generators as rg
import repro.optimize as ro
import repro.optimize.decomposed  # noqa: F401
from repro.config import AnalysisConfig, OptimizeConfig
from repro.intervals.interval import Interval
from repro.jobs import SearchCheckpoint
from repro.noisemodel.assignment import WordLengthAssignment, ensure_range_coverage

ANALYTIC_METHODS = ("ia", "aa", "taylor", "sna", "pna")


@dataclass
class Verdict:
    """Quality verdict of one design or analysis (first execution only)."""

    label: str
    ok: bool  # counts towards pass_rate
    saving: float | None = None  # fractional area saving vs the uniform baseline
    ratios: List[float] = field(default_factory=list)  # analytic / MC noise measure
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Op:
    label: str
    timed: Callable[[], Any]
    digest: Callable[[Any], List[str]]
    check: Callable[[Any], Tuple[List[Verdict], List[str]]]


def _is_linear(circuit: Any) -> bool:
    return "linear" in tuple(getattr(circuit, "tags", ()))


def _snr_ratio(analytic_snr_db: float, measured_snr_db: float) -> float:
    """Analytic noise measure over the measured one, from the two SNRs."""
    return 10.0 ** ((measured_snr_db - analytic_snr_db) / 10.0)


class Workload:
    """A named, seeded list of operations plus its quality aggregation."""

    name = "abstract"

    def __init__(self, seed: int, workdir: Path | None) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self._rng = random.Random(self.seed)
        self.ops: List[Op] = []

    def _draw_seed(self) -> int:
        return self._rng.randrange(2**31)

    # -------------------------------------------------------------- #
    # quality metrics over the verdicts of one pass
    # -------------------------------------------------------------- #
    # Each returns None when the verdicts hold nothing to aggregate; the
    # run then reports the metric as missing and the result as incorrect.
    @staticmethod
    def pass_rate(verdicts: Sequence[Verdict]) -> float | None:
        return sum(1 for v in verdicts if v.ok) / len(verdicts) if verdicts else None

    @staticmethod
    def noise_ratio_worst(verdicts: Sequence[Verdict]) -> float | None:
        ratios = [r for v in verdicts for r in v.ratios]
        return max(max(r, 1.0 / r) for r in ratios) if ratios else None

    def area_saving(self, verdicts: Sequence[Verdict]) -> float | None:
        savings = [v.saving for v in verdicts if v.saving is not None]
        return sum(savings) / len(savings) if savings else None

    # -------------------------------------------------------------- #
    # optimizer operations
    # -------------------------------------------------------------- #
    def _design_digest(self, label: str, results: Sequence[Any]) -> List[str]:
        items = []
        for result in results:
            doc = result.assignment.to_doc() if result.assignment is not None else None
            items.append(
                f"{label}@{result.snr_floor_db!r}|{json.dumps(doc, sort_keys=True)}"
                f"|cost={result.cost!r}|snr={result.snr_db!r}"
            )
        return items

    def _design_check(
        self,
        label: str,
        circuit: Any,
        config: OptimizeConfig,
        pairs: Sequence[Tuple[Any, float]],
        ratio: bool,
    ) -> Tuple[List[Verdict], List[str]]:
        """Re-price and re-evaluate each design; judge it against MC.

        With ``ratio`` set, each design's analytic noise measure over the
        MC-measured one feeds ``noise_ratio_worst``.
        """
        verdicts: List[Verdict] = []
        errors: List[str] = []
        model = ro.HardwareCostModel(ro.COST_TABLES[config.cost_table])
        for result, mc_snr_db in pairs:
            tag = f"{label}@{result.snr_floor_db:g}dB"
            if result.assignment is None or not result.feasible:
                verdicts.append(Verdict(tag, ok=False, saving=0.0, extra={"why": "infeasible"}))
                continue
            priced = model.price(circuit.graph, result.assignment).total
            if priced != result.cost:
                errors.append(f"{tag}: re-priced cost {priced!r} != reported {result.cost!r}")
            judge = ro.OptimizationProblem.from_circuit(
                circuit, result.snr_floor_db, config=config
            )
            if not judge.evaluate(result.assignment).feasible:
                errors.append(f"{tag}: design is infeasible when re-evaluated")
            ratios = [_snr_ratio(result.snr_db, mc_snr_db)] if ratio else []
            ok = mc_snr_db >= result.snr_floor_db
            verdicts.append(
                Verdict(
                    tag,
                    ok=ok,
                    saving=result.improvement,
                    ratios=ratios,
                    extra={} if ok else {"why": f"MC {mc_snr_db:.2f} dB < floor"},
                )
            )
        return verdicts, errors

    def _optimize_op(
        self,
        label: str,
        circuit: Any,
        config: OptimizeConfig,
        options: Dict[str, Any],
        mc_samples: int,
        ratio: bool,
        checkpoint: bool = False,
    ) -> Op:
        mc_seed = self._draw_seed()
        if config.mc_workers is not None or options.get("workers", 1) != 1:
            raise ValueError(f"{label}: the benchmark runs every operation with one worker")

        def timed() -> List[Tuple[Any, float]]:
            problem = ro.OptimizationProblem.from_circuit(
                circuit, config.snr_floor_db, config=config
            )
            optimizer = ro.get_optimizer(config.strategy, **options)
            if checkpoint:
                with tempfile.TemporaryDirectory(dir=self.workdir) as scratch:
                    snapshot = SearchCheckpoint(Path(scratch) / "search.json")
                    result = optimizer.optimize(problem, checkpoint=snapshot)
            else:
                result = optimizer.optimize(problem)
            mc_snr_db = float("-inf")
            if result.assignment is not None:
                mc_snr_db = problem.monte_carlo_snr(
                    result.assignment, samples=mc_samples, seed=mc_seed
                )
            return [(result, mc_snr_db)]

        return Op(
            label,
            timed,
            lambda pairs: self._design_digest(label, [result for result, _ in pairs]),
            lambda pairs: self._design_check(label, circuit, config, pairs, ratio),
        )


class OptSuite(Workload):
    """The 11 library circuits under five optimizer configurations, plus
    two Pareto sweeps; analysis-dominated (candidate evaluation).

    ``noise_ratio_worst`` covers the greedy ``aa`` designs (single runs
    and Pareto points) of the ``linear`` circuits: their noise figure is
    a mean-square power the model should predict almost exactly, and
    their design does not depend on the seed.  Annealed designs change
    with the seed and ``pna`` designs are judged by a tail quantile, so
    both stay out of the ratio.
    """

    name = "opt_suite"
    FLOOR_DB = 60.0
    PARETO_FLOORS = (50.0, 60.0, 70.0, 80.0)
    PARETO_CIRCUITS = ("iir_biquad", "matmul2")
    MC_SAMPLES = 20_000
    BASE = OptimizeConfig(
        snr_floor_db=FLOOR_DB,
        margin_db=1.0,
        horizon=6,
        bins=16,
        cost_table="lut4",
        mc_workers=None,
    )
    CONFIGS = (
        ("greedy-aa", "greedy", {"method": "aa", "engine": "incremental"}),
        ("greedy-sna", "greedy", {"method": "sna", "engine": "incremental"}),
        (
            "greedy-pna",
            "greedy",
            {"method": "pna", "confidence": 0.999, "engine": "incremental"},
        ),
        ("greedy-ia-batched", "greedy", {"method": "ia", "engine": "batched"}),
        ("anneal-aa", "anneal", {"method": "aa", "engine": "incremental"}),
    )

    def __init__(self, seed: int, workdir: Path | None) -> None:
        super().__init__(seed, workdir)
        circuits = rb.all_circuits()
        for circuit in circuits:
            for tag, strategy, fields in self.CONFIGS:
                options = {}
                if strategy == "anneal":
                    options = {"iterations": 120, "seed": self._draw_seed()}
                self.ops.append(
                    self._optimize_op(
                        f"{circuit.name}/{tag}",
                        circuit,
                        self.BASE.replace(strategy=strategy, **fields),
                        options,
                        self.MC_SAMPLES,
                        ratio=_is_linear(circuit) and tag == "greedy-aa",
                    )
                )
        by_name = {circuit.name: circuit for circuit in circuits}
        for name in self.PARETO_CIRCUITS:
            self.ops.append(self._pareto_op(by_name[name]))

    def _pareto_op(self, circuit: Any) -> Op:
        label = f"{circuit.name}/pareto-greedy-aa"
        config = self.BASE.replace(method="aa", engine="incremental")
        mc_seed = self._draw_seed()

        def timed() -> List[Tuple[Any, float]]:
            problem = ro.OptimizationProblem.from_circuit(
                circuit, config.snr_floor_db, config=config
            )
            front = ro.pareto_front(problem, self.PARETO_FLOORS, strategy="greedy")
            pairs = []
            for result in front.results:
                mc_snr_db = float("-inf")
                if result.assignment is not None:
                    mc_snr_db = problem.monte_carlo_snr(
                        result.assignment, samples=self.MC_SAMPLES, seed=mc_seed
                    )
                pairs.append((result, mc_snr_db))
            return pairs

        return Op(
            label,
            timed,
            lambda pairs: self._design_digest(label, [result for result, _ in pairs]),
            lambda pairs: self._design_check(
                label, circuit, config, pairs, ratio=_is_linear(circuit)
            ),
        )


class OptScale(Workload):
    """Whole-graph greedy and the decomposed optimizer on a generated FIR
    cascade; ranking-dominated, and the only user of partitioning, the
    jobs runner and search checkpoints.

    Both designs are judged by ``ia``, so ``noise_ratio_worst`` here is
    how far the ``ia`` noise figure the optimizer trusts sits from the
    MC-measured noise power.
    """

    name = "opt_scale"
    # 158 nodes: one pass (greedy + decomposed, ~10 s on a 2-CPU x86 VM)
    # fits three times into a 30 s run, and candidate ranking is still
    # about three quarters of optimize time at this size (cProfile).
    SPEC = "fir_cascade:taps=8,samples=12"
    MC_SAMPLES = 4096
    CONFIG = OptimizeConfig(
        method="ia",
        snr_floor_db=60.0,
        margin_db=0.0,
        cost_table="lut4",
        max_word_length=28,
        mc_workers=None,
    )

    def __init__(self, seed: int, workdir: Path | None) -> None:
        super().__init__(seed, workdir)
        circuit = rg.generate_circuit(self.SPEC)
        self.ops.append(
            self._optimize_op(
                f"{circuit.name}/greedy",
                circuit,
                self.CONFIG.replace(strategy="greedy"),
                {},
                self.MC_SAMPLES,
                ratio=_is_linear(circuit),
            )
        )
        self.ops.append(
            self._optimize_op(
                f"{circuit.name}/decomposed",
                circuit,
                self.CONFIG.replace(strategy="decomposed"),
                {
                    "partitions": 3,
                    "outer_iterations": 3,
                    "workers": 1,
                    "seed": self._draw_seed(),
                },
                self.MC_SAMPLES,
                ratio=_is_linear(circuit),
                checkpoint=True,
            )
        )


class AnalyzeMC(Workload):
    """``NoiseAnalysisPipeline.analyze`` with all six default methods at
    three word lengths; never calls the optimizer."""

    name = "analyze_mc"
    #: Methods whose noise power, over the MC one, feeds ``noise_ratio_worst``.
    RATIO_METHODS = ("aa", "pna")
    WORD_LENGTHS = (12, 16, 20)
    GENERATED = (
        "fir_cascade:taps=8,samples=40",
        "iir_cascade:sections=6,samples=12",
        "mlp_layer:inputs=8,neurons=4",
    )
    MC_SAMPLES = 100_000
    FLOOR_DB = 60.0
    COST_TABLE = "lut4"

    def __init__(self, seed: int, workdir: Path | None) -> None:
        super().__init__(seed, workdir)
        circuits = rb.all_circuits() + [rg.generate_circuit(spec) for spec in self.GENERATED]
        for circuit in circuits:
            for word_length in self.WORD_LENGTHS:
                self.ops.append(self._analyze_op(circuit, word_length))

    def _analyze_op(self, circuit: Any, word_length: int) -> Op:
        label = f"{circuit.name}/w{word_length}"
        config = AnalysisConfig(
            word_length=word_length,
            horizon=8,
            mc_samples=self.MC_SAMPLES,
            seed=self._draw_seed(),
            mc_workers=None,
        )

        def timed() -> Any:
            return ra.NoiseAnalysisPipeline(config).analyze(circuit)

        def digest(report: Any) -> List[str]:
            return [
                f"{label}|{method}|{report.results[method].noise_power!r}"
                f"|{report.results[method].lower!r}|{report.results[method].upper!r}"
                for method in ANALYTIC_METHODS
            ]

        def check(report: Any) -> Tuple[List[Verdict], List[str]]:
            errors: List[str] = []
            missing = [m for m in (*ANALYTIC_METHODS, "montecarlo") if m not in report.results]
            if missing:
                return [Verdict(label, ok=False)], [f"{label}: methods missing: {missing}"]
            mc = report.results["montecarlo"]
            if int(mc.extra.get("samples", 0)) != self.MC_SAMPLES:
                errors.append(f"{label}: MC drew {mc.extra.get('samples')} samples")
            figures = [mc.noise_power] + [report.results[m].noise_power for m in ANALYTIC_METHODS]
            if not all(math.isfinite(x) and x > 0.0 for x in figures):
                errors.append(f"{label}: non-finite or zero noise power")
                return [Verdict(label, ok=False)], errors
            enclosed = all(report.enclosure.get(m, False) for m in ANALYTIC_METHODS)
            ratios = []
            if _is_linear(circuit):
                ratios = [
                    report.results[m].noise_power / mc.noise_power for m in self.RATIO_METHODS
                ]
            ranges = {name: Interval(lo, hi) for name, (lo, hi) in report.ranges.items()}
            design = ensure_range_coverage(
                WordLengthAssignment.uniform(circuit.graph, word_length, ranges), ranges
            )
            if design.total_bits() != report.total_bits:
                errors.append(f"{label}: analyzed design has {report.total_bits} bits, "
                              f"rebuilt one {design.total_bits()}")
            cost = ro.HardwareCostModel(ro.COST_TABLES[self.COST_TABLE]).price(
                circuit.graph, design
            ).total
            verdict = Verdict(
                label,
                ok=enclosed,
                ratios=ratios,
                extra={
                    "circuit": circuit.name,
                    "word_length": word_length,
                    "cost": cost,
                    "mc_snr_db": mc.snr_db,
                    **({} if enclosed else {"why": "MC sample outside an analytic bound"}),
                },
            )
            return [verdict], errors

        return Op(label, timed, digest, check)

    def area_saving(self, verdicts: Sequence[Verdict]) -> float | None:
        """Saving of analysis-guided uniform sizing, per circuit, averaged.

        This workload makes no optimized designs.  For each circuit the
        design a user would sign off is the narrowest analyzed word
        length whose measured (MC) SNR meets the 60 dB floor; its saving
        is measured against the widest analyzed word length (0 when no
        analyzed width meets the floor).
        """
        by_circuit: Dict[str, Dict[int, Verdict]] = {}
        for verdict in verdicts:
            if "circuit" in verdict.extra:
                by_circuit.setdefault(verdict.extra["circuit"], {})[
                    verdict.extra["word_length"]
                ] = verdict
        savings = []
        for widths in by_circuit.values():
            widest = widths[max(widths)].extra["cost"]
            saving = 0.0
            for width in sorted(widths):
                if widths[width].extra["mc_snr_db"] >= self.FLOOR_DB:
                    saving = 1.0 - widths[width].extra["cost"] / widest
                    break
            savings.append(saving)
        return sum(savings) / len(savings) if savings else None


WORKLOADS: Dict[str, type[Workload]] = {
    OptSuite.name: OptSuite,
    OptScale.name: OptScale,
    AnalyzeMC.name: AnalyzeMC,
}

#: Spans and counters each workload must fire in a traced run.  A
#: rename in the program that silently bypasses a wrapper fails here
#: instead of zeroing a layer.
EXPECTED_TRACE: Dict[str, Tuple[str, ...]] = {
    "opt_suite": (
        "optimize.greedy",
        "optimize.anneal",
        "optimize.cost.price",
        "optimize.cost.reprice",
        "optimize.cost.affected_by",
        "optimize.predicted_noise_increase",
        "optimize.with_fractional_bits",
        "dfg.successors.calls",
        "optimize.evaluate",
        "optimize.evaluate.hits",
        "optimize.accepted_moves",
        "analysis.incremental.noise_power",
        "analysis.incremental.nodes_recomputed",
        "analysis.batched.price_moves",
        "analysis.batched.price_moves.moves",
        "analysis.affine_error_pdf",
        "histogram.combine_histograms",
        "optimize.pareto_front",
        "analysis.monte_carlo",
        "analysis.monte_carlo.samples",
        "dfg.simulate_fixed_point_batch",
        "dfg.infer_ranges",
        "dfg.unroll_sequential",
        "noisemodel.transfer_gains",
    ),
    "opt_scale": (
        "optimize.greedy",
        "optimize.decomposed",
        "optimize.cost.price",
        "optimize.cost.reprice",
        "optimize.cost.affected_by",
        "optimize.predicted_noise_increase",
        "optimize.with_fractional_bits",
        "dfg.successors.calls",
        "optimize.evaluate",
        "optimize.accepted_moves",
        "analysis.incremental.noise_power",
        "analysis.incremental.nodes_recomputed",
        "analysis.monte_carlo",
        "dfg.simulate_fixed_point_batch",
        "dfg.infer_ranges",
        "noisemodel.transfer_gains",
        "dfg.partition_graph",
        "dfg.extract_partition",
        "dfg.partition.cut_signals",
        "jobs.run",
        "jobs.run.jobs",
        "jobs.checkpoint_save",
        "jobs.checkpoint_save.bytes",
    ),
    "analyze_mc": (
        *(f"noisemodel.analyze.{method}" for method in ANALYTIC_METHODS),
        "analysis.monte_carlo",
        "analysis.monte_carlo.samples",
        "dfg.simulate_fixed_point_batch",
        "dfg.infer_ranges",
        "dfg.unroll_sequential",
        "histogram.combine_histograms",
        "analysis.affine_error_pdf",
    ),
}
