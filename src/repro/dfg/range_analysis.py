"""Interval-based range analysis of dataflow graphs.

The range analysis answers the first half of the word-length question:
how many *integer* bits does every signal need so that overflow cannot
occur for any input inside the declared input ranges?  It is the
"range width determination" step that the related work (Cmar et al.,
Lee et al.) performs with interval propagation; the fractional-bit
question is answered by the noise analysis instead.

Combinational graphs get a single exact IA forward pass.  Sequential
graphs (delay registers, possibly with feedback) are handled by iterating
the forward pass to a fixpoint: delay outputs start at ``[0, 0]`` and are
widened with the newly computed ranges each iteration.  For the stable
filters used in the case studies this converges; a maximum iteration
count plus an optional growth cap keep the analysis total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.dfg.evaluate import evaluate_combinational
from repro.dfg.graph import DFG
from repro.errors import DFGError
from repro.intervals.interval import Interval
from repro.utils.mathutils import integer_bits_for_range

__all__ = ["RangeAnalysisResult", "infer_ranges"]


@dataclass(frozen=True)
class RangeAnalysisResult:
    """Per-node value ranges plus convergence metadata."""

    ranges: Dict[str, Interval]
    iterations: int
    converged: bool

    def range_of(self, name: str) -> Interval:
        """Range of a node (raises ``KeyError`` for unknown nodes)."""
        return self.ranges[name]

    def integer_bits(self, signed: bool = True) -> Dict[str, int]:
        """Integer bits needed per node to cover its range."""
        return {
            name: integer_bits_for_range(interval.lo, interval.hi, signed=signed)
            for name, interval in self.ranges.items()
        }


def infer_ranges(
    graph: DFG,
    input_ranges: Mapping[str, Interval],
    max_iterations: int = 200,
    tolerance: float = 1e-9,
    divergence_limit: float = 1e12,
) -> RangeAnalysisResult:
    """Propagate input ranges through the graph with interval arithmetic.

    Parameters
    ----------
    graph:
        The dataflow graph (validated).
    input_ranges:
        Range of every external input.
    max_iterations:
        Fixpoint iteration bound for sequential graphs (combinational
        graphs always take exactly one pass).
    tolerance:
        Convergence threshold on the change of delay-register ranges.
    divergence_limit:
        Abort (and report non-convergence) when any bound exceeds this
        magnitude — a symptom of an unstable feedback loop, which a
        designer must fix before word-length optimization is meaningful.
    """
    missing = [name for name in graph.inputs() if name not in input_ranges]
    if missing:
        raise DFGError(f"missing input ranges for: {', '.join(sorted(missing))}")

    inputs = {name: input_ranges[name] for name in graph.inputs()}
    delay_ranges: Dict[str, Interval] = {name: Interval.point(0.0) for name in graph.delays()}

    iterations = 0
    converged = not graph.is_sequential
    values: Dict[str, Interval] = {}

    if not graph.is_sequential:
        values = evaluate_combinational(graph, inputs)
        iterations = 1
    else:
        for iterations in range(1, max_iterations + 1):
            values = evaluate_combinational(graph, inputs, delay_values=delay_ranges)
            max_change = 0.0
            new_delay_ranges: Dict[str, Interval] = {}
            for name in graph.delays():
                source = graph.node(name).inputs[0]
                source_range = _as_interval(values[source])
                widened = delay_ranges[name].hull(source_range)
                max_change = max(
                    max_change,
                    abs(widened.lo - delay_ranges[name].lo),
                    abs(widened.hi - delay_ranges[name].hi),
                )
                new_delay_ranges[name] = widened
            delay_ranges = new_delay_ranges
            if any(r.magnitude > divergence_limit for r in delay_ranges.values()):
                converged = False
                break
            if max_change <= tolerance:
                converged = True
                break
        else:
            converged = False
        # One final pass so every node reflects the settled delay ranges.
        values = evaluate_combinational(graph, inputs, delay_values=delay_ranges)

    ranges = {name: _as_interval(value) for name, value in values.items()}
    return RangeAnalysisResult(ranges=ranges, iterations=iterations, converged=converged)


def _as_interval(value: Interval | float) -> Interval:
    if isinstance(value, Interval):
        return value
    return Interval.point(float(value))

