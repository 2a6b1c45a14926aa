"""Evaluation and simulation of dataflow graphs.

Three evaluation modes cover the needs of the analyses:

* :func:`evaluate_combinational` — single-shot evaluation of a
  combinational graph in *any* algebra (floats, intervals, affine forms,
  Taylor models, histogram PDFs).  This is what the IA / AA / sequential
  SNA analyses call.
* :func:`simulate` — time-stepped floating-point simulation of sequential
  graphs (delay registers hold state between steps).
* :func:`simulate_fixed_point` — the same time-stepped simulation, but
  every node's result is quantized into its assigned fixed-point format,
  yielding the bit-true behaviour the analytic noise models are validated
  against.

The batched simulators (:func:`simulate_batch`,
:func:`simulate_fixed_point_batch`) run a whole sample batch as numpy
vectors.  They stream it: nodes run in demand (DFS post-) order and each
value is freed after its last reader, so memory is about (peak live
values) x batch x 8 bytes, not (nodes) x batch x 8 bytes.  They never
write into a caller's array: stimulus may be reused or read-only.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping

import numpy as np

from repro.dfg.graph import DFG
from repro.dfg.node import Node, OpType
from repro.errors import CycleError, DFGError, DomainError
from repro.fixedpoint.format import FixedPointFormat, OverflowMode, QuantizationMode
from repro.fixedpoint.quantize import quantize, quantize_array
from repro.intervals.interval import Interval

__all__ = [
    "evaluate_combinational",
    "simulate",
    "simulate_fixed_point",
    "simulate_batch",
    "simulate_fixed_point_batch",
    "SimulationResult",
]


def _minimum(a: Any, b: Any) -> Any:
    """Elementwise/algebra ``min`` with duck-typed dispatch (symmetric)."""
    if hasattr(a, "minimum"):
        return a.minimum(b)
    if hasattr(b, "minimum"):
        return b.minimum(a)
    return np.minimum(a, b)


def _maximum(a: Any, b: Any) -> Any:
    """Elementwise/algebra ``max`` with duck-typed dispatch (symmetric)."""
    if hasattr(a, "maximum"):
        return a.maximum(b)
    if hasattr(b, "maximum"):
        return b.maximum(a)
    return np.maximum(a, b)


def _mux(select: Any, a: Any, b: Any) -> Any:
    """``select >= 0 ? a : b`` for floats, arrays and intervals.

    An interval selector whose sign is not decided yields the hull of
    both branches (the enclosure algebras in the noise analyzer refine
    this; plain evaluation only needs a sound range).
    """
    if isinstance(select, Interval):
        if select.lo >= 0.0:
            return a
        if select.hi < 0.0:
            return b
        a_iv = a if isinstance(a, Interval) else Interval.point(float(a))
        return a_iv.hull(b if isinstance(b, Interval) else Interval.point(float(b)))
    if isinstance(select, (int, float)):
        return a if select >= 0.0 else b
    return np.where(np.asarray(select) >= 0.0, a, b)


def _apply_op(node: Node, operands: list[Any]) -> Any:
    try:
        return _apply_op_raw(node, operands)
    except DomainError as exc:
        if exc.node is not None:
            raise
        raise DomainError(f"node {node.name!r} ({node.op.value}): {exc}", node=node.name) from exc


def _apply_op_raw(node: Node, operands: list[Any]) -> Any:
    if node.op is OpType.ADD:
        return operands[0] + operands[1]
    if node.op is OpType.SUB:
        return operands[0] - operands[1]
    if node.op is OpType.MUL:
        return operands[0] * operands[1]
    if node.op is OpType.DIV:
        return operands[0] / operands[1]
    if node.op is OpType.NEG:
        return -operands[0]
    if node.op is OpType.SQUARE:
        value = operands[0]
        if hasattr(value, "square"):
            return value.square()
        return value * value
    if node.op is OpType.SQRT:
        value = operands[0]
        return value.sqrt() if hasattr(value, "sqrt") else np.sqrt(value)
    if node.op is OpType.EXP:
        value = operands[0]
        return value.exp() if hasattr(value, "exp") else np.exp(value)
    if node.op is OpType.LOG:
        value = operands[0]
        return value.log() if hasattr(value, "log") else np.log(value)
    if node.op is OpType.ABS:
        return abs(operands[0])
    if node.op is OpType.MIN:
        return _minimum(operands[0], operands[1])
    if node.op is OpType.MAX:
        return _maximum(operands[0], operands[1])
    if node.op is OpType.MUX:
        return _mux(operands[0], operands[1], operands[2])
    if node.op is OpType.OUTPUT:
        return operands[0]
    raise DFGError(f"unsupported operation {node.op!r} in evaluation")


def evaluate_combinational(
    graph: DFG,
    inputs: Mapping[str, Any],
    delay_values: Mapping[str, Any] | None = None,
) -> Dict[str, Any]:
    """Evaluate every node of a (combinational view of a) graph once.

    ``inputs`` maps input-port names to values in the chosen algebra.
    ``delay_values`` supplies the current outputs of delay registers (all
    zero by default), which makes this function usable as the inner step
    of the sequential simulators.

    Returns a mapping of node name to value for *all* nodes.
    """
    missing = [name for name in graph.inputs() if name not in inputs]
    if missing:
        raise DFGError(f"missing input values for: {', '.join(sorted(missing))}")
    delay_values = dict(delay_values or {})

    values: Dict[str, Any] = {}
    for name in graph.topological_order():
        node = graph.node(name)
        if node.op is OpType.INPUT:
            values[name] = inputs[name]
        elif node.op is OpType.CONST:
            values[name] = float(node.value)
        elif node.op is OpType.DELAY:
            values[name] = delay_values.get(name, 0.0)
        else:
            operands = [values[operand] for operand in node.inputs]
            values[name] = _apply_op(node, operands)
    return values


class SimulationResult:
    """Time series produced by :func:`simulate` / :func:`simulate_fixed_point`."""

    def __init__(self, node_series: Dict[str, np.ndarray], outputs: list[str]) -> None:
        self.node_series = node_series
        self.output_names = outputs

    def output(self, name: str | None = None) -> np.ndarray:
        """Series of an output node (the single output when unnamed)."""
        if name is None:
            if len(self.output_names) != 1:
                raise DFGError(
                    f"graph has {len(self.output_names)} outputs; specify which one you want"
                )
            name = self.output_names[0]
        if name not in self.node_series:
            raise DFGError(f"unknown output {name!r}")
        return self.node_series[name]

    def node(self, name: str) -> np.ndarray:
        """Series of any node."""
        if name not in self.node_series:
            raise DFGError(f"unknown node {name!r}")
        return self.node_series[name]

    @property
    def length(self) -> int:
        """Number of simulated time steps."""
        if not self.node_series:
            return 0
        return len(next(iter(self.node_series.values())))


def _as_series(
    graph: DFG, inputs: Mapping[str, Any], length: int | None
) -> tuple[Dict[str, np.ndarray], int]:
    series: Dict[str, np.ndarray] = {}
    resolved_length = length
    for name in graph.inputs():
        if name not in inputs:
            raise DFGError(f"missing input series for {name!r}")
        value = np.atleast_1d(np.asarray(inputs[name], dtype=float))
        series[name] = value
        if value.size > 1:
            if resolved_length is None:
                resolved_length = value.size
            elif value.size != resolved_length:
                raise DFGError(
                    f"input {name!r} has length {value.size}, expected {resolved_length}"
                )
    if resolved_length is None:
        resolved_length = 1
    for name, value in series.items():
        if value.size == 1:
            series[name] = np.full(resolved_length, float(value[0]))
    return series, resolved_length


def simulate(
    graph: DFG,
    inputs: Mapping[str, Any],
    length: int | None = None,
    record_all: bool = True,
) -> SimulationResult:
    """Floating-point time-stepped simulation of a (possibly sequential) graph.

    ``inputs`` maps each input port either to a scalar (held constant) or
    to a 1-D series; delay registers start at zero.
    """
    series, steps = _as_series(graph, inputs, length)
    order = graph.topological_order()
    delay_state: Dict[str, float] = {name: 0.0 for name in graph.delays()}
    recorded: Dict[str, np.ndarray] = {
        name: np.zeros(steps) for name in (graph.names() if record_all else graph.outputs())
    }

    for t in range(steps):
        values: Dict[str, float] = {}
        for name in order:
            node = graph.node(name)
            if node.op is OpType.INPUT:
                values[name] = float(series[name][t])
            elif node.op is OpType.CONST:
                values[name] = float(node.value)
            elif node.op is OpType.DELAY:
                values[name] = delay_state[name]
            else:
                values[name] = float(_apply_op(node, [values[op] for op in node.inputs]))
        for name in graph.delays():
            source = graph.node(name).inputs[0]
            delay_state[name] = values[source]
        for name in recorded:
            recorded[name][t] = values[name]
    return SimulationResult(recorded, graph.outputs())


def simulate_fixed_point(
    graph: DFG,
    inputs: Mapping[str, Any],
    formats: Mapping[str, FixedPointFormat],
    quantization: QuantizationMode | str = QuantizationMode.ROUND,
    overflow: OverflowMode | str = OverflowMode.SATURATE,
    length: int | None = None,
    quantize_inputs: bool = True,
    record_all: bool = False,
) -> SimulationResult:
    """Bit-true fixed-point simulation of a graph.

    Every node listed in ``formats`` has its result quantized into that
    format after each evaluation (nodes without an entry are kept at full
    precision, which models an exact wide intermediate).  The result is
    the actual finite-precision behaviour of the datapath, used as the
    reference the SNA error predictions are checked against.
    """
    quantization = QuantizationMode.coerce(quantization)
    overflow = OverflowMode.coerce(overflow)
    series, steps = _as_series(graph, inputs, length)
    order = graph.topological_order()
    delay_state: Dict[str, float] = {name: 0.0 for name in graph.delays()}
    recorded_names = graph.names() if record_all else graph.outputs()
    recorded: Dict[str, np.ndarray] = {name: np.zeros(steps) for name in recorded_names}

    def maybe_quantize(name: str, value: float) -> float:
        fmt = formats.get(name)
        if fmt is None:
            return value
        return quantize(value, fmt, quantization, overflow)

    for t in range(steps):
        values: Dict[str, float] = {}
        for name in order:
            node = graph.node(name)
            if node.op is OpType.INPUT:
                raw = float(series[name][t])
                values[name] = maybe_quantize(name, raw) if quantize_inputs else raw
            elif node.op is OpType.CONST:
                values[name] = maybe_quantize(name, float(node.value))
            elif node.op is OpType.DELAY:
                values[name] = delay_state[name]
            else:
                raw = float(_apply_op(node, [values[op] for op in node.inputs]))
                values[name] = maybe_quantize(name, raw)
        for name in graph.delays():
            source = graph.node(name).inputs[0]
            delay_state[name] = values[source]
        for name in recorded:
            recorded[name][t] = values[name]
    return SimulationResult(recorded, graph.outputs())


# --------------------------------------------------------------------- #
# batched (vectorized) simulation
# --------------------------------------------------------------------- #
def _as_batch_series(
    graph: DFG, inputs: Mapping[str, Any], steps: int | None
) -> tuple[Dict[str, np.ndarray], int, int]:
    """Normalize per-input sample data to ``(batch, steps)`` matrices.

    Every input may be given as a scalar (held constant over batch and
    time), a ``(batch,)`` vector (held constant over time) or a
    ``(batch, steps)`` matrix (one time series per sample).  Size-1 batch
    or step axes broadcast against the sizes the other inputs establish.
    """
    series: Dict[str, np.ndarray] = {}
    batch = 1
    resolved_steps = steps
    for name in graph.inputs():
        if name not in inputs:
            raise DFGError(f"missing input samples for {name!r}")
        value = np.asarray(inputs[name], dtype=float)
        if value.ndim == 0:
            value = value.reshape(1)
        if value.ndim == 1:
            value = value[:, None]
        if value.ndim != 2:
            raise DFGError(f"input {name!r} must be a (batch,) or (batch, steps) array")
        if value.shape[0] > 1:
            if batch == 1:
                batch = value.shape[0]
            elif value.shape[0] != batch:
                raise DFGError(
                    f"input {name!r} has batch size {value.shape[0]}, expected {batch}"
                )
        if value.shape[1] > 1:
            if resolved_steps is None:
                resolved_steps = value.shape[1]
            elif value.shape[1] != resolved_steps:
                raise DFGError(
                    f"input {name!r} has {value.shape[1]} steps, expected {resolved_steps}"
                )
        series[name] = value
    if resolved_steps is None:
        resolved_steps = 1
    for name, value in series.items():
        if value.shape != (batch, resolved_steps):
            series[name] = np.broadcast_to(value, (batch, resolved_steps))
    return series, batch, resolved_steps


def _demand_order(graph: DFG) -> List[str]:
    """Every node once, each after its operands, in DFS post-order.

    The walk starts from the outputs and the delay registers' sources,
    then from every remaining name, so a value is computed close to its
    readers and few sample vectors are alive at once (Kahn order, as in
    :meth:`DFG.topological_order`, computes whole graph levels first).
    Delay nodes are leaves: their value is last step's state.  The walk
    is iterative because sequential chains run to thousands of nodes.
    """

    def operands(name: str) -> Iterator[str]:
        node = graph.node(name)
        return iter(() if node.op is OpType.DELAY else node.inputs)

    sources = [graph.node(name).inputs[0] for name in graph.delays()]
    roots = graph.outputs() + sources + graph.names()
    order: List[str] = []
    done: set[str] = set()
    on_path: set[str] = set()
    for root in roots:
        if root in done:
            continue
        on_path.add(root)
        stack = [(root, operands(root))]
        while stack:
            name, pending = stack[-1]
            for operand in pending:
                if operand in on_path:
                    raise CycleError(
                        f"combinational cycle detected involving nodes: {operand}, {name}"
                    )
                if operand not in done:
                    on_path.add(operand)
                    stack.append((operand, operands(operand)))
                    break
            else:
                stack.pop()
                on_path.discard(name)
                done.add(name)
                order.append(name)
    return order


def _simulate_batch_core(
    graph: DFG,
    inputs: Mapping[str, Any],
    steps: int | None,
    formats: Mapping[str, FixedPointFormat] | None,
    quantization: QuantizationMode,
    overflow: OverflowMode,
    quantize_inputs: bool,
    record: Any,
) -> Dict[str, np.ndarray]:
    """Stream a batch through the graph, freeing each value after its last read.

    Nodes run in :func:`_demand_order`; each step deletes a value at the
    schedule position of its last reader (an unread value right after it
    is computed), so peak memory is about (peak live values) x batch x
    8 bytes rather than (nodes) x batch x 8 bytes.  Recorded values,
    delay sources and delay state live to the end of the step.
    """
    series, batch, resolved_steps = _as_batch_series(graph, inputs, steps)
    formats = dict(formats or {})
    if record is None:
        recorded_names = graph.outputs()
    elif record == "all":
        recorded_names = graph.names()
    elif isinstance(record, str):
        recorded_names = [record]
    else:
        recorded_names = list(record)
    for recorded in recorded_names:
        if recorded not in graph:
            raise DFGError(f"cannot record unknown node {recorded!r}")

    order = _demand_order(graph)
    delay_sources = {name: graph.node(name).inputs[0] for name in graph.delays()}
    keep = set(recorded_names) | set(delay_sources) | set(delay_sources.values())
    last_reader = {name: position for position, name in enumerate(order)}
    for position, name in enumerate(order):
        node = graph.node(name)
        if node.op is not OpType.DELAY:
            for operand in node.inputs:
                last_reader[operand] = position
    dead_after: list[list[str]] = [[] for _ in order]
    for name, position in last_reader.items():
        if name not in keep:
            dead_after[position].append(name)
    plan = [
        (name, graph.node(name), formats.get(name), dead) for name, dead in zip(order, dead_after)
    ]

    def maybe_quantize(fmt: FixedPointFormat | None, value: np.ndarray) -> np.ndarray:
        if fmt is None:
            return value
        return quantize_array(value, fmt, quantization, overflow)

    delay_state: Dict[str, np.ndarray] = {name: np.zeros(batch) for name in delay_sources}
    for t in range(resolved_steps):
        values: Dict[str, np.ndarray] = {}
        for name, node, fmt, dead in plan:
            if node.op is OpType.INPUT:
                raw = np.asarray(series[name][:, t], dtype=float)
                values[name] = maybe_quantize(fmt, raw) if quantize_inputs else raw
            elif node.op is OpType.CONST:
                values[name] = maybe_quantize(fmt, np.full(batch, float(node.value)))
            elif node.op is OpType.DELAY:
                values[name] = delay_state[name]
            else:
                raw = _apply_op(node, [values[op] for op in node.inputs])
                values[name] = maybe_quantize(fmt, np.asarray(raw, dtype=float))
            for gone in dead:
                del values[gone]
        delay_state = {name: values[source] for name, source in delay_sources.items()}
    return {name: values[name] for name in recorded_names}


def simulate_batch(
    graph: DFG,
    inputs: Mapping[str, Any],
    steps: int | None = None,
    record: Any = None,
) -> Dict[str, np.ndarray]:
    """Vectorized floating-point simulation over a batch of sample points.

    Unlike :func:`simulate`, which walks one scalar stimulus through time,
    this evaluates *all* Monte-Carlo samples simultaneously as numpy
    vectors — the per-node work is one vectorized operation per time step
    instead of ``batch`` Python-level evaluations.  Returns the final-step
    value vector (shape ``(batch,)``) per recorded node (the graph outputs
    by default; pass ``record="all"`` for every node).  Only recorded
    values, delay sources and delay state outlive their last reader, and
    ``inputs`` are never written into.
    """
    return _simulate_batch_core(
        graph,
        inputs,
        steps,
        None,
        QuantizationMode.ROUND,
        OverflowMode.SATURATE,
        False,
        record,
    )


def simulate_fixed_point_batch(
    graph: DFG,
    inputs: Mapping[str, Any],
    formats: Mapping[str, FixedPointFormat],
    quantization: QuantizationMode | str = QuantizationMode.ROUND,
    overflow: OverflowMode | str = OverflowMode.SATURATE,
    steps: int | None = None,
    quantize_inputs: bool = True,
    record: Any = None,
) -> Dict[str, np.ndarray]:
    """Vectorized bit-true fixed-point simulation over a batch of samples.

    The batched counterpart of :func:`simulate_fixed_point`: every node
    result is quantized into its assigned format with
    :func:`~repro.fixedpoint.quantize.quantize_array`, so a full
    Monte-Carlo validation run is a handful of numpy passes rather than
    ``batch * steps`` scalar quantizations.  Memory streams as in
    :func:`simulate_batch`; quantization works in a fresh buffer and never
    writes into ``inputs``.
    """
    return _simulate_batch_core(
        graph,
        inputs,
        steps,
        formats,
        QuantizationMode.coerce(quantization),
        OverflowMode.coerce(overflow),
        quantize_inputs,
        record,
    )
