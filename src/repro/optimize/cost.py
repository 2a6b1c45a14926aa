"""HLS hardware cost model: pricing a word-length assignment per operator.

The optimizers need an objective that reacts to every fractional bit they
shave, so the model prices each dataflow node from the *operand* word
lengths of the assignment, using classic resource shapes:

* ripple-carry adders / subtractors grow linearly in the wider operand;
* array multipliers grow with the product of the operand widths (a
  squarer reuses the symmetric half of its partial-product array);
* dividers are multiplier-shaped with a larger per-cell constant;
* every arithmetic op additionally pays per *result* bit for its
  rounding logic and output drivers (``result_per_bit``), so the format
  a node rounds into is priced even when no downstream op is widened;
* delay registers store their *source's* word (a register forwards an
  already-quantized value, so it is priced at the stored width — shaving
  a register's own nominal format is neither a hardware saving nor a
  noise source);
* constants cost ROM/wiring per stored bit; I/O ports are free.

Cost-table format
-----------------
A :class:`CostTable` is a plain frozen dataclass of non-negative
coefficients (area units per bit, per partial-product cell, or per
operator).  Two reference tables ship with the package —
``DEFAULT_COST_TABLE`` (4-input-LUT FPGA flavored) and
``ASIC_COST_TABLE`` (NAND2-equivalent gate counts) — and any calibration
can be supplied via ``CostTable.from_dict`` or a literal ``CostTable``:

>>> CostTable.from_dict({"name": "my-lib", "mul_per_bit_pair": 1.5})
CostTable(name='my-lib', ...)

Every coefficient must be ``>= 0`` so the model stays *monotone*: adding
bits anywhere can never make the design cheaper.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from repro.dfg.graph import DFG
from repro.dfg.node import Node, OpType
from repro.errors import OptimizationError
from repro.fixedpoint.format import FixedPointFormat
from repro.noisemodel.assignment import WordLengthAssignment, diff_formats

__all__ = [
    "CostTable",
    "CostBreakdown",
    "HardwareCostModel",
    "DEFAULT_COST_TABLE",
    "ASIC_COST_TABLE",
    "COST_TABLES",
]


@dataclass(frozen=True)
class CostTable:
    """Per-operator area coefficients (see module docstring for the format)."""

    name: str = "custom"
    add_per_bit: float = 1.0  # full adder cell, per result bit
    mul_per_bit_pair: float = 0.55  # partial-product cell, per Wa*Wb
    div_per_bit_pair: float = 2.2  # restoring-divider cell, per Wa*Wb
    sqrt_per_bit_pair: float = 1.2  # digit-recurrence root cell, per W*(W+1)/2
    exp_per_bit_pair: float = 0.9  # table + interpolation multiplier, per W^2
    log_per_bit_pair: float = 0.9  # table + interpolation multiplier, per W^2
    neg_per_bit: float = 0.45  # two's-complement negate, per bit
    abs_per_bit: float = 0.5  # conditional negate (sign mux + adder), per bit
    minmax_per_bit: float = 1.1  # comparator + 2:1 select, per bit
    mux_per_bit: float = 0.5  # sign-predicated 2:1 select, per data bit
    register_per_bit: float = 0.6  # flip-flop, per stored bit
    const_per_bit: float = 0.12  # ROM / hardwired constant, per bit
    result_per_bit: float = 0.3  # rounding logic + output drivers, per result bit
    op_overhead: float = 2.0  # fixed control & steering per arithmetic op

    def __post_init__(self) -> None:
        for key, value in asdict(self).items():
            if key == "name":
                continue
            if float(value) < 0.0:
                raise OptimizationError(
                    f"cost-table coefficient {key} must be >= 0, got {value!r}"
                )

    def scaled(self, factor: float, name: str | None = None) -> "CostTable":
        """A copy with every coefficient multiplied by ``factor``."""
        if factor < 0.0:
            raise OptimizationError(f"scale factor must be >= 0, got {factor}")
        fields = {
            key: value * factor for key, value in asdict(self).items() if key != "name"
        }
        return CostTable(name=name or f"{self.name}*{factor:g}", **fields)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CostTable":
        """Build a table from a plain mapping (unknown keys raise)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = [k for k in data if k not in known]
        if unknown:
            raise OptimizationError(
                f"unknown cost-table key(s): {', '.join(sorted(unknown))}; "
                f"known keys: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view (JSON-friendly)."""
        return asdict(self)


#: LUT-flavored default calibration (relative area units).
DEFAULT_COST_TABLE = CostTable(name="lut4-fpga")

#: NAND2-equivalent gate counts for a generic standard-cell flow.
ASIC_COST_TABLE = CostTable(
    name="asic-nand2",
    add_per_bit=9.0,
    mul_per_bit_pair=6.0,
    div_per_bit_pair=24.0,
    sqrt_per_bit_pair=13.0,
    exp_per_bit_pair=9.5,
    log_per_bit_pair=9.5,
    neg_per_bit=4.5,
    abs_per_bit=5.0,
    minmax_per_bit=10.0,
    mux_per_bit=4.0,
    register_per_bit=8.0,
    const_per_bit=0.5,
    result_per_bit=2.5,
    op_overhead=6.0,
)

#: Named reference tables, selectable from CLIs.
COST_TABLES: Dict[str, CostTable] = {
    "lut4": DEFAULT_COST_TABLE,
    "asic": ASIC_COST_TABLE,
}


@dataclass(frozen=True)
class CostBreakdown:
    """Total and per-node / per-op-class area of one priced design."""

    total: float
    per_node: Dict[str, float] = field(default_factory=dict)
    per_op: Dict[str, float] = field(default_factory=dict)

    def dominant(self, count: int = 5) -> list[tuple[str, float]]:
        """The ``count`` most expensive nodes, descending."""
        ranked = sorted(self.per_node.items(), key=lambda item: item[1], reverse=True)
        return ranked[:count]

    def to_dict(self) -> dict:
        """JSON-serializable view."""
        return {
            "total": self.total,
            "per_node": dict(self.per_node),
            "per_op": dict(self.per_op),
        }


#: A node's area before rounding: ``shape(coef, operand widths)``.
Shape = Callable[[float, Sequence[int]], float]


def _linear(coef: float, widths: Sequence[int]) -> float:
    return coef * widths[0]


#: Per arithmetic op: the table coefficient it pays and the shape of the
#: operand widths it pays it on.  Every arithmetic op also pays
#: ``op_overhead + result_per_bit * (own word length)`` for rounding.
_ARITHMETIC: Dict[OpType, Tuple[str, Shape]] = {
    OpType.ADD: ("add_per_bit", lambda coef, w: coef * max(w)),
    OpType.SUB: ("add_per_bit", lambda coef, w: coef * max(w)),
    OpType.NEG: ("neg_per_bit", _linear),
    OpType.ABS: ("abs_per_bit", _linear),
    OpType.MUL: ("mul_per_bit_pair", lambda coef, w: coef * w[0] * w[1]),
    # A squarer reuses the symmetric half of its partial-product array.
    OpType.SQUARE: ("mul_per_bit_pair", lambda coef, w: coef * (w[0] * (w[0] + 1)) / 2.0),
    OpType.DIV: ("div_per_bit_pair", lambda coef, w: coef * w[0] * w[1]),
    OpType.SQRT: ("sqrt_per_bit_pair", lambda coef, w: coef * (w[0] * (w[0] + 1)) / 2.0),
    OpType.EXP: ("exp_per_bit_pair", lambda coef, w: coef * w[0] * w[0]),
    OpType.LOG: ("log_per_bit_pair", lambda coef, w: coef * w[0] * w[0]),
    OpType.MIN: ("minmax_per_bit", lambda coef, w: coef * max(w)),
    OpType.MAX: ("minmax_per_bit", lambda coef, w: coef * max(w)),
    # The select contributes only its sign bit; the datapath pays per
    # bit of the wider forwarded operand.
    OpType.MUX: ("mux_per_bit", lambda coef, w: coef * max(w[1], w[2])),
}


class _PlanEntry(NamedTuple):
    """How to price one node.

    The area is ``shape(coef, widths of sources)``, plus the rounding
    stage ``overhead + per_result_bit * width of own`` when ``own`` is set.
    """

    shape: Shape
    coef: float
    own: str | None  # format the node rounds into (arithmetic ops only)
    sources: Tuple[str, ...]  # formats whose widths ``shape`` reads
    overhead: float
    per_result_bit: float
    op: str  # OpType value, the per_op key

    def cost(self, formats: Mapping[str, FixedPointFormat]) -> float:
        """Area under ``formats``; raises ``KeyError`` naming a missing format."""
        shape, coef, own, sources, overhead, per_result_bit, _op = self
        area = shape(coef, [formats[name].word_length for name in sources])
        if own is None:
            return area
        return overhead + per_result_bit * formats[own].word_length + area

    def reads(self) -> Tuple[str, ...]:
        """Every format name the price of this entry depends on."""
        return self.sources if self.own is None else (self.own, *self.sources)


class _PricePlan:
    """One graph compiled against one cost table: an entry per node, in graph order.

    Besides the entries it keeps the design it priced last: a copy of its
    formats and the cost of every entry, so the next design re-prices
    only the entries reading a format that changed.
    """

    def __init__(self, graph: DFG, table: CostTable) -> None:
        self.table = table
        self.mutations = graph.mutations
        self.names = graph.names()
        self.entries = [self._compile(graph, node, table) for node in graph]
        self.by_name: Dict[str, _PlanEntry] = dict(zip(self.names, self.entries))
        #: Format name -> indices of the entries whose price reads it.
        self.readers: Dict[str, List[int]] = {}
        for index, entry in enumerate(self.entries):
            for name in dict.fromkeys(entry.reads()):
                self.readers.setdefault(name, []).append(index)
        self.formats: Dict[str, FixedPointFormat] | None = None
        self.costs: List[float] = []

    @staticmethod
    def _compile(graph: DFG, node: Node, table: CostTable) -> _PlanEntry:
        op = node.op
        if op in (OpType.INPUT, OpType.OUTPUT):
            return _PlanEntry(lambda coef, w: 0.0, 0.0, None, (), 0.0, 0.0, op.value)
        if op is OpType.CONST:
            # A constant stores its own word.
            return _PlanEntry(_linear, table.const_per_bit, None, (node.name,), 0.0, 0.0, op.value)
        if op is OpType.DELAY:
            source = _resolve_delays(graph, node.name)
            return _PlanEntry(_linear, table.register_per_bit, None, (source,), 0.0, 0.0, op.value)
        spec = _ARITHMETIC.get(op)
        if spec is None:  # pragma: no cover - every OpType is listed above
            raise OptimizationError(f"cannot price operation {op!r}")
        coefficient, shape = spec
        return _PlanEntry(
            shape,
            getattr(table, coefficient),
            node.name,
            tuple(_resolve_delays(graph, operand) for operand in node.inputs),
            table.op_overhead,
            table.result_per_bit,
            op.value,
        )

    def update(self, formats: Mapping[str, FixedPointFormat]) -> None:
        """Bring :attr:`costs` up to date with ``formats`` (all or nothing)."""
        if self.formats is None:
            self.costs = [entry.cost(formats) for entry in self.entries]
        else:
            stale: Dict[int, None] = {}
            for name in diff_formats(formats, self.formats):
                stale.update(dict.fromkeys(self.readers.get(name, ())))
            entries = self.entries
            fresh = [(i, entries[i].cost(formats)) for i in stale]
            costs = self.costs
            for i, cost in fresh:
                costs[i] = cost
        self.formats = dict(formats)

    def breakdown(self) -> CostBreakdown:
        """The last priced design's breakdown, summed in graph order.

        The total and each per-op sum are one left-to-right ``+=`` pass
        over the nodes, so they never depend on which entries were
        re-priced; free nodes are left out.
        """
        per_node: Dict[str, float] = {}
        per_op: Dict[str, float] = {}
        total = 0.0
        for name, entry, cost in zip(self.names, self.entries, self.costs):
            if cost == 0.0:
                continue
            per_node[name] = cost
            per_op[entry.op] = per_op.get(entry.op, 0.0) + cost
            total += cost
        return CostBreakdown(total=total, per_node=per_node, per_op=per_op)


def _resolve_delays(graph: DFG, name: str) -> str:
    """The node whose word ``name`` presents to its consumers.

    DELAY chains are resolved to the producing node: a register forwards
    its source's already-quantized word, so its own nominal format is
    irrelevant to both the noise model and the hardware.
    """
    seen = set()
    while graph.node(name).op is OpType.DELAY:
        if name in seen:
            raise OptimizationError(f"delay cycle through {name!r}; cannot size the register")
        seen.add(name)
        name = graph.node(name).inputs[0]
    return name


def _missing_format(exc: KeyError) -> OptimizationError:
    return OptimizationError(
        f"node {exc.args[0]!r} has no fixed-point format to price; the cost model "
        "needs an assignment covering every non-OUTPUT node"
    )


class HardwareCostModel:
    """Prices a :class:`WordLengthAssignment` on a dataflow graph.

    Sequential designs are priced on the *original* (rolled) graph — the
    hardware is one instance of each operator plus the delay registers,
    regardless of the unrolling horizon the error analysis uses.

    Each graph is compiled once into a pricing plan (one entry per node:
    its coefficients, its own format and its operands' formats, DELAY
    chains resolved), rebuilt when the graph is written to.  The plan
    also keeps the per-node costs of the design the model priced last on
    that graph, so pricing the next design re-computes only the nodes
    that read a changed format; the total is still summed over every
    node in graph order, so it does not depend on what was priced before.
    """

    def __init__(self, table: CostTable = DEFAULT_COST_TABLE) -> None:
        self.table = table
        self._plans: weakref.WeakKeyDictionary[DFG, _PricePlan] = weakref.WeakKeyDictionary()

    def __getstate__(self) -> dict:
        # Plans are derived data (and weakly keyed): rebuilt on demand.
        state = dict(self.__dict__)
        del state["_plans"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._plans = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ #
    def _plan(self, graph: DFG) -> _PricePlan:
        plan = self._plans.get(graph)
        if plan is None or plan.mutations != graph.mutations or plan.table is not self.table:
            plan = _PricePlan(graph, self.table)
            self._plans[graph] = plan
        return plan

    def _priced(self, graph: DFG, assignment: WordLengthAssignment) -> _PricePlan:
        plan = self._plan(graph)
        try:
            plan.update(assignment.formats)
        except KeyError as exc:
            raise _missing_format(exc) from None
        return plan

    def _entry(self, graph: DFG, name: str) -> _PlanEntry:
        entry = self._plan(graph).by_name.get(name)
        if entry is None:
            graph.node(name)  # raises NodeNotFoundError
        return entry

    def reads(self, graph: DFG, name: str) -> Tuple[str, ...]:
        """Names of the formats :meth:`node_cost` reads to price ``name``.

        An arithmetic node's own result format, then each operand's with
        DELAY chains resolved to the producer whose word the register
        forwards; a register reads only that producer's, a constant only
        its own, a port nothing.
        """
        return self._entry(graph, name).reads()

    def node_cost(self, graph: DFG, node: Node, assignment: WordLengthAssignment) -> float:
        """Area of one node under ``assignment`` (0 for pure ports)."""
        entry = self._entry(graph, node.name)
        try:
            return entry.cost(assignment.formats)
        except KeyError as exc:
            raise _missing_format(exc) from None

    def price(self, graph: DFG, assignment: WordLengthAssignment) -> CostBreakdown:
        """Price the whole design and return the breakdown."""
        return self._priced(graph, assignment).breakdown()

    def total(self, graph: DFG, assignment: WordLengthAssignment) -> float:
        """Total area only: exactly ``price(graph, assignment).total``."""
        return self._priced(graph, assignment).breakdown().total

    @staticmethod
    def affected_by(graph: DFG, node: str) -> list[str]:
        """Nodes whose price can change when ``node``'s format changes.

        The node itself, its direct consumers (operand widths), and —
        because registers forward their source's width — everything a
        downstream DELAY chain re-exposes that width to.  Listed in
        discovery order, so sums over them do not depend on string
        hashing (``PYTHONHASHSEED``).
        """
        affected = {node: None}
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for successor in graph.successors(current):
                if successor in affected:
                    continue
                affected[successor] = None
                if graph.node(successor).op is OpType.DELAY:
                    frontier.append(successor)
        return list(affected)

    def reprice(
        self,
        graph: DFG,
        before: WordLengthAssignment,
        after: WordLengthAssignment,
        nodes: Iterable[str],
    ) -> float:
        """Cost delta (after - before) when only ``nodes`` can have changed.

        Pass :meth:`affected_by` of every mutated node; equals
        ``total(after) - total(before)`` at a fraction of the price.
        The delta is summed in the order of ``nodes``.
        """
        by_name = self._plan(graph).by_name
        before_formats, after_formats = before.formats, after.formats
        delta = 0.0
        try:
            for name in nodes:
                entry = by_name.get(name) or self._entry(graph, name)
                delta += entry.cost(after_formats) - entry.cost(before_formats)
        except KeyError as exc:
            raise _missing_format(exc) from None
        return delta

    def with_table(self, table: CostTable) -> "HardwareCostModel":
        """A model over a different cost table."""
        return HardwareCostModel(table)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HardwareCostModel(table={self.table.name!r})"
