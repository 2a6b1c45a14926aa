"""The :class:`DFG` container: nodes, edges, ordering and validation."""

from __future__ import annotations

import hashlib
import json
from collections import Counter, deque
from pathlib import Path
from typing import Dict, Iterable, Iterator, List

from repro.dfg.node import OP_ARITY, Node, OpType
from repro.errors import CycleError, DFGError, NodeNotFoundError

__all__ = ["DFG", "DFG_FORMAT"]

#: Format tag of the canonical JSON serialization of a :class:`DFG`.
DFG_FORMAT = "repro-dfg-v1"


class DFG:
    """A directed acyclic (up to delay registers) graph of operations.

    Nodes are added through the ``add_*`` helpers and referenced by name.
    Edges are implicit in each node's operand list.  Delay nodes break
    cycles: a feedback loop is legal as long as every cycle passes through
    at least one ``DELAY`` node, which is the usual definition of a
    realizable synchronous datapath.
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._op_counters: Counter = Counter()
        # Consumers per node, built on first use and dropped on every
        # write to ``_nodes``.
        self._successor_index: Dict[str, List[str]] | None = None
        #: Number of writes to the node table so far; caches derived from
        #: the graph elsewhere (e.g. cost-model pricing plans) compare it
        #: to tell whether they are stale.
        self.mutations = 0

    def _invalidate(self) -> None:
        """Drop everything derived from ``_nodes``; call after each write to it."""
        self._successor_index = None
        self.mutations += 1

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _fresh_name(self, op: OpType) -> str:
        while True:
            self._op_counters[op] += 1
            candidate = f"{op.value}{self._op_counters[op]}"
            if candidate not in self._nodes:
                return candidate

    def add_node(
        self,
        op: OpType,
        inputs: Iterable[str] = (),
        name: str | None = None,
        value: float | None = None,
        label: str = "",
    ) -> str:
        """Add a node and return its name.

        Operand names must already exist in the graph; this keeps the
        graph acyclic by construction except for edges into ``DELAY``
        nodes, whose operand may be defined later via
        :meth:`connect_delay`.
        """
        if name is None:
            name = self._fresh_name(op)
        if name in self._nodes:
            raise DFGError(f"duplicate node name {name!r}")
        inputs = tuple(inputs)
        for operand in inputs:
            if operand not in self._nodes:
                raise NodeNotFoundError(f"operand {operand!r} of node {name!r} does not exist")
        node = Node(name=name, op=op, inputs=inputs, value=value, label=label)
        self._nodes[name] = node
        self._invalidate()
        return name

    # convenience constructors ------------------------------------------------
    def add_input(self, name: str, label: str = "") -> str:
        """Add an external input port."""
        return self.add_node(OpType.INPUT, (), name=name, label=label)

    def add_const(self, value: float, name: str | None = None, label: str = "") -> str:
        """Add a constant (e.g. a filter coefficient)."""
        return self.add_node(OpType.CONST, (), name=name, value=float(value), label=label)

    def add_op(self, op: OpType, *operands: str, name: str | None = None, label: str = "") -> str:
        """Add an arithmetic operation on existing nodes."""
        return self.add_node(op, operands, name=name, label=label)

    def add_add(self, a: str, b: str, name: str | None = None) -> str:
        """Add ``a + b``."""
        return self.add_op(OpType.ADD, a, b, name=name)

    def add_sub(self, a: str, b: str, name: str | None = None) -> str:
        """Add ``a - b``."""
        return self.add_op(OpType.SUB, a, b, name=name)

    def add_mul(self, a: str, b: str, name: str | None = None) -> str:
        """Add ``a * b``."""
        return self.add_op(OpType.MUL, a, b, name=name)

    def add_div(self, a: str, b: str, name: str | None = None) -> str:
        """Add ``a / b``."""
        return self.add_op(OpType.DIV, a, b, name=name)

    def add_neg(self, a: str, name: str | None = None) -> str:
        """Add ``-a``."""
        return self.add_op(OpType.NEG, a, name=name)

    def add_square(self, a: str, name: str | None = None) -> str:
        """Add ``a ** 2`` (kept distinct from ``a * a`` for dependency-aware analyses)."""
        return self.add_op(OpType.SQUARE, a, name=name)

    def add_sqrt(self, a: str, name: str | None = None) -> str:
        """Add ``sqrt(a)`` (operand range must stay non-negative)."""
        return self.add_op(OpType.SQRT, a, name=name)

    def add_exp(self, a: str, name: str | None = None) -> str:
        """Add ``exp(a)``."""
        return self.add_op(OpType.EXP, a, name=name)

    def add_log(self, a: str, name: str | None = None) -> str:
        """Add ``log(a)`` (operand range must stay strictly positive)."""
        return self.add_op(OpType.LOG, a, name=name)

    def add_abs(self, a: str, name: str | None = None) -> str:
        """Add ``|a|``."""
        return self.add_op(OpType.ABS, a, name=name)

    def add_min(self, a: str, b: str, name: str | None = None) -> str:
        """Add ``min(a, b)``."""
        return self.add_op(OpType.MIN, a, b, name=name)

    def add_max(self, a: str, b: str, name: str | None = None) -> str:
        """Add ``max(a, b)``."""
        return self.add_op(OpType.MAX, a, b, name=name)

    def add_mux(self, select: str, a: str, b: str, name: str | None = None) -> str:
        """Add ``select >= 0 ? a : b`` (sign-predicated 2:1 selector)."""
        return self.add_op(OpType.MUX, select, a, b, name=name)

    def add_delay(self, a: str | None = None, name: str | None = None) -> str:
        """Add a unit delay register.

        The operand may be omitted and wired later with
        :meth:`connect_delay`, which is how feedback loops are described.
        """
        if a is not None:
            return self.add_op(OpType.DELAY, a, name=name)
        if name is None:
            name = self._fresh_name(OpType.DELAY)
        if name in self._nodes:
            raise DFGError(f"duplicate node name {name!r}")
        # Temporarily self-referential; must be re-wired via connect_delay.
        node = Node(name=name, op=OpType.DELAY, inputs=(name,))
        self._nodes[name] = node
        self._invalidate()
        return name

    def connect_delay(self, delay_name: str, source: str) -> None:
        """Wire (or re-wire) the operand of a delay register."""
        node = self.node(delay_name)
        if node.op is not OpType.DELAY:
            raise DFGError(f"{delay_name!r} is not a delay node")
        if source not in self._nodes:
            raise NodeNotFoundError(f"source {source!r} does not exist")
        self._nodes[delay_name] = Node(
            name=node.name, op=OpType.DELAY, inputs=(source,), label=node.label
        )
        self._invalidate()

    def add_output(self, source: str, name: str | None = None, label: str = "") -> str:
        """Mark ``source`` as an external output (through an OUTPUT node)."""
        return self.add_node(OpType.OUTPUT, (source,), name=name, label=label)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def node(self, name: str) -> Node:
        """Look a node up by name."""
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise NodeNotFoundError(f"unknown node {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def nodes(self) -> List[Node]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    def names(self) -> List[str]:
        """All node names in insertion order."""
        return list(self._nodes)

    def inputs(self) -> List[str]:
        """Names of the external input ports."""
        return [n.name for n in self if n.op is OpType.INPUT]

    def outputs(self) -> List[str]:
        """Names of the OUTPUT nodes."""
        return [n.name for n in self if n.op is OpType.OUTPUT]

    def constants(self) -> Dict[str, float]:
        """Mapping of constant node name to its value."""
        return {n.name: float(n.value) for n in self if n.op is OpType.CONST}

    def delays(self) -> List[str]:
        """Names of the delay registers."""
        return [n.name for n in self if n.op is OpType.DELAY]

    def arithmetic_nodes(self) -> List[Node]:
        """Nodes that map onto arithmetic functional units."""
        return [n for n in self if n.is_arithmetic]

    @property
    def is_sequential(self) -> bool:
        """True when the graph contains at least one delay register."""
        return any(n.op is OpType.DELAY for n in self)

    def op_histogram(self) -> Counter:
        """Number of nodes per operation type."""
        return Counter(n.op for n in self)

    def predecessors(self, name: str) -> List[str]:
        """Operand names of a node."""
        return list(self.node(name).inputs)

    def successors(self, name: str) -> List[str]:
        """Nodes that consume the value of ``name``, once each, in insertion order."""
        self.node(name)
        if self._successor_index is None:
            index: Dict[str, List[str]] = {key: [] for key in self._nodes}
            for node in self:
                for operand in dict.fromkeys(node.inputs):
                    index[operand].append(node.name)
            self._successor_index = index
        return list(self._successor_index[name])

    def fanout(self, name: str) -> int:
        """Number of consumers of a node's value."""
        return len(self.successors(name))

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[str]:
        """Evaluation order for one time step.

        Delay nodes read their operand from the *previous* time step, so
        the edge into a delay node is ignored when ordering; the delay's
        current output is available immediately (like a register output).
        A cycle that does not pass through a delay node raises
        :class:`CycleError`.
        """
        in_degree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for node in self:
            if node.op is OpType.DELAY:
                in_degree[node.name] = 0
                continue
            count = 0
            for operand in node.inputs:
                count += 1
                dependents[operand].append(node.name)
            in_degree[node.name] = count

        queue = deque(sorted(name for name, deg in in_degree.items() if deg == 0))
        order: List[str] = []
        while queue:
            current = queue.popleft()
            order.append(current)
            for consumer in dependents.get(current, []):
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    queue.append(consumer)
        if len(order) != len(self._nodes):
            stuck = sorted(set(self._nodes) - set(order))
            raise CycleError(f"combinational cycle detected involving nodes: {', '.join(stuck)}")
        return order

    def validate(self) -> None:
        """Check structural invariants (arities, references, delay wiring)."""
        for node in self:
            for operand in node.inputs:
                if operand not in self._nodes:
                    raise NodeNotFoundError(
                        f"node {node.name!r} references missing operand {operand!r}"
                    )
            if node.op is OpType.DELAY and node.inputs and node.inputs[0] == node.name:
                raise DFGError(
                    f"delay node {node.name!r} is still self-referential; call connect_delay"
                )
            expected = OP_ARITY[node.op]
            if len(node.inputs) != expected:
                raise DFGError(
                    f"node {node.name!r} has {len(node.inputs)} operands, expected {expected}"
                )
        if not self.outputs():
            raise DFGError(f"graph {self.name!r} has no OUTPUT node")
        self.topological_order()

    def copy(self, name: str | None = None) -> "DFG":
        """A structural copy of the graph (nodes are immutable and shared)."""
        clone = DFG(name or self.name)
        clone._nodes = dict(self._nodes)
        clone._op_counters = Counter(self._op_counters)
        return clone

    # ------------------------------------------------------------------ #
    # canonical serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Canonical JSON-serializable form of the graph.

        Nodes are listed in insertion order with their full wiring, so
        ``from_dict(to_dict())`` round-trips exactly (including feedback
        through delay registers).  The form is *stable*: the same graph
        always serializes to the same document, which is what makes
        :meth:`circuit_hash` usable as a cache key.
        """
        nodes = []
        for node in self:
            entry: dict = {"name": node.name, "op": node.op.value}
            if node.inputs:
                entry["inputs"] = list(node.inputs)
            if node.value is not None:
                entry["value"] = float(node.value)
            if node.label:
                entry["label"] = node.label
            nodes.append(entry)
        return {"format": DFG_FORMAT, "name": self.name, "nodes": nodes}

    @classmethod
    def from_dict(cls, document: dict) -> "DFG":
        """Rebuild a graph from its :meth:`to_dict` form.

        Feedback edges (a delay whose source appears later in the node
        list) are wired in a second pass, mirroring how
        :meth:`add_delay` / :meth:`connect_delay` describe loops.
        """
        if not isinstance(document, dict):
            raise DFGError(f"cannot deserialize a {type(document).__name__} into a DFG")
        fmt = document.get("format")
        if fmt != DFG_FORMAT:
            raise DFGError(
                f"unsupported DFG serialization format {fmt!r} (expected {DFG_FORMAT!r})"
            )
        graph = cls(str(document.get("name") or "dfg"))
        entries = document.get("nodes")
        if not isinstance(entries, list):
            raise DFGError("DFG document carries no 'nodes' list")
        pending_delays: List[tuple] = []
        for entry in entries:
            try:
                name = entry["name"]
                op = OpType(entry["op"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DFGError(f"malformed DFG node entry {entry!r}") from exc
            inputs = tuple(entry.get("inputs", ()))
            if op is OpType.DELAY:
                graph.add_delay(name=name)
                if entry.get("label"):
                    placeholder = graph._nodes[name]
                    graph._nodes[name] = Node(
                        name=name,
                        op=OpType.DELAY,
                        inputs=placeholder.inputs,
                        label=str(entry["label"]),
                    )
                    graph._invalidate()
                if inputs:
                    pending_delays.append((name, inputs[0]))
                continue
            graph.add_node(
                op,
                inputs,
                name=name,
                value=entry.get("value"),
                label=str(entry.get("label", "")),
            )
        for delay_name, source in pending_delays:
            graph.connect_delay(delay_name, source)
        graph.validate()
        return graph

    def save(self, path: str | Path) -> None:
        """Write the canonical JSON form to ``path``."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "DFG":
        """Read a graph previously written by :meth:`save`."""
        try:
            document = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DFGError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(document)

    def circuit_hash(self) -> str:
        """Content hash of the canonical form (hex SHA-256).

        Two graphs with the same nodes, wiring, constants and name hash
        identically regardless of how they were built — the key a result
        cache or a benchmark registry can store analyses under.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(canonical).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = ", ".join(f"{op.value}:{count}" for op, count in sorted(self.op_histogram().items()))
        return f"DFG({self.name!r}, nodes={len(self)}, {ops})"
