"""Dataflow graphs: the hardware-level description the analyses operate on.

A :class:`DFG` is a directed graph of arithmetic operations (the
"computation tree" of the paper) annotated per node with fixed-point
characteristics.  The builders turn symbolic expressions or hand-written
design descriptions into DFGs; the evaluators run them in floating point,
in any enclosure algebra, or bit-true in fixed point; the range analysis
derives the integer bit-widths required at every node.
"""

from repro.dfg.builder import DFGBuilder, Wire, expression_to_dfg
from repro.dfg.evaluate import (
    evaluate_combinational,
    simulate,
    simulate_batch,
    simulate_fixed_point,
    simulate_fixed_point_batch,
)
from repro.dfg.graph import DFG
from repro.dfg.node import Node, OpType
from repro.dfg.partition import (
    Partitioning,
    PartitionSubgraph,
    extract_partition,
    partition_graph,
)
from repro.dfg.range_analysis import infer_ranges
from repro.dfg.trace import TracedCircuit, trace
from repro.dfg.unroll import UnrolledGraph, unroll_sequential

__all__ = [
    "DFG",
    "Node",
    "OpType",
    "trace",
    "TracedCircuit",
    "DFGBuilder",
    "Wire",
    "expression_to_dfg",
    "evaluate_combinational",
    "simulate",
    "simulate_fixed_point",
    "simulate_batch",
    "simulate_fixed_point_batch",
    "UnrolledGraph",
    "unroll_sequential",
    "infer_ranges",
    "Partitioning",
    "PartitionSubgraph",
    "partition_graph",
    "extract_partition",
]
