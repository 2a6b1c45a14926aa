"""The DFG's cached successor index stays in step with the graph."""

from __future__ import annotations

from repro.benchmarks.circuits import get_circuit
from repro.dfg.graph import DFG


def _scan_successors(graph: DFG, name: str) -> list[str]:
    return [node.name for node in graph if name in node.inputs]


def test_successors_match_a_full_scan_on_every_library_circuit():
    for name in ("quadratic", "fir4", "iir_biquad", "matmul2"):
        graph = get_circuit(name).graph
        for node in graph.names():
            assert graph.successors(node) == _scan_successors(graph, node)
            assert graph.fanout(node) == len(_scan_successors(graph, node))


def test_consumer_reading_an_operand_twice_is_listed_once():
    graph = DFG()
    x = graph.add_input("x")
    product = graph.add_mul(x, x)
    graph.add_output(product, name="y")
    assert graph.successors(x) == [product]
    assert graph.fanout(x) == 1


def test_successors_refresh_after_add_node():
    graph = DFG()
    x = graph.add_input("x")
    first = graph.add_neg(x)
    assert graph.successors(x) == [first]
    second = graph.add_abs(x)
    assert graph.successors(x) == [first, second]
    assert graph.successors(second) == []


def test_successors_refresh_after_connect_delay():
    graph = DFG()
    x = graph.add_input("x")
    state = graph.add_delay(name="state")
    total = graph.add_add(x, state)
    assert graph.successors(total) == []
    graph.connect_delay(state, total)
    assert graph.successors(total) == [state]
    assert graph.successors(state) == [total]


def test_copy_does_not_share_the_index():
    graph = DFG()
    x = graph.add_input("x")
    graph.add_neg(x, name="n")
    assert graph.successors(x) == ["n"]
    clone = graph.copy()
    clone.add_abs(x, name="a")
    assert clone.successors(x) == ["n", "a"]
    assert graph.successors(x) == ["n"]
    graph.add_square(x, name="s")
    assert graph.successors(x) == ["n", "s"]
    assert clone.successors(x) == ["n", "a"]


def test_from_dict_builds_the_same_successors():
    graph = get_circuit("iir_biquad").graph
    rebuilt = DFG.from_dict(graph.to_dict())
    for node in graph.names():
        assert rebuilt.successors(node) == graph.successors(node)
