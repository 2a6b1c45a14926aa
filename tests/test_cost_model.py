"""Tests for the HLS hardware cost model (monotonicity above all)."""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmarks.circuits import CIRCUITS, get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.dfg.graph import DFG
from repro.dfg.node import OpType
from repro.dfg.range_analysis import infer_ranges
from repro.errors import NodeNotFoundError, OptimizationError
from repro.fixedpoint.format import FixedPointFormat
from repro.noisemodel.assignment import WordLengthAssignment
from repro.optimize.cost import (
    ASIC_COST_TABLE,
    COST_TABLES,
    DEFAULT_COST_TABLE,
    CostTable,
    HardwareCostModel,
)


def uniform_design(circuit_name: str, word_length: int = 10):
    circuit = get_circuit(circuit_name)
    ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
    return circuit.graph, WordLengthAssignment.uniform(circuit.graph, word_length, ranges)


class TestMonotonicity:
    @pytest.mark.parametrize("circuit_name", ["quadratic", "poly3", "fir4", "iir_biquad"])
    def test_more_bits_never_cheaper_per_node(self, circuit_name):
        graph, assignment = uniform_design(circuit_name)
        model = HardwareCostModel()
        base = model.total(graph, assignment)
        for node in assignment:
            fmt = assignment.format_of(node)
            grown = assignment.with_fractional_bits(node, fmt.fractional_bits + 1)
            assert model.total(graph, grown) >= base, f"growing {node} made the design cheaper"

    @pytest.mark.parametrize("table", [DEFAULT_COST_TABLE, ASIC_COST_TABLE])
    def test_wider_uniform_designs_cost_strictly_more(self, table):
        circuit = get_circuit("poly3")
        ranges = infer_ranges(circuit.graph, circuit.input_ranges).ranges
        model = HardwareCostModel(table)
        costs = [
            model.total(
                circuit.graph, WordLengthAssignment.uniform(circuit.graph, w, ranges)
            )
            for w in (6, 10, 14)
        ]
        assert costs[0] < costs[1] < costs[2]


class TestRegisterPricing:
    def test_delay_priced_at_stored_source_width(self):
        graph, assignment = uniform_design("iir_biquad")
        model = HardwareCostModel()
        base = model.total(graph, assignment)
        delays = [n.name for n in graph if n.op is OpType.DELAY]
        assert delays
        # A register's own nominal format is irrelevant: it stores its
        # source's word, so changing it must not change the price.
        mutated = assignment
        for delay in delays:
            fmt = mutated.format_of(delay)
            mutated = mutated.with_fractional_bits(delay, fmt.fractional_bits + 7)
        assert model.total(graph, mutated) == pytest.approx(base)

    def test_register_cost_follows_source(self):
        graph, assignment = uniform_design("fir4")
        model = HardwareCostModel()
        breakdown = model.price(graph, assignment)
        assert "delay" in breakdown.per_op
        assert breakdown.per_op["delay"] > 0.0


class TestBreakdown:
    def test_breakdown_sums_match_total(self):
        graph, assignment = uniform_design("matmul2")
        breakdown = HardwareCostModel().price(graph, assignment)
        assert breakdown.total == pytest.approx(sum(breakdown.per_node.values()))
        assert breakdown.total == pytest.approx(sum(breakdown.per_op.values()))
        assert breakdown.dominant(3)[0][1] >= breakdown.dominant(3)[-1][1]

    def test_ports_are_free(self):
        graph, assignment = uniform_design("quadratic")
        breakdown = HardwareCostModel().price(graph, assignment)
        for node in graph:
            if node.op in (OpType.INPUT, OpType.OUTPUT):
                assert node.name not in breakdown.per_node

    def test_missing_format_raises(self):
        graph, _ = uniform_design("quadratic")
        with pytest.raises(OptimizationError, match="no fixed-point format"):
            HardwareCostModel().total(graph, WordLengthAssignment())


class TestReprice:
    @pytest.mark.parametrize("circuit_name", ["quadratic", "fir4", "iir_biquad", "matmul2"])
    def test_incremental_delta_matches_full_repricing(self, circuit_name):
        graph, assignment = uniform_design(circuit_name)
        model = HardwareCostModel()
        base = model.total(graph, assignment)
        for node in assignment:
            if graph.node(node).op is OpType.DELAY:
                continue
            fmt = assignment.format_of(node)
            shaved = assignment.with_fractional_bits(node, max(0, fmt.fractional_bits - 1))
            delta = model.reprice(
                graph, assignment, shaved, model.affected_by(graph, node)
            )
            assert delta == pytest.approx(model.total(graph, shaved) - base)


    def test_deltas_do_not_depend_on_hash_seed(self):
        """Bit-identical deltas under different PYTHONHASHSEED values."""
        script = (
            "from repro.benchmarks.generators import generate_circuit\n"
            "from repro.dfg.range_analysis import infer_ranges\n"
            "from repro.noisemodel.assignment import WordLengthAssignment\n"
            "from repro.optimize.cost import COST_TABLES, HardwareCostModel\n"
            "specs = ('fir_cascade:taps=4,samples=8', 'iir_cascade:sections=2,samples=6',\n"
            "         'mlp_layer:inputs=4,neurons=3')\n"
            "for spec in specs:\n"
            "    c = generate_circuit(spec)\n"
            "    ranges = infer_ranges(c.graph, c.input_ranges).ranges\n"
            "    a = WordLengthAssignment.uniform(c.graph, 14, ranges)\n"
            "    for table in COST_TABLES.values():\n"
            "        model = HardwareCostModel(table)\n"
            "        for node in a:\n"
            "            for bits in (1, 3):\n"
            "                frac = max(0, a.format_of(node).fractional_bits - bits)\n"
            "                shaved = a.with_fractional_bits(node, frac)\n"
            "                nodes = model.affected_by(c.graph, node)\n"
            "                print(model.reprice(c.graph, a, shaved, nodes).hex())\n"
        )
        outputs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0]
        assert outputs[0] == outputs[1]


class TestCostTable:
    def test_zero_table_prices_everything_free(self):
        graph, assignment = uniform_design("poly3")
        zero = DEFAULT_COST_TABLE.scaled(0.0, name="free")
        assert HardwareCostModel(zero).total(graph, assignment) == 0.0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(OptimizationError, match=">= 0"):
            CostTable(add_per_bit=-1.0)
        with pytest.raises(OptimizationError, match=">= 0"):
            DEFAULT_COST_TABLE.scaled(-2.0)

    def test_from_dict_round_trip_and_unknown_keys(self):
        table = CostTable.from_dict({"name": "custom", "mul_per_bit_pair": 1.25})
        assert table.mul_per_bit_pair == 1.25
        assert CostTable.from_dict(table.to_dict()) == table
        with pytest.raises(OptimizationError, match="unknown cost-table key"):
            CostTable.from_dict({"warp_drive": 9000})

    def test_reference_tables_registered(self):
        assert COST_TABLES["lut4"] is DEFAULT_COST_TABLE
        assert COST_TABLES["asic"] is ASIC_COST_TABLE


# ---------------------------------------------------------------------- #
# The pricing plan against the per-node formulas written out by hand
# ---------------------------------------------------------------------- #
def reference_node_cost(table, graph, node, formats):
    """Area of one node, straight from the documented formulas."""

    def stored_width(name):
        # A register forwards its source's word: resolve DELAY chains.
        while graph.node(name).op is OpType.DELAY:
            name = graph.node(name).inputs[0]
        return formats[name].word_length

    op = node.op
    if op in (OpType.INPUT, OpType.OUTPUT):
        return 0.0
    if op is OpType.CONST:
        return table.const_per_bit * formats[node.name].word_length
    if op is OpType.DELAY:
        return table.register_per_bit * stored_width(node.name)
    w = [stored_width(operand) for operand in node.inputs]
    rounding = table.op_overhead + table.result_per_bit * formats[node.name].word_length
    if op in (OpType.ADD, OpType.SUB):
        return rounding + table.add_per_bit * max(w)
    if op is OpType.NEG:
        return rounding + table.neg_per_bit * w[0]
    if op is OpType.ABS:
        return rounding + table.abs_per_bit * w[0]
    if op is OpType.MUL:
        return rounding + table.mul_per_bit_pair * w[0] * w[1]
    if op is OpType.SQUARE:
        return rounding + table.mul_per_bit_pair * (w[0] * (w[0] + 1)) / 2.0
    if op is OpType.DIV:
        return rounding + table.div_per_bit_pair * w[0] * w[1]
    if op is OpType.SQRT:
        return rounding + table.sqrt_per_bit_pair * (w[0] * (w[0] + 1)) / 2.0
    if op is OpType.EXP:
        return rounding + table.exp_per_bit_pair * w[0] * w[0]
    if op is OpType.LOG:
        return rounding + table.log_per_bit_pair * w[0] * w[0]
    if op in (OpType.MIN, OpType.MAX):
        return rounding + table.minmax_per_bit * max(w)
    if op is OpType.MUX:
        return rounding + table.mux_per_bit * max(w[1], w[2])
    raise AssertionError(f"no reference formula for {op!r}")


def reference_price(table, graph, formats):
    """``(total, per_node, per_op)`` accumulated in graph order with ``+=``."""
    total, per_node, per_op = 0.0, {}, {}
    for node in graph:
        cost = reference_node_cost(table, graph, node, formats)
        if cost == 0.0:
            continue
        per_node[node.name] = cost
        per_op[node.op.value] = per_op.get(node.op.value, 0.0) + cost
        total += cost
    return total, per_node, per_op


def all_ops_graph():
    """Every op type once, with a two-register DELAY chain inside a feedback loop."""
    g = DFG("all_ops")
    x, y, sel = g.add_input("x"), g.add_input("y"), g.add_input("sel")
    c = g.add_const(0.75, name="c")
    r1 = g.add_delay(name="r1")
    r2 = g.add_delay(r1, name="r2")
    acc = g.add_add(x, r2, name="acc")  # reads r1's source through two registers
    g.connect_delay(r1, acc)
    sub = g.add_sub(acc, c, name="sub")
    mul = g.add_mul(sub, y, name="mul")
    div = g.add_div(mul, y, name="div")
    neg = g.add_neg(div, name="neg")
    sq = g.add_square(neg, name="sq")
    root = g.add_sqrt(sq, name="root")
    ex = g.add_exp(c, name="ex")
    lg = g.add_log(ex, name="lg")
    ab = g.add_abs(lg, name="ab")
    lo = g.add_min(root, ab, name="lo")
    hi = g.add_max(lo, r2, name="hi")
    mux = g.add_mux(sel, hi, r1, name="mux")
    g.add_output(mux, name="out")
    g.validate()
    return g


def random_design(graph, rng):
    formats = {
        node.name: FixedPointFormat(rng.randint(1, 6), rng.randint(0, 14))
        for node in graph
        if node.op is not OpType.OUTPUT
    }
    return WordLengthAssignment(formats)


PLAN_GRAPHS = {
    "all_ops": all_ops_graph,
    "fir4": lambda: get_circuit("fir4").graph,
    "iir_biquad": lambda: get_circuit("iir_biquad").graph,
}


class TestPricingPlan:
    @pytest.mark.parametrize("table_name", ["lut4", "asic"])
    @pytest.mark.parametrize("graph_name", sorted(PLAN_GRAPHS))
    def test_prices_equal_written_out_formulas_bit_for_bit(self, graph_name, table_name):
        graph = PLAN_GRAPHS[graph_name]()
        if graph_name == "all_ops":
            assert {node.op for node in graph} == set(OpType)
        table = COST_TABLES[table_name]
        model = HardwareCostModel(table)
        rng = random.Random(f"{graph_name}/{table_name}")
        for _ in range(6):
            design = random_design(graph, rng)
            # A run of one-node changes exercises the cached cost vector.
            for name in rng.sample(list(design), 8):
                changed = design.with_fractional_bits(name, rng.randint(0, 14))
                for node in graph:
                    expected = reference_node_cost(table, graph, node, changed.formats)
                    assert model.node_cost(graph, node, changed) == expected, node.name
                breakdown = model.price(graph, changed)
                total, per_node, per_op = reference_price(table, graph, changed.formats)
                assert breakdown.total == total
                assert list(breakdown.per_node.items()) == list(per_node.items())
                assert list(breakdown.per_op.items()) == list(per_op.items())
                assert model.total(graph, changed) == total
                nodes = model.affected_by(graph, name)
                delta = 0.0
                for priced in nodes:
                    after = reference_node_cost(table, graph, graph.node(priced), changed.formats)
                    before = reference_node_cost(table, graph, graph.node(priced), design.formats)
                    delta += after - before
                assert model.reprice(graph, design, changed, nodes) == delta
                design = changed

    def test_reads_name_own_format_then_resolved_operands(self):
        graph = all_ops_graph()
        model = HardwareCostModel()
        assert model.reads(graph, "acc") == ("acc", "x", "acc")
        assert model.reads(graph, "r2") == ("acc",)
        assert model.reads(graph, "mux") == ("mux", "sel", "hi", "acc")
        assert model.reads(graph, "c") == ("c",)
        assert model.reads(graph, "x") == ()
        assert model.reads(graph, "out") == ()
        with pytest.raises(NodeNotFoundError):
            model.reads(graph, "nosuch")

    @pytest.mark.parametrize("table", [DEFAULT_COST_TABLE, ASIC_COST_TABLE])
    def test_total_equals_price_total_exactly(self, table):
        """``total()`` sums like ``price()`` (builtin ``sum`` is compensated on 3.12+)."""
        specs = [get_circuit(name) for name in sorted(CIRCUITS)]
        specs.append(generate_circuit("fir_cascade:taps=4,samples=8"))
        model = HardwareCostModel(table)
        checked = 0
        for circuit in specs:
            graph = circuit.graph
            ranges = infer_ranges(graph, circuit.input_ranges).ranges
            designs = []
            for word_length in (10, 14):
                base = WordLengthAssignment.uniform(graph, word_length, ranges)
                designs.append(base)
                for name, fmt in base.formats.items():
                    for bits in (1, 3):
                        frac = max(0, fmt.fractional_bits - bits)
                        designs.append(base.with_fractional_bits(name, frac))
            for design in designs:
                priced = model.price(graph, design).total
                assert model.total(graph, design) == priced
                assert HardwareCostModel(table).price(graph, design).total == priced
                assert priced == reference_price(table, graph, design.formats)[0]
                checked += 1
        assert checked > 500

    def test_missing_format_raises_and_leaves_the_plan_usable(self):
        graph, assignment = uniform_design("fir4")
        model = HardwareCostModel()
        before = model.price(graph, assignment)
        name = next(n.name for n in graph if n.op is OpType.MUL)
        partial = WordLengthAssignment({k: v for k, v in assignment.formats.items() if k != name})
        with pytest.raises(OptimizationError, match=f"{name!r} has no fixed-point format"):
            model.price(graph, partial)
        with pytest.raises(OptimizationError, match="no fixed-point format"):
            model.total(graph, partial)
        with pytest.raises(OptimizationError, match="no fixed-point format"):
            model.reprice(graph, assignment, partial, model.affected_by(graph, name))
        assert model.price(graph, assignment) == before

    def test_delay_cycle_raises(self):
        g = DFG("ring")
        x = g.add_input("x")
        r1 = g.add_delay(name="r1")
        r2 = g.add_delay(r1, name="r2")
        g.connect_delay(r1, r2)
        g.add_output(g.add_add(x, r2, name="s"), name="y")
        design = WordLengthAssignment(
            {name: FixedPointFormat(2, 8) for name in ("x", "r1", "r2", "s")}
        )
        with pytest.raises(OptimizationError, match="delay cycle"):
            HardwareCostModel().price(g, design)

    def test_graph_writes_after_pricing_reprice(self):
        graph = all_ops_graph()
        rng = random.Random("writes")
        design = random_design(graph, rng)
        model = HardwareCostModel()
        model.price(graph, design)
        graph.add_output(graph.add_mul("mul", "c", name="extra"), name="out2")
        grown = WordLengthAssignment({**design.formats, "extra": FixedPointFormat(3, 9)})
        cost = reference_node_cost(DEFAULT_COST_TABLE, graph, graph.node("extra"), grown.formats)
        assert model.price(graph, grown).per_node["extra"] == cost
        graph.connect_delay("r1", "mul")  # the registers now store mul's word
        assert model.reads(graph, "r2") == ("mul",)
        total, _per_node, _per_op = reference_price(DEFAULT_COST_TABLE, graph, grown.formats)
        assert model.price(graph, grown).total == total

    def test_in_place_format_writes_are_seen(self):
        graph, assignment = uniform_design("iir_biquad")
        model = HardwareCostModel()
        model.price(graph, assignment)
        for name in list(assignment.formats)[:5]:
            fmt = assignment.formats[name]
            assignment.formats[name] = fmt.with_fractional_bits(fmt.fractional_bits + 2)
            fresh = HardwareCostModel().price(graph, assignment)
            assert model.price(graph, assignment) == fresh
            assert model.total(graph, assignment) == fresh.total

    def test_priced_model_pickles_and_copies(self):
        graph, assignment = uniform_design("fir4")
        model = HardwareCostModel(ASIC_COST_TABLE)
        breakdown = model.price(graph, assignment)
        for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert clone.table == model.table
            assert clone.price(graph, assignment) == breakdown
