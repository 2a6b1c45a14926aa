"""Batched simulators: equivalence with scalar paths and input handling."""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.montecarlo import monte_carlo_error, monte_carlo_error_sharded
from repro.benchmarks.circuits import get_circuit
from repro.benchmarks.generators import generate_circuit
from repro.dfg import (
    DFGBuilder,
    simulate,
    simulate_batch,
    simulate_fixed_point,
    simulate_fixed_point_batch,
    unroll_sequential,
)
from repro.dfg.range_analysis import infer_ranges
from repro.errors import DFGError
from repro.fixedpoint.format import FixedPointFormat
from repro.noisemodel.assignment import WordLengthAssignment


def _iir():
    builder = DFGBuilder("iir1")
    x = builder.input("x")
    graph = builder.graph
    graph.add_delay(name="state")
    acc = graph.add_add(
        graph.add_mul(x.node_name, builder.const(0.5).node_name),
        graph.add_mul("state", builder.const(0.4).node_name),
    )
    graph.connect_delay("state", acc)
    graph.add_output(acc, name="y")
    graph.validate()
    return graph


def _gain_stage():
    builder = DFGBuilder("gain")
    x = builder.input("x")
    g = builder.input("g")
    builder.output(x * g, name="y")
    return builder.build()


class TestBatchEquivalence:
    def test_batch_matches_scalar_float(self):
        graph = _iir()
        stimulus = np.random.default_rng(0).uniform(-1, 1, size=(4, 7))
        batch = simulate_batch(graph, {"x": stimulus})
        for i in range(4):
            reference = simulate(graph, {"x": stimulus[i]}).output()
            assert batch["y"][i] == pytest.approx(reference[-1], abs=1e-12)

    def test_batch_matches_scalar_fixed_point(self):
        graph = _iir()
        formats = {name: FixedPointFormat(2, 6) for name in graph.names() if name != "y"}
        stimulus = np.random.default_rng(1).uniform(-1, 1, size=(4, 5))
        batch = simulate_fixed_point_batch(graph, {"x": stimulus}, formats)
        for i in range(4):
            reference = simulate_fixed_point(graph, {"x": stimulus[i]}, formats).output()
            assert batch["y"][i] == pytest.approx(reference[-1], abs=1e-12)

    def test_unrolled_graph_matches_time_stepped(self):
        graph = _iir()
        unrolled = unroll_sequential(graph, 5)
        stimulus = np.random.default_rng(2).uniform(-1, 1, size=(3, 5))
        stepped = simulate_batch(graph, {"x": stimulus})
        flat = simulate_batch(
            unrolled.graph, {f"x@{t}": stimulus[:, t] for t in range(5)}
        )
        np.testing.assert_allclose(
            flat[unrolled.graph.outputs()[0]], stepped["y"], atol=1e-12
        )


class TestBatchInputHandling:
    def test_scalar_broadcasts_against_batch(self):
        """Regression: a scalar input alongside a sampled one must broadcast."""
        graph = _gain_stage()
        xs = np.linspace(-1.0, 1.0, 11)
        result = simulate_batch(graph, {"x": xs, "g": 0.5})
        np.testing.assert_allclose(result["y"], 0.5 * xs)

    def test_scalar_first_then_batch(self):
        graph = _gain_stage()
        xs = np.linspace(-1.0, 1.0, 11)
        result = simulate_batch(graph, {"g": 2.0, "x": xs})
        np.testing.assert_allclose(result["y"], 2.0 * xs)

    def test_mismatched_batches_rejected(self):
        graph = _gain_stage()
        with pytest.raises(DFGError):
            simulate_batch(graph, {"x": np.zeros(10), "g": np.ones(7)})

    def test_record_single_name_string(self):
        """Regression: record='y' used to be iterated character-by-character."""
        graph = _gain_stage()
        result = simulate_batch(graph, {"x": np.ones(3), "g": 2.0}, record="y")
        np.testing.assert_allclose(result["y"], 2.0)

    def test_record_unknown_node_rejected(self):
        graph = _gain_stage()
        with pytest.raises(DFGError):
            simulate_batch(graph, {"x": 1.0, "g": 1.0}, record=["nope"])


def _uniform_bits(graph, input_ranges, word_length=12):
    ranges = infer_ranges(graph, input_ranges).ranges
    return WordLengthAssignment.uniform(graph, word_length, ranges)


class TestStreamingSafety:
    """The streaming schedule frees values early; results must not notice."""

    def test_writable_stimulus_is_not_written(self):
        circuit = get_circuit("iir_biquad")
        formats = _uniform_bits(circuit.graph, circuit.input_ranges).formats
        stimulus = np.random.default_rng(3).uniform(-1, 1, size=(64, 8))
        before = stimulus.copy()
        simulate_fixed_point_batch(circuit.graph, {"x": stimulus}, formats, record="all")
        np.testing.assert_array_equal(stimulus, before)

    def test_read_only_broadcast_stimulus_is_accepted(self):
        # broadcast_to views are read-only: any write into them raises, so
        # this run completing shows the simulator never writes its inputs.
        graph = _gain_stage()
        formats = {"x": FixedPointFormat(2, 4), "g": FixedPointFormat(2, 4)}
        xs = np.broadcast_to(np.linspace(-1.0, 1.0, 8)[:, None], (8, 3))
        gs = np.broadcast_to(0.3, (8,))
        result = simulate_fixed_point_batch(graph, {"x": xs, "g": gs}, formats, record="all")
        writable = simulate_fixed_point_batch(
            graph, {"x": xs.copy(), "g": gs.copy()}, formats, record="all"
        )
        for name, value in writable.items():
            np.testing.assert_array_equal(result[name], value)

    @pytest.mark.parametrize("record", ["all", "intermediate"])
    def test_sequential_records_match_scalar_bit_for_bit(self, record):
        circuit = get_circuit("iir_biquad")
        graph = circuit.graph
        formats = _uniform_bits(graph, circuit.input_ranges).formats
        stimulus = np.random.default_rng(4).uniform(-1, 1, size=(5, 8))
        if record == "intermediate":
            record = next(
                name
                for name in graph.topological_order()
                if graph.node(name).is_arithmetic and graph.successors(name)
            )
        batch = simulate_fixed_point_batch(graph, {"x": stimulus}, formats, record=record)
        names = graph.names() if record == "all" else [record]
        assert sorted(batch) == sorted(names)
        for i in range(len(stimulus)):
            scalar = simulate_fixed_point(graph, {"x": stimulus[i]}, formats, record_all=True)
            for name in names:
                assert batch[name][i] == scalar.node(name)[-1], name

    def test_value_read_twice_by_one_node(self):
        builder = DFGBuilder("square_by_mul")
        x = builder.input("x")
        builder.output(x * x, name="y")
        graph = builder.build()
        xs = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_array_equal(simulate_batch(graph, {"x": xs})["y"], xs * xs)

    def test_value_read_by_a_delay_and_an_arithmetic_node(self):
        builder = DFGBuilder("delay_and_add")
        x = builder.input("x")
        graph = builder.graph
        scaled = graph.add_mul(x.node_name, builder.const(0.5).node_name)
        previous = graph.add_delay(scaled, name="previous")
        graph.add_output(graph.add_add(scaled, previous), name="y")
        graph.validate()
        stimulus = np.random.default_rng(5).uniform(-1, 1, size=(4, 6))
        batch = simulate_batch(graph, {"x": stimulus})
        np.testing.assert_array_equal(batch["y"], 0.5 * stimulus[:, -1] + 0.5 * stimulus[:, -2])

    def test_peak_memory_is_a_few_live_vectors(self):
        """634 nodes at batch 10,000: keeping every vector alive costs ~51 MB."""
        circuit = generate_circuit("fir_cascade:taps=8,samples=40")
        formats = _uniform_bits(circuit.graph, circuit.input_ranges, 16).formats
        rng = np.random.default_rng(0)
        stimulus = {
            name: rng.uniform(interval.lo, interval.hi, size=(10_000, 1))
            for name, interval in circuit.input_ranges.items()
        }
        tracemalloc.start()
        try:
            simulate_fixed_point_batch(circuit.graph, stimulus, formats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestInputFreeMonteCarlo:
    """A graph without inputs still yields one error per requested sample."""

    @staticmethod
    def _constant_product():
        builder = DFGBuilder("const_product")
        builder.output(builder.const(0.3) * builder.const(0.7), name="y")
        graph = builder.build()
        return graph, _uniform_bits(graph, {}, 8)

    def test_single_stream(self):
        graph, assignment = self._constant_product()
        result = monte_carlo_error(graph, assignment, {}, samples=1000)
        assert result.samples == 1000
        assert result.errors.shape == (1000,)
        assert np.all(result.errors == result.errors[0])

    def test_sharded(self):
        graph, assignment = self._constant_product()
        result = monte_carlo_error_sharded(graph, assignment, {}, samples=5000)
        assert result.errors.shape == (5000,)
        single = monte_carlo_error(graph, assignment, {}, samples=3)
        assert np.all(result.errors == single.errors[0])
