"""Quantization kernels: rounding convention, truncation, overflow."""

import numpy as np
import pytest

from repro.fixedpoint.format import FixedPointFormat
from repro.fixedpoint.quantize import (
    overflow_wrap,
    quantization_error_bounds,
    quantize,
    quantize_array,
)

INT4 = FixedPointFormat(integer_bits=4, fractional_bits=0)
Q2_4 = FixedPointFormat(integer_bits=2, fractional_bits=4)


class TestRoundHalfAwayFromZero:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (2.5, 3.0),
            (-2.5, -3.0),
            (0.5, 1.0),
            (-0.5, -1.0),
            (1.5, 2.0),
            (-1.5, -2.0),
            (-2.4, -2.0),
            (2.4, 2.0),
            (0.0, 0.0),
        ],
    )
    def test_halfway_values(self, value, expected):
        assert quantize(value, INT4) == expected

    def test_fractional_grid(self):
        step = Q2_4.step
        assert quantize(1.5 * step, Q2_4) == 2 * step
        assert quantize(-1.5 * step, Q2_4) == -2 * step

    def test_array_matches_scalar(self):
        values = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 0.3, -0.3])
        expected = np.array([quantize(v, INT4) for v in values])
        np.testing.assert_allclose(quantize_array(values, INT4), expected)

    def test_round_error_within_half_step(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1.9, 1.9, size=10_000)
        quantized = quantize_array(values, Q2_4)
        errors = quantized - values
        assert np.all(np.abs(errors) <= 0.5 * Q2_4.step + 1e-15)


class TestTruncate:
    def test_truncates_toward_minus_infinity(self):
        assert quantize(-2.3, INT4, quantization="truncate") == -3.0
        assert quantize(2.7, INT4, quantization="truncate") == 2.0

    def test_truncate_error_bounds(self):
        bounds = quantization_error_bounds(Q2_4, "truncate")
        assert bounds.lo == -Q2_4.step
        assert bounds.hi == 0.0

    def test_round_error_bounds(self):
        bounds = quantization_error_bounds(Q2_4, "round")
        assert bounds.lo == -0.5 * Q2_4.step
        assert bounds.hi == 0.5 * Q2_4.step


class TestOverflow:
    def test_saturate_clamps(self):
        assert quantize(100.0, INT4) == INT4.max_value
        assert quantize(-100.0, INT4) == INT4.min_value

    def test_wrap_is_modular(self):
        assert overflow_wrap(INT4.max_value + 1.0, INT4) == INT4.min_value
        wrapped = quantize(INT4.max_value + 1.0, INT4, overflow="wrap")
        assert wrapped == INT4.min_value


def _reference_quantize(values, fmt, quantization, overflow):
    """The textbook formula, one fresh temporary per step."""
    scaled = np.asarray(values, dtype=float) / fmt.step
    if quantization == "round":
        quantized = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled) * fmt.step
    else:
        quantized = np.floor(scaled) * fmt.step
    if overflow == "saturate":
        return np.clip(quantized, fmt.min_value, fmt.max_value)
    return np.asarray(overflow_wrap(quantized, fmt), dtype=float)


class TestInPlaceKernel:
    """quantize_array works in one buffer; pin it to the reference formula."""

    VALUES = np.concatenate(
        [
            np.arange(-40, 41) * (Q2_4.step / 2),  # every half-step tie
            [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0 - 1e-16, -2.0],
            np.random.default_rng(7).uniform(-3.0, 3.0, size=500),
        ]
    )

    @pytest.mark.parametrize("overflow", ["saturate", "wrap"])
    @pytest.mark.parametrize("quantization", ["round", "truncate"])
    def test_bit_equal_to_reference(self, quantization, overflow):
        matrix = self.VALUES[:588].reshape(4, 147)
        scalars = [np.asarray(v) for v in self.VALUES[:89]]  # ties and edge cases
        for values in [self.VALUES, matrix, *scalars]:
            before = values.copy()
            got = quantize_array(values, Q2_4, quantization, overflow)
            expected = _reference_quantize(values, Q2_4, quantization, overflow)
            assert got.shape == values.shape
            assert got.tobytes() == np.asarray(expected).tobytes()
            assert values.tobytes() == before.tobytes()

    def test_read_only_input(self):
        values = np.broadcast_to(np.linspace(-3.0, 3.0, 7), (4, 7))
        got = quantize_array(values, Q2_4)
        expected = _reference_quantize(values, Q2_4, "round", "saturate")
        assert got.tobytes() == expected.tobytes()
