"""Quantization and overflow handling for scalar values and numpy arrays."""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import FixedPointError
from repro.fixedpoint.format import FixedPointFormat, OverflowMode, QuantizationMode
from repro.intervals.interval import Interval

__all__ = [
    "quantize",
    "quantize_array",
    "quantization_error_bounds",
    "overflow_wrap",
]

Number = Union[int, float]


def overflow_wrap(value: np.ndarray | float, fmt: FixedPointFormat) -> np.ndarray | float:
    """Two's-complement wrap-around of ``value`` into the format's range."""
    span = fmt.modulus
    shifted = np.asarray(value, dtype=float) - fmt.min_value
    wrapped = np.mod(shifted, span) + fmt.min_value
    if np.isscalar(value) or np.ndim(value) == 0:
        return float(wrapped)
    return wrapped


def quantize_array(
    values: np.ndarray,
    fmt: FixedPointFormat,
    quantization: QuantizationMode | str = QuantizationMode.ROUND,
    overflow: OverflowMode | str = OverflowMode.SATURATE,
) -> np.ndarray:
    """Quantize an array of real values into the given fixed-point format.

    Never writes into ``values``: the result is always a fresh array, so
    callers may pass stimulus they reuse or read-only views.
    """
    quantization = QuantizationMode.coerce(quantization)
    overflow = OverflowMode.coerce(overflow)
    values = np.asarray(values, dtype=float)

    # One fresh buffer; every step below writes into it, never into ``values``.
    out = np.divide(values, fmt.step, out=np.empty(values.shape))
    if quantization is QuantizationMode.ROUND:
        # round-half-away-from-zero, the usual DSP hardware convention.
        # np.floor(x + 0.5) would be round-half-toward-+inf and send -2.5
        # to -2 instead of -3, so round the magnitude and restore the sign,
        # which ``values`` shares with ``values / step`` (step > 0).
        np.abs(out, out=out)
        np.add(out, 0.5, out=out)
        np.floor(out, out=out)
        np.copysign(out, values, out=out)
    elif quantization is QuantizationMode.TRUNCATE:
        np.floor(out, out=out)
    else:
        raise FixedPointError(f"unknown quantization mode {quantization!r}")
    np.multiply(out, fmt.step, out=out)

    if overflow is OverflowMode.SATURATE:
        # the method skips np.clip's wrapper, which dominates on tiny arrays
        return out.clip(fmt.min_value, fmt.max_value, out=out)
    if overflow is OverflowMode.WRAP:
        return np.asarray(overflow_wrap(out, fmt), dtype=float)
    raise FixedPointError(f"unknown overflow mode {overflow!r}")


def quantize(
    value: Number,
    fmt: FixedPointFormat,
    quantization: QuantizationMode | str = QuantizationMode.ROUND,
    overflow: OverflowMode | str = OverflowMode.SATURATE,
) -> float:
    """Quantize a single real value into the given fixed-point format."""
    result = quantize_array(np.asarray([float(value)]), fmt, quantization, overflow)
    return float(result[0])


def quantization_error_bounds(
    fmt: FixedPointFormat,
    quantization: QuantizationMode | str = QuantizationMode.ROUND,
) -> Interval:
    """Worst-case quantization error interval (overflow excluded).

    Round-to-nearest errors lie in ``[-q/2, +q/2]``; truncation errors lie
    in ``(-q, 0]`` (returned as the closed interval ``[-q, 0]``), where
    ``q`` is the quantization step of ``fmt``.
    """
    quantization = QuantizationMode.coerce(quantization)
    step = fmt.step
    if quantization is QuantizationMode.ROUND:
        return Interval(-0.5 * step, 0.5 * step)
    return Interval(-step, 0.0)
