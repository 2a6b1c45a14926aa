"""Fixed-point arithmetic substrate.

Provides the arithmetic characteristics the paper optimizes over: the
word-length split into integer and fractional bits, the truncation mode
(round-off vs truncation) and the overflow mode (saturation vs
wrap-around), plus the scalar and vectorized quantizers the bit-true
Monte-Carlo validation path uses.
"""

from repro.fixedpoint.format import FixedPointFormat, OverflowMode, QuantizationMode
from repro.fixedpoint.quantize import (
    overflow_wrap,
    quantization_error_bounds,
    quantize,
    quantize_array,
)

__all__ = [
    "FixedPointFormat",
    "QuantizationMode",
    "OverflowMode",
    "quantize",
    "quantize_array",
    "quantization_error_bounds",
    "overflow_wrap",
]
