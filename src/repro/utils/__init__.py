"""Small shared utilities used across the :mod:`repro` package."""

from repro.utils.mathutils import clog2, integer_bits_for_range, ulp

__all__ = ["clog2", "integer_bits_for_range", "ulp"]
