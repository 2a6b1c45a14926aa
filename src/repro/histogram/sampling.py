"""Monte-Carlo sampling helpers for histogram PDFs.

Sampling serves two purposes in the reproduction: validating histogram
arithmetic against brute-force simulation (the "Actual Values" row of
Table 2) and generating stimulus for the bit-true fixed-point simulator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HistogramError
from repro.histogram.pdf import HistogramPDF

__all__ = ["sample_histogram"]


def sample_histogram(
    pdf: HistogramPDF,
    count: int,
    rng: np.random.Generator | int | None = None,
    mass_tol: float = 1e-6,
) -> np.ndarray:
    """Draw ``count`` i.i.d. samples from a histogram PDF.

    A bin is selected according to the bin probabilities and the value is
    drawn uniformly inside the bin, matching the piecewise-uniform
    interpretation used by the arithmetic.

    The sampler exists partly to *validate* the histogram arithmetic, so
    it must not paper over mass leaks: when the total bin mass deviates
    from 1 by more than ``mass_tol`` it raises :class:`HistogramError`
    instead of silently renormalizing.  Inside the tolerance the float
    rounding residue is renormalized away so ``rng.choice`` sees an exact
    probability vector.
    """
    if count <= 0:
        raise HistogramError(f"count must be positive, got {count}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    total = float(pdf.probs.sum())
    if abs(total - 1.0) > mass_tol:
        raise HistogramError(
            f"histogram mass is {total!r}, deviating from 1 by more than "
            f"mass_tol={mass_tol!r}; refusing to sample a leaky PDF"
        )
    probs = pdf.probs / total
    bin_idx = rng.choice(pdf.nbins, size=count, p=probs)
    lo = pdf.edges[:-1][bin_idx]
    hi = pdf.edges[1:][bin_idx]
    return lo + (hi - lo) * rng.random(count)

