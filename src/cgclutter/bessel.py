"""Exponentially scaled modified Bessel function of order one.

The K-texture density involves exp(-nu(1+tau)) * I1(2 nu sqrt(tau)),
whose factors overflow/underflow separately at moderate nu.  Exposing
e^(-x) I1(x) directly keeps the combined exponent bounded.  The values
are scipy.special.i1e's, imported on the first call; this wrapper adds
the domain check.
"""

from __future__ import annotations

import numpy as np

__all__ = ["scaled_i1"]


def scaled_i1(x):
    """e^(-x) * I1(x) for x >= 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("scaled_i1 is defined for x >= 0")
    from scipy.special import i1e

    out = i1e(arr)
    return float(out) if np.ndim(x) == 0 else out
