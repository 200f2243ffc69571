"""Empirical statistics for comparing simulations against analytic laws."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["EmpiricalSummary", "summarize", "ks_distance", "ks_critical", "total_variation"]


@dataclass(frozen=True)
class EmpiricalSummary:
    """Summary of a uniformly sampled series.

    `variance` is the unbiased (n-1) estimator; the autocovariance uses
    the biased 1/n estimator to stay positive semidefinite, so
    autocov[0] equals variance * (n-1)/n exactly.
    """

    n: int
    mean: float
    variance: float
    zero_fraction: float
    autocov: tuple


def _lag_products(xc, m: int):
    """s[k] = sum_i xc[i] * xc[i + k] for k = 0..m, as two matrix products.

    The series is viewed, uncopied, as the rows of A, R full rows of
    B = m + 1 values.  A pair k apart (k < B) lies in one row, summed by
    the k-th diagonal of A^T A, or in two adjacent rows, summed by a
    diagonal of A[:-1]^T A[1:]; pairs reaching past the last full row are
    dots on the last m + (n mod B) values.
    """
    n = len(xc)
    b = m + 1
    end = n // b * b
    a = xc[:end].reshape(-1, b)
    # p[i, i + k] sums the pairs (j, j + k) with j in column i of a: the
    # first b columns hold a^T a, the next a[:-1]^T a[1:] (its first row
    # and last column are never summed)
    buf = np.zeros(b * (2 * b + 1))
    p = buf[:2 * b * b].reshape(b, 2 * b)
    p[:, :b] = a.T @ a
    p[1:, b:2 * b - 1] = a[:-1, 1:].T @ a[1:, :-1]
    # row i of this view starts at p[i, i]: its column k is p[i, i + k]
    s = buf.reshape(b, 2 * b + 1)[:, :b].sum(axis=0)
    tail = xc[end:]
    s += (sliding_window_view(xc[end - m:], len(tail)) @ tail)[::-1]
    return s


def summarize(samples, dt: float, max_lag: float) -> EmpiricalSummary:
    """Mean, variance, exact-zero fraction and autocovariance of a series.

    Zeros are counted by exact equality: piecewise-constant texture paths
    carry a genuine atom at zero.  Autocovariance is estimated at every
    integer multiple of dt up to max_lag, m = round(max_lag / dt) lags.
    The lag products of all m + 1 lags come from two BLAS matrix products
    over the series viewed as rows of m + 1 values, about 3 n (m + 1)
    flops in all (one symmetric, one general product), rather than m + 1
    passes over the series; lag 0 and the variance share one sum.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, not {dt}")
    if not max_lag >= 0:
        raise ValueError(f"max_lag must be nonnegative, not {max_lag}")
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n == 0:
        raise ValueError("samples must be nonempty")
    m = int(round(min(max_lag / dt, n)))
    if m > n - 1:
        raise ValueError("max_lag exceeds the series span")
    mu = float(x.mean())
    s = _lag_products(x - mu, m)
    return EmpiricalSummary(
        n=n,
        mean=mu,
        variance=float(s[0] / (n - 1)) if n > 1 else 0.0,
        zero_fraction=float(np.mean(x == 0.0)),
        autocov=tuple((k * dt, float(c)) for k, c in enumerate(s / n)),
    )


def ks_distance(samples, cdf: Callable, atom_at_zero: float = 0.0) -> float:
    """Two-sided Kolmogorov-Smirnov distance sup |ECDF - cdf|.

    For mixed laws with a point mass at zero the lower-side comparison
    needs the left limit F(0-) = F(0) - atom rather than F(0); pass the
    atom so samples tied at zero are handled correctly.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("samples must be nonempty")
    F = np.asarray(cdf(x), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    F_left = F - atom_at_zero * (x == 0.0)
    down = np.max(F_left - np.arange(0, n) / n)
    return float(max(up, down, 0.0))


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic Kolmogorov critical value c(alpha)/sqrt(n)."""
    if not n >= 1:
        raise ValueError(f"n must be at least 1, not {n}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), not {alpha}")
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c / math.sqrt(n)


def total_variation(empirical_pmf: dict, pmf: Callable) -> float:
    """Half the L1 distance over the union support, analytic tail included.

    `empirical_pmf` maps integer outcomes to relative frequencies (must
    sum to one); analytic mass beyond the largest observed outcome enters
    as unmatched tail mass.
    """
    total = sum(empirical_pmf.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError("empirical frequencies must sum to 1")
    n_hi = max(empirical_pmf)
    acc = 0.0
    analytic_mass = 0.0
    for n in range(0, n_hi + 1):
        p = float(pmf(n))
        analytic_mass += p
        acc += abs(empirical_pmf.get(n, 0.0) - p)
    tail = max(0.0, 1.0 - analytic_mass)
    return 0.5 * (acc + tail)
