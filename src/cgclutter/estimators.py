"""Empirical statistics for comparing simulations against analytic laws."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


def summarize(samples, dt: float, max_lag: float) -> EmpiricalSummary:
    """Mean, variance, exact-zero fraction and autocovariance of a series.

    Zeros are counted by exact equality: piecewise-constant texture paths
    carry a genuine atom at zero.  Autocovariance is estimated at every
    integer multiple of dt up to max_lag.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n == 0:
        raise ValueError("samples must be nonempty")
    m = int(round(max_lag / dt))
    if m > n - 1:
        raise ValueError("max_lag exceeds the series span")
    mu = float(x.mean())
    xc = x - mu
    var = float(np.dot(xc, xc) / (n - 1)) if n > 1 else 0.0
    autocov = []
    for k in range(m + 1):
        c = float(np.dot(xc[: n - k], xc[k:]) / n)
        autocov.append((k * dt, c))
    return EmpiricalSummary(
        n=n,
        mean=mu,
        variance=var,
        zero_fraction=float(np.mean(x == 0.0)),
        autocov=tuple(autocov),
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
