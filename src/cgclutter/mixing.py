"""Cluster-size laws derived from a Bernstein function.

The discrete mixing variable K has PGF 1 - h(kappa(1-u))/h(kappa) and PMF
p(n) = -(-kappa)^n h^(n)(kappa) / (n! h(kappa)) for n >= 1, zero at n = 0.
For the built-in models this reduces to the geometric (h = z/(z+1)) and
logarithmic (h = ln(1+z)) families, which get exact log-domain closed
forms and native samplers.  Finite-activity models additionally admit a
continuous mixing variable xi with transform g(z) = 1 - h((C/h1) z)/C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from ._export import write_csv
from .bernstein import Activity, BernsteinModel

__all__ = [
    "MixingLaw",
    "ContinuousMixing",
    "pmf_from_derivatives",
    "pgf_k",
    "pmf_k",
    "mean_k",
    "second_moment_k",
    "sample_k",
    "continuous_mixing",
]

CACHE_TARGET_MASS = 1.0 - 1e-10
CACHE_N_CAP = 10 ** 7
FD_PMF_MAX_ORDER = 20


def pmf_from_derivatives(model: BernsteinModel, kappa: float, n: int) -> float:
    """PMF of K straight from the derivative formula (the generic route).

    Finite-difference derivatives are refused beyond order 20; beyond that
    the cancellation in the stencils makes the result meaningless.
    """
    if n == 0:
        return 0.0
    if not model.closed_form_derivatives and n > FD_PMF_MAX_ORDER:
        raise ValueError(
            f"finite-difference derivatives are unreliable beyond order "
            f"{FD_PMF_MAX_ORDER} (requested {n})"
        )
    h_k = model(kappa)
    d = model.nth_derivative(n, kappa)
    if n <= 170:
        return -((-kappa) ** n) * d / (math.factorial(n) * h_k)
    sign = -1.0 if n % 2 == 0 else 1.0
    scale = math.exp(n * math.log(kappa) - gammaln(n + 1.0))
    return sign * (-d) * scale / h_k * (-1.0)


class MixingLaw:
    """The discrete mixing variable K(kappa) for a given Bernstein model."""

    def __init__(self, model: BernsteinModel, kappa: float):
        if not kappa > 0:
            raise ValueError("kappa must be positive")
        self.model = model
        self.kappa = float(kappa)
        self.h_kappa = model(kappa)
        self.mean = kappa * model.h1 / self.h_kappa
        # E[K^2] = -kappa^2 h''(0) / h(kappa) + E[K]; the second derivative
        # at the origin, not at kappa (confirmed against brute-force PMF
        # sums for both builtin families).
        self.second_moment = -(kappa ** 2) * model.h2 / self.h_kappa + self.mean
        self._build_cache()

    # -- closed-form parameters for the builtin families ------------------

    @property
    def _geom_p(self) -> float:
        return 1.0 / (self.kappa + 1.0)

    @property
    def _log_p(self) -> float:
        return self.kappa / (1.0 + self.kappa)

    def _log_pmf_block(self, ns: np.ndarray) -> np.ndarray:
        """log p(n) for an array of n >= 1, family-specialized."""
        ns = ns.astype(float)
        if self.model.family == "rational":
            p = self._geom_p
            return np.log(p) + (ns - 1.0) * np.log1p(-p)
        if self.model.family == "logarithmic":
            p = self._log_p
            return ns * np.log(p) - np.log(ns) - math.log(-math.log1p(-p))
        raise NotImplementedError

    def _build_cache(self):
        if self.model.family in ("rational", "logarithmic"):
            n_max = 64
            while True:
                ns = np.arange(1, n_max + 1)
                pmf = np.exp(self._log_pmf_block(ns))
                if pmf.sum() >= CACHE_TARGET_MASS or n_max >= CACHE_N_CAP:
                    break
                n_max *= 2
        else:
            pmf_list = []
            n = 1
            total = 0.0
            limit = FD_PMF_MAX_ORDER if not self.model.closed_form_derivatives else 170
            while total < CACHE_TARGET_MASS and n <= limit:
                p = pmf_from_derivatives(self.model, self.kappa, n)
                pmf_list.append(max(p, 0.0))
                total += pmf_list[-1]
                n += 1
            pmf = np.array(pmf_list)
            if total < CACHE_TARGET_MASS and len(pmf) >= 2 and pmf[-2] > 0:
                # Approximate geometric tail continuation from the last
                # reliable decay ratio; documented as approximate.
                r = pmf[-1] / pmf[-2]
                if 0 < r < 1:
                    while pmf.sum() < CACHE_TARGET_MASS and len(pmf) < 10 ** 6:
                        ext = pmf[-1] * r ** np.arange(1, len(pmf) + 1)
                        pmf = np.concatenate([pmf, ext])
        self.pmf_table = pmf
        self.cdf_table = np.cumsum(pmf)
        self.mass = float(self.cdf_table[-1])

    # -- exports ----------------------------------------------------------

    def export_pmf_csv(self, path):
        n = np.arange(1, len(self.pmf_table) + 1)
        with open(path, "w", newline="") as f:
            write_csv(f, ["n", "p"], n, self.pmf_table)


def pgf_k(law: MixingLaw, u: float) -> float:
    """E[u^K] = 1 - h(kappa(1-u)) / h(kappa) for u in (0, 1]."""
    if not 0.0 < u <= 1.0:
        raise ValueError("pgf argument must lie in (0, 1]")
    return 1.0 - law.model(law.kappa * (1.0 - u)) / law.h_kappa


def pmf_k(law: MixingLaw, n: int) -> float:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0.0
    if law.model.family in ("rational", "logarithmic"):
        return float(np.exp(law._log_pmf_block(np.array([n]))[0]))
    return pmf_from_derivatives(law.model, law.kappa, n)


def mean_k(law: MixingLaw) -> float:
    return law.mean


def second_moment_k(law: MixingLaw) -> float:
    return law.second_moment


def sample_k(law: MixingLaw, rng: np.random.Generator, size=None):
    """Draw cluster sizes; native samplers for the builtin families."""
    if law.model.family == "rational":
        return rng.geometric(law._geom_p, size=size)
    if law.model.family == "logarithmic":
        return rng.logseries(law._log_p, size=size)
    if law.mass < CACHE_TARGET_MASS:
        raise RuntimeError(
            f"cached PMF mass {law.mass!r} is short of {CACHE_TARGET_MASS!r}; "
            "tail too heavy for the supported truncation"
        )
    u = rng.random(size=size)
    return np.searchsorted(law.cdf_table, u, side="left") + 1


# ---------------------------------------------------------------------------
# Continuous mixing variable for finite-activity models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousMixing:
    """Nonnegative mixing variable xi with unit mean."""

    cdf: Callable
    _sampler: Callable
    mean: float = 1.0

    def sample(self, rng: np.random.Generator, size=None):
        return self._sampler(rng, size)


def _gaver_stehfest_weights(n_terms: int = 12) -> np.ndarray:
    half = n_terms // 2
    V = np.zeros(n_terms)
    for k in range(1, n_terms + 1):
        s = 0.0
        for j in range((k + 1) // 2, min(k, half) + 1):
            s += (
                j ** half
                * math.factorial(2 * j)
                / (
                    math.factorial(half - j)
                    * math.factorial(j)
                    * math.factorial(j - 1)
                    * math.factorial(k - j)
                    * math.factorial(2 * j - k)
                )
            )
        V[k - 1] = (-1.0) ** (k + half) * s
    return V


def _invert_cdf_from_lst(g: Callable, s_grid: np.ndarray, n_terms: int = 12):
    """CDF of xi from its transform g via Gaver-Stehfest on F_hat = g(z)/z."""
    V = _gaver_stehfest_weights(n_terms)
    ln2 = math.log(2.0)
    F = np.empty_like(s_grid)
    for i, s in enumerate(s_grid):
        zs = np.arange(1, n_terms + 1) * ln2 / s
        F[i] = (ln2 / s) * np.dot(V, g(zs) / zs)
    F = np.maximum.accumulate(np.clip(F, 0.0, 1.0))
    return F


def continuous_mixing(model: BernsteinModel) -> ContinuousMixing:
    """Build the continuous mixing law xi for a finite-activity model.

    Rejects infinite-activity models: their normalized cluster sizes
    collapse to a point mass at zero in the limit.
    """
    if not model.activity.finite:
        raise ValueError(
            "continuous mixing exists only for finite-activity models; "
            "infinite-activity cluster sizes degenerate to zero"
        )
    C = model.activity.limit

    if model.family == "rational":
        def cdf(s):
            return -np.expm1(-np.asarray(s, dtype=float))

        def sampler(rng, size):
            return rng.exponential(1.0, size=size)

        return ContinuousMixing(cdf, sampler)

    def g(z):
        return 1.0 - model((C / model.h1) * np.asarray(z, dtype=float)) / C

    s_grid = np.logspace(-4, 2.2, 600)
    F = _invert_cdf_from_lst(g, s_grid)
    s_full = np.concatenate([[0.0], s_grid])
    F_full = np.concatenate([[0.0], F])
    F_full[-1] = 1.0

    def cdf(s):
        return np.interp(np.asarray(s, dtype=float), s_full, F_full)

    def sampler(rng, size):
        u = rng.random(size=size)
        return np.interp(u, F_full, s_full)

    return ContinuousMixing(cdf, sampler)
