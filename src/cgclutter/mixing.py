"""Cluster-size laws derived from a Bernstein function.

The discrete mixing variable K has PGF 1 - h(kappa(1-u))/h(kappa) and PMF
p(n) = -(-kappa)^n h^(n)(kappa) / (n! h(kappa)) for n >= 1, zero at n = 0.
For the built-in models this reduces to the geometric (h = z/(z+1)) and
logarithmic (h = ln(1+z)) families, which get exact log-domain closed
forms and native samplers.  Any other model goes through its fitted
gamma-mixture Levy measure (`fit_bernstein`): K is then a mixture of
zero-truncated negative binomials.  Finite-activity models additionally
admit a continuous mixing variable xi with transform g(z) = 1 - h((C/h1) z)/C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammainc, gammaln

from ._export import write_csv
from .bernstein import FIT_NODES, BernsteinModel, fit_bernstein, levy_log_moments

__all__ = [
    "MixingLaw",
    "ContinuousMixing",
    "pgf_k",
    "pmf_k",
    "sample_k",
    "continuous_mixing",
]

CACHE_TARGET_MASS = 1.0 - 1e-10
CACHE_N_CAP = 10 ** 7
CACHE_CHUNK = 2 ** 18  # orders x components evaluated at once: 2 MB per temporary
LOGSERIES_BLOCK = 2 ** 15  # uniform doubles drawn at once by `_logseries`


def _with_measure(model: BernsteinModel) -> BernsteinModel:
    """A builtin or fitted model as it is; a hand-built one fitted on FIT_NODES."""
    if model.family in ("rational", "logarithmic", "levy"):
        return model
    return fit_bernstein(FIT_NODES, model(FIT_NODES))


class MixingLaw:
    """The discrete mixing variable K(kappa) for a given Bernstein model."""

    def __init__(self, model: BernsteinModel, kappa: float):
        if not kappa > 0:
            raise ValueError("kappa must be positive")
        self.model = model = _with_measure(model)
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
        # fitted measure: a mixture of zero-truncated negative binomials
        return (ns * math.log(self.kappa) - gammaln(ns + 1.0) - math.log(self.h_kappa)
                + levy_log_moments(self.model.measure, ns, self.kappa))

    def _build_cache(self):
        # CACHE_N_CAP bounds the terms summed: orders n times fitted components.
        # Each doubling adds only its new orders, CACHE_CHUNK terms at a time;
        # log p(n) is computed order by order, so the table does not depend
        # on how the orders are split.
        width = 1 if self.model.measure is None else len(self.model.measure[0])
        rows = max(CACHE_CHUNK // width, 1)
        pmf = np.empty(0)
        n_max = 64
        while True:
            ns = np.arange(len(pmf) + 1, n_max + 1)
            pmf = np.concatenate([pmf] + [np.exp(self._log_pmf_block(ns[i:i + rows]))
                                          for i in range(0, len(ns), rows)])
            if pmf.sum() >= CACHE_TARGET_MASS or n_max * width >= CACHE_N_CAP:
                break
            n_max *= 2
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
    return float(np.exp(law._log_pmf_block(np.array([n]))[0]))


def sample_k(law: MixingLaw, rng: np.random.Generator, size=None):
    """Draw cluster sizes; native samplers for the builtin families."""
    if law.model.family == "rational":
        return rng.geometric(law._geom_p, size=size)
    if law.model.family == "logarithmic":
        return _logseries(rng, law._log_p, size)
    if law.mass < CACHE_TARGET_MASS:
        raise ValueError(
            f"cached PMF mass {law.mass!r} is short of {CACHE_TARGET_MASS!r}; "
            "tail too heavy for the supported truncation"
        )
    u = rng.random(size=size)
    return np.searchsorted(law.cdf_table, u, side="left") + 1


def _logseries(rng: np.random.Generator, p: float, size=None):
    """`rng.logseries(p, size)`, draws and generator state alike, a block
    of doubles at a time.

    numpy's sampler (Kemp 1981) loops per draw: it reads a double V and
    returns 1 if V >= p; else it reads a double U, sets
    q = -expm1(U log1p(-p)) and returns floor(1 + log V / log q) if
    V <= q^2 (retrying if V == 0 or that is below 1), 1 if V >= q, else 2.
    Which doubles are V's follows from the doubles alone: the one after a
    double >= p is a V (it follows a V >= p or a U), and along a run of
    doubles < p, V's and U's alternate.  Every draw reads at least one
    double, so a block of as many doubles as draws still owed is never
    too many; a V left without its U is carried into the next block.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p < 0, p >= 1 or p is NaN")
    total = 1 if size is None else math.prod(np.atleast_1d(size))
    r = math.log1p(-p)
    out = np.empty(total, dtype=np.int64)
    done = 0
    d = np.empty(0)
    while done < total:
        d = np.concatenate([d, rng.random(min(total - done, LOGSERIES_BLOCK))])
        m = len(d)
        # the V's: each run [start, end) after a double >= p (and the
        # first) holds its V's at start, start + 2, ...
        ends = np.flatnonzero(d >= p) + 1
        counts = (np.diff(ends, prepend=0, append=m) + 1) // 2
        firsts = np.concatenate([[0], ends]) - 2 * (np.cumsum(counts) - counts)
        at = 2 * np.arange(counts.sum()) + np.repeat(firsts, counts)
        v = d[at]
        two = np.flatnonzero(v < p)
        carry = d[m:]
        if len(two) and at[two[-1]] == m - 1:
            carry = d[m - 1:]
            two, v = two[:-1], v[:-1]
        vt = v[two]
        q = -np.expm1(r * d[at[two] + 1])
        kt = np.where(vt >= q, 1, 2)
        big = np.flatnonzero(vt <= q * q)
        vb = vt[big]
        with np.errstate(divide="ignore", invalid="ignore"):
            kb = np.floor(1 + np.log(vb) / np.log(q[big]))
        # 0 marks a retry
        kt[big] = np.where((kb >= 1) & (vb != 0), kb, 0)
        k = np.ones(len(v), dtype=np.int64)
        k[two] = kt
        k = k[k > 0]
        out[done:done + len(k)] = k
        done += len(k)
        d = carry
    return int(out[0]) if size is None else out.reshape(size)


# ---------------------------------------------------------------------------
# Continuous mixing variable for finite-activity models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousMixing:
    """Nonnegative mixing variable xi with unit mean."""

    cdf: Callable
    _sampler: Callable

    def sample(self, rng: np.random.Generator, size=None):
        return self._sampler(rng, size)


def continuous_mixing(model: BernsteinModel) -> ContinuousMixing:
    """Build the continuous mixing law xi for a finite-activity model.

    Rejects infinite-activity models: their normalized cluster sizes
    collapse to a point mass at zero in the limit.
    """
    if not math.isfinite(model.C):
        raise ValueError(
            "continuous mixing exists only for finite-activity models; "
            "infinite-activity cluster sizes degenerate to zero"
        )
    if model.family == "rational":
        def cdf(s):
            return -np.expm1(-np.asarray(s, dtype=float))

        def sampler(rng, size):
            return rng.exponential(1.0, size=size)

        return ContinuousMixing(cdf, sampler)

    # xi mixes Gamma(k_j, scale theta_j) with weights c_j / C: its
    # transform 1 - h((C/h1) z)/C, term by term
    model = _with_measure(model)
    c, k, x = model.measure
    weights = c / model.C
    theta = (model.C / model.h1) * x / k

    def cdf(s):
        return gammainc(k, np.asarray(s, dtype=float)[..., None] / theta) @ weights

    def sampler(rng, size):
        j = rng.choice(len(c), size=size, p=weights)
        return rng.gamma(k[j], theta[j])

    return ContinuousMixing(cdf, sampler)
