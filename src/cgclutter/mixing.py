"""Cluster-size laws derived from a Bernstein function.

The discrete mixing variable K has PGF 1 - h(kappa(1-u))/h(kappa) and PMF
p(n) = -(-kappa)^n h^(n)(kappa) / (n! h(kappa)) for n >= 1, zero at n = 0.
For the built-in models this reduces to the geometric (h = z/(z+1)) and
logarithmic (h = ln(1+z)) families, which get exact log-domain closed
forms and native samplers.  Any other model is a gamma-mixture Levy
measure fitted by `fit_bernstein`: K is then a mixture of zero-truncated
negative binomials.  A model that is neither is refused.  Finite-activity
models additionally admit a continuous mixing variable xi with transform
g(z) = 1 - h((C/h1) z)/C, drawn by `sample_xi`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .bernstein import BernsteinModel, levy_log_moments

__all__ = [
    "MixingLaw",
    "pgf_k",
    "sample_k",
    "sample_xi",
]

CACHE_TARGET_MASS = 1.0 - 1e-10
CACHE_N_CAP = 10 ** 7
CACHE_CHUNK = 2 ** 18  # orders x components evaluated at once: 2 MB per temporary
# Uniform doubles drawn and parsed at once by `_logseries`.  Measured on a
# 2-vCPU x86-64 Xeon (numpy 2.4), medians of alternated runs: 1.01e6 draws
# at p = 150/151 took 41.5 ms in blocks of 2**13, 31.9 ms at 2**15,
# 29.8 ms at 2**16, 31.7 ms at 2**17 and 33.1 ms at 2**18; at p = 10/11,
# 57.2, 44.4, 42.9, 42.4 and 44.0 ms.  1.25e5 draws took 4.6-4.9 ms from
# 2**15 up.  Beyond the output, a call at 2**16 holds 1.9 MiB (tracemalloc).
LOGSERIES_BLOCK = 2 ** 16


def _check_model(model: BernsteinModel, finite: bool = False):
    """Refuse a model that is neither a builtin nor fitted and, with
    `finite`, one of infinite activity."""
    if finite and not math.isfinite(model.C):
        raise ValueError(
            "continuous mixing exists only for finite-activity models; "
            "infinite-activity cluster sizes degenerate to zero"
        )
    if model.family is None:
        raise ValueError("the model is neither a builtin nor fitted: "
                         "fit a bare h by fit_bernstein(FIT_NODES, h(FIT_NODES))")


class MixingLaw:
    """The discrete mixing variable K(kappa) for a builtin or fitted model."""

    def __init__(self, model: BernsteinModel, kappa: float):
        if not 0 < kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        _check_model(model)
        self.model = model
        self.kappa = float(kappa)
        if model.family == "logarithmic" and not self._log_p < 1.0:
            raise ValueError(f"kappa {kappa!r} is too large for the log-series law: "
                             "p = kappa/(1 + kappa) rounds to 1")
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


def pgf_k(law: MixingLaw, u: float) -> float:
    """E[u^K] = 1 - h(kappa(1-u)) / h(kappa) for u in (0, 1]."""
    if not 0.0 < u <= 1.0:
        raise ValueError("pgf argument must lie in (0, 1]")
    return 1.0 - law.model(law.kappa * (1.0 - u)) / law.h_kappa


def sample_k(law: MixingLaw, rng: np.random.Generator, size=None):
    """Draw cluster sizes; native samplers for the builtin families."""
    if law.model.family == "rational":
        return rng.geometric(law._geom_p, size=size)
    if law.model.family == "logarithmic":
        return _logseries(rng, law._log_p, size)
    if not law.mass >= CACHE_TARGET_MASS:
        raise ValueError(
            f"cached PMF mass {law.mass!r} is short of {CACHE_TARGET_MASS!r}; "
            "tail too heavy for the supported truncation"
        )
    u = rng.random(size=size)
    return np.searchsorted(law.cdf_table, u, side="left") + 1


def sample_xi(model: BernsteinModel, rng: np.random.Generator, size=None):
    """Draw the continuous mixing variable xi of a finite-activity model,
    with unit mean and transform 1 - h((C/h1) z)/C.

    Rejects infinite-activity models: their normalized cluster sizes
    collapse to a point mass at zero in the limit.
    """
    _check_model(model, finite=True)
    if model.family == "rational":
        return rng.exponential(1.0, size=size)
    # xi mixes Gamma(k_j, scale theta_j) with weights c_j / C: its
    # transform 1 - h((C/h1) z)/C, term by term
    c, k, x = model.measure
    j = rng.choice(len(c), size=size, p=c / model.C)
    theta = (model.C / model.h1) * x / k
    return rng.gamma(k[j], theta[j])


def _logseries(rng: np.random.Generator, p: float, size=None):
    """`rng.logseries(p, size)`, draws and generator state alike, a block
    of doubles at a time.

    numpy's sampler (Kemp 1981) loops per draw: it reads a double V and
    returns 1 if V >= p; else it reads a double U, sets
    q = -expm1(U log1p(-p)), and returns floor(1 + log V / log q) if
    V <= q^2 (retrying if V == 0), 1 if V >= q, else 2.  For 0 < V <= q^2
    that floor is at least 2, so numpy's retry below 1 never fires.
    Which doubles are V's follows from the doubles alone: the one after a
    double >= p is a V (it follows a V >= p or a U), and along a run of
    doubles < p, V's and U's alternate.  Every draw reads at least one
    double, so a block of as many doubles as draws still owed is never
    too many.

    Each block is parsed in one dense pass: every V is read with the
    double after it, and every branch is evaluated for all V's, in
    numpy's order, so that V >= p gives 1 even where V == 0 (at p = 0).
    One buffer holds the block after a V carried from the last one; the
    slot after the block stands in for the U of a V that ends it, and
    such a V < p is carried into the next block.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p < 0, p >= 1 or p is NaN")
    total = 1 if size is None else math.prod(np.atleast_1d(size))
    r = math.log1p(-p)
    out = np.empty(total, dtype=np.int64)
    buf = np.empty(min(total, LOGSERIES_BLOCK) + 2)
    done = c = 0  # draws written; doubles carried at the front of buf
    while done < total:
        m = c + min(total - done, LOGSERIES_BLOCK)
        rng.random(m - c, out=buf[c:m])
        buf[m] = 0.5
        # the V's: each run [start, end) after a double >= p (and the
        # first) holds its V's at start, start + 2, ...
        ends = np.flatnonzero(buf[:m] >= p) + 1
        counts = (np.diff(ends, prepend=0, append=m) + 1) // 2
        firsts = np.concatenate([[0], ends]) - 2 * (np.cumsum(counts) - counts)
        at = np.repeat(firsts, counts)
        at += np.arange(0, 2 * len(at), 2)
        v = buf[at]
        q = np.take(buf[1:], at)
        q *= r
        np.expm1(q, out=q)
        np.negative(q, out=q)
        # floor(1 + log V / log q) where V <= q^2, else 0.  For V > 0 it is
        # finite, and at least 2, as V <= q^2 < q; so the maximum with the
        # 1 (V >= q) or 2 (V < q) of the last two branches keeps it.  V == 0
        # gives inf or NaN here, and is dropped or set to 1 below.
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.log(v)
            k /= np.log(q)
            k += 1
            np.floor(k, out=k)
            k *= v <= q * q
            np.maximum(k, 2.0 - (v >= q), out=k)
        k[v >= p] = 1
        # V == 0 below p is a retry, and a V < p that ends the block waits
        # for its U
        keep = v > 0 if p > 0 else np.ones(len(v), dtype=bool)
        c = int(at[-1] == m - 1 and v[-1] < p)
        if c:
            keep[-1] = False
            buf[0] = buf[m - 1]
        k = k[keep]
        out[done:done + len(k)] = k
        done += len(k)
    return int(out[0]) if size is None else out.reshape(size)

