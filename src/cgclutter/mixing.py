"""Cluster-size laws derived from a Bernstein function.

The discrete mixing variable K has PGF 1 - h(kappa(1-u))/h(kappa) and PMF
p(n) = -(-kappa)^n h^(n)(kappa) / (n! h(kappa)) for n >= 1, zero at n = 0.
For the built-in models this reduces to the geometric (h = z/(z+1)) and
logarithmic (h = ln(1+z)) families, which get exact log-domain closed
forms and native samplers.  Any other model is a gamma-mixture Levy
measure fitted by `fit_bernstein`: K is then a mixture of zero-truncated
negative binomials, drawn exactly.  No law is tabulated: `MixingLaw.pmf`
evaluates the PMF on demand.  A model that is neither is refused.
Finite-activity models additionally admit a continuous mixing variable
xi with transform g(z) = 1 - h((C/h1) z)/C, drawn by `sample_xi`.
"""

from __future__ import annotations

import math

import numpy as np

from .bernstein import BernsteinModel, levy_log_moments

__all__ = [
    "MixingLaw",
    "pgf_k",
    "sample_k",
    "sample_xi",
]

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
    """The discrete mixing variable K(kappa) for a builtin or fitted model.

    A fitted model is a compound Poisson of mass C: past the largest w it
    was fitted at, its h saturates at C, and at such a kappa K follows the
    fit, not the law the fit tabulates.  `from_lst` of the gamma law at
    nu = 2 (nodes to w = 1e6) gives h(1e8) = 16.39 against
    ln(1 + 1e8) = 18.42.  Such a kappa is accepted.
    """

    def __init__(self, model: BernsteinModel, kappa: float):
        if not 0 < kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        _check_model(model)
        self.model = model
        self.kappa = float(kappa)
        if model.family == "logarithmic" and not self._logseries_p < 1.0:
            raise ValueError(f"kappa {kappa!r} is too large for the log-series law: "
                             "p = kappa/(1 + kappa) rounds to 1")
        self.h_kappa = model(kappa)
        self.mean = kappa * model.h1 / self.h_kappa
        # E[K^2] = -kappa^2 h''(0) / h(kappa) + E[K], with h'' at the origin
        self.second_moment = -self.kappa * self.kappa * model.h2 / self.h_kappa + self.mean
        if not math.isfinite(self.second_moment):
            raise ValueError(f"kappa {kappa!r} is too large: E[K^2] overflows")
        # P(K >= 2**63) is that of a component's gamma rate to a relative 1e-8,
        # sum_j c_j Q(k_j, 2**63/theta_j); the geometric law's one component
        # (c = k = 1, theta = kappa) is Q(1, y) = exp(-y), so it needs no scipy.
        # Below kappa = 1e16 the log-series law's is E1(2**63/kappa)/ln(kappa) ~ 0
        if model.family == "logarithmic":
            tail = 0.0
        elif model.family == "rational":
            tail = math.exp(-2.0 ** 63 / self.kappa)
        else:
            from scipy.special import gammaincc

            c, k, theta, _ = self._components()
            with np.errstate(over="ignore"):  # 2**63/theta = inf: no tail at all
                tail = c @ gammaincc(k, 2.0 ** 63 / theta)
        if tail > 1e-16 * self.h_kappa:
            raise ValueError(f"kappa {kappa!r} is too large: K >= 2**63, past "
                             "int64, has probability above 1e-16")

    @property
    def _logseries_p(self) -> float:
        return self.kappa / (1.0 + self.kappa)

    def _components(self):
        """(c_j, k_j, theta_j = kappa x_j/k_j, a_j = 1 - (1 + theta_j)^-k_j) of the
        Levy measure (c, k, x); the geometric law's is c = k = x = 1."""
        c, k, x = self.model.measure or (np.ones(1),) * 3
        theta = self.kappa * x / k
        return c, k, theta, -np.expm1(-k * np.log1p(theta))

    def pmf(self, n):
        """P(K = n) in closed form, for an integer n or an array of them; 0 below 1."""
        ns = np.asarray(n, dtype=float)
        m = np.maximum(ns, 1.0)
        if self.model.family == "rational":  # p (1 - p)^(n - 1), p = 1/(kappa + 1)
            log_p = -math.log1p(self.kappa) - (m - 1.0) * math.log1p(1.0 / self.kappa)
        elif self.model.family == "logarithmic":  # p^n/(n ln(1 + kappa)), p = kappa/(1 + kappa)
            log_p = -m * math.log1p(1.0 / self.kappa) - np.log(m * math.log1p(self.kappa))
        else:  # a mixture of zero-truncated negative binomials
            from scipy.special import gammaln

            log_p = (m * math.log(self.kappa) - gammaln(m + 1.0) - math.log(self.h_kappa)
                     + levy_log_moments(self.model.measure, m, self.kappa))
        out = np.exp(log_p) * (ns >= 1.0)
        return float(out) if np.ndim(n) == 0 else out


def pgf_k(law: MixingLaw, u: float) -> float:
    """E[u^K] = 1 - h(kappa(1-u)) / h(kappa) for u in (0, 1]."""
    if not 0.0 < u <= 1.0:
        raise ValueError("pgf argument must lie in (0, 1]")
    return 1.0 - law.model(law.kappa * (1.0 - u)) / law.h_kappa


def sample_k(law: MixingLaw, rng: np.random.Generator, size=None):
    """Draw cluster sizes: an int for `size` None, else an int64 array.

    The builtins draw by `rng.geometric` and `_logseries`.  A fitted K is
    exact, with no table and no rejection: pick component j by weight c_j a_j,
    invert the CDF (1 - (1 + theta s)^-k) / a of the first point s on [0, 1]
    of its Poisson process, given one; its rate given s is Gamma(k + 1, scale
    theta / (1 + theta s)), and K = 1 + Poisson(rate (1 - s))."""
    if law.model.family == "rational":
        return rng.geometric(1.0 / (law.kappa + 1.0), size=size)
    if law.model.family == "logarithmic":
        return _logseries(rng, law._logseries_p, size)
    c, k, theta, a = law._components()
    cdf = np.cumsum(c * a)
    j = np.searchsorted(cdf, rng.random(size) * cdf[-1])
    k, theta, a = k[j], theta[j], a[j]
    s = np.minimum(np.expm1(-np.log1p(-rng.random(size) * a) / k) / theta, 1.0)
    return 1 + rng.poisson(rng.gamma(k + 1.0, theta / (1.0 + theta * s)) * (1.0 - s))


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

    The tests match numpy's draws for p <= 1 - 1e-9.  Near p = 1 the draws
    are about 1/(1 - p), and np.log and the C sampler's libm log may differ
    by an ulp: at p = 1 - 1e-15, under numpy's wide-SIMD np.log (AVX-512 on
    a 2-vCPU Xeon, numpy 2.4), 104, 88 and 93 of 3e5 draws (seeds 1-3)
    differed from numpy's, 284 of them one higher and one one lower; with
    that dispatch off, none did.
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

