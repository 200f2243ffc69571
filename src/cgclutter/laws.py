"""Closed-form reference laws and moments used as validation oracles.

Texture marginals: the finite-activity K-texture law with a point mass
at zero, and the gamma law of the infinite-activity example.  Window
count laws: Polya-Aeppli (Poisson-compounded geometric clusters) and
negative binomial (logarithmic clusters); each takes an int or an integer
array of n.  All mass functions are evaluated in the log domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bernstein import BernsteinModel, LimitTransform
from .bessel import scaled_i1

__all__ = [
    "TextureLaw",
    "k_texture_law",
    "gamma_texture_law",
    "polya_aeppli_pmf",
    "negbin_pmf",
    "texture_cov",
    "gaussian_limit_distance",
    "lst_moments",
]


@dataclass(frozen=True)
class TextureLaw:
    """Marginal law of the texture: optional atom at zero plus a density."""

    kind: str
    atom_at_zero: float
    pdf: Callable
    cdf: Callable


def _vectorized(fn):
    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        out = fn(np.atleast_1d(arr))
        return float(out[0]) if np.ndim(x) == 0 else out
    return wrapped


def k_texture_law(nu: float) -> TextureLaw:
    """Finite-activity texture marginal at shape nu.

    tau is a Poisson(nu) number of Exp(nu) marks, so 2 nu tau is a
    noncentral chi-square with 0 degrees of freedom and noncentrality 2 nu
    (Siegel 1979).  Atom e^(-nu) at zero; for tau > 0 the density is
    nu e^(-nu(1+tau)) tau^(-1/2) I1(2 nu sqrt(tau)), evaluated through the
    scaled Bessel function so the exponent collapses to -nu(1-sqrt(tau))^2.
    The CDF is closed form, from P(chi'2_0(lam) <= x) = P(chi'2_2(lam) <= x)
    + e^(-(lam+x)/2) I0(sqrt(lam x)) at x = 2 nu tau and lam = 2 nu:
    chndtr(2 nu tau, 2, 2 nu) + e^(-nu(1-sqrt(tau))^2) i0e(2 nu sqrt(tau)),
    which is the atom exactly at tau = 0.
    """
    if not 0 < nu < math.inf:
        raise ValueError("nu must be positive and finite")
    atom = math.exp(-nu)

    def pdf(tau):
        out = np.zeros_like(tau)
        pos = tau > 0
        r = np.sqrt(tau[pos])
        out[pos] = nu * np.exp(-nu * (1.0 - r) ** 2) * scaled_i1(2.0 * nu * r) / r
        return out

    def cdf(tau):
        from scipy.special import chndtr, i0e

        t = np.maximum(tau, 0.0)
        r = np.sqrt(t)
        vals = (chndtr(2.0 * nu * t, 2.0, 2.0 * nu)
                + np.exp(-nu * (1.0 - r) ** 2) * i0e(2.0 * nu * r))
        return np.where(tau < 0, 0.0, np.minimum(vals, 1.0))

    return TextureLaw("k-texture", atom, _vectorized(pdf), _vectorized(cdf))


def gamma_texture_law(nu: float) -> TextureLaw:
    """Unit-mean gamma texture: density nu^nu / Gamma(nu) tau^(nu-1) e^(-nu tau)."""
    if not 0 < nu < math.inf:
        raise ValueError("nu must be positive and finite")
    scale = 1.0 / nu

    def pdf(tau):
        from scipy.special import gammaln, xlogy

        # scipy.stats.gamma(a=nu, scale=scale).pdf, operation for operation
        y = np.maximum(tau, 0.0) / scale
        dens = np.exp(xlogy(nu - 1.0, y) - y - gammaln(nu)) / scale
        return np.where(tau >= 0, dens, 0.0)

    def cdf(tau):
        from scipy.special import gammainc

        return gammainc(nu, nu * np.maximum(tau, 0.0))

    return TextureLaw("gamma", 0.0, _vectorized(pdf), _vectorized(cdf))


def _count_pmf(log_pmf):
    """A count PMF from its log, which gets max(n, 0) as a float array.  n is
    an int or an integer array of any shape, the PMF is 0 below n = 0 and a
    float for a scalar n, and a non-integer or non-finite n is refused."""
    @functools.wraps(log_pmf)
    def pmf(a: float, b: float, n):
        ns = np.asarray(n, dtype=float)
        bad = ns[~np.isfinite(ns) | (ns != np.floor(ns))]
        if bad.size:
            raise ValueError(f"n must be an integer or an array of integers, not {bad.flat[0]:g}")
        out = np.where(ns < 0, 0.0, np.exp(log_pmf(a, b, np.maximum(ns, 0.0))))
        return float(out) if np.ndim(n) == 0 else out
    return pmf


@_count_pmf
def polya_aeppli_pmf(nu: float, p: float, n) -> float | np.ndarray:
    """Window-count PMF for geometric clusters of parameter p.

    Clusters come at Poisson rate lam = nu*(1-p).  Panjer's recursion,
    n p_n = (2q(n-1) + lam p) p_(n-1) - q^2 (n-2) p_(n-2) with q = 1 - p, runs
    once to the largest n on s_n = p_n / p_(n-1) - q, summing log1p(s_k / q)
    into log p_n - (n-1) log q: p_0 = e^(-lam) may underflow, and the small
    terms keep the sum's rounding small.
    """
    if not (0 < nu < math.inf and 0.0 < p < 1.0):
        raise ValueError("nu must be positive and finite and p must lie in (0, 1)")
    lam, q = nu * (1.0 - p), 1.0 - p
    if lam == 0.0:  # nu (1 - p) underflows: the law is the point mass at 0
        return np.where(n == 0, 0.0, -np.inf)
    s = lam * p / 2.0  # s_2; s_1 = lam p - q would round to -q at a tiny lam p
    logs = [-lam, math.log(lam) + math.log(p), math.log1p(s / q)]
    for k in range(3, int(n.max(initial=0.0)) + 1):
        s = (lam * p + q * (k - 2) * s / (q + s)) / k
        logs.append(math.log1p(s / q))
    return np.cumsum(logs)[n.astype(np.intp)] + np.maximum(n - 1.0, 0.0) * math.log(q)


@_count_pmf
def negbin_pmf(nu: float, nbar: float, n) -> float | np.ndarray:
    """Negative binomial window-count PMF with shape nu and mean nbar."""
    if not (0 < nu < math.inf and 0 < nbar < math.inf):
        raise ValueError("nu and nbar must be positive and finite")
    from scipy.special import gammaln

    return (
        gammaln(n + nu)
        - gammaln(nu)
        - gammaln(n + 1.0)
        + n * math.log(nbar / nu)
        - (nu + n) * math.log1p(nbar / nu)
    )


def texture_cov(nu: float, window: float, h2: float, s) -> float | np.ndarray:
    """Triangular texture autocovariance (-h2/nu)(1 - |s|/T), zero beyond T."""
    svals = np.abs(np.asarray(s, dtype=float))
    out = np.where(svals <= window, (-h2 / nu) * (1.0 - svals / window), 0.0)
    return float(out) if np.ndim(s) == 0 else out


def gaussian_limit_distance(model: BernsteinModel, nu: float, z_max: float) -> float:
    """sup over 2001 points z of [0, z_max] of |G(z) - e^(-z)| for the given shape."""
    if z_max < 0:
        raise ValueError("z_max must be nonnegative")
    if z_max == 0:
        return 0.0
    z = np.linspace(0.0, z_max, 2001)
    G = LimitTransform(model, nu)
    return float(np.max(np.abs(G(z) - np.exp(-z))))


def lst_moments(transform: LimitTransform) -> list:
    """Texture moments (-1)^m G^(m)(0) for m = 0, 1, 2, by one-sided differences
    at steps 1e-3 and 5e-4, Richardson-extrapolated."""
    def d1(h):
        return (-3.0 * transform(0.0) + 4.0 * transform(h) - transform(2 * h)) / (2 * h)

    def d2(h):
        return (2.0 * transform(0.0) - 5.0 * transform(h)
                + 4.0 * transform(2 * h) - transform(3 * h)) / h ** 2

    h = 1e-3
    return [float(transform(0.0)), -(4.0 * d1(h / 2) - d1(h)) / 3.0,
            (4.0 * d2(h / 2) - d2(h)) / 3.0]
