"""Closed-form reference laws and moments used as validation oracles.

Texture marginals: the finite-activity K-texture law with a point mass
at zero, and the gamma law of the infinite-activity example.  Window
count laws: Polya-Aeppli (Poisson-compounded geometric clusters) and
negative binomial (logarithmic clusters).  All mass functions are
evaluated in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammainc, gammaln
from scipy.stats import gamma as _gamma_dist

from ._export import write_csv
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

    def export_csv(self, path, x):
        x = np.asarray(x, dtype=float)
        with open(path, "w", newline="") as f:
            write_csv(f, ["x", "pdf", "cdf"], x, self.pdf(x), self.cdf(x))


def _vectorized(fn):
    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        out = fn(np.atleast_1d(arr))
        return float(out[0]) if np.ndim(x) == 0 else out
    return wrapped


def k_texture_law(nu: float) -> TextureLaw:
    """Finite-activity texture marginal at shape nu.

    Atom e^(-nu) at zero; for tau > 0 the density is
    nu e^(-nu(1+tau)) tau^(-1/2) I1(2 nu sqrt(tau)), evaluated through the
    scaled Bessel function so the exponent collapses to -nu(1-sqrt(tau))^2.
    The CDF is tabulated by composite Simpson in the sqrt(tau) variable,
    where the integrand is smooth and bounded.
    """
    if not nu > 0:
        raise ValueError("nu must be positive")
    atom = math.exp(-nu)

    def pdf(tau):
        out = np.zeros_like(tau)
        pos = tau > 0
        r = np.sqrt(tau[pos])
        out[pos] = nu * np.exp(-nu * (1.0 - r) ** 2) * scaled_i1(2.0 * nu * r) / r
        return out

    # CDF table on u = sqrt(tau): dF = 2 nu exp(-nu(1-u)^2) i1e(2 nu u) du
    u_hi = 1.0 + math.sqrt(45.0 / nu) + 2.0 / nu
    m = 40001  # odd count for Simpson
    u = np.linspace(0.0, u_hi, m)
    integrand = 2.0 * nu * np.exp(-nu * (1.0 - u) ** 2) * scaled_i1(2.0 * nu * u)
    h = u[1] - u[0]
    cum = np.zeros(m)
    # cumulative Simpson over pairs of intervals; odd nodes by half-rule
    f0, f1, f2 = integrand[:-2:2], integrand[1:-1:2], integrand[2::2]
    pair = h / 3.0 * (f0 + 4.0 * f1 + f2)
    cum[2::2] = np.cumsum(pair)
    cum[1::2] = cum[:-1:2] + h / 12.0 * (5.0 * integrand[:-1:2][: len(cum[1::2])]
                                         + 8.0 * integrand[1::2]
                                         - integrand[2::2])

    def cdf(tau):
        r = np.sqrt(np.maximum(tau, 0.0))
        vals = atom + np.interp(r, u, cum)
        vals = np.where(tau < 0, 0.0, vals)
        return np.minimum(vals, 1.0)

    return TextureLaw("k-texture", atom, _vectorized(pdf), _vectorized(cdf))


def gamma_texture_law(nu: float) -> TextureLaw:
    """Unit-mean gamma texture: density nu^nu / Gamma(nu) tau^(nu-1) e^(-nu tau)."""
    if not nu > 0:
        raise ValueError("nu must be positive")
    dist = _gamma_dist(a=nu, scale=1.0 / nu)

    def pdf(tau):
        return np.where(tau >= 0, dist.pdf(tau), 0.0)

    def cdf(tau):
        return gammainc(nu, nu * np.maximum(tau, 0.0))

    return TextureLaw("gamma", 0.0, _vectorized(pdf), _vectorized(cdf))


def polya_aeppli_pmf(nu: float, p: float, n: int) -> float:
    """Window-count PMF for geometric clusters of parameter p.

    The Poisson rate of clusters is nu*(1-p); n = 0 carries the whole
    no-cluster mass e^(-nu(1-p)).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    lam = nu * (1.0 - p)
    if n < 0:
        return 0.0
    if n == 0:
        return math.exp(-lam)
    ks = np.arange(1, n + 1, dtype=float)
    logs = (
        -lam
        + ks * math.log(lam)
        - gammaln(ks + 1.0)
        + gammaln(float(n))
        - gammaln(ks)
        - gammaln(n - ks + 1.0)
        + (n - ks) * math.log1p(-p)
        + ks * math.log(p)
    )
    mx = logs.max()
    return float(math.exp(mx) * np.exp(logs - mx).sum())


def negbin_pmf(nu: float, nbar: float, n) -> float | np.ndarray:
    """Negative binomial window-count PMF with shape nu and mean nbar."""
    if not (nu > 0 and nbar > 0):
        raise ValueError("nu and nbar must be positive")
    ns = np.asarray(n, dtype=float)
    logp = (
        gammaln(ns + nu)
        - gammaln(nu)
        - gammaln(ns + 1.0)
        + ns * math.log(nbar / nu)
        - (nu + ns) * math.log1p(nbar / nu)
    )
    out = np.exp(logp)
    return float(out) if np.ndim(n) == 0 else out


def texture_cov(nu: float, window: float, h2: float, s) -> float | np.ndarray:
    """Triangular texture autocovariance (-h2/nu)(1 - s/T), zero beyond T."""
    svals = np.asarray(s, dtype=float)
    out = np.where(svals <= window, (-h2 / nu) * (1.0 - svals / window), 0.0)
    out = np.where(svals < 0, 0.0, out)
    return float(out) if np.ndim(s) == 0 else out


def gaussian_limit_distance(model: BernsteinModel, nu: float, z_max: float,
                            n_grid: int = 2001) -> float:
    """sup over z in [0, z_max] of |G(z) - e^(-z)| for the given shape."""
    if z_max < 0:
        raise ValueError("z_max must be nonnegative")
    if z_max == 0:
        return 0.0
    z = np.linspace(0.0, z_max, n_grid)
    G = LimitTransform(model, nu)
    return float(np.max(np.abs(G(z) - np.exp(-z))))


def lst_moments(transform: LimitTransform, order: int = 2) -> list:
    """Texture moments (-1)^m G^(m)(0) for m = 0..order, by one-sided differences."""
    if order > 2:
        raise ValueError("only moments up to order 2 are supported")
    out = [float(transform(0.0))]
    if order >= 1:
        def d1(h):
            return (-3.0 * transform(0.0) + 4.0 * transform(h) - transform(2 * h)) / (2 * h)
        h = 1e-3
        out.append(-(4.0 * d1(h / 2) - d1(h)) / 3.0)
    if order >= 2:
        def d2(h):
            return (2.0 * transform(0.0) - 5.0 * transform(h)
                    + 4.0 * transform(2 * h) - transform(3 * h)) / h ** 2
        h = 1e-3
        out.append((4.0 * d2(h / 2) - d2(h)) / 3.0)
    return out
