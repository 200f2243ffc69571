"""Bernstein functions: evaluation, fitting, limit transform.

A Bernstein function here is a nonnegative function h on [0, inf) with
h(0) = 0, completely monotonic first derivative, sublinear growth
(h(z)/z -> 0), and finite h'(0) > 0, h''(0) <= 0.  Such a function drives
the whole texture construction: it defines the cluster-size law, the
Poisson intensity, and the Laplace-Stieltjes transform of the limiting
texture marginal G(z) = exp(-nu * h(z / (nu * h1))).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "BernsteinModel",
    "LimitTransform",
    "make_builtin_finite",
    "make_builtin_infinite",
    "from_lst",
    "fit_transform",
    "fit_bernstein",
    "levy_log_moments",
]

FIT_TOL = 1e-6  # largest relative miss of a fit, and |h1 - 1| of a table's
FIT_SHAPES = (1.0, 4.0, 16.0)  # gamma shapes of the fit's Levy densities
FIT_NODES = np.logspace(-4, 6, 201)  # w at which from_lst samples G and a bare h is fitted


def _as_float_array(z):
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0):
        raise ValueError("Bernstein functions are defined for z >= 0 only")
    return arr


class BernsteinModel:
    """A Bernstein function h with h'(0), h''(0) and Levy mass C = lim h.

    `fn` must accept numpy arrays.  C is finite for finite activity,
    `math.inf` otherwise.  A model is either a closed form (the two
    builtins) or fitted: `measure` is the Levy measure (c, k, x) of a model
    built by `fit_bernstein`, None otherwise.  Only the builtins and the
    fit set `family` ("rational", "logarithmic", "levy"): `mixing` and
    `validation` use the closed forms it names, and `mixing` refuses a
    model without one.  A bare h is modelled by
    `fit_bernstein(FIT_NODES, h(FIT_NODES))`.
    """

    family = None
    measure = None

    def __init__(self, fn: Callable, *, h1: float, h2: float, C: float = math.inf):
        self._fn = fn
        self.h1 = float(h1)
        self.h2 = float(h2)
        self.C = float(C)
        if not self.h1 > 0:
            raise ValueError("h'(0) must be positive")
        if self.h2 > 0:
            raise ValueError("h''(0) must be nonpositive")
        if not self.C > 0:
            raise ValueError("the Levy mass C must be positive")

    def __call__(self, z):
        arr = _as_float_array(z)
        out = self._fn(arr)
        return float(out) if np.ndim(z) == 0 else out

    def __repr__(self):
        return f"BernsteinModel({self.family}, h1={self.h1:g}, h2={self.h2:g}, C={self.C:g})"


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def make_builtin_finite() -> BernsteinModel:
    """h(z) = z / (z + 1): finite activity, geometric cluster sizes."""

    def fn(z):
        return z / (z + 1.0)

    model = BernsteinModel(fn, h1=1.0, h2=-2.0, C=1.0)
    model.family = "rational"
    return model


def make_builtin_infinite() -> BernsteinModel:
    """h(z) = ln(1 + z): infinite activity, logarithmic cluster sizes."""
    model = BernsteinModel(np.log1p, h1=1.0, h2=-1.0)
    model.family = "logarithmic"
    return model


# ---------------------------------------------------------------------------
# Construction from a Laplace-Stieltjes transform
# ---------------------------------------------------------------------------

def fit_transform(z, g, nu) -> BernsteinModel:
    """Fit h(w) = -ln G(nu w) / nu to a table g = G(z), whichever way it comes in.

    Raises ValueError unless nu is positive and finite, z and g are of one
    length, z is finite and strictly increasing from z[0] = 0 to some z > 0,
    and G is the transform of a unit-mean law: G(0) = 1, 0 <= G <= 1 and
    the fitted h'(0) = 1 within FIT_TOL.  Nodes where G rounds to 1 (h = 0)
    or underflows to 0 (h infinite) are dropped; the rest go to `fit_bernstein`.
    """
    if not 0 < nu < math.inf:
        raise ValueError("nu must be positive and finite")
    z, g = np.asarray(z, dtype=float), np.asarray(g, dtype=float)
    if len(z) != len(g):
        raise ValueError(f"LST table columns differ in length: {len(z)} z against {len(g)} G")
    bad = z[~np.isfinite(z)]
    if len(bad):
        raise ValueError(f"LST table abscissae must be finite, not z = {bad[0]:g}")
    if len(z) == 0 or z[0] != 0.0:
        raise ValueError("LST table must start at z = 0")
    if not np.all(z[1:] > z[:-1]):
        raise ValueError("LST table abscissae must be strictly increasing")
    if len(z) < 2:
        raise ValueError("LST table needs a row with z > 0")
    if abs(g[0] - 1.0) > 1e-9:
        raise ValueError(f"G(0) = {float(g[0])!r} is not 1 within 1e-9")
    if not np.all((g >= 0.0) & (g <= 1.0 + 1e-12)):
        raise ValueError("G values must lie in [0, 1]")
    keep = (g > 0.0) & (g < 1.0)
    model = fit_bernstein(z[keep] / nu, -np.log(g[keep]) / nu)
    if not abs(model.h1 - 1.0) <= FIT_TOL:
        raise ValueError(f"the table is not a unit-mean law's transform: the fitted "
                         f"h'(0) = h1 = {model.h1:.6g}, not 1 within {FIT_TOL:g}")
    return model


def from_lst(G_of_z: Callable, nu: float) -> BernsteinModel:
    """The model of a unit-mean infinitely divisible law with transform G.

    G is sampled at z = nu * [0, FIT_NODES] and fitted by `fit_transform`,
    exactly as a `--lst-file` table is: the result is a compound Poisson
    even when G's own Levy measure has infinite mass.
    """
    z = nu * np.concatenate([[0.0], FIT_NODES])
    return fit_transform(z, G_of_z(z), nu)


# ---------------------------------------------------------------------------
# A Levy measure fitted to samples of h
# ---------------------------------------------------------------------------

def levy_log_moments(measure, n, z):
    """ln of int s^n e^(-zs) Pi(ds) for an array of orders n (ln |h^(n)(z)| if n >= 1),
    where Pi = (c, k, x) weights gamma densities of shape k and mean x by c."""
    from scipy.special import gammaln, logsumexp

    c, k, x = measure
    theta = x / k
    n = np.asarray(n, dtype=float)[..., None]
    return logsumexp(np.log(c) + gammaln(k + n) - gammaln(k) + n * np.log(theta)
                     - (k + n) * np.log1p(z * theta), axis=-1)


def fit_bernstein(w, h) -> BernsteinModel:
    """Fit a nonnegative Levy measure to samples h(w) > 0 of a Bernstein function.

    h(w) = sum_j c_j (1 - (1 + w x_j / k_j)^-k_j), c_j >= 0 by nonnegative
    least squares on the relative miss: weight c_j on the gamma density of
    shape k_j in FIT_SHAPES and mean x_j, 10 means per decade over
    [0.1/max w, 10/min w].  The result is a compound Poisson of mass
    C = sum c_j; smaller jumps are truncated.  Raises ValueError when the
    largest relative miss exceeds FIT_TOL.
    """
    from scipy.optimize import nnls  # only non-builtin models need it

    w = np.asarray(w, dtype=float)
    h = np.asarray(h, dtype=float)
    if not (w.ndim == 1 and w.size and w.shape == h.shape and np.all(w > 0)
            and np.all(h > 0) and np.all(np.isfinite(h))):
        raise ValueError("fit_bernstein needs 1-d samples with w > 0 and finite h(w) > 0")
    lo, hi = math.log10(0.1 / w.max()), math.log10(10.0 / w.min())
    means = np.logspace(lo, hi, math.ceil(10 * (hi - lo)) + 1)
    k, x = (a.ravel() for a in np.meshgrid(FIT_SHAPES, means))
    basis = -np.expm1(-k * np.log1p(np.outer(w, x / k))) / h[:, None]
    try:
        # nearly collinear columns take up to ~12 steps each, past the default 3
        c, _ = nnls(basis, np.ones_like(h), maxiter=30 * len(k))
    except RuntimeError as exc:
        raise ValueError(f"Levy-measure fit did not converge: {exc}") from exc
    miss = float(np.max(np.abs(basis @ c - 1.0)))
    if not miss <= FIT_TOL:
        raise ValueError(f"no Levy measure fits the samples: the relative miss "
                         f"{miss:.3g} exceeds {FIT_TOL:g}")
    return _levy_model((c[c > 0], k[c > 0], x[c > 0]))


def _levy_model(measure) -> BernsteinModel:
    """h(z) = sum_j c_j (1 - (1 + z x_j / k_j)^-k_j) of a Levy measure (c, k, x), c > 0."""
    c, k, x = measure

    def fn(z):
        return -np.expm1(-k * np.log1p(np.asarray(z)[..., None] * (x / k))) @ c

    model = BernsteinModel(fn, h1=float(c @ x),
                           h2=-float(np.sum(c * x ** 2 * (k + 1.0) / k)),
                           C=float(c.sum()))
    model.family, model.measure = "levy", measure
    return model


# ---------------------------------------------------------------------------
# Limit transform
# ---------------------------------------------------------------------------

class LimitTransform:
    """G(z) = exp(-nu h(z / (nu h1))): the texture marginal's transform."""

    def __init__(self, model: BernsteinModel, nu: float):
        if not 0 < nu < math.inf:
            raise ValueError("nu must be positive and finite")
        self.model = model
        self.nu = float(nu)

    def __call__(self, z):
        arr = _as_float_array(z)
        out = np.exp(-self.nu * self.model._fn(arr / (self.nu * self.model.h1)))
        return float(out) if np.ndim(z) == 0 else out
