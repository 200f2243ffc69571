"""Oracle checks: simulated and computed laws against their closed forms.

A model needs no check of its own: the builtins are Bernstein in closed
form, and `fit_bernstein` fits a nonnegative Levy measure or refuses h.

Every check is a pure function returning `Check` rows.  `cgclutter
validate` prints the rows and the acceptance suite asserts them, so both
judge a law by the same arithmetic and the same bound.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bernstein import LimitTransform
from .estimators import ks_distance, summarize
from .laws import (gamma_texture_law, gaussian_limit_distance, k_texture_law,
                   lst_moments, texture_cov)
from .mixing import MixingLaw, pgf_k, sample_k

# G(z) -> e^-z is a statement about nu -> infinity, so it is checked at one
# large shape whatever shape a run uses
GAUSSIAN_LIMIT_NU = 1e4

# draws behind the mean_k row: 0.7 ms geometric, 2.7 ms log-series at kappa 150 (2-vCPU Xeon)
MEAN_K_DRAWS = 2 ** 16

# the covariance suite's last lag, in windows T: the triangle has vanished there
TAIL_LAG = 1.5


class Check(NamedTuple):
    """One oracle comparison; `tol` is the bound the verdict `ok` used."""

    name: str
    measured: float
    expected: float
    tol: float
    ok: bool


def _check(name, measured, expected, tol, inclusive=False) -> Check:
    dev = abs(measured - expected)
    return Check(name, measured, expected, tol, bool(dev <= tol if inclusive else dev < tol))


def thin_to_independent(samples, window: float, dt: float):
    """Every (ceil(T/dt)+1)-th grid sample: spaced beyond T, so independent."""
    return samples[:: math.ceil(window / dt) + 1]


def marginal_law(model, nu: float):
    """The closed-form texture marginal of a builtin family; None for others."""
    if model.family == "rational":
        return k_texture_law(nu)
    if model.family == "logarithmic":
        return gamma_texture_law(nu)
    return None


def marginal_checks(samples, law, cfg) -> list:
    """KS distance of the thinned grid samples to the marginal law."""
    ks = ks_distance(thin_to_independent(samples, cfg.window, cfg.dt),
                     law.cdf, law.atom_at_zero)
    return [_check(f"ks_vs_{law.kind}", ks, 0.0, 0.02)]


def tail_lag_steps(cfg) -> int:
    """Grid steps to the lag TAIL_LAG * T; the grid must have more points."""
    return int(round(TAIL_LAG * cfg.window / cfg.dt))


def covariance_checks(samples, model, cfg) -> list:
    """Triangular autocovariance at lags 0, T/4, T/2, 3T/4 within a tenth of
    the variance, and the vanishing lag TAIL_LAG * T within 3 Bartlett
    standard errors sqrt((c0^2 + 2 sum_k c_k^2) / n)."""
    summ = summarize(samples, cfg.dt, TAIL_LAG * cfg.window)
    lag0 = texture_cov(cfg.nu, cfg.window, model.h2, 0.0)
    rows = []
    for frac in (0.0, 0.25, 0.5, 0.75):
        k = int(round(frac * cfg.window / cfg.dt))
        expected = texture_cov(cfg.nu, cfg.window, model.h2, k * cfg.dt)
        rows.append(_check(f"autocov_lag_{frac:g}T", summ.autocov[k][1], expected,
                           0.1 * lag0, inclusive=True))
    c = np.array([v for _, v in summ.autocov])
    se = math.sqrt((c[0] ** 2 + 2.0 * np.sum(c[1:] ** 2)) / summ.n)
    k = tail_lag_steps(cfg)
    rows.append(_check(f"autocov_lag_{TAIL_LAG:g}T", summ.autocov[k][1], 0.0, 3.0 * se,
                       inclusive=True))
    return rows


def moment_checks(model, nu: float) -> list:
    """G(0) = 1 exactly, unit mean, and E tau^2 - 1 = -h2/nu."""
    m0, m1, m2 = lst_moments(LimitTransform(model, nu))
    return [_check("G_at_0", m0, 1.0, 0.0, inclusive=True),
            _check("first_moment", m1, 1.0, 1e-6),
            _check("excess_second_moment", m2 - 1.0, -model.h2 / nu, 1e-4)]


def mixing_checks(model, kappa: float, seed: int) -> list:
    """The cluster-size PMF, summed while 0.9^n >= 1e-17, against the PGF, and
    the mean of MEAN_K_DRAWS draws of `sample_k`, from a generator of their
    own, against E[K] within 5 standard errors."""
    law = MixingLaw(model, kappa)
    ns = np.arange(1.0, 372.0)  # 0.9^n >= 1e-17: the terms left out sum below 1e-17
    rows = [_check(f"pgf_vs_pmf_u_{u:g}", float(np.dot(law.pmf(ns), u ** ns)),
                   pgf_k(law, u), 1e-8) for u in (0.25, 0.5, 0.9)]
    k = sample_k(law, np.random.default_rng([seed, 0x4B]), size=MEAN_K_DRAWS)
    se = math.sqrt(max(law.second_moment - law.mean ** 2, 0.0) / MEAN_K_DRAWS)
    return rows + [_check("mean_k", float(np.mean(k, dtype=float)), law.mean, 5.0 * se,
                          inclusive=True)]


def gaussian_limit_checks(model) -> list:
    """sup |G - e^-z| over [0, 5] at shape GAUSSIAN_LIMIT_NU."""
    d = gaussian_limit_distance(model, GAUSSIAN_LIMIT_NU, 5.0)
    return [_check("sup_G_minus_exp", d, 0.0, 1e-3)]

