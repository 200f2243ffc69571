"""Correlated complex Gaussian speckle and the texture-speckle composition.

Clutter samples are z_i = sqrt(tau(t_i)) * x_i with the texture tau drawn
independently of the zero-mean circular Gaussian speckle x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from ._export import write_csv
from .texture import TexturePath, _grid_length, sample_on_grid

__all__ = [
    "White",
    "AR1",
    "CustomACF",
    "SpeckleSpec",
    "ClutterSeries",
    "gen_speckle",
    "compose",
]

CUSTOM_ACF_MAX_N = 8192


@dataclass(frozen=True)
class White:
    pass


@dataclass(frozen=True)
class AR1:
    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("AR1 coefficient must lie in [0, 1)")


@dataclass(frozen=True)
class CustomACF:
    acf: tuple  # autocovariance at lags 0, dt, 2 dt, ...


Correlation = Union[White, AR1, CustomACF]


@dataclass(frozen=True)
class SpeckleSpec:
    variance: float = 1.0
    correlation: Correlation = field(default_factory=White)
    dt: float = 1.0

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("speckle variance must be positive")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    def to_dict(self) -> dict:
        corr = self.correlation
        if isinstance(corr, White):
            c = {"kind": "white"}
        elif isinstance(corr, AR1):
            c = {"kind": "ar1", "rho": corr.rho}
        else:
            c = {"kind": "custom", "acf": list(corr.acf)}
        return {"variance": self.variance, "dt": self.dt, "correlation": c}


@dataclass(frozen=True)
class ClutterSeries:
    t: np.ndarray
    z: np.ndarray
    tau: np.ndarray

    def export_csv(self, path):
        with open(path, "w", newline="") as f:
            write_csv(f, ["t", "re", "im", "tau"], self.t, self.z.real, self.z.imag, self.tau)


def _white_complex(n, rng, variance):
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def gen_speckle(spec: SpeckleSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean circular complex Gaussian series of length n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    corr = spec.correlation
    if isinstance(corr, White):
        return _white_complex(n, rng, spec.variance)
    if isinstance(corr, AR1):
        rho = corr.rho
        w = _white_complex(n, rng, spec.variance * (1.0 - rho ** 2))
        x0 = _white_complex(1, rng, spec.variance)[0]  # stationary start
        out, _ = lfilter([1.0], [1.0, -rho], w, zi=np.array([rho * x0]))
        return out
    # CustomACF: color a white vector by a factor of the Toeplitz covariance
    if n > CUSTOM_ACF_MAX_N:
        raise ValueError(f"custom ACF limited to n <= {CUSTOM_ACF_MAX_N}")
    acf = np.zeros(n, dtype=complex)
    vals = np.asarray(corr.acf, dtype=complex)[:n]
    acf[: len(vals)] = vals
    C = toeplitz(acf, np.conj(acf))
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        evals, evecs = np.linalg.eigh(C)
        if evals.min() < -1e-10 * max(abs(acf[0]), 1.0):
            raise ValueError("custom ACF is not positive semidefinite") from None
        L = evecs * np.sqrt(np.clip(evals, 0.0, None))
    w = _white_complex(n, rng, 1.0)
    return L @ w


def compose(path: TexturePath, speckle: np.ndarray, dt: float) -> ClutterSeries:
    """z_i = sqrt(tau(i dt)) * x_i with right-continuous texture evaluation."""
    n = len(speckle)
    expected = _grid_length(path.duration, dt)
    if n != expected:
        raise ValueError(
            f"speckle length {n} does not match the grid implied by dt and "
            f"the path duration (expected {expected})"
        )
    tau = sample_on_grid(path, dt, path.duration)
    t = np.arange(n) * dt
    return ClutterSeries(t=t, z=np.sqrt(tau) * speckle, tau=tau)
