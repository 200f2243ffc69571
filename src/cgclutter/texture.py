"""Windowed compound-Poisson texture simulation.

The texture value at time t is the sum of marks whose Poisson arrival a
satisfies t < a <= t + T: marks enter the window at t = a - T and leave
at t = a, so paths are piecewise constant and right-continuous (CADLAG).
Three generation modes:

* finite-exact: arrivals at rate gamma*C with continuous marks xi/nu',
  which realizes the limiting finite-activity process exactly;
* infinite-approx: arrivals at rate gamma*h(kappa) with integer cluster
  marks, normalized by its mean -- approximates the infinite-activity
  limit for large kappa;
* discrete-windowed: the un-normalized integer-valued window process
  (used for count-marginal validation).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from ._export import write_csv
from .bernstein import BernsteinModel
from .mixing import MixingLaw, continuous_mixing, sample_k

__all__ = [
    "ArrivalBudgetError",
    "SimConfig",
    "TexturePath",
    "poisson_arrivals",
    "windowed_process",
    "simulate_finite_exact",
    "simulate_infinite_approx",
    "simulate_discrete_windowed",
    "simulate",
    "sample_on_grid",
]

MODES = ("finite-exact", "infinite-approx", "discrete-windowed")
ARRIVAL_BUDGET = 1e9


class ArrivalBudgetError(RuntimeError):
    """Expected arrival count exceeds the in-memory budget."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; nu = gamma * window is the shape parameter."""

    gamma: float
    window: float
    duration: float
    dt: float
    seed: int
    mode: str = "finite-exact"
    kappa: float = 150.0

    def __post_init__(self):
        if not (self.gamma > 0 and self.window > 0 and self.duration > 0 and self.dt > 0):
            raise ValueError("gamma, window, duration and dt must all be positive")
        if self.dt >= self.window:
            raise ValueError("dt must be smaller than the window length")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    @property
    def nu(self) -> float:
        return self.gamma * self.window

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SimConfig":
        return SimConfig(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "SimConfig":
        return SimConfig.from_dict(json.loads(s))


@dataclass(frozen=True)
class TexturePath:
    """Piecewise-constant path: values[i] holds on [change_times[i], change_times[i+1])."""

    change_times: np.ndarray
    values: np.ndarray
    duration: float
    normalization: float = 1.0

    def __post_init__(self):
        if len(self.change_times) != len(self.values):
            raise ValueError("change_times and values must align")
        if np.any(np.diff(self.change_times) <= 0):
            raise ValueError("change_times must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("texture values must be nonnegative")

    def export_events_csv(self, path):
        with open(path, "w", newline="") as f:
            write_csv(f, ["change_time", "value"], self.change_times, self.values)

    def export_grid_csv(self, path, dt: float):
        vals = sample_on_grid(self, dt, self.duration)
        with open(path, "w", newline="") as f:
            write_csv(f, ["t", "tau"], np.arange(len(vals)) * dt, vals)


def poisson_arrivals(rate: float, t_end: float, rng: np.random.Generator,
                     t_start: float = 0.0) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on (t_start, t_end].

    Generated as the running sum of exponential gaps of mean 1/rate.
    """
    if not rate > 0:
        raise ValueError("rate must be positive")
    span = t_end - t_start
    if span <= 0:
        return np.array([])
    if rate * span > ARRIVAL_BUDGET:
        raise ArrivalBudgetError(
            f"expected arrival count {rate * span:.3g} exceeds budget {ARRIVAL_BUDGET:.0e}"
        )
    expected = rate * span
    chunks = []
    t = t_start
    block = int(expected + 6.0 * np.sqrt(expected + 1.0) + 16.0)
    while True:
        gaps = rng.exponential(1.0 / rate, size=block)
        times = t + np.cumsum(gaps)
        chunks.append(times)
        t = times[-1]
        if t > t_end:
            break
        block = max(block // 4, 16)
    arr = np.concatenate(chunks)
    return arr[arr <= t_end]


def windowed_process(arrivals, marks, window: float, duration: float) -> TexturePath:
    """Event-driven evaluation of the sliding-window mark sum.

    An arrival a with mark m contributes m on [a - T, a).  Times where the
    active-mark count returns to zero are pinned to an exact 0.0 so the
    zero atom of the finite-activity law survives floating accumulation.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    marks = np.asarray(marks, dtype=float)
    if arrivals.shape != marks.shape:
        raise ValueError("marks must align with arrivals")
    n = len(arrivals)
    if n == 0:
        return TexturePath(np.array([0.0]), np.array([0.0]), duration)

    times = np.concatenate([arrivals - window, arrivals])
    deltas = np.concatenate([marks, -marks])
    steps = np.concatenate([np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)])
    order = np.argsort(times, kind="stable")
    times = times[order]
    vals = np.cumsum(deltas[order])
    active = np.cumsum(steps[order])
    vals[active == 0] = 0.0
    vals = np.maximum(vals, 0.0)

    i0 = np.searchsorted(times, 0.0, side="right") - 1
    v0 = vals[i0] if i0 >= 0 else 0.0
    keep = (times > 0.0) & (times <= duration)
    ct = np.concatenate([[0.0], times[keep]])
    cv = np.concatenate([[v0], vals[keep]])
    # collapse coincident event times, keeping the final value at each
    last = np.ones(len(ct), dtype=bool)
    last[:-1] = ct[1:] != ct[:-1]
    return TexturePath(ct[last], cv[last], duration)


def simulate_finite_exact(model: BernsteinModel, cfg: SimConfig,
                          rng: np.random.Generator) -> TexturePath:
    """Exact realization of the finite-activity limit process.

    Arrivals at rate gamma*C; marks are xi/nu' with xi the continuous
    mixing variable and nu' = gamma*C*T, making the path mean one.
    """
    mix = continuous_mixing(model)  # rejects infinite activity
    lam = cfg.gamma * model.activity.limit
    nu_prime = lam * cfg.window
    arrivals = poisson_arrivals(lam, cfg.duration + cfg.window, rng)
    marks = mix.sample(rng, size=len(arrivals)) / nu_prime
    return windowed_process(arrivals, marks, cfg.window, cfg.duration)


def _integer_window(model, cfg, rng):
    law = MixingLaw(model, cfg.kappa)
    lam = cfg.gamma * law.h_kappa
    arrivals = poisson_arrivals(lam, cfg.duration + cfg.window, rng)
    marks = np.asarray(sample_k(law, rng, size=len(arrivals)), dtype=float)
    nbar = lam * cfg.window * law.mean
    return windowed_process(arrivals, marks, cfg.window, cfg.duration), nbar


def simulate_infinite_approx(model: BernsteinModel, cfg: SimConfig,
                             rng: np.random.Generator) -> TexturePath:
    """Normalized integer-window approximation of the infinite-activity limit."""
    if cfg.kappa < 10:
        raise ValueError("kappa below 10 is outside the supported approximation range")
    if cfg.kappa < 100:
        warnings.warn(
            "kappa below 100: the compound-Poisson approximation of the "
            "infinite-activity limit is coarse", stacklevel=2)
    path, nbar = _integer_window(model, cfg, rng)
    return TexturePath(path.change_times, path.values / nbar, cfg.duration,
                       normalization=nbar)


def simulate_discrete_windowed(model: BernsteinModel, cfg: SimConfig,
                               rng: np.random.Generator) -> TexturePath:
    """Un-normalized integer window process (values are whole counts)."""
    path, nbar = _integer_window(model, cfg, rng)
    return TexturePath(path.change_times, path.values, cfg.duration,
                       normalization=nbar)


def simulate(model: BernsteinModel, cfg: SimConfig,
             rng: np.random.Generator | None = None) -> TexturePath:
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if cfg.mode == "finite-exact":
        return simulate_finite_exact(model, cfg, rng)
    if cfg.mode == "infinite-approx":
        return simulate_infinite_approx(model, cfg, rng)
    return simulate_discrete_windowed(model, cfg, rng)


def _grid_length(duration: float, dt: float) -> int:
    """Number of grid points i*dt, i = 0 .. floor(duration/dt); the 1e-9
    keeps a duration that is a whole number of steps from losing its end."""
    return int(np.floor(duration / dt + 1e-9)) + 1


def sample_on_grid(path: TexturePath, dt: float, duration: float | None = None) -> np.ndarray:
    """Right-continuous samples tau(i*dt) for i = 0 .. floor(duration/dt)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if duration is None:
        duration = path.duration
    t = np.arange(_grid_length(duration, dt)) * dt
    idx = np.searchsorted(path.change_times, t, side="right") - 1
    idx = np.clip(idx, 0, len(path.values) - 1)
    return path.values[idx]
