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
        if not all(0 < v < np.inf for v in (self.gamma, self.window, self.duration, self.dt)):
            raise ValueError("gamma, window, duration and dt must all be positive and finite")
        if self.dt >= self.window:
            raise ValueError("dt must be smaller than the window length")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    @property
    def nu(self) -> float:
        return self.gamma * self.window

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TexturePath:
    """Piecewise-constant path: values[i] holds on [change_times[i], change_times[i+1])."""

    change_times: np.ndarray
    values: np.ndarray
    duration: float

    def __post_init__(self):
        if len(self.change_times) != len(self.values):
            raise ValueError("change_times and values must align")
        if not (len(self.change_times) and np.isfinite(self.change_times[0])):
            raise ValueError("change_times must start with a finite time")
        # "all ok" rather than "any bad", so that NaN, which fails every
        # comparison, is refused
        ct = self.change_times
        if not np.all(ct[1:] > ct[:-1]):
            raise ValueError("change_times must be strictly increasing")
        if not np.all(self.values >= 0):
            raise ValueError("texture values must be nonnegative")

    def export_events_csv(self, path):
        with open(path, "w", newline="") as f:
            write_csv(f, ["change_time", "value"], self.change_times, self.values)

    def export_grid_csv(self, path, dt: float):
        vals = sample_on_grid(self, dt)
        with open(path, "w", newline="") as f:
            write_csv(f, ["t", "tau"], np.arange(len(vals)) * dt, vals)


def poisson_arrivals(rate: float, t_end: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on (0, t_end].

    Generated as the running sum of exponential gaps of mean 1/rate.
    """
    if not rate > 0:
        raise ValueError("rate must be positive")
    if t_end <= 0:
        return np.array([])
    expected = rate * t_end
    if expected > ARRIVAL_BUDGET:
        raise ArrivalBudgetError(
            f"expected arrival count {expected:.3g} exceeds budget {ARRIVAL_BUDGET:.0e}"
        )
    chunks = []
    t = 0.0
    block = int(expected + 6.0 * np.sqrt(expected + 1.0) + 16.0)
    while True:
        times = rng.exponential(1.0 / rate, size=block)
        np.cumsum(times, out=times)
        times += t
        chunks.append(times)
        t = times[-1]
        if t > t_end:
            break
        block = max(block // 4, 16)
    arr = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return arr[:np.searchsorted(arr, t_end, side="right")]


def windowed_process(arrivals, marks, window: float, duration: float) -> TexturePath:
    """Event-driven evaluation of the sliding-window mark sum.

    An arrival a with mark m contributes m on [a - T, a).  Times where the
    active-mark count returns to zero are pinned to an exact 0.0 so the
    zero atom of the finite-activity law survives floating accumulation.
    Arrivals must be sorted.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    marks = np.asarray(marks, dtype=float)
    if arrivals.shape != marks.shape:
        raise ValueError("marks must align with arrivals")
    n = len(arrivals)
    if n == 0:
        return TexturePath(np.array([0.0]), np.array([0.0]), duration)
    if not np.all(arrivals[1:] >= arrivals[:-1]):
        raise ValueError("arrivals must be sorted")

    times = arrivals - window
    # The stable sort puts an enter before a leave at the same time and
    # keeps the leaves in arrival order, so the window is empty right
    # after the leave of arrival i exactly when arrival i + 1 enters later
    # (or i is the last arrival).
    empty = np.append(times[1:] > arrivals[:-1], True)
    times = np.concatenate([times, arrivals])
    order = np.argsort(times, kind="stable")
    times = times[order]
    vals = np.concatenate([marks, -marks])[order]
    leaves = np.flatnonzero(order >= n)[empty]
    del order, empty
    np.cumsum(vals, out=vals)
    vals[leaves] = 0.0
    np.maximum(vals, 0.0, out=vals)

    lo, hi = np.searchsorted(times, [0.0, duration], side="right")
    v0 = vals[lo - 1] if lo > 0 else 0.0
    times, vals = times[lo:hi], vals[lo:hi]
    # collapse coincident event times, keeping the final value at each
    last = np.ones(len(times), dtype=bool)
    last[:-1] = times[1:] != times[:-1]
    ct = np.concatenate([[0.0], times[last]])
    del times
    cv = np.concatenate([[v0], vals[last]])
    del vals
    return TexturePath(ct, cv, duration)


def simulate(model: BernsteinModel, cfg: SimConfig,
             rng: np.random.Generator | None = None) -> TexturePath:
    """The texture path of `model` in the mode `cfg.mode` names.

    finite-exact marks are xi/nu' with nu' = gamma*C*T, so the path has
    mean one.  infinite-approx divides the integer window sums by their
    mean nbar; discrete-windowed keeps them as they are.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if cfg.mode == "finite-exact":
        mix = continuous_mixing(model)  # rejects infinite activity
        lam = cfg.gamma * model.C
        arrivals = poisson_arrivals(lam, cfg.duration + cfg.window, rng)
        marks = mix.sample(rng, size=len(arrivals)) / (lam * cfg.window)
        return windowed_process(arrivals, marks, cfg.window, cfg.duration)
    if cfg.mode == "infinite-approx":
        if cfg.kappa < 10:
            raise ValueError("kappa below 10 is outside the supported approximation range")
        if cfg.kappa < 100:
            warnings.warn(
                "kappa below 100: the compound-Poisson approximation of the "
                "infinite-activity limit is coarse", stacklevel=2)
    law = MixingLaw(model, cfg.kappa)
    lam = cfg.gamma * law.h_kappa
    arrivals = poisson_arrivals(lam, cfg.duration + cfg.window, rng)
    marks = np.asarray(sample_k(law, rng, size=len(arrivals)), dtype=float)
    path = windowed_process(arrivals, marks, cfg.window, cfg.duration)
    if cfg.mode == "discrete-windowed":
        return path
    del arrivals, marks  # freed before the division allocates a second values array
    nbar = lam * cfg.window * law.mean
    return TexturePath(path.change_times, path.values / nbar, cfg.duration)


def _grid_length(duration: float, dt: float) -> int:
    """Number of grid points i*dt, i = 0 .. floor(duration/dt); the 1e-9
    keeps a duration that is a whole number of steps from losing its end."""
    return int(np.floor(duration / dt + 1e-9)) + 1


def sample_on_grid(path: TexturePath, dt: float) -> np.ndarray:
    """Right-continuous samples tau(i*dt) for i = 0 .. floor(path.duration/dt).

    Searches per change point, not per grid point: change c_j first holds
    at grid index pos_j = #{i : i*dt < c_j}, and each value is repeated
    until the next change.  Grid points before the first change take
    values[0].
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    n = max(_grid_length(path.duration, dt), 0)
    ct = path.change_times
    pos = np.clip(np.ceil(ct / dt), 0, n).astype(np.intp)
    # ceil(c/dt) can miss by a step where c/dt rounds; correct it against the
    # same float64 products i*dt that np.arange(n) * dt forms
    while True:
        down = (pos > 0) & ((pos - 1) * dt >= ct)
        up = (pos < n) & (pos * dt < ct)
        if not (down.any() or up.any()):
            break
        pos += up
        pos -= down
    pos[0] = 0
    return np.repeat(path.values, np.diff(pos, append=n))
