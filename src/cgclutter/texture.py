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
from .mixing import MixingLaw, _check_model, sample_k, sample_xi

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
# Arrivals per block of the window sweep.  Measured on a 2-vCPU x86-64
# Xeon (numpy 2.4): at 1e6 arrivals, blocks of 2**12 to 2**16 arrivals
# took 74-84 ms a call and 2**18 85 ms, against 95-106 ms for one sort
# over all events.  In `validate`'s two calls (2.5e4 and 1.25e5
# arrivals), 2**12 to 2**14 took 10-13 ms an op and 2**16 14-16 ms,
# slower than 2**13 in each of 4 alternated runs: larger blocks have
# larger temporaries, which malloc maps afresh, with twice the page faults.
SWEEP_BLOCK = 1 << 13


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
        for name in ("gamma", "window", "duration", "dt", "kappa"):
            v = getattr(self, name)
            if not 0 < v < np.inf:
                raise ValueError(f"{name} must be positive and finite, not {v:g}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, not {self.seed}")
        if not 0 < self.nu < np.inf:
            raise ValueError("nu = gamma * window must be positive and finite")
        if self.dt >= self.window:
            raise ValueError("dt must be smaller than the window length")
        _grid_length(self.duration, self.dt)  # refuses a grid past 2**53 steps
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
        if not 0 <= self.duration < np.inf:
            raise ValueError(f"duration must be finite and nonnegative, got {self.duration!r}")

    def export_events_csv(self, path):
        with open(path, "wb") as f:
            write_csv(f, ["change_time", "value"], self.change_times, self.values)

    def export_grid_csv(self, path, dt: float):
        vals = sample_on_grid(self, dt)
        with open(path, "wb") as f:
            write_csv(f, ["t", "tau"], np.arange(len(vals)) * dt, vals)


def poisson_arrivals(rate: float, t_end: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on (0, t_end].

    Generated as the running sum of exponential gaps of mean 1/rate.
    """
    if not rate > 0:
        raise ValueError("rate must be positive")
    if np.isnan(t_end):
        raise ValueError("t_end is NaN")
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
    Arrivals must be sorted; marks must be nonnegative and may be integers.

    The enter (a - T) and leave (a) events are swept in time blocks cut at
    every SWEEP_BLOCK-th arrival time, each written into the returned path
    (32 B per arrival).  Beyond the path, the sweep holds the enter times
    and one block's temporaries: at 1e6 arrivals about 10 B per arrival
    (tracemalloc).  The path is the same, bit for bit, at every block size.
    """
    if not 0 < window < np.inf:
        raise ValueError("window must be positive and finite")
    if not 0 < duration < np.inf:
        raise ValueError("duration must be positive and finite")
    arrivals = np.asarray(arrivals, dtype=float)
    marks = np.asarray(marks)
    if arrivals.shape != marks.shape:
        raise ValueError("marks must align with arrivals")
    if not np.all(marks >= 0):  # NaN fails too
        raise ValueError("marks must be nonnegative")
    n = len(arrivals)
    if n == 0:
        return TexturePath(np.array([0.0]), np.array([0.0]), duration)
    # NaN fails every comparison, so a NaN after the first fails the
    # sortedness test; only then is the whole array searched for one
    if np.isnan(arrivals[0]) or not np.all(arrivals[1:] >= arrivals[:-1]):
        raise ValueError("arrivals must not be NaN" if np.isnan(arrivals).any()
                         else "arrivals must be sorted")

    # the inf after the last enter: the leave of the last arrival empties
    # the window
    enters = np.empty(n + 1)
    np.subtract(arrivals, window, out=enters[:n])
    enters[n] = np.inf
    # A block holds the events at times in [cut_b, cut_b+1), so every event
    # at one time lands in one block, and there the stable sort of [enters,
    # leaves] gives the global order: time, then enters before leaves, then
    # arrival index.  Events after `duration` are not needed.
    cuts = arrivals[SWEEP_BLOCK::SWEEP_BLOCK]
    ecut, lcut = (np.minimum(np.r_[0, np.searchsorted(x, cuts, side="left"), n],
                             np.searchsorted(x, duration, side="right"))
                  for x in (enters[:n], arrivals))
    # the blocks are written in place after a slot for t = 0
    ct = np.empty(1 + ecut[-1] + lcut[-1])
    cv = np.empty(len(ct))
    cv[0] = 0.0
    # scratch for the largest block, kept across blocks
    times, deltas = np.empty((2, (np.diff(ecut) + np.diff(lcut)).max()))
    k = 1
    carry = -0.0  # the running sum before the block; -0.0 + x is x
    for e0, e1, l0, l1 in zip(ecut[:-1].tolist(), ecut[1:].tolist(),
                              lcut[:-1].tolist(), lcut[1:].tolist()):
        ne = e1 - e0
        m = ne + l1 - l0
        if not m:
            continue
        np.concatenate([enters[e0:e1], arrivals[l0:l1]], out=times[:m])
        deltas[:ne] = marks[e0:e1]
        np.negative(marks[l0:l1], out=deltas[ne:m], dtype=float)
        order = np.argsort(times[:m], kind="stable")
        t, v = ct[k:k + m], cv[k:k + m]
        # argsort's indices are in range; the default mode="raise" would
        # gather into a temporary and copy it to `out`
        np.take(times, order, out=t, mode="clip")
        np.take(deltas, order, out=v, mode="clip")
        # the cumsum runs on from the carry, lent the slot before the block,
        # so it adds in the same order, and to the same bits, as one sweep
        # over all events would
        run = cv[k - 1:k + m]
        before, run[0] = run[0], carry
        np.cumsum(run, out=run)
        run[0], carry = before, run[-1]
        # The window is empty right after the leave of arrival i exactly
        # when arrival i + 1 enters later.  That leave follows the block's
        # earlier leaves and its enters at or before it.
        i = np.flatnonzero(enters[l0 + 1:l1 + 1] > arrivals[l0:l1])
        v[i + np.searchsorted(enters[e0:e1], arrivals[l0 + i], side="right")] = 0.0
        np.maximum(v, 0.0, out=v)
        # collapse coincident event times, keeping the final value at each
        last = np.ones(m, dtype=bool)
        np.not_equal(t[1:], t[:-1], out=last[:-1])
        if not last.all():
            m = np.count_nonzero(last)
            ct[k:k + m], cv[k:k + m] = t[last], v[last]
        k += m
    # the events at t <= 0 lead, and the last of them holds the value at 0
    p = np.searchsorted(ct[1:k], 0.0, side="right")
    ct[p] = 0.0
    return TexturePath(ct[p:k], cv[p:k], duration)


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
        _check_model(model, finite=True)  # before any arrival is drawn
        lam = cfg.gamma * model.C
        arrivals = poisson_arrivals(lam, cfg.duration + cfg.window, rng)
        marks = sample_xi(model, rng, size=len(arrivals)) / (lam * cfg.window)
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
    marks = sample_k(law, rng, size=len(arrivals))
    path = windowed_process(arrivals, marks, cfg.window, cfg.duration)
    if cfg.mode == "infinite-approx":
        np.divide(path.values, lam * cfg.window * law.mean, out=path.values)
    return path


def _grid_length(duration: float, dt: float) -> int:
    """Number of grid points i*dt, i = 0 .. floor(duration/dt); the 1e-9
    keeps a duration that is a whole number of steps from losing its end.
    Past i = 2**53 consecutive i*dt are no longer distinct doubles, so a
    longer grid is refused."""
    last = np.floor(duration / dt + 1e-9)
    if last > 2.0 ** 53:
        raise ValueError(f"duration {duration:g} at dt {dt:g} needs a grid past "
                         f"2**53 steps, where the grid times i*dt stop being distinct")
    return int(last) + 1


def sample_on_grid(path: TexturePath, dt: float) -> np.ndarray:
    """Right-continuous samples tau(i*dt) for i = 0 .. floor(path.duration/dt).

    Searches per change point, not per grid point: change c_j first holds
    at grid index pos_j = #{i : i*dt < c_j}, and each value is repeated
    until the next change.  Grid points before the first change take
    values[0].
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    n = _grid_length(path.duration, dt)
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
