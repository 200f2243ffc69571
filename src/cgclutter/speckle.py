"""Correlated complex Gaussian speckle and the texture-speckle composition.

Clutter samples are z_i = sqrt(tau(t_i)) * x_i with the texture tau drawn
independently of the zero-mean circular Gaussian speckle x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._export import write_csv
from .texture import TexturePath, sample_on_grid

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
    """x_i = rho x_(i-1) + w_i from a stationary start: lag-k correlation rho^k.

    gen_speckle computes, bit for bit, the loop y = w + rho * y with one
    rounding for the product and one for the sum, which is what
    scipy.signal.lfilter([1], [1, -rho], w, zi=[rho x0]) gives, in numpy
    alone: blocks of B = clip(ceil(16/(1 - rho)), 64, n) steps run side by
    side from predicted starts, and a block whose start is not the end of the
    block before it is rerun from that end (_ar1_speckle).  A block's steps
    run in sequence, so the cost grows as 1/(1 - rho): at n = 1e6 + 1 a draw
    took about 57 ms at rho 0.9, where the lfilter path took 62 ms (about
    35 ms of each is the normal draws), 0.1 s at 0.999 and 0.4 s at 0.9999
    (medians on a 2-vCPU Xeon).
    """

    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("AR1 coefficient must lie in [0, 1)")


@dataclass(frozen=True)
class CustomACF:
    """Autocovariance at lags 0, dt, 2 dt, ...; lags past the tuple are zero.

    acf[0] is the variance: a custom ACF does not use SpeckleSpec.variance,
    and every lag must be finite.  gen_speckle factors the n x n Toeplitz
    covariance by Cholesky, else by eigh.  When every lag is real it factors
    two exact half-size blocks instead, in real arithmetic: about a quarter
    of the work and under half the memory.  A complex ACF keeps the full
    factor.  n is at most CUSTOM_ACF_MAX_N.
    """

    acf: tuple

    def __post_init__(self):
        if len(self.acf) == 0:
            raise ValueError("custom ACF is empty: lag 0 (the variance) is required")
        v0 = complex(self.acf[0])
        if not (v0.imag == 0.0 and v0.real > 0.0):
            raise ValueError("custom ACF lag 0 is the variance: it must be real "
                             f"and positive, got {self.acf[0]!r}")
        bad = np.flatnonzero(~np.isfinite(np.asarray(self.acf, dtype=complex)))
        if bad.size:
            raise ValueError(f"custom ACF lag {bad[0]} is not finite: {self.acf[bad[0]]!r}")


Correlation = Union[White, AR1, CustomACF]


@dataclass(frozen=True)
class SpeckleSpec:
    variance: float = 1.0
    correlation: Correlation = field(default_factory=White)
    dt: float = 1.0

    def __post_init__(self):
        if not 0 < self.variance < np.inf:
            raise ValueError("speckle variance must be positive and finite")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not isinstance(self.correlation, (White, AR1, CustomACF)):
            raise ValueError("speckle correlation must be White, AR1 or CustomACF, "
                             f"got {type(self.correlation).__name__}")

    def to_dict(self) -> dict:
        corr = self.correlation
        if isinstance(corr, White):
            c = {"kind": "white"}
        elif isinstance(corr, AR1):
            c = {"kind": "ar1", "rho": corr.rho}
        else:
            c = {"kind": "custom", "acf": [[complex(v).real, complex(v).imag] for v in corr.acf]}
        return {"variance": self.variance, "dt": self.dt, "correlation": c}


@dataclass(frozen=True)
class ClutterSeries:
    t: np.ndarray
    z: np.ndarray
    tau: np.ndarray

    def export_csv(self, path):
        with open(path, "wb") as f:
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
        return _ar1_speckle(corr.rho, n, rng, spec.variance)
    # CustomACF: color a white vector by a factor of the Toeplitz covariance
    if n > CUSTOM_ACF_MAX_N:
        raise ValueError(f"custom ACF limited to n <= {CUSTOM_ACF_MAX_N}")
    c = np.zeros(n, dtype=complex)  # the lags, then zeros
    c[: min(len(corr.acf), n)] = corr.acf[:n]
    if not c.imag.any():  # a symmetric spectrum: factor in real arithmetic
        return _real_acf_speckle(c.real, n, rng)
    L = _factor(_toeplitz(c, n), c[0].real)
    return L @ _white_complex(n, rng, 1.0)


def _toeplitz(c, n):
    """C[i, j] = c[i - j], conj(c[j - i]) above the diagonal, as a view: row i
    is window i of conj(c[n - 1]) .. conj(c[1]), c[0] .. c[n - 1], reversed."""
    return sliding_window_view(np.concatenate([np.conj(c[n - 1:0:-1]), c[:n]]), n)[:, ::-1]


def _ar1_speckle(rho, n, rng, variance):
    """AR(1) speckle: the loop y = w + rho * y, bit for bit, in blocks at once.

    The series is cut into blocks of B steps, the columns of a (B, blocks)
    array, so one row holds a step of every block; in its float view the real
    and imaginary parts are columns of their own, independent real loops.
    Each step is one multiply and one add over a row, two roundings as in the
    loop.  The blocks run first from predicted starts (_ar1_starts).  Then, as
    in Parareal (Lions, Maday & Turinici 2001), each block whose start is not
    bit for bit the end just computed for the block before it is rerun from
    that end (_ar1_rerun), until no end moves.  Block 0 starts from x0 itself,
    so by induction every block is then the loop from the exact end of the
    block before it.  rho^B <= e^-16 damps a start out of its block, so the
    first rerun touches a few steps of each block and settled every case
    tried; B and the predictor change only how much is rerun, never the result.
    """
    B = int(min(max(np.ceil(16.0 / (1.0 - rho)), 64), n))
    nb = -(-n // B)
    # the white noise is scaled straight into the block layout, with the
    # draws and generator state of _white_complex; the last block's tail is
    # 0.  draws is made before w: in the other order glibc trims the heap
    # after each default simulate run, and the next one faults in about
    # 3 000 more pages
    draws = np.empty(nb * B)
    draws[n:] = 0.0
    w = np.empty((B, nb), dtype=complex)
    wf = w.view(float)  # block j's real and imaginary part: columns 2j, 2j + 1
    scale = np.sqrt(variance * (1.0 - rho ** 2) / 2.0)
    for part in (0, 1):
        rng.standard_normal(out=draws[:n])
        np.multiply(draws.reshape(nb, B).T, scale, out=wf[:, part::2])
    del draws
    x0 = _white_complex(1, rng, variance)[0]  # stationary start
    starts = _ar1_starts(wf, x0, rho)
    y = np.empty_like(wf)
    prev = starts
    for w_row, row in zip(wf, y):
        np.multiply(prev, rho, out=row)
        np.add(w_row, row, out=row)
        prev = row
    # the blocks whose start is not the end before them, compared as bits
    cols = 2 + np.flatnonzero(y[-1, :-2].view(np.int64) != starts[2:].view(np.int64))
    while cols.size:
        moved = _ar1_rerun(wf, y, cols, rho)
        cols = moved[moved < 2 * nb - 2] + 2
    out = w.reshape(-1)  # back to time order, in the white noise's storage
    np.copyto(out.reshape(nb, B), y.view(complex).T)
    return out[:n]


def _ar1_starts(wf, x0, rho):
    """Predicted starts of the blocks of _ar1_speckle, as one row of wf.

    Block j starts from the end of block j - 1, and block 0 from x0: each
    block's end from a zero start plus the ends before it damped by rho^B,
    by a doubling scan that stops once the damping is 0.  The ends are an
    einsum, not a BLAS product: a threaded BLAS call leaves its workers
    spinning against the CSV writer's threads, and made a default
    `simulate --events --clutter --speckle ar1` run 5-10 % slower.
    """
    B, nb = wf.shape[0], wf.shape[1] // 2
    s = np.empty((nb, 2))
    s[0] = x0.real, x0.imag
    ends = np.einsum("i,ij->j", rho ** np.arange(B - 1, -1, -1.0), wf[:, :-2])
    s[1:] = ends.reshape(nb - 1, 2)
    q, shift = rho ** B, 1
    while q and shift < nb:
        s[shift:] += q * s[:-shift]
        q, shift = q * q, 2 * shift
    return s.reshape(-1)


def _ar1_rerun(wf, y, cols, rho):
    """Rerun columns cols of y from the ends of columns cols - 2 (the same
    part of the block before), checking every 16 steps.

    A column stops once a step gives the value it already holds: the rest of
    it follows from that value.  Returns the columns whose end moved.
    """
    prev = y[-1, cols - 2]
    for i in range(0, len(y), 16):
        seg = wf[i: i + 16, cols]
        for row in seg:
            row += prev * rho
            prev = row
        moved = seg[-1].view(np.int64) != y[i + len(seg) - 1, cols].view(np.int64)
        y[i: i + 16, cols] = seg
        cols, prev = cols[moved], seg[-1, moved]
        if not cols.size:
            break
    return cols


def _factor(C, var):
    """L with L L^H = C: Cholesky, else eigh of a positive semidefinite C.
    Cholesky goes first though it fails on a singular C: at n = 1024, eigh
    alone took 4 to 10 times as long on definite ACFs, 5/6 as long on one."""
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        evals, evecs = np.linalg.eigh(C)
        if evals.min() < -1e-10 * max(var, 1.0):
            raise ValueError("custom ACF is not positive semidefinite") from None
        evecs *= np.sqrt(np.clip(evals, 0.0, None))  # scaled in place: one array fewer
        return evecs


def _real_acf_speckle(c, n, rng):
    """Speckle of a real ACF from two half-size factors of its covariance C.

    C is symmetric Toeplitz, so it commutes with the order reversal J, and
    the orthogonal Q with columns (e_i +- e_(n-1-i))/sqrt 2, i < m = n // 2,
    and e_m for odd n makes Q^T C Q two blocks (Cantoni & Butler 1976): T + H
    of size n - m over the plus columns and e_m, T - H of size m over the
    minus ones, with T[i, j] = c[|i - j|] and H[i, j] = c[n - 1 - i - j].
    x = Q [L+ w_top; L- w_bottom] from one white vector w.
    """
    m, h = n // 2, n - n // 2
    T = _toeplitz(c, h)
    H = sliding_window_view(c[::-1], h)[:h]
    plus = T + H
    # odd n: the middle row and column of T + H are 2 c[m - i], where the
    # block has c[0] on the diagonal and sqrt 2 c[m - i] off it
    plus[m:] *= np.sqrt(0.5)
    plus[:, m:] *= np.sqrt(0.5)
    L_plus = _factor(plus, c[0])
    del plus
    L_minus = _factor(T[:m, :m] - H[:m, :m], c[0])
    # the real and imaginary parts as two right-hand columns of one real product
    w = _white_complex(n, rng, 1.0).view(float).reshape(n, 2)
    y_plus, y_minus = L_plus @ w[:h], L_minus @ w[h:]
    y_plus[:m] *= np.sqrt(0.5)
    y_minus *= np.sqrt(0.5)
    x = np.empty((n, 2))
    x[:m] = y_plus[:m] + y_minus
    x[::-1][:m] = y_plus[:m] - y_minus
    x[m:h] = y_plus[m:]
    return x.view(complex).ravel()


def compose(path: TexturePath, speckle: np.ndarray, dt: float) -> ClutterSeries:
    """z_i = sqrt(tau(i dt)) * x_i with right-continuous texture evaluation."""
    tau = sample_on_grid(path, dt)
    n = len(speckle)
    if n != len(tau):
        raise ValueError(
            f"speckle length {n} does not match the grid implied by dt and "
            f"the path duration (expected {len(tau)})"
        )
    t = np.arange(n) * dt
    return ClutterSeries(t=t, z=np.sqrt(tau) * speckle, tau=tau)
