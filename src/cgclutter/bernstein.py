"""Bernstein functions: evaluation, derivative access, validation, limit transform.

A Bernstein function here is a nonnegative function h on [0, inf) with
h(0) = 0, completely monotonic first derivative, sublinear growth
(h(z)/z -> 0), and finite h'(0) > 0, h''(0) <= 0.  Such a function drives
the whole texture construction: it defines the cluster-size law, the
Poisson intensity, and the Laplace-Stieltjes transform of the limiting
texture marginal G(z) = exp(-nu * h(z / (nu * h1))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln, logsumexp

__all__ = [
    "Activity",
    "BernsteinModel",
    "LimitTransform",
    "ConditionResult",
    "ValidationReport",
    "make_builtin_finite",
    "make_builtin_infinite",
    "from_lst",
    "fit_bernstein",
    "levy_log_moments",
    "check_bernstein",
    "limit_transform",
    "numeric_derivative",
]

_EPS = np.finfo(float).eps

# Numerical policy for the side-condition checks (absolute slacks).
ZERO_TOL = 1e-12           # |h(0)| must be below this
SUBLINEAR_PROBE = 1e8      # probe point for h(z)/z -> 0
SUBLINEAR_TOL = 1e-4       # h(probe)/probe must be below this
SIGN_TOL = 1e-9            # allowed negative excursion in sign checks
ACTIVITY_PROBES = (1e4, 1e6, 1e8)
ACTIVITY_REL_GROWTH = 1e-3
FIT_TOL = 1e-6             # largest relative miss fit_bernstein accepts
FIT_SHAPES = (1.0, 4.0, 16.0)  # gamma shapes of the fit's Levy densities


@dataclass(frozen=True)
class Activity:
    """Finite/infinite activity tag; `limit` is the total mass C when finite."""

    finite: bool
    limit: float = math.inf

    @staticmethod
    def finite_mass(limit: float) -> "Activity":
        if not limit > 0:
            raise ValueError("finite activity mass must be positive")
        return Activity(True, float(limit))

    @staticmethod
    def infinite() -> "Activity":
        return Activity(False, math.inf)


def _as_float_array(z):
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0):
        raise ValueError("Bernstein functions are defined for z >= 0 only")
    return arr


class BernsteinModel:
    """A Bernstein function h with derivative access and activity class.

    `fn` must accept numpy arrays.  `deriv(n, z)` returns the n-th
    derivative for n >= 1; when absent, controlled finite differences are
    used instead (and `closed_form_derivatives` is False, which makes
    downstream consumers refuse high orders).  `measure` is the Levy
    measure (c, k, x) of a model built by `fit_bernstein`, None otherwise.
    """

    measure = None

    def __init__(
        self,
        fn: Callable,
        deriv: Callable | None = None,
        *,
        h1: float,
        h2: float,
        activity: Activity,
        family: str | None = None,
        name: str = "bernstein",
    ):
        self._fn = fn
        self._deriv = deriv
        self.h1 = float(h1)
        self.h2 = float(h2)
        self.activity = activity
        self.family = family
        self.name = name
        self.closed_form_derivatives = deriv is not None
        if not self.h1 > 0:
            raise ValueError("h'(0) must be positive")
        if self.h2 > 0:
            raise ValueError("h''(0) must be nonpositive")

    def __call__(self, z):
        arr = _as_float_array(z)
        out = self._fn(arr)
        return float(out) if np.ndim(z) == 0 else out

    def nth_derivative(self, n: int, z: float) -> float:
        if n < 1:
            raise ValueError("derivative order must be >= 1")
        if z < 0:
            raise ValueError("Bernstein functions are defined for z >= 0 only")
        if self._deriv is not None:
            return float(self._deriv(n, z))
        return numeric_derivative(self._fn, n, z)

    def __repr__(self):
        act = f"Finite(C={self.activity.limit:g})" if self.activity.finite else "Infinite"
        return f"BernsteinModel({self.name}, h1={self.h1:g}, h2={self.h2:g}, {act})"


def numeric_derivative(fn, n: int, z: float) -> float:
    """n-th derivative of `fn` at z >= 0 by finite differences.

    Uses an (n+2)-node stencil, centered when z allows it and shifted
    one-sided near the origin so the function is never evaluated at
    negative arguments.  The step grows with the order to keep rounding
    error below truncation error; one Richardson pass removes the leading
    O(h^2) term.
    """
    if n == 0:
        return float(fn(np.asarray(z, dtype=float)))
    # balance rounding (eps / h^n) against the post-Richardson truncation
    # (h^4): h* ~ eps^(1/(n+4)), floored at 1e-3
    step = max(abs(z), 1.0) * max(1e-3, _EPS ** (1.0 / (n + 4)))
    # a symmetric (n+2)-node stencil has O(h^2) error; shifted stencils near
    # the origin need one extra node to reach the same order
    m = n + 2 if z / step >= (n + 1) / 2.0 else n + 3

    def stencil(h):
        c = min((m - 1) / 2.0, z / h)
        offsets = np.arange(m, dtype=float) - c
        # Solve for weights w with sum_j w_j * o_j^i / i! = delta_{i,n}.
        A = np.empty((m, m))
        for i in range(m):
            A[i] = offsets ** i / math.factorial(i)
        rhs = np.zeros(m)
        rhs[n] = 1.0
        w = np.linalg.solve(A, rhs)
        vals = fn(np.maximum(z + offsets * h, 0.0))
        return float(np.dot(w, vals)) / h ** n

    d1 = stencil(step)
    d2 = stencil(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def make_builtin_finite() -> BernsteinModel:
    """h(z) = z / (z + 1): finite activity, geometric cluster sizes."""

    def fn(z):
        return z / (z + 1.0)

    def deriv(n, z):  # (-1)^(n+1) n! (1+z)^-(n+1)
        return (-1.0) ** (n + 1) * float(np.exp(gammaln(n + 1.0) - (n + 1.0) * math.log1p(z)))

    return BernsteinModel(
        fn,
        deriv,
        h1=1.0,
        h2=-2.0,
        activity=Activity.finite_mass(1.0),
        family="rational",
        name="z/(z+1)",
    )


def make_builtin_infinite() -> BernsteinModel:
    """h(z) = ln(1 + z): infinite activity, logarithmic cluster sizes."""

    def fn(z):
        return np.log1p(z)

    def deriv(n, z):  # (-1)^(n+1) (n-1)! (1+z)^-n
        return (-1.0) ** (n + 1) * float(np.exp(gammaln(float(n)) - n * math.log1p(z)))

    return BernsteinModel(
        fn,
        deriv,
        h1=1.0,
        h2=-1.0,
        activity=Activity.infinite(),
        family="logarithmic",
        name="ln(1+z)",
    )


# ---------------------------------------------------------------------------
# Construction from a Laplace-Stieltjes transform
# ---------------------------------------------------------------------------

def _classify_activity(fn) -> Activity:
    probes = [float(fn(np.asarray(p))) for p in ACTIVITY_PROBES]
    growth = max(
        (b - a) / max(b, _EPS) for a, b in zip(probes[:-1], probes[1:])
    )
    if growth < ACTIVITY_REL_GROWTH:
        return Activity.finite_mass(probes[-1])
    return Activity.infinite()


def from_lst(G_of_z: Callable, nu: float) -> BernsteinModel:
    """Build h(z) = -(1/nu) ln G(nu z) from the transform of a unit-mean law.

    G must be the Laplace-Stieltjes transform of a nonnegative infinitely
    divisible random variable with mean one; h'(0) is then pinned to 1 by
    convention.  Rejects transforms that fail the basic numerical probes
    (normalization at 0, nonnegativity/monotonicity of h, sublinear
    growth).
    """
    if not nu > 0:
        raise ValueError("nu must be positive")
    g0 = float(G_of_z(np.asarray(0.0)))
    if abs(g0 - 1.0) > 1e-9:
        raise ValueError(f"G(0) = {g0!r} is not 1 within 1e-9")

    def fn(z):
        g = G_of_z(nu * np.asarray(z, dtype=float))
        with np.errstate(divide="ignore"):
            return -np.log(g) / nu

    probe = np.concatenate([[0.0], np.logspace(-3, 3, 61)])
    vals = fn(probe)
    if np.any(vals < -1e-12):
        raise ValueError("transform yields a negative h(z) on the probe grid")
    with np.errstate(invalid="ignore"):  # G underflow makes h infinite
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("transform yields a non-monotone h(z) on the probe grid")
    if float(fn(np.asarray(SUBLINEAR_PROBE))) / SUBLINEAR_PROBE >= SUBLINEAR_TOL:
        raise ValueError("h(z)/z does not vanish at large z (degenerate transform)")

    h2 = numeric_derivative(fn, 2, 0.0)
    return BernsteinModel(
        fn,
        None,
        h1=1.0,
        h2=min(h2, 0.0),
        activity=_classify_activity(fn),
        family=None,
        name="from_lst",
    )


# ---------------------------------------------------------------------------
# A Levy measure fitted to samples of h
# ---------------------------------------------------------------------------

def levy_log_moments(measure, n, z):
    """ln of int s^n e^(-zs) Pi(ds) for an array of orders n (ln |h^(n)(z)| if n >= 1),
    where Pi = (c, k, x) weights gamma densities of shape k and mean x by c."""
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
    c, k, x = measure = c[c > 0], k[c > 0], x[c > 0]

    def fn(z):
        return -np.expm1(-k * np.log1p(np.asarray(z)[..., None] * (x / k))) @ c

    def deriv(n, z):
        return (-1.0) ** (n + 1) * float(np.exp(levy_log_moments(measure, n, z)))

    model = BernsteinModel(fn, deriv, h1=float(c @ x),
                           h2=-float(np.sum(c * x ** 2 * (k + 1.0) / k)),
                           activity=Activity.finite_mass(float(c.sum())), family="levy",
                           name=f"levy fit ({len(c)} gamma components)")
    model.measure = measure
    return model


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionResult:
    """One validated side condition.

    `margin` is the worst observed value of the quantity the condition
    constrains (its meaning is condition-specific and documented by
    `name`); `location` is where the worst case occurred.
    """

    name: str
    passed: bool
    margin: float
    location: float

    def to_record(self) -> dict:
        return {
            "condition": self.name,
            "passed": self.passed,
            "margin": self.margin,
            "location": self.location,
        }


@dataclass(frozen=True)
class ValidationReport:
    conditions: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_records(self) -> list:
        return [c.to_record() for c in self.conditions]

    def __str__(self):
        lines = []
        for c in self.conditions:
            flag = "pass" if c.passed else "FAIL"
            lines.append(f"{flag}  {c.name:32s} margin={c.margin: .3e} at z={c.location:g}")
        return "\n".join(lines)


def check_bernstein(model: BernsteinModel, grid, max_order: int = 4) -> ValidationReport:
    """Check the side conditions of a Bernstein model on a probe grid.

    Conditions: h(0) = 0, sign alternation of derivatives 1..max_order+1
    (complete monotonicity of h'), sublinear growth, h'(0) > 0,
    h''(0) <= 0, and the finite-activity plateau when claimed.  Failures
    are reported, never raised.
    """
    grid = [float(g) for g in grid]
    if max_order > 6:
        raise ValueError("max_order above 6 is not supported")
    conds = []

    v0 = float(model(0.0))
    conds.append(ConditionResult("zero_at_origin", abs(v0) < ZERO_TOL, abs(v0), 0.0))

    ratio = float(model(SUBLINEAR_PROBE)) / SUBLINEAR_PROBE
    conds.append(
        ConditionResult("sublinear_growth", ratio < SUBLINEAR_TOL, ratio, SUBLINEAR_PROBE)
    )

    conds.append(ConditionResult("h1_positive", model.h1 > 0, model.h1, 0.0))
    conds.append(ConditionResult("h2_nonpositive", model.h2 <= 0, model.h2, 0.0))

    for n in range(max_order + 1):
        worst = math.inf
        worst_z = grid[0]
        sign = 1.0 if n % 2 == 0 else -1.0
        for z in grid:
            val = sign * model.nth_derivative(n + 1, z)
            if val < worst:
                worst, worst_z = val, z
        conds.append(
            ConditionResult(
                f"alternation_order_{n}", worst >= -SIGN_TOL, worst, worst_z
            )
        )

    if model.activity.finite:
        c = model.activity.limit
        dev = abs(float(model(SUBLINEAR_PROBE)) - c) / c
        conds.append(
            ConditionResult("finite_activity_plateau", dev < 1e-3, dev, SUBLINEAR_PROBE)
        )

    return ValidationReport(tuple(conds))


# ---------------------------------------------------------------------------
# Limit transform
# ---------------------------------------------------------------------------

class LimitTransform:
    """G(z) = exp(-nu h(z / (nu h1))): the texture marginal's transform."""

    def __init__(self, model: BernsteinModel, nu: float):
        if not nu > 0:
            raise ValueError("nu must be positive")
        self.model = model
        self.nu = float(nu)

    def __call__(self, z):
        arr = _as_float_array(z)
        out = np.exp(-self.nu * self.model._fn(arr / (self.nu * self.model.h1)))
        return float(out) if np.ndim(z) == 0 else out


def limit_transform(model: BernsteinModel, nu: float) -> LimitTransform:
    return LimitTransform(model, nu)
