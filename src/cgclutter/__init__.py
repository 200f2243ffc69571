"""Compound-Gaussian clutter simulation from Bernstein functions.

Builds the nonnegative texture process tau(t) as a (normalized) windowed
compound-Poisson process driven by a Bernstein function, composes it
with correlated complex Gaussian speckle into clutter z(t) =
sqrt(tau(t)) x(t), and validates every simulated law against its
closed-form counterpart.

Importing the package loads numpy and no scipy, and so does simulating a
builtin model, texture, speckle and CSVs, from the library or by the CLI's
`simulate`: scipy.special is imported by the closed forms that evaluate
it, scipy.optimize by `fit_bernstein`.
"""

from .bernstein import (
    BernsteinModel,
    LimitTransform,
    fit_bernstein,
    from_lst,
    make_builtin_finite,
    make_builtin_infinite,
)
from .bessel import scaled_i1
from .estimators import EmpiricalSummary, ks_distance, summarize, total_variation
from .laws import (
    TextureLaw,
    gamma_texture_law,
    gaussian_limit_distance,
    k_texture_law,
    lst_moments,
    negbin_pmf,
    polya_aeppli_pmf,
    texture_cov,
)
from .mixing import MixingLaw, pgf_k, sample_k, sample_xi
from .speckle import AR1, ClutterSeries, CustomACF, SpeckleSpec, White, compose, gen_speckle
from .texture import (
    ArrivalBudgetError,
    SimConfig,
    TexturePath,
    poisson_arrivals,
    sample_on_grid,
    simulate,
    windowed_process,
)

__version__ = "0.1.0"
