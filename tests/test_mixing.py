import functools
import json
import math
import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc, gammaincc, gammaln
from scipy.stats import nbinom

from cgclutter import (
    BernsteinModel,
    MixingLaw,
    SimConfig,
    make_builtin_finite,
    make_builtin_infinite,
    pgf_k,
    sample_k,
    sample_on_grid,
    sample_xi,
    simulate,
)
from cgclutter import mixing
from cgclutter.bernstein import FIT_NODES, LimitTransform, fit_bernstein, from_lst
from cgclutter.cli import _load_lst_table
from cgclutter.estimators import ks_critical, ks_distance
from test_acceptance import _exact_tv_floor, _tv_table

# ln |h^(n)(z)| of the builtins: n! (1+z)^-(n+1) for z/(z+1), (n-1)! (1+z)^-n
# for ln(1+z); the sign of h^(n) is (-1)^(n+1)
LOG_ABS_DERIVATIVE = {
    "rational": lambda n, z: gammaln(n + 1.0) - (n + 1.0) * math.log1p(z),
    "logarithmic": lambda n, z: gammaln(float(n)) - n * math.log1p(z),
}


def pmf_from_derivatives(model, kappa, n):
    """PMF of K straight from the derivative formula, in the log domain:
    p(n) = -(-kappa)^n h^(n)(kappa) / (n! h(kappa))."""
    if n == 0:
        return 0.0
    return math.exp(LOG_ABS_DERIVATIVE[model.family](n, kappa) + n * math.log(kappa)
                    - gammaln(n + 1.0) - math.log(model(kappa)))


def finite_table(path, nu):
    """The finite builtin's G at 400 log-spaced z, written at %.17g."""
    z = np.concatenate([[0.0], np.logspace(-4, 6, 400)])
    g = LimitTransform(make_builtin_finite(), nu)(z)
    path.write_text("".join(f"{zi:.17g},{gi:.17g}\n" for zi, gi in zip(z, g)))
    return path


class TestClosedForms:
    def test_geometric_pmf(self):
        # h = z/(z+1) at kappa: success parameter p = 1/(kappa+1)
        law = MixingLaw(make_builtin_finite(), 9.0)
        p = 0.1
        for n in range(1, 51):
            assert law.pmf(n) == pytest.approx(p * (1 - p) ** (n - 1), rel=1e-12)

    def test_logarithmic_pmf(self):
        # h = ln(1+z) at kappa: parameter p = kappa/(1+kappa)
        law = MixingLaw(make_builtin_infinite(), 1.0)
        p = 0.5
        for n in range(1, 51):
            want = -(p ** n) / (n * math.log1p(-p))
            assert law.pmf(n) == pytest.approx(want, rel=1e-12)

    def test_pmf_at_zero_is_zero(self):
        # E[u^K] = p(0) + p(1) u + O(u^2): no constant term
        law = MixingLaw(make_builtin_finite(), 9.0)
        u = 1e-9
        assert pgf_k(law, u) == pytest.approx(law.pmf(1) * u, rel=1e-6)
        assert law.pmf(0) == 0.0 and law.pmf(np.arange(-1, 2))[:2].tolist() == [0.0, 0.0]

    def test_derivative_route_matches_closed_forms(self):
        for model, kappa in ((make_builtin_finite(), 9.0), (make_builtin_infinite(), 1.0)):
            law = MixingLaw(model, kappa)
            for n in range(1, 51):
                assert pmf_from_derivatives(model, kappa, n) == pytest.approx(
                    law.pmf(n), rel=1e-12, abs=1e-300
                )

    def test_derivative_route_high_order_log_domain(self):
        # n > 170: n! and kappa^n overflow a float, their ratio does not
        model = make_builtin_finite()
        kappa = 200.0
        p = 1.0 / (kappa + 1.0)
        got = pmf_from_derivatives(model, kappa, 200)
        want = p * (1 - p) ** 199
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("model", [make_builtin_finite(), make_builtin_infinite()])
    def test_derivative_route_matches_cache_at_kappa_150(self, model):
        # past n = 141 kappa^n alone overflows a float; the route stays in logs
        law = MixingLaw(model, 150.0)
        got = [pmf_from_derivatives(model, 150.0, n) for n in range(1, 400)]
        np.testing.assert_allclose(got, law.pmf(np.arange(1, 400)), rtol=1e-10)


class TestPgfAndMoments:
    @pytest.mark.parametrize("model,kappa", [
        (make_builtin_finite(), 9.0),
        (make_builtin_infinite(), 150.0),
    ])
    def test_pgf_equals_pmf_sum(self, model, kappa):
        # 0.9^400 < 1e-18: the rest of the sum is negligible
        law = MixingLaw(model, kappa)
        ns = np.arange(1.0, 401.0)
        for u in (0.25, 0.5, 0.9):
            by_sum = float(np.dot(law.pmf(ns), u ** ns))
            assert by_sum == pytest.approx(pgf_k(law, u), abs=1e-8)

    def test_pgf_at_one(self):
        law = MixingLaw(make_builtin_finite(), 9.0)
        assert pgf_k(law, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_pgf_rejects_out_of_range(self):
        law = MixingLaw(make_builtin_finite(), 9.0)
        for u in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                pgf_k(law, u)

    def test_mean_formula(self):
        # E[K] = kappa h1 / h(kappa): geometric mean is kappa + 1
        law = MixingLaw(make_builtin_finite(), 9.0)
        assert law.mean == pytest.approx(10.0, rel=1e-14)
        law = MixingLaw(make_builtin_infinite(), 150.0)
        assert law.mean == pytest.approx(150.0 / math.log(151.0), rel=1e-14)

    def test_mean_matches_pmf_sum(self):
        # past n = 5000 both tails hold less than 1e-13 of the mean
        for model, kappa in ((make_builtin_finite(), 9.0), (make_builtin_infinite(), 150.0)):
            law = MixingLaw(model, kappa)
            ns = np.arange(1.0, 5001.0)
            assert float(np.dot(law.pmf(ns), ns)) == pytest.approx(
                law.mean, rel=1e-6
            )

    def test_second_moment_geometric(self):
        # brute-force sum for kappa=1 (p=1/2) gives E[K^2] = (2-p)/p^2 = 6
        law = MixingLaw(make_builtin_finite(), 1.0)
        assert law.second_moment == pytest.approx(6.0, rel=1e-12)

    def test_second_moment_logarithmic(self):
        # brute-force sum for kappa=1 (p=1/2) gives 2/ln 2
        law = MixingLaw(make_builtin_infinite(), 1.0)
        assert law.second_moment == pytest.approx(2.0 / math.log(2.0), rel=1e-12)

    def test_second_moment_matches_pmf_sum(self):
        law = MixingLaw(make_builtin_infinite(), 20.0)
        ns = np.arange(1.0, 2001.0)  # (20/21)^2000 < 1e-42
        assert float(np.dot(law.pmf(ns), ns ** 2)) == pytest.approx(
            law.second_moment, rel=1e-6
        )


class TestSampling:
    def test_geometric_sampler_moments(self):
        law = MixingLaw(make_builtin_finite(), 9.0)
        rng = np.random.default_rng(11)
        k = sample_k(law, rng, size=200_000)
        assert k.min() >= 1
        assert k.mean() == pytest.approx(law.mean, rel=0.02)
        assert np.mean(k.astype(float) ** 2) == pytest.approx(law.second_moment, rel=0.05)

    def test_logarithmic_sampler_pmf(self):
        law = MixingLaw(make_builtin_infinite(), 1.0)
        rng = np.random.default_rng(5)
        k = sample_k(law, rng, size=500_000)
        counts = np.bincount(k)
        tv = np.abs(counts[1:] / len(k) - law.pmf(np.arange(1, len(counts)))).sum()
        assert 0.5 * tv < 0.005

    @pytest.mark.parametrize("model", [make_builtin_finite(), make_builtin_infinite(),
                                       fit_bernstein(FIT_NODES, FIT_NODES / (FIT_NODES + 1.0))],
                             ids=["rational", "logarithmic", "levy"])
    def test_one_draw_is_an_int(self, model):
        # a fitted model's draw was a numpy.int64
        assert type(sample_k(MixingLaw(model, 150.0), np.random.default_rng(0))) is int

    def test_generic_inversion_sampler(self):
        # the Levy measure fitted to z/(z+1) is sampled as a negative-binomial mixture
        model = fit_bernstein(FIT_NODES, make_builtin_finite()(FIT_NODES))
        law = MixingLaw(model, 9.0)
        rng = np.random.default_rng(3)
        k = sample_k(law, rng, size=200_000)
        assert k.min() >= 1
        assert k.mean() == pytest.approx(10.0, rel=0.02)


@functools.cache
def gamma_fit():
    """`from_lst` of the gamma law of ln(1 + z) at nu = 2: a fitted K close to log-series."""
    return from_lst(LimitTransform(make_builtin_infinite(), 2.0), 2.0)


@functools.cache
def k_texture_fit():
    """`from_lst` of the K-texture law of z/(z + 1) at nu = 2: a fitted K close to geometric."""
    return from_lst(LimitTransform(make_builtin_finite(), 2.0), 2.0)


class NbinomMixture:
    """A fitted model's K, brute force from scipy.stats.nbinom: component j
    is NB(k_j, 1/(1 + theta_j)), theta_j = kappa x_j / k_j, with weight c_j,
    and the mixture is conditioned on K >= 1."""

    def __init__(self, model, kappa):
        c, k, x = model.measure
        self.c, self.k, self.q = c, k, 1.0 / (1.0 + kappa * x / k)
        self.positive = float(c @ nbinom.sf(0, k, self.q))

    def pmf(self, n):
        return nbinom.pmf(np.asarray(n)[:, None], self.k, self.q) @ self.c / self.positive

    def sf(self, n):
        """P(K > n) for n >= 0."""
        return nbinom.sf(np.asarray(n)[:, None], self.k, self.q) @ self.c / self.positive


# cells of K: each size to 64, then 200 log-spaced cells to 1e18 and one
# past it
EDGES = np.unique(np.concatenate([np.arange(1, 65), np.geomspace(65, 1e18, 200).round()]))


class TestFittedSampler:
    @pytest.mark.parametrize("fit", [gamma_fit, k_texture_fit])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(kappa=st.floats(1.0, 1e8), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_nbinom_mixture(self, fit, kappa, seed):
        # the closed-form PMF term by term, then 2^16 draws in cells within
        # acceptance 6's floor: the mean and 4 sd of the TVs of 200 exact
        # multinomial samples of the cell masses
        model = fit()
        law, ref = MixingLaw(model, kappa), NbinomMixture(model, kappa)
        ns = np.arange(1, 401)
        np.testing.assert_allclose(law.pmf(ns), ref.pmf(ns), rtol=1e-10)
        mass = -np.diff(np.append(ref.sf(EDGES - 1), 0.0))
        draws = sample_k(law, np.random.default_rng(seed), size=2 ** 16)
        freq = np.bincount(np.searchsorted(EDGES, draws, side="right") - 1,
                           minlength=len(mass)) / len(draws)
        floor, sd = _exact_tv_floor(mass, len(draws), draws=200, seed=[seed, 1])
        assert _tv_table(freq, mass) < floor + 4.0 * sd

    @pytest.mark.parametrize("kappa", [1e5, 1e6, 1e12])
    def test_draws_at_large_kappa(self, kappa):
        # no table to outgrow: the mean of 2^16 draws within 5 standard errors
        law = MixingLaw(gamma_fit(), kappa)
        k = sample_k(law, np.random.default_rng(4), size=2 ** 16)
        se = math.sqrt((law.second_moment - law.mean ** 2) / len(k))
        assert k.dtype == np.int64 and k.min() >= 1
        assert abs(k.mean() - law.mean) < 5.0 * se


def generator_state(rng):
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


class StreamGenerator:
    """A stand-in for np.random.Generator whose `random` serves the given
    doubles in order, then the largest double below 1 forever."""

    def __init__(self, doubles):
        self.doubles = list(doubles)
        self.used = 0

    def random(self, size=None, out=None):
        n = 1 if size is None else size
        got = self.doubles[self.used:self.used + n]
        got += [np.nextafter(1.0, 0.0)] * (n - len(got))
        self.used += n
        if out is None:
            return got[0] if size is None else np.array(got)
        out[...] = got
        return out


def reference_logseries(rng, p, size):
    """numpy's Kemp loop, one draw at a time from rng.random(), with log and
    expm1 from the same numpy ufuncs as the block sampler."""
    r = math.log1p(-p)
    draws = []
    while len(draws) < size:
        v = rng.random()
        if v >= p:
            draws.append(1)
            continue
        q = -np.expm1(r * rng.random())
        if v <= q * q:
            if v == 0:
                continue
            k = math.floor(1 + np.log(v) / np.log(q))
            if k >= 1:
                draws.append(k)
            continue
        draws.append(1 if v >= q else 2)
    return draws


@contextmanager
def logseries_block(size):
    """Run the log-series sampler in blocks of `size` doubles."""
    saved = mixing.LOGSERIES_BLOCK
    mixing.LOGSERIES_BLOCK = size
    try:
        yield
    finally:
        mixing.LOGSERIES_BLOCK = saved


class TestLogseries:
    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937, np.random.Philox])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.5, 0.9, 10 / 11, 150 / 151, 1 - 1e-9])
    def test_logseries_matches_numpy(self, bitgen, p):
        # draws and generator state after each call, across block edges
        want, got = np.random.Generator(bitgen(17)), np.random.Generator(bitgen(17))
        block = mixing.LOGSERIES_BLOCK
        for size in (None, 0, 1, 2, block - 1, block + 1, 2 * block - 1, 2 * block + 1, 300_000,
                     (3, 5)):
            k, j = want.logseries(p, size), mixing._logseries(got, p, size)
            assert type(j) is type(k) and np.shape(j) == np.shape(k)
            assert np.asarray(j).dtype == np.asarray(k).dtype
            np.testing.assert_array_equal(j, k)
            assert generator_state(got) == generator_state(want), size

    @pytest.mark.parametrize("p", [-0.1, 1.0, np.nan])
    def test_logseries_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError):
            mixing._logseries(np.random.default_rng(0), p, 3)

    @settings(max_examples=500, deadline=None)
    @given(st.data(), st.integers(1, 8), st.sampled_from([0.0, 1e-3, 0.5, 10 / 11, 150 / 151]))
    def test_logseries_matches_reference_stream(self, data, block, p):
        # doubles at p, just below it and 0.0 land as V's, as U's and as a V
        # that ends a block: a V of 0 (a retry below p, a 1 at p = 0) and a
        # U of 0 (q = 0) occur, which no real generator draws
        pool = st.one_of(st.sampled_from([0.0, p, np.nextafter(p, 0.0)]),
                         st.floats(p, 1.0, exclude_max=True),
                         st.floats(0.0, 1.0, exclude_max=True))
        doubles = data.draw(st.lists(pool, max_size=40))
        size = data.draw(st.integers(1, 30))
        got, want = StreamGenerator(doubles), StreamGenerator(doubles)
        with logseries_block(block):
            k = mixing._logseries(got, p, size)
        assert k.tolist() == reference_logseries(want, p, size)
        assert got.used == want.used

    def test_logseries_kappa_too_large(self):
        # p = kappa/(1 + kappa) rounds to 1 from about 9e15
        MixingLaw(make_builtin_infinite(), 9e15)
        with pytest.raises(ValueError, match="kappa"):
            MixingLaw(make_builtin_infinite(), 1e17)


def assert_ks(x, cdf):
    """x passes the Kolmogorov-Smirnov test against cdf at level 0.01."""
    assert ks_distance(x, cdf) < ks_critical(len(x), 0.01)


class TestContinuousMixing:
    def test_rational_is_unit_exponential(self):
        x = sample_xi(make_builtin_finite(), np.random.default_rng(2), size=200_000)
        assert_ks(x, lambda s: -np.expm1(-s))
        assert x.mean() == pytest.approx(1.0, rel=0.01)
        assert x.var() == pytest.approx(1.0, rel=0.02)

    def test_rejects_infinite_activity(self):
        with pytest.raises(ValueError, match="finite-activity"):
            sample_xi(make_builtin_infinite(), np.random.default_rng(0))

    def test_generic_inversion_matches_exponential(self):
        # same rational model rebuilt without its family tag: xi from the
        # Levy measure fitted to it must be the unit exponential
        nu = 2.0
        model = from_lst(LimitTransform(make_builtin_finite(), nu), nu)
        x = sample_xi(model, np.random.default_rng(8), size=100_000)
        assert_ks(x, lambda s: -np.expm1(-s))
        assert x.mean() == pytest.approx(1.0, rel=0.03)

    def test_bare_function_fits_non_completely_monotone_density(self):
        # h = 1 - 4/(z+2)^2 has Levy density 4s e^(-2s), so xi ~ Gamma(2, 1/2)
        model = fit_bernstein(FIT_NODES, 1.0 - 4.0 / (FIT_NODES + 2.0) ** 2)
        x = sample_xi(model, np.random.default_rng(9), size=100_000)
        assert_ks(x, lambda s: gammainc(2.0, 2.0 * s))

    def test_tabulated_transform_matches_exponential(self, tmp_path):
        # The same finite builtin, with G tabulated at 400 log-spaced points
        # and read back by the table loader behind --model custom-lst, which
        # fits a Levy measure to it: xi, the texture mean and its variance
        # are all 1.
        nu = 2.0
        model = _load_lst_table(finite_table(tmp_path / "lst.csv", nu), nu)
        x = sample_xi(model, np.random.default_rng(8), size=100_000)
        cfg = SimConfig(gamma=0.25, window=8.0, duration=2e4, dt=0.1, seed=3)
        tau = sample_on_grid(simulate(model, cfg), cfg.dt)
        assert (x.mean(), tau.mean(), tau.var()) == pytest.approx((1.0, 1.0, 1.0), rel=0.1)

    def test_tabulated_transform_cluster_sizes_are_geometric(self, tmp_path):
        # K of h = z/(z+1) at kappa 150 is geometric(1/151); the fitted
        # measure leaves a TV of 1.5e-6
        nu, kappa = 2.0, 150.0
        law = MixingLaw(_load_lst_table(finite_table(tmp_path / "lst.csv", nu), nu), kappa)
        assert law.model.family == "levy"
        ns = np.arange(1, 4097)  # (150/151)^4096 < 1e-11
        p = 1.0 / (kappa + 1.0)
        geometric = p * (1.0 - p) ** (ns - 1)
        tv = 0.5 * (np.abs(law.pmf(ns) - geometric).sum() + 1.0 - geometric.sum())
        assert tv < 1e-5


class TestValidation:
    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            MixingLaw(make_builtin_finite(), 0.0)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_rejects_nonfinite_kappa(self, kappa):
        # a fitted model's PMF at kappa = inf is NaN
        model = fit_bernstein(FIT_NODES, make_builtin_infinite()(FIT_NODES))
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            MixingLaw(model, kappa)

    @pytest.mark.parametrize("model,below,above", [(make_builtin_finite(), 2.4e17, 2.6e17),
                                                   (k_texture_fit(), 1e16, 1e19)],
                             ids=["rational", "levy"])
    def test_refuses_kappa_past_int64(self, model, below, above):
        # P(K >= 2^63) passes 1e-16 near kappa = 2^63 / ln(1e16) = 2.5e17
        # for the geometric law; rng.geometric saturated 40 % of its draws
        # at 2^63 - 1 at kappa 1e19
        MixingLaw(model, below)
        message = f"kappa {above!r} is too large: K >= 2**63"
        with pytest.raises(ValueError, match=re.escape(message)):
            MixingLaw(model, above)

    def test_geometric_tail_is_gammaincc_of_one(self):
        # the geometric tail check evaluates exp(-2**63/kappa), which is
        # gammaincc(1, 2**63/kappa), the fitted check's term at k = 1.  Below
        # 1e-40, far under the 1e-16 it is judged against, scipy's value
        # drifts up to 8e-14 from the exact one, which math.exp gives
        kappa = np.logspace(16, 19, 3001)
        y = 2.0 ** 63 / kappa
        tail, scipy_tail = np.array([math.exp(-v) for v in y]), gammaincc(1.0, y)
        judged = scipy_tail > 1e-40
        assert judged.sum() > 1000
        np.testing.assert_allclose(tail[judged], scipy_tail[judged], rtol=1e-14, atol=0.0)
        h = kappa / (kappa + 1.0)
        np.testing.assert_array_equal(tail > 1e-16 * h, scipy_tail > 1e-16 * h)

    @pytest.mark.parametrize("model", [make_builtin_finite(), k_texture_fit()],
                             ids=["rational", "levy"])
    def test_refuses_kappa_with_overflowing_moments(self, model):
        # kappa ** 2 raised OverflowError here
        with pytest.raises(ValueError, match=r"kappa 1e\+300 is too large: E\[K\^2\] overflows"):
            MixingLaw(model, 1e300)

    def test_refuses_model_neither_builtin_nor_fitted(self):
        bare = BernsteinModel(lambda z: z / (z + 1.0), h1=1.0, h2=-2.0, C=1.0)
        with pytest.raises(ValueError, match="fit_bernstein"):
            MixingLaw(bare, 9.0)
        with pytest.raises(ValueError, match="fit_bernstein"):
            sample_xi(bare, np.random.default_rng(0))


@pytest.mark.parametrize("model", [make_builtin_finite(), make_builtin_infinite(),
                                   fit_bernstein(np.logspace(-4, 5, 400) / 2.0,
                                                 np.sqrt(np.logspace(-4, 5, 400) / 2.0))],
                         ids=["rational", "logarithmic", "sqrt-fit"])
def test_law_holds_no_table(model):
    # a PMF table to mass 1 - 1e-10 took 336 MB for the log-series law at
    # kappa 1e6
    tracemalloc.start()
    try:
        MixingLaw(model, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
