import json
import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc, gammaln

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
            assert law.pmf_table[n - 1] == pytest.approx(p * (1 - p) ** (n - 1), rel=1e-12)

    def test_logarithmic_pmf(self):
        # h = ln(1+z) at kappa: parameter p = kappa/(1+kappa)
        law = MixingLaw(make_builtin_infinite(), 1.0)
        p = 0.5
        for n in range(1, 51):
            want = -(p ** n) / (n * math.log1p(-p))
            assert law.pmf_table[n - 1] == pytest.approx(want, rel=1e-12)

    def test_pmf_at_zero_is_zero(self):
        # E[u^K] = p(0) + p(1) u + O(u^2): no constant term, and the table
        # starts at n = 1
        law = MixingLaw(make_builtin_finite(), 9.0)
        u = 1e-9
        assert pgf_k(law, u) == pytest.approx(law.pmf_table[0] * u, rel=1e-6)

    def test_derivative_route_matches_closed_forms(self):
        for model, kappa in ((make_builtin_finite(), 9.0), (make_builtin_infinite(), 1.0)):
            law = MixingLaw(model, kappa)
            for n in range(1, 51):
                assert pmf_from_derivatives(model, kappa, n) == pytest.approx(
                    law.pmf_table[n - 1], rel=1e-12, abs=1e-300
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
        np.testing.assert_allclose(got, law.pmf_table[:399], rtol=1e-10)


class TestPgfAndMoments:
    @pytest.mark.parametrize("model,kappa", [
        (make_builtin_finite(), 9.0),
        (make_builtin_infinite(), 150.0),
    ])
    def test_pgf_equals_pmf_sum(self, model, kappa):
        law = MixingLaw(model, kappa)
        ns = np.arange(1.0, len(law.pmf_table) + 1.0)
        for u in (0.25, 0.5, 0.9):
            by_sum = float(np.dot(law.pmf_table, u ** ns))
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
        for model, kappa in ((make_builtin_finite(), 9.0), (make_builtin_infinite(), 150.0)):
            law = MixingLaw(model, kappa)
            ns = np.arange(1.0, len(law.pmf_table) + 1.0)
            assert float(np.dot(law.pmf_table, ns)) == pytest.approx(
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
        ns = np.arange(1.0, len(law.pmf_table) + 1.0)
        assert float(np.dot(law.pmf_table, ns ** 2)) == pytest.approx(
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
        tv = np.abs(counts[1:] / len(k) - law.pmf_table[:len(counts) - 1]).sum()
        assert 0.5 * tv < 0.005

    def test_generic_inversion_sampler(self):
        # the Levy measure fitted to z/(z+1) is sampled by CDF inversion
        model = fit_bernstein(FIT_NODES, make_builtin_finite()(FIT_NODES))
        law = MixingLaw(model, 9.0)
        rng = np.random.default_rng(3)
        k = sample_k(law, rng, size=200_000)
        assert k.min() >= 1
        assert k.mean() == pytest.approx(10.0, rel=0.02)


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
        ns = np.arange(1, len(law.pmf_table) + 1)
        p = 1.0 / (kappa + 1.0)
        geometric = p * (1.0 - p) ** (ns - 1)
        tv = 0.5 * (np.abs(law.pmf_table - geometric).sum() + 1.0 - geometric.sum())
        assert tv < 1e-5


class TestCache:
    def test_chunked_table_matches_one_block(self, tmp_path, monkeypatch):
        # 1000 terms a chunk: a few orders at a time, several chunks per doubling
        monkeypatch.setattr(mixing, "CACHE_CHUNK", 1000)
        nu = 2.0
        law = MixingLaw(_load_lst_table(finite_table(tmp_path / "lst.csv", nu), nu), 150.0)
        pmf = np.exp(law._log_pmf_block(np.arange(1, len(law.pmf_table) + 1)))
        assert len(pmf) == 4096 and 1000 // len(law.model.measure[0]) < 64
        assert law.pmf_table.tobytes() == pmf.tobytes()
        assert law.cdf_table.tobytes() == np.cumsum(pmf).tobytes()
        assert law.mass == float(np.cumsum(pmf)[-1])

    def test_memory_bounded_at_the_order_cap(self):
        # h(w) = sqrt(w) to w = 5e4: the table runs to 262144 orders of 76
        # components, 2e7 terms, without holding them at once
        w = np.logspace(-4, 5, 400) / 2.0
        model = fit_bernstein(w, np.sqrt(w))
        tracemalloc.start()
        try:
            law = MixingLaw(model, 150.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(law.pmf_table) * len(model.measure[0]) >= mixing.CACHE_N_CAP
        assert peak < 150e6


class TestValidation:
    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            MixingLaw(make_builtin_finite(), 0.0)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_rejects_nonfinite_kappa(self, kappa):
        # a fitted model's PMF table at kappa = inf is NaN, and was sampled
        # as clusters of size 1
        model = fit_bernstein(FIT_NODES, make_builtin_infinite()(FIT_NODES))
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            MixingLaw(model, kappa)

    def test_refuses_model_neither_builtin_nor_fitted(self):
        bare = BernsteinModel(lambda z: z / (z + 1.0), h1=1.0, h2=-2.0, C=1.0)
        with pytest.raises(ValueError, match="fit_bernstein"):
            MixingLaw(bare, 9.0)
        with pytest.raises(ValueError, match="fit_bernstein"):
            sample_xi(bare, np.random.default_rng(0))
