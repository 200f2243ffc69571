import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from cgclutter import ks_distance, negbin_pmf, summarize, total_variation
from cgclutter.estimators import ks_critical


class TestSummarize:
    def test_hand_worked_values(self):
        x = [0.0, 2.0, 0.0, 4.0]
        s = summarize(x, dt=1.0, max_lag=1.0)
        assert s.n == 4
        assert s.mean == 1.5
        assert s.variance == pytest.approx(np.var(x, ddof=1))
        assert s.zero_fraction == 0.5
        # lag-0 autocovariance is the biased variance
        assert s.autocov[0] == (0.0, pytest.approx(np.var(x)))
        # lag-1: mean of (x_t - m)(x_{t+1} - m) over n
        m = 1.5
        want = ((0 - m) * (2 - m) + (2 - m) * (0 - m) + (0 - m) * (4 - m)) / 4
        assert s.autocov[1] == (1.0, pytest.approx(want))

    def test_lag0_variance_relation(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(1.0, 1000)
        s = summarize(x, 0.5, 2.0)
        assert s.autocov[0][1] == pytest.approx(s.variance * 999 / 1000, rel=1e-12)

    def test_exact_zero_counting(self):
        x = np.array([0.0, 1e-300, 1.0])
        assert summarize(x, 1.0, 0.0).zero_fraction == pytest.approx(1 / 3)

    def test_guards(self):
        with pytest.raises(ValueError):
            summarize([], 1.0, 0.0)
        with pytest.raises(ValueError):
            summarize([1.0, 2.0], 1.0, 5.0)
        with pytest.raises(ValueError, match="span"):
            summarize([1.0, 2.0], 1.0, math.inf)

    @pytest.mark.parametrize("dt, max_lag, name", [
        (0.0, 1.0, "dt"),
        (-0.5, 1.0, "dt"),
        (1.0, -1.0, "max_lag"),
        (1.0, math.nan, "max_lag"),
    ], ids=["dt-0", "dt-negative", "max_lag-negative", "max_lag-nan"])
    def test_bad_step_or_lag_rejected(self, dt, max_lag, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            summarize([1.0, 2.0, 4.0], dt, max_lag)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(0, 300), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e6]), zeros=st.floats(0.0, 0.9))
    def test_autocov_matches_per_lag_dots(self, data, m, seed, scale, zeros):
        # lengths at and next to a multiple of the block width m + 1, or any
        b = m + 1
        near = st.builds(lambda k, d: k * b + d, st.integers(1, 4999 // b),
                         st.sampled_from([-1, 0, 1]))
        n = data.draw((near | st.integers(b, 5000)).filter(lambda n: n >= b), label="n")
        rng = np.random.default_rng(seed)
        x = np.where(rng.random(n) < zeros, 0.0, scale * rng.exponential(1.0, n))
        xc = x - x.mean()
        want = [np.dot(xc[: n - k], xc[k:]) / n for k in range(m + 1)]
        got = summarize(x, 0.25, 0.25 * m).autocov
        assert [t for t, _ in got] == [0.25 * k for k in range(m + 1)]
        # 1e-12 of sum xc^2 on each lag product, so over n on each autocov
        tol = 1e-12 * np.dot(xc, xc) / n
        assert np.max(np.abs(np.array([c for _, c in got]) - want)) <= tol


class TestKsDistance:
    def test_matches_scipy_for_continuous_law(self):
        rng = np.random.default_rng(7)
        x = rng.exponential(1.0, 500)
        cdf = lambda t: 1.0 - np.exp(-t)
        ref = kstest(x, cdf).statistic
        assert ks_distance(x, cdf) == pytest.approx(ref, abs=1e-12)

    def test_atom_at_zero_handling(self):
        # mixed law: mass a at 0, exponential above; a perfect sample of it
        # should have small KS only when the atom is declared
        a = 0.3
        rng = np.random.default_rng(3)
        n = 20_000
        x = np.where(rng.random(n) < a, 0.0, rng.exponential(1.0, n))
        cdf = lambda t: np.where(t < 0, 0.0, a + (1 - a) * (1.0 - np.exp(-np.maximum(t, 0))))
        naive = ks_distance(x, cdf)
        aware = ks_distance(x, cdf, atom_at_zero=a)
        assert naive >= a - 0.02  # naive comparison saturates at the atom
        assert aware < 0.02

    @settings(max_examples=300, deadline=None)
    @given(atom=st.floats(0.0, 0.9),
           samples=st.lists(st.just(0.0) | st.sampled_from([0.5, 1.0, 3.0])
                            | st.floats(0.0, 8.0), min_size=1, max_size=40))
    def test_matches_brute_force_supremum(self, atom, samples):
        # atom at zero, exponential above; samples tie at 0 and elsewhere
        cdf = lambda t: np.where(t < 0, 0.0,
                                 atom + (1 - atom) * -np.expm1(-np.maximum(t, 0.0)))
        x = np.array(samples)
        pts = np.unique(x)
        # both sides of each jump of the ECDF; F(p-) from the point below p
        right = np.abs(np.mean(x[:, None] <= pts, axis=0) - cdf(pts))
        left = np.abs(np.mean(x[:, None] < pts, axis=0) - cdf(np.nextafter(pts, -np.inf)))
        want = max(right.max(), left.max())
        assert ks_distance(x, cdf, atom_at_zero=atom) == pytest.approx(want, abs=1e-12)

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_distance([], lambda t: 1.0 - np.exp(-t))

    def test_critical_value(self):
        # c(0.01) = 1.628 (asymptotic Kolmogorov quantile)
        assert ks_critical(10_000, 0.01) == pytest.approx(1.6276 / 100.0, rel=1e-3)

    @pytest.mark.parametrize("n, alpha, message", [
        (0, 0.01, "n must be at least 1, not 0"),
        (-5, 0.01, "n must be at least 1, not -5"),
        (100, 0.0, "alpha must lie in \\(0, 1\\), not 0.0"),
        (100, 1.0, "alpha must lie in \\(0, 1\\), not 1.0"),
        (100, 1.5, "alpha must lie in \\(0, 1\\), not 1.5"),
        (100, math.nan, "alpha must lie in \\(0, 1\\), not nan"),
    ], ids=["n-0", "n-negative", "alpha-0", "alpha-1", "alpha-above-1", "alpha-nan"])
    def test_critical_value_refuses_bad_arguments(self, n, alpha, message):
        with pytest.raises(ValueError, match=message):
            ks_critical(n, alpha)


class TestTotalVariation:
    def test_hand_worked(self):
        emp = {0: 0.5, 1: 0.5}
        pmf = lambda n: 0.25 if n in (0, 1) else (0.5 if n == 2 else 0.0)
        # |0.5-0.25| + |0.5-0.25| plus unmatched tail 0.5 -> TV = 0.5
        assert total_variation(emp, pmf) == pytest.approx(0.5)

    def test_zero_for_perfect_match(self):
        p = 0.3
        pmf = lambda n: p * (1 - p) ** n
        emp = {n: pmf(n) for n in range(200)}
        emp[0] += 1.0 - sum(emp.values())  # close to machine precision
        assert total_variation(emp, pmf) < 1e-9

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            total_variation({0: 0.4}, lambda n: 0.5)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(0, 60), min_size=1, max_size=200),
           law=st.sampled_from(["geometric", "negbin"]),
           shape=st.floats(0.05, 0.9), mean=st.floats(0.5, 20.0))
    def test_tail_accounting_matches_direct_sum(self, counts, law, shape, mean):
        # frequencies of outcomes 0..60; the law may put mass far beyond them
        if law == "geometric":
            pmf = lambda n: shape * (1.0 - shape) ** n
        else:
            pmf = lambda n: negbin_pmf(10.0 * shape, mean, n)
        emp = {n: counts.count(n) / len(counts) for n in set(counts)}
        # support truncated where the analytic tail is below 1e-16
        direct = np.bincount(counts, minlength=4000) / len(counts)
        want = 0.5 * np.abs(direct - pmf(np.arange(4000))).sum()
        assert total_variation(emp, pmf) == pytest.approx(want, abs=1e-12)
