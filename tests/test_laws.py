import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaln, pdtr
from scipy.stats import gamma, nbinom

from cgclutter import (
    LimitTransform,
    gamma_texture_law,
    gaussian_limit_distance,
    k_texture_law,
    lst_moments,
    make_builtin_finite,
    make_builtin_infinite,
    negbin_pmf,
    polya_aeppli_pmf,
    texture_cov,
)

# Frozen from an independent compound-Poisson convolution oracle:
# Poisson(lam) number of geometric(p=0.1) clusters, lam = 2*0.9.
PA_ORACLE = [
    1.652988882216e-01,
    2.975379987989e-02,
    2.945626188109e-02,
    2.908136400260e-02,
    2.863871672179e-02,
    2.813720297609e-02,
]


def poisson_gamma_cdf(nu, tau):
    """P(tau <= t) from the law's definition: a Poisson(nu) number n of
    Exp(nu) marks, whose sum is Gamma(n, 1/nu).  The Poisson weights are
    differences of the Poisson CDF: exp of the log pmf loses about 5e-13
    relative at nu = 100."""
    n = np.arange(1.0, nu + 40.0 * math.sqrt(nu) + 60.0)
    weights = pdtr(n, nu) - pdtr(n - 1.0, nu)
    return np.array([math.exp(-nu) + np.sum(weights * gammainc(n, nu * t)) for t in tau])


class TestKTextureLaw:
    def test_atom(self):
        assert k_texture_law(0.75).atom_at_zero == pytest.approx(math.exp(-0.75))

    def test_normalization_quadrature(self):
        for nu in (0.75, 2.0, 10.0):
            law = k_texture_law(nu)
            mass, err = quad(law.pdf, 0.0, np.inf, limit=400)
            assert law.atom_at_zero + mass == pytest.approx(1.0, abs=1e-6)

    def test_unit_mean_quadrature(self):
        for nu in (0.75, 2.0):
            law = k_texture_law(nu)
            mean, err = quad(lambda t: t * law.pdf(t), 0.0, np.inf, limit=400)
            assert mean == pytest.approx(1.0, abs=1e-6)

    def test_cdf_matches_integrated_pdf(self):
        law = k_texture_law(2.0)
        for x in (0.3, 1.0, 2.5, 6.0):
            want, _ = quad(law.pdf, 0.0, x, limit=400)
            assert law.cdf(x) == pytest.approx(want + law.atom_at_zero, abs=1e-13)

    @pytest.mark.parametrize("nu", [0.1, 0.5, 2.0, 10.0, 100.0])
    def test_cdf_matches_poisson_gamma_series(self, nu):
        # zero, the tiny values, both tails and the bulk at 1 +- 3.5 sd for nu = 100
        tau = np.r_[0.0, 5e-324, 1e-300, 1e-12, np.logspace(-6.0, 3.0, 73),
                    np.linspace(0.5, 1.5, 21)]
        law = k_texture_law(nu)
        got = law.cdf(tau)
        np.testing.assert_allclose(got, poisson_gamma_cdf(nu, tau), rtol=0, atol=1e-13)
        assert law.cdf(0.0) == law.atom_at_zero
        assert np.all(got <= 1.0)

    def test_cdf_limits_and_vector_form(self):
        law = k_texture_law(2.0)
        assert law.cdf(-1.0) == 0.0
        assert law.cdf(0.0) == pytest.approx(law.atom_at_zero)
        xs = np.array([0.0, 1.0, 50.0])
        out = law.cdf(xs)
        assert out.shape == (3,)
        assert out[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(out) >= 0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            k_texture_law(0.0)


class TestGammaTextureLaw:
    def test_unit_mean_and_variance(self):
        law = gamma_texture_law(2.0)
        mean, _ = quad(lambda t: t * law.pdf(t), 0, np.inf)
        var, _ = quad(lambda t: (t - 1.0) ** 2 * law.pdf(t), 0, np.inf)
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert var == pytest.approx(0.5, abs=1e-9)

    def test_cdf_median_of_exponential_case(self):
        # nu = 1 is the unit exponential
        law = gamma_texture_law(1.0)
        assert law.cdf(math.log(2.0)) == pytest.approx(0.5, abs=1e-12)
        assert law.atom_at_zero == 0.0

    @settings(max_examples=200, deadline=None)
    @given(nu=st.floats(0.01, 1.0) | st.floats(1.0, 1e3),
           xs=st.lists(st.floats(0.0, 1e3), max_size=50))
    @example(nu=1.0, xs=[])  # x^0 at x = 0 is 1, not 0 * log 0
    def test_pdf_is_scipy_stats_gamma_bit_for_bit(self, nu, xs):
        # 0 and the smallest subnormal: the pdf is +inf at 0 for nu < 1
        x = np.array([0.0, 5e-324, 1e-300, 1.0, *xs])
        law = gamma_texture_law(nu)
        with np.errstate(over="ignore"):
            got = law.pdf(x)
            want = gamma(a=nu, scale=1.0 / nu).pdf(x)
        assert np.array_equal(got, want)
        assert law.pdf(-1.0) == 0.0


class TestCountLaws:
    def test_polya_aeppli_against_convolution_oracle(self):
        for n, want in enumerate(PA_ORACLE):
            assert polya_aeppli_pmf(2.0, 0.1, n) == pytest.approx(want, rel=1e-9)

    def test_polya_aeppli_normalizes(self):
        total = polya_aeppli_pmf(2.0, 0.1, np.arange(400)).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_polya_aeppli_mean(self):
        # mean = lam / p with lam = nu (1-p): clusters of geometric size
        ns = np.arange(600)
        mean = np.dot(ns, polya_aeppli_pmf(2.0, 0.1, ns))
        assert mean == pytest.approx(2.0 * 0.9 / 0.1, rel=1e-9)

    def test_polya_aeppli_is_zero_below_zero(self):
        assert polya_aeppli_pmf(2.0, 0.1, -1) == 0.0
        out = polya_aeppli_pmf(2.0, 0.1, np.arange(-3, 4))
        np.testing.assert_array_equal(out[:3], 0.0)
        np.testing.assert_array_equal(out[3:], polya_aeppli_pmf(2.0, 0.1, np.arange(4)))

    @pytest.mark.parametrize("nu, p", [(5e-324, 0.5), (1e-320, 1.0 - 1e-6)])
    def test_polya_aeppli_at_an_underflowed_rate_is_the_point_mass_at_0(self, nu, p):
        # lam = nu (1 - p) rounds to 0: no clusters, so no count but 0
        assert nu * (1.0 - p) == 0.0
        assert polya_aeppli_pmf(nu, p, 0) == 1.0
        assert polya_aeppli_pmf(nu, p, 3) == 0.0
        assert isinstance(polya_aeppli_pmf(nu, p, 0), float)
        np.testing.assert_array_equal(polya_aeppli_pmf(nu, p, np.arange(-2, 4)),
                                      [0.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("nu, p", [(2.0, 0.1), (0.3, 0.01), (2000.0, 0.5)])
    def test_polya_aeppli_scalar_is_the_array_element(self, nu, p):
        ns = np.arange(3001)
        table = polya_aeppli_pmf(nu, p, ns)
        for n in ns[::37].tolist() + [3000]:
            got = polya_aeppli_pmf(nu, p, n)
            assert type(got) is float and got == table[n]
        # any shape and order
        grid = ns[1:].reshape(50, 60)[::-1]
        np.testing.assert_array_equal(polya_aeppli_pmf(nu, p, grid), table[grid])

    @pytest.mark.parametrize("nu", [0.3, 2.0, 50.0, 2000.0])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9])
    def test_polya_aeppli_matches_the_log_sum(self, nu, p):
        # reference: the sum over k clusters of e^-lam lam^k / k! C(n-1, k-1)
        # p^k q^(n-k), in the log domain; O(n) a value, so n is sampled
        def log_sum(n):
            lam = nu * (1.0 - p)
            if n == 0:
                return math.exp(-lam)
            ks = np.arange(1, n + 1, dtype=float)
            logs = (-lam + ks * math.log(lam) - gammaln(ks + 1.0) + gammaln(float(n))
                    - gammaln(ks) - gammaln(n - ks + 1.0) + (n - ks) * math.log1p(-p)
                    + ks * math.log(p))
            mx = logs.max()
            return float(math.exp(mx) * np.exp(logs - mx).sum())

        ns = np.r_[0:40, 40:3000:29, 3000]
        got = polya_aeppli_pmf(nu, p, ns)
        want = np.array([log_sum(n) for n in ns])
        keep = want > 1e-300
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -math.inf, [0, 1, 2.5]],
                             ids=["half", "nan", "inf", "-inf", "array"])
    @pytest.mark.parametrize("pmf", [lambda n: polya_aeppli_pmf(2.0, 0.1, n),
                                     lambda n: negbin_pmf(2.0, 59.85, n)],
                             ids=["polya-aeppli", "negbin"])
    def test_count_pmfs_refuse_a_non_integer_n(self, pmf, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            pmf(n)

    def test_polya_aeppli_rejects_bad_p(self):
        for p in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                polya_aeppli_pmf(2.0, p, 1)

    def test_negbin_matches_scipy(self):
        nu, nbar = 2.0, 59.85
        ref = nbinom(nu, nu / (nu + nbar))
        ns = np.arange(0, 400)
        np.testing.assert_allclose(negbin_pmf(nu, nbar, ns), ref.pmf(ns), rtol=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_negbin_is_zero_below_zero(self):
        for n in (-1, -2, -3):
            assert negbin_pmf(2.0, 59.85, n) == 0.0
        ns = np.arange(-3, 4)
        out = negbin_pmf(2.0, 59.85, ns)
        np.testing.assert_array_equal(out[:3], 0.0)
        np.testing.assert_array_equal(out[3:], negbin_pmf(2.0, 59.85, np.arange(4)))

    def test_negbin_mean(self):
        ns = np.arange(0, 2000)
        p = negbin_pmf(2.0, 59.85, ns)
        assert float(np.dot(ns, p)) == pytest.approx(59.85, rel=1e-9)


class TestCovariance:
    def test_triangle_values(self):
        # (-h2/nu)(1 - s/T) with h2=-2, nu=2, T=8
        assert texture_cov(2.0, 8.0, -2.0, 0.0) == 1.0
        assert texture_cov(2.0, 8.0, -2.0, 4.0) == 0.5
        assert texture_cov(2.0, 8.0, -2.0, 8.0) == 0.0
        assert texture_cov(2.0, 8.0, -2.0, 12.0) == 0.0

    def test_vector_form(self):
        out = texture_cov(2.0, 8.0, -1.0, np.array([0.0, 2.0, 16.0]))
        np.testing.assert_allclose(out, [0.5, 0.375, 0.0])

    def test_even_in_the_lag(self):
        # the covariance of tau(t) and tau(t + s) is that of tau(t - s) and tau(t)
        assert texture_cov(2.0, 8.0, -2.0, -4.0) == texture_cov(2.0, 8.0, -2.0, 4.0) == 0.5
        s = np.array([-16.0, -8.0, -2.0, 0.0, 2.0, 8.0, 16.0])
        out = texture_cov(2.0, 8.0, -1.0, s)
        np.testing.assert_array_equal(out, out[::-1])
        np.testing.assert_array_equal(out[3:], texture_cov(2.0, 8.0, -1.0, s[3:]))


class TestTransformMoments:
    def test_exact_gamma_transform(self):
        # G(z) = (1 + z/nu)^-nu has moments 1, 1, 1 + 1/nu
        nu = 4.0
        G = LimitTransform(make_builtin_infinite(), nu)
        m0, m1, m2 = lst_moments(G)
        assert m0 == 1.0
        assert m1 == pytest.approx(1.0, abs=1e-6)
        assert m2 == pytest.approx(1.0 + 1.0 / nu, abs=1e-4)

    def test_finite_builtin_second_moment(self):
        nu = 2.0
        G = LimitTransform(make_builtin_finite(), nu)
        _, m1, m2 = lst_moments(G)
        assert m1 == pytest.approx(1.0, abs=1e-6)
        assert m2 - 1.0 == pytest.approx(2.0 / nu, abs=1e-4)  # -h2/nu


class TestGaussianLimit:
    def test_distance_shrinks_with_nu(self):
        for model in (make_builtin_finite(), make_builtin_infinite()):
            d_small = gaussian_limit_distance(model, 10.0, 5.0)
            d_large = gaussian_limit_distance(model, 1e4, 5.0)
            assert d_large < d_small
            assert d_large < 1e-3

    def test_zero_range(self):
        assert gaussian_limit_distance(make_builtin_finite(), 10.0, 0.0) == 0.0

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError, match="z_max must be nonnegative"):
            gaussian_limit_distance(make_builtin_finite(), 10.0, -1.0)
