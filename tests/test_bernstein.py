import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgclutter import (
    BernsteinModel,
    LimitTransform,
    fit_bernstein,
    from_lst,
    make_builtin_finite,
    make_builtin_infinite,
)
from cgclutter.bernstein import FIT_NODES, FIT_SHAPES, fit_transform, levy_log_moments
from cgclutter.cli import _load_lst_table


class TestBuiltins:
    def test_finite_values(self):
        h = make_builtin_finite()
        assert h(0.0) == 0.0
        assert h(1.0) == 0.5
        assert h(3.0) == 0.75
        assert h.h1 == 1.0 and h.h2 == -2.0
        assert h.C == 1.0

    def test_infinite_values(self):
        h = make_builtin_infinite()
        assert h(0.0) == 0.0
        assert h(math.e - 1.0) == pytest.approx(1.0, rel=1e-15)
        assert h.h1 == 1.0 and h.h2 == -1.0
        assert h.C == math.inf

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            make_builtin_finite()(-0.5)

    @pytest.mark.parametrize("C", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_mass(self, C):
        with pytest.raises(ValueError, match="Levy mass"):
            BernsteinModel(np.log1p, h1=1.0, h2=-1.0, C=C)

    @pytest.mark.parametrize("h1, h2, message", [
        (0.0, -1.0, "h'\\(0\\)"), (-1.0, -1.0, "h'\\(0\\)"), (math.nan, -1.0, "h'\\(0\\)"),
        (1.0, 0.5, "h''\\(0\\)"),
    ])
    def test_rejects_bad_derivatives(self, h1, h2, message):
        with pytest.raises(ValueError, match=message):
            BernsteinModel(np.log1p, h1=h1, h2=h2)

    def test_array_evaluation(self):
        h = make_builtin_finite()
        z = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(h(z), [0.0, 0.5, 0.75])

    def test_family_is_not_a_constructor_argument(self):
        # a model of a bare fn must not borrow a builtin's closed forms
        with pytest.raises(TypeError):
            BernsteinModel(np.log1p, h1=1.0, h2=-1.0, family="rational")


class TestCheckBernstein:
    """A bare h is checked by fitting it: a nonnegative Levy measure within
    a relative miss of 1e-6 on FIT_NODES, or a ValueError."""

    def test_passes_builtins(self):
        for ref in (make_builtin_finite(), make_builtin_infinite()):
            model = fit_bernstein(FIT_NODES, ref(FIT_NODES))
            assert model.family == "levy" and np.all(model.measure[0] > 0)

    def test_rejects_square(self):
        with pytest.raises(ValueError, match="relative miss 1 exceeds"):
            fit_bernstein(FIT_NODES, FIT_NODES ** 2)

    def test_rejects_identity(self):
        # linear growth: the miss is the same 0.049 as G = e^-z's below
        with pytest.raises(ValueError, match="relative miss 0.049"):
            fit_bernstein(FIT_NODES, FIT_NODES)


class TestLimitTransform:
    def test_identities(self):
        G = LimitTransform(make_builtin_finite(), 2.0)
        assert G(0.0) == 1.0
        # G(z) = exp(-nu * h(z/nu)) for h1 = 1
        assert G(3.0) == pytest.approx(math.exp(-2.0 * (1.5 / 2.5)), rel=1e-14)

    def test_factory(self):
        G = LimitTransform(make_builtin_infinite(), 4.0)
        # exp(-nu ln(1 + z/nu)) = (1 + z/nu)^-nu
        assert G(1.0) == pytest.approx(1.25 ** -4.0, rel=1e-14)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            LimitTransform(make_builtin_finite(), 0.0)

    @pytest.mark.parametrize("nu", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_nonfinite_nu(self, nu):
        # an infinite nu would give G(z) = NaN for every z
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            LimitTransform(make_builtin_finite(), nu)


class TestFromLst:
    def test_recovers_rational_model(self):
        nu = 2.0
        ref = make_builtin_finite()
        G = LimitTransform(ref, nu)
        model = from_lst(G, nu)
        z = np.array([0.0, 0.3, 1.0, 5.0, 40.0])
        np.testing.assert_allclose(model(z), ref(z), rtol=1e-12, atol=1e-14)
        assert model.C == pytest.approx(1.0, rel=1e-6)
        assert model.h2 == pytest.approx(-2.0, rel=1e-4)

    def test_recovers_log_model_as_infinite(self):
        # ln(1+z) has infinite activity; its fit is a compound Poisson whose
        # smallest jumps are cut, so C is finite while h1 and h2 hold
        nu = 3.0
        G = LimitTransform(make_builtin_infinite(), nu)
        model = from_lst(G, nu)
        assert model.family == "levy"
        assert math.isfinite(model.C)
        assert (model.h1, model.h2) == pytest.approx((1.0, -1.0), rel=1e-6)

    def test_fits_large_nu(self):
        # G(nu * 1e6) underflows to 0 here: those nodes are dropped, not refused
        nu = 60.0
        model = from_lst(LimitTransform(make_builtin_infinite(), nu), nu)
        assert model.h2 == pytest.approx(-1.0, rel=1e-6)

    def test_matches_table_fit_bit_for_bit(self, tmp_path):
        # the same samples of G, from the callable or read back from a
        # %.17g table, give the same Levy measure
        nu = 2.0
        G = LimitTransform(make_builtin_finite(), nu)
        z = nu * np.concatenate([[0.0], FIT_NODES])
        table = tmp_path / "lst.csv"
        table.write_text("".join(f"{zi:.17g},{gi:.17g}\n" for zi, gi in zip(z, G(z))))
        for a, b in zip(from_lst(G, nu).measure, _load_lst_table(table, nu).measure):
            assert np.array_equal(a, b)

    def test_rejects_unnormalized_transform(self):
        with pytest.raises(ValueError, match="G\\(0\\)"):
            from_lst(lambda z: 0.5 * np.exp(-np.asarray(z)), 1.0)

    @pytest.mark.parametrize("resize", [lambda g: g[:-5], lambda g: np.r_[g, 0.5]],
                             ids=["g-short", "g-long"])
    def test_rejects_columns_of_unequal_length(self, resize):
        nu = 2.0
        z = nu * np.concatenate([[0.0], FIT_NODES])
        g = resize(LimitTransform(make_builtin_finite(), nu)(z))
        with pytest.raises(ValueError, match=f"202 z against {len(g)} G"):
            fit_transform(z, g, nu)

    def test_rejects_degenerate_transform(self):
        # G = e^-z is the transform of a point mass: h(z) = z is linear, and
        # no Levy measure comes within 1e-6 of it (the miss is 0.048)
        with pytest.raises(ValueError, match="relative miss 0.048"):
            from_lst(lambda z: np.exp(-np.asarray(z, dtype=float)), 1.0)


class TestFitBernstein:
    W = np.logspace(-4, 6, 201)

    def test_recovers_rational_measure(self):
        # h = z/(z+1) is the unit exponential Levy density: C = h1 = 1, h2 = -2
        ref = make_builtin_finite()
        model = fit_bernstein(self.W, ref(self.W))
        assert model.family == "levy" and math.isfinite(model.C)
        off_nodes = np.logspace(-3.9, 5.9, 37)
        np.testing.assert_allclose(model(off_nodes), ref(off_nodes), rtol=1e-9)
        assert (model.C, model.h1, model.h2) == pytest.approx(
            (1.0, 1.0, -2.0), rel=1e-6)
        # |h^(n)(z)| = n! (1+z)^-(n+1)
        ns, zs = np.arange(1, 6), (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
        got = np.exp([levy_log_moments(model.measure, ns, z) for z in zs])
        want = [[math.factorial(n) * (1.0 + z) ** -(n + 1.0) for n in ns] for z in zs]
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_fits_non_completely_monotone_density(self):
        # Levy density 4s e^(-2s): h = 1 - 4/(w+2)^2, C = h1 = 1, h2 = -3/2
        model = fit_bernstein(self.W, 1.0 - 4.0 / (self.W + 2.0) ** 2)
        assert (model.C, model.h1, model.h2) == pytest.approx(
            (1.0, 1.0, -1.5), rel=1e-6)

    def test_refuses_atomic_measure(self):
        # a unit atom at s = 1: no sum of gamma densities comes within 1e-6
        with pytest.raises(ValueError, match="relative miss"):
            fit_bernstein(self.W, -np.expm1(-self.W))

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError, match="h\\(w\\) > 0"):
            fit_bernstein(np.array([0.0, 1.0]), np.array([0.0, 0.5]))

    def test_nnls_failure_is_a_value_error(self, monkeypatch):
        import scipy.optimize

        def nnls(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", nnls)
        with pytest.raises(ValueError, match="did not converge: Maximum number"):
            fit_bernstein(self.W, make_builtin_finite()(self.W))


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(st.floats(1e-3, 1e3), st.sampled_from(FIT_SHAPES),
                                st.floats(1e-3, 1e3)), min_size=1, max_size=6),
       ns=st.lists(st.integers(0, 30), min_size=1, max_size=8),
       z=st.floats(0.0, 1e3))
def test_levy_log_moments_matches_term_by_term_sum(parts, ns, z):
    # int s^n e^(-zs) Pi(ds) = sum_j c_j Gamma(k_j+n)/Gamma(k_j) theta_j^n
    # (1 + z theta_j)^-(k_j+n), theta_j = x_j / k_j, summed in plain floats
    c, k, x = (np.array(a) for a in zip(*parts))
    got = np.exp(levy_log_moments((c, k, x), ns, z))
    want = [sum(cj * math.gamma(kj + n) / math.gamma(kj) * (xj / kj) ** n
                * (1.0 + z * xj / kj) ** -(kj + n) for cj, kj, xj in parts) for n in ns]
    np.testing.assert_allclose(got, want, rtol=1e-11)
