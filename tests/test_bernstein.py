import math

import numpy as np
import pytest

from cgclutter import (
    Activity,
    BernsteinModel,
    LimitTransform,
    check_bernstein,
    fit_bernstein,
    from_lst,
    limit_transform,
    make_builtin_finite,
    make_builtin_infinite,
)
from cgclutter.bernstein import numeric_derivative

GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


class TestBuiltins:
    def test_finite_values(self):
        h = make_builtin_finite()
        assert h(0.0) == 0.0
        assert h(1.0) == 0.5
        assert h(3.0) == 0.75
        assert h.h1 == 1.0 and h.h2 == -2.0
        assert h.activity.finite and h.activity.limit == 1.0

    def test_infinite_values(self):
        h = make_builtin_infinite()
        assert h(0.0) == 0.0
        assert h(math.e - 1.0) == pytest.approx(1.0, rel=1e-15)
        assert h.h1 == 1.0 and h.h2 == -1.0
        assert not h.activity.finite

    def test_finite_derivatives_match_formula(self):
        h = make_builtin_finite()
        # h^(n)(z) = (-1)^(n+1) n! (z+1)^-(n+1)
        for n in (1, 2, 3, 5):
            for z in (0.0, 0.7, 9.0):
                want = (-1.0) ** (n + 1) * math.factorial(n) * (z + 1.0) ** (-(n + 1))
                assert h.nth_derivative(n, z) == pytest.approx(want, rel=1e-14)

    def test_infinite_derivatives_match_formula(self):
        h = make_builtin_infinite()
        for n in (1, 2, 4):
            for z in (0.0, 0.7, 9.0):
                want = (-1.0) ** (n - 1) * math.factorial(n - 1) * (1.0 + z) ** (-n)
                assert h.nth_derivative(n, z) == pytest.approx(want, rel=1e-14)

    def test_high_order_derivative_log_domain_branch(self):
        # n > 170 exceeds math.factorial's float range; the log-domain
        # formula must still produce the right (tiny) value at large z
        h = make_builtin_finite()
        from scipy.special import gammaln
        want = -math.exp(gammaln(301.0) - 301.0 * math.log(201.0))
        assert h.nth_derivative(300, 200.0) == pytest.approx(want, rel=1e-12)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            make_builtin_finite()(-0.5)

    def test_array_evaluation(self):
        h = make_builtin_finite()
        z = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(h(z), [0.0, 0.5, 0.75])


class TestNumericDerivative:
    def test_against_closed_form(self):
        # one-sided stencils at the origin are the least accurate case, so
        # the tolerance there is looser than in the interior
        fn = lambda z: np.log1p(z)
        for n in (1, 2, 3):
            for z in (0.0, 0.5, 2.0):
                want = (-1.0) ** (n - 1) * math.factorial(n - 1) * (1.0 + z) ** (-n)
                got = numeric_derivative(fn, n, z)
                tol = 1e-5 if z == 0.0 else 1e-7
                assert got == pytest.approx(want, rel=tol)

    def test_one_sided_near_origin_never_goes_negative(self):
        seen = []

        def fn(z):
            seen.append(np.min(z))
            return np.sqrt(np.maximum(z, 0.0) + 1.0)

        numeric_derivative(fn, 2, 0.0)
        assert min(seen) >= 0.0


class TestCheckBernstein:
    def test_passes_builtins(self):
        for model in (make_builtin_finite(), make_builtin_infinite()):
            report = check_bernstein(model, GRID)
            assert report.passed, str(report)

    def test_rejects_square(self):
        bad = BernsteinModel(lambda z: z ** 2, lambda n, z: {1: 2 * z, 2: 2.0}.get(n, 0.0),
                             h1=1.0, h2=0.0, activity=Activity.infinite(), name="z^2")
        report = check_bernstein(bad, GRID)
        assert not report.passed
        failed = {c.name for c in report.conditions if not c.passed}
        assert "sublinear_growth" in failed
        assert any(name.startswith("alternation") for name in failed)

    def test_rejects_identity(self):
        bad = BernsteinModel(lambda z: np.asarray(z, dtype=float),
                             lambda n, z: 1.0 if n == 1 else 0.0,
                             h1=1.0, h2=0.0, activity=Activity.infinite(), name="z")
        report = check_bernstein(bad, GRID)
        assert not report.passed
        failed = {c.name for c in report.conditions if not c.passed}
        assert failed == {"sublinear_growth"}

    def test_report_records(self):
        report = check_bernstein(make_builtin_finite(), GRID)
        recs = report.to_records()
        assert all({"condition", "passed", "margin", "location"} <= set(r) for r in recs)
        names = [r["condition"] for r in recs]
        assert "finite_activity_plateau" in names


class TestLimitTransform:
    def test_identities(self):
        G = LimitTransform(make_builtin_finite(), 2.0)
        assert G(0.0) == 1.0
        # G(z) = exp(-nu * h(z/nu)) for h1 = 1
        assert G(3.0) == pytest.approx(math.exp(-2.0 * (1.5 / 2.5)), rel=1e-14)

    def test_factory(self):
        G = limit_transform(make_builtin_infinite(), 4.0)
        # exp(-nu ln(1 + z/nu)) = (1 + z/nu)^-nu
        assert G(1.0) == pytest.approx(1.25 ** -4.0, rel=1e-14)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            LimitTransform(make_builtin_finite(), 0.0)


class TestFromLst:
    def test_recovers_rational_model(self):
        nu = 2.0
        ref = make_builtin_finite()
        G = LimitTransform(ref, nu)
        model = from_lst(G, nu)
        z = np.array([0.0, 0.3, 1.0, 5.0, 40.0])
        np.testing.assert_allclose(model(z), ref(z), rtol=1e-12, atol=1e-14)
        assert model.activity.finite
        assert model.activity.limit == pytest.approx(1.0, rel=1e-6)
        assert model.h2 == pytest.approx(-2.0, rel=1e-4)

    def test_recovers_log_model_as_infinite(self):
        nu = 3.0
        G = LimitTransform(make_builtin_infinite(), nu)
        model = from_lst(G, nu)
        assert not model.activity.finite
        assert model.h2 == pytest.approx(-1.0, rel=1e-4)
        assert check_bernstein(model, GRID).passed

    def test_rejects_unnormalized_transform(self):
        with pytest.raises(ValueError, match="G\\(0\\)"):
            from_lst(lambda z: 0.5 * np.exp(-np.asarray(z)), 1.0)

    def test_rejects_degenerate_transform(self):
        # G = e^-z is the transform of a point mass: h(z) = z is not sublinear
        with pytest.raises(ValueError, match="sublinear|vanish"):
            from_lst(lambda z: np.exp(-np.asarray(z, dtype=float)), 1.0)


class TestFitBernstein:
    W = np.logspace(-4, 6, 201)

    def test_recovers_rational_measure(self):
        # h = z/(z+1) is the unit exponential Levy density: C = h1 = 1, h2 = -2
        ref = make_builtin_finite()
        model = fit_bernstein(self.W, ref(self.W))
        assert model.family == "levy" and model.activity.finite
        off_nodes = np.logspace(-3.9, 5.9, 37)
        np.testing.assert_allclose(model(off_nodes), ref(off_nodes), rtol=1e-9)
        assert (model.activity.limit, model.h1, model.h2) == pytest.approx(
            (1.0, 1.0, -2.0), rel=1e-6)
        for n in range(1, 6):
            for z in GRID:
                assert model.nth_derivative(n, z) == pytest.approx(
                    ref.nth_derivative(n, z), rel=1e-6)
        assert check_bernstein(model, GRID).passed

    def test_fits_non_completely_monotone_density(self):
        # Levy density 4s e^(-2s): h = 1 - 4/(w+2)^2, C = h1 = 1, h2 = -3/2
        model = fit_bernstein(self.W, 1.0 - 4.0 / (self.W + 2.0) ** 2)
        assert (model.activity.limit, model.h1, model.h2) == pytest.approx(
            (1.0, 1.0, -1.5), rel=1e-6)

    def test_refuses_atomic_measure(self):
        # a unit atom at s = 1: no sum of gamma densities comes within 1e-6
        with pytest.raises(ValueError, match="relative miss"):
            fit_bernstein(self.W, -np.expm1(-self.W))

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError, match="h\\(w\\) > 0"):
            fit_bernstein(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
