import json
import tracemalloc

import numpy as np
import pytest

from cgclutter import (
    AR1,
    CustomACF,
    SpeckleSpec,
    TexturePath,
    White,
    compose,
    gen_speckle,
)
from cgclutter.speckle import CUSTOM_ACF_MAX_N


class TestGenSpeckle:
    def test_white_moments(self):
        rng = np.random.default_rng(0)
        x = gen_speckle(SpeckleSpec(variance=2.0), 200_000, rng)
        assert np.abs(x.mean()) < 0.02
        assert np.mean(np.abs(x) ** 2) == pytest.approx(2.0, rel=0.02)
        # circularity: E[x^2] = 0
        assert np.abs(np.mean(x ** 2)) < 0.02

    def test_ar1_autocorrelation(self):
        rho = 0.8
        rng = np.random.default_rng(1)
        x = gen_speckle(SpeckleSpec(correlation=AR1(rho)), 400_000, rng)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.02)
        for k in (1, 2, 5):
            r = np.mean(x[k:] * np.conj(x[:-k])).real
            assert r == pytest.approx(rho ** k, abs=0.02)

    def test_ar1_stationary_start(self):
        # the first sample must already carry the stationary variance
        rho = 0.95
        draws = []
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            draws.append(gen_speckle(SpeckleSpec(correlation=AR1(rho)), 2, rng)[0])
        v = np.mean(np.abs(draws) ** 2)
        assert v == pytest.approx(1.0, rel=0.1)

    def test_ar1_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            AR1(1.0)
        with pytest.raises(ValueError):
            AR1(-0.1)

    def test_custom_acf_covariance(self):
        acf = (1.0, 0.6, 0.2)
        rng = np.random.default_rng(4)
        n = 64
        reps = 4000
        xs = np.array([gen_speckle(SpeckleSpec(correlation=CustomACF(acf)), n, rng)
                       for _ in range(reps)])
        for k, want in enumerate(acf):
            got = np.mean(xs[:, k:] * np.conj(xs[:, : n - k])).real
            assert got == pytest.approx(want, abs=0.03)

    def test_custom_acf_rejects_indefinite(self):
        real = np.array([1.0, 0.9, -0.9])
        # modulated by e^{0.3ik}: a unitary similarity of the indefinite real
        # Toeplitz matrix, so the complex path sees the same eigenvalues
        for acf in (real, real * np.exp(0.3j * np.arange(3))):
            with pytest.raises(ValueError, match="positive semidefinite"):
                gen_speckle(SpeckleSpec(correlation=CustomACF(tuple(acf))), 16,
                            np.random.default_rng(0))

    def test_custom_acf_real_matches_zero_imaginary(self):
        # lags with zero imaginary parts take the real path whatever their type
        acf = np.exp(-np.arange(64) ** 2 / 128.0)  # Cholesky fails: eigh runs
        draws = [gen_speckle(SpeckleSpec(correlation=CustomACF(tuple(a))), 64,
                             np.random.default_rng(7))
                 for a in (acf, acf.astype(complex))]
        np.testing.assert_array_equal(draws[0], draws[1])

    def test_custom_acf_real_is_circular(self):
        acf = 2.0 * np.exp(-np.arange(64) ** 2 / 128.0)
        rng = np.random.default_rng(8)
        xs = np.array([gen_speckle(SpeckleSpec(correlation=CustomACF(tuple(acf))), 64, rng)
                       for _ in range(4000)])
        # about 5 standard errors of the pooled means over the correlated series
        assert np.mean(xs.real ** 2) == pytest.approx(acf[0] / 2, abs=0.06)
        assert np.mean(xs.imag ** 2) == pytest.approx(acf[0] / 2, abs=0.06)
        assert abs(np.mean(xs.real * xs.imag)) < 0.06

    def test_custom_acf_complex_covariance(self):
        # Hermitian ACF of an asymmetric (shifted Gaussian) Doppler spectrum
        k = np.arange(60)
        acf = np.exp(-k ** 2 / 50.0) * np.exp(0.3j * k)
        rng = np.random.default_rng(5)
        n = 64
        xs = np.array([gen_speckle(SpeckleSpec(correlation=CustomACF(tuple(acf))), n, rng)
                       for _ in range(2000)])
        for lag in (0, 1, 3, 7):
            got = np.mean(xs[:, lag:] * np.conj(xs[:, : n - lag]))
            # each part within about 5 standard errors of the pooled mean
            assert got.real == pytest.approx(acf[lag].real, abs=0.04)
            assert got.imag == pytest.approx(acf[lag].imag, abs=0.04)

    @pytest.mark.parametrize("acf", [(), (1 + 0.5j, 0.3), (0.0, 0.1), (-1.0,),
                                     (float("nan"),)])
    def test_custom_acf_rejects_bad_lag0(self, acf):
        with pytest.raises(ValueError, match="lag 0"):
            CustomACF(acf)

    def test_custom_acf_refuses_n_past_max_before_allocating(self):
        spec = SpeckleSpec(correlation=CustomACF((1.0, 0.5)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n <= {CUSTOM_ACF_MAX_N}"):
                gen_speckle(spec, CUSTOM_ACF_MAX_N + 1, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the n x n covariance would take 537 MB

    def test_guards(self):
        with pytest.raises(ValueError):
            gen_speckle(SpeckleSpec(), 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            SpeckleSpec(variance=0.0)

    @pytest.mark.parametrize("dt", [0.0, np.inf, np.nan], ids=["0", "inf", "nan"])
    def test_spec_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            SpeckleSpec(dt=dt)


class TestCompose:
    def test_identity_on_flat_texture(self):
        path = TexturePath(np.array([0.0]), np.array([4.0]), 10.0)
        rng = np.random.default_rng(2)
        x = gen_speckle(SpeckleSpec(), 11, rng)
        series = compose(path, x, 1.0)
        np.testing.assert_allclose(series.z, 2.0 * x)
        np.testing.assert_array_equal(series.tau, 4.0)
        np.testing.assert_allclose(series.t, np.arange(11.0))

    def test_zero_texture_kills_speckle(self):
        path = TexturePath(np.array([0.0, 5.0]), np.array([0.0, 1.0]), 10.0)
        rng = np.random.default_rng(2)
        series = compose(path, gen_speckle(SpeckleSpec(), 11, rng), 1.0)
        assert np.all(series.z[:5] == 0.0)
        assert np.all(series.z[5:] != 0.0)

    def test_length_mismatch_rejected(self):
        path = TexturePath(np.array([0.0]), np.array([1.0]), 10.0)
        with pytest.raises(ValueError, match="expected 11"):
            compose(path, np.ones(5, dtype=complex), 1.0)

    def test_export_csv(self, tmp_path):
        path = TexturePath(np.array([0.0]), np.array([1.0]), 2.0)
        series = compose(path, np.array([1 + 2j, 3 + 0j, 0 + 1j]), 1.0)
        f = tmp_path / "c.csv"
        series.export_csv(f)
        lines = f.read_bytes().split(b"\n")
        assert lines[0] == b"t,re,im,tau"
        assert lines[1] == b"0,1,2,1"


@pytest.mark.parametrize("acf", [(1.0, 0.5), (1.0, 0.5 + 0.1j)], ids=["real", "complex"])
def test_custom_acf_spec_json_roundtrip(acf):
    spec = SpeckleSpec(correlation=CustomACF(acf))
    d = json.loads(json.dumps(spec.to_dict()))
    assert d == spec.to_dict()
    assert tuple(complex(*lag) for lag in d["correlation"]["acf"]) == acf
