import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgclutter import (
    AR1,
    CustomACF,
    SpeckleSpec,
    TexturePath,
    White,
    compose,
    gen_speckle,
)
from cgclutter import speckle
from cgclutter.speckle import CUSTOM_ACF_MAX_N


# n: (complex ACF, SHA-256s of its draw at seed 11 by the full-factor code
# before real ACFs were split), on OpenBLAS 0.3.31's x86-64 kernels, which
# round the factor differently: SkylakeX on several threads and on one,
# Haswell and Zen, Sandybridge, Nehalem, Prescott.  eigh runs at n = 64 (a
# shifted Gaussian spectrum) and Cholesky at n = 65.  The last n = 64 pin
# is SkylakeX's with numpy's AVX-512 (X86_V4) kernels off, whose exp
# rounds the ACF's lags otherwise
COMPLEX_PINS = {
    64: (np.exp(-np.arange(60) ** 2 / 50.0) * np.exp(0.3j * np.arange(60)), {
        "e95894ed768ba66ba27b22d7e7ad23d7e0ce177a2732631bf79ebedcf282f6ce",
        "fe3dce8c392af7c5de542a87bc13bfd9647f4a094611253e1ce5b160d14e9769",
        "44535e21bfaa7fa11a94c6aae8703abe40cec9c40e54269fa13b9c0988ab4e1a",
        "74b412316ccc2c65691515ffea1915efcb9fb4e2cfcb8d5cd5be0214a252b771",
        "9ce35597334a14f4e888ae07d949d573ca7182b9bd0ff8085761183691335bfc",
        "fd324ba128ea8c2175da73a783b761880ad5d075fd56c65268ccd742d27be26a",
    }),
    65: (np.array([1.0, 0.4, 0.1]) * np.exp(0.3j * np.arange(3)), {
        "cab167e973bb8131a6c37e6a17955f52a3c82700500a18c809ffe40c2e3c769a",
        "e55375f51ffaa9e6fcc21024c9224c9273307ae066a4139c3b990bf0a54de80b",
        "94d287f7b356be807b6adf73f78bfa97c2ca03f6397eb5cd36c6ef059168038d",
        "6582f09121fbec8c68299614158ad9d88eb91d852b70a1bbe6bf94642245dbee",
    }),
}


class UnitWhite:
    """A stand-in generator whose standard_normal returns the queued vectors."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, n):
        return self.draws.pop(0)


def toeplitz_cov(acf, n):
    """The n x n Toeplitz covariance C[i, j] = acf[i - j], conj(acf[j - i]) above."""
    lags = np.asarray(acf, dtype=complex)[:n]
    c = np.zeros(n, dtype=complex)
    c[: len(lags)] = lags
    d = np.subtract.outer(np.arange(n), np.arange(n))
    C = np.where(d >= 0, c[np.abs(d)], np.conj(c[np.abs(d)]))
    return C.real.copy() if not c.imag.any() else C


def full_factor(C):
    """A factor of C as gen_speckle took it for every ACF before a real one was
    split in two: Cholesky, else eigh scaled by the clipped root eigenvalues."""
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        evals, evecs = np.linalg.eigh(C)
        if evals.min() < -1e-10 * max(abs(C[0, 0]), 1.0):
            raise ValueError("custom ACF is not positive semidefinite") from None
        evecs *= np.sqrt(np.clip(evals, 0.0, None))
        return evecs


def ar1_block(rho):
    """The block length of gen_speckle's AR(1) recurrence, before it is clipped to n."""
    return max(math.ceil(16.0 / (1.0 - rho)), 64)


def ar1_white(rho, n, seed, variance=1.0):
    """The AR(1) noise w and start x0 as gen_speckle draws them, and the generator after."""
    rng = np.random.default_rng(seed)
    w = np.sqrt(variance * (1.0 - rho ** 2) / 2.0) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x0 = (np.sqrt(variance / 2.0) * (rng.standard_normal(1) + 1j * rng.standard_normal(1)))[0]
    return w, x0, rng


def ar1_lfilter(rho, n, seed, variance=1.0):
    """AR(1) speckle by scipy.signal.lfilter, and the generator after its draws."""
    from scipy.signal import lfilter

    w, x0, rng = ar1_white(rho, n, seed, variance)
    y, _ = lfilter([1.0], [1.0, -rho], w, zi=np.array([rho * x0]))
    return y, rng


def assert_ar1_is_lfilter(rho, n, seed, variance=1.0):
    rng = np.random.default_rng(seed)
    x = gen_speckle(SpeckleSpec(variance, AR1(rho)), n, rng)
    want, rng_want = ar1_lfilter(rho, n, seed, variance)
    assert x.shape == (n,)
    np.testing.assert_array_equal(x.view(np.int64), want.view(np.int64))
    assert rng.bit_generator.state == rng_want.bit_generator.state


def implied_covariance(acf, n):
    """Cov(Re x), Cov(Im x) and Cov(Re x, Im x) of gen_speckle's linear map
    from the standard normals it draws, driven by each unit vector in turn."""
    spec = SpeckleSpec(correlation=CustomACF(tuple(acf)))
    zero, xs = np.zeros(n), []
    for unit in np.eye(n):
        xs.append(gen_speckle(spec, n, UnitWhite(unit, zero)))
        xs.append(gen_speckle(spec, n, UnitWhite(zero, unit)))
    X = np.array(xs).T
    return X.real @ X.real.T, X.imag @ X.imag.T, X.real @ X.imag.T


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

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("length", ["1", "2", "B-1", "B", "B+1", "1e5+1"])
    def test_ar1_is_lfilter_bit_for_bit(self, rho, length):
        # one block, a block and a step, and many blocks with a short last one
        B = ar1_block(rho)
        n = {"1": 1, "2": 2, "B-1": B - 1, "B": B, "B+1": B + 1, "1e5+1": 100_001}[length]
        for seed in (0, 1, 2):
            assert_ar1_is_lfilter(rho, n, seed)

    @settings(max_examples=40, deadline=None)
    @given(rho=st.floats(0.0, 0.999), n=st.integers(1, 3000),
           seed=st.integers(0, 2**32 - 1), variance=st.floats(1e-3, 1e3))
    def test_ar1_is_lfilter_on_random_inputs(self, rho, n, seed, variance):
        assert_ar1_is_lfilter(rho, n, seed, variance)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9])
    def test_ar1_is_the_python_loop(self, rho):
        # y = w + rho * y on floats, one rounding for the product and one for the sum
        n = 2 * ar1_block(rho) + 3
        w, x0, _ = ar1_white(rho, n, 9)
        want = []
        for part, y in ((w.real, x0.real), (w.imag, x0.imag)):
            y, col = float(y), []
            for v in part.tolist():
                y = v + rho * y
                col.append(y)
            want.append(col)
        x = gen_speckle(SpeckleSpec(correlation=AR1(rho)), n, np.random.default_rng(9))
        np.testing.assert_array_equal(x.real.view(np.int64), np.array(want[0]).view(np.int64))
        np.testing.assert_array_equal(x.imag.view(np.int64), np.array(want[1]).view(np.int64))

    @pytest.mark.parametrize("rho", [0.3, 0.9, 0.99])
    def test_ar1_does_not_depend_on_the_predicted_starts(self, rho, monkeypatch):
        # with every block but the first predicted to start at 0, the reruns
        # have to carry each block's end into the next, several rounds deep
        def zero_starts(wf, x0, _rho):
            starts = np.zeros(wf.shape[1])
            starts[:2] = x0.real, x0.imag
            return starts

        monkeypatch.setattr(speckle, "_ar1_starts", zero_starts)
        assert_ar1_is_lfilter(rho, 30 * ar1_block(rho) + 7, 4)

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
        # Toeplitz matrix, so the complex path sees the same eigenvalues; a
        # real ACF at odd n splits into blocks with the middle row
        for acf in (real, real * np.exp(0.3j * np.arange(3))):
            for n in (16, 17):
                with pytest.raises(ValueError, match="positive semidefinite"):
                    gen_speckle(SpeckleSpec(correlation=CustomACF(tuple(acf))), n,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65])
    @pytest.mark.parametrize("acf", [(1.0, 0.6, 0.2), tuple(np.exp(-np.arange(64) ** 2 / 128.0))],
                             ids=["definite", "singular"])
    def test_custom_acf_real_split_reproduces_the_covariance(self, acf, n):
        # the two half-size factors give C exactly: C/2 in each part, no cross term
        C = toeplitz_cov(acf, n)
        re, im, cross = implied_covariance(acf, n)
        np.testing.assert_allclose(re, C / 2, rtol=0, atol=1e-12 * acf[0])
        np.testing.assert_allclose(im, C / 2, rtol=0, atol=1e-12 * acf[0])
        np.testing.assert_array_equal(cross, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1),
           tones=st.integers(1, 6), nugget=st.sampled_from([0.0, 1e-3, 0.5]))
    def test_custom_acf_real_split_matches_the_full_factor(self, n, seed, tones, nugget):
        # a nonnegative spectrum of a few tones is positive semidefinite at
        # every n, and singular past 2 * tones lags unless a nugget is added
        rng = np.random.default_rng(seed)
        freq, weight = rng.uniform(0.0, np.pi, tones), rng.exponential(size=tones)
        acf = np.cos(np.outer(np.arange(n), freq)) @ weight
        acf[0] += nugget
        C = toeplitz_cov(acf, n)
        L = full_factor(C)
        re, im, cross = implied_covariance(acf, n)
        tol = 1e-13 * n * acf[0]
        np.testing.assert_allclose(L @ L.T, C, rtol=0, atol=tol)
        np.testing.assert_allclose(2 * re, L @ L.T, rtol=0, atol=tol)
        np.testing.assert_allclose(2 * im, L @ L.T, rtol=0, atol=tol)
        np.testing.assert_array_equal(cross, 0.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 65])
    def test_custom_acf_real_of_exactly_n_lags(self, n):
        # one tone's ACF cut at n lags is positive semidefinite at n, but not
        # at n + 1 with lag n zero: a draw of length n must not look past it
        acf = np.cos(0.3 * np.arange(n))
        re, im, cross = implied_covariance(acf, n)
        np.testing.assert_allclose(2 * re, toeplitz_cov(acf, n), rtol=0, atol=1e-12 * n)
        np.testing.assert_allclose(2 * im, toeplitz_cov(acf, n), rtol=0, atol=1e-12 * n)
        np.testing.assert_array_equal(cross, 0.0)

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

    @pytest.mark.parametrize("n", sorted(COMPLEX_PINS))
    def test_custom_acf_complex_draws_are_unchanged(self, n):
        # a complex ACF keeps the full factor: the same bytes as that factor
        # times the same white vector, and one of the pinned draws
        acf, pins = COMPLEX_PINS[n]
        x = gen_speckle(SpeckleSpec(correlation=CustomACF(tuple(acf))), n,
                        np.random.default_rng(11))
        rng = np.random.default_rng(11)
        want = full_factor(toeplitz_cov(acf, n)) @ (
            np.sqrt(0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        assert x.tobytes() == want.tobytes()
        digest = hashlib.sha256(x.tobytes()).hexdigest()
        if digest not in pins:
            pytest.skip(f"no pin for this BLAS's rounding of the full factor ({digest[:12]})")

    @pytest.mark.parametrize("acf", [(), (1 + 0.5j, 0.3), (0.0, 0.1), (-1.0,),
                                     (float("nan"),)])
    def test_custom_acf_rejects_bad_lag0(self, acf):
        with pytest.raises(ValueError, match="lag 0"):
            CustomACF(acf)

    @pytest.mark.parametrize("lag1", [float("nan"), float("inf"), complex(0.0, float("nan"))],
                             ids=["nan", "inf", "complex-nan"])
    def test_custom_acf_rejects_a_non_finite_lag(self, lag1):
        with pytest.raises(ValueError, match="lag 1 is not finite"):
            CustomACF((1.0, lag1, 0.2))

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

    @pytest.mark.parametrize("corr", [0.9, None, "ar1", AR1], ids=["float", "None", "str", "class"])
    def test_spec_rejects_a_correlation_of_another_type(self, corr):
        with pytest.raises(ValueError, match=f"got {type(corr).__name__}"):
            SpeckleSpec(correlation=corr)

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
