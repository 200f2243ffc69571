"""End-to-end acceptance suite.

Each test exercises one stated requirement at its stated tolerance and
prints a single PASS/FAIL line on the terminal (bypassing capture) so a
full run gives an at-a-glance scoreboard.  Statistical criteria use fixed
seeds; tolerances include the Monte Carlo noise floor at the mandated
sample sizes.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cgclutter import (
    MixingLaw,
    SimConfig,
    gamma_texture_law,
    k_texture_law,
    make_builtin_finite,
    make_builtin_infinite,
    negbin_pmf,
    polya_aeppli_pmf,
    sample_on_grid,
    simulate,
    summarize,
    total_variation,
)
from cgclutter.bernstein import FIT_NODES, fit_bernstein
from cgclutter.cli import main as cli_main
from cgclutter.validation import (covariance_checks, gaussian_limit_checks, marginal_checks,
                                  mixing_checks, moment_checks)


@pytest.fixture
def announce(capfd):
    def _announce(number, ok, text):
        with capfd.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"acceptance {number:2d}: {status} — {text}")
    return _announce


@pytest.fixture(scope="module")
def finite_run():
    # finite builtin at nu=2: gamma=0.25, T=8, 1e5 time units on a 0.1 grid
    cfg = SimConfig(gamma=0.25, window=8.0, duration=1e5, dt=0.1, seed=20260823)
    path = simulate(make_builtin_finite(), cfg)
    return cfg, sample_on_grid(path, cfg.dt)


@pytest.fixture(scope="module")
def infinite_run():
    cfg = SimConfig(gamma=0.25, window=8.0, duration=1e5, dt=0.1, seed=20260824,
                    mode="infinite-approx", kappa=150.0)
    path = simulate(make_builtin_infinite(), cfg)
    return cfg, sample_on_grid(path, cfg.dt)


def _count_snapshots(model, kappa, n_snapshots, spacing, seed, chunks=10):
    """Window counts at snapshot times spaced > T, simulated in chunks."""
    per = n_snapshots // chunks
    duration = per * spacing
    out = []
    for i in range(chunks):
        cfg = SimConfig(gamma=0.25, window=8.0, duration=duration, dt=0.1,
                        seed=0, mode="discrete-windowed", kappa=kappa)
        rng = np.random.default_rng([seed, i])
        path = simulate(model, cfg, rng)
        t = spacing * np.arange(1, per + 1)
        idx = np.searchsorted(path.change_times, t, side="right") - 1
        out.append(path.values[idx].astype(np.int64))
    return np.concatenate(out)


def _tv_table(freq, p):
    """total_variation for arrays: bins up to the largest outcome seen, the
    analytic mass beyond it unmatched."""
    hi = int(np.flatnonzero(freq)[-1]) + 1
    return 0.5 * (np.abs(freq[:hi] - p[:hi]).sum() + max(0.0, 1.0 - p[:hi].sum()))


def _exact_tv_floor(p, n, draws, seed):
    """Mean and sd of the TV over `draws` exact samples of size n from table p.

    The mass the table leaves out is one more multinomial cell, so a draw
    landing there is unmatched, as total_variation counts it.
    """
    rng = np.random.default_rng(seed)
    cells = np.append(p, max(0.0, 1.0 - p.sum()))
    tvs = [_tv_table(rng.multinomial(n, cells)[:-1] / n, p) for _ in range(draws)]
    return float(np.mean(tvs)), float(np.std(tvs, ddof=1))


def test_01_finite_variance(finite_run, announce):
    # Var tau = -h2/nu = 1 for the finite builtin at nu=2
    _, tau = finite_run
    var = summarize(tau, 0.1, 0.0).variance
    ok = 0.95 <= var <= 1.05
    announce(1, ok, f"finite-activity texture variance {var:.4f} in [0.95, 1.05]")
    assert ok


def test_02_zero_atom(announce):
    # at nu=0.75 the marginal has mass e^-0.75 at exactly zero
    cfg = SimConfig(gamma=0.25, window=3.0, duration=1e5, dt=0.1, seed=41)
    path = simulate(make_builtin_finite(), cfg)
    frac = summarize(sample_on_grid(path, cfg.dt), 0.1, 0.0).zero_fraction
    want = math.exp(-0.75)
    ok = abs(frac - want) <= 0.01
    announce(2, ok, f"zero-atom fraction {frac:.4f} within 0.01 of {want:.4f}")
    assert ok


def test_03_k_texture_marginal(finite_run, announce):
    cfg, tau = finite_run
    law = k_texture_law(cfg.nu)
    mass, _ = quad(law.pdf, 0.0, np.inf, limit=400)
    norm_ok = abs(law.atom_at_zero + mass - 1.0) < 1e-6
    mean, _ = quad(lambda t: t * law.pdf(t), 0.0, np.inf, limit=400)
    mean_ok = abs(mean - 1.0) < 1e-6
    (ks,) = marginal_checks(tau, law, cfg)  # thinned to lag 8.1 > T
    ok = norm_ok and mean_ok and ks.ok
    announce(3, ok, f"K-texture KS {ks.measured:.4f} <= 0.02; law normalization/mean "
                    f"within 1e-6 ({norm_ok}/{mean_ok})")
    assert ok


def test_04_gamma_marginal(infinite_run, announce):
    cfg, tau = infinite_run
    (ks,) = marginal_checks(tau, gamma_texture_law(cfg.nu), cfg)
    var = summarize(tau, cfg.dt, 0.0).variance
    ok = ks.ok and abs(var - 0.5) <= 0.05
    announce(4, ok, f"gamma KS {ks.measured:.4f} <= 0.02; variance {var:.4f} within 10% of 0.5")
    assert ok


@pytest.mark.parametrize("which", ["finite", "infinite"])
def test_05_covariance_triangle(which, finite_run, infinite_run, announce):
    cfg, tau = finite_run if which == "finite" else infinite_run
    model = make_builtin_finite() if which == "finite" else make_builtin_infinite()
    # lags 0..3T/4 within a tenth of the variance; lag 1.5T, where the true
    # covariance vanishes, within 3 Bartlett standard errors
    *triangle, tail = covariance_checks(tau, model, cfg)
    worst = max(abs(r.measured - r.expected) for r in triangle)
    ok = all(r.ok for r in triangle) and tail.ok
    announce(5, ok, f"{which} covariance triangle worst dev {worst:.4f} <= "
                    f"{triangle[0].tol:.3f}; lag-1.5T {abs(tail.measured):.4f} <= "
                    f"3se={tail.tol:.4f}")
    assert ok


def test_06_count_marginal_polya_aeppli(announce):
    counts = _count_snapshots(make_builtin_finite(), 9.0, 1_000_000, 8.1, 601)
    freq = np.bincount(counts) / len(counts)
    emp = {n: f for n, f in enumerate(freq)}
    tv = total_variation(emp, lambda n: polya_aeppli_pmf(2.0, 0.1, n))
    ok = tv < 0.01
    announce(6, ok, f"Polya-Aeppli count TV {tv:.5f} < 0.01 at 1e6 snapshots")
    assert ok


def test_06_count_marginal_negbin(announce):
    counts = _count_snapshots(make_builtin_infinite(), 150.0, 1_000_000, 8.1, 602)
    freq = np.bincount(counts) / len(counts)
    emp = {n: f for n, f in enumerate(freq)}
    nbar = 2.0 * 150.0  # nu * kappa
    tv = total_variation(emp, lambda n: negbin_pmf(2.0, nbar, n))
    # No simulator can meet the stated TV < 0.01 here. Even exact multinomial
    # samples of 1e6 counts from NB(2, 300), whose mass is spread over about
    # 5,000 bins, give E[TV] = 0.0122 with sd 0.0003 (5,000 draws; the
    # half-normal sum of per-bin binomial errors sum sqrt(p(1-p)/(2 pi n))
    # gives 0.01226), and none of those 5,000 draws came below 0.01. So the
    # bound is that floor, taken from the law itself at the same n: mean +
    # 4 sd of 200 exact draws at a fixed seed, about 0.0134 (0.0133-0.0136
    # over floor seeds 1-20). A correct sampler crosses it less than once in
    # 5,000 runs: the largest of the 5,000 exact draws was 0.0134. Seed 602
    # reads 0.01314, +3 sd, which 0.2-0.3 % of exact draws reach. The bound
    # still rejects a slightly wrong law: in 400 exact draws each, NB(2, 294)
    # (nbar off by 2 %) and NB(1.94, 300) (nu off by 3 %) always exceeded it,
    # NB(2, 297) (1 % off) 16-22 % of the time. The same counts scored
    # against the first two must exceed it.
    p = negbin_pmf(2.0, nbar, np.arange(8192))  # leaves out < 1e-13 of the mass
    same_tv = abs(_tv_table(freq, p) - tv) < 1e-12
    floor, sd = _exact_tv_floor(p, len(counts), draws=200, seed=20261018)
    bound = floor + 4.0 * sd
    wrong = [total_variation(emp, lambda n: negbin_pmf(nu, nb, n))
             for nu, nb in ((2.0, 294.0), (1.94, 300.0))]
    ok = same_tv and tv <= bound and min(wrong) > bound
    announce(6, ok, f"negative binomial count TV {tv:.5f} <= exact-sampling floor "
                    f"{floor:.5f} + 4 sd = {bound:.5f} at 1e6 snapshots (the stated "
                    f"0.01 lies below the floor); NB(2,294) {wrong[0]:.5f} and "
                    f"NB(1.94,300) {wrong[1]:.5f} exceed it")
    assert ok


def test_07_mixing_consistency(announce):
    ok = True
    for model, kappa in ((make_builtin_finite(), 9.0), (make_builtin_infinite(), 150.0)):
        ok &= all(r.ok for r in mixing_checks(model, kappa, seed=7))
    n = np.arange(1, 51)
    law = MixingLaw(make_builtin_finite(), 9.0)
    worst_g = np.max(np.abs(law.pmf(n) - 0.1 * 0.9 ** (n - 1)))
    law = MixingLaw(make_builtin_infinite(), 1.0)
    worst_l = np.max(np.abs(law.pmf(n) + 0.5 ** n / (n * math.log(0.5))))
    ok &= worst_g < 1e-12 and worst_l < 1e-12
    announce(7, ok, f"mixing PGF/PMF and sampler mean consistent; closed-form dev "
                    f"geom {worst_g:.1e}, log {worst_l:.1e} < 1e-12")
    assert ok


def test_08_gaussian_limit(announce):
    # sup|G - e^-z| on [0, 5] at nu = 1e4
    sups = [r for m in (make_builtin_finite(), make_builtin_infinite())
            for r in gaussian_limit_checks(m)]
    sup_ok = all(r.ok for r in sups)
    # composed clutter at nu=1e3: excess kurtosis of Re z is 6/nu + noise
    cfg = SimConfig(gamma=1.0, window=1000.0, duration=1e6 - 1, dt=1.0, seed=83)
    tau = sample_on_grid(simulate(make_builtin_finite(), cfg), cfg.dt)
    rng = np.random.default_rng(84)
    re_z = np.sqrt(tau) * rng.standard_normal(len(tau)) * math.sqrt(0.5)
    m2 = np.mean(re_z ** 2)
    kurt = np.mean(re_z ** 4) / m2 ** 2 - 3.0
    kurt_ok = abs(kurt) < 0.1
    ok = sup_ok and kurt_ok
    announce(8, ok, f"sup|G-e^-z| {max(r.measured for r in sups):.1e} <= 1e-3; "
                    f"excess kurtosis {kurt:.4f} < 0.1 at n=1e6")
    assert ok


def test_09_transform_moments(announce):
    ok = True
    worst = 0.0
    for model, nu in ((make_builtin_finite(), 2.0), (make_builtin_infinite(), 2.0)):
        g0, first, excess = moment_checks(model, nu)
        ok &= g0.ok and first.ok and excess.ok
        worst = max(worst, abs(excess.measured - excess.expected))
    announce(9, ok, f"G(0)=1 exact, -G'(0)=1 within 1e-6, second-moment "
                    f"identity dev {worst:.1e} <= 1e-4")
    assert ok


def test_10_bernstein_validation(announce):
    # an h is checked by fitting a nonnegative Levy measure to it on
    # FIT_NODES: a relative miss above 1e-6 is refused
    def passes(h):
        try:
            fit_bernstein(FIT_NODES, h(FIT_NODES))
        except ValueError as exc:
            assert "relative miss" in str(exc)
            return False
        return True

    ok_f = passes(make_builtin_finite())
    ok_i = passes(make_builtin_infinite())
    rej_sq = not passes(np.square)
    rej_id = not passes(lambda z: z)
    ok = ok_f and ok_i and rej_sq and rej_id
    announce(10, ok, f"builtins accepted ({ok_f}/{ok_i}); z^2 and z rejected "
                     f"({rej_sq}/{rej_id})")
    assert ok


def test_11_determinism(tmp_path, announce):
    args = ["simulate", "--model", "finite-k", "--gamma", "0.25", "--T", "8",
            "--duration", "3000", "--dt", "0.1", "--seed", "17",
            "--events", "--clutter"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    same = all((a / f).read_bytes() == (b / f).read_bytes()
               for f in ("texture.csv", "events.csv", "clutter.csv"))
    announce(11, same, "identical flags give byte-identical CSV outputs")
    assert same
