import importlib
import pkgutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import cgclutter
from cgclutter import bernstein, bessel, laws, mixing


def run_fresh(code):
    """The last line code prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def scipy_loaded(code):
    """The modules scipy and scipy.* loaded after code runs in a fresh interpreter."""
    code = textwrap.dedent(code) + (
        "\nimport sys\nprint('loaded:', *sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'))")
    return run_fresh(code).split()[1:]


def test_import_loads_no_scipy():
    assert scipy_loaded("import cgclutter, cgclutter.cli") == []


@pytest.mark.parametrize("model,mode", [
    ("finite-k", "finite-exact"), ("finite-k", "infinite-approx"),
    ("finite-k", "discrete-windowed"), ("infinite-gamma", "infinite-approx"),
    ("infinite-gamma", "discrete-windowed")])
def test_builtin_simulate_loads_no_scipy(model, mode, tmp_path):
    # the summary evaluates no closed form, the geometric law's int64 tail
    # check is exp(-y), and the AR(1) speckle recurrence is numpy alone
    out = tmp_path / "sim"
    argv = ["simulate", "--model", model, "--mode", mode, "--nu", "2", "--duration", "200",
            "--events", "--clutter", "--speckle", "ar1", "--out", str(out)]
    assert scipy_loaded(f"from cgclutter.cli import main\nassert main({argv!r}) == 0") == []
    assert sorted(p.name for p in out.iterdir()) == [
        "clutter.csv", "events.csv", "manifest.json", "texture.csv"]


def test_library_run_without_closed_forms_loads_no_scipy(tmp_path):
    # a builtin texture, both correlated speckles and every writer: numpy alone
    code = f"""
        import numpy as np
        from cgclutter import (AR1, CustomACF, SimConfig, SpeckleSpec, compose,
                               gen_speckle, make_builtin_infinite, simulate)
        cfg = SimConfig(gamma=0.25, window=8.0, duration=200.0, dt=0.5, seed=3,
                        mode="infinite-approx")
        path = simulate(make_builtin_infinite(), cfg)
        n = 401
        rng = np.random.default_rng(4)
        for i, corr in enumerate([AR1(0.9), CustomACF(tuple(1.0 - np.arange(8) / 8.0))]):
            x = gen_speckle(SpeckleSpec(correlation=corr, dt=cfg.dt), n, rng)
            compose(path, x, cfg.dt).export_csv({str(tmp_path)!r} + f"/clutter{{i}}.csv")
        path.export_grid_csv({str(tmp_path / "grid.csv")!r}, cfg.dt)
        path.export_events_csv({str(tmp_path / "events.csv")!r})
        """
    assert scipy_loaded(code) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "clutter0.csv", "clutter1.csv", "events.csv", "grid.csv"]


def test_polya_aeppli_lawtable_loads_no_scipy(tmp_path):
    argv = ["lawtable", "--law", "polya-aeppli", "--nu", "2", "--p", "0.1",
            "--out", str(tmp_path / "pa.csv")]
    assert scipy_loaded(f"from cgclutter.cli import main\nassert main({argv!r}) == 0") == []
    assert (tmp_path / "pa.csv").read_text().startswith("n,pmf\n")


# each entry point that imports scipy.special when called, as an expression
# of the modules bernstein, bessel, laws and mixing, and of the fitted model
# `fit`; in a fresh interpreter it is the first call that needs scipy.special
TAU = "np.array([-1.0, 0.0, 1e-3, 0.5, 1.0, 2.5, 40.0])"
DEFERRED = {
    "k_texture_pdf": f"laws.k_texture_law(2.0).pdf({TAU})",
    "k_texture_cdf": f"laws.k_texture_law(2.0).cdf({TAU})",
    "gamma_texture_pdf": f"laws.gamma_texture_law(0.7).pdf({TAU})",
    "gamma_texture_cdf": f"laws.gamma_texture_law(0.7).cdf({TAU})",
    "negbin_pmf": "laws.negbin_pmf(2.0, 5.0, np.arange(-1, 60))",
    "scaled_i1": "bessel.scaled_i1(np.array([0.0, 1e-3, 1.0, 30.0, 1e4]))",
    "levy_log_moments": "bernstein.levy_log_moments(fit.measure, np.arange(1, 9), 3.0)",
    "MixingLaw": "mixing.MixingLaw(fit, 1e5).mean",
    "MixingLaw_pmf": "mixing.MixingLaw(fit, 1e5).pmf(np.arange(0, 40))",
}


@pytest.fixture(scope="module")
def fit():
    # the gamma law of ln(1 + z) at nu = 2, as README's custom-lst example
    return bernstein.from_lst(lambda z: (1.0 + z / 2.0) ** -2.0, 2.0)


@pytest.mark.parametrize("name", DEFERRED)
def test_deferred_scipy_special_gives_the_same_bits(name, fit):
    # the fit's measure goes over as its float reprs, which round-trip
    measure = [list(map(float, a)) for a in fit.measure]
    code = f"""
        import sys
        import numpy as np
        from cgclutter import bernstein, bessel, laws, mixing
        fit = bernstein._levy_model(tuple(np.array(a) for a in {measure!r}))
        assert "scipy.special" not in sys.modules
        print(np.asarray({DEFERRED[name]}, dtype=float).tobytes().hex())
        """
    want = np.asarray(eval(DEFERRED[name]), dtype=float)
    assert run_fresh(code) == want.tobytes().hex()


def test_scaled_i1_refuses_a_negative_argument_first():
    code = """
        import sys
        from cgclutter import scaled_i1
        try:
            scaled_i1(-1)
        except ValueError:
            print("ValueError", "scipy.special" in sys.modules)
        """
    assert run_fresh(code) == "ValueError False"


def test_every_name_in_all_resolves():
    # the benchmark's tracer looks up each name in a module's __all__, so a
    # stale entry would crash a traced run
    for info in pkgutil.iter_modules(cgclutter.__path__):
        module = importlib.import_module(f"cgclutter.{info.name}")
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert stale == [], info.name
