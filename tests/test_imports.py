import importlib
import pkgutil
import subprocess
import sys

import cgclutter

# scipy.signal alone pulls in scipy.stats, about a second of imports;
# scipy.optimize loads only when a non-builtin model is fitted
HEAVY = ("scipy.stats", "scipy.signal", "scipy.interpolate", "scipy.optimize",
         "scipy.linalg")


def heavy_loaded(code):
    """The HEAVY modules loaded after code runs in a fresh interpreter."""
    code += f"\nimport sys\nprint('loaded:', *(m for m in {HEAVY!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1].split()[1:]


def test_import_loads_no_heavy_scipy_subpackage():
    assert heavy_loaded("import cgclutter, cgclutter.cli") == []


def test_ar1_simulate_loads_no_heavy_scipy_subpackage(tmp_path):
    # the AR(1) speckle recurrence is numpy alone
    argv = ["simulate", "--model", "finite-k", "--nu", "2", "--duration", "200",
            "--clutter", "--speckle", "ar1", "--out", str(tmp_path / "sim")]
    assert heavy_loaded(f"from cgclutter.cli import main\nassert main({argv!r}) == 0") == []
    assert (tmp_path / "sim" / "clutter.csv").exists()


def test_every_name_in_all_resolves():
    # the benchmark's tracer looks up each name in a module's __all__, so a
    # stale entry would crash a traced run
    for info in pkgutil.iter_modules(cgclutter.__path__):
        module = importlib.import_module(f"cgclutter.{info.name}")
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert stale == [], info.name
