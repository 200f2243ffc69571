import importlib
import pkgutil
import subprocess
import sys

import cgclutter

# scipy.signal alone pulls in scipy.stats, about a second of imports;
# scipy.optimize loads only when a non-builtin model is fitted
HEAVY = ("scipy.stats", "scipy.signal", "scipy.interpolate", "scipy.optimize",
         "scipy.linalg")


def test_import_loads_no_heavy_scipy_subpackage():
    code = ("import sys, cgclutter, cgclutter.cli\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_every_name_in_all_resolves():
    # the benchmark's tracer looks up each name in a module's __all__, so a
    # stale entry would crash a traced run
    for info in pkgutil.iter_modules(cgclutter.__path__):
        module = importlib.import_module(f"cgclutter.{info.name}")
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert stale == [], info.name
