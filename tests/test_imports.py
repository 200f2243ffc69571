import subprocess
import sys

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
