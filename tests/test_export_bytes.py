"""SHA-256 pins of every CSV export.

Identical inputs must give byte-identical CSVs, also across rewrites of
the writers, so each export is pinned on small fixed inputs.  The
finite-k run has the zero atom: exact 0 in ``tau`` and -0 in the clutter
columns, which a writer that merged 0.0 with -0.0 would break.
"""

import hashlib

import numpy as np
import pytest

from cgclutter.bernstein import make_builtin_finite, make_builtin_infinite
from cgclutter.cli import main
from cgclutter.laws import gamma_texture_law, k_texture_law
from cgclutter.mixing import MixingLaw

SIMULATE_PINS = {
    "finite-k": {
        "texture.csv": "54d29ef60758f9ab01c376e93ecbc77c632c9eab71dfaf304429b8d3c0317a79",
        "events.csv": "3a3914a955ecf3693bc963b7cfe7f7989e18886924db06dbf06a591392d8f687",
        "clutter.csv": "30fc023b03e65f0efb18db482231e07b50a60b749819551218585ace489d55e7",
    },
    "infinite-gamma": {
        "texture.csv": "d3f614af09d90dd4cfb3e9f8f61d4127cc926164c109401ace411fd77ab6cc4f",
        "events.csv": "5d5b24453be2ba23798295751731ad3e7c6cddc5c1e215df5eb91b075bfc5302",
        "clutter.csv": "52d86984c1b646fb66e6ca36924a0ccbe70f00818cc8200c4ac87b95771581bd",
    },
}

LAWTABLE_PINS = {
    ("k-texture", "--nu", "2"):
        "f7147d25dbeaa3dd2e10b93ef0212db3c0685586cebd50b95ddba6500556b844",
    ("gamma", "--nu", "2"):
        "c73ee48bd958725640d48b3b43c54ae7b567f278354804d619e3690571fd0101",
    ("polya-aeppli", "--nu", "2", "--p", "0.1"):
        "7b8e01d33d2d7c84c8ca5fc1561695966967055ae0cf13d768b533bd9a3f2937",
    ("negbin", "--nu", "2", "--nbar", "5"):
        "d26755130c34465a6e2f95209692289613c1a38b06ec8a92bccee8604403396a",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(SIMULATE_PINS))
def test_simulate_outputs(model, tmp_path, capsys):
    out = tmp_path / model
    assert main(["simulate", "--model", model, "--nu", "2", "--T", "8",
                 "--duration", "200", "--events", "--clutter", "--speckle", "ar1",
                 "--out", str(out)]) == 0
    for name, digest in SIMULATE_PINS[model].items():
        assert sha256(out / name) == digest, name
    if model == "finite-k":
        assert b",0\n" in (out / "texture.csv").read_bytes()
        assert b",-0," in (out / "clutter.csv").read_bytes()


@pytest.mark.parametrize("flags", sorted(LAWTABLE_PINS), ids=lambda f: f[0])
def test_lawtable(flags, tmp_path):
    out = tmp_path / "law.csv"
    assert main(["lawtable", "--law", *flags, "--out", str(out)]) == 0
    assert sha256(out) == LAWTABLE_PINS[flags]


@pytest.mark.parametrize("law, digest", [
    (k_texture_law(2.0),
     "8e737e2b7e37511205809aa4c6d986949094244c8de5471be2833311efb3c202"),
    # pdf is +inf at x = 0 for nu < 1
    (gamma_texture_law(0.5),
     "eed04278550fe111d696d8282b8a44428745188635a3d1f580b20e6563ad9dce"),
], ids=["k-texture", "gamma"])
def test_texture_law_export(law, digest, tmp_path):
    out = tmp_path / "law.csv"
    law.export_csv(out, np.linspace(0.0, 10.0, 101))
    assert sha256(out) == digest


@pytest.mark.parametrize("model, kappa, digest", [
    (make_builtin_finite(), 9.0,
     "3b5aa165d2d89802538a202ac68d77dfe4f6bd1274046ad36233e57dc4e6d3dc"),
    (make_builtin_infinite(), 150.0,
     "9e41386e4f73a4d38ba7de512a38118e4ca6aeaa10df28a08119cf1aa24b13a6"),
], ids=["geometric", "logarithmic"])
def test_mixing_pmf_export(model, kappa, digest, tmp_path):
    out = tmp_path / "pmf.csv"
    MixingLaw(model, kappa).export_pmf_csv(out)
    assert sha256(out) == digest
