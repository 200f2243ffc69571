"""SHA-256 pins of every CSV export.

Identical inputs must give byte-identical CSVs, also across rewrites of
the writers, so each export is pinned on small fixed inputs.  The
finite-k run has the zero atom: exact 0 in ``tau`` and -0 in the clutter
columns, which a writer that merged 0.0 with -0.0 would break.
"""

import contextlib
import hashlib
import io
import platform

import numpy as np
import pytest

from cgclutter import gamma_texture_law, k_texture_law, negbin_pmf, polya_aeppli_pmf
from cgclutter._export import write_csv
from cgclutter.cli import main

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

# the k-texture pdf is scipy.special.i1e's and its cdf chndtr's and i0e's,
# so these pins carry their last bits; the gamma pdf at nu < 1 is +inf at x = 0;
# the polya-aeppli pins carry the last bits of its recursion; they and the
# negbin pins pin the writer's integer column n.  Each table has one pin per
# rounding of numpy's exp and log: the AVX-512 (X86_V4) kernels, then the
# AVX2 and baseline ones, which agree
LAWTABLE_PINS = {
    ("k-texture", "--nu", "2"): {
        "d5ea68c89e31ca6888345a1b341e09bbcd947bba71a9fa7a2d024418f3369a60",
        "816f8eb183ac397e2db6539aa0e2e9c8eaefd0a32009ab25ab2b9dc2565f8be5",
    },
    ("gamma", "--nu", "2"): {
        "c73ee48bd958725640d48b3b43c54ae7b567f278354804d619e3690571fd0101",
        "6712de944814ee4cdf5322b0e0d9c7d1526c286028d21d3784ee0d9bfd93b8ee",
    },
    ("gamma", "--nu", "0.5"): {
        "b1e4b36ebeebf27406b1a1c4d59164dde4328e38a62f1af40b1d23cbcca5b7c7",
        "4255d7ffc873f35bb44b2e7b39d696bd5c1b4fafd1b2fa78fdb4dafad4ad456c",
    },
    ("polya-aeppli", "--nu", "2", "--p", "0.1"): {
        "9fe9bf570d534d137fb5fc86b103512e0b6d9ab6d718aebcd298831440928b84",
        "f0fdfe940cc97371c2f5d07605787658ab476818184734a3fb9f27ad0e09203f",
    },
    ("negbin", "--nu", "2", "--nbar", "5"): {
        "d26755130c34465a6e2f95209692289613c1a38b06ec8a92bccee8604403396a",
        "0b7d2660b37c841a14447570f5de38190e514762acec84d3407649e85bf692f8",
    },
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(SIMULATE_PINS))
def test_simulate_outputs(model, tmp_path, capsys):
    out = tmp_path / model
    assert main(["simulate", "--model", model, "--nu", "2", "--T", "8",
                 "--duration", "200", "--events", "--clutter", "--speckle", "ar1",
                 "--out", str(out)]) == 0
    # texture.csv is clutter.csv's t and tau, bit for bit: the writer reuses
    # the cell of a repeated tau, and one reused in the wrong row or column
    # breaks this whatever bytes the pins hold
    clutter = [row.split(b",") for row in (out / "clutter.csv").read_bytes().splitlines()]
    assert (out / "texture.csv").read_bytes().splitlines() == [
        b",".join((t, tau)) for t, _, _, tau in clutter]
    for name, digest in SIMULATE_PINS[model].items():
        assert sha256(out / name) == digest, name
    if model == "finite-k":
        assert b",0\n" in (out / "texture.csv").read_bytes()
        assert b",-0," in (out / "clutter.csv").read_bytes()


def library_table(flags):
    """The table of lawtable's default grid from the library's own columns."""
    law, values = flags[0], dict(zip(flags[1::2], map(float, flags[2::2])))
    nu = values["--nu"]
    if law in ("k-texture", "gamma"):
        pdf_cdf = k_texture_law(nu) if law == "k-texture" else gamma_texture_law(nu)
        xs = np.linspace(0.0, 10.0, 1001)
        header, columns = ["x", "pdf", "cdf"], (xs, pdf_cdf.pdf(xs), pdf_cdf.cdf(xs))
    else:
        ns = np.arange(201)
        pmf = (polya_aeppli_pmf(nu, values["--p"], ns) if law == "polya-aeppli"
               else negbin_pmf(nu, values["--nbar"], ns))
        header, columns = ["n", "pmf"], (ns, pmf)
    table = io.BytesIO()
    write_csv(table, header, *columns)
    return table.getvalue()


# the test id is the law, and its nu where it is not 2
@pytest.mark.parametrize("flags", sorted(LAWTABLE_PINS),
                         ids=lambda f: f[0] if f[2] == "2" else f"{f[0]}-nu{f[2]}")
def test_lawtable(flags, tmp_path):
    out = tmp_path / "law.csv"
    assert main(["lawtable", "--law", *flags, "--out", str(out)]) == 0
    digest = sha256(out)
    if digest not in LAWTABLE_PINS[flags] and platform.machine() not in ("x86_64", "AMD64"):
        # an unpinned CPU, whose numpy may round exp and log otherwise: the
        # CLI still writes the library's table, and the new digest is named
        assert out.read_bytes() == library_table(flags)
        pytest.skip(f"no pin for {platform.machine()}'s rounding of the table ({digest})")
    assert digest in LAWTABLE_PINS[flags]


@pytest.mark.parametrize("flags", sorted(LAWTABLE_PINS),
                         ids=lambda f: f[0] if f[2] == "2" else f"{f[0]}-nu{f[2]}")
def test_lawtable_stdout_is_the_out_file(flags, tmp_path, capsysbinary):
    out = tmp_path / "law.csv"
    assert main(["lawtable", "--law", *flags, "--out", str(out)]) == 0
    assert main(["lawtable", "--law", *flags]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_lawtable_text_stdout_is_captured(tmp_path):
    # library callers take the table from a text stdout with no bytes under it
    flags = ("negbin", "--nu", "2", "--nbar", "5")
    out = tmp_path / "law.csv"
    assert main(["lawtable", "--law", *flags, "--out", str(out)]) == 0
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["lawtable", "--law", *flags]) == 0
    assert text.getvalue().encode() == out.read_bytes()
