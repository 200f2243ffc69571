import json
import math

import numpy as np
import pytest

from cgclutter import mixing
from cgclutter.bernstein import fit_transform
from cgclutter.cli import main

SIM = ["simulate", "--model", "finite-k", "--gamma", "0.25", "--T", "8",
       "--duration", "2000", "--dt", "0.1"]


def run(argv):
    return main([str(a) for a in argv])


def lst_table(path, h, top=6):
    """G(z) = exp(-2 h(z/2)), the transform at nu = 2, at 400 log-spaced z
    from 1e-4 to 10**top."""
    z = np.concatenate([[0.0], np.logspace(-4, top, 400)])
    G = np.exp(-2.0 * h(z / 2.0))
    path.write_text("".join(f"{zi:.17g},{gi:.17g}\n" for zi, gi in zip(z, G)))
    return path


def finite_lst_table(path):
    """The finite builtin's transform G tabulated at 400 log-spaced points."""
    return lst_table(path, lambda w: w / (w + 1.0))


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(SIM + ["--seed", "7", "--events", "--clutter", "--out", a]) == 0
        assert run(SIM + ["--seed", "7", "--events", "--clutter", "--out", b]) == 0
        for name in ("texture.csv", "events.csv", "clutter.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(SIM + ["--seed", "7", "--out", a])
        run(SIM + ["--seed", "8", "--out", b])
        assert (a / "texture.csv").read_bytes() != (b / "texture.csv").read_bytes()

    def test_seed_flag_is_the_only_seed(self, tmp_path, monkeypatch):
        # the environment has no say in the seed: --seed alone sets it
        a, b = tmp_path / "a", tmp_path / "b"
        run(SIM + ["--seed", "7", "--out", a])
        monkeypatch.setenv("CLUTTER_SEED", "99")
        run(SIM + ["--seed", "7", "--out", b])
        assert (a / "texture.csv").read_bytes() == (b / "texture.csv").read_bytes()
        assert json.loads((b / "manifest.json").read_text())["seed"] == 7

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m"
        run(SIM + ["--seed", "5", "--out", out])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["gamma"] == 0.25
        assert manifest["config"]["mode"] == "finite-exact"
        assert any(p.endswith("texture.csv") for p in manifest["outputs"])

    def test_nu_flag_resolution(self, tmp_path, capsys):
        out = tmp_path / "n"
        assert run(["simulate", "--model", "finite-k", "--nu", "2", "--T", "8",
                    "--duration", "1000", "--dt", "0.1", "--seed", "1",
                    "--out", out]) == 0
        assert "nu=2" in capsys.readouterr().out

    def test_nu_with_gamma_gives_window(self, tmp_path):
        out = tmp_path / "n"
        assert run(["simulate", "--model", "finite-k", "--nu", "2", "--gamma", "0.5",
                    "--duration", "200", "--out", out]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["gamma"], config["window"]) == (0.5, 4.0)

    def test_inconsistent_flags_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--model", "finite-k", "--gamma", "1", "--T", "8",
                 "--nu", "2", "--duration", "100", "--dt", "0.1",
                 "--out", tmp_path / "x"])
        assert exc.value.code == 2

    def test_missing_shape_flags_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--model", "finite-k", "--gamma", "1",
                 "--duration", "100", "--dt", "0.1", "--out", tmp_path / "x"])
        assert exc.value.code == 2

    def test_bad_custom_lst_exit_3(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        # G(0) != 1: not a probability transform
        table.write_text("0.0 0.5\n1.0 0.3\n2.0 0.2\n")
        code = run(["simulate", "--model", "custom-lst", "--lst-file", table,
                    "--nu", "2", "--duration", "100", "--dt", "0.1",
                    "--out", tmp_path / "y"])
        assert code == 3
        assert "validation failed" in capsys.readouterr().err

    def test_unreadable_lst_file_exit_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = run(["simulate", "--model", "custom-lst", "--lst-file", missing,
                    "--nu", "2", "--duration", "100", "--dt", "0.1",
                    "--out", tmp_path / "y"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and str(missing) in err

    def test_short_k_cache_exit_3(self, tmp_path, capsys, monkeypatch):
        # with the cache capped at 1000 terms, the logarithmic-like K of the
        # fitted ln(1+z) at kappa 150 stops short of its target mass, and
        # sampling K is refused
        monkeypatch.setattr(mixing, "CACHE_N_CAP", 1000)
        table = lst_table(tmp_path / "lst.csv", np.log1p)
        code = run(["simulate", "--model", "custom-lst", "--lst-file", table, "--nu", "2",
                    "--duration", "200", "--mode", "infinite-approx", "--out", tmp_path / "s"])
        err = capsys.readouterr().err
        assert code == 3
        assert "cached PMF mass" in err and err.count("\n") == 1

    def test_arrival_budget_exit_1(self, tmp_path, capsys):
        # 2.5e9 expected arrivals against the 1e9 budget: refused before any draw
        out = tmp_path / "x"
        code = run(["simulate", "--model", "finite-k", "--nu", "2", "--duration", "1e10",
                    "--out", out])
        err = capsys.readouterr().err
        assert code == 1
        assert "runtime guard" in err and err.count("\n") == 1
        assert not out.exists()

    def test_custom_lst_roundtrip(self, tmp_path, capsys):
        # simulate from the tabulated transform of the finite builtin
        table = finite_lst_table(tmp_path / "lst.csv")
        code = run(["simulate", "--model", "custom-lst", "--lst-file", table,
                    "--nu", "2", "--T", "8", "--duration", "2000", "--dt", "0.1",
                    "--seed", "3", "--out", tmp_path / "z"])
        assert code == 0
        assert "mode=finite-exact" in capsys.readouterr().out


# `validate --suite all` rows after the marginal one, in print order; the
# benchmark parses and pins these names
ROWS_WITHOUT_MARGINAL = [
    "autocov_lag_0T", "autocov_lag_0.25T", "autocov_lag_0.5T", "autocov_lag_0.75T",
    "autocov_lag_1.5T", "G_at_0", "first_moment", "excess_second_moment",
    "pgf_vs_pmf_u_0.25", "pgf_vs_pmf_u_0.5", "pgf_vs_pmf_u_0.9", "mean_k",
    "sup_G_minus_exp",
]


class TestValidate:
    def test_moments_suite_passes(self, capsys):
        code = run(["validate", "--model", "finite-k", "--nu", "2",
                    "--suite", "moments"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("nu", ["2", "10000"])
    def test_gaussian_limit_large_nu(self, nu, capsys):
        # G -> e^-z is a large-nu statement, checked at nu = 1e4 whatever --nu is
        code = run(["validate", "--model", "infinite-gamma", "--nu", nu,
                    "--suite", "gaussian-limit"])
        assert code == 0

    def test_marginal_suite(self, capsys):
        code = run(["validate", "--model", "finite-k", "--nu", "2",
                    "--duration", "30000", "--suite", "marginal", "--seed", "21"])
        assert code == 0
        assert "ks_vs_k-texture" in capsys.readouterr().out

    def test_readme_example_rows(self, capsys):
        code = run(["validate", "--model", "infinite-gamma", "--nu", "2",
                    "--kappa", "150", "--suite", "all"])
        names = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert names == ["ks_vs_gamma", *ROWS_WITHOUT_MARGINAL]

    def test_custom_lst_marginal_exit_2(self, tmp_path, capsys):
        # a tabulated transform has no closed-form marginal to score against
        table = finite_lst_table(tmp_path / "lst.csv")
        with pytest.raises(SystemExit) as exc:
            run(["validate", "--model", "custom-lst", "--lst-file", table, "--nu", "2",
                 "--duration", "2000", "--suite", "marginal"])
        assert exc.value.code == 2
        assert "closed-form marginal" in capsys.readouterr().err

    def test_custom_lst_all_skips_marginal(self, tmp_path, capsys):
        # at the default duration: over 2000 time units the lag-0 row's
        # standard error (0.13) exceeds its tolerance (0.1), for builtins too
        table = finite_lst_table(tmp_path / "lst.csv")
        code = run(["validate", "--model", "custom-lst", "--lst-file", table, "--nu", "2",
                    "--suite", "all"])
        names = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert names == ROWS_WITHOUT_MARGINAL

    def test_custom_lst_infinite_activity_table_passes(self, tmp_path, capsys):
        # ln(1+z) is fitted as a compound Poisson with its smallest jumps cut
        table = lst_table(tmp_path / "lst.csv", np.log1p)
        code = run(["validate", "--model", "custom-lst", "--lst-file", table, "--nu", "2",
                    "--suite", "all"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert [line.split()[1] for line in out.splitlines()] == ROWS_WITHOUT_MARGINAL

    @pytest.mark.parametrize("top", [7, 8])
    def test_far_reaching_gamma_table_passes(self, top, tmp_path, capsys):
        # G = (1 + z/2)^-2, the unit-mean gamma law of ln(1+z) at nu = 2,
        # tabulated past 1e6: the fit is Bernstein by construction, so the
        # distance from its plateau at z = 1e8 (where the table stops) is no
        # reason to refuse it
        table = lst_table(tmp_path / "lst.csv", np.log1p, top)
        code = run(["validate", "--model", "custom-lst", "--lst-file", table, "--nu", "2",
                    "--suite", "all"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert [line.split()[:2] for line in out.splitlines()] == [
            ["PASS", name] for name in ROWS_WITHOUT_MARGINAL]
        assert run(["simulate", "--model", "custom-lst", "--lst-file", table, "--nu", "2",
                    "--duration", "200", "--out", tmp_path / "s"]) == 0

    def test_custom_lst_atomic_measure_exit_3(self, tmp_path, capsys):
        # h = 1 - e^-w has a unit atom at s = 1, which no sum of gamma
        # densities fits to 1e-6
        table = lst_table(tmp_path / "lst.csv", lambda w: -np.expm1(-w))
        code = run(["validate", "--model", "custom-lst", "--lst-file", table, "--nu", "2",
                    "--suite", "moments"])
        assert code == 3
        assert "relative miss" in capsys.readouterr().err

    def test_unreadable_lst_file_exit_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = run(["validate", "--model", "custom-lst", "--lst-file", missing, "--nu", "2",
                    "--suite", "moments"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and str(missing) in err


# transforms of laws without unit mean, h(w) = -ln G(2w)/2: mean 2 (h1 = 2)
# and infinite mean (h'(0) infinite; the fit reads h1 of about 580)
NOT_UNIT_MEAN = {"mean-2": lambda w: 2.0 * w / (w + 1.0), "infinite-mean": np.sqrt}


@pytest.mark.parametrize("command", [["simulate", "--out", "sim"], ["validate"]],
                         ids=["simulate", "validate"])
@pytest.mark.parametrize("h", NOT_UNIT_MEAN.values(), ids=NOT_UNIT_MEAN.keys())
def test_not_unit_mean_table_exit_3(command, h, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table = lst_table(tmp_path / "lst.csv", h)
    code = run([*command, "--model", "custom-lst", "--lst-file", table, "--nu", "2",
                "--duration", "200"])
    err = capsys.readouterr().err
    assert code == 3
    assert "h1 = " in err and err.count("\n") == 1
    assert not (tmp_path / "sim").exists()


# a NaN abscissa fails every comparison, and an infinite one has no place
# in the fit, even where G = 0 there
@pytest.mark.parametrize("row", ["nan,0.1", "inf,0.1", "inf,0"], ids=["nan", "inf", "inf-G0"])
def test_nonfinite_lst_abscissa_exit_3(row, tmp_path, capsys):
    table = finite_lst_table(tmp_path / "lst.csv")
    table.write_text(table.read_text() + row + "\n")
    code = run(["simulate", "--model", "custom-lst", "--lst-file", table, "--nu", "2",
                "--duration", "200", "--out", tmp_path / "sim"])
    err = capsys.readouterr().err
    assert code == 3
    assert "abscissae must be finite" in err and err.count("\n") == 1


# the finite builtin's transform at nu = 2, and tables made from it that the
# library and --lst-file refuse alike, with the same message
Z = np.concatenate([[0.0], np.logspace(-2, 6, 400)])
G = np.exp(-Z / (Z / 2.0 + 1.0))
SWAPPED, REPEATED = np.r_[0, 2, 1, 3:len(Z)], np.r_[0, 1, 1, 2:len(Z)]
REFUSED_TABLES = {
    "shuffled": (Z[SWAPPED], G[SWAPPED], 2.0, "strictly increasing"),
    "repeated-z": (Z[REPEATED], G[REPEATED], 2.0, "strictly increasing"),
    "first-z-1e-3": (np.r_[1e-3, Z[1:]], G, 2.0, "must start at z = 0"),
    "inf-z-G0": (np.r_[Z, np.inf], np.r_[G, 0.0], 2.0, "abscissae must be finite"),
    "inf-z-G1e-20": (np.r_[Z, np.inf], np.r_[G, 1e-20], 2.0, "abscissae must be finite"),
    "nan-z": (np.r_[Z, np.nan], np.r_[G, 0.1], 2.0, "abscissae must be finite"),
    "one-row": (Z[:1], G[:1], 2.0, "needs a row with z > 0"),
    "G-above-1": (Z, np.r_[G[:5], 1.5, G[6:]], 2.0, "G values must lie in"),
    "G-negative": (Z, np.r_[G[:-1], -0.1], 2.0, "G values must lie in"),
    "nu-inf": (Z, G, math.inf, "nu must be positive and finite"),
}


@pytest.mark.parametrize("z, g, nu, message", REFUSED_TABLES.values(),
                         ids=REFUSED_TABLES.keys())
def test_fit_transform_is_the_one_table_gate(z, g, nu, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=message):
        fit_transform(z, g, nu)
    table = tmp_path / "lst.csv"
    table.write_text("".join(f"{zi:.17g},{gi:.17g}\n" for zi, gi in zip(z, g)))
    command = ["validate", "--model", "custom-lst", "--lst-file", table, "--suite", "moments"]
    if math.isfinite(nu):
        code = run([*command, "--nu", nu])
        err = capsys.readouterr().err
        assert code == 3
        assert message in err and err.count("\n") == 1
        return
    # --gamma and --T are each finite, and their product nu overflows to inf:
    # a flag error, refused before the table is read
    with pytest.raises(SystemExit) as exc:
        run([*command, "--gamma", "1e200", "--T", "1e200"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "cgclutter: error: nu = gamma * window must be positive and finite"]


# an empty table would reach np.loadtxt's "no data" warning, and a one-row
# table the fit's internals: both are refused by name, with no warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message", [
    ("", "is empty"),
    ("\n# z, G(z)\n\n", "is empty"),
    ("0,1\n", "needs a row with z > 0"),
    ("0\n1\n", "must have two columns"),
], ids=["empty", "comments-only", "one-row", "one-column"])
def test_degenerate_lst_table_exit_3(text, message, tmp_path, capsys):
    table = tmp_path / "lst.csv"
    table.write_text(text)
    code = run(["validate", "--model", "custom-lst", "--lst-file", table, "--nu", "2",
                "--suite", "moments"])
    err = capsys.readouterr().err
    assert code == 3
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "finite-k", "--nu", "-2", "--out", "x"],
    ["simulate", "--model", "finite-k", "--nu", "2", "--dt", "0", "--out", "x"],
    ["simulate", "--model", "finite-k", "--nu", "2", "--duration", "-5", "--out", "x"],
    ["simulate", "--model", "finite-k", "--nu", "2", "--dt", "9", "--out", "x"],
    ["simulate", "--model", "finite-k", "--nu", "2", "--seed", "-1", "--out", "x"],
    ["validate", "--model", "finite-k", "--nu", "-2", "--suite", "moments"],
    ["simulate", "--model", "finite-k", "--nu", "2", "--duration", "200", "--clutter",
     "--sigma2", "-1", "--out", "x"],
    ["simulate", "--model", "finite-k", "--nu", "2", "--duration", "200", "--clutter",
     "--speckle", "ar1", "--rho", "2", "--out", "x"],
    ["simulate", "--model", "infinite-gamma", "--nu", "2", "--kappa", "0", "--out", "x"],
    ["validate", "--model", "finite-k", "--nu", "2", "--kappa", "0", "--suite", "moments"],
    ["lawtable", "--law", "gamma", "--nu", "-2", "--out", "x"],
    ["lawtable", "--law", "negbin", "--nu", "2", "--nbar", "-1", "--out", "x"],
    ["lawtable", "--law", "k-texture", "--nu", "2", "--points", "-3", "--out", "x"],
    ["lawtable", "--law", "polya-aeppli", "--nu", "2", "--p", "1.5", "--out", "x"],
    ["lawtable", "--law", "polya-aeppli", "--nu", "-2", "--p", "0.5", "--out", "x"],
    ["lawtable", "--law", "negbin", "--nu", "2", "--nbar", "3", "--n-max", "-1", "--out", "x"],
    ["lawtable", "--law", "k-texture", "--nu", "2", "--points", "0", "--out", "x"],
    ["lawtable", "--law", "gamma", "--nu", "2", "--x-max", "-1", "--points", "3", "--out", "x"],
    ["lawtable", "--law", "gamma", "--nu", "2", "--x-max", "0", "--out", "x"],
    # an infinite value passes a positivity test, so each is refused as not finite
    ["simulate", "--model", "finite-k", "--nu", "2", "--duration", "200", "--clutter",
     "--sigma2", "inf", "--out", "x"],
    ["simulate", "--model", "finite-k", "--nu", "2", "--duration", "inf", "--out", "x"],
    ["validate", "--model", "finite-k", "--nu", "2", "--kappa", "inf", "--suite", "moments"],
    ["lawtable", "--law", "gamma", "--nu", "inf", "--out", "x"],
    ["lawtable", "--law", "k-texture", "--nu", "inf", "--out", "x"],
    ["lawtable", "--law", "k-texture", "--nu", "2", "--x-max", "inf", "--out", "x"],
    ["lawtable", "--law", "negbin", "--nu", "2", "--nbar", "inf", "--out", "x"],
    ["lawtable", "--law", "polya-aeppli", "--nu", "inf", "--p", "0.5", "--out", "x"],
    ["lawtable", "--law", "gamma", "--out", "x"],
    ["lawtable", "--law", "negbin", "--nu", "2", "--out", "x"],
    ["simulate", "--model", "custom-lst", "--nu", "2", "--out", "x"],
    ["validate", "--model", "custom-lst", "--nu", "2", "--suite", "moments"],
    # validate checks every run flag whatever the suite
    ["validate", "--model", "finite-k", "--nu", "2", "--suite", "moments", "--dt", "9"],
    ["validate", "--model", "finite-k", "--nu", "2", "--suite", "moments", "--duration", "-5"],
    ["validate", "--model", "finite-k", "--nu", "2", "--suite", "gaussian-limit", "--dt", "0"],
    # --gamma and --T each finite, with a product nu that overflows or underflows
    ["simulate", "--model", "finite-k", "--gamma", "1e200", "--T", "1e200", "--out", "x"],
    ["validate", "--model", "finite-k", "--gamma", "1e200", "--T", "1e200"],
    ["validate", "--model", "custom-lst", "--lst-file", "lst.csv", "--gamma", "1e200",
     "--T", "1e200"],
    ["validate", "--model", "finite-k", "--gamma", "1e-200", "--T", "1e-200", "--dt", "1e-201",
     "--suite", "moments"],
    # a flag error is found before the --lst-file is read
    ["simulate", "--model", "custom-lst", "--lst-file", "missing.csv", "--nu", "2", "--dt", "9",
     "--out", "x"],
    # the speckle flags are checked whether or not --clutter or --speckle uses them
    ["simulate", "--model", "finite-k", "--nu", "2", "--duration", "200", "--sigma2", "-1",
     "--out", "x"],
    ["simulate", "--model", "finite-k", "--nu", "2", "--duration", "200", "--clutter",
     "--speckle", "white", "--rho", "2", "--out", "x"],
    # a custom-lst model has no marginal suite, whatever its table
    ["validate", "--model", "custom-lst", "--lst-file", "missing.csv", "--nu", "2",
     "--suite", "marginal"],
], ids=["nu", "dt", "duration", "dt-over-T", "seed", "validate-nu", "sigma2",
        "rho", "kappa", "validate-kappa", "lawtable-nu", "nbar", "points", "p", "polya-nu",
        "n-max", "points-0", "x-max", "x-max-0", "sigma2-inf", "duration-inf",
        "validate-kappa-inf", "lawtable-nu-inf", "k-texture-nu-inf", "x-max-inf", "nbar-inf",
        "polya-nu-inf", "lawtable-no-nu", "no-nbar", "no-lst-file", "validate-no-lst-file",
        "validate-dt-over-T", "validate-duration", "gaussian-limit-dt", "nu-overflow",
        "validate-nu-overflow", "custom-lst-nu-overflow", "nu-underflow", "missing-lst-dt",
        "sigma2-no-clutter", "rho-white", "custom-lst-marginal-missing"])
def test_bad_flag_exit_2(argv, tmp_path, capsys, monkeypatch):
    # refused before anything is written, with one error line and no traceback
    monkeypatch.chdir(tmp_path)
    finite_lst_table(tmp_path / "lst.csv")
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert not (tmp_path / "x").exists()


class TestLawtable:
    def test_polya_aeppli_table(self, capsys):
        assert run(["lawtable", "--law", "polya-aeppli", "--nu", "2", "--p", "0.1",
                    "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,pmf"
        assert len(lines) == 5
        assert float(lines[1].split(",")[1]) == pytest.approx(np.exp(-1.8))

    def test_texture_table_to_file(self, tmp_path):
        f = tmp_path / "t.csv"
        assert run(["lawtable", "--law", "gamma", "--nu", "2", "--x-max", "5",
                    "--points", "11", "--out", f]) == 0
        rows = f.read_text().strip().split("\n")
        assert rows[0] == "x,pdf,cdf"
        assert len(rows) == 12

    def test_missing_parameter_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["lawtable", "--law", "polya-aeppli", "--nu", "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", [["simulate", "--mode", "discrete-windowed", "--out", "bigk"],
                                     ["validate"]], ids=["simulate", "validate"])
def test_kappa_too_large_for_logseries_exit_3(command, tmp_path, capsys, monkeypatch):
    # p = kappa/(1 + kappa) of the log-series law rounds to 1
    monkeypatch.chdir(tmp_path)
    code = run([*command, "--model", "infinite-gamma", "--nu", "2", "--kappa", "1e17",
                "--duration", "100"])
    err = capsys.readouterr().err
    assert code == 3
    assert "kappa" in err and err.count("\n") == 1
    assert not (tmp_path / "bigk").exists()
