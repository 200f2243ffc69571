"""Command-line front end: simulate, validate, lawtable.

Exit codes: 0 success, 1 runtime guard tripped, 2 flag errors,
3 model-validation failure, 4 validation-suite failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import __version__
from ._export import write_csv
from .bernstein import (
    BernsteinModel,
    LimitTransform,
    check_bernstein,
    from_lst,
    make_builtin_finite,
    make_builtin_infinite,
)
from .estimators import ks_distance, summarize
from .laws import (
    gamma_texture_law,
    gaussian_limit_distance,
    k_texture_law,
    lst_moments,
    negbin_pmf,
    polya_aeppli_pmf,
    texture_cov,
)
from .mixing import MixingLaw, mean_k, pgf_k, pmf_k
from .speckle import AR1, SpeckleSpec, White, compose, gen_speckle
from .texture import (
    ArrivalBudgetError,
    SimConfig,
    _grid_length,
    sample_on_grid,
    simulate,
)

CHECK_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


# ---------------------------------------------------------------------------
# Flag plumbing
# ---------------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=["finite-k", "infinite-gamma", "custom-lst"],
                   required=True)
    p.add_argument("--lst-file", help="table of (z, G) pairs for --model custom-lst")
    p.add_argument("--gamma", type=float, help="Poisson rate scale")
    p.add_argument("--T", type=float, dest="window", help="window length")
    p.add_argument("--nu", type=float, help="shape parameter nu = gamma*T")
    p.add_argument("--kappa", type=float, default=150.0,
                   help="cluster parameter for the approximation path")
    p.add_argument("--seed", type=int, default=12345)


def _resolve_shape(args, parser):
    """Resolve (gamma, T, nu) from any consistent pair of flags."""
    gamma, window, nu = args.gamma, args.window, args.nu
    given = sum(v is not None for v in (gamma, window, nu))
    if given == 3 and abs(gamma * window - nu) > 1e-9 * max(nu, 1.0):
        parser.error("--gamma, --T and --nu are mutually inconsistent")
    if gamma is not None and window is not None:
        return gamma, window
    if nu is not None and window is not None:
        return nu / window, window
    if nu is not None and gamma is not None:
        return gamma, nu / gamma
    if nu is not None:
        return nu / 8.0, 8.0  # default window
    parser.error("need two of --gamma, --T, --nu (or --nu alone with default T=8)")


def _load_lst_table(path):
    """(z, G) table -> callable transform with log-log tail extrapolation."""
    text = Path(path).read_text()
    data = np.loadtxt(io.StringIO(text.replace(",", " ")))
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("LST table must have two columns: z and G(z)")
    z, g = data[:, 0], data[:, 1]
    if z[0] != 0.0:
        raise ValueError("LST table must start at z = 0")
    if np.any(np.diff(z) <= 0):
        raise ValueError("LST table abscissae must be strictly increasing")
    if np.any(g <= 0) or np.any(g > 1.0 + 1e-12):
        raise ValueError("LST table values must lie in (0, 1]")
    f = -np.log(np.clip(g, 1e-300, None))  # -ln G, nondecreasing
    interp = PchipInterpolator(z, f, extrapolate=False)
    z_max = z[-1]
    # beyond the table, continue -ln G linearly in ln z (power/log growth)
    slope = float(interp.derivative()(z_max)) * z_max

    def G(w):
        w = np.asarray(w, dtype=float)
        inside = np.clip(w, 0.0, z_max)
        fv = interp(inside)
        tail = f[-1] + slope * np.log(np.maximum(w, z_max) / z_max)
        return np.exp(-np.where(w <= z_max, fv, tail))

    return G


def _build_model(args, nu) -> BernsteinModel:
    if args.model == "finite-k":
        return make_builtin_finite()
    if args.model == "infinite-gamma":
        return make_builtin_infinite()
    if not args.lst_file:
        raise ValueError("--model custom-lst requires --lst-file")
    return from_lst(_load_lst_table(args.lst_file), nu)


def _seed_from(args) -> int:
    env = os.environ.get("CLUTTER_SEED")
    return int(env) if env else args.seed


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args, parser) -> int:
    gamma, window = _resolve_shape(args, parser)
    seed = _seed_from(args)
    mode = args.mode
    nu = gamma * window

    try:
        model = _build_model(args, nu)
        # tabulated transforms are interpolated and only piecewise-smooth, so
        # probe just monotonicity/concavity for them
        max_order = 4 if model.closed_form_derivatives else 1
        report = check_bernstein(model, CHECK_GRID, max_order=max_order)
        if not report.passed:
            print("model validation failed:", file=sys.stderr)
            print(str(report), file=sys.stderr)
            return 3
        if mode is None:
            mode = "finite-exact" if model.activity.finite else "infinite-approx"
        cfg = SimConfig(gamma=gamma, window=window, duration=args.duration,
                        dt=args.dt, seed=seed, mode=mode, kappa=args.kappa)
        path = simulate(model, cfg)
    except ArrivalBudgetError as exc:
        print(f"runtime guard: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"model validation failed: {exc}", file=sys.stderr)
        return 3

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []

    texture_csv = out / "texture.csv"
    path.export_grid_csv(texture_csv, cfg.dt)
    outputs.append(str(texture_csv))
    if args.events:
        events_csv = out / "events.csv"
        path.export_events_csv(events_csv)
        outputs.append(str(events_csv))

    speckle_spec = None
    if args.clutter:
        corr = White() if args.speckle == "white" else AR1(args.rho)
        speckle_spec = SpeckleSpec(variance=args.sigma2, correlation=corr, dt=cfg.dt)
        n = _grid_length(cfg.duration, cfg.dt)
        rng = np.random.default_rng([seed, 0xC1])
        series = compose(path, gen_speckle(speckle_spec, n, rng), cfg.dt)
        clutter_csv = out / "clutter.csv"
        series.export_csv(clutter_csv)
        outputs.append(str(clutter_csv))

    manifest = {
        "config": cfg.to_dict(),
        "speckle": speckle_spec.to_dict() if speckle_spec else None,
        "outputs": outputs,
        "seed": seed,
        "tool_version": __version__,
    }
    manifest_json = out / "manifest.json"
    manifest_json.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    outputs.append(str(manifest_json))

    samples = sample_on_grid(path, cfg.dt, cfg.duration)
    summ = summarize(samples, cfg.dt, 0.0)
    print(f"mode={mode} nu={nu:g} samples={summ.n}")
    print(f"mean={summ.mean:.6g} variance={summ.variance:.6g} "
          f"zero_fraction={summ.zero_fraction:.6g}")
    if args.model in ("finite-k", "infinite-gamma"):
        law = k_texture_law(nu) if args.model == "finite-k" else gamma_texture_law(nu)
        thin = max(int(math.ceil(window / cfg.dt)) + 1, 1)
        ks = ks_distance(samples[::thin], law.cdf, law.atom_at_zero)
        print(f"ks_vs_{law.kind}={ks:.6g} (thinned to lag > T, n={len(samples[::thin])})")
    for f in outputs:
        print("wrote", f)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _row(name, measured, expected, tol, ok):
    return {"check": name, "measured": measured, "expected": expected,
            "tol": tol, "ok": bool(ok)}


def _suite_marginal(model, args, gamma, window, seed):
    nu = gamma * window
    mode = "finite-exact" if model.activity.finite else "infinite-approx"
    cfg = SimConfig(gamma=gamma, window=window, duration=args.duration,
                    dt=args.dt, seed=seed, mode=mode, kappa=args.kappa)
    path = simulate(model, cfg)
    samples = sample_on_grid(path, cfg.dt, cfg.duration)
    thin = int(math.ceil(window / cfg.dt)) + 1
    thinned = samples[::thin]
    law = k_texture_law(nu) if model.activity.finite else gamma_texture_law(nu)
    ks = ks_distance(thinned, law.cdf, law.atom_at_zero)
    return [_row(f"ks_vs_{law.kind}", ks, 0.0, 0.02, ks < 0.02)]


def _suite_covariance(model, args, gamma, window, seed):
    nu = gamma * window
    mode = "finite-exact" if model.activity.finite else "infinite-approx"
    cfg = SimConfig(gamma=gamma, window=window, duration=args.duration,
                    dt=args.dt, seed=seed, mode=mode, kappa=args.kappa)
    path = simulate(model, cfg)
    samples = sample_on_grid(path, cfg.dt, cfg.duration)
    summ = summarize(samples, cfg.dt, 1.5 * window)
    lag0 = texture_cov(nu, window, model.h2, 0.0)
    rows = []
    for frac in (0.0, 0.25, 0.5, 0.75):
        s = frac * window
        k = int(round(s / cfg.dt))
        measured = summ.autocov[k][1]
        expected = texture_cov(nu, window, model.h2, k * cfg.dt)
        ok = abs(measured - expected) <= 0.1 * lag0
        rows.append(_row(f"autocov_lag_{frac:g}T", measured, expected, 0.1 * lag0, ok))
    k = int(round(1.5 * window / cfg.dt))
    measured = summ.autocov[k][1]
    se = math.sqrt(sum(v * v for _, v in summ.autocov) / summ.n)
    rows.append(_row("autocov_lag_1.5T", measured, 0.0, 3 * se, abs(measured) <= 3 * se))
    return rows


def _suite_moments(model, args, gamma, window, seed):
    nu = gamma * window
    G = LimitTransform(model, nu)
    m = lst_moments(G, 2)
    rows = [
        _row("G_at_0", m[0], 1.0, 0.0, m[0] == 1.0),
        _row("first_moment", m[1], 1.0, 1e-6, abs(m[1] - 1.0) < 1e-6),
        _row("excess_second_moment", m[2] - 1.0, -model.h2 / nu, 1e-4,
             abs((m[2] - 1.0) - (-model.h2 / nu)) < 1e-4),
    ]
    law = MixingLaw(model, args.kappa)
    for u in (0.25, 0.5, 0.9):
        direct = pgf_k(law, u)
        bysum = float(np.dot(law.pmf_table,
                             u ** np.arange(1.0, len(law.pmf_table) + 1.0)))
        rows.append(_row(f"pgf_vs_pmf_u_{u:g}", bysum, direct, 1e-8,
                         abs(bysum - direct) < 1e-8))
    emp_mean = float(np.dot(law.pmf_table, np.arange(1.0, len(law.pmf_table) + 1.0)))
    rows.append(_row("mean_k", emp_mean, mean_k(law), 1e-6,
                     abs(emp_mean - mean_k(law)) < 1e-6 * mean_k(law)))
    return rows


def _suite_gaussian_limit(model, args, gamma, window, seed):
    nu = gamma * window
    d = gaussian_limit_distance(model, nu, 5.0)
    return [_row("sup_G_minus_exp", d, 0.0, 1e-3, d < 1e-3)]


SUITES = {
    "marginal": _suite_marginal,
    "covariance": _suite_covariance,
    "moments": _suite_moments,
    "gaussian-limit": _suite_gaussian_limit,
}


def cmd_validate(args, parser) -> int:
    gamma, window = _resolve_shape(args, parser)
    seed = _seed_from(args)
    nu = gamma * window
    try:
        model = _build_model(args, nu)
        max_order = 4 if model.closed_form_derivatives else 1
        report = check_bernstein(model, CHECK_GRID, max_order=max_order)
        if not report.passed:
            print("model validation failed:", file=sys.stderr)
            print(str(report), file=sys.stderr)
            return 3
        suites = list(SUITES) if args.suite == "all" else [args.suite]
        rows = []
        for name in suites:
            rows.extend(SUITES[name](model, args, gamma, window, seed))
    except ArrivalBudgetError as exc:
        print(f"runtime guard: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"model validation failed: {exc}", file=sys.stderr)
        return 3

    width = max(len(r["check"]) for r in rows)
    all_ok = True
    for r in rows:
        status = "PASS" if r["ok"] else "FAIL"
        all_ok &= r["ok"]
        print(f"{status}  {r['check']:{width}s}  measured={r['measured']: .6g}  "
              f"expected={r['expected']: .6g}  tol={r['tol']:.3g}")
    return 0 if all_ok else 4


# ---------------------------------------------------------------------------
# lawtable
# ---------------------------------------------------------------------------

def cmd_lawtable(args, parser) -> int:
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        if args.law in ("k-texture", "gamma"):
            nu = args.nu
            if nu is None:
                parser.error("--nu is required for texture laws")
            law = k_texture_law(nu) if args.law == "k-texture" else gamma_texture_law(nu)
            xs = np.linspace(0.0, args.x_max, args.points)
            write_csv(out, ["x", "pdf", "cdf"], xs,
                      [law.pdf(x) for x in xs], [law.cdf(x) for x in xs])
        else:
            if args.nu is None:
                parser.error("--nu is required")
            if args.law == "polya-aeppli":
                if args.p is None:
                    parser.error("--p is required for the polya-aeppli law")
                pmf = lambda n: polya_aeppli_pmf(args.nu, args.p, n)
            else:
                if args.nbar is None:
                    parser.error("--nbar is required for the negbin law")
                pmf = lambda n: negbin_pmf(args.nu, args.nbar, n)
            ns = range(args.n_max + 1)
            write_csv(out, ["n", "pmf"], ns, [pmf(n) for n in ns])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgclutter",
        description="Compound-Gaussian clutter texture simulation and validation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="simulate a texture (and optionally clutter) path")
    _add_model_flags(ps)
    ps.add_argument("--duration", type=float, default=1e5)
    ps.add_argument("--dt", type=float, default=0.1)
    ps.add_argument("--mode", choices=["finite-exact", "infinite-approx",
                                       "discrete-windowed"], default=None)
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--events", action="store_true",
                    help="also write the change-point (event) view")
    ps.add_argument("--clutter", action="store_true",
                    help="also compose speckle into clutter samples")
    ps.add_argument("--speckle", choices=["white", "ar1"], default="white")
    ps.add_argument("--rho", type=float, default=0.9, help="AR1 coefficient")
    ps.add_argument("--sigma2", type=float, default=1.0, help="speckle variance")
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("validate", help="run oracle comparisons against closed forms")
    _add_model_flags(pv)
    pv.add_argument("--suite", choices=["marginal", "covariance", "moments",
                                        "gaussian-limit", "all"], default="all")
    pv.add_argument("--duration", type=float, default=1e5)
    pv.add_argument("--dt", type=float, default=0.1)
    pv.set_defaults(func=cmd_validate)

    pl = sub.add_parser("lawtable", help="emit an analytic law as CSV")
    pl.add_argument("--law", choices=["k-texture", "gamma", "polya-aeppli", "negbin"],
                    required=True)
    pl.add_argument("--nu", type=float)
    pl.add_argument("--p", type=float, help="cluster parameter for polya-aeppli")
    pl.add_argument("--nbar", type=float, help="mean count for negbin")
    pl.add_argument("--x-max", type=float, default=10.0)
    pl.add_argument("--points", type=int, default=1001)
    pl.add_argument("--n-max", type=int, default=200)
    pl.add_argument("--out", default=None, help="output file (default stdout)")
    pl.set_defaults(func=cmd_lawtable)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
