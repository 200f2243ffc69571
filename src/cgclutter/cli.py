"""Command-line front end: simulate, validate, lawtable.

Exit codes: 0 success, 1 runtime guard tripped, 2 flag errors,
3 model-validation failure, 4 validation-suite failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, validation
from ._export import write_csv
from .bernstein import BernsteinModel, fit_transform, make_builtin_finite, make_builtin_infinite
from .estimators import summarize
from .laws import gamma_texture_law, k_texture_law, negbin_pmf, polya_aeppli_pmf
from .speckle import AR1, SpeckleSpec, White, compose, gen_speckle
from .texture import MODES, ArrivalBudgetError, SimConfig, _grid_length, sample_on_grid, simulate


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
    p.add_argument("--duration", type=float, default=1e5)
    p.add_argument("--dt", type=float, default=0.1)


def _resolve_shape(args, parser):
    """Resolve (gamma, T, nu) from any consistent pair of positive finite flags."""
    gamma, window, nu = args.gamma, args.window, args.nu
    for flag, v in (("--gamma", gamma), ("--T", window), ("--nu", nu)):
        if v is not None and not 0 < v < math.inf:
            parser.error(f"{flag} must be positive and finite, not {v:g}")
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


def _load_lst_table(path, nu) -> BernsteinModel:
    """Read an --lst-file's (z, G) columns for `fit_transform`, which checks the
    rows; here only the file: readable, with a data line of two columns."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read --lst-file {path}: {exc.strerror}") from exc
    # np.loadtxt skips blank lines and "#" comments, and warns on no rows
    if not any(line.split("#", 1)[0].strip() for line in text.splitlines()):
        raise ValueError(f"LST table {path} is empty")
    data = np.loadtxt(io.StringIO(text.replace(",", " ")), ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("LST table must have two columns: z and G(z)")
    return fit_transform(data[:, 0], data[:, 1], nu)


def _run_setup(args, parser) -> tuple[BernsteinModel, SimConfig]:
    """The model and SimConfig the run flags name, for `simulate` and `validate`
    alike.  Every run flag is checked (exit 2) before an --lst-file is read;
    the Levy measure (c >= 0) fitted to it is Bernstein by construction, and
    a table that fits no unit-mean law raises ValueError, which the commands
    report as exit 3.  Without --mode the model's Levy mass picks the mode.
    """
    gamma, window = _resolve_shape(args, parser)
    mode = getattr(args, "mode", None)
    try:
        cfg = SimConfig(gamma=gamma, window=window, duration=args.duration, dt=args.dt,
                        seed=args.seed, mode=mode or "finite-exact",
                        kappa=args.kappa)
    except ValueError as exc:
        parser.error(str(exc))
    if args.model == "finite-k":
        model = make_builtin_finite()
    elif args.model == "infinite-gamma":
        model = make_builtin_infinite()
    elif not args.lst_file:
        parser.error("--model custom-lst requires --lst-file")
    else:
        model = _load_lst_table(args.lst_file, cfg.nu)
    if mode is None:
        cfg = replace(cfg, mode="finite-exact" if math.isfinite(model.C) else "infinite-approx")
    return model, cfg


def _refused(exc) -> int:
    """Report why a command stopped: exit 1 for the runtime guard, 3 otherwise."""
    if isinstance(exc, ArrivalBudgetError):
        print(f"runtime guard: {exc}", file=sys.stderr)
        return 1
    print(f"model validation failed: {exc}", file=sys.stderr)
    return 3


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args, parser) -> int:
    # --sigma2 and --rho are checked whether or not --clutter and --speckle use them
    try:
        ar1 = AR1(args.rho)
        speckle_spec = SpeckleSpec(variance=args.sigma2, dt=args.dt,
                                   correlation=White() if args.speckle == "white" else ar1)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        model, cfg = _run_setup(args, parser)
        path = simulate(model, cfg)
    except (ArrivalBudgetError, ValueError) as exc:
        return _refused(exc)

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

    if args.clutter:
        n = _grid_length(cfg.duration, cfg.dt)
        rng = np.random.default_rng([cfg.seed, 0xC1])
        series = compose(path, gen_speckle(speckle_spec, n, rng), cfg.dt)
        clutter_csv = out / "clutter.csv"
        series.export_csv(clutter_csv)
        outputs.append(str(clutter_csv))

    manifest = {
        "config": cfg.to_dict(),
        "speckle": speckle_spec.to_dict() if args.clutter else None,
        "outputs": outputs,
        "seed": cfg.seed,
        "tool_version": __version__,
    }
    manifest_json = out / "manifest.json"
    manifest_json.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    outputs.append(str(manifest_json))

    samples = sample_on_grid(path, cfg.dt)
    summ = summarize(samples, cfg.dt, 0.0)
    print(f"mode={cfg.mode} nu={cfg.nu:g} samples={summ.n}")
    print(f"mean={summ.mean:.6g} variance={summ.variance:.6g} "
          f"zero_fraction={summ.zero_fraction:.6g}")
    law = validation.marginal_law(model, cfg.nu)
    if law is not None:
        (ks,) = validation.marginal_checks(samples, law, cfg)
        n = len(validation.thin_to_independent(samples, cfg.window, cfg.dt))
        print(f"{ks.name}={ks.measured:.6g} (thinned to lag > T, n={n})")
    for f in outputs:
        print("wrote", f)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

SUITES = ("marginal", "covariance", "moments", "gaussian-limit")


def cmd_validate(args, parser) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    if args.model == "custom-lst" and "marginal" in suites:
        if args.suite == "marginal":
            parser.error("--suite marginal needs a builtin model: "
                         "custom-lst has no closed-form marginal law")
        suites = SUITES[1:]  # --suite all still runs the other three
    try:
        model, cfg = _run_setup(args, parser)
        law = validation.marginal_law(model, cfg.nu) if "marginal" in suites else None
        if "marginal" in suites or "covariance" in suites:
            # one path and one grid serve both sample-based suites
            samples = sample_on_grid(simulate(model, cfg), cfg.dt)
        checks = {
            "marginal": lambda: validation.marginal_checks(samples, law, cfg),
            "covariance": lambda: validation.covariance_checks(samples, model, cfg),
            "moments": lambda: (validation.moment_checks(model, cfg.nu)
                                + validation.mixing_checks(model, cfg.kappa)),
            "gaussian-limit": lambda: validation.gaussian_limit_checks(model),
        }
        rows = [row for name in suites for row in checks[name]()]
    except (ArrivalBudgetError, ValueError) as exc:
        return _refused(exc)

    width = max(len(r.name) for r in rows)
    for r in rows:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name:{width}s}  measured={r.measured: .6g}  "
              f"expected={r.expected: .6g}  tol={r.tol:.3g}")
    return 0 if all(r.ok for r in rows) else 4


# ---------------------------------------------------------------------------
# lawtable
# ---------------------------------------------------------------------------

def cmd_lawtable(args, parser) -> int:
    """The table is built before --out is opened, so a refused flag writes nothing."""
    if args.nu is None:
        parser.error("--nu is required")
    if not 0 < args.x_max < math.inf:
        parser.error(f"--x-max must be positive and finite, not {args.x_max:g}")
    if args.points < 1:
        parser.error(f"--points must be at least 1, not {args.points}")
    if args.n_max < 0:
        parser.error(f"--n-max must be nonnegative, not {args.n_max}")
    try:
        if args.law in ("k-texture", "gamma"):
            law = k_texture_law(args.nu) if args.law == "k-texture" else gamma_texture_law(args.nu)
            xs = np.linspace(0.0, args.x_max, args.points)
            header, columns = ["x", "pdf", "cdf"], (xs, law.pdf(xs), law.cdf(xs))
        else:
            ns = range(args.n_max + 1)
            if args.law == "polya-aeppli":
                if args.p is None:
                    parser.error("--p is required for the polya-aeppli law")
                pmf = [polya_aeppli_pmf(args.nu, args.p, n) for n in ns]
            else:
                if args.nbar is None:
                    parser.error("--nbar is required for the negbin law")
                pmf = negbin_pmf(args.nu, args.nbar, ns)
            header, columns = ["n", "pmf"], (ns, pmf)
    except ValueError as exc:
        parser.error(str(exc))
    with nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as out:
        write_csv(out, header, *columns)
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
    ps.add_argument("--mode", choices=MODES, default=None)
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
    pv.add_argument("--suite", choices=[*SUITES, "all"], default="all")
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
