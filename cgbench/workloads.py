"""The four benchmark workloads and their correctness checks.

Each workload builds its inputs from the benchmark seed, runs one
operation per `op` call (the timed part) and checks the result in
`check` (untimed).  README.md in this directory says why each workload
was chosen.  `cgclutter` is imported by the caller after the thread
settings are pinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cgclutter import bernstein, cli, estimators, laws, speckle, texture

HERE = Path(__file__).resolve().parent
PINS_FILE = HERE / "pins.json"
VERDICTS_FILE = HERE / "verdicts.json"

# CLI seeds at which sim-disk outputs (SHA-256) and validate verdicts are
# pinned; 12345 is the CLI default.
PIN_SEEDS = tuple(12345 + k for k in range(8))
SIM_FILES = ("texture.csv", "events.csv", "clutter.csv")

SIZES = {
    # sim-disk duration (None: the CLI default 1e5), count-law snapshots,
    # speckle length, setup interpreters started per run
    "full": {"duration": None, "snapshots": 1_000_000, "speckle_n": 1024, "setup_repeats": 3},
    "smoke": {"duration": 1000.0, "snapshots": 100_000, "speckle_n": 256, "setup_repeats": 1},
}


@dataclass(frozen=True)
class Check:
    """One correctness check; a failed `gate` makes the run incorrect,
    a failed diagnostic is reported and counted but does not."""

    name: str
    ok: bool
    gate: bool = True
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ok", bool(self.ok))


class UnexpectedExit(RuntimeError):
    """The CLI returned an exit code the operation does not document."""


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed % 2**64, i]).generate_state(1)[0])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _run_cli(argv, allowed):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc not in allowed:
        raise UnexpectedExit(f"cgclutter {' '.join(argv)} exited {rc}")
    return rc, buf.getvalue()


class Workload:
    name = ""
    item = ""
    min_ops = 1

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir

    def prepare(self):
        """Untimed set-up of reference values."""

    def op_key(self, i: int) -> str:
        """Identity of op i's inputs, for comparing counts across runs."""
        return str(op_seed(self.seed, i))

    def op(self, i: int, tag: str):
        raise NotImplementedError

    def check(self, i: int, result, replay: bool = False):
        """-> (checks, digest of the outputs, bytes written).  A replay of
        op i is checked for identical outputs by the caller only."""
        raise NotImplementedError

    def pinned_counts(self, i: int):
        return None

    def finish(self):
        """Checks pooled over all operations of the run."""
        return []


class PinnedSeeds(Workload):
    """Ops run the CLI at pinned seeds: op i of a run with seed s uses
    PIN_SEEDS[(s + i) mod 8], so its outputs can be checked against pins."""

    def cli_seed(self, i):
        return PIN_SEEDS[(self.seed + i) % len(PIN_SEEDS)]

    def op_key(self, i):
        return str(self.cli_seed(i))


class SimDisk(PinnedSeeds):
    name = "sim-disk"
    item = "grid sample"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        duration = self.size["duration"]
        self.extra = [] if duration is None else ["--duration", repr(duration)]
        self.items_per_op = int(np.floor((duration or 1e5) / 0.1 + 1e-9)) + 1
        self.pins = json.loads(PINS_FILE.read_text())[size] if PINS_FILE.exists() else {}

    def op(self, i, tag):
        out = self.workdir / f"sim-{i}-{tag}"
        argv = ["simulate", "--model", "infinite-gamma", "--nu", "2", "--T", "8",
                "--events", "--clutter", "--speckle", "ar1", "--out", str(out),
                "--seed", str(self.cli_seed(i))] + self.extra
        _run_cli(argv, {0})
        return out

    def outputs(self, out: Path):
        return {f: {"sha256": _sha256(out / f), "bytes": (out / f).stat().st_size}
                for f in SIM_FILES}

    def check(self, i, out, replay=False):
        try:
            got = self.outputs(out)
            written = sum(p.stat().st_size for p in out.iterdir())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        pin = self.pins.get(str(self.cli_seed(i)))
        checks = []
        for f in SIM_FILES:
            want = pin[f] if pin else None
            checks.append(Check(f"{f}:sha256", want is not None and got[f] == want,
                                detail=f"seed {self.cli_seed(i)}: {got[f]['sha256'][:16]} "
                                       f"{got[f]['bytes']} B, pinned "
                                       f"{want['sha256'][:16] if want else 'none'}"))
        digest = "".join(got[f]["sha256"] for f in SIM_FILES)
        return checks, digest, written

    def pinned_counts(self, i):
        pin = self.pins.get(str(self.cli_seed(i)))
        return pin["counts"] if pin else None


class Validate(PinnedSeeds):
    name = "validate"
    item = "check row"
    MODELS = (("finite-k", ["--model", "finite-k", "--nu", "2"]),
              ("infinite-gamma", ["--model", "infinite-gamma", "--nu", "2", "--kappa", "150"]))
    ROW_RE = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+measured=\s*(\S+)\s+expected=\s*(\S+)\s+tol=(\S+)$")
    items_per_op = 28  # 14 printed rows per model

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.pins = json.loads(VERDICTS_FILE.read_text()) if VERDICTS_FILE.exists() else {}

    def op(self, i, tag):
        seed = str(self.cli_seed(i))
        return [(model, *_run_cli(["validate", *flags, "--suite", "all", "--seed", seed], {0, 4}))
                for model, flags in self.MODELS]

    def rows(self, text):
        return [m.groups() for m in map(self.ROW_RE.match, text.splitlines()) if m]

    def check(self, i, result, replay=False):
        """Each printed row is a check; rows pinned PASS at this seed gate."""
        pinned = self.pins.get(str(self.cli_seed(i)), {})
        checks = []
        for model, rc, text in result:
            rows = self.rows(text)
            want = pinned.get(model, {})
            names = [r[1] for r in rows]
            checks.append(Check(f"{model}:rows", names == list(want), detail=",".join(names)))
            for verdict, name, measured, expected, tol in rows:
                checks.append(Check(f"{model}:{name}", verdict == "PASS",
                                    gate=want.get(name) == "PASS",
                                    detail=f"measured={measured} expected={expected} tol={tol}, "
                                           f"pinned {want.get(name)} at seed {self.cli_seed(i)}"))
            any_fail = any(r[0] == "FAIL" for r in rows)
            checks.append(Check(f"{model}:exit_code", rc == (4 if any_fail else 0),
                                detail=f"rc={rc}"))
        digest = hashlib.sha256("".join(t for _, _, t in result).encode()).hexdigest()
        return checks, digest, 0


class CountLaw(Workload):
    name = "count-law"
    item = "snapshot"
    CHUNKS = 10
    SPACING = 8.1
    FLOOR_DRAWS = 40
    FLOOR_SEED = 20261017
    STATED_TV = 0.01

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.snapshots = self.size["snapshots"]
        self.items_per_op = 2 * self.snapshots
        # (label, model factory, kappa, reference PMF) as in acceptance 6
        self.laws = (
            ("polya-aeppli", bernstein.make_builtin_finite, 9.0,
             lambda n: laws.polya_aeppli_pmf(2.0, 0.1, n)),
            ("negbin", bernstein.make_builtin_infinite, 150.0,
             lambda n: laws.negbin_pmf(2.0, 300.0, n)),
        )
        self.floors = {}

    def prepare(self):
        """TV noise floor of exact multinomial sampling at the same sample size."""
        rng = np.random.default_rng(self.FLOOR_SEED)
        for label, _, _, pmf in self.laws:
            p, total, n = [], 0.0, 0
            while total < 1.0 - 1e-13:
                p.append(float(pmf(n)))
                total += p[-1]
                n += 1
            p = np.array(p)
            tvs = []
            for _ in range(self.FLOOR_DRAWS):
                k = rng.multinomial(self.snapshots, np.append(p, max(0.0, 1.0 - p.sum())))
                tvs.append(_tv_against(k[:-1] / self.snapshots, p))
            self.floors[label] = (float(np.mean(tvs)), float(np.std(tvs, ddof=1)))

    def counts(self, model, kappa, seed):
        per = self.snapshots // self.CHUNKS
        out = []
        for c in range(self.CHUNKS):
            cfg = texture.SimConfig(gamma=0.25, window=8.0, duration=per * self.SPACING,
                                    dt=0.1, seed=0, mode="discrete-windowed", kappa=kappa)
            path = texture.simulate(model, cfg, np.random.default_rng([seed, c]))
            t = self.SPACING * np.arange(1, per + 1)
            idx = np.searchsorted(path.change_times, t, side="right") - 1
            out.append(path.values[idx].astype(np.int64))
        return np.concatenate(out)

    def op(self, i, tag):
        seed = op_seed(self.seed, i)
        result = []
        for label, factory, kappa, pmf in self.laws:
            hist = np.bincount(self.counts(factory(), kappa, seed))
            freq = hist / hist.sum()
            tv = estimators.total_variation({n: f for n, f in enumerate(freq)}, pmf)
            result.append((label, tv, hist))
        return result

    def check(self, i, result, replay=False):
        checks = []
        h = hashlib.sha256()
        for label, tv, hist in result:
            mean, sd = self.floors[label]
            bound = mean + 4.0 * sd
            checks.append(Check(f"{label}:snapshots", int(hist.sum()) == self.snapshots,
                                detail=f"{int(hist.sum())}"))
            checks.append(Check(f"{label}:tv_noise_floor", tv <= bound,
                                detail=f"TV {tv:.5f} <= floor {mean:.5f} + 4 sd {sd:.5f}"))
            checks.append(Check(f"{label}:tv_stated_tolerance", tv < self.STATED_TV, gate=False,
                                detail=f"TV {tv:.5f} < {self.STATED_TV}"))
            h.update(hist.tobytes())
            h.update(repr(tv).encode())
        return checks, h.hexdigest(), 0


def _tv_against(freq: np.ndarray, p: np.ndarray) -> float:
    """estimators.total_variation for arrays: support up to the largest outcome seen."""
    hi = int(np.flatnonzero(freq)[-1]) + 1
    acc = np.abs(freq[:hi] - p[:hi]).sum()
    return 0.5 * (acc + max(0.0, 1.0 - p[:hi].sum()))


class SpeckleACF(Workload):
    name = "speckle-acf"
    item = "speckle sample"
    min_ops = 8
    DT = 0.1
    LAGS = (0, 4, 8, 16)
    N_SE = 5.0

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.n = self.size["speckle_n"]
        self.items_per_op = self.n
        k = np.arange(64)
        self.acf = np.exp(-k.astype(float) ** 2 / 128.0)  # Gaussian Doppler spectrum
        self.spec = speckle.SpeckleSpec(1.0, speckle.CustomACF(tuple(self.acf)), self.DT)
        self.model = bernstein.make_builtin_infinite()
        self.x, self.z = [], []

    def op(self, i, tag):
        seed = op_seed(self.seed, i)
        x = speckle.gen_speckle(self.spec, self.n, np.random.default_rng([seed, 0x5EC]))
        cfg = texture.SimConfig(gamma=0.25, window=8.0, duration=(self.n - 1) * self.DT,
                                dt=self.DT, seed=seed, mode="infinite-approx", kappa=150.0)
        series = speckle.compose(texture.simulate(self.model, cfg), x, self.DT)
        return x, series.z

    def check(self, i, result, replay=False):
        x, z = result
        ok = len(z) == self.n and bool(np.all(np.isfinite(z)))
        if ok and not replay:
            self.x.append(x)
            self.z.append(z)
        digest = hashlib.sha256(x.tobytes() + z.tobytes()).hexdigest()
        return [Check("shape_finite", ok, detail=f"len {len(z)}")], digest, 0

    def rho(self, d):
        d = np.abs(d)
        return np.where(d < len(self.acf), self.acf[np.minimum(d, len(self.acf) - 1)], 0.0)

    def finish(self):
        """Pooled sample ACF at fixed lags and the mean of |z|^2, each within 5 se."""
        if not self.x:
            return [Check("acf_pooled", False, detail="no speckle series")]
        X = np.array(self.x)
        S, n = X.shape
        checks = []
        for k in self.LAGS:
            m = n - k
            r = np.mean(X[:, k:] * np.conj(X[:, :m]))
            d = np.arange(-m + 1, m)
            # circular complex Gaussian: Cov(x_{i+k} x_i*, x_{j+k} x_j*) = |rho(i-j)|^2
            se = math.sqrt(np.sum((1 - np.abs(d) / m) * self.rho(d) ** 2) / (S * m))
            checks.append(Check(f"acf_lag_{k}", abs(r - self.rho(k)) <= self.N_SE * se,
                                detail=f"{r.real:.4f}{r.imag:+.4f}j vs {float(self.rho(k)):.4f}, "
                                       f"se {se:.4f}, {S} series"))
        power = np.mean(np.abs(np.array(self.z)) ** 2)
        d = np.arange(-n + 1, n)
        # Cov(|z_i|^2, |z_j|^2) = (1 + c_tau(d dt)) (1 + rho(d)^2) - 1
        c_tau = laws.texture_cov(2.0, 8.0, self.model.h2, np.abs(d) * self.DT)
        var = np.sum((1 - np.abs(d) / n) * ((1 + c_tau) * (1 + self.rho(d) ** 2) - 1)) / (S * n)
        se = math.sqrt(var)
        checks.append(Check("mean_power", abs(power - 1.0) <= self.N_SE * se,
                            detail=f"{power:.4f} vs 1, se {se:.4f}"))
        return checks


WORKLOADS = {w.name: w for w in (SimDisk, Validate, CountLaw, SpeckleACF)}
