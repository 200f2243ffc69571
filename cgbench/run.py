"""cgclutter benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a source checkout (``src/cgclutter`` must exist):

    python3 cgbench/run.py --workload sim-disk --seed 1 --seconds 15 --trace 0
    python3 cgbench/run.py --workload all --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric with its unit and sample count.  A result file with the
environment, per-op samples, failed checks and (traced) spans is written to
``.cgbench_out/``.  Exit code 0: all correctness gates held; 1: a gate
failed; 2: no source tree to benchmark.  README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".cgbench_out"
WORK_DIR = ROOT / ".cgbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("sim-disk", "validate", "count-law", "speckle-acf")


def pin_threads():
    """At most nproc BLAS/OpenMP threads, set before numpy is first imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = min(int(os.environ.get(var, nproc)), nproc)
        except ValueError:
            want = nproc
        os.environ[var] = str(max(want, 1))
    return nproc


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(repeats, importtime):
    """Fresh interpreter to `import cgclutter, cgclutter.cli` done, `repeats` times.

    With `importtime`, also the cumulative import time of each layer module."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-c", "import cgclutter, cgclutter.cli"]
    walls, per_module = [], {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("cgclutter."):
                per_module.setdefault(parts[2].strip()[len("cgclutter."):], []).append(
                    int(parts[1]) * 1e-6)
    return walls, {k: statistics.median(v) for k, v in per_module.items()}


def environment(nproc):
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    h = hashlib.sha256()
    for path in sorted((SRC / "cgclutter").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def tail(samples):
    """Highest order statistic with at least ten samples above it, and its percentile."""
    if len(samples) < 11:
        return None, None
    s = sorted(samples)
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


# per-layer metrics: (name, unit, kind, span names); kinds: self / total / calls / count
PER_LAYER = [
    ("texture.export_grid_csv.s", "s", "self", ["texture.TexturePath.export_grid_csv"]),
    ("texture.export_grid_csv.bytes", "B", "count", ["texture.export_grid_csv.bytes"]),
    ("texture.export_events_csv.s", "s", "self", ["texture.TexturePath.export_events_csv"]),
    ("texture.export_events_csv.bytes", "B", "count", ["texture.export_events_csv.bytes"]),
    ("speckle.export_csv.s", "s", "self", ["speckle.ClutterSeries.export_csv"]),
    ("speckle.export_csv.bytes", "B", "count", ["speckle.export_csv.bytes"]),
    ("texture.sample_on_grid.s", "s", "self", ["texture.sample_on_grid"]),
    ("texture.sample_on_grid.calls", "count", "calls", ["texture.sample_on_grid"]),
    ("texture.grid_points", "count", "count", ["texture.grid_points"]),
    ("speckle.compose.s", "s", "self", ["speckle.compose"]),
    ("cli.main.self_s", "s", "self", ["cli.main"]),
    ("texture.simulate.s", "s", "self", ["texture.simulate"]),
    ("texture.simulate.total_s", "s", "total", ["texture.simulate"]),
    ("texture.simulate.calls", "count", "calls", ["texture.simulate"]),
    ("estimators.summarize.s", "s", "self", ["estimators.summarize"]),
    ("estimators.ks_distance.s", "s", "self", ["estimators.ks_distance"]),
    ("laws.k_texture_law.s", "s", "self", ["laws.k_texture_law"]),
    ("laws.gamma_texture_law.s", "s", "self", ["laws.gamma_texture_law"]),
    ("bessel.scaled_i1.s", "s", "self", ["bessel.scaled_i1"]),
    ("bessel.scaled_i1.calls", "count", "calls", ["bessel.scaled_i1"]),
    ("laws.lst_moments.s", "s", "self", ["laws.lst_moments"]),
    ("laws.gaussian_limit_distance.s", "s", "self", ["laws.gaussian_limit_distance"]),
    ("mixing.MixingLaw.s", "s", "self", ["mixing.MixingLaw"]),
    ("bernstein.check_bernstein.s", "s", "self", ["bernstein.check_bernstein"]),
    ("texture.poisson_arrivals.s", "s", "self", ["texture.poisson_arrivals"]),
    ("texture.arrivals", "count", "count", ["texture.arrivals"]),
    ("texture.windowed_process.s", "s", "self", ["texture.windowed_process"]),
    ("texture.change_points", "count", "count", ["texture.change_points"]),
    ("mixing.sample_k.s", "s", "self", ["mixing.sample_k"]),
    ("estimators.total_variation.s", "s", "self", ["estimators.total_variation"]),
    ("laws.pmf.s", "s", "self", ["laws.polya_aeppli_pmf", "laws.negbin_pmf"]),
    ("laws.pmf.calls", "count", "calls", ["laws.polya_aeppli_pmf", "laws.negbin_pmf"]),
    ("speckle.gen_speckle.s", "s", "self", ["speckle.gen_speckle"]),
    ("speckle.gen_speckle.calls", "count", "calls", ["speckle.gen_speckle"]),
]
LIB_LAYERS = ("bernstein", "mixing", "texture", "laws", "estimators", "speckle", "bessel")
WRITER_SPANS = ("texture.TexturePath.export_grid_csv", "texture.TexturePath.export_events_csv",
                "speckle.ClutterSeries.export_csv")
# exact counts that must repeat for identical inputs
REPEAT_COUNTS = ("texture.arrivals", "texture.change_points", "texture.grid_points",
                 "texture.export_grid_csv.bytes", "texture.export_events_csv.bytes",
                 "speckle.export_csv.bytes", "texture.simulate.calls",
                 "texture.sample_on_grid.calls", "speckle.gen_speckle.calls")
PINNED_COUNTS = ("texture.arrivals", "texture.change_points", "texture.grid_points")


def op_counts(tracer, op):
    """Exact counts of traced op `op`, keyed by per-layer metric name."""
    out = {name: v for (o, name), v in tracer.counts.items() if o == op}
    for name, _, kind, spans in PER_LAYER:
        if kind == "calls":
            out[name] = sum(1 for s in tracer.spans if s[4] == op and s[0] in spans)
    return {k: out.get(k, 0) for k in REPEAT_COUNTS}


def layer_metrics(tracer, traced_ops, traced_walls, overheads, import_s):
    rows = tracer.self_times()
    n = max(len(traced_ops), 1)
    ops = set(traced_ops)
    rows = [r for r in rows if r[1] in ops]
    m = {}
    for name, unit, kind, spans in PER_LAYER:
        if kind == "self":
            v = sum(r[3] for r in rows if r[0] in spans) / n
        elif kind == "total":
            v = sum(r[2] for r in rows if r[0] in spans) / n
        elif kind == "calls":
            v = sum(1 for r in rows if r[0] in spans) / n
        else:
            v = sum(c for (o, key), c in tracer.counts.items() if o in ops and key in spans) / n
        m[name] = (v, unit)
    for layer in LIB_LAYERS:
        m[f"{layer}.self_s"] = (sum(r[3] for r in rows if r[0].startswith(layer + ".")) / n, "s")
    for layer in LIB_LAYERS + ("cli",):
        m[f"{layer}.import_s"] = (import_s.get(layer, 0.0), "s")
    top = [sum(r[2] for r in rows if r[1] == op and r[4]) / w
           for op, w in zip(traced_ops, traced_walls)]
    writers = [sum(r[3] for r in rows if r[1] == op and r[0] in WRITER_SPANS) / w
               for op, w in zip(traced_ops, traced_walls)]
    m["trace.overhead_s"] = (statistics.median(overheads) if overheads else 0.0, "s")
    m["trace.coverage"] = (statistics.median(top) if top else 0.0, "ratio")
    m["trace.writer_share"] = (statistics.median(writers) if writers else 0.0, "ratio")
    return m


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def traced_replay(tracer, wl, i):
    """Run op i again with spans installed -> (trace op id, wall, output digest)."""
    tracer.op += 1
    tracer.install()
    try:
        wall, result = timed(wl.op, i, f"t{tracer.op}")
    finally:
        tracer.uninstall()
    _, digest, _ = wl.check(i, result, replay=True)
    return tracer.op, wall, digest


def load_store(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def run_workload(name, seed, seconds, trace, size, nproc):
    from spans import Tracer
    from workloads import SIZES, WORKLOADS, Check

    env = environment(nproc)
    setup_walls, import_s = measure_setup(SIZES[size]["setup_repeats"], importtime=trace)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    wl = WORKLOADS[name](seed, size, WORK_DIR)
    wl.prepare()
    tracer = Tracer() if trace else None
    store_path = OUT_DIR / "counts.json"
    store = load_store(store_path) if trace else {}

    walls, traced_ops, traced_walls, overheads = [], [], [], []
    checks, written = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    i = 0
    try:
        while i < wl.min_ops or time.perf_counter() - t_start < seconds:
            attempted += 1
            try:
                wall, result = timed(wl.op, i, "u")
                op_checks, digest, nbytes = wl.check(i, result)
            except Exception:  # an op that raises counts as failed; the run goes on
                traceback.print_exc(file=sys.stderr)
                failed += 1
                i += 1
                continue
            walls.append(wall)
            written.append(nbytes)
            checks.extend(op_checks)
            if tracer is not None:
                try:
                    # op 0 is replayed twice so its exact counts are compared within the run
                    replays = [traced_replay(tracer, wl, i) for _ in range(2 if i == 0 else 1)]
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    attempted += 1
                    failed += 1
                    i += 1
                    continue
                attempted += len(replays)
                for _, _, tdigest in replays:
                    checks.append(Check(f"op{i}:traced_replay_identical", tdigest == digest))
                op_id, twall, _ = replays[0]
                traced_ops.append(op_id)
                traced_walls.append(twall)
                overheads.append(twall - wall)
                counts = op_counts(tracer, op_id)
                for other, _, _ in replays[1:]:
                    again = op_counts(tracer, other)
                    checks.append(Check(f"op{i}:counts_repeat_in_run", again == counts,
                                        detail=f"{counts} vs {again}"))
                key = f"{env['src_sha256']}:{name}:{size}:{wl.op_key(i)}"
                if key in store:
                    checks.append(Check(f"op{i}:counts_repeat_across_runs", store[key] == counts,
                                        detail=f"stored {store[key]} now {counts}"))
                store[key] = counts
                pinned = wl.pinned_counts(i)
                if pinned is not None:
                    got = {k: counts[k] for k in PINNED_COUNTS}
                    checks.append(Check(f"op{i}:counts_pinned",
                                        got == {k: pinned[k] for k in PINNED_COUNTS},
                                        detail=f"{got} vs {pinned}"))
            i += 1
        checks.extend(wl.finish())
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    elapsed = time.perf_counter() - t_start

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gates = [c for c in checks if c.gate]
    correct = bool(walls) and failed == 0 and all(c.ok for c in gates)
    n_fail = sum(not c.ok for c in checks)
    wall = statistics.median(walls) if walls else 0.0
    tail_v, tail_p = tail(walls)
    summary = {
        "setup_s": (statistics.median(setup_walls), "s", f"median of {len(setup_walls)} fresh interpreters"),
        "wall_s": (wall, "s", f"median per op, n={len(walls)}"),
        "wall_tail_s": (tail_v, "s", f"p{tail_p:.0f}, n={len(walls)}" if tail_v is not None
                        else f"n/a: {len(walls)} ops, 11 needed for a tail with 10 beyond it"),
        "items_per_s": (wl.items_per_op / wall if wall else 0.0, "1/s",
                        f"{wl.items_per_op} {wl.item}s per op / wall_s"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of the workload process"),
        "output_mb": (statistics.median(written) / 1e6 if written else 0.0, "MB",
                      f"median bytes written per op, n={len(written)}"),
        "op_fail_ratio": (failed / attempted, "ratio", f"{failed}/{attempted} ops"),
        "op_ok_ratio": ((attempted - failed) / attempted, "ratio", f"{attempted - failed}/{attempted} ops"),
        "check_fail_ratio": (n_fail / len(checks) if checks else 0.0, "ratio",
                             f"{n_fail}/{len(checks)} checks"),
        "check_pass_ratio": (1.0 - n_fail / len(checks) if checks else 0.0, "ratio",
                             f"{len(checks) - n_fail}/{len(checks)} checks"),
    }
    print(f"cgbench {name} seed={seed} seconds={seconds} trace={trace} size={size} "
          f"ops={len(walls)} elapsed={elapsed:.1f}s")
    print("env " + json.dumps(env, sort_keys=True))
    for key, (value, unit, note) in summary.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:18s} {shown:>12s} {unit:6s} {note}")
    failed_checks = [c for c in checks if not c.ok]
    grouped = {}
    for c in failed_checks:
        grouped.setdefault((c.gate, c.name), []).append(c.detail)
    for (gate, cname), details in grouped.items():
        print(f"  {'GATE' if gate else 'diag'} FAIL x{len(details)} {cname}: {details[0]}")
    if trace:
        layers = layer_metrics(tracer, traced_ops, traced_walls, overheads, import_s)
        for key, (value, unit) in layers.items():
            print(f"  {key:34s} {value:14.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        e2e = ("setup_s", "wall_s", "items_per_s", "peak_rss_mb", "op_ok_ratio", "check_pass_ratio")
        metrics = {k: {"value": summary[k][0], "unit": summary[k][1]} for k in e2e}

    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, sort_keys=True))
        os.replace(tmp, store_path)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "env": env, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "summary": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in summary.items()},
        "samples": {"setup_s": setup_walls, "wall_s": walls, "traced_wall_s": traced_walls},
        "failed_checks": [vars(c) for c in failed_checks],
        "spans": tracer.spans if trace else [],
    }
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}-{size}.json").write_text(json.dumps(record))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: reduced inputs for the benchmark's own test")
    args = p.parse_args(argv)
    if not (SRC / "cgclutter" / "__init__.py").is_file():
        print(f"no source tree: {SRC / 'cgclutter'} is missing; run from a checkout root",
              file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size, nproc)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
