"""Write the correctness pins of the pinned-seed workloads.

    python3 cgbench/make_pins.py        (from the root of a source checkout)

pins.json: SHA-256, size and exact counts of the sim-disk CSVs.
verdicts.json: the PASS/FAIL verdict of every validate row.
Both are taken at each of PIN_SEEDS.  They were taken once, at the commit
that added this benchmark, and every op is checked against them: the CSVs
must stay byte-identical and no validate row may start failing.
Re-pinning is a change to the benchmark's correctness data and must be
justified on its own.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from run import PINNED_COUNTS, WORK_DIR, op_counts, pin_threads  # noqa: E402

pin_threads()

from spans import Tracer  # noqa: E402
from workloads import PIN_SEEDS, PINS_FILE, SIZES, VERDICTS_FILE, SimDisk, Validate  # noqa: E402


def sim_disk_pins():
    pins = {}
    for size in SIZES:
        pins[size] = {}
        for k, seed in enumerate(PIN_SEEDS):
            wl = SimDisk(k, size, WORK_DIR)
            tracer = Tracer()
            tracer.op = 0
            tracer.install()
            try:
                out = wl.op(0, "pin")
            finally:
                tracer.uninstall()
            entry = wl.outputs(out)
            shutil.rmtree(out)
            counts = op_counts(tracer, 0)
            entry["counts"] = {c: counts[c] for c in PINNED_COUNTS}
            pins[size][str(seed)] = entry
            print(size, seed, entry["counts"], flush=True)
    return pins


def validate_verdicts():
    verdicts = {}
    for k, seed in enumerate(PIN_SEEDS):
        wl = Validate(k, "full", WORK_DIR)
        verdicts[str(seed)] = {model: {name: verdict for verdict, name, *_ in wl.rows(text)}
                               for model, _, text in wl.op(0, "pin")}
        print(seed, {m: [n for n, v in r.items() if v != "PASS"]
                     for m, r in verdicts[str(seed)].items()}, flush=True)
    return verdicts


def main():
    WORK_DIR.mkdir(exist_ok=True)
    try:
        VERDICTS_FILE.write_text(json.dumps(validate_verdicts(), indent=1) + "\n")
        PINS_FILE.write_text(json.dumps(sim_disk_pins(), indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    main()
