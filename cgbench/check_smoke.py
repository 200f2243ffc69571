"""The benchmark's own test: a reduced-size run of every workload.

    python3 cgbench/check_smoke.py        (from the root of a source checkout)

Runs `run.py --workload all --size smoke` untraced and traced and fails
unless every run is correct and every metric named in BENCHMARK.json is
present for every workload with its declared unit.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: exit {proc.returncode}, correct {result['correct']}, "
                            f"failed {result['failed']}\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
        for workload in WORKLOAD_NAMES:
            for metric in spec[key]:
                got = result["metrics"].get(f"{workload}.{metric['name']}")
                if got is None:
                    problems.append(f"trace {trace}: {workload} lacks {metric['name']}")
                elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"trace {trace}: {workload} {metric['name']} = {got}, "
                                    f"want a number in {metric['unit']}")
        print(f"trace {trace}: {len(result['metrics'])} metrics over {len(WORKLOAD_NAMES)} workloads")
    for p in problems:
        print("FAIL", p)
    print("smoke", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
