"""Run one workload once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload campaign --seeds 1 2 3 4 5

The spread is (Q3 - Q1) / median over the runs, with quartiles as
statistics.quantiles(values, n=4) gives them; it is shown against the
metric's bound from BENCHMARK.json.  Runs go one at a time, so they do
not compete with each other for the processor.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
        )
        if proc.returncode:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect outputs\n{proc.stdout}", file=sys.stderr)
            return 1
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
    for name, bound in bounds.items():
        values = [run[name] for run in runs]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:12s} median {statistics.median(values):.5g}  "
              f"spread {spread:.4f}  bound {bound}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
