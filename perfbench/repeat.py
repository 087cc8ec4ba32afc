"""Run a workload once per seed and summarise each metric's spread.

Usage, from the repository root:

    python3 perfbench/repeat.py --workload fused-ids --seeds 1-10 [--json out.json]

Each run is ``run.py --trace 0`` for the run_seconds that BENCHMARK.json
fixes. Prints every run's metrics, then per metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the quartile distance as
a share of the median. Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--json", help="write the runs and the summary here")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs, ok = [], True
    for seed in parse_seeds(args.seeds):
        began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - began
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            if not lines:
                continue
        result = json.loads(lines[-1])
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append({"seed": seed, "wall_s": wall, "failed": result["failed"],
                     "attempted": result["attempted"], "metrics": values})
        print(f"seed {seed} ({wall:.1f} s, failed {result['failed']}/{result['attempted']}): "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"] if runs else []:
        values = [r["metrics"][name] for r in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else 0.0
        summary[name] = {"median": mid, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:<40} median {mid:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs, "summary": summary},
            indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
