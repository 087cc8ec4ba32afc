"""Run one tierank benchmark workload and print every metric.

Usage, from the repository root:

    python3 perfbench/run.py --workload fused-ids --seed 1 --seconds 8 --trace 0

Workloads: fused-ids, vector-oos, cli-mixed (see perfbench/workloads.py).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones and writes the spans to .perfbench/spans-<workload>-seed<seed>.jsonl.
The last line of output is one JSON object with the keys correct,
attempted, failed and metrics. Exits 1 if any output check failed, and 2
without a result if tierank's sources are not under ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS and OpenMP pools at the cores this process may use; call before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))
    return cores


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fused-ids", "vector-oos", "cli-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    cores = cap_threads()
    src = ROOT / "src"
    if not (src / "tierank" / "__init__.py").is_file():
        print(f"error: tierank sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import numpy
    import scipy
    import tierank

    if Path(tierank.__file__).resolve().parent != src / "tierank":
        print(f"error: imported tierank from {tierank.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import workloads

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = workloads.Run(name=args.workload, spec=workloads.SPECS[args.workload], seed=args.seed,
                        seconds=args.seconds, work=work, traced=bool(args.trace))
    try:
        workloads.RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.metrics["peak_rss_mb"] = (workloads.peak_rss_mb(), "MiB")
    if run.traced:
        workloads.report_layers(run)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(spans)
        run.notes.append(f"{len(run.tracer.spans)} spans written to {spans.relative_to(ROOT)}")

    wanted = workloads.per_layer_names() if run.traced else workloads.END_TO_END
    metrics = {}
    for name, unit in wanted:
        if name not in run.metrics:
            run.fail(f"metric {name}", "not measured")
        value, _ = run.metrics.get(name, (0.0, unit))
        metrics[name] = {"value": value, "unit": unit}

    spec = run.spec
    print(f"machine: nproc={os.cpu_count()} usable_cores={cores} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"n={spec.n} d={spec.d} m={spec.m} k1=k2=k_final={spec.k} id_queries={spec.n_ids} "
          f"vector_queries={spec.n_vectors} setups={spec.setups}")
    for note in run.notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6f} {m['unit']}")
    print(f"failed_frac: {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):.6f}")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
