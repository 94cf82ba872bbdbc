#!/usr/bin/env python3
"""Run seprep's benchmark on one workload, or on all of them.

    python3 perfbench/run.py --workload manufactured-select --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1
    python3 perfbench/run.py --workload all --smoke

Run it from a checkout's root; it imports seprep from ./src. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics without tracing, the per-layer
metrics with --trace 1. Lines before it describe the machine and the
workload's results. The exit code is 0 when every check passed, 1 when one
failed and 2 when the benchmark could not start.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from blas import BLAS_THREADS, pin_threads  # noqa: E402

WORKLOAD_NAMES = ("manufactured-select", "elliptic-select", "elliptic-reference",
                  "surrogate-eval")
TRACE_DIR = ROOT / ".perfbench_traces"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="run whole passes until this much time has been measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    return p.parse_args(argv)


def machine_info(np, scipy) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


def run_one(args) -> int:
    import tracing
    import workloads

    workload = workloads.make(args.workload, args.seed, args.smoke)
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json.gz"
        run, metrics, report = workloads.measure_traced(workload, path)
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in metrics.items()}
    else:
        run, metrics, report = workloads.measure(workload, args.seconds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["failed_share"] = run.failed / run.attempted if run.attempted else 0.0
    report["failures"] = run.failures
    print("report:", json.dumps({"workload": args.workload, "seed": args.seed, **report}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("machine:"):
                print(line)
        worst = max(worst, proc.returncode)
        if proc.returncode > 1 or not lines:
            totals["correct"] = False
            continue
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            totals["metrics"][f"{name}/{k}"] = v
    print(json.dumps(totals))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        import numpy as np
        import scipy
        import seprep
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(seprep.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: seprep was imported from {seprep.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("machine:", json.dumps(machine_info(np, scipy)))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
