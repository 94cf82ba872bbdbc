#!/usr/bin/env python3
"""Regenerate perfbench/baseline.json from the current library.

    python3 perfbench/record.py

Runs the workloads' own operations, at full and smoke sizes, and records
the (r, M) pair select_model chooses on each data seed the selection
workloads use, and the Monte Carlo reference mean and std. It also checks
that the reference's batches reproduce the single batch the CLI solves.
Run it only on the commit whose outputs the benchmark should hold later
commits to; it takes about two minutes and holds a 0.6 GB array at its
peak (the coefficients of all 200k reference samples).
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from blas import pin_threads  # noqa: E402

pin_threads()

import numpy as np  # noqa: E402

from seprep import problems  # noqa: E402

import workloads  # noqa: E402

RECORD_SEED = 0  # the workload seed; it changes no recorded output


def run_pass(workload):
    """One pass of the workload's operations; returns the digests by op id."""
    state = workload.setup()
    return {op_id: workload.digest(state, op_id, fn())
            for op_id, fn in workload.operations(state)}


def chosen_pairs(workload):
    digests = run_pass(workload)
    out = {op_id.split("-")[1]: list(d["chosen"]) for op_id, d in digests.items()}
    for seed, pair in sorted(out.items(), key=lambda kv: int(kv[0])):
        print(f"  {workload.name} data seed {seed}: {tuple(pair)}", flush=True)
    return dict(sorted(out.items(), key=lambda kv: int(kv[0])))


def check_single_batch(workload, prob, mc) -> None:
    """The batches give what the CLI's single batch of ref_n samples gives.

    The batches' points must equal one draw of all ref_n points, and the
    coefficient at the Gauss points, the one BLAS product in
    elliptic_solve_batch whose rounding could depend on the batch's shape,
    must equal its value on the whole draw; the rest of the solve works
    sample by sample. At smoke size the CLI's whole computation runs and
    must give the same mean and std.
    """
    sz = workload.sizes
    single = np.random.default_rng(workloads.REF_SEED).uniform(
        -1.0, 1.0, (sz.ref_n, prob.dims))
    coeff = problems.coefficient_at_gauss_points(prob, single)
    for i, pts in enumerate(workload.batch_points(prob.dims)):
        rows = slice(i * sz.ref_batch, (i + 1) * sz.ref_batch)
        assert np.array_equal(pts, single[rows]), f"batch {i}: points differ"
        assert np.array_equal(coeff[rows], problems.coefficient_at_gauss_points(prob, pts)), \
            f"batch {i}: coefficients differ from the single batch's"
    del coeff
    if sz.key == "smoke":
        cli = problems.mc_baseline(lambda n, s: problems.elliptic_solve_batch(prob, single),
                                   sz.ref_n, workloads.REF_SEED)
        assert (cli.mean, cli.std) == (mc.mean, mc.std), "statistics differ from the CLI's"
    print(f"  reference n={sz.ref_n}: batches match the single batch", flush=True)


def reference(sizes, prob):
    workload = workloads.EllipticReference(RECORD_SEED, sizes)
    mc = workload.statistics(run_pass(workload))
    check_single_batch(workload, prob, mc)
    return {"mean": mc.mean, "std": mc.std, "n": sizes.ref_n, "seed": workloads.REF_SEED}


def main():
    prob = problems.elliptic_problem()
    doc = {}
    for sizes in (workloads.SMOKE, workloads.FULL):
        print(f"{sizes.key} sizes", flush=True)
        doc[sizes.key] = {
            "manufactured": chosen_pairs(workloads.ManufacturedSelect(RECORD_SEED, sizes)),
            "elliptic": chosen_pairs(workloads.EllipticSelect(RECORD_SEED, sizes)),
            "reference": reference(sizes, prob),
        }
    workloads.BASELINE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {workloads.BASELINE_PATH}")


if __name__ == "__main__":
    main()
