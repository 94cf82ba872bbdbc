"""Checks of the benchmark itself, on smoke-sized inputs.

    python3 -m pytest perfbench -q

The tier-1 suite does not collect these (its testpaths is tests/).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from seprep import model, problems, selection  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def smoke(name):
    return workloads.make(name, 0, smoke=True)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_passes_its_checks(name):
    run, metrics, _ = workloads.measure(smoke(name), seconds=0.0)
    assert run.failed == 0, run.failures
    assert run.attempted >= 1
    assert set(metrics) == {"setup_s", "op_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_and_matches_untraced(name):
    run, metrics, traced = workloads.measure_traced(smoke(name))
    assert run.failed == 0, run.failures  # includes the traced == untraced check
    assert set(metrics) == set(tracing.UNITS)
    _, _, plain = workloads.measure(smoke(name), seconds=0.0)
    for key in ("chosen", "holdout_rel_rmse", "mean", "std"):
        assert traced.get(key) == plain.get(key)


def test_layer_counts_repeat_exactly():
    _, first, report = workloads.measure_traced(smoke("manufactured-select"))
    second = workloads.measure_traced(smoke("manufactured-select"))[1]
    for key in ("als.direction_solves", "selection.fit_fixed_calls", "basis.eval_calls"):
        assert first[key] == second[key] > 0
    assert first["als.sweeps"] == first["als.direction_solves"] / 10
    assert first["problems.fem_solves"] == 0
    assert report["direction_solves_by_op"] == {"select-0": first["als.direction_solves"]}


def test_target_that_no_longer_exists_reads_zero():
    targets = [t if t[1] != "TikhonovPath" else (t[0], "InlinedAway", *t[2:])
               for t in tracing.TARGETS]
    run, metrics, _ = workloads.measure_traced(smoke("manufactured-select"), targets=targets)
    assert run.failed == 0, run.failures
    assert metrics["als.direction_solves"] == 0
    assert metrics["regularize.path_s"] == 0.0
    assert metrics["regularize.gcv_s"] > 0.0


def test_changed_selection_counts_as_failed(monkeypatch):
    real = selection.select_model

    def perturbed(*args, **kwargs):
        report = real(*args, **kwargs)
        report.chosen = next(p for p in report.grid if p != report.chosen)
        return report

    monkeypatch.setattr(selection, "select_model", perturbed)
    run, _, _ = workloads.measure(smoke("manufactured-select"), seconds=0.0)
    assert run.failed == 1
    assert "seed commit chose" in run.failures[0]


def test_perturbed_evaluation_counts_as_failed(monkeypatch):
    real = model.evaluate_batch
    monkeypatch.setattr(model, "evaluate_batch", lambda m, p: real(m, p) * (1.0 + 1e-9))
    run, _, _ = workloads.measure(smoke("surrogate-eval"), seconds=0.0)
    assert run.failed == 2 and run.attempted == 2


def test_perturbed_fem_solve_counts_as_failed(monkeypatch):
    real = problems.elliptic_solve_batch
    monkeypatch.setattr(problems, "elliptic_solve_batch",
                        lambda prob, pts: real(prob, pts) * (1.0 + 1e-8))
    run, _, _ = workloads.measure(smoke("elliptic-reference"), seconds=0.0)
    assert run.failed == run.attempted  # every oracle sample and the statistics


def test_raising_operation_counts_as_failed(monkeypatch):
    def broken(prob, pts):
        raise FloatingPointError("injected")

    monkeypatch.setattr(problems, "elliptic_solve_batch", broken)
    run, _, _ = workloads.measure(smoke("elliptic-reference"), seconds=0.0)
    assert run.failed == run.attempted == 4 + 1


def test_dense_fem_oracle_agrees_with_library():
    prob = problems.elliptic_problem()
    y = np.random.default_rng(7).uniform(-1.0, 1.0, prob.dims)
    want = problems.elliptic_solve_batch(prob, y[None, :])[0]
    assert abs(oracles.fem_dense_solve(prob, y) - want) <= 1e-12 * want


def _run_script(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170, check=False)


def test_script_prints_result_line_last():
    proc = _run_script(HERE.parent, "--workload", "surrogate-eval", "--seed", "3",
                       "--seconds", "0.2", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_script_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_script(tmp_path, "--workload", "surrogate-eval", "--seed", "0",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
