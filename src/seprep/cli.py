"""Experiment driver: dataset I/O, fitting/selection runs, and baselines.

Every run writes machine-readable artifacts (model JSON, selection-report
JSON, error-table CSV) plus the reference statistics the error columns were
computed against, so results are auditable after the fact. Single-threaded
runs are bit-reproducible for identical configs and seeds.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .als import FitConfig
from .basis import Family
from .errors import DatasetFormatError, SeprepError
from .model import (
    SampleSet,
    mean as model_mean,
    model_to_dict,
    standard_deviation,
)
from .problems import (
    MANUFACTURED_MEAN,
    MANUFACTURED_VAR,
    elliptic_problem,
    elliptic_sample,
    elliptic_solve_batch,
    kl_decompose,
    manufactured_sample,
    mc_baseline,
    pc_regression_baseline,
)
from .selection import select_model

__all__ = [
    "ExperimentConfig",
    "read_dataset",
    "write_dataset",
    "cmd_fit",
    "cmd_baselines",
    "cmd_sample",
    "cmd_select",
    "cmd_kl_info",
    "main",
]

logger = logging.getLogger(__name__)

ERROR_COLUMNS = [
    "N", "seed", "r", "M", "mean_est", "std_est",
    "mean_rel_err", "std_rel_err", "ei_max", "wall_time_s",
]


@dataclass
class ExperimentConfig:
    """One experiment: problem, sample sizes, seeds, grids, and output layout."""

    problem: str = "manufactured"
    sample_sizes: list = field(default_factory=lambda: [1000])
    r_grid: list = field(default_factory=lambda: [1, 2, 3, 4, 5])
    m_grid: list = field(default_factory=lambda: [1, 2, 3, 4])
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    l_identity: bool = False
    output_dir: str = "out"
    noisy: bool = True
    dataset: str | None = None
    family: str | None = None
    ref_file: str | None = None
    ref_samples: int = 200000
    ref_seed: int = 987654321
    pc_degree: int = 3
    threads: int = 1
    force: bool = False

    def __post_init__(self):
        if self.problem not in ("manufactured", "elliptic", "external-dataset"):
            raise ValueError(f"unknown problem {self.problem!r}")
        for name in ("sample_sizes", "r_grid", "m_grid", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if any(n <= 0 for n in self.sample_sizes):
            raise ValueError("sample sizes must be positive")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    def fit_config(self, degree: int, seed: int) -> FitConfig:
        return FitConfig(
            rank_max=max(self.r_grid),
            degree=degree,
            l_identity=self.l_identity,
            rng_seed=seed,
        )


def config_hash(config: ExperimentConfig) -> str:
    doc = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Dataset CSV I/O
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_dataset(path, data: SampleSet) -> None:
    """CSV with header y1..yd,u; 17 significant digits for lossless round trips."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"y{k + 1}" for k in range(data.dims)] + ["u"])
        for row, out in zip(data.inputs, data.outputs):
            writer.writerow([_fmt(v) for v in row] + [_fmt(out)])


def read_dataset(path, family: Family | str) -> SampleSet:
    """Parse a dataset CSV; malformed content fails with a line reference."""
    path = Path(path)
    family = Family(family)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        d = len(header) - 1
        expected = [f"y{k + 1}" for k in range(d)] + ["u"]
        if d < 1 or header != expected:
            for got, want in zip(header, expected):
                if got != want:
                    raise DatasetFormatError(
                        f"{path}: bad header column {got!r}, expected {want!r}"
                    )
            raise DatasetFormatError(f"{path}: malformed header {header!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}"
                )
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in vals):
                raise DatasetFormatError(
                    f"{path}:{lineno}: non-finite value in data row {lineno - 2}"
                )
            rows.append(vals)
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    arr = np.array(rows)
    return SampleSet(arr[:, :-1], arr[:, -1], family)


# ---------------------------------------------------------------------------
# Shared run plumbing
# ---------------------------------------------------------------------------


def _require_fresh(paths, force: bool):
    clashes = [str(p) for p in paths if Path(p).exists()]
    if clashes and not force:
        raise FileExistsError(
            f"refusing to overwrite existing outputs (use --force): {', '.join(clashes)}"
        )


def _write_rows(path, rows):
    for row in rows:
        bad = set(row) - set(ERROR_COLUMNS)
        if bad or len(row) != len(ERROR_COLUMNS):
            raise ValueError(f"row violates the error-table schema: {sorted(row)}")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=ERROR_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _row(N, seed, r="", M="", mean_est=None, std_est=None,
         mean_rel=None, std_rel=None, ei="", wall=0.0):
    def opt(v):
        return "" if v is None else _fmt(v)

    return {
        "N": N, "seed": seed, "r": r, "M": M,
        "mean_est": opt(mean_est), "std_est": opt(std_est),
        "mean_rel_err": opt(mean_rel), "std_rel_err": opt(std_rel),
        "ei_max": ei if ei == "" else _fmt(ei),
        "wall_time_s": _fmt(wall),
    }


class _Reference:
    def __init__(self, mean, std, stderr_mean, stderr_std, source, n=None, seed=None):
        self.mean = mean
        self.std = std
        self.stderr_mean = stderr_mean
        self.stderr_std = stderr_std
        self.source = source
        self.n = n
        self.seed = seed

    def to_dict(self):
        return {
            "mean": self.mean, "std": self.std,
            "stderr_mean": self.stderr_mean, "stderr_std": self.stderr_std,
            "source": self.source, "n": self.n, "seed": self.seed,
        }


def _load_reference(path) -> _Reference:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return _Reference(
        doc["mean"], doc["std"], doc["stderr_mean"], doc["stderr_std"],
        doc.get("source", "file"), doc.get("n"), doc.get("seed"),
    )


def _problem_context(config: ExperimentConfig, need_reference: bool = True):
    """Returns (sampler(N, seed) -> SampleSet, reference or None)."""
    if config.problem == "manufactured":
        ref = _Reference(
            MANUFACTURED_MEAN, math.sqrt(MANUFACTURED_VAR), 0.0, 0.0, "analytic"
        )

        def sampler(n, seed):
            return manufactured_sample(n, seed, noisy=config.noisy)

        return sampler, ref
    if config.problem == "elliptic":
        problem = elliptic_problem()
        ref = None
        if need_reference and config.ref_file:
            ref = _load_reference(config.ref_file)
        elif need_reference:
            logger.info(
                "computing elliptic Monte Carlo reference (n=%d)", config.ref_samples
            )
            rng = np.random.default_rng(config.ref_seed)

            def ref_sampler(n, seed):
                del seed
                return elliptic_solve_batch(
                    problem, rng.uniform(-1.0, 1.0, (n, problem.dims))
                )

            mc = mc_baseline(ref_sampler, config.ref_samples, config.ref_seed)
            ref = _Reference(
                mc.mean, mc.std, mc.stderr_mean, mc.stderr_std,
                "monte-carlo", mc.n, config.ref_seed,
            )

        def sampler(n, seed):
            return elliptic_sample(problem, n, seed)

        return sampler, ref
    if not config.dataset or not config.family:
        raise ValueError("external-dataset runs need both dataset and family set")
    data = read_dataset(config.dataset, config.family)
    ref = _Reference(float("nan"), float("nan"), 0.0, 0.0, "none")

    def sampler(n, seed):
        del seed
        if n != data.n:
            raise ValueError(f"external dataset has N={data.n}, requested {n}")
        return data

    return sampler, ref


def _select_task(config, sampler, n, seed):
    t0 = time.perf_counter()
    data = sampler(n, seed)
    report = None
    error = None
    try:
        fit_cfg = config.fit_config(degree=max(config.m_grid), seed=seed)
        report = select_model(data, config.r_grid, config.m_grid, fit_cfg)
    except SeprepError as exc:
        error = str(exc)
    return report, error, time.perf_counter() - t0


def cmd_fit(config: ExperimentConfig) -> int:
    """Run EI-based selection per (N, seed); write models, reports, and errors.csv."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    targets = [out / "errors.csv", out / "reference.json", out / "run_info.json"]
    tasks = [(n, seed) for n in config.sample_sizes for seed in config.seeds]
    for n, seed in tasks:
        targets.append(out / f"model_N{n}_seed{seed}.json")
        targets.append(out / f"selection_N{n}_seed{seed}.json")
    _require_fresh(targets, config.force)
    sampler, ref = _problem_context(config)
    with (out / "reference.json").open("w", encoding="utf-8") as fh:
        json.dump(ref.to_dict(), fh, indent=1)

    with concurrent.futures.ThreadPoolExecutor(max_workers=config.threads) as pool:
        futures = [pool.submit(_select_task, config, sampler, n, seed) for n, seed in tasks]
        results = [fut.result() for fut in futures]

    rows = []
    failures = 0
    for (n, seed), (report, error, wall) in zip(tasks, results):
        if report is None:
            failures += 1
            logger.error("selection failed for N=%d seed=%d: %s", n, seed, error)
            rows.append(_row(n, seed, wall=wall))
            continue
        model = report.chosen_model()
        m_est = model_mean(model)
        s_est = standard_deviation(model)
        r, m = report.chosen
        rows.append(
            _row(
                n, seed, r=r, M=m, mean_est=m_est, std_est=s_est,
                mean_rel=abs(m_est - ref.mean) / abs(ref.mean),
                std_rel=abs(s_est - ref.std) / abs(ref.std),
                ei=report.ei_max[report.chosen], wall=wall,
            )
        )
        with (out / f"model_N{n}_seed{seed}.json").open("w", encoding="utf-8") as fh:
            json.dump(model_to_dict(model), fh, indent=1)
        with (out / f"selection_N{n}_seed{seed}.json").open("w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1)
    _write_rows(out / "errors.csv", rows)
    with (out / "run_info.json").open("w", encoding="utf-8") as fh:
        json.dump(
            {
                "config": dataclasses.asdict(config),
                "config_hash": config_hash(config),
                "seeds": config.seeds,
            },
            fh, indent=1,
        )
    return 2 if failures else 0


def cmd_baselines(config: ExperimentConfig) -> int:
    """Monte Carlo and total-degree regression error curves on the same N grid."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    mc_path = out / "baselines_mc.csv"
    pc_path = out / "baselines_pc.csv"
    _require_fresh([mc_path, pc_path, out / "reference.json"], config.force)
    sampler, ref = _problem_context(config)
    with (out / "reference.json").open("w", encoding="utf-8") as fh:
        json.dump(ref.to_dict(), fh, indent=1)

    mc_rows, pc_rows = [], []
    failures = 0
    for n in config.sample_sizes:
        for seed in config.seeds:
            t0 = time.perf_counter()
            data = sampler(n, seed)
            mc = mc_baseline(lambda k, s, _d=data: _d.outputs[:k], n, seed)
            mc_rows.append(
                _row(
                    n, seed, mean_est=mc.mean, std_est=mc.std,
                    mean_rel=abs(mc.mean - ref.mean) / abs(ref.mean),
                    std_rel=abs(mc.std - ref.std) / abs(ref.std),
                    wall=time.perf_counter() - t0,
                )
            )
            t0 = time.perf_counter()
            try:
                _, pm, ps = pc_regression_baseline(data, config.pc_degree)
                pc_rows.append(
                    _row(
                        n, seed, M=config.pc_degree, mean_est=pm, std_est=ps,
                        mean_rel=abs(pm - ref.mean) / abs(ref.mean),
                        std_rel=abs(ps - ref.std) / abs(ref.std),
                        wall=time.perf_counter() - t0,
                    )
                )
            except SeprepError as exc:
                failures += 1
                logger.error("regression baseline failed at N=%d seed=%d: %s", n, seed, exc)
                pc_rows.append(_row(n, seed, M=config.pc_degree, wall=time.perf_counter() - t0))
    _write_rows(mc_path, mc_rows)
    _write_rows(pc_path, pc_rows)
    return 2 if failures else 0


def cmd_sample(config: ExperimentConfig, n: int, seed: int, path) -> int:
    """Generate one dataset CSV for the configured problem."""
    _require_fresh([path], config.force)
    sampler, _ = _problem_context(config, need_reference=False)
    write_dataset(path, sampler(n, seed))
    return 0


def cmd_select(config: ExperimentConfig) -> int:
    """EI-based selection on an external dataset; writes report and model JSON."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "selection.json"
    model_path = out / "model.json"
    _require_fresh([report_path, model_path], config.force)
    data = read_dataset(config.dataset, config.family)
    fit_cfg = config.fit_config(degree=max(config.m_grid), seed=config.seeds[0])
    report = select_model(data, config.r_grid, config.m_grid, fit_cfg)
    with report_path.open("w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1)
    with model_path.open("w", encoding="utf-8") as fh:
        json.dump(model_to_dict(report.chosen_model()), fh, indent=1)
    print(f"chosen (r, M) = {report.chosen}")
    return 0


def cmd_kl_info(corr_length: float, dims: int, n_grid: int, out_path=None) -> int:
    """Summarize the covariance eigen-decomposition used by the elliptic problem."""
    kl = kl_decompose(corr_length, dims, n_grid)
    captured = float(kl.eigenvalues.sum() / kl.total_trace)
    print(f"correlation length: {corr_length}")
    print(f"modes kept: {dims} of {n_grid}")
    print(f"eigenvalue 1: {kl.eigenvalues[0]:.6e}")
    print(f"eigenvalue {dims}: {kl.eigenvalues[-1]:.6e}")
    print(f"captured energy: {captured:.9f}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "corr_length": corr_length,
                    "dims": dims,
                    "n_grid": n_grid,
                    "eigenvalues": kl.eigenvalues.tolist(),
                    "captured_energy": captured,
                },
                fh, indent=1,
            )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def _add_common(parser):
    parser.add_argument("--config", help="JSON experiment config; flags override it")
    parser.add_argument("--problem", choices=["manufactured", "elliptic", "external-dataset"])
    parser.add_argument("--n", type=_int_list, help="comma-separated sample sizes")
    parser.add_argument("--seeds", type=_int_list, help="comma-separated seeds")
    parser.add_argument("--r-max", type=int, help="rank grid becomes 1..r_max")
    parser.add_argument("--m-grid", type=_int_list, help="comma-separated degrees")
    parser.add_argument("--l-identity", action="store_true",
                        help="use the diag-scale comparison penalty")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--dataset", help="external dataset CSV path")
    parser.add_argument("--family", choices=["hermite", "legendre"])
    parser.add_argument("--ref-file", help="JSON reference statistics")
    parser.add_argument("--ref-samples", type=int)
    parser.add_argument("--pc-degree", type=int)
    parser.add_argument("--no-noise", action="store_true",
                        help="disable observation noise for the manufactured problem")


def _build_config(args) -> ExperimentConfig:
    doc = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}")
    overrides = {
        "problem": args.problem,
        "sample_sizes": args.n,
        "seeds": args.seeds,
        "m_grid": args.m_grid,
        "output_dir": args.out,
        "threads": args.threads,
        "dataset": args.dataset,
        "family": args.family,
        "ref_file": args.ref_file,
        "ref_samples": args.ref_samples,
        "pc_degree": args.pc_degree,
    }
    if args.r_max is not None:
        overrides["r_grid"] = list(range(1, args.r_max + 1))
    if args.l_identity:
        overrides["l_identity"] = True
    if args.force:
        overrides["force"] = True
    if args.no_noise:
        overrides["noisy"] = False
    doc.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**doc)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="seprep",
        description="Fit low-rank separated surrogates and reproduce the benchmark studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="EI-selected fits per (N, seed) with error tables")
    _add_common(p_fit)
    p_sel = sub.add_parser("select", help="rank/degree selection on an external dataset")
    _add_common(p_sel)
    p_base = sub.add_parser("baselines", help="Monte Carlo and regression baselines")
    _add_common(p_base)
    p_samp = sub.add_parser("sample", help="generate a dataset CSV")
    _add_common(p_samp)
    p_samp.add_argument("--sample-n", type=int, required=True)
    p_samp.add_argument("--sample-seed", type=int, default=0)
    p_samp.add_argument("--sample-out", required=True)
    p_kl = sub.add_parser("kl-info", help="covariance eigen-decomposition summary")
    p_kl.add_argument("--corr-length", type=float, default=1.0 / 14.0)
    p_kl.add_argument("--dims", type=int, default=40)
    p_kl.add_argument("--n-grid", type=int, default=512)
    p_kl.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "kl-info":
            return cmd_kl_info(args.corr_length, args.dims, args.n_grid, args.out)
        config = _build_config(args)
        if args.command == "fit":
            return cmd_fit(config)
        if args.command == "select":
            return cmd_select(config)
        if args.command == "baselines":
            return cmd_baselines(config)
        if args.command == "sample":
            return cmd_sample(config, args.sample_n, args.sample_seed, args.sample_out)
        parser.error(f"unknown command {args.command}")
    except (SeprepError, FileExistsError, FileNotFoundError, ValueError) as exc:
        logger.error("%s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
