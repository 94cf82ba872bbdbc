"""Experiment driver: dataset I/O, fitting/selection runs, and baselines.

Every run writes machine-readable artifacts (model JSON, selection-report
JSON, error-table CSV) plus the reference statistics the error columns were
computed against, so results are auditable after the fact. Runs are
bit-reproducible for identical configs and seeds, whether a selection fits
its degrees inline or in forked workers (see selection._fit_degrees), and
elliptic runs only at the same BLAS thread count: the 512 x 512 eigh in
kl_decompose rounds by thread count (manufactured runs did not move). So
fit's run_info.json records the BLAS and the thread count its environment
variables ask for (null when none is set), beside the config.
"""
from __future__ import annotations

import argparse
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

from .als import _PENALTIES as _FIT_PENALTIES, FitConfig
from .basis import Family, _check_count, _check_domain
from .errors import DatasetFormatError, DomainError, SeprepError
from .model import (
    SampleSet,
    _blas,
    mean as model_mean,
    model_to_dict,
    standard_deviation,
)
from .problems import (
    MANUFACTURED_MEAN,
    MANUFACTURED_VAR,
    EllipticProblem,
    elliptic_sample,
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


# smallest allowed entry of each list field, and smallest value of each integer field
_LIST_MINIMA = {"sample_sizes": 1, "r_grid": 1, "m_grid": 0, "seeds": 0}
_INT_MINIMA = {"ref_samples": 2, "pc_degree": 0}
_PENALTIES = tuple(p for p in _FIT_PENALTIES if p != "none")  # selection needs a penalty
_REF_SEED = 987654321  # seed of the elliptic Monte Carlo reference


@dataclass
class ExperimentConfig:
    """One experiment: problem, sample sizes, seeds, grids, and output layout."""

    problem: str = "manufactured"
    sample_sizes: list = field(default_factory=lambda: [1000])
    r_grid: list = field(default_factory=lambda: [1, 2, 3, 4, 5])
    m_grid: list = field(default_factory=lambda: [1, 2, 3, 4])
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    penalty: str = "second_moment"
    output_dir: str = "out"
    noisy: bool = True
    dataset: str | None = None
    family: str | None = None
    ref_file: str | None = None
    ref_samples: int = 200000
    pc_degree: int = 3
    force: bool = False

    def __post_init__(self):
        if self.problem not in ("manufactured", "elliptic", "external-dataset"):
            raise ValueError(f"unknown problem {self.problem!r}")
        # counts are stored as Python ints, so the config stays JSON-serializable
        for name, least in _LIST_MINIMA.items():
            values = getattr(self, name)
            if not (isinstance(values, list) and values):
                raise ValueError(
                    f"{name} must be a non-empty list of integers >= {least}, got {values!r}"
                )
            setattr(self, name, [_check_count(name, v, least) for v in values])
        for name, least in _INT_MINIMA.items():
            setattr(self, name, _check_count(name, getattr(self, name), least))
        if self.penalty not in _PENALTIES:
            raise ValueError(f"penalty must be one of {_PENALTIES} (selection needs a "
                             f"regularized fit), got {self.penalty!r}")
        for name in ("noisy", "force"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        for name in ("dataset", "family", "ref_file"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a string or null, got {getattr(self, name)!r}")

    def fit_config(self, seed: int) -> FitConfig:
        return FitConfig(
            rank_max=max(self.r_grid),
            degree=max(self.m_grid),
            penalty=self.penalty,
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
        rows, linenos = [], []
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
            linenos.append(lineno)
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    arr = np.array(rows)
    try:
        return SampleSet(arr[:, :-1], arr[:, -1], family)
    except DomainError:
        # the whole-array check failed: re-check row by row to name the first bad line
        for lineno, inputs in zip(linenos, arr[:, :-1]):
            try:
                _check_domain(family, inputs)
            except DomainError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
        raise


# ---------------------------------------------------------------------------
# Shared run plumbing
# ---------------------------------------------------------------------------


def _require_fresh(paths, force: bool):
    clashes = [str(p) for p in paths if Path(p).exists()]
    if clashes and not force:
        raise FileExistsError(
            f"refusing to overwrite existing outputs (use --force): {', '.join(clashes)}"
        )


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _write_rows(path, rows):
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=ERROR_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


@dataclass
class _Reference:
    mean: float
    std: float
    stderr_mean: float
    stderr_std: float
    source: str
    n: int | None = None
    seed: int | None = None


def _row(N, seed, ref: _Reference, r="", M="", mean_est=None, std_est=None, ei="", wall=0.0):
    """One error-table row; a row without estimates records a failure."""
    def opt(v):
        return "" if v is None else _fmt(v)

    def rel(est, exact):
        return None if est is None or exact == 0.0 else abs(est - exact) / abs(exact)

    return {
        "N": N, "seed": seed, "r": r, "M": M,
        "mean_est": opt(mean_est), "std_est": opt(std_est),
        "mean_rel_err": opt(rel(mean_est, ref.mean)),
        "std_rel_err": opt(rel(std_est, ref.std)),
        "ei_max": ei if ei == "" else _fmt(ei),
        "wall_time_s": _fmt(wall),
    }


def _load_reference(path) -> _Reference:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    stats = ("mean", "std", "stderr_mean", "stderr_std")
    bad = [k for k in stats if not isinstance(doc, dict) or isinstance(doc.get(k), bool)
           or not isinstance(doc.get(k), (int, float)) or not math.isfinite(doc[k])]
    if bad:
        raise ValueError(f"{path}: reference lacks finite numeric values for {bad}")
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(_Reference)})
    if unknown:
        raise ValueError(f"{path}: unknown reference keys {unknown}")
    source = doc.get("source", "file")
    if not isinstance(source, str):
        raise ValueError(f"{path}: reference source must be a string, got {source!r}")
    try:
        n, seed = (None if doc.get(k) is None else _check_count(k, doc[k], least)
                   for k, least in (("n", _INT_MINIMA["ref_samples"]), ("seed", 0)))
    except ValueError as exc:
        raise ValueError(f"{path}: reference {exc}") from None
    return _Reference(*(doc[k] for k in stats), source, n, seed)


def _external_dataset(config: ExperimentConfig) -> SampleSet:
    if not config.dataset or not config.family:
        raise ValueError("external-dataset runs need both dataset and family set")
    return read_dataset(config.dataset, config.family)


def _problem_context(config: ExperimentConfig, sizes):
    """Returns (sampler(N, seed) -> SampleSet, reference() -> _Reference).

    An external dataset is checked against the sample sizes N the run will request.
    """
    if config.problem == "manufactured":
        return (
            lambda n, seed: manufactured_sample(n, seed, noisy=config.noisy),
            lambda: _Reference(
                MANUFACTURED_MEAN, math.sqrt(MANUFACTURED_VAR), 0.0, 0.0, "analytic"
            ),
        )
    if config.problem == "elliptic":
        problem = EllipticProblem()

        def reference():
            if config.ref_file:
                return _load_reference(config.ref_file)
            logger.info("computing elliptic Monte Carlo reference (n=%d)", config.ref_samples)
            mc = mc_baseline(lambda n, s: elliptic_sample(problem, n, s).outputs,
                             config.ref_samples, _REF_SEED)
            return _Reference(
                mc.mean, mc.std, mc.stderr_mean, mc.stderr_std,
                "monte-carlo", mc.n, _REF_SEED,
            )

        return (lambda n, seed: elliptic_sample(problem, n, seed)), reference
    data = _external_dataset(config)
    if any(n != data.n for n in sizes):
        raise ValueError(f"external dataset has N={data.n}, requested {sizes}")
    nan = float("nan")
    return (lambda n, seed: data), (lambda: _Reference(nan, nan, 0.0, 0.0, "none"))


def _start_run(config: ExperimentConfig, names):
    """Refuses clashing outputs and bad inputs, then writes reference.json.

    Returns (output dir, sampler, reference); nothing is written before the checks pass.
    """
    out = Path(config.output_dir)
    _require_fresh([out / "reference.json"] + [out / name for name in names], config.force)
    sampler, reference = _problem_context(config, config.sample_sizes)
    ref = reference()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "reference.json", dataclasses.asdict(ref))
    return out, sampler, ref


def cmd_fit(config: ExperimentConfig) -> int:
    """Run EI-based selection per (N, seed); write models, reports, and errors.csv."""
    tasks = [(n, seed) for n in config.sample_sizes for seed in config.seeds]
    names = ["errors.csv", "run_info.json"] + [
        f"{kind}_N{n}_seed{seed}.json" for n, seed in tasks for kind in ("model", "selection")
    ]
    out, sampler, ref = _start_run(config, names)

    rows = []
    failures = 0
    for n, seed in tasks:
        t0 = time.perf_counter()
        data = sampler(n, seed)
        try:
            report = select_model(data, config.r_grid, config.m_grid, config.fit_config(seed))
        except SeprepError as exc:
            failures += 1
            logger.error("selection failed for N=%d seed=%d: %s", n, seed, exc)
            rows.append(_row(n, seed, ref, wall=time.perf_counter() - t0))
            continue
        wall = time.perf_counter() - t0
        model = report.chosen_model()
        r, m = report.chosen
        rows.append(
            _row(
                n, seed, ref, r=r, M=m,
                mean_est=model_mean(model), std_est=standard_deviation(model),
                ei=report.ei_max[report.chosen], wall=wall,
            )
        )
        _write_json(out / f"model_N{n}_seed{seed}.json", model_to_dict(model))
        _write_json(out / f"selection_N{n}_seed{seed}.json", report.to_dict())
    _write_rows(out / "errors.csv", rows)
    _write_json(out / "run_info.json", {
        "config": dataclasses.asdict(config), "config_hash": config_hash(config), **_blas(),
    })
    return 2 if failures else 0


def cmd_baselines(config: ExperimentConfig) -> int:
    """Monte Carlo and total-degree regression error curves on the same N grid."""
    out, sampler, ref = _start_run(config, ["baselines_mc.csv", "baselines_pc.csv"])

    mc_rows, pc_rows = [], []
    failures = 0
    for n in config.sample_sizes:
        for seed in config.seeds:
            t0 = time.perf_counter()
            data = sampler(n, seed)
            mc = mc_baseline(lambda k, s, _d=data: _d.outputs[:k], n, seed)
            mc_rows.append(
                _row(n, seed, ref, mean_est=mc.mean, std_est=mc.std,
                     wall=time.perf_counter() - t0)
            )
            t0 = time.perf_counter()
            try:
                _, pm, ps = pc_regression_baseline(data, config.pc_degree)
                pc_rows.append(
                    _row(n, seed, ref, M=config.pc_degree, mean_est=pm, std_est=ps,
                         wall=time.perf_counter() - t0)
                )
            except SeprepError as exc:
                failures += 1
                logger.error("regression baseline failed at N=%d seed=%d: %s", n, seed, exc)
                pc_rows.append(
                    _row(n, seed, ref, M=config.pc_degree, wall=time.perf_counter() - t0)
                )
    _write_rows(out / "baselines_mc.csv", mc_rows)
    _write_rows(out / "baselines_pc.csv", pc_rows)
    return 2 if failures else 0


def cmd_sample(config: ExperimentConfig, n: int, seed: int, path) -> int:
    """Generate one dataset CSV for the configured problem."""
    _require_fresh([path], config.force)
    sampler, _ = _problem_context(config, [n])
    write_dataset(path, sampler(n, seed))
    return 0


def cmd_select(config: ExperimentConfig) -> int:
    """EI-based selection on an external dataset; writes report and model JSON."""
    out = Path(config.output_dir)
    _require_fresh([out / "selection.json", out / "model.json"], config.force)
    data = _external_dataset(config)
    report = select_model(data, config.r_grid, config.m_grid, config.fit_config(config.seeds[0]))
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "selection.json", report.to_dict())
    _write_json(out / "model.json", model_to_dict(report.chosen_model()))
    print(f"chosen (r, M) = {report.chosen}")
    return 0


def cmd_kl_info(dims: int, out_path=None) -> int:
    """Summarize the KL expansion of EllipticProblem(dims=dims), whose grid and length are fixed."""
    kl = EllipticProblem(dims=dims).kl
    captured = float(kl.eigenvalues.sum() / kl.total_trace)
    print(f"correlation length: {kl.corr_length}")
    print(f"modes kept: {dims} of {kl.nodes.size}")
    print(f"eigenvalue 1: {kl.eigenvalues[0]:.6e}")
    print(f"eigenvalue {dims}: {kl.eigenvalues[-1]:.6e}")
    print(f"captured energy: {captured:.9f}")
    if out_path:
        _write_json(out_path, {
            "corr_length": kl.corr_length, "dims": dims, "n_grid": kl.nodes.size,
            "eigenvalues": kl.eigenvalues.tolist(), "captured_energy": captured,
        })
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def _rank_grid(text):
    return list(range(1, int(text) + 1))


# add_argument keywords of each flag of fit, select, baselines and sample, by name
_FLAGS = {
    "--config": dict(help="JSON experiment config; flags override it"),
    "--problem": dict(choices=["manufactured", "elliptic", "external-dataset"]),
    "--n": dict(dest="sample_sizes", type=_int_list, help="comma-separated sample sizes"),
    "--seeds": dict(type=_int_list, help="comma-separated seeds"),
    "--r-max": dict(dest="r_grid", type=_rank_grid, help="rank grid becomes 1..r_max"),
    "--m-grid": dict(type=_int_list, help="comma-separated degrees"),
    "--penalty": dict(choices=_PENALTIES,
                      help="Tikhonov penalty: the surrogate's second moment (default) "
                           "or the diag-scale comparison penalty"),
    "--out": dict(dest="output_dir", help="output directory"),
    "--force": dict(action="store_true", help="overwrite existing outputs"),
    "--dataset": dict(help="external dataset CSV path"),
    "--family": dict(choices=["hermite", "legendre"]),
    "--ref-file": dict(help="JSON reference statistics"),
    "--ref-samples": dict(type=int),
    "--pc-degree": dict(type=int),
    "--no-noise": dict(dest="noisy", action="store_false",
                       help="disable observation noise for the manufactured problem"),
    "--sample-n": dict(type=int, required=True),
    "--sample-seed": dict(type=int, default=0),
    "--sample-out": dict(required=True),
}

# each subcommand's help and the flags its code reads; absent flags leave their field alone
_COMMANDS = {
    "fit": ("EI-selected fits per (N, seed) with error tables",
            "--config --problem --n --seeds --r-max --m-grid --penalty --out --force --dataset "
            "--family --ref-file --ref-samples --no-noise"),
    "select": ("rank/degree selection on an external dataset",
               "--config --seeds --r-max --m-grid --penalty --out --force --dataset --family"),
    "baselines": ("Monte Carlo and regression baselines",
                  "--config --problem --n --seeds --out --force --dataset --family --ref-file "
                  "--ref-samples --pc-degree --no-noise"),
    "sample": ("generate a dataset CSV",
               "--config --problem --force --dataset --family --no-noise --sample-n "
               "--sample-seed --sample-out"),
}


def _build_config(args) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    doc = {}
    if "config" in args:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(doc) - fields)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}")
    doc.update((k, v) for k, v in vars(args).items() if k in fields)
    return ExperimentConfig(**doc)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="seprep",
        description="Fit low-rank separated surrogates and reproduce the benchmark studies",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (help_text, flags) in _COMMANDS.items():
        p = parsers[name] = sub.add_parser(name, help=help_text, allow_abbrev=False,
                                           argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    p_kl = parsers["kl-info"] = sub.add_parser("kl-info", allow_abbrev=False,
                                               help="covariance eigen-decomposition summary")
    p_kl.add_argument("--dims", type=int, default=EllipticProblem.dims)
    p_kl.add_argument("--out", default=None)

    args, unread = parser.parse_known_args(argv)
    if unread:  # refused with the usage line of the subcommand that does not read them
        parsers[args.command].error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        if args.command == "kl-info":
            return cmd_kl_info(args.dims, args.out)
        config = _build_config(args)
        if args.command == "fit":
            return cmd_fit(config)
        if args.command == "select":
            return cmd_select(config)
        if args.command == "baselines":
            return cmd_baselines(config)
        return cmd_sample(config, args.sample_n, args.sample_seed, args.sample_out)
    except (SeprepError, OSError, ValueError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
