import csv
import json
import logging
import math
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import pytest

from seprep import cli
from seprep import model as model_module
from seprep.basis import Family
from seprep.cli import (
    ERROR_COLUMNS,
    ExperimentConfig,
    cmd_baselines,
    config_hash,
    cmd_fit,
    main,
    read_dataset,
    write_dataset,
)
from seprep.errors import DatasetFormatError, InvariantError
from seprep.model import SampleSet
from seprep.problems import (
    EllipticProblem,
    elliptic_solve_batch,
    manufactured_sample,
    mc_baseline,
)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_dataset_round_trip_bit_exact(tmp_path):
    data = manufactured_sample(50, seed=0)
    path = tmp_path / "d.csv"
    write_dataset(path, data)
    back = read_dataset(path, Family.HERMITE)
    assert np.array_equal(back.inputs, data.inputs)
    assert np.array_equal(back.outputs, data.outputs)


def test_dataset_header_mismatch(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y1,z2,u\n0.0,0.0,1.0\n")
    with pytest.raises(DatasetFormatError, match="'z2'"):
        read_dataset(path, Family.HERMITE)


def test_dataset_rejects_nan(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y1,y2,u\n0.0,0.0,1.0\n0.5,nan,2.0\n")
    with pytest.raises(DatasetFormatError, match=":3"):
        read_dataset(path, Family.HERMITE)


def test_dataset_bad_field_count(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y1,y2,u\n0.0,0.0\n")
    with pytest.raises(DatasetFormatError, match="expected 3 fields"):
        read_dataset(path, Family.HERMITE)


@pytest.mark.parametrize("text, named", [
    ("", "empty file"),
    ("u\n1.0\n", r"malformed header \['u'\]"),
    ("y1,u\n", "no data rows"),
    ("y1,u\n0.5,1.0\n\n0.5,abc\n", r"d\.csv:4: could not convert string to float: 'abc'"),
], ids=["empty", "no-inputs", "header-only", "non-numeric"])
def test_dataset_refusals_name_the_fault(tmp_path, text, named):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(DatasetFormatError, match=named):
        read_dataset(path, Family.HERMITE)


def test_dataset_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y1,u\n\n0.1,1.0\n\n\n0.2,2.0\n\n")
    data = read_dataset(path, Family.HERMITE)
    assert np.array_equal(data.inputs, [[0.1], [0.2]])
    assert np.array_equal(data.outputs, [1.0, 2.0])


def test_sample_command_writes_dataset(tmp_path):
    out = tmp_path / "data.csv"
    rc = main([
        "sample", "--problem", "manufactured",
        "--sample-n", "20", "--sample-seed", "3", "--sample-out", str(out),
    ])
    assert rc == 0
    data = read_dataset(out, Family.HERMITE)
    assert data.n == 20 and data.dims == 10


def _small_fit_config(tmp_path, **kw):
    base = dict(
        problem="manufactured",
        sample_sizes=[200],
        seeds=[1],
        r_grid=[1, 2],
        m_grid=[2, 3],
        output_dir=str(tmp_path / "out"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_cmd_fit_writes_all_artifacts(tmp_path):
    config = _small_fit_config(tmp_path)
    assert cmd_fit(config) == 0
    out = Path(config.output_dir)
    rows = _read_rows(out / "errors.csv")
    assert [c for c in rows[0]] == ERROR_COLUMNS
    assert len(rows) == 1
    row = rows[0]
    assert row["N"] == "200" and row["seed"] == "1"
    assert float(row["mean_rel_err"]) < 0.05
    assert math.isfinite(float(row["ei_max"]))
    assert (out / "model_N200_seed1.json").exists()
    assert (out / "selection_N200_seed1.json").exists()
    ref = json.loads((out / "reference.json").read_text())
    assert ref["mean"] == 0.55
    info = json.loads((out / "run_info.json").read_text())
    assert sorted(info) == ["blas", "blas_threads", "config", "config_hash"]
    assert {"blas": info["blas"], "blas_threads": info["blas_threads"]} == model_module._blas()


def test_elliptic_reference_draws_through_elliptic_sample_bit_for_bit():
    # the reference's inputs are elliptic_sample's uniform draw from the
    # reference seed, the same bits as an explicit draw solved in one batch
    config = ExperimentConfig(problem="elliptic", ref_samples=2000)
    ref = cli._problem_context(config, [1])[1]()
    problem = EllipticProblem()
    points = np.random.default_rng(cli._REF_SEED).uniform(-1.0, 1.0, (2000, problem.dims))
    mc = mc_baseline(lambda n, s: elliptic_solve_batch(problem, points), 2000, cli._REF_SEED)
    assert (ref.mean, ref.std, ref.stderr_mean, ref.stderr_std, ref.n, ref.seed) == (
        mc.mean, mc.std, mc.stderr_mean, mc.stderr_std, mc.n, cli._REF_SEED)
    assert ref.source == "monte-carlo"


def test_cmd_fit_invariant_failure_is_a_per_row_failure(tmp_path, monkeypatch):
    import seprep.cli

    real = seprep.cli.select_model

    def failing_for_seed_2(data, r_grid, m_grid, config):
        if config.rng_seed == 2:
            raise InvariantError("residual increased across an unregularized direction solve")
        return real(data, r_grid, m_grid, config)

    monkeypatch.setattr(seprep.cli, "select_model", failing_for_seed_2)
    config = _small_fit_config(tmp_path, seeds=[1, 2])
    assert cmd_fit(config) == 2
    out = Path(config.output_dir)
    rows = {row["seed"]: row for row in _read_rows(out / "errors.csv")}
    assert set(rows) == {"1", "2"}
    assert rows["1"]["r"] and math.isfinite(float(rows["1"]["ei_max"]))
    assert rows["2"]["r"] == "" and rows["2"]["ei_max"] == ""
    assert (out / "model_N200_seed1.json").exists()
    assert not (out / "model_N200_seed2.json").exists()


def test_cmd_fit_a_dead_fit_worker_is_a_per_row_failure(tmp_path, monkeypatch, caplog):
    # a selection worker that dies (killed by the OOM killer, say) on seed 2
    # fails that row only, with its degree named: seed 1 is written in full
    import seprep.selection

    monkeypatch.setattr(seprep.selection, "_usable_cpus", lambda: 2)
    real, caller = seprep.selection._fit_degree, os.getpid()

    def dying_for_seed_2(data, r_grid, config, m, seed):
        if os.getpid() == caller:
            raise AssertionError("a fit ran in the calling process")
        if config.rng_seed == 2:
            os._exit(1)
        return real(data, r_grid, config, m, seed)

    monkeypatch.setattr(seprep.selection, "_fit_degree", dying_for_seed_2)
    config = _small_fit_config(tmp_path, seeds=[1, 2])
    with caplog.at_level(logging.ERROR, logger="seprep.cli"):
        assert cmd_fit(config) == 2
    assert multiprocessing.active_children() == []
    assert [r.getMessage() for r in caplog.records] == [
        "selection failed for N=200 seed=2: M = 2: a fit worker process ended abruptly "
        "before this degree's fit returned"]
    out = Path(config.output_dir)
    rows = {row["seed"]: row for row in _read_rows(out / "errors.csv")}
    assert set(rows) == {"1", "2"}
    assert rows["1"]["r"] and math.isfinite(float(rows["1"]["ei_max"]))
    assert rows["2"]["r"] == "" and rows["2"]["ei_max"] == ""
    assert (out / "model_N200_seed1.json").exists()
    assert not (out / "model_N200_seed2.json").exists()


def test_cmd_fit_refuses_overwrite_without_force(tmp_path):
    config = _small_fit_config(tmp_path)
    assert cmd_fit(config) == 0
    with pytest.raises(FileExistsError):
        cmd_fit(config)
    config_force = _small_fit_config(tmp_path, force=True)
    assert cmd_fit(config_force) == 0


def test_cmd_fit_deterministic_outputs(tmp_path):
    c1 = _small_fit_config(tmp_path / "a")
    c2 = _small_fit_config(tmp_path / "b")
    assert cmd_fit(c1) == 0
    assert cmd_fit(c2) == 0
    rows1 = _read_rows(Path(c1.output_dir) / "errors.csv")
    rows2 = _read_rows(Path(c2.output_dir) / "errors.csv")
    for r1, r2 in zip(rows1, rows2):
        for col in ERROR_COLUMNS:
            if col != "wall_time_s":
                assert r1[col] == r2[col]
    m1 = (Path(c1.output_dir) / "model_N200_seed1.json").read_bytes()
    m2 = (Path(c2.output_dir) / "model_N200_seed1.json").read_bytes()
    assert m1 == m2


def test_cmd_baselines_mc_decay_rate(tmp_path):
    config = ExperimentConfig(
        problem="manufactured",
        sample_sizes=[500, 2000, 8000],
        seeds=list(range(30)),
        output_dir=str(tmp_path / "base"),
        pc_degree=3,
    )
    rc = cmd_baselines(config)
    assert rc == 0
    rows = _read_rows(Path(config.output_dir) / "baselines_mc.csv")
    by_n = {}
    for row in rows:
        by_n.setdefault(int(row["N"]), []).append(float(row["mean_rel_err"]))
    ns = sorted(by_n)
    med = [np.median(by_n[n]) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(med), 1)[0]
    assert -0.65 <= slope <= -0.35
    pc_rows = _read_rows(Path(config.output_dir) / "baselines_pc.csv")
    assert all(r["M"] == "3" for r in pc_rows)
    big = [r for r in pc_rows if r["N"] == "8000"][0]
    assert float(big["std_rel_err"]) < 0.5  # degree-3 basis misses the 6th-degree term


def test_cmd_baselines_pc_refusal_recorded(tmp_path, caplog):
    config = ExperimentConfig(
        problem="elliptic",
        sample_sizes=[600],
        seeds=[0],
        output_dir=str(tmp_path / "ell"),
        ref_samples=2000,
        pc_degree=3,
    )
    rc = cmd_baselines(config)
    assert rc == 2  # partial failure: the regression baseline refuses N=600
    mc_rows = _read_rows(Path(config.output_dir) / "baselines_mc.csv")
    assert len(mc_rows) == 1
    assert math.isfinite(float(mc_rows[0]["mean_rel_err"]))
    assert math.isfinite(float(mc_rows[0]["std_rel_err"]))
    pc_rows = _read_rows(Path(config.output_dir) / "baselines_pc.csv")
    assert pc_rows[0]["mean_est"] == ""


def test_cli_baselines_dispatch_writes_the_cmd_baselines_rows(tmp_path):
    rc = main(["baselines", "--problem", "manufactured", "--n", "60", "--seeds", "0",
               "--pc-degree", "1", "--out", str(tmp_path / "cli")])
    assert rc == 0
    config = ExperimentConfig(problem="manufactured", sample_sizes=[60], seeds=[0],
                              output_dir=str(tmp_path / "direct"), pc_degree=1)
    assert cmd_baselines(config) == 0
    for name in ("baselines_mc.csv", "baselines_pc.csv"):
        via_cli = _read_rows(tmp_path / "cli" / name)
        direct = _read_rows(tmp_path / "direct" / name)
        assert len(via_cli) == 1 and via_cli[0]["N"] == "60"
        for row in via_cli + direct:
            del row["wall_time_s"]
        assert via_cli == direct
    assert via_cli[0]["M"] == "1"


def test_cli_select_external_dataset(tmp_path):
    data_path = tmp_path / "ext.csv"
    write_dataset(data_path, manufactured_sample(200, seed=5))
    rc = main([
        "select", "--dataset", str(data_path), "--family", "hermite",
        "--r-max", "2", "--m-grid", "2,3", "--seeds", "0",
        "--out", str(tmp_path / "sel"),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "sel" / "selection.json").read_text())
    assert tuple(doc["chosen"]) in {(1, 2), (1, 3), (2, 2), (2, 3)}
    assert (tmp_path / "sel" / "model.json").exists()


def test_dataset_point_outside_the_basis_domain_names_its_line(tmp_path, caplog):
    data_path = tmp_path / "d.csv"
    data_path.write_text("y1,y2,u\n0.5,-0.5,1.0\n0.5,1.5,2.0\n0.5,-1.5,3.0\n")
    rc = main(["select", "--dataset", str(data_path), "--family", "legendre",
               "--r-max", "1", "--m-grid", "1", "--out", str(tmp_path / "sel")])
    assert rc == 1
    assert (f"{data_path}:3: Legendre basis requires inputs in [-1, 1]; got value 1.5"
            in caplog.text)
    assert not (tmp_path / "sel").exists()


# the flags each subcommand reads, and so takes
_SUBCOMMAND_FLAGS = {
    "fit": {"--config", "--problem", "--n", "--seeds", "--r-max", "--m-grid", "--penalty",
            "--out", "--force", "--dataset", "--family", "--ref-file", "--ref-samples",
            "--no-noise"},
    "select": {"--config", "--seeds", "--r-max", "--m-grid", "--penalty", "--out", "--force",
               "--dataset", "--family"},
    "baselines": {"--config", "--problem", "--n", "--seeds", "--out", "--force", "--dataset",
                  "--family", "--ref-file", "--ref-samples", "--pc-degree", "--no-noise"},
    "sample": {"--config", "--problem", "--force", "--dataset", "--family", "--no-noise",
               "--sample-n", "--sample-seed", "--sample-out"},
    "kl-info": {"--dims", "--out"},
}


@pytest.mark.parametrize("command", list(_SUBCOMMAND_FLAGS))
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags - {"--help"} == _SUBCOMMAND_FLAGS[command]


# a command that runs and writes, for each subcommand with flags it does not read
_RUNNABLE = {
    "fit": ["fit", "--n", "60", "--seeds", "0", "--r-max", "1", "--m-grid", "1", "--out", "o"],
    "select": ["select", "--dataset", "d.csv", "--family", "hermite", "--r-max", "1",
               "--m-grid", "1", "--out", "o"],
    "baselines": ["baselines", "--n", "60", "--seeds", "0", "--pc-degree", "1", "--out", "o"],
    "sample": ["sample", "--sample-n", "5", "--sample-out", "o"],
    "kl-info": ["kl-info", "--dims", "4", "--out", "o"],
}
# no subcommand reads --corr-length or --n-grid: the problem's length and grid are fixed
_UNREAD = {"--problem": ["elliptic"], "--n": ["500"], "--seeds": ["7"], "--r-max": ["9"],
           "--m-grid": ["1,2"], "--penalty": ["diag_scale"], "--out": ["ignored"],
           "--ref-file": ["ref.json"], "--ref-samples": ["100"], "--pc-degree": ["4"],
           "--no-noise": [], "--corr-length": ["0.1"], "--n-grid": ["64"]}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in _RUNNABLE for flag in _UNREAD
    if flag not in _SUBCOMMAND_FLAGS[command]
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(
        tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    write_dataset("d.csv", manufactured_sample(60, seed=0))
    with pytest.raises(SystemExit) as exc:
        main(_RUNNABLE[command] + [flag] + _UNREAD[flag])
    assert exc.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]
    # the subcommand's own usage line and error prefix, not the top-level ones
    err = capsys.readouterr().err
    assert err.startswith(f"usage: seprep {command} [-h]")
    assert f"\nseprep {command}: error: unrecognized arguments: " in err
    # without the flag the same command runs and writes its output
    assert main(_RUNNABLE[command]) == 0
    assert (tmp_path / "o").exists()


def test_an_abbreviated_flag_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # argparse's prefix matching would read --n as sample's --no-noise
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--problem", "manufactured", "--sample-n", "3",
              "--sample-out", "a.csv", "--n"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    assert "\nseprep sample: error: unrecognized arguments: --n\n" in capsys.readouterr().err


def test_cli_kl_info(tmp_path, capsys):
    rc = main(["kl-info", "--dims", "10", "--out", str(tmp_path / "kl.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "captured energy" in out
    doc = json.loads((tmp_path / "kl.json").read_text())
    assert len(doc["eigenvalues"]) == 10
    # the summary is of the problem's own expansion, at its fixed length and grid
    assert doc["eigenvalues"] == EllipticProblem(dims=10).kl.eigenvalues.tolist()
    assert (doc["corr_length"], doc["n_grid"]) == (1.0 / 14.0, 512)


def test_cli_kl_info_defaults_are_the_elliptic_problems(capsys):
    assert main(["kl-info"]) == 0
    out = capsys.readouterr().out
    kl = EllipticProblem().kl
    assert f"correlation length: {1.0 / 14.0}" in out
    assert "modes kept: 40 of 512" in out
    assert f"eigenvalue 40: {kl.eigenvalues[-1]:.6e}" in out


def test_cli_bad_config_is_fatal(tmp_path):
    rc = main(["fit", "--problem", "external-dataset", "--out", str(tmp_path / "x")])
    assert rc == 1


@pytest.mark.parametrize("doc, named", [
    ({"problm": "manufactured", "seeds": [0]}, "problm"),
    ([{"problem": "manufactured"}], "JSON object"),
])
def test_cli_bad_config_file_is_fatal(tmp_path, caplog, doc, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    rc = main(["fit", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert named in caplog.text
    assert not (tmp_path / "o").exists()


def test_cli_os_error_is_fatal_without_a_traceback(tmp_path, caplog):
    # reading a directory as the config file raises IsADirectoryError
    rc = main(["fit", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "Is a directory" in caplog.text
    assert not (tmp_path / "o").exists()


# the four statistics of a valid --ref-file
_REF = {"mean": 1.0, "std": 1.0, "stderr_mean": 0.0, "stderr_std": 0.0}


@pytest.mark.parametrize("argv, inputs, named", [
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"], {"mean": 1.0}, "'std'"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"], [1, 2], "'mean'"),
    (["fit", "--config", "in.json"], {"sample_sizes": 5}, "sample_sizes must be"),
    (["baselines", "--config", "in.json"], {"seeds": "0,1"}, "seeds must be"),
    (["fit", "--m-grid", "-1"], None, "m_grid must be"),
    (["select", "--r-max", "1"], None, "need both dataset and family"),
    (["fit", "--problem", "external-dataset", "--dataset", "in.csv", "--family", "hermite",
      "--n", "3,4", "--r-max", "1", "--m-grid", "1"],
     "y1,u\n0.1,1.0\n0.2,2.0\n0.3,3.0\n", "has N=3, requested [3, 4]"),
    (["baselines", "--pc-degree", "-1"], None, "pc_degree must be"),
    (["kl-info", "--dims", "0"], None, "dims must be an integer >= 1, got 0"),
    (["kl-info", "--dims", "-3"], None, "dims must be an integer >= 1, got -3"),
    (["kl-info", "--dims", "129"], None, "dims must be an integer <= 128 (four Nystrom "
                                         "nodes per mode), got 129"),
    (["kl-info", "--dims", "58"], None, "dims must be an integer <= 57 (the KL modes "
                                        "resolved above roundoff), got 58"),
    (["fit", "--config", "in.json"], {"seeds": [True]}, "seeds must be"),
    (["fit", "--config", "in.json"], {"noisy": "no"}, "noisy must be true or false"),
    (["fit", "--config", "in.json"], {"penalty": "none"}, "penalty must be one of"),
    (["fit", "--config", "in.json"], {"force": 1}, "force must be true or false"),
    (["fit", "--config", "in.json"], {"pc_degree": 2.0}, "pc_degree must be"),
    (["fit", "--config", "in.json"], {"ref_samples": 2.5}, "ref_samples must be"),
    (["fit", "--config", "in.json"], {"ref_samples": 1}, "ref_samples must be"),
    # the reference seed is a fixed constant, not a setting: any value is refused
    (["fit", "--config", "in.json"], {"ref_seed": -1}, "unknown config keys ['ref_seed']"),
    (["fit", "--config", "in.json"], {"ref_seed": False}, "unknown config keys ['ref_seed']"),
    (["fit", "--config", "in.json"], {"dataset": 3}, "dataset must be a string"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"],
     {"mean": True, "std": 1.0, "stderr_mean": 0.0, "stderr_std": 0.0}, "'mean'"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"],
     {"mean": 1.0, "std": math.nan, "stderr_mean": 0.0, "stderr_std": 0.0}, "'std'"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"],
     {"mean": 1.0, "std": 1.0, "stderr_mean": math.inf, "stderr_std": 0.0}, "'stderr_mean'"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"], dict(_REF, stdev=3, xs=[]),
     "unknown reference keys ['stdev', 'xs']"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"], dict(_REF, n=2.5),
     "reference n must be an integer >= 2, got 2.5"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"], dict(_REF, n=1),
     "reference n must be an integer >= 2, got 1"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"], dict(_REF, n=True),
     "reference n must be an integer >= 2, got True"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"], dict(_REF, seed="x"),
     "reference seed must be an integer >= 0, got 'x'"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"], dict(_REF, seed=-1),
     "reference seed must be an integer >= 0, got -1"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"], dict(_REF, source=7),
     "reference source must be a string, got 7"),
    (["fit", "--problem", "elliptic", "--ref-file", "in.json"], dict(_REF, source=None),
     "reference source must be a string, got None"),
    (["fit", "--config", "in.json"], {"problem": "heat"}, "unknown problem 'heat'"),
], ids=["ref-missing-keys", "ref-not-object", "sizes-not-list", "seeds-string",
        "negative-degree", "select-no-dataset", "dataset-size-mismatch",
        "negative-pc-degree", "kl-zero-dims", "kl-negative-dims", "kl-too-many-dims",
        "kl-unresolved-dims",
        "seed-bool", "noisy-string", "penalty-none", "force-int", "pc-degree-float",
        "ref-samples-float", "ref-samples-one", "ref-seed-negative", "ref-seed-bool",
        "dataset-number", "ref-bool", "ref-nan", "ref-inf", "ref-unknown-keys",
        "ref-n-fraction", "ref-n-one", "ref-n-bool", "ref-file-seed-string",
        "ref-file-seed-negative", "ref-source-number", "ref-source-null", "problem-unknown"])
def test_cli_bad_input_is_fatal_before_any_output(tmp_path, caplog, argv, inputs, named):
    if isinstance(inputs, str):
        (tmp_path / "in.csv").write_text(inputs)
    elif inputs is not None:
        (tmp_path / "in.json").write_text(json.dumps(inputs))
    argv = [str(tmp_path / a) if a in ("in.json", "in.csv") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert named in caplog.text
    assert not (tmp_path / "o").exists()


# the least value of each count field; the first four are lists of counts
_CONFIG_COUNTS = {"sample_sizes": 1, "r_grid": 1, "m_grid": 0, "seeds": 0,
                  "ref_samples": 2, "pc_degree": 0}


@pytest.mark.parametrize("case", ["fraction", "integral-float", "bool", "below-least"])
@pytest.mark.parametrize("name", list(_CONFIG_COUNTS))
def test_config_counts_follow_the_one_rule(name, case):
    # a float, even an integral one, a bool and a value below the least are
    # refused by name; a NumPy integer is a count, stored as a Python int so
    # the config still hashes and serializes
    least = _CONFIG_COUNTS[name]
    listed = isinstance(getattr(ExperimentConfig(), name), list)
    bad = {"fraction": 2.5, "integral-float": float(least), "bool": True,
           "below-least": least - 1}[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got "):
        ExperimentConfig(**{name: [least, bad] if listed else bad})
    config = ExperimentConfig(**{name: [np.int64(least)] if listed else np.int64(least)})
    value = getattr(config, name)
    assert value == ([least] if listed else least)
    assert type(value[0] if listed else value) is int
    assert config_hash(config) == config_hash(ExperimentConfig(**{name: value}))


@pytest.mark.parametrize("problem", ["manufactured", "elliptic", "external-dataset"])
def test_a_written_reference_loads_back_byte_identical(tmp_path, caplog, problem):
    # the reference.json of a fit is a valid --ref-file that the next fit writes
    # again unchanged; the external dataset's has no statistics, so it is refused
    write_dataset(tmp_path / "d.csv", manufactured_sample(30, seed=0))
    run = ["fit", "--n", "30", "--seeds", "0", "--r-max", "1", "--m-grid", "1",
           "--ref-samples", "50", "--dataset", str(tmp_path / "d.csv"), "--family", "hermite"]
    first = tmp_path / "first" / "reference.json"
    assert main(run + ["--problem", problem, "--out", str(first.parent)]) == 0
    again = tmp_path / "again" / "reference.json"
    rc = main(run + ["--problem", "elliptic", "--ref-file", str(first),
                     "--out", str(again.parent)])
    if problem == "external-dataset":
        assert rc == 1 and "lacks finite numeric values for ['mean', 'std']" in caplog.text
        assert not again.parent.exists()
    else:
        assert rc == 0 and again.read_bytes() == first.read_bytes()


def test_config_output_dir_must_be_a_string():
    with pytest.raises(ValueError, match="^output_dir must be a string, got 3$"):
        ExperimentConfig(output_dir=3)


def test_zero_reference_statistic_leaves_its_error_cell_empty(tmp_path):
    # a relative error against a zero reference is undefined, not a crash
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"mean": 0.0, "std": 0.05, "stderr_mean": 0.0, "stderr_std": 0.0}))
    out = tmp_path / "o"
    assert main(["fit", "--problem", "elliptic", "--n", "30", "--seeds", "0", "--r-max", "1",
                 "--m-grid", "1", "--ref-file", str(ref), "--out", str(out)]) == 0
    [row] = _read_rows(out / "errors.csv")
    assert row["mean_rel_err"] == "" and float(row["mean_est"]) > 0.0
    assert math.isfinite(float(row["std_rel_err"]))


def test_penalty_flag_reaches_the_fit(tmp_path):
    out = tmp_path / "o"
    assert main(["fit", "--n", "100", "--seeds", "0", "--r-max", "1", "--m-grid", "1",
                 "--penalty", "diag_scale", "--out", str(out)]) == 0
    doc = json.loads((out / "selection_N100_seed0.json").read_text())
    assert doc["config"]["penalty"] == "diag_scale"
    assert json.loads((out / "run_info.json").read_text())["config"]["penalty"] == "diag_scale"


def test_cmd_fit_external_dataset_failure_is_an_exit_2_row(tmp_path):
    # all-zero outputs leave no rank or degree to select: a typed error
    base = manufactured_sample(60, seed=0)
    data_path = tmp_path / "zero.csv"
    write_dataset(data_path, SampleSet(base.inputs, 0.0 * base.outputs, Family.HERMITE))
    config = ExperimentConfig(
        problem="external-dataset", dataset=str(data_path), family="hermite",
        sample_sizes=[60], seeds=[0], r_grid=[1, 2], m_grid=[1, 2],
        output_dir=str(tmp_path / "out"),
    )
    assert cmd_fit(config) == 2
    rows = _read_rows(tmp_path / "out" / "errors.csv")
    assert len(rows) == 1 and rows[0]["r"] == "" and rows[0]["ei_max"] == ""
    assert not (tmp_path / "out" / "model_N60_seed0.json").exists()


def test_config_json_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": "manufactured",
        "sample_sizes": [100],
        "seeds": [0],
        "r_grid": [1],
        "m_grid": [2],
        "output_dir": str(tmp_path / "o1"),
    }))
    rc = main(["fit", "--config", str(cfg_path), "--out", str(tmp_path / "o2"),
               "--seeds", "3"])
    assert rc == 0
    rows = _read_rows(tmp_path / "o2" / "errors.csv")
    assert rows[0]["seed"] == "3"
    assert not (tmp_path / "o1").exists()


def test_cmd_fit_full_run_accuracy(tmp_path):
    config = ExperimentConfig(
        problem="manufactured",
        sample_sizes=[1000],
        seeds=[1],
        output_dir=str(tmp_path / "full"),
    )
    assert cmd_fit(config) == 0
    row = _read_rows(Path(config.output_dir) / "errors.csv")[0]
    assert float(row["mean_rel_err"]) < 1e-2
    assert row["r"] and row["M"]


def test_sample_command_elliptic(tmp_path):
    out = tmp_path / "ell.csv"
    rc = main([
        "sample", "--problem", "elliptic",
        "--sample-n", "5", "--sample-seed", "0", "--sample-out", str(out),
    ])
    assert rc == 0
    data = read_dataset(out, Family.LEGENDRE)
    assert data.dims == 40 and np.all(data.outputs > 0)
