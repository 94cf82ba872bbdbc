"""The benchmark's workloads and the loop that measures them.

Every workload builds its inputs from the run seed in `setup`, hands the
library only those inputs in `operations`, and checks each result against
an independent oracle or a value recorded at the seed commit
(`baseline.json`). Library functions are always looked up through their
module at call time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seprep import als, basis, model, problems, selection

import oracles
from tracing import TARGETS, Tracer, direction_solves_by_op, layer_metrics

BASELINE_PATH = Path(__file__).with_name("baseline.json")

ACCEPTANCE_SEEDS = (0, 1, 2, 3, 4)
MANUFACTURED_MEAN = 0.55           # analytic mean of the manufactured function
MANUFACTURED_STD = math.sqrt(0.76)  # analytic standard deviation
REF_SEED = 987654321               # the reference seed `seprep fit` uses
SETUP_REPEATS = 3                  # an untraced run sets up at least this many times
SETUP_SECONDS = 2.0                # and for at least this long; setup_s is the median
PROBE_SECONDS = 2.0                # minimum time spent on the tracing-overhead probe


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; `SMOKE` shrinks them for quick checks."""

    key: str = "full"  # which baseline.json table applies
    manufactured_n: int = 1000
    manufactured_seeds: tuple = ACCEPTANCE_SEEDS
    manufactured_holdout: int = 20000
    elliptic_n: int = 200
    elliptic_seeds: tuple = (0,)
    elliptic_holdout: int = 1000
    r_grid: tuple = (1, 2, 3, 4, 5)
    m_grid: tuple = (1, 2, 3, 4)
    ref_n: int = 200000
    ref_batch: int = 10000
    # one chunk of the Monte Carlo moment estimate in tests/helpers.py
    # (mc_model_moments), the repo's largest evaluate_batch call
    eval_n: int = 1_000_000
    eval_oracle_n: int = 200


FULL = Sizes()
SMOKE = Sizes(
    key="smoke", manufactured_n=200, manufactured_seeds=(0,), manufactured_holdout=500,
    elliptic_n=60, elliptic_seeds=(0,), elliptic_holdout=50, r_grid=(1, 2), m_grid=(1, 2),
    ref_n=2000, ref_batch=500, eval_n=500, eval_oracle_n=50,
)


def _arrays_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def _median(values):
    return statistics.median(values) if values else None


def recorded_values(sizes: Sizes) -> dict:
    """The seed commit's outputs for these sizes, as record.py wrote them."""
    return json.loads(BASELINE_PATH.read_text())[sizes.key]


def derived_seed(seed: int, stream: int) -> int:
    """A child seed for one input stream of the run."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


class Run:
    """Check counts and operation timings of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_times: list[float] = []   # every timed operation of the run
        self.last_times: dict = {}         # op id -> seconds, last pass only

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Workload:
    """One set of inputs; subclasses define set-up, operations and checks."""

    name = ""
    dims = 0  # input dimension, for sweeps = direction solves / dims

    def __init__(self, seed: int, sizes: Sizes = FULL):
        self.seed = seed
        self.sizes = sizes

    def setup(self):
        raise NotImplementedError

    def operations(self, state) -> list:
        """One pass: fresh (op id, callable) pairs, to be run in order."""
        raise NotImplementedError

    def digest(self, state, op_id, raw):
        """A comparable summary of one operation's result."""
        return raw

    def check_op(self, state, op_id, digest, run: Run) -> None:
        raise NotImplementedError

    def check_pass(self, state, digests: dict, run: Run) -> None:
        pass

    def same(self, a, b) -> bool:
        """Whether two digests of one operation are exactly equal."""
        return a == b

    def report(self, state, digests: dict, run: Run) -> dict:
        """Informational figures of the last pass, printed beside the metrics."""
        return {}


# ---------------------------------------------------------------------------
# Selection workloads
# ---------------------------------------------------------------------------


class _Select(Workload):
    """select_model over one data set per data seed of the workload."""

    problem_key = ""

    @property
    def data_seeds(self) -> tuple:
        raise NotImplementedError

    def operations(self, state):
        order = np.random.default_rng(self.seed).permutation(len(self.data_seeds))
        sz = self.sizes
        ops = []
        for i in order:
            s = self.data_seeds[i]
            cfg = als.FitConfig(rank_max=max(sz.r_grid), degree=max(sz.m_grid), rng_seed=s)
            ops.append((f"select-{s}", lambda s=s, cfg=cfg: selection.select_model(
                state["data"][s], sz.r_grid, sz.m_grid, cfg)))
        return ops

    def digest(self, state, op_id, report):
        chosen = report.chosen_model()
        pts, truth = state["holdout"]
        return {
            "chosen": tuple(report.chosen),
            "holdout_rel_rmse": oracles.relative_rmse(model.evaluate_batch(chosen, pts), truth),
            "mean": model.mean(chosen),
            "std": model.standard_deviation(chosen),
        }

    def check_op(self, state, op_id, digest, run):
        want = tuple(recorded_values(self.sizes)[self.problem_key][op_id.split("-")[1]])
        run.check(digest["chosen"] == want,
                  f"{op_id}: chose {digest['chosen']}, seed commit chose {want}")

    def report(self, state, digests, run):
        return {
            "select_s": _median(run.op_times),
            "select_times": run.last_times,
            "chosen": {k: list(d["chosen"]) for k, d in sorted(digests.items())},
            "holdout_rel_rmse": _median([d["holdout_rel_rmse"] for d in digests.values()]),
        }


class ManufacturedSelect(_Select):
    name = "manufactured-select"
    problem_key = "manufactured"
    dims = 10

    @property
    def data_seeds(self):
        return self.sizes.manufactured_seeds

    def setup(self):
        sz = self.sizes
        data = {s: problems.manufactured_sample(sz.manufactured_n, s) for s in self.data_seeds}
        hold = problems.manufactured_sample(
            sz.manufactured_holdout, derived_seed(self.seed, 1), noisy=False)
        return {"data": data, "holdout": (hold.inputs, hold.outputs)}

    def digest(self, state, op_id, report):
        out = super().digest(state, op_id, report)
        out["mean_rel_err"] = abs(out["mean"] - MANUFACTURED_MEAN) / MANUFACTURED_MEAN
        out["std_rel_err"] = abs(out["std"] - MANUFACTURED_STD) / MANUFACTURED_STD
        return out

    def _acceptance(self, digests):
        """Digests of the five acceptance seeds, or None when the pass lacks one."""
        if self.sizes.key != "full":
            return None
        by_seed = {int(k.split("-")[1]): d for k, d in digests.items()}
        if not all(s in by_seed for s in ACCEPTANCE_SEEDS):
            return None
        return [by_seed[s] for s in ACCEPTANCE_SEEDS]

    def check_pass(self, state, digests, run):
        acc = self._acceptance(digests)
        if acc is None:
            return
        # criterion 1: medians over the acceptance seeds
        mean_err = statistics.median(d["mean_rel_err"] for d in acc)
        std_err = statistics.median(d["std_rel_err"] for d in acc)
        run.check(mean_err < 1e-2, f"median mean_rel_err {mean_err:.3e} is not below 1e-2")
        run.check(std_err < 5e-2, f"median std_rel_err {std_err:.3e} is not below 5e-2")

    def report(self, state, digests, run):
        out = super().report(state, digests, run)
        out["mean_rel_err"] = _median([d["mean_rel_err"] for d in digests.values()])
        out["std_rel_err"] = _median([d["std_rel_err"] for d in digests.values()])
        acc = self._acceptance(digests)
        if acc is not None:
            # criterion 2's margin, reported and never gated here
            out["criterion2_33_hits"] = sum(d["chosen"] == (3, 3) for d in acc)
        return out


class EllipticSelect(_Select):
    name = "elliptic-select"
    problem_key = "elliptic"
    dims = 40

    @property
    def data_seeds(self):
        return self.sizes.elliptic_seeds

    def setup(self):
        sz = self.sizes
        prob = problems.elliptic_problem()
        data = {s: problems.elliptic_sample(prob, sz.elliptic_n, s) for s in self.data_seeds}
        rng = np.random.default_rng(derived_seed(self.seed, 1))
        pts = rng.uniform(-1.0, 1.0, (sz.elliptic_holdout, prob.dims))
        return {"data": data, "holdout": (pts, problems.elliptic_solve_batch(prob, pts))}


# ---------------------------------------------------------------------------
# Monte Carlo reference
# ---------------------------------------------------------------------------


class EllipticReference(Workload):
    """The 200k-sample reference of `seprep fit`, solved in fixed-size batches.

    The batches draw from one generator in order, so the samples, and the
    mean and std, equal those of the single 200k batch the CLI solves while
    peak memory stays near one batch.
    """

    name = "elliptic-reference"

    def setup(self):
        prob = problems.elliptic_problem()
        n_batches = self.sizes.ref_n // self.sizes.ref_batch
        rows = np.random.default_rng(derived_seed(self.seed, 2)).integers(
            0, self.sizes.ref_batch, n_batches)
        return {"problem": prob, "rows": rows}

    def batch_points(self, dims: int):
        """Each batch's points, drawn in order from the reference generator."""
        rng = np.random.default_rng(REF_SEED)
        for _ in range(self.sizes.ref_n // self.sizes.ref_batch):
            yield rng.uniform(-1.0, 1.0, (self.sizes.ref_batch, dims))

    def operations(self, state):
        prob = state["problem"]
        batches = self.batch_points(prob.dims)

        def solve(row):
            pts = next(batches)
            return pts[row].copy(), problems.elliptic_solve_batch(prob, pts)

        return [(f"batch-{i}", lambda row=row: solve(row))
                for i, row in enumerate(state["rows"])]

    def check_op(self, state, op_id, digest, run):
        point, values = digest
        row = state["rows"][int(op_id.split("-")[1])]
        want = oracles.fem_dense_solve(state["problem"], point)
        got = values[row]
        run.check(abs(got - want) <= 1e-10 * abs(want),
                  f"{op_id}: FEM sample {row} is {got!r}, dense oracle gives {want!r}")

    def same(self, a, b):
        return _arrays_equal(a, b)

    def statistics(self, digests):
        """mc_baseline over all batches' outputs, or None when a batch failed."""
        ids = [f"batch-{i}" for i in range(self.sizes.ref_n // self.sizes.ref_batch)]
        if any(k not in digests for k in ids):
            return None
        values = np.concatenate([digests[k][1] for k in ids])
        return problems.mc_baseline(lambda n, s: values, self.sizes.ref_n, REF_SEED)

    def check_pass(self, state, digests, run):
        mc = self.statistics(digests)
        want = recorded_values(self.sizes)["reference"]
        ok = mc is not None and all(
            math.isclose(getattr(mc, k), want[k], rel_tol=1e-9, abs_tol=0.0)
            for k in ("mean", "std"))
        run.check(ok, f"reference mean/std {mc and (mc.mean, mc.std)} differ from "
                      f"the recorded {want['mean']!r}, {want['std']!r}")

    def report(self, state, digests, run):
        mc = self.statistics(digests)
        return {
            "reference_samples_per_s": (self.sizes.ref_batch / statistics.median(run.op_times)
                                        if run.op_times else None),
            "mean": mc and mc.mean,
            "std": mc and mc.std,
        }


# ---------------------------------------------------------------------------
# Surrogate evaluation
# ---------------------------------------------------------------------------


def legendre_model(seed: int, dims: int = 40, rank: int = 5, degree: int = 4):
    """A seeded Legendre model whose factors stay near 1 on [-1, 1]."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((dims, rank, degree + 1))
    coeffs[:, :, 0] = 1.0
    coeffs[:, :, 1:] = 0.1 * rng.standard_normal((dims, rank, degree))
    scales = rng.uniform(0.5, 1.5, rank)
    return model.SeparatedModel(basis.BasisSpec("legendre", degree), scales, coeffs)


class SurrogateEval(Workload):
    """evaluate_batch of the exact manufactured model and a rank-5, d=40 Legendre model."""

    name = "surrogate-eval"

    def setup(self):
        sz = self.sizes
        exact = problems.manufactured_sample(sz.eval_n, derived_seed(self.seed, 3), noisy=False)
        leg = legendre_model(derived_seed(self.seed, 4))
        pts = np.random.default_rng(derived_seed(self.seed, 5)).uniform(
            -1.0, 1.0, (sz.eval_n, leg.dims))
        oracle = oracles.legendre_model_values(leg.scales, leg.coeffs, pts[:sz.eval_oracle_n])
        return {
            "hermite": (problems.manufactured_model(4), exact.inputs, exact.outputs),
            "legendre": (leg, pts, oracle),
        }

    def operations(self, state):
        mh, ph, _ = state["hermite"]
        ml, pl, _ = state["legendre"]
        return [("eval", lambda: (model.evaluate_batch(mh, ph), model.evaluate_batch(ml, pl)))]

    def check_op(self, state, op_id, digest, run):
        out_h, out_l = digest
        exact = state["hermite"][2]
        run.check(bool(np.all(np.abs(out_h - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))),
                  "manufactured_model evaluations differ from the noise-free samples")
        oracle = state["legendre"][2]
        got = out_l[:oracle.shape[0]]
        run.check(bool(np.allclose(got, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())),
                  "Legendre model evaluations differ from the legval oracle")

    def same(self, a, b):
        return _arrays_equal(a, b)

    def report(self, state, digests, run):
        points = 2 * self.sizes.eval_n
        return {"eval_points_per_s": (points / statistics.median(run.op_times)
                                      if run.op_times else None)}


WORKLOADS = {w.name: w for w in (ManufacturedSelect, EllipticSelect, EllipticReference,
                                 SurrogateEval)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _pass(workload, state, run, tracer, limit=None):
    """Run one pass (or its first `limit` operations); returns (digests, times by op id)."""
    digests, times = {}, {}
    for op_id, fn in workload.operations(state)[:limit]:
        tracer.op = op_id
        t0 = time.perf_counter()
        try:
            raw = fn()
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            run.check(False, f"{op_id} raised")
            continue
        times[op_id] = time.perf_counter() - t0
        with tracer.paused():
            digests[op_id] = workload.digest(state, op_id, raw)
            workload.check_op(state, op_id, digests[op_id], run)
    if limit is None:
        with tracer.paused():
            workload.check_pass(state, digests, run)
    return digests, times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seconds: float):
    """Untraced run: repeated set-ups, then whole passes while time allows."""
    run = Run()
    tracer = Tracer()
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        state = None  # free the previous set-up's inputs, untimed
        t0 = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - t0)
    start = time.perf_counter()
    pass_means = []
    while True:
        t_pass = time.perf_counter()
        digests, run.last_times = _pass(workload, state, run, tracer)
        run.op_times.extend(run.last_times.values())
        if run.last_times:
            pass_means.append(statistics.fmean(run.last_times.values()))
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            break
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # The operations of one pass differ in cost (one selection per data
        # seed), so a pass is summarized by its mean and passes by the median.
        "op_s": (statistics.median(pass_means) if pass_means else 0.0, "s"),  # 0: none ran
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return run, metrics, workload.report(state, digests, run)


def measure_traced(workload: Workload, trace_path=None, targets=TARGETS):
    """Traced run: one set-up and one pass, with the tracer's wrappers installed.

    The first operation also runs untraced; the median ratio of its traced
    to untraced time, minus 1, is the tracing overhead. Its results must
    equal the traced pass's exactly.
    """
    run = Run()
    tracer = Tracer(targets)
    tracer.install()
    try:
        tracer.op = "setup"
        state = workload.setup()
        kept = len(tracer.spans)
        probe = Run()
        tracer.active = False
        untraced, first = _pass(workload, state, probe, tracer, limit=1)
        ratios, spent = [], 0.0
        cheap = bool(first) and sum(first.values()) < PROBE_SECONDS
        # A cheap first operation runs traced and untraced in alternating
        # order for PROBE_SECONDS; a costly one is compared with the pass.
        while cheap and spent < PROBE_SECONDS:
            times = {}
            for traced in ((True, False) if len(ratios) % 2 == 0 else (False, True)):
                tracer.active = traced
                _, times[traced] = _pass(workload, state, probe, tracer, limit=1)
            if not (times[True] and times[False]):
                break
            ratios.append(sum(times[True].values()) / sum(times[False].values()))
            spent += sum(times[True].values()) + sum(times[False].values())
        del tracer.spans[kept:]
        tracer.active = True
        digests, run.last_times = _pass(workload, state, run, tracer)
        run.op_times.extend(run.last_times.values())
        if first and not cheap:
            op_id, untraced_time = next(iter(first.items()))
            if op_id in run.last_times:
                ratios.append(run.last_times[op_id] / untraced_time)
    finally:
        tracer.uninstall()
    faithful = bool(untraced) and all(
        k in digests and workload.same(v, digests[k]) for k, v in untraced.items())
    run.check(faithful, "traced results differ from the untraced ones")
    metrics = layer_metrics(tracer.spans, workload.dims)
    metrics["trace_overhead_share"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    if trace_path is not None:
        tracer.write(trace_path)
    report = workload.report(state, digests, run)
    by_op = direction_solves_by_op(tracer.spans)
    if by_op:
        report["direction_solves_by_op"] = by_op
    return run, metrics, report


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, SMOKE if smoke else FULL)
