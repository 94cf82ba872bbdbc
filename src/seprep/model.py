"""Rank-r separated surrogate models and their exact statistics.

A model represents u(y) = sum_l s_l * prod_k u_k^l(y_k) where every factor
u_k^l is expanded in the shared orthonormal basis. Because the basis is
orthonormal under the input density, the mean and second moment reduce to
algebra on the coefficients; higher moments reduce to one-dimensional
Gauss quadratures.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, Family, _check_count, _check_domain, eval_basis_batch, gauss_quadrature

__all__ = [
    "SampleSet",
    "SeparatedModel",
    "evaluate_batch",
    "mean",
    "second_moment",
    "standard_deviation",
    "moment",
    "empirical_norm",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]


@dataclass
class SampleSet:
    """Scattered input/output pairs: N points in d dimensions with scalar outputs.

    The inputs pass the basis domain check of `eval_basis_batch`, so a point
    that is not finite, or lies outside [-1, 1] for Legendre, raises the same
    DomainError here; non-finite outputs raise a ValueError.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    family: Family

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.outputs = np.asarray(self.outputs, dtype=float).ravel()
        self.family = Family(self.family)
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise ValueError(
                f"inputs ({self.inputs.shape[0]} rows) and outputs "
                f"({self.outputs.shape[0]}) disagree on sample count"
            )
        if self.inputs.shape[0] < 1:
            raise ValueError("sample set must contain at least one point")
        _check_domain(self.family, self.inputs)
        if not np.all(np.isfinite(self.outputs)):
            raise ValueError("sample set outputs must be finite")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dims(self) -> int:
        return self.inputs.shape[1]


@dataclass
class SeparatedModel:
    """Separated surrogate: per-term scales and per-dimension spectral coefficients.

    coeffs has shape (dims, rank, max_degree + 1), dimension-major so one
    direction's coefficient slab is contiguous. scales are strictly positive;
    signs live in the coefficients.
    """

    basis: BasisSpec
    scales: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.scales = np.asarray(self.scales, dtype=float).ravel()
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 3:
            raise ValueError("coeffs must have shape (dims, rank, max_degree + 1)")
        d, r, m1 = self.coeffs.shape
        if d < 1 or r < 1:
            raise ValueError("model needs dims >= 1 and rank >= 1")
        if m1 != self.basis.size:
            raise ValueError(
                f"coefficient degree axis ({m1}) does not match basis size ({self.basis.size})"
            )
        if self.scales.shape != (r,):
            raise ValueError("scales length must equal the rank")
        if not (np.all(np.isfinite(self.scales)) and np.all(np.isfinite(self.coeffs))):
            raise ValueError("model scales and coefficients must be finite")
        if np.any(self.scales <= 0.0):
            raise ValueError("term scales must be strictly positive")

    @property
    def dims(self) -> int:
        return self.coeffs.shape[0]

    @property
    def rank(self) -> int:
        return self.coeffs.shape[1]

    def copy(self) -> "SeparatedModel":
        return SeparatedModel(self.basis, self.scales.copy(), self.coeffs.copy())


_EVAL_BLOCK = 16384  # rows per block; a block's work arrays stay near cache size
# most evaluation workers: 2 is the count measured (two took 0.79-0.86x the
# one-worker time on a 2-core host, BLAS at one thread or unpinned, and
# 1.08-1.09x forced onto one CPU); more CPUs are untested
_EVAL_WORKERS = 2
# the thread variables each BLAS reads, first to last, keyed by a word of the
# name NumPy reports for it; the last key, "", matches any other BLAS. A
# variable that is not a positive integer is skipped, as OpenBLAS skips it
_BLAS_THREAD_VARIABLES = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
    "": ("OMP_NUM_THREADS",),
}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas() -> dict:
    """The BLAS NumPy was built with, and the thread count the process asks of it.

    "blas" is the name and version `np.show_config` reports ("unknown" when
    it names none). "blas_threads" is the first of that BLAS's
    `_BLAS_THREAD_VARIABLES` that holds a positive integer, or None when
    none does; a BLAS reads its variables once, when it loads, so this is
    the count asked for, not a count measured.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = blas.get("name", "unknown")
    variables = next(v for k, v in _BLAS_THREAD_VARIABLES.items() if k in name.lower())
    threads = None
    for var in variables:
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            threads = int(value)
            break
    return {"blas": f"{name} {blas.get('version', '')}".strip(),
            "blas_threads": threads}


def _run_shares(run, blocks: list, workers: int) -> None:
    """Call `run(share)` on `workers` contiguous shares of whole blocks, in parallel.

    The first share runs on the calling thread and the others on threads of
    a pool that is shut down before the call returns, so one worker starts
    no thread. Every share runs to its end or its error, and the error of
    the lowest failing share is raised: when `run` stops at its first bad
    block, that is the error of the lowest bad block, as in a serial loop.
    """
    shares = [blocks[i * len(blocks) // workers:(i + 1) * len(blocks) // workers]
              for i in range(workers)]
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        futures = [pool.submit(run, share) for share in shares[1:]]
        run(shares[0])
        for future in futures:
            future.result()


def _evaluate_blocks(model: SeparatedModel, pts: np.ndarray, blocks, out: np.ndarray,
                     width: int) -> None:
    """Write the surrogate at rows first:stop of `pts` into `out`, for each block in turn.

    Each block is transposed `width` dimensions at a time, in dimension order.
    """
    for first, stop in blocks:
        prod = np.ones((stop - first, model.rank))
        for k in range(0, model.dims, width):
            yt = np.ascontiguousarray(pts[first:stop, k:k + width].T)  # (width, rows)
            for j, y in enumerate(yt, start=k):
                prod *= eval_basis_batch(model.basis, y) @ model.coeffs[j].T
        out[first:stop] = prod @ model.scales


def evaluate_batch(model: SeparatedModel, points: np.ndarray) -> np.ndarray:
    """Evaluate the surrogate at each row of an (N, d) array, or at one d-vector.

    Rows are evaluated in fixed blocks of `_EVAL_BLOCK`, the last of which
    also takes the ragged rest. No block is a single row unless N is 1,
    because BLAS rounds a one-row product differently; so every value
    equals that of one unblocked product. Blocks are transposed before
    their basis evaluations, so every dimension's evaluation reads one
    contiguous row.

    The blocks run through `_run_shares`, one contiguous share of whole
    blocks per worker. Workers are the CPUs in the process's affinity mask
    (`os.cpu_count()` where the platform has no mask), at most
    `_EVAL_WORKERS` and at most one per block; BLAS thread settings are
    not read, because BLAS does not thread these small products, unlike the
    FEM solve's (see `problems.elliptic_solve_batch`). One worker starts no
    thread. Each of W workers transposes ceil(d / W) dimensions of its
    block at a time, so the transposes in flight hold one block's points,
    and the working memory beyond the (N,) result is that plus each
    worker's (rows, rank) and (rows, M+1) products, whatever N is. A bad
    point raises the error of the lowest block that holds one, as a serial
    loop over the blocks would.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim > 2:
        raise ValueError(f"points must be a d-vector or an (N, d) array, got shape {pts.shape}")
    pts = np.atleast_2d(pts)
    if pts.shape[1] != model.dims:
        raise ValueError(f"expected {model.dims}-dimensional points, got {pts.shape[1]}")
    n = pts.shape[0]
    out = np.empty(n)
    starts = list(range(0, max(n - _EVAL_BLOCK, 0) + 1, _EVAL_BLOCK))
    blocks = list(zip(starts, starts[1:] + [n]))
    workers = min(_usable_cpus(), _EVAL_WORKERS, len(blocks))
    width = -(-model.dims // workers)
    _run_shares(lambda share: _evaluate_blocks(model, pts, share, out, width), blocks, workers)
    return out


def _term_gram(model: SeparatedModel) -> np.ndarray:
    """Rank-by-rank Gram matrix of the terms in L2 of the input density.

    Entry (l, l') is s_l * s_l' * prod_k <u_k^l, u_k^l'>. By orthonormality
    each one-dimensional inner product is a coefficient dot product.
    """
    G = np.outer(model.scales, model.scales)
    for k in range(model.dims):
        G = G * (model.coeffs[k] @ model.coeffs[k].T)
    return G


def mean(model: SeparatedModel) -> float:
    """Exact mean: only the degree-0 coefficient of each factor survives."""
    return float(np.sum(model.scales * np.prod(model.coeffs[:, :, 0], axis=0)))


def second_moment(model: SeparatedModel) -> float:
    """Exact second moment via pairwise term inner products."""
    return float(_term_gram(model).sum())


def standard_deviation(model: SeparatedModel) -> float:
    # in units of 2^e that put the largest scale in [0.5, 1), so that the
    # squares neither overflow nor underflow; power-of-two scaling is exact
    e = int(np.frexp(np.max(model.scales))[1])
    unit = SeparatedModel(model.basis, np.ldexp(model.scales, -e), model.coeffs)
    var = second_moment(unit) - mean(unit) ** 2
    return math.ldexp(math.sqrt(max(var, 0.0)), e)


def moment(model: SeparatedModel, m: int) -> float:
    """m-th raw moment, computed dimension by dimension with Gauss quadrature.

    Expanding u^m over m term indices turns the d-dimensional integral into a
    product of one-dimensional integrals of m-fold factor products, each a
    polynomial of degree at most m*M, so the family's Gauss rule with
    ceil((m*M + 1) / 2) points integrates each one exactly.
    """
    _check_count("m", m, 1)
    nodes, weights = gauss_quadrature(model.basis, -(-(m * model.basis.max_degree + 1) // 2))
    psi = eval_basis_batch(model.basis, nodes)  # (q, M+1)
    r = model.rank
    total = np.ones((r,) * m)
    for k in range(model.dims):
        vals = model.coeffs[k] @ psi.T  # (r, q)
        tk = np.zeros((r,) * m)
        for w, v in zip(weights, vals.T):
            outer = v
            for _ in range(m - 1):
                outer = np.multiply.outer(outer, v)
            tk += w * outer
        total *= tk
    for _ in range(m):
        total = total @ model.scales
    return float(total)


def empirical_norm(values: np.ndarray) -> float:
    """Root mean square over the sample set (the pseudo-norm used for fitting)."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 1:
        raise ValueError("empirical norm needs at least one value")
    return float(np.sqrt(np.mean(v * v)))


_MODEL_KEYS = ("dims", "rank", "family", "max_degree", "scales", "coeffs")


def model_to_dict(model: SeparatedModel) -> dict:
    return {
        "dims": model.dims,
        "rank": model.rank,
        "family": model.basis.family.value,
        "max_degree": model.basis.max_degree,
        "scales": model.scales.tolist(),
        "coeffs": model.coeffs.tolist(),
    }


def _check_keys(doc, expected, what: str) -> None:
    """Fail with a ValueError naming the unknown and missing keys of a `what` document."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(expected))
    missing = sorted(set(expected) - set(doc))
    if unknown or missing:
        raise ValueError(f"{what} has unknown keys {unknown} and missing keys {missing}")


def model_from_dict(doc: dict) -> SeparatedModel:
    _check_keys(doc, _MODEL_KEYS, "model document")
    basis = BasisSpec(Family(doc["family"]), doc["max_degree"])
    model = SeparatedModel(basis, np.array(doc["scales"]), np.array(doc["coeffs"]))
    header = (_check_count("dims", doc["dims"], 1), _check_count("rank", doc["rank"], 1))
    if header != (model.dims, model.rank):
        raise ValueError("model document header disagrees with coefficient shapes")
    return model


def save_model(model: SeparatedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> SeparatedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
