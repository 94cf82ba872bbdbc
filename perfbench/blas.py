"""Fix the BLAS thread count before NumPy is first imported."""
import os

BLAS_THREADS = 1  # at most nproc on any machine; one thread keeps timings steady
_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    for var in _VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
