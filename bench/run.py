#!/usr/bin/env python3
"""Entry point of the samplets benchmark.

    python3 bench/run.py --workload grf-2d --seed 1 --seconds 10 --trace 0

BLAS and OpenMP threads are pinned to 1 before NumPy is imported, because the
bundled OpenBLAS would otherwise start one thread per core (it is built with
MAX_THREADS=64).  See README.md for the workloads and metrics.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import harness  # NumPy loads here, after the pin

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
