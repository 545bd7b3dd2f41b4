"""Identical inputs give identical bytes, whatever the BLAS thread count, the
worker count and wherever the input lies in memory.

Each thread count runs in its own process, since OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once, when NumPy loads it; so does the run pinned
to one CPU, which has one worker.  The process builds a 2-D basis of 4096
points at q = 2 and prints the SHA-256 of the forward and inverse transforms
of 1 and 4 columns, with the input copied to each of ``BYTE_OFFSETS``, and
of one column on ``SPLIT_N`` points, whose largest steps split over the
workers.  For each of ``SETUP_CASES`` it also prints the SHA-256 of the
set-up and the assembly: every two-scale matrix, every H^2 cluster basis V
and the compressed kernel matrix K; their column subtrees split at the root.
It also prints each assembly's ``visited_pairs`` and ``peak_block_bytes``,
which must not depend on the worker count either.
The leaf moments of one large 1-D leaf are compared across ``BYTE_OFFSETS``
in the test process itself.
"""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from samplets import workers
from samplets.basis import _monomials, build_samplet_basis, multi_indices
from samplets.cluster_tree import PointCloud
from samplets.h2 import (InterpolationScheme, assemble_compressed_kernel,
                         compute_multiscale_cluster_basis)
from samplets.kernels import KernelConfig
from samplets.transform import _steps, forward_transform_matrix, inverse_transform_matrix

from oracles import BYTE_OFFSETS, at_offset

TESTS = Path(__file__).resolve().parent
SETUP_CASES = ((2, 4096), (3, 2048))  # d, N; q = 2, p = 3
SPLIT_N = 2 ** 14  # 2-D points; one column's largest steps have several slices


def sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def print_digests() -> None:
    """Print {"k/offset/direction" or "split/direction": SHA-256} for the
    transforms, {"Q|V|K d-D N": SHA-256} for the set-up and assembly and
    {"visited_pairs|peak_block_bytes d-D N": count} for the assembly, as
    JSON, with the worker count and the most slices of a split step."""
    rng = np.random.default_rng(4096)
    basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(4096, 2))), q=2)
    digests = {"workers": workers.count()}
    for k in (1, 4):
        data = rng.normal(size=(basis.size, k))
        for offset in BYTE_OFFSETS:
            copy = at_offset(data, offset)
            for name, transform in (("forward", forward_transform_matrix),
                                    ("inverse", inverse_transform_matrix)):
                out = transform(basis, copy)
                digests[f"{k}/{offset}/{name}"] = sha256(out)
    split = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(SPLIT_N, 2))), q=2)
    digests["slices"] = max(len(parts) for _, parts in _steps(split, 1))
    data = rng.normal(size=(SPLIT_N, 1))
    for name, transform in (("forward", forward_transform_matrix),
                            ("inverse", inverse_transform_matrix)):
        digests[f"split/{name}"] = sha256(transform(split, data))
    for d, n in SETUP_CASES:
        basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(n, d))), q=2)
        mbasis = compute_multiscale_cluster_basis(basis, InterpolationScheme.build(basis.tree, 3))
        kernel = KernelConfig("scaled-exponential", distance_scale=10.0 / math.sqrt(d))
        compressed = assemble_compressed_kernel(basis, kernel, eta=1.25, p=3, epsilon=1e-4)
        k = compressed.matrix
        digests[f"Q {d}-D {n}"] = sha256(*(basis.q[r] for r in sorted(basis.q)))
        digests[f"V {d}-D {n}"] = sha256(*(mbasis[r] for r in sorted(mbasis)))
        digests[f"K {d}-D {n}"] = sha256(k.indptr, k.indices, k.values)
        digests[f"visited_pairs {d}-D {n}"] = compressed.stats.visited_pairs
        digests[f"peak_block_bytes {d}-D {n}"] = compressed.stats.peak_block_bytes
    print(json.dumps(digests))


@functools.cache
def digests_with_threads(threads: int, pinned: bool = False) -> dict:
    """``print_digests`` in a new process with this many BLAS threads, on all
    the CPUs of this one or, ``pinned``, on its first alone (set before
    samplets is imported; it binds only that process)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS), str(TESTS.parent / "src"), env.get("PYTHONPATH", "")])
    pin = f"import os; os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}}); "
    run = subprocess.run(
        [sys.executable, "-c",
         (pin if pinned else "") + "import test_determinism as t; t.print_digests()"],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-4000:]
    return json.loads(run.stdout)


def test_transforms_do_not_depend_on_threads_or_input_offset():
    runs = {threads: digests_with_threads(threads) for threads in (1, 2)}
    for key in runs[1]:
        if "/" in key:
            assert runs[1][key] == runs[2][key], f"{key} depends on the thread count"
    for k in (1, 4):
        for name in ("forward", "inverse"):
            assert len({runs[1][f"{k}/{offset}/{name}"] for offset in BYTE_OFFSETS}) == 1, (
                f"{name} of {k} columns depends on the input's byte offset")


@pytest.mark.parametrize("d, n", SETUP_CASES)
def test_setup_and_assembly_do_not_depend_on_threads(d, n):
    runs = {threads: digests_with_threads(threads) for threads in (1, 2)}
    for what in ("Q", "V", "K", "visited_pairs", "peak_block_bytes"):
        key = f"{what} {d}-D {n}"
        assert runs[1][key] == runs[2][key], f"{key} depends on the thread count"


def test_outputs_do_not_depend_on_the_worker_count():
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("this process may run on one CPU only, or cannot be pinned to one")
    one, every = digests_with_threads(1, pinned=True), digests_with_threads(1)
    assert one["workers"] == 1 and every["workers"] >= 2
    assert every["slices"] >= 2, "no transform step splits"
    for key in every:
        if key != "workers":
            assert one[key] == every[key], f"{key} depends on the worker count"


def test_leaf_moments_do_not_depend_on_input_offset():
    # NumPy runs ``**`` on a 1-D leaf of thousands of points through another
    # inner loop than on a small one; the bits must still follow the values
    # alone, not where the points lie in memory
    points = np.random.default_rng(8192).uniform(-1, 1, size=(1, 8192, 1))
    exponents = multi_indices(4, 1)
    digests = {sha256(_monomials(at_offset(points, offset), exponents))
               for offset in BYTE_OFFSETS}
    assert len(digests) == 1, "the leaf moments depend on the points' byte offset"
