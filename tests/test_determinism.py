"""Identical inputs give identical bytes, whatever the BLAS thread count and
wherever the input lies in memory.

Each thread count runs in its own process, since OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once, when NumPy loads it.  The process builds a
2-D basis of 4096 points at q = 2 and prints the SHA-256 of the forward and
inverse transforms of 1 and 4 columns, with the input copied to each of
``BYTE_OFFSETS``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from samplets.basis import build_samplet_basis
from samplets.cluster_tree import PointCloud
from samplets.transform import forward_transform_matrix, inverse_transform_matrix

from oracles import BYTE_OFFSETS, at_offset

TESTS = Path(__file__).resolve().parent


def transform_digests() -> None:
    """Print {"k/offset/direction": SHA-256} as JSON."""
    rng = np.random.default_rng(4096)
    basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(4096, 2))), q=2)
    digests = {}
    for k in (1, 4):
        data = rng.normal(size=(basis.size, k))
        for offset in BYTE_OFFSETS:
            copy = at_offset(data, offset)
            for name, transform in (("forward", forward_transform_matrix),
                                    ("inverse", inverse_transform_matrix)):
                out = transform(basis, copy)
                digests[f"{k}/{offset}/{name}"] = hashlib.sha256(out.tobytes()).hexdigest()
    print(json.dumps(digests))


def digests_with_threads(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS), str(TESTS.parent / "src"), env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", "import test_determinism as t; t.transform_digests()"],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-4000:]
    return json.loads(run.stdout)


def test_transforms_do_not_depend_on_threads_or_input_offset():
    runs = {threads: digests_with_threads(threads) for threads in (1, 2)}
    assert runs[1] == runs[2]
    for k in (1, 4):
        for name in ("forward", "inverse"):
            assert len({runs[1][f"{k}/{offset}/{name}"] for offset in BYTE_OFFSETS}) == 1, (
                f"{name} of {k} columns depends on the input's byte offset")
