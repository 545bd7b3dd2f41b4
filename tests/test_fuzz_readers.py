"""Mutation fuzzing of the file readers.

Each example takes a valid file, applies a few mutations (byte flips,
deletions, truncation, insertions of ``nan``/``inf``, separators or long
digit runs) and reads the result.  The reader must either raise
``InvalidInput`` or ``ResourceLimit`` or return a valid object; any other
exception fails the test.  Examples are derandomized, so a run is
reproducible.

The Matrix Market and factor fuzz loops run in a subprocess, so a crash
fails that test only.  The text readers parse with NumPy's ``loadtxt``; the
remaining crash risk is SuperLU, which has crashed on malformed factors: a
factor that reads must also solve to finite values.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from samplets import io as sio
from samplets.cluster_tree import PointCloud
from samplets.errors import InvalidInput, ResourceLimit
from samplets.kernels import FAMILIES, KernelConfig
from samplets.sparse import SparseSym, fill_reducing_order, sparse_cholesky

TESTS = Path(__file__).resolve().parent
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

INSERTS = [b"nan", b"NaN", b"inf", b"-inf", b"Infinity", b"1e999", b"-0", b"+", b"-",
           b"e", b".", b",", b";", b"\n", b" ", b"\t", b"\r", b"\x00", b"\xff", b"%",
           b"{", b"}", b"[", b"]", b'"', b":", b"0x10", b"1_0"]
_position = st.integers(0, 1 << 20)
MUTATION = st.one_of(
    st.tuples(st.just("flip"), _position, st.integers(1, 255)),
    st.tuples(st.just("delete"), _position, st.integers(1, 16)),
    st.tuples(st.just("truncate"), _position),
    st.tuples(st.just("insert"), _position,
              st.sampled_from(INSERTS) | st.integers(1, 5000).map(lambda k: b"9" * k)),
)
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=4)


def mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, pos, *arg in mutations:
        if kind == "insert":
            pos %= len(buf) + 1
            buf[pos:pos] = arg[0]
        elif not buf:
            continue
        elif kind == "flip":
            buf[pos % len(buf)] ^= arg[0]
        elif kind == "delete":
            pos %= len(buf)
            del buf[pos:pos + arg[0]]
        else:
            del buf[pos % (len(buf) + 1):]
    return bytes(buf)


def _seed_files(writers) -> list[bytes]:
    """The bytes each writer puts in a file."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seed"
        for write in writers:
            write(path)
            out.append(path.read_bytes())
    return out


_CLOUD = PointCloud(np.array([[0.5, -1.25], [3.0, 2e-3], [-7.5, 1e10], [0.0, 4.0]]))
_VALUES = np.array([1.0, -2.5, 3e-17, 4.125, 0.0])
POINT_FILES = _seed_files([
    lambda p: sio.write_points_csv(p, _CLOUD),
    lambda p: sio.write_points_csv(p, _CLOUD, header=True),
    lambda p: sio.write_points_binary(p, _CLOUD),
])
VECTOR_FILES = _seed_files([
    lambda p: sio.write_vector_csv(p, _VALUES),
    lambda p: p.write_text("value\n1.5\n-2\n"),
    lambda p: sio.write_vector_binary(p, _VALUES),
])
KERNEL_FILES = [KernelConfig("matern32", length_scale=0.75).to_json().encode(),
                KernelConfig("scaled-exponential", distance_scale=7.0).to_json().encode(),
                b'{"family": "matern12", "length_scale": 1e-3, "distance_scale": 2}']


def _read_mutated(tmp_path_factory, name, seeds, index, mutations, reader):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(mutate(seeds[index % len(seeds)], mutations))
    try:
        return reader(path)
    except (InvalidInput, ResourceLimit):
        return None


@FUZZ
@given(index=st.integers(0, 2), mutations=MUTATIONS)
def test_read_points_fuzz(tmp_path_factory, index, mutations):
    cloud = _read_mutated(tmp_path_factory, "points.dat", POINT_FILES, index, mutations,
                          sio.read_points)
    if cloud is not None:
        assert isinstance(cloud, PointCloud)
        assert cloud.coords.dtype == np.float64 and cloud.coords.ndim == 2
        assert cloud.count >= 1 and cloud.dim >= 1
        assert np.isfinite(cloud.coords).all()


@FUZZ
@given(index=st.integers(0, 2), mutations=MUTATIONS)
def test_read_vector_fuzz(tmp_path_factory, index, mutations):
    values = _read_mutated(tmp_path_factory, "vector.dat", VECTOR_FILES, index, mutations,
                           sio.read_vector)
    if values is not None:
        assert values.dtype == np.float64 and values.ndim == 1
        assert np.isfinite(values).all()


@FUZZ
@given(index=st.integers(0, 2), mutations=MUTATIONS)
def test_kernel_config_fuzz(index, mutations):
    text = mutate(KERNEL_FILES[index % len(KERNEL_FILES)], mutations)
    try:
        cfg = KernelConfig.from_json(text.decode("utf-8", errors="replace"))
    except (InvalidInput, ResourceLimit):
        return
    assert cfg.family in FAMILIES
    assert 0 < cfg.length_scale < math.inf and 0 < cfg.distance_scale < math.inf


def _matrix_market_seeds() -> list[bytes]:
    lower = SparseSym.from_triplets(3, np.array([0, 1, 2, 2]), np.array([0, 1, 0, 2]),
                                    np.array([4.0, 2.5, -1.0, 3.0]))
    written = _seed_files([lambda p: sio.write_matrix_market(p, lower)])[0]
    symmetric = (b"%%MatrixMarket matrix coordinate real symmetric\n% a comment\n"
                 b"3 3 4\n1 1 4\n2 2 2.5\n3 1 -1\n3 3 3e0\n")
    general = (b"%%MatrixMarket matrix coordinate real general\n"
               b"3 3 5\n1 1 4\n3 1 -1.0\n2 2 2.5\n1 3 -1\n3 3 3\n")
    return [written, symmetric, general]


@FUZZ
@given(index=st.integers(0, 2), mutations=MUTATIONS)
def matrix_market_fuzz(index, mutations):
    """The Matrix Market fuzz loop; ``test_read_matrix_market_fuzz`` runs it
    in a subprocess."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "k.mtx"
        seeds = _matrix_market_seeds()
        path.write_bytes(mutate(seeds[index % len(seeds)], mutations))
        try:
            a = sio.read_matrix_market(path)
        except (InvalidInput, ResourceLimit):
            return
    assert isinstance(a, SparseSym) and a.n >= 1
    assert np.isfinite(a.values).all()


def _factor_seeds() -> list[bytes]:
    rng = np.random.default_rng(3)
    dense = (rng.random((12, 12)) < 0.3) * rng.normal(size=(12, 12))
    dense = np.tril(dense, -1) + np.tril(dense, -1).T
    dense += np.diag(np.abs(dense).sum(axis=1) + 1)
    a = SparseSym.from_dense(dense)
    diagonal = SparseSym.from_dense(4.0 * np.eye(3))
    return _seed_files([
        lambda p: sio.write_factor(p, sparse_cholesky(a, fill_reducing_order(a), rho=0.25)),
        lambda p: sio.write_factor(p, sparse_cholesky(diagonal)),
    ])


@FUZZ
@given(index=st.integers(0, 1), mutations=MUTATIONS)
def factor_fuzz(index, mutations):
    """The factor-file fuzz loop, reading and then solving;
    ``test_read_factor_fuzz`` runs it in a subprocess."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.chol"
        seeds = _factor_seeds()
        path.write_bytes(mutate(seeds[index % len(seeds)], mutations))
        try:
            factor = sio.read_factor(path)
        except (InvalidInput, ResourceLimit):
            return
    x = factor.solve(np.linspace(-1.0, 1.0, factor.n))
    assert x.shape == (factor.n,) and np.isfinite(x).all()


def _run_in_subprocess(loop: str, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS), str(TESTS.parent / "src"), env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", f"import test_fuzz_readers as t; t.{loop}()"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, (
        f"fuzz loop exited with {run.returncode}\n{run.stdout[-4000:]}\n{run.stderr[-4000:]}")


def test_read_matrix_market_fuzz(tmp_path):
    _run_in_subprocess("matrix_market_fuzz", tmp_path)


def test_read_factor_fuzz(tmp_path):
    _run_in_subprocess("factor_fuzz", tmp_path)


def test_mutations_apply_as_described():
    data = b"0123456789"
    assert mutate(data, [("flip", 10, 1)]) == b"1123456789"
    assert mutate(data, [("delete", 2, 3)]) == b"0156789"
    assert mutate(data, [("truncate", 4)]) == b"0123"
    assert mutate(data, [("insert", 11, b"nan")]) == b"nan0123456789"
    assert mutate(b"", [("flip", 3, 1), ("insert", 0, b"x")]) == b"x"
    assert json.loads(KERNEL_FILES[0])["family"] == "matern32"
