"""File formats: point clouds, data vectors, Matrix Market, factor snapshots.

Binary formats are little-endian with a magic header; CSV formats use '.' as
the decimal separator and detect an optional header row by failing to parse
the first row as numbers.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .cluster_tree import PointCloud
from .errors import InvalidInput
from .sparse import CholeskyFactor, Permutation, SparseSym

POINTS_MAGIC = b"SMPLPTS1"
VECTOR_MAGIC = b"SMPLVEC1"
FACTOR_MAGIC = b"SMPLCHOL"


def _float_repr(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# point clouds


def write_points_csv(path, cloud: PointCloud, header: bool = False) -> None:
    lines = []
    if header:
        lines.append(",".join(f"x{k}" for k in range(cloud.dim)))
    for row in cloud.coords:
        lines.append(",".join(_float_repr(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_points_binary(path, cloud: PointCloud) -> None:
    with open(path, "wb") as fh:
        fh.write(POINTS_MAGIC)
        fh.write(struct.pack("<II", cloud.dim, cloud.count))
        fh.write(np.ascontiguousarray(cloud.coords, dtype="<f8").tobytes())


def _parse_csv_rows(text: str, path) -> np.ndarray:
    rows = [line.strip() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows:
        raise InvalidInput(f"{path}: file contains no data")
    parsed = []
    try:
        parsed.append([float(tok) for tok in rows[0].replace(";", ",").split(",")])
    except ValueError:
        pass  # header row, skipped
    for line in rows[1:]:
        try:
            parsed.append([float(tok) for tok in line.replace(";", ",").split(",")])
        except ValueError as exc:
            raise InvalidInput(f"{path}: cannot parse row {line!r}") from exc
    width = len(parsed[0])
    if any(len(r) != width for r in parsed):
        raise InvalidInput(f"{path}: rows have inconsistent column counts")
    return np.asarray(parsed, dtype=np.float64)


def read_points(path) -> PointCloud:
    """Read a point cloud from CSV or the binary point format (sniffed)."""
    path = Path(path)
    if not path.exists():
        raise InvalidInput(f"{path}: no such file")
    raw = path.read_bytes()
    if raw[:8] == POINTS_MAGIC:
        if len(raw) < 16:
            raise InvalidInput(f"{path}: truncated point header")
        d, n = struct.unpack("<II", raw[8:16])
        data = np.frombuffer(raw, dtype="<f8", offset=16)
        if data.size != n * d:
            raise InvalidInput(f"{path}: expected {n * d} coordinates, found {data.size}")
        return PointCloud(data.reshape(n, d).copy())
    if raw[:8] == VECTOR_MAGIC or raw[:8] == FACTOR_MAGIC:
        raise InvalidInput(f"{path}: not a point file (wrong magic)")
    return PointCloud(_parse_csv_rows(raw.decode("utf-8"), path))


# ---------------------------------------------------------------------------
# data vectors


def write_vector_csv(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    Path(path).write_text("\n".join(_float_repr(v) for v in values) + "\n")


def write_vector_binary(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    with open(path, "wb") as fh:
        fh.write(VECTOR_MAGIC)
        fh.write(struct.pack("<I", values.size))
        fh.write(values.astype("<f8").tobytes())


def read_vector(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise InvalidInput(f"{path}: no such file")
    raw = path.read_bytes()
    if raw[:8] == VECTOR_MAGIC:
        if len(raw) < 12:
            raise InvalidInput(f"{path}: truncated vector header")
        (n,) = struct.unpack("<I", raw[8:12])
        data = np.frombuffer(raw, dtype="<f8", offset=12)
        if data.size != n:
            raise InvalidInput(f"{path}: expected {n} values, found {data.size}")
        return data.copy()
    if raw[:8] == POINTS_MAGIC or raw[:8] == FACTOR_MAGIC:
        raise InvalidInput(f"{path}: not a vector file (wrong magic)")
    table = _parse_csv_rows(raw.decode("utf-8"), path)
    if table.shape[1] != 1:
        raise InvalidInput(f"{path}: expected a single CSV column, got {table.shape[1]}")
    return table[:, 0]


# ---------------------------------------------------------------------------
# Matrix Market


def write_matrix_market(path, a: SparseSym) -> None:
    """Coordinate real general format; the full symmetric pattern is written."""
    full = a.to_scipy_full().tocoo()
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{a.n} {a.n} {full.nnz}"]
    order = np.lexsort((full.row, full.col))
    rows = full.row[order]
    cols = full.col[order]
    vals = full.data[order]
    for i, j, v in zip(rows, cols, vals):
        lines.append(f"{i + 1} {j + 1} {_float_repr(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_market(path) -> SparseSym:
    path = Path(path)
    if not path.exists():
        raise InvalidInput(f"{path}: no such file")
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise InvalidInput(f"{path}: missing MatrixMarket banner")
    banner = lines[0].lower().split()
    if "coordinate" not in banner or "real" not in banner:
        raise InvalidInput(f"{path}: only coordinate real matrices are supported")
    symmetric = "symmetric" in banner
    body = [ln for ln in lines[1:] if ln.strip() and not ln.startswith("%")]
    n_rows, n_cols, nnz = (int(tok) for tok in body[0].split())
    if n_rows != n_cols:
        raise InvalidInput(f"{path}: matrix is not square ({n_rows}x{n_cols})")
    entries = body[1:]
    if len(entries) != nnz:
        raise InvalidInput(f"{path}: expected {nnz} entries, found {len(entries)}")
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz)
    for k, line in enumerate(entries):
        toks = line.split()
        rows[k] = int(toks[0]) - 1
        cols[k] = int(toks[1]) - 1
        vals[k] = float(toks[2])
    if not symmetric:
        # general files carry both triangles: verify they agree, keep the lower
        import scipy.sparse as sp

        coo = sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_rows))
        if (abs(coo - coo.T)).max() > 0:
            raise InvalidInput(f"{path}: general matrix is not symmetric")
        keep = rows >= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return SparseSym.from_triplets(n_rows, rows, cols, vals)


# ---------------------------------------------------------------------------
# Cholesky factors


def write_factor(path, factor: CholeskyFactor) -> None:
    with open(path, "wb") as fh:
        fh.write(FACTOR_MAGIC)
        fh.write(struct.pack("<I", 1))  # version
        fh.write(struct.pack("<QQd", factor.n, factor.nnz, factor.rho))
        fh.write(factor.perm.order.astype("<i8").tobytes())
        fh.write(factor.indptr.astype("<i8").tobytes())
        fh.write(factor.indices.astype("<i8").tobytes())
        fh.write(factor.values.astype("<f8").tobytes())


def read_factor(path) -> CholeskyFactor:
    path = Path(path)
    if not path.exists():
        raise InvalidInput(f"{path}: no such file")
    raw = path.read_bytes()
    if raw[:8] != FACTOR_MAGIC:
        raise InvalidInput(f"{path}: not a factor file (wrong magic)")
    if len(raw) < 36:
        raise InvalidInput(f"{path}: truncated factor header")
    (version,) = struct.unpack("<I", raw[8:12])
    if version != 1:
        raise InvalidInput(f"{path}: unsupported factor version {version}")
    n, nnz, rho = struct.unpack("<QQd", raw[12:36])
    offset = 36
    counts = (n, n + 1, nnz, nnz)
    expected = offset + 8 * sum(counts)
    if len(raw) != expected:
        raise InvalidInput(f"{path}: expected {expected} bytes for n={n}, nnz={nnz}, "
                           f"found {len(raw)}")
    dtypes = ("<i8", "<i8", "<i8", "<f8")
    arrays = []
    for cnt, dt in zip(counts, dtypes):
        nbytes = cnt * 8
        arrays.append(np.frombuffer(raw, dtype=dt, count=cnt, offset=offset).copy())
        offset += nbytes
    order, indptr, indices, values = arrays
    return CholeskyFactor(n=int(n), perm=Permutation.from_order(order), rho=float(rho),
                          indptr=indptr.astype(np.int64),
                          indices=indices.astype(np.int64), values=values)
