"""File formats: point clouds, data vectors, Matrix Market, factor snapshots.

Binary formats are little-endian with a magic header; CSV formats are UTF-8,
use '.' as the decimal separator and detect an optional header row by failing
to parse the first row as numbers; a parse error names the file line.  Matrix
Market files are written by SciPy's C++ writer (``scipy.io.mmwrite``) as
coordinate real symmetric: the stored lower triangle, each entry once.  The
reader takes ``general`` and ``symmetric`` files.  Every text number, in CSV
and Matrix Market files alike, is parsed by NumPy's ``loadtxt``, so it
follows NumPy's grammar: an optional sign, digits with an optional point and
exponent, or ``nan``/``inf``; no ``_``, non-ASCII digits, hex or junk after a
number.
"""

from __future__ import annotations

import io
import struct
import warnings
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .cluster_tree import PointCloud
from .errors import InvalidInput, ResourceLimit
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


def _parse_csv_rows(raw: bytes, path) -> np.ndarray:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    stripped = [r.strip() for r in text.replace(";", ",").splitlines()]
    lines = [k for k, r in enumerate(stripped, 1) if r]  # the file line of each kept row
    rows = [stripped[k - 1] for k in lines]
    if not rows:
        raise InvalidInput(f"{path}: file contains no data")
    try:
        np.loadtxt(rows[:1], delimiter=",", comments=None)
    except ValueError:
        lines, rows = lines[1:], rows[1:]  # header row, skipped
    if not rows:
        raise InvalidInput(f"{path}: file holds a header row but no data")
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        bad = _first_bad_row(rows)
        row = rows[bad]
        what = ("rows have inconsistent column counts" if row.count(",") != rows[0].count(",")
                else f"a data row is not decimal numbers ({row[:60]!r})")
        raise InvalidInput(f"{path}: line {lines[bad]}: {what}") from exc


def _first_bad_row(rows: list[str]) -> int:
    """The index of the first row that ``np.loadtxt`` refuses in ``rows``,
    which it refuses as a whole.  A prefix of rows parses exactly when it
    ends before that row, so the row is found by bisection."""
    good, bad = 0, len(rows)  # rows[:good] parse, rows[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.loadtxt(rows[:mid], delimiter=",", comments=None, ndmin=2)
            good = mid
        except ValueError:
            bad = mid
    return bad - 1


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
        if len(raw) != 16 + 8 * n * d:
            raise InvalidInput(f"{path}: expected {n * d} coordinates ({8 * n * d} bytes), "
                               f"found {len(raw) - 16} bytes")
        data = np.frombuffer(raw, dtype="<f8", offset=16)
        return PointCloud(data.reshape(n, d).copy())
    if raw[:8] == VECTOR_MAGIC or raw[:8] == FACTOR_MAGIC:
        raise InvalidInput(f"{path}: not a point file (wrong magic)")
    return PointCloud(_parse_csv_rows(raw, path))


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
    """Read a data vector from CSV or the binary vector format (sniffed).

    Every value must be finite: NaN or an infinity raises ``InvalidInput``.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInput(f"{path}: no such file")
    raw = path.read_bytes()
    if raw[:8] == VECTOR_MAGIC:
        if len(raw) < 12:
            raise InvalidInput(f"{path}: truncated vector header")
        (n,) = struct.unpack("<I", raw[8:12])
        if len(raw) != 12 + 8 * n:
            raise InvalidInput(f"{path}: expected {n} values ({8 * n} bytes), "
                               f"found {len(raw) - 12} bytes")
        values = np.frombuffer(raw, dtype="<f8", offset=12).astype(np.float64)
    elif raw[:8] == POINTS_MAGIC or raw[:8] == FACTOR_MAGIC:
        raise InvalidInput(f"{path}: not a vector file (wrong magic)")
    else:
        table = _parse_csv_rows(raw, path)
        if table.shape[1] != 1:
            raise InvalidInput(f"{path}: expected a single CSV column, got {table.shape[1]}")
        values = table[:, 0]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidInput(f"{path}: value {bad[0]} is {values[bad[0]]}; "
                           f"data values must be finite")
    return values


# ---------------------------------------------------------------------------
# Matrix Market


def write_matrix_market(path, a: SparseSym) -> None:
    """Write the stored lower triangle as coordinate real symmetric.

    Each stored entry is written once; readers of the format mirror the
    strictly lower entries.  Entries go out in column-major order, each value
    as the shortest string that reads back to the same double (for example
    ``1.4281303977065004E1``).  Non-finite values are refused, as the
    reader refuses them.
    """
    if not np.isfinite(a.values).all():
        raise InvalidInput(f"{path}: matrix entries must be finite")
    lower = sp.csc_matrix((a.values, a.indices, a.indptr), shape=(a.n, a.n))
    # SciPy appends ".mtx" to a path without that suffix, so hand it a handle.
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, lower, symmetry="symmetric")


def read_matrix_market(path) -> SparseSym:
    """Read a square coordinate real matrix and keep its lower triangle.

    The banner names a ``general`` or ``symmetric`` matrix.  A symmetric
    file's entries go into the lower triangle as they stand: an upper entry
    counts as its mirror, and duplicates are summed.  General files must
    hold both triangles with equal values.  Every entry line is three numbers
    (two 1-based indices and a finite value) and comment lines before the
    size line may hold anything.  Malformed files raise ``InvalidInput``, and
    a matrix too large to hold raises ``ResourceLimit``.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInput(f"{path}: no such file")
    # A carriage return separates tokens, as in a CRLF line end; loadtxt
    # would end the line at a lone one.
    raw = path.read_bytes().replace(b"\r", b" ")
    fh = io.BytesIO(raw)
    kind = b" ".join(fh.readline().lower().split()[:5])
    if kind not in (b"%%matrixmarket matrix coordinate real general",
                    b"%%matrixmarket matrix coordinate real symmetric"):
        raise InvalidInput(f"{path}: not a coordinate real general or symmetric matrix")
    size_line = fh.readline()  # comment and blank lines come before it
    while size_line and (size_line.startswith(b"%") or not size_line.strip()):
        size_line = fh.readline()
    body_start = fh.tell()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # on empty input, refused or counted below
        try:
            n, n_cols, count = np.loadtxt([size_line.decode("ascii")], dtype=np.int64,
                                          comments=None, ndmin=1)
        except ValueError as exc:
            raise InvalidInput(f"{path}: the size line is not three integers") from exc
        if not 0 < n == n_cols:
            raise InvalidInput(f"{path}: a {n}x{n_cols} matrix is not square and nonempty")
        try:
            entries = np.loadtxt(fh, dtype="i8,i8,f8", comments=None, ndmin=1, encoding="ascii")
        except ValueError as exc:
            tokens = {len(line.split()) for line in raw[body_start:].splitlines()} - {0}
            what = ("an entry line is not three tokens; expected three per entry"
                    if tokens - {3} else "an entry token is not a decimal number")
            raise InvalidInput(f"{path}: {what} ({exc})") from exc
    if entries.size != count:
        raise InvalidInput(f"{path}: {entries.size} entries where the size line declares {count}")
    rows, cols, values = entries["f0"] - 1, entries["f1"] - 1, entries["f2"]
    if ((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)).any():
        raise InvalidInput(f"{path}: an entry index lies outside [1, {n}]")
    if not np.isfinite(values).all():
        raise InvalidInput(f"{path}: matrix entries must be finite")
    try:
        if kind.endswith(b"general"):
            full = sp.csr_matrix((values, (rows, cols)), shape=(n, n))
            if abs(full - full.T).max() > 0:
                raise InvalidInput(f"{path}: matrix is not symmetric")
            keep = rows >= cols
            rows, cols, values = rows[keep], cols[keep], values[keep]
        return SparseSym.from_triplets(int(n), rows, cols, values)
    except MemoryError as exc:
        raise ResourceLimit(f"{path}: a {n}x{n} matrix is too large to hold") from exc


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
    try:
        return CholeskyFactor(n=int(n), perm=Permutation.from_order(order), rho=float(rho),
                              indptr=indptr, indices=indices, values=values)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
