"""File formats: point clouds, data vectors, kernel configs, Matrix Market,
factor snapshots.

Every input file is read here, one rule per helper: ``_read`` refuses a
missing file, ``_utf8`` text that is not UTF-8, and ``_read_binary`` reads
the one binary frame of points, vectors and factors, which ``_write_binary``
writes: an 8-byte magic, a little-endian header, then little-endian 8-byte
arrays that fill the rest of the file exactly.  CSV formats are UTF-8, use
'.' as the decimal separator and detect an optional header row by failing to
parse the first row as numbers; a parse error names the file line.  CSV
numbers are written as ``%.17g``, which reads back to the same double.
Kernel configs are UTF-8 JSON, as ``KernelConfig.from_json`` parses it.
Matrix Market files are written by SciPy's C++ writer (``scipy.io.mmwrite``)
as coordinate real symmetric: the stored lower triangle, each entry once.
The reader takes ``general`` and ``symmetric`` files.  Every text number, in
CSV and Matrix Market files alike, is parsed by NumPy's ``loadtxt``, so it
follows NumPy's grammar: an optional sign, digits with an optional point and
exponent, or ``nan``/``inf``; no ``_``, non-ASCII digits, hex or junk after a
number.  A reader refuses a malformed file with ``InvalidInput``, or a matrix
too large to hold with ``ResourceLimit``, and names the file.
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
from .kernels import KernelConfig
from .sparse import CholeskyFactor, Permutation, SparseSym

POINTS_MAGIC = b"SMPLPTS1"
VECTOR_MAGIC = b"SMPLVEC1"
FACTOR_MAGIC = b"SMPLCHOL"
_KINDS = {POINTS_MAGIC: "point", VECTOR_MAGIC: "vector", FACTOR_MAGIC: "factor"}


def _read(path) -> tuple[Path, bytes]:
    """The path and the bytes of its file; a missing file is refused."""
    path = Path(path)
    try:
        return path, path.read_bytes()
    except FileNotFoundError as exc:
        raise InvalidInput(f"{path}: no such file") from exc


def _utf8(raw: bytes, path: Path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _write_binary(path, magic: bytes, header: bytes, *arrays) -> None:
    """The magic, the packed header, then the bytes of each (array, dtype)."""
    with open(path, "wb") as fh:
        fh.write(magic + header)
        for array, dtype in arrays:
            fh.write(np.ascontiguousarray(array, dtype=dtype).tobytes())


def _read_binary(raw: bytes, path: Path, kind: str, header: str, counts, dtypes, what: str):
    """The header fields and the arrays of a binary ``kind`` file.

    The magic is followed by the struct ``header`` and by one array of each
    8-byte dtype of ``dtypes``, of the lengths ``counts(*fields)``, which
    fill the file exactly; ``what`` names their entries when they do not.
    """
    if _KINDS.get(raw[:8]) != kind:
        raise InvalidInput(f"{path}: not a {kind} file (wrong magic)")
    offset = 8 + struct.calcsize(header)
    if len(raw) < offset:
        raise InvalidInput(f"{path}: truncated {kind} header")
    fields = struct.unpack_from(header, raw, 8)
    sizes = counts(*fields)
    if len(raw) != offset + 8 * sum(sizes):
        raise InvalidInput(f"{path}: expected {sum(sizes)} {what} ({8 * sum(sizes)} bytes), "
                           f"found {len(raw) - offset} bytes")
    arrays = []
    for size, dtype in zip(sizes, dtypes):
        arrays.append(np.frombuffer(raw, dtype=dtype, count=size, offset=offset).copy())
        offset += 8 * size
    return fields, arrays


def _write_csv(path, table: np.ndarray, header: str = "") -> None:
    # through a handle: np.savetxt would gzip a file whose name ends in ".gz"
    with open(path, "w") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=header, comments="")


# ---------------------------------------------------------------------------
# point clouds


def write_points_csv(path, cloud: PointCloud, header: bool = False) -> None:
    _write_csv(path, cloud.coords, ",".join(f"x{k}" for k in range(cloud.dim)) if header else "")


def write_points_binary(path, cloud: PointCloud) -> None:
    _write_binary(path, POINTS_MAGIC, struct.pack("<II", cloud.dim, cloud.count),
                  (cloud.coords, "<f8"))


def _parse_csv_rows(raw: bytes, path: Path) -> np.ndarray:
    stripped = [r.strip() for r in _utf8(raw, path).replace(";", ",").splitlines()]
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
    path, raw = _read(path)
    if raw[:8] in _KINDS:
        (d, n), (coords,) = _read_binary(raw, path, "point", "<II", lambda d, n: (n * d,),
                                         ("<f8",), "coordinates")
        return PointCloud(coords.reshape(n, d))
    return PointCloud(_parse_csv_rows(raw, path))


# ---------------------------------------------------------------------------
# data vectors


def write_vector_csv(path, values: np.ndarray) -> None:
    _write_csv(path, np.asarray(values, dtype=np.float64).ravel())


def write_vector_binary(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    _write_binary(path, VECTOR_MAGIC, struct.pack("<I", values.size), (values, "<f8"))


def read_vector(path) -> np.ndarray:
    """Read a data vector from CSV or the binary vector format (sniffed).

    Every value must be finite: NaN or an infinity raises ``InvalidInput``.
    """
    path, raw = _read(path)
    if raw[:8] in _KINDS:
        _, (values,) = _read_binary(raw, path, "vector", "<I", lambda n: (n,), ("<f8",),
                                    "values")
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
# kernel configs


def read_kernel(path) -> KernelConfig:
    """Read a kernel config: UTF-8 JSON that ``KernelConfig.from_json`` takes."""
    path, raw = _read(path)
    text = _utf8(raw, path)
    try:
        return KernelConfig.from_json(text)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


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
    path, raw = _read(path)
    # A carriage return separates tokens, as in a CRLF line end; loadtxt
    # would end the line at a lone one.
    raw = raw.replace(b"\r", b" ")
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
    """The factor file, version 1: n, nnz and the ridge, then the permutation
    and L's compressed columns."""
    _write_binary(path, FACTOR_MAGIC, struct.pack("<IQQd", 1, factor.n, factor.nnz, factor.rho),
                  (factor.perm.order, "<i8"), (factor.indptr, "<i8"),
                  (factor.indices, "<i8"), (factor.values, "<f8"))


def read_factor(path) -> CholeskyFactor:
    path, raw = _read(path)
    (version, n, _, rho), (order, indptr, indices, values) = _read_binary(
        raw, path, "factor", "<IQQd", lambda version, n, nnz, rho: (n, n + 1, nnz, nnz),
        ("<i8", "<i8", "<i8", "<f8"), "permutation, column, row and value entries")
    if version != 1:
        raise InvalidInput(f"{path}: unsupported factor version {version}")
    try:
        return CholeskyFactor(n=int(n), perm=Permutation.from_order(order), rho=float(rho),
                              indptr=indptr, indices=indices, values=values)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
