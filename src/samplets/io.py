"""File formats: point clouds, data vectors, Matrix Market, factor snapshots.

Binary formats are little-endian with a magic header; CSV formats are UTF-8,
use '.' as the decimal separator and detect an optional header row by failing
to parse the first row as numbers.  Matrix Market files are written and parsed
by SciPy's C++ reader and writer (``scipy.io.mmwrite``/``mmread``).
"""

from __future__ import annotations

import io
import re
import struct
from pathlib import Path

import numpy as np
import scipy.io

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


def _parse_csv_rows(raw: bytes, path) -> np.ndarray:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
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
    if not parsed:
        raise InvalidInput(f"{path}: file holds a header row but no data")
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
    """Write the full symmetric pattern as coordinate real general.

    Entries go out in column-major order, each value as the shortest string
    that reads back to the same double (for example ``1.4281303977065004E1``).
    """
    # SciPy appends ".mtx" to a path without that suffix, so hand it a handle.
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, a.to_scipy_full().tocoo(), symmetry="general")


# Byte classes of a Matrix Market data section, one bit each, and per byte
# the classes that may not follow it in a decimal number or between two.
_BLANK, _DIGIT, _SIGN, _POINT, _EXP, _OTHER = (1 << k for k in range(6))
_MEMBERS = ((b" \t\r\n", _BLANK, _EXP),       # no exponent without a mantissa
            (b"0123456789", _DIGIT, _SIGN),     # no sign after a digit
            (b"+-", _SIGN, _BLANK | _SIGN | _EXP),  # a sign precedes digits
            (b".", _POINT, _SIGN | _POINT),
            (b"eE", _EXP, _BLANK | _POINT | _EXP))  # an exponent has digits
_CLASS = bytearray([_OTHER]) * 256
_BAD_NEXT = bytearray(256)
for _chars, _cls, _bad in _MEMBERS:
    for _ch in _chars:
        _CLASS[_ch], _BAD_NEXT[_ch] = _cls, _bad | _OTHER
_CLASS, _BAD_NEXT = bytes(_CLASS), bytes(_BAD_NEXT)
_CHECK_BYTES = 1 << 16  # body bytes per run of the token check
_LEADING_PLUS = re.compile(rb"(?<![^ \t\r\n])\+")  # a plus sign that starts a token


def _check_entry_tokens(path: Path, body: bytes, entries: int) -> None:
    """Every token after the size line is a decimal number, three per entry.

    SciPy's reader takes the longest numeric prefix of a value token and
    ignores the rest (``12,5`` reads as 12, ``0x10`` as 0), and it reads
    ``nan`` and ``inf``.  A number here is ``[sign] (digits [. [digits]] |
    . digits) [(e|E) [sign] digits]``.  The test runs on byte classes in a
    few array passes: no byte may follow one that forbids its class, a
    point needs a digit beside it, and with the digits removed, no point may
    follow a point, nor a point or exponent follow an exponent.  Tokens do
    not cross lines, so the body is checked in cache-sized runs of lines.
    """
    tokens = 0
    start = 0  # body[start - 1] ends a line, or start is 0
    while start < len(body):
        stop = body.rfind(b"\n", start, start + _CHECK_BYTES) + 1
        if stop == 0:  # one line longer than a run
            stop = body.index(b"\n", start) + 1
        lines = b"\n" + body[start:stop]
        cls = np.frombuffer(lines.translate(_CLASS), dtype=np.uint8)
        bad_next = np.frombuffer(lines.translate(_BAD_NEXT), dtype=np.uint8)
        marks = np.frombuffer(lines.translate(_CLASS, b"0123456789"), dtype=np.uint8)
        after_exp = marks[:-1] == _EXP
        after_exp[1:] |= (marks[:-2] == _EXP) & (marks[1:-1] == _SIGN)
        if ((bad_next[:-1] & cls[1:]).any()
                or ((cls[1:-1] == _POINT) & ((cls[:-2] | cls[2:]) & _DIGIT == 0)).any()
                or ((marks[:-1] == _POINT) & (marks[1:] == _POINT)).any()
                or (after_exp & (marks[1:] & (_POINT | _EXP) != 0)).any()):
            raise InvalidInput(f"{path}: an entry token is not a decimal number")
        tokens += np.count_nonzero((cls[:-1] == _BLANK) & (cls[1:] != _BLANK))
        start = stop
    if tokens != 3 * entries:
        raise InvalidInput(f"{path}: {tokens} entry tokens for {entries} entries; "
                           "expected three per entry")


def read_matrix_market(path) -> SparseSym:
    """Read a square coordinate real matrix and keep its lower triangle.

    Symmetric files are mirrored; general files must hold both triangles with
    equal values.  Every entry is three decimal numbers and every value is
    finite; comment lines may hold anything.  Malformed files raise
    ``InvalidInput``.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInput(f"{path}: no such file")
    # SciPy gets an in-memory stream, not the path or an open file: a path
    # ending in .gz or .bz2 would turn on decompression, and SciPy's read
    # cursor can outlive a failed call (through the traceback) and abort the
    # interpreter once its file is closed.  SciPy 1.17.1 also segfaults on a
    # NUL byte and on a last line with trailing characters but no newline.
    raw = path.read_bytes()
    if b"\0" in raw:
        raise InvalidInput(f"{path}: NUL byte in a Matrix Market file")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    stream = io.BytesIO(raw)
    banner = stream.readline()
    if not banner.startswith(b"%%MatrixMarket"):
        raise InvalidInput(f"{path}: missing MatrixMarket banner")
    tokens = banner.lower().split()
    if b"coordinate" not in tokens or b"real" not in tokens:
        raise InvalidInput(f"{path}: only coordinate real matrices are supported")
    size_line = stream.readline()  # comment and blank lines come before it
    while size_line and (size_line.startswith(b"%") or not size_line.strip()):
        size_line = stream.readline()
    body_start = stream.tell()
    body = raw[body_start:]
    if b"+" in body:  # SciPy refuses a leading plus sign, as in "1 1 +2"
        stream = io.BytesIO(raw[:body_start] + _LEADING_PLUS.sub(b"", body))
    stream.seek(0)
    # An index beyond int64 raises OverflowError, and the declared entry count
    # is allocated before the body is read, so an absurd one raises MemoryError.
    try:
        coo = scipy.io.mmread(stream)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    _check_entry_tokens(path, body, int(size_line.split()[2]))
    if not np.isfinite(coo.data).all():
        raise InvalidInput(f"{path}: matrix entries must be finite")
    n_rows, n_cols = coo.shape
    if n_rows != n_cols:
        raise InvalidInput(f"{path}: matrix is not square ({n_rows}x{n_cols})")
    full = coo.tocsr()
    if abs(full - full.T).max() > 0:
        raise InvalidInput(f"{path}: matrix is not symmetric")
    keep = coo.row >= coo.col
    return SparseSym.from_triplets(n_rows, coo.row[keep], coo.col[keep], coo.data[keep])


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
