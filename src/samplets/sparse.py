"""Sparse symmetric storage, fill-reducing orderings, Cholesky, and field sampling.

The fill-reducing ordering is Liu's multiple minimum degree on the symmetric
pattern, read from SciPy's SuperLU symbolic pass (an incomplete LU that drops
every off-diagonal entry, so it computes no fill).  The Cholesky factor of the
reordered matrix takes one of two paths, chosen by the matrix alone:

- **dense**, when at least one eighth of A is stored (``nnz_full(A) >= n²/8``):
  the lower triangle of P A P^T is scattered into an n-by-n buffer, LAPACK's
  ``potrf`` factors it in place with BLAS-3 speed, and the nonzeros of L are
  read out column by column.  Entries outside the elimination pattern of the
  order stay exactly zero, so L keeps the sparse pattern, and the buffer is at
  most 8 times the storage of A;
- **sparse** otherwise: SuperLU in symmetric mode with diagonal pivots only.
  For symmetric A the no-pivot LU of the reordered matrix is L D L^T with D
  the diagonal of U, so the factor is L diag(sqrt(D)): U is read once for its
  diagonal, and SuperLU's L is scaled in place, then sorted.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import sqrt

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf
from scipy.sparse.linalg import spilu, splu

from .errors import InvalidInput, NonPositivePivot, allocate
from .transform import inverse_transform_matrix


# ---------------------------------------------------------------------------
# storage


def _lower_triangle(n: int, indptr, indices, values):
    """The compressed-column arrays of a lower triangle of order n, as
    contiguous int64, int64 and float64 arrays.

    Raises InvalidInput unless indptr runs from 0 to the number of stored
    entries, every row index lies in [0, n), every column starts with its
    diagonal entry and row indices strictly increase within a column.
    """
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if indptr.shape != (n + 1,):
        raise InvalidInput("indptr must have length n+1")
    nnz = int(indptr[-1])
    if indptr[0] != 0 or indices.shape != (nnz,) or values.shape != (nnz,):
        raise InvalidInput("indptr must run from 0 to the number of stored entries")
    starts = indptr[:-1]
    if np.any(indptr[1:] <= starts):
        raise InvalidInput("every column must hold at least its diagonal entry")
    if np.any((indices < 0) | (indices >= n)):
        raise InvalidInput(f"row indices must lie in [0, {n})")
    if not np.array_equal(indices[starts], np.arange(n)):
        raise InvalidInput("every column must start with its diagonal entry")
    if nnz > 1:
        gaps = np.diff(indices)
        inside = np.ones(gaps.size, dtype=bool)
        inside[indptr[1:-1] - 1] = False
        if np.any(gaps[inside] <= 0):
            raise InvalidInput("row indices must strictly increase within columns")
    return indptr, indices, values


@dataclass(eq=False)
class SparseSym:
    """Symmetric matrix; the lower triangle in compressed-column form.

    The diagonal is always stored explicitly, row indices are strictly
    increasing within each column, and the first entry of every column is the
    diagonal element.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.indptr, self.indices, self.values = _lower_triangle(
            self.n, self.indptr, self.indices, self.values)

    @classmethod
    def from_triplets(cls, n: int, rows, cols, vals) -> "SparseSym":
        """Build from coordinate data; upper entries are mirrored, duplicates summed.

        Raises InvalidInput unless rows, cols and vals are 1-D arrays of one
        length and every index lies in [0, n).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not rows.shape == cols.shape == vals.shape == (vals.size,):
            raise InvalidInput("rows, cols and values must be 1-D arrays of one length")
        if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)):
            raise InvalidInput(f"an entry index lies outside [0, {n})")
        swap = rows < cols
        rows2 = np.where(swap, cols, rows)
        cols2 = np.where(swap, rows, cols)
        # force an explicit diagonal
        rows2 = np.concatenate([rows2, np.arange(n, dtype=np.int64)])
        cols2 = np.concatenate([cols2, np.arange(n, dtype=np.int64)])
        vals2 = np.concatenate([vals, np.zeros(n)])
        mat = sp.csc_matrix((vals2, (rows2, cols2)), shape=(n, n))
        mat.sum_duplicates()
        mat.sort_indices()
        return cls(n=n, indptr=mat.indptr.astype(np.int64),
                   indices=mat.indices.astype(np.int64), values=mat.data)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseSym":
        a = np.asarray(a, dtype=np.float64)
        n = a.shape[0]
        if a.shape != (n, n):
            raise InvalidInput("dense input must be square")
        if np.max(np.abs(a - a.T)) > 0.0:
            raise InvalidInput("dense input is not symmetric")
        rows, cols = np.nonzero(np.tril(a))
        return cls.from_triplets(n, rows, cols, a[rows, cols])

    @property
    def nnz_lower(self) -> int:
        return int(self.indices.size)

    @property
    def nnz_full(self) -> int:
        return 2 * self.nnz_lower - self.n

    def diagonal(self) -> np.ndarray:
        return self.values[self.indptr[:-1]]

    def to_scipy_full(self) -> sp.csc_matrix:
        lower = sp.csc_matrix((self.values, self.indices, self.indptr), shape=(self.n, self.n))
        strict = sp.tril(lower, k=-1)
        return (lower + strict.T).tocsc()

    def to_dense(self) -> np.ndarray:
        return self.to_scipy_full().toarray()

    def frobenius_norm(self) -> float:
        diag = self.diagonal()
        total = 2.0 * float(np.sum(self.values**2)) - float(np.sum(diag**2))
        return sqrt(total)


def check_ridge(rho: float) -> None:
    """Raise InvalidInput unless ``rho`` is a ridge parameter: finite and > 0."""
    if not 0 < rho < np.inf:
        raise InvalidInput(f"ridge parameter must be positive and finite, got {rho}")


def add_ridge(a: SparseSym, rho: float) -> SparseSym:
    """Shift the diagonal by a finite rho > 0; the sparsity pattern is unchanged."""
    check_ridge(rho)
    values = a.values.copy()
    values[a.indptr[:-1]] += rho
    return SparseSym(n=a.n, indptr=a.indptr.copy(), indices=a.indices.copy(), values=values)


def anz(obj) -> float:
    """Average number of nonzero entries per row.

    Symmetric matrices count mirrored entries on both sides; Cholesky factors
    count the stored lower triangle only.
    """
    if isinstance(obj, SparseSym):
        return obj.nnz_full / obj.n
    if isinstance(obj, CholeskyFactor):
        return obj.nnz / obj.n
    raise InvalidInput(f"anz is defined for SparseSym and CholeskyFactor, got {type(obj)!r}")


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """Bijection with both directions: new = rank[old], old = order[new]."""

    order: np.ndarray
    rank: np.ndarray

    @classmethod
    def from_order(cls, order) -> "Permutation":
        order = np.asarray(order, dtype=np.int64)
        if order.ndim != 1:
            raise InvalidInput(f"order must be 1-D, got shape {order.shape}")
        n = order.size
        if np.any((order < 0) | (order >= n)):
            raise InvalidInput(f"order holds entries outside [0, {n})")
        rank = np.full(n, -1, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        if np.any(rank < 0):
            raise InvalidInput("order is not a permutation")
        return cls(order=order, rank=rank)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        idx = np.arange(n, dtype=np.int64)
        return cls(order=idx, rank=idx.copy())

    @property
    def n(self) -> int:
        return self.order.size


def _permuted(a: SparseSym, perm: Permutation) -> sp.csc_matrix:
    """The full matrix P A P^T in compressed-column form: entry (i, j) moves to
    (rank[i], rank[j])."""
    if perm.n != a.n:
        raise InvalidInput("permutation size does not match matrix size")
    return a.to_scipy_full()[perm.order][:, perm.order]


# ---------------------------------------------------------------------------
# SuperLU in symmetric, diagonal-pivot mode


def _superlu(mat: sp.csc_matrix):
    """Natural-order SuperLU with pivots taken from the diagonal unless it is
    exactly zero."""
    return splu(mat, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _leading_lu(mat: sp.csc_matrix, m: int):
    """Natural-order SuperLU of the leading m-by-m block and its pivots, the
    diagonal of U; None if the block is exactly singular.  Raises
    NonPositivePivot at the first column whose pivot is not positive or was
    replaced by a row swap."""
    try:
        lu = _superlu(mat if m == mat.shape[0] else mat[:m, :m])
    except RuntimeError:  # "Factor is exactly singular"
        return None
    if not np.array_equal(lu.perm_c, np.arange(m)):
        raise RuntimeError("SuperLU reordered the columns of a natural-order factorization")
    pivots = lu.U.diagonal()
    swapped = lu.perm_r != np.arange(m)
    bad = np.flatnonzero(swapped | ~(pivots > 0.0))
    if bad.size:
        j = int(bad[0])
        raise NonPositivePivot(j, 0.0 if swapped[j] else pivots[j])
    return lu, pivots


def _natural_lu(mat: sp.csc_matrix):
    """SuperLU of ``mat`` with neither row nor column exchanges, and its pivots.

    Raises NonPositivePivot at the first column of the elimination whose pivot
    is not positive.  SuperLU does not say where an exactly singular factor
    broke down, but leading blocks share the pivots of the full elimination,
    so the smallest singular leading block ends at the zero pivot.  SuperLU
    also calls a NaN pivot exactly singular, so the pivot is reported as NaN
    when that block holds a non-finite entry.
    """
    n = mat.shape[0]
    factored = _leading_lu(mat, n)
    if factored is not None:
        return factored
    # the leading block of size column + 1 is the smallest singular one
    column = bisect_left(range(1, n), True, key=lambda m: _leading_lu(mat, m) is None)
    block = mat[:column + 1, :column + 1]
    raise NonPositivePivot(column, 0.0 if np.isfinite(block.data).all() else np.nan)


# ---------------------------------------------------------------------------
# fill-reducing orderings


def fill_reducing_order(pattern: SparseSym, method: str = "amd") -> Permutation:
    """A fill-reducing elimination order for the symmetric pattern.

    ``method="amd"`` is Liu's multiple minimum degree on the pattern, as
    SuperLU computes it for its ``MMD_AT_PLUS_A`` column ordering.  SuperLU
    orders before it factors, so the order is read from an incomplete LU that
    drops every off-diagonal entry and computes no fill.  It runs on unit
    off-diagonals with each diagonal set to its row count: that matrix is
    diagonally dominant, never needs a pivot, and makes the order depend on
    the pattern alone.  ``"amd"`` is the only method; ``sparse_cholesky``
    without a permutation factors in the natural order.

    SuperLU gets the upper triangle only: the stored lower triangle's
    compressed columns, read as compressed rows.  Its pattern of A + A^T then
    lists each column's rows in ascending order, as it does for the full
    matrix, so the order is the same, without forming the full matrix.
    """
    if method != "amd":
        raise InvalidInput(f"unknown ordering method {method!r}")
    n, indptr, indices = pattern.n, pattern.indptr, pattern.indices
    values = np.ones(indices.size)
    # each diagonal is its full row count: the column of the lower triangle
    # plus the row, which counts the diagonal a second time
    values[indptr[:-1]] = np.diff(indptr) + np.bincount(indices, minlength=n) - 1
    upper = sp.csr_matrix((values, indices, indptr), shape=(n, n)).tocsc()
    ilu = spilu(upper, drop_tol=np.inf, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    return Permutation.from_order(np.argsort(ilu.perm_c))


# ---------------------------------------------------------------------------
# Cholesky

# A matrix with at least this fraction of its n² entries stored is factored
# densely.  The n-by-n buffer is then at most 8 times the storage of A, and on
# compressed kernels in 1-3 D with N up to 4096, LAPACK was faster than
# SuperLU on every matrix above this density and slower on the large ones
# below it.
_DENSE_FRACTION = 1 / 8


@dataclass(eq=False)
class CholeskyFactor:
    """Lower-triangular factor of P (A + already-applied ridge) P^T.

    L is stored like the lower triangle of a ``SparseSym``; its values are
    finite, its diagonal positive and the recorded ridge finite and
    nonnegative, so L is nonsingular.
    """

    n: int
    perm: Permutation
    rho: float
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.indptr, self.indices, self.values = _lower_triangle(
            self.n, self.indptr, self.indices, self.values)
        if self.perm.n != self.n:
            raise InvalidInput("permutation size does not match factor size")
        if not np.isfinite(self.values).all():
            raise InvalidInput("factor values must be finite")
        if not np.all(self.values[self.indptr[:-1]] > 0.0):
            raise InvalidInput("factor diagonal must be positive")
        _check_recorded_ridge(self.rho)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_scipy(self) -> sp.csc_matrix:
        return sp.csc_matrix((self.values, self.indices, self.indptr), shape=(self.n, self.n))

    @cached_property
    def _triangular_lu(self):
        """SuperLU of L itself: natural order and a positive diagonal, so no
        pivoting and no fill; its solves are the two triangular solves."""
        return _superlu(self.to_scipy())

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b where A is the matrix this factor was computed from.

        ``b`` is a real n-vector or a real (n, k) array of right-hand sides.
        Raises InvalidInput for any other shape or a complex ``b``, or when
        the two substitutions give a value that is not finite, such as an
        overflow on a nearly singular factor.  A non-finite value of the
        first substitution stays non-finite through the second.
        """
        b = np.asarray(b)
        if np.iscomplexobj(b) or b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise InvalidInput(f"right-hand side of shape {b.shape} and type {b.dtype} does "
                               f"not match a factor of order {self.n}, which solves a real "
                               f"{self.n}-vector or a real ({self.n}, k) array")
        lu = self._triangular_lu
        y = lu.solve(b.astype(np.float64, copy=False)[self.perm.order], trans="N")
        x = lu.solve(y, trans="T")
        if not np.isfinite(x).all():
            raise InvalidInput("a triangular solve with the factor gave a non-finite "
                               "result")
        return x[self.perm.rank]


def _check_recorded_ridge(rho: float) -> None:
    """Raise InvalidInput unless ``rho`` is a ridge a factor records: finite
    and >= 0."""
    if not 0 <= rho < np.inf:
        raise InvalidInput(f"ridge must be finite and nonnegative, got {rho}")


def cholesky_method(a: SparseSym) -> str:
    """How ``sparse_cholesky`` factors ``a``: ``"dense"`` with LAPACK when at
    least ``_DENSE_FRACTION`` of its n² entries are stored, else ``"sparse"``
    with SuperLU."""
    return "dense" if a.nnz_full >= _DENSE_FRACTION * a.n * a.n else "sparse"


def _dense_buffer(n: int) -> np.ndarray:
    """A zeroed n-by-n Fortran-order array.

    Raises ResourceLimit when the array cannot be allocated.
    """
    return allocate(np.zeros, (n, n), f"a dense factor of order {n}", order="F")


def _dense_cholesky(a: SparseSym, perm: Permutation):
    """The sorted compressed-column arrays of the Cholesky factor of P A P^T,
    from LAPACK's ``potrf`` on the lower triangle scattered into a dense buffer.

    Entry (i, j) of A lands at (max, min) of (rank[i], rank[j]).  Entries of L
    outside the elimination pattern of the order are sums of exact zeros, so
    reading the nonzeros keeps the sparse pattern.  ``potrf`` stops at a pivot
    that is not positive but lets NaN through, so the pivots it accepted are
    checked as well; NonPositivePivot names the first column at fault.
    """
    n = a.n
    c = _dense_buffer(n)
    rows = perm.rank[a.indices]
    cols = perm.rank[np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))]
    c.ravel(order="F")[np.maximum(rows, cols) + n * np.minimum(rows, cols)] = a.values
    del rows, cols
    c, info = dpotrf(c, lower=1, clean=0, overwrite_a=1)
    if info < 0:
        raise RuntimeError(f"potrf rejected argument {-info}")
    pivots = np.diagonal(c)[:info - 1 if info > 0 else n]
    bad = np.flatnonzero(~(pivots > 0.0))
    if bad.size:
        raise NonPositivePivot(bad[0], pivots[bad[0]])
    if info > 0:
        raise NonPositivePivot(info - 1, c[info - 1, info - 1])
    flat = c.ravel(order="F")  # flat[i + n*j] is L[i, j]
    nonzero = np.flatnonzero(flat != 0.0)  # np.nonzero is slow on float arrays
    indptr = np.searchsorted(nonzero, n * np.arange(n + 1, dtype=np.int64))
    return indptr, nonzero % n, flat[nonzero]


def _superlu_cholesky(a: SparseSym, perm: Permutation):
    """The sorted compressed-column arrays of the Cholesky factor of P A P^T,
    from SuperLU's LU without pivoting.

    For symmetric A the no-pivot LU is L D L^T with D = diag(U), so the
    Cholesky factor is L diag(sqrt(D)).  SuperLU's L is copied out once and
    its columns are scaled in place after SuperLU is freed.
    """
    lu, pivots = _natural_lu(_permuted(a, perm))
    l = lu.L
    del lu
    l.data *= np.repeat(np.sqrt(pivots), np.diff(l.indptr))
    l.sort_indices()  # SuperLU's L is unsorted; the diagonal leads every column
    return l.indptr, l.indices, l.data


def sparse_cholesky(a: SparseSym, perm: Permutation | None = None,
                    rho: float = 0.0) -> CholeskyFactor:
    """Cholesky factor of P A P^T, by LAPACK or SuperLU as ``cholesky_method``
    says.

    Without ``perm`` the matrix is factored in its natural order.  ``rho``
    only records the ridge already contained in ``a``; it must be finite and
    nonnegative, and is checked before any work.  Raises NonPositivePivot
    when a pivot fails to be positive, reporting the column of the permuted
    matrix at fault, and ResourceLimit when the dense path cannot allocate
    its buffer.
    """
    _check_recorded_ridge(rho)
    if perm is None:
        perm = Permutation.identity(a.n)
    if perm.n != a.n:
        raise InvalidInput("permutation size does not match matrix size")
    factor = _dense_cholesky if cholesky_method(a) == "dense" else _superlu_cholesky
    indptr, indices, values = factor(a, perm)
    return CholeskyFactor(n=a.n, perm=perm, rho=rho, indptr=indptr, indices=indices,
                          values=values)


def factorization_residual(a: SparseSym, factor: CholeskyFactor) -> float:
    """|| P A P^T - L L^T ||_F relative to ||A||_F."""
    ap = _permuted(a, factor.perm)
    l = factor.to_scipy()
    diff = (ap - l @ l.T).tocoo()
    denom = a.frobenius_norm()
    return float(np.linalg.norm(diff.data) / denom) if denom > 0 else 0.0


# ---------------------------------------------------------------------------
# Gaussian random fields


def check_key(value: int, name: str = "seed") -> None:
    """Raise InvalidInput unless ``value`` is a Philox key word: an integer
    in [0, 2**64)."""
    if not 0 <= value < 2 ** 64:
        raise InvalidInput(f"{name} must lie in [0, 2**64), got {value}")


def grf_buffer(n_samples: int, n: int) -> np.ndarray:
    """The uninitialised (n_samples, n) array of GRF samples.

    Raises InvalidInput for a negative count and ResourceLimit when the
    array cannot be allocated.
    """
    if n_samples < 0:
        raise InvalidInput(f"sample count must be nonnegative, got {n_samples}")
    return allocate(np.empty, (n_samples, n), f"{n_samples} samples of {n} points")


def normal_stream(seed: int, stream: int, n: int) -> np.ndarray:
    """Deterministic standard normals from a keyed counter-based generator.

    Each (seed, stream) pair owns an independent Philox stream; variates are
    produced by the Box-Muller transform, so a sample never depends on how
    many other samples were drawn.
    """
    check_key(seed)
    check_key(stream, "stream index")
    bits = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    half = (n + 1) // 2
    u = bits.random(2 * half)
    radius = np.sqrt(-2.0 * np.log1p(-u[:half]))  # 1 - u in (0, 1]
    angle = 2.0 * np.pi * u[half:]
    z = np.empty(2 * half)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:n]


def sample_grf(factor: CholeskyFactor, basis, seed: int, n_samples: int) -> np.ndarray:
    """Draw Gaussian random fields with covariance P^T L L^T P, returned in
    the point basis and original point order, one row per sample.

    Each sample runs through its own stream and its own width-1 linear
    algebra, so sample s is bit-identical no matter how many samples are
    requested or in which batches they are drawn.
    """
    n = factor.n
    if basis.size != n:
        raise InvalidInput("factor and basis sizes differ")
    fields = grf_buffer(n_samples, n)
    l_mat = factor.to_scipy()
    for s in range(n_samples):
        z = normal_stream(seed, s, n)
        correlated = l_mat @ z                   # L z, permuted coordinates
        samplet_coeffs = correlated[factor.perm.rank]
        fields[s] = inverse_transform_matrix(basis, samplet_coeffs[:, None])[:, 0]
    return fields
