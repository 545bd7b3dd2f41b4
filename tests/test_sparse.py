import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf
from scipy.sparse.linalg import splu, spsolve_triangular

from samplets.basis import build_samplet_basis
from samplets.cluster_tree import PointCloud
from samplets.errors import InvalidInput, NonPositivePivot, ResourceLimit
from samplets.h2 import assemble_compressed_kernel
from samplets.kernels import SCALED_EXPONENTIAL, KernelConfig
from samplets.sparse import (
    CholeskyFactor,
    Permutation,
    SparseSym,
    _dense_buffer,
    _dense_cholesky,
    _permuted,
    _superlu_cholesky,
    add_ridge,
    anz,
    cholesky_method,
    factorization_residual,
    fill_reducing_order,
    normal_stream,
    sample_grf,
    sparse_cholesky,
)
from samplets.transform import forward_transform_matrix


def identity_sym(n):
    return SparseSym.from_dense(np.eye(n))


def tridiag(n, off=-1.0, diag=4.0):
    a = np.diag(np.full(n, diag))
    a += np.diag(np.full(n - 1, off), -1) + np.diag(np.full(n - 1, off), 1)
    return SparseSym.from_dense(a)


def arrowhead(n, hub_first=True):
    a = np.eye(n) * n
    if hub_first:
        a[0, :] = 1.0
        a[:, 0] = 1.0
        a[0, 0] = n
    else:
        a[-1, :] = 1.0
        a[:, -1] = 1.0
        a[-1, -1] = n
    return SparseSym.from_dense(a)


def generic_spd(a: SparseSym, seed=0) -> np.ndarray:
    """Generic values on the pattern of a with a dominant diagonal: positive
    definite, and no entry of its Cholesky factor cancels to zero."""
    rng = np.random.default_rng(seed)
    dense = a.to_dense()
    mask = dense != 0
    vals = rng.uniform(1.0, 2.0, size=dense.shape)
    vals = np.tril(vals * mask) + np.tril(vals * mask, -1).T
    np.fill_diagonal(vals, np.abs(vals).sum(axis=1) + 1.0)
    return vals


def symbolic_nnz(a: SparseSym) -> int:
    """nnz of the natural-order Cholesky factor of the pattern of a."""
    return sparse_cholesky(SparseSym.from_dense(generic_spd(a))).nnz


def dense_fill_pattern(a: SparseSym, seed=0):
    """Oracle: generic values on the pattern, dense factorization, exact zeros."""
    return np.linalg.cholesky(generic_spd(a, seed)) != 0.0


def reference_order(pattern: SparseSym) -> np.ndarray:
    """Multiple minimum degree as a full numeric SuperLU factorization of the
    dominant matrix on the pattern reports it."""
    lower = sp.csc_matrix((np.ones(pattern.nnz_lower), pattern.indices, pattern.indptr),
                          shape=(pattern.n, pattern.n))
    full = (lower + lower.T).tocsc()
    full.setdiag(np.diff(full.indptr))
    lu = splu(full, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return np.argsort(lu.perm_c)


def permute_sym(a: SparseSym, perm: Permutation) -> SparseSym:
    """Reference P A P^T from coordinates: entry (i, j) moves to (rank[i], rank[j])."""
    cols = np.repeat(np.arange(a.n, dtype=np.int64), np.diff(a.indptr))
    return SparseSym.from_triplets(a.n, perm.rank[a.indices], perm.rank[cols], a.values)


def reference_cholesky(a: SparseSym, perm: Permutation):
    """Reference factor arrays: SuperLU's no-pivot LU of the permuted matrix,
    L diag(sqrt(diag U)) as a sparse product, converted to sorted CSC."""
    lu = splu(permute_sym(a, perm).to_scipy_full(), permc_spec="NATURAL",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    l = (lu.L @ sp.diags(np.sqrt(lu.U.diagonal()))).tocsc()
    l.sort_indices()
    return l.indptr, l.indices, l.data


def dense_reference_cholesky(a: SparseSym, perm: Permutation):
    """Reference factor arrays: LAPACK's potrf of the dense permuted matrix,
    its lower triangle's nonzeros converted to sorted CSC."""
    c, info = dpotrf(np.asfortranarray(permute_sym(a, perm).to_dense()), lower=1)
    assert info == 0
    l = sp.csc_matrix(np.tril(c))
    l.sort_indices()
    return l.indptr, l.indices, l.data


def path_reference_cholesky(a: SparseSym, perm: Permutation):
    """The reference of the path that ``sparse_cholesky`` takes for a."""
    if cholesky_method(a) == "dense":
        return dense_reference_cholesky(a, perm)
    return reference_cholesky(a, perm)


def padded(dense, size=64):
    """The symmetric matrix ``dense`` as the leading block of an identity of
    order ``size``: the same leading pivots, and sparse enough for SuperLU
    once the identity is large."""
    full = np.eye(size)
    m = len(dense)
    full[:m, :m] = dense
    return SparseSym.from_dense(full)


def assert_same_factor(factor, indptr, indices, values):
    for got, want in ((factor.indptr, indptr), (factor.indices, indices),
                      (factor.values, values)):
        np.testing.assert_array_equal(got, want)


@functools.lru_cache(maxsize=None)
def compressed_kernel(d, n):
    """A ridged compressed kernel matrix on n uniform points in d dimensions."""
    cloud = PointCloud(np.random.default_rng(n + d).uniform(-1, 1, size=(n, d)))
    kernel = KernelConfig(SCALED_EXPONENTIAL, distance_scale=10.0 / math.sqrt(2))
    compressed = assemble_compressed_kernel(build_samplet_basis(cloud), kernel,
                                            eta=1.25, p=3, epsilon=1e-3)
    return add_ridge(compressed.matrix, 1.0)


def random_pattern(n, density, seed):
    dense = (np.random.default_rng(seed).random((n, n)) < density).astype(float)
    return SparseSym.from_dense(np.tril(dense, -1) + np.tril(dense, -1).T + np.eye(n))


class TestSparseSym:
    def test_from_dense_round_trip(self):
        a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 4.0]])
        s = SparseSym.from_dense(a)
        np.testing.assert_allclose(s.to_dense(), a)
        assert s.nnz_lower == 5
        assert s.nnz_full == 7

    def test_diagonal_always_present(self):
        s = SparseSym.from_triplets(3, [1], [0], [5.0])
        assert s.nnz_lower == 4  # three structural diagonal entries plus (1,0)
        np.testing.assert_array_equal(s.diagonal(), [0.0, 0.0, 0.0])

    def test_asymmetric_dense_rejected(self):
        with pytest.raises(InvalidInput):
            SparseSym.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("indptr,indices", [
        ([0, 2, 3], [0, 5, 1]),        # a row index outside [0, n)
        ([0, 2, 3], [0, -1, 1]),       # a negative row index
        ([0, 9, 3], [0, 1, 1]),        # a column pointer past nnz
        ([1, 2, 3], [0, 1, 1]),        # indptr not starting at 0
        ([0, 2, 4], [0, 1, 1]),        # indptr not ending at nnz
        ([0, 1, 3], [1, 1, 0]),        # a column not starting with its diagonal
        ([0, 3, 4], [0, 1, 1, 1]),     # rows not strictly increasing
    ])
    def test_malformed_arrays_rejected(self, indptr, indices):
        with pytest.raises(InvalidInput):
            SparseSym(n=2, indptr=np.array(indptr), indices=np.array(indices),
                      values=np.ones(len(indices)))

    def test_values_must_match_indices(self):
        with pytest.raises(InvalidInput):
            SparseSym(n=2, indptr=np.array([0, 2, 3]), indices=np.array([0, 1, 1]),
                      values=np.ones(2))

    def test_frobenius_matches_dense(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        s = SparseSym.from_dense(a)
        assert s.frobenius_norm() == pytest.approx(np.linalg.norm(a))


class TestRidge:
    def test_identity_shift(self):
        s = add_ridge(identity_sym(4), 1.0)
        np.testing.assert_allclose(s.to_dense(), 2.0 * np.eye(4))

    def test_pattern_unchanged_and_additive(self):
        a = tridiag(6)
        once = add_ridge(a, 0.7 + 0.3)
        twice = add_ridge(add_ridge(a, 0.7), 0.3)
        np.testing.assert_array_equal(once.indices, a.indices)
        np.testing.assert_allclose(once.to_dense(), twice.to_dense())

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            add_ridge(identity_sym(2), 0.0)


class TestAnz:
    def test_identity(self):
        assert anz(identity_sym(10)) == 1.0

    def test_dense_symmetric(self):
        assert anz(SparseSym.from_dense(np.full((4, 4), 2.0) + np.eye(4))) == 4.0

    def test_full_lower_factor(self):
        a = SparseSym.from_dense(np.full((4, 4), 0.5) + 4 * np.eye(4))
        factor = sparse_cholesky(a)
        assert anz(factor) == pytest.approx(10 / 4)


class TestOrdering:
    def test_diagonal_returns_identity(self):
        perm = fill_reducing_order(identity_sym(7))
        np.testing.assert_array_equal(perm.order, np.arange(7))

    def test_tridiagonal_zero_fill(self):
        a = tridiag(5)
        perm = fill_reducing_order(a)
        assert symbolic_nnz(permute_sym(a, perm)) == a.nnz_lower  # no fill-in at all

    def test_arrowhead_hub_moves_last(self):
        a = arrowhead(8, hub_first=True)
        perm = fill_reducing_order(a)
        # the hub ends up in the terminal clique (its last edge ties with the
        # final leaf), which eliminates the fill entirely
        assert perm.rank[0] >= 6
        assert symbolic_nnz(permute_sym(a, perm)) == a.nnz_lower
        assert symbolic_nnz(a) == 8 * 9 // 2  # hub first fills the factor completely

    def test_amd_never_worse_than_natural_on_geometric_graphs(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(150, 2))
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        a = SparseSym.from_dense(np.where(d2 < 0.02, 1.0, 0.0) + 4 * np.eye(150))
        perm = fill_reducing_order(a)
        assert symbolic_nnz(permute_sym(a, perm)) <= symbolic_nnz(a)

    @pytest.mark.parametrize("make", [
        lambda: compressed_kernel(1, 300), lambda: compressed_kernel(1, 2048),
        lambda: compressed_kernel(2, 300), lambda: compressed_kernel(2, 512),
        lambda: compressed_kernel(3, 512), lambda: arrowhead(200), lambda: tridiag(200),
        lambda: random_pattern(50, 0.05, 0), lambda: random_pattern(350, 0.05, 3),
    ], ids=["kernel-1d-300", "kernel-1d-2048", "kernel-2d-300", "kernel-2d-512",
            "kernel-3d-512", "arrowhead", "tridiagonal", "random-50", "random-350"])
    def test_amd_equals_the_numeric_factorization_order(self, make):
        a = make()
        np.testing.assert_array_equal(fill_reducing_order(a).order, reference_order(a))

    @pytest.mark.parametrize("method", ["natural", "metis", ""])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(InvalidInput, match="unknown ordering method"):
            fill_reducing_order(tridiag(4), method=method)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 10**6))
    def test_amd_is_a_permutation(self, n, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.2).astype(float)
        dense = np.tril(dense) + np.tril(dense, -1).T + np.eye(n)
        perm = fill_reducing_order(SparseSym.from_dense(dense))
        np.testing.assert_array_equal(np.sort(perm.order), np.arange(n))
        np.testing.assert_array_equal(perm.order[perm.rank], np.arange(n))


class TestSymbolic:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 10**6))
    def test_pattern_matches_dense_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.25).astype(float)
        dense = np.tril(dense, -1) + np.tril(dense, -1).T + np.eye(n)
        a = SparseSym.from_dense(dense)
        factor = sparse_cholesky(SparseSym.from_dense(generic_spd(a, seed)))
        got = factor.to_scipy().toarray() != 0.0
        np.testing.assert_array_equal(got, dense_fill_pattern(a, seed))
        for j in range(n):  # sorted rows, diagonal first
            rows = factor.indices[factor.indptr[j]:factor.indptr[j + 1]]
            assert rows[0] == j
            assert np.all(np.diff(rows) > 0)


class TestCholesky:
    def test_identity(self):
        factor = sparse_cholesky(identity_sym(5))
        np.testing.assert_allclose(factor.to_scipy().toarray(), np.eye(5))

    def test_two_by_two_by_hand(self):
        a = SparseSym.from_dense(np.array([[4.0, 2.0], [2.0, 3.0]]))
        factor = sparse_cholesky(a)
        np.testing.assert_allclose(factor.to_scipy().toarray(),
                                   [[2.0, 0.0], [1.0, math.sqrt(2)]])

    @pytest.mark.parametrize("change", ["permutation", "pattern", "nan", "diagonal", "ridge"])
    def test_malformed_factor_rejected(self, change):
        factor = sparse_cholesky(SparseSym.from_dense(np.array([[4.0, 2.0], [2.0, 3.0]])))
        fields = dict(n=2, perm=factor.perm, rho=0.0, indptr=factor.indptr,
                      indices=factor.indices, values=factor.values.copy())
        if change == "permutation":
            fields["perm"] = Permutation.identity(3)
        elif change == "pattern":
            fields["indices"] = np.array([0, 2, 1])
        elif change == "nan":
            fields["values"][1] = np.nan
        elif change == "diagonal":
            fields["values"][2] = 0.0
        else:
            fields["rho"] = -1.0
        with pytest.raises(InvalidInput):
            CholeskyFactor(**fields)

    def test_indefinite_reports_column(self):
        a = SparseSym.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NonPositivePivot) as err:
            sparse_cholesky(a)
        assert err.value.column == 1
        assert err.value.value == pytest.approx(-3.0)

    def test_zero_pivot_reports_column_despite_row_swap(self):
        a = SparseSym.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NonPositivePivot) as err:
            sparse_cholesky(a)
        assert err.value.column == 0
        assert err.value.value == 0.0

    SINGULAR = [
        [[1.0, 1.0], [1.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ]

    @pytest.mark.parametrize("dense", SINGULAR)
    def test_exactly_singular_reports_column(self, dense):
        a = SparseSym.from_dense(np.array(dense))
        with pytest.raises(NonPositivePivot) as err:
            sparse_cholesky(a)
        assert err.value.column == 1
        assert err.value.value == 0.0

    @pytest.mark.parametrize("dense, column, value", [
        ([[1.0, 2.0], [2.0, 1.0]], 1, -3.0),
        ([[0.0, 1.0], [1.0, 0.0]], 0, 0.0),
    ] + [(dense, 1, 0.0) for dense in SINGULAR], ids=[
        "indefinite", "zero-pivot", "singular-2", "singular-3", "singular-3-coupled"])
    def test_failures_report_the_same_column_on_both_paths(self, dense, column, value):
        """The tiny cases take LAPACK; padded into an identity they take
        SuperLU, whose exactly singular factors are found by bisection."""
        for a, method in ((SparseSym.from_dense(np.array(dense)), "dense"),
                          (padded(dense), "sparse")):
            assert cholesky_method(a) == method
            with pytest.raises(NonPositivePivot) as err:
                sparse_cholesky(a)
            assert (err.value.column, err.value.value) == (column, value)

    NAN_PIVOTS = [
        ([1.0, np.nan], 1),
        ([np.nan, 1.0, -1.0], 0),   # potrf stops at column 2; the NaN comes first
        ([1.0, 1.0, np.nan, 1.0], 2),
    ]

    @pytest.mark.parametrize("diagonal, column", NAN_PIVOTS)
    def test_nan_pivot_reported_on_the_dense_path(self, diagonal, column):
        a = SparseSym.from_dense(np.diag(diagonal))
        assert cholesky_method(a) == "dense"
        with pytest.raises(NonPositivePivot) as err:
            sparse_cholesky(a)
        assert err.value.column == column
        assert np.isnan(err.value.value)

    @pytest.mark.parametrize("diagonal, column", NAN_PIVOTS)
    def test_nan_pivot_reported_on_the_sparse_path(self, diagonal, column):
        # SuperLU calls a NaN pivot exactly singular; the bisection finds its column
        a = padded(np.diag(diagonal))
        assert cholesky_method(a) == "sparse"
        with pytest.raises(NonPositivePivot) as err:
            sparse_cholesky(a)
        assert err.value.column == column
        assert np.isnan(err.value.value)

    def test_unallocatable_dense_buffer_is_a_resource_limit(self, monkeypatch):
        with pytest.raises(ResourceLimit):
            _dense_buffer(1 << 32)  # 2**67 bytes, beyond the address space

        def no_memory(*args, **kwargs):
            raise MemoryError

        a = SparseSym.from_dense(np.array([[4.0, 2.0], [2.0, 3.0]]))
        monkeypatch.setattr(np, "zeros", no_memory)
        with pytest.raises(ResourceLimit, match="dense factor of order 2"):
            sparse_cholesky(a)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 60), seed=st.integers(0, 10**6))
    def test_residual_and_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.15) * rng.normal(size=(n, n))
        dense = np.tril(dense, -1) + np.tril(dense, -1).T
        dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
        a = SparseSym.from_dense(dense)
        perm = fill_reducing_order(a)
        factor = sparse_cholesky(a, perm)
        assert factorization_residual(a, factor) <= 1e-10
        b = rng.normal(size=n)
        x = factor.solve(b)
        assert np.linalg.norm(dense @ x - b) <= 1e-8 * np.linalg.norm(b)

    @pytest.mark.parametrize("d, n", [(1, 300), (2, 512), (3, 512)])
    def test_factor_does_not_depend_on_how_the_matrix_is_permuted(self, d, n):
        a = compressed_kernel(d, n)
        perm = fill_reducing_order(a)
        factor = sparse_cholesky(a, perm)
        natural = sparse_cholesky(permute_sym(a, perm))
        assert_same_factor(factor, natural.indptr, natural.indices, natural.values)

    @pytest.mark.parametrize("d, n, method", [
        (1, 300, "sparse"), (2, 512, "dense"), (3, 512, "dense"), (2, 1024, "dense"),
        (2, 2048, "sparse")])
    def test_method_follows_density(self, d, n, method):
        a = compressed_kernel(d, n)
        assert cholesky_method(a) == method
        assert (a.nnz_full >= a.n ** 2 / 8) == (method == "dense")

    @pytest.mark.parametrize("d, n", [(1, 300), (2, 512), (3, 512), (2, 2048)])
    def test_factor_matches_reference_construction(self, d, n):
        """Bit-for-bit: potrf of the dense permuted matrix on the dense path,
        SuperLU's L diag(sqrt(diag U)) on the sparse path."""
        a = compressed_kernel(d, n)
        perm = fill_reducing_order(a)
        assert_same_factor(sparse_cholesky(a, perm), *path_reference_cholesky(a, perm))

    @pytest.mark.parametrize("d, n", [(1, 300), (2, 512), (3, 512), (2, 2048)])
    def test_paths_agree(self, d, n):
        """Both paths keep the pattern of the order; values agree to 1e-14 of
        the largest entry of L."""
        a = compressed_kernel(d, n)
        perm = fill_reducing_order(a)
        indptr, indices, values = _dense_cholesky(a, perm)
        want_indptr, want_indices, want_values = _superlu_cholesky(a, perm)
        np.testing.assert_array_equal(indptr, want_indptr)
        np.testing.assert_array_equal(indices, want_indices)
        assert np.max(np.abs(values - want_values)) <= 1e-14 * np.max(np.abs(want_values))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 10**6), pad=st.sampled_from([0, 400]))
    def test_random_factor_matches_reference_construction(self, n, seed, pad):
        """Unpadded matrices mostly take the dense path; followed by an
        identity of order 400 they always take the sparse one."""
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.2) * rng.normal(size=(n, n))
        dense = np.tril(dense, -1) + np.tril(dense, -1).T
        dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
        a = padded(dense, n + pad)
        if pad:
            assert cholesky_method(a) == "sparse"
        perm = Permutation.from_order(rng.permutation(a.n))
        assert_same_factor(sparse_cholesky(a, perm), *path_reference_cholesky(a, perm))

    @pytest.mark.parametrize("lower, overflow", [
        ([[1e-300, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], np.isnan),
        ([[1e-300, 0.0], [0.0, 1.0]], np.isinf),
    ], ids=["nan", "inf"])
    def test_non_finite_solve_rejected(self, lower, overflow):
        l = sp.csc_matrix(np.array(lower))
        factor = CholeskyFactor(n=l.shape[0], perm=Permutation.identity(l.shape[0]),
                                rho=0.0, indptr=l.indptr, indices=l.indices, values=l.data)
        ones = np.ones(factor.n)
        lu = splu(l, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        with np.errstate(all="ignore"):  # the unchecked substitutions overflow
            assert overflow(lu.solve(lu.solve(ones), trans="T")).any()
        with pytest.raises(InvalidInput, match="non-finite"):
            factor.solve(ones)

    @pytest.mark.parametrize("shape", [(5,), (2,), (2, 4), (4, 1), (), (3, 2, 2)])
    def test_solve_rejects_a_right_hand_side_of_the_wrong_length(self, shape):
        factor = sparse_cholesky(SparseSym.from_dense(np.diag([4.0, 9.0, 16.0])))
        with pytest.raises(InvalidInput, match="does not match a factor of order 3"):
            factor.solve(np.ones(shape))

    @pytest.mark.parametrize("half", ["solve"])
    @pytest.mark.parametrize("shape", [(3,), (3, 2)])
    def test_a_complex_right_hand_side_is_refused(self, half, shape):
        factor = sparse_cholesky(SparseSym.from_dense(np.diag([4.0, 9.0, 16.0])))
        with pytest.raises(InvalidInput, match="complex128 does not match"):
            getattr(factor, half)(np.full(shape, 1.0 + 2.0j))

    @pytest.mark.parametrize("half", ["solve"])
    @pytest.mark.parametrize("length", [5, 2])
    def test_substitutions_reject_a_right_hand_side_of_the_wrong_length(self, half, length):
        factor = sparse_cholesky(SparseSym.from_dense(np.diag([4.0, 9.0, 16.0])))
        with pytest.raises(InvalidInput, match="does not match a factor of order 3"):
            getattr(factor, half)(np.ones(length))

    def test_solve_takes_columns(self):
        dense = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        factor = sparse_cholesky(SparseSym.from_dense(dense))
        b = np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose(dense @ factor.solve(b), b, atol=1e-13)

    def test_permutation_round_trip(self):
        perm = Permutation.from_order([2, 0, 3, 1])
        np.testing.assert_array_equal(perm.rank[perm.order], np.arange(4))
        np.testing.assert_array_equal(perm.order[perm.rank], np.arange(4))

    def test_permute_sym_matches_dense(self):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(6, 6))
        dense = dense + dense.T + 10 * np.eye(6)
        a = SparseSym.from_dense(dense)
        perm = Permutation.from_order([5, 3, 0, 1, 4, 2])
        expected = dense[np.ix_(perm.order, perm.order)]
        np.testing.assert_array_equal(permute_sym(a, perm).to_dense(), expected)
        np.testing.assert_array_equal(_permuted(a, perm).toarray(), expected)
        with pytest.raises(InvalidInput):
            _permuted(a, Permutation.identity(5))


class TestGrf:
    def test_stream_determinism_and_moments(self):
        z1 = normal_stream(123, 0, 50000)
        z2 = normal_stream(123, 0, 50000)
        np.testing.assert_array_equal(z1, z2)
        assert abs(z1.mean()) < 0.02
        assert abs(z1.std() - 1.0) < 0.02
        assert not np.array_equal(z1[:10], normal_stream(123, 1, 10))
        assert not np.array_equal(z1[:10], normal_stream(124, 0, 10))

    def test_single_point_sample_is_raw_draw(self):
        basis = build_samplet_basis(PointCloud(np.array([[0.0]])), q=0, q_leaf=0)
        factor = sparse_cholesky(identity_sym(1))
        fields = sample_grf(factor, basis, seed=7, n_samples=3)
        expected = np.array([normal_stream(7, s, 1)[0] for s in range(3)])
        np.testing.assert_allclose(fields[:, 0], expected)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range_rejected(self, seed):
        with pytest.raises(InvalidInput, match=r"seed must lie in \[0, 2\*\*64\)"):
            normal_stream(seed, 0, 4)

    @pytest.mark.parametrize("n_samples,error", [(-1, InvalidInput), (10 ** 12, ResourceLimit),
                                                 (10 ** 20, ResourceLimit)])
    def test_bad_sample_count_rejected(self, n_samples, error):
        basis = build_samplet_basis(PointCloud(np.linspace(-1, 1, 64)[:, None]), q=1)
        factor = sparse_cholesky(identity_sym(64))
        with pytest.raises(error):
            sample_grf(factor, basis, seed=1, n_samples=n_samples)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.uniform(-1, 1, size=(32, 1)))
        basis = build_samplet_basis(cloud, q=1)
        a = add_ridge(identity_sym(32), 1.0)
        factor = sparse_cholesky(a, rho=1.0)
        f1 = sample_grf(factor, basis, seed=5, n_samples=4)
        f2 = sample_grf(factor, basis, seed=5, n_samples=4)
        np.testing.assert_array_equal(f1, f2)

    def test_sample_does_not_depend_on_batch_size(self):
        rng = np.random.default_rng(12)
        cloud = PointCloud(rng.uniform(-1, 1, size=(40, 2)))
        basis = build_samplet_basis(cloud, q=1)
        a = add_ridge(identity_sym(40), 0.5)
        factor = sparse_cholesky(a, rho=0.5)
        lone = sample_grf(factor, basis, seed=8, n_samples=1)
        batch = sample_grf(factor, basis, seed=8, n_samples=5)
        np.testing.assert_array_equal(lone[0], batch[0])

    def test_whitening_inverse_recovers_noise(self):
        from samplets.kernels import KernelConfig, dense_kernel_matrix
        from samplets.h2 import dense_compressed_oracle

        rng = np.random.default_rng(13)
        cloud = PointCloud(rng.uniform(-1, 1, size=(40, 1)))
        basis = build_samplet_basis(cloud, q=1)
        cfg = KernelConfig("matern12", length_scale=0.5)
        k_sig = dense_compressed_oracle(cfg, basis)
        a = add_ridge(SparseSym.from_dense(k_sig, tol=1e-12), 1.0)
        perm = fill_reducing_order(a)
        factor = sparse_cholesky(a, perm, rho=1.0)
        fields = sample_grf(factor, basis, seed=3, n_samples=5)
        coeffs = forward_transform_matrix(basis, fields.T)
        z = spsolve_triangular(factor.to_scipy(), coeffs[factor.perm.order])
        expected = np.column_stack([normal_stream(3, s, 40) for s in range(5)])
        np.testing.assert_allclose(z, expected, atol=1e-8)

    def test_covariance_converges(self):
        from samplets.kernels import KernelConfig
        from samplets.h2 import assemble_compressed_kernel

        n = 48
        cloud = PointCloud(np.linspace(-1, 1, n)[:, None])
        basis = build_samplet_basis(cloud, q=1)
        cfg = KernelConfig("matern12", length_scale=1.0)
        compressed = assemble_compressed_kernel(basis, cfg, eta=np.inf, p=1, epsilon=0.0)
        rho = 0.5
        a = add_ridge(compressed.matrix, rho)
        factor = sparse_cholesky(a, fill_reducing_order(a), rho=rho)
        n_samples = 6000
        fields = sample_grf(factor, basis, seed=29, n_samples=n_samples)
        emp = fields.T @ fields / n_samples
        from samplets.kernels import dense_kernel_matrix

        target = dense_kernel_matrix(cfg, cloud) + rho * np.eye(n)
        sigma = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n_samples)
        inside = np.abs(emp - target) <= 3.0 * sigma
        assert inside.mean() >= 0.97
