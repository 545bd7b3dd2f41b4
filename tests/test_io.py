import math
import struct
import warnings

import numpy as np
import pytest

from samplets import io as sio
from samplets.basis import build_samplet_basis
from samplets.cluster_tree import PointCloud
from samplets.errors import InvalidInput, ResourceLimit
from samplets.h2 import assemble_compressed_kernel
from samplets.kernels import SCALED_EXPONENTIAL, KernelConfig
from samplets.sparse import (
    CholeskyFactor,
    Permutation,
    SparseSym,
    add_ridge,
    fill_reducing_order,
    sparse_cholesky,
)


@pytest.fixture
def cloud():
    rng = np.random.default_rng(0)
    return PointCloud(rng.uniform(-1, 1, size=(17, 3)))


class TestPointFiles:
    def test_csv_round_trip(self, tmp_path, cloud):
        path = tmp_path / "pts.csv"
        sio.write_points_csv(path, cloud)
        again = sio.read_points(path)
        np.testing.assert_array_equal(again.coords, cloud.coords)

    def test_csv_header_detection(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n0.5,1.5\n-2.0,3.25\n")
        cloud = sio.read_points(path)
        np.testing.assert_allclose(cloud.coords, [[0.5, 1.5], [-2.0, 3.25]])

    @pytest.mark.parametrize("text", [
        "x,y\n  \n0.5,1.5\n \t \n-2.0,3.25\n\n",
        "x,y\r\n0.5,1.5\r\n-2.0,3.25\r\n",
        "0.5;1.5\n-2.0;3.25\n",
        "x;y\n0.5 ; 1.5\n-2.0,3.25",
    ], ids=["blank-lines", "crlf", "semicolons", "mixed-separators"])
    def test_csv_layouts_read_alike(self, tmp_path, text):
        path = tmp_path / "pts.csv"
        path.write_bytes(text.encode())
        np.testing.assert_array_equal(sio.read_points(path).coords,
                                      [[0.5, 1.5], [-2.0, 3.25]])

    @pytest.mark.parametrize("reader,row", [
        (sio.read_points, "1_000,2"), (sio.read_points, "\u0661\u0662,3"),
        (sio.read_points, "1,2 # note"), (sio.read_points, "1,2,"),
        (sio.read_points, "0x10,1"), (sio.read_vector, "1_000"),
        (sio.read_vector, "\u0661\u0662"), (sio.read_vector, "# note"),
        (sio.read_vector, "1,"),
    ], ids=["underscore", "arabic-indic-digits", "comment", "trailing-comma", "hex",
            "vector-underscore", "vector-arabic-indic-digits", "vector-comment",
            "vector-trailing-comma"])
    def test_csv_non_numbers_rejected(self, tmp_path, reader, row):
        first = "0.5,1.5" if reader is sio.read_points else "0.5"
        path = tmp_path / "bad.csv"
        path.write_text(f"{first}\n{row}\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match="not decimal numbers|inconsistent"):
            reader(path)

    @pytest.mark.parametrize("text,line,what", [
        ("x,y\n\n1,2\n1_000,2\n", 4, "not decimal numbers"),
        ("1,2\n\n\n3,4\n5,zz\n", 5, "not decimal numbers"),
        ("x,y\n1,2\n\n3,4\n\n5,6,7\n8,9\n", 6, "inconsistent"),
        ("x,y\n1_000,2\n3,4\n", 2, "not decimal numbers"),
    ], ids=["after-header-and-blank", "after-blanks", "column-count", "first-after-header"])
    def test_csv_parse_error_names_the_file_line(self, tmp_path, text, line, what):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidInput, match=f": line {line}: .*{what}"):
            sio.read_points(path)

    def test_binary_round_trip(self, tmp_path, cloud):
        path = tmp_path / "pts.bin"
        sio.write_points_binary(path, cloud)
        again = sio.read_points(path)
        np.testing.assert_array_equal(again.coords, cloud.coords)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInput, match="no-such"):
            sio.read_points(tmp_path / "no-such.csv")

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "vec.bin"
        sio.write_vector_binary(path, np.ones(3))
        with pytest.raises(InvalidInput, match="wrong magic"):
            sio.read_points(path)

    def test_bad_rows_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InvalidInput, match="inconsistent"):
            sio.read_points(path)

    @pytest.mark.parametrize("reader", [sio.read_points, sio.read_vector])
    def test_header_without_data_rejected(self, tmp_path, reader):
        path = tmp_path / "header.csv"
        path.write_text("x,y\n")
        with pytest.raises(InvalidInput, match="no data"):
            reader(path)

    @pytest.mark.parametrize("extra", [1, 7, 9])
    def test_binary_payload_not_whole_values_rejected(self, tmp_path, cloud, extra):
        path = tmp_path / "pts.bin"
        sio.write_points_binary(path, cloud)
        raw = path.read_bytes()
        path.write_bytes(raw[:-extra] if extra < 8 else raw + bytes(extra))
        with pytest.raises(InvalidInput, match="coordinates"):
            sio.read_points(path)

    @pytest.mark.parametrize("reader", [sio.read_points, sio.read_vector])
    def test_non_utf8_rejected(self, tmp_path, reader):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\xff\xfe1,2\n")
        with pytest.raises(InvalidInput, match="UTF-8"):
            reader(path)


class TestVectorFiles:
    def test_csv_round_trip(self, tmp_path):
        vals = np.array([1.0, -2.5, 3e-17, 4.125])
        path = tmp_path / "v.csv"
        sio.write_vector_csv(path, vals)
        np.testing.assert_array_equal(sio.read_vector(path), vals)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=101)
        path = tmp_path / "v.bin"
        sio.write_vector_binary(path, vals)
        np.testing.assert_array_equal(sio.read_vector(path), vals)

    @pytest.mark.parametrize("extra", [1, 7, 9])
    def test_binary_payload_not_whole_values_rejected(self, tmp_path, extra):
        path = tmp_path / "v.bin"
        sio.write_vector_binary(path, np.arange(5.0))
        raw = path.read_bytes()
        path.write_bytes(raw[:-extra] if extra < 8 else raw + bytes(extra))
        with pytest.raises(InvalidInput, match="values"):
            sio.read_vector(path)

    def test_multi_column_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(InvalidInput, match="single CSV column"):
            sio.read_vector(path)

    @pytest.mark.parametrize("writer", [sio.write_vector_csv, sio.write_vector_binary],
                             ids=["csv", "binary"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, writer, bad):
        vals = np.array([1.0, 2.0, bad, 4.0])
        path = tmp_path / "v.dat"
        writer(path, vals)
        with pytest.raises(InvalidInput, match="value 2 .*finite"):
            sio.read_vector(path)


class TestMatrixMarket:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        dense = (rng.random((9, 9)) < 0.3) * rng.normal(size=(9, 9))
        dense = np.tril(dense) + np.tril(dense, -1).T
        dense += np.diag(np.abs(dense).sum(axis=1) + 1)
        a = SparseSym.from_dense(dense)
        path = tmp_path / "k.mtx"
        sio.write_matrix_market(path, a)
        header = path.read_text().splitlines()[0]
        assert header == "%%MatrixMarket matrix coordinate real symmetric"
        again = sio.read_matrix_market(path)
        np.testing.assert_array_equal(again.to_dense(), dense)

    def test_symmetric_header_accepted(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 3\n1 1 4.0\n2 1 1.0\n2 2 3.0\n")
        a = sio.read_matrix_market(path)
        np.testing.assert_allclose(a.to_dense(), [[4.0, 1.0], [1.0, 3.0]])

    @pytest.mark.parametrize("symmetry", ["skew-symmetric", "hermitian"])
    def test_only_general_and_symmetric_banners(self, tmp_path, symmetry):
        path = tmp_path / "s.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                        "2 2 2\n1 1 0.0\n2 1 1.0\n")
        with pytest.raises(InvalidInput, match="general or symmetric"):
            sio.read_matrix_market(path)

    def test_no_entries_read_as_the_zero_matrix(self, tmp_path):
        path = tmp_path / "z.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = sio.read_matrix_market(path)
        np.testing.assert_array_equal(a.to_dense(), np.zeros((3, 3)))

    def test_dimension_beyond_memory_is_a_resource_limit(self, tmp_path):
        path = tmp_path / "huge.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1000000000000 1000000000000 1\n1 1 1.0\n")
        with pytest.raises(ResourceLimit, match="too large"):
            sio.read_matrix_market(path)

    def test_compressed_kernel_reads_back_bit_identical(self, tmp_path):
        """The 3-D N = 512 compressed kernel of the kernel-3d benchmark (seed 1,
        first point set)."""
        bits = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
        basis = build_samplet_basis(PointCloud(bits.random((512, 3)) * 2.0 - 1.0), q=2)
        cfg = KernelConfig(SCALED_EXPONENTIAL, distance_scale=10.0 / math.sqrt(3))
        k = assemble_compressed_kernel(basis, cfg, eta=1.25, p=3, epsilon=1e-3).matrix
        path = tmp_path / "k.mtx"
        sio.write_matrix_market(path, k)
        again = sio.read_matrix_market(path)
        assert again.n == 512 and again.nnz_lower > 10 * 512
        for field in ("indptr", "indices", "values"):
            np.testing.assert_array_equal(getattr(again, field), getattr(k, field))

    def test_grf_kernel_reads_back_bit_identical(self, tmp_path):
        """The 2-D N = 512 compressed kernel of the grf-2d benchmark (seed 1,
        first point set), with and without its ridge; the file holds one
        line per stored entry after the banner, comment and size lines."""
        bits = np.random.Generator(np.random.Philox(key=np.array([1, 1], dtype=np.uint64)))
        basis = build_samplet_basis(PointCloud(bits.random((512, 2)) * 2.0 - 1.0), q=2)
        cfg = KernelConfig(SCALED_EXPONENTIAL, distance_scale=10.0 / math.sqrt(2))
        k = assemble_compressed_kernel(basis, cfg, eta=1.25, p=3, epsilon=1e-3).matrix
        path = tmp_path / "k.mtx"
        for a in (k, add_ridge(k, 1.0)):
            sio.write_matrix_market(path, a)
            assert len(path.read_bytes().splitlines()) == 3 + a.nnz_lower
            again = sio.read_matrix_market(path)
            for field in ("indptr", "indices", "values"):
                np.testing.assert_array_equal(getattr(again, field), getattr(a, field))

    def test_symmetric_dimension_beyond_memory_is_a_resource_limit(self, tmp_path):
        path = tmp_path / "huge.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "1000000000000 1000000000000 1\n1 1 1.0\n")
        with pytest.raises(ResourceLimit, match="too large"):
            sio.read_matrix_market(path)

    @staticmethod
    def read_symmetric(tmp_path, rows, cols, values) -> np.ndarray:
        """The dense matrix of a 6 x 6 symmetric file with these 0-based entries."""
        body = "".join(f"{i + 1} {j + 1} {float(v)!r}\n" for i, j, v in zip(rows, cols, values))
        path = tmp_path / "dup.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        f"6 6 {len(values)}\n{body}")
        return sio.read_matrix_market(path).to_dense()

    def test_symmetric_duplicates_are_summed(self, tmp_path):
        """Quarter-integer values sum exactly in any order."""
        rng = np.random.default_rng(4)
        rows, cols = rng.integers(0, 6, (2, 400))
        rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
        values = rng.integers(-40, 41, 400) / 4
        dense = self.read_symmetric(tmp_path, rows, cols, values)
        for i, j in zip(rows, cols):
            total = math.fsum(values[(rows == i) & (cols == j)])
            assert dense[i, j] == dense[j, i] == total

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetric_duplicates_of_wide_range_read(self, tmp_path, seed):
        """Duplicates that cancel at 1e16 sum with rounding that depends on
        their order; the file still reads, to within that rounding."""
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(0, 6, (2, 400))
        rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
        values = (rng.choice([1e16, -1e16, 1.0, 3.5, -2.25e-3], 400)
                  * rng.choice([1.0, 0.5, 3.0], 400))
        dense = self.read_symmetric(tmp_path, rows, cols, values)
        np.testing.assert_array_equal(dense, dense.T)
        for i, j in zip(rows, cols):
            terms = values[(rows == i) & (cols == j)]
            bound = terms.size * np.finfo(float).eps * np.abs(terms).sum()
            assert abs(dense[i, j] - math.fsum(terms)) <= bound

    def test_symmetric_upper_entry_is_mirrored(self, tmp_path):
        path = tmp_path / "u.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 4\n1 1 2.0\n1 3 -1.5\n3 3 4.0\n3 2 0.5\n")
        a = sio.read_matrix_market(path)
        np.testing.assert_array_equal(a.indptr, [0, 2, 4, 5])
        np.testing.assert_array_equal(a.indices, [0, 2, 1, 2, 2])
        np.testing.assert_array_equal(a.values, [2.0, -1.5, 0.0, 0.5, 4.0])

    def test_general_with_unequal_mirror_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 4\n1 1 1.0\n2 1 2.0\n1 2 2.5\n2 2 1.0\n")
        with pytest.raises(InvalidInput, match="not symmetric"):
            sio.read_matrix_market(path)

    @pytest.mark.parametrize("body", [
        "2 2 1\nx 1 1.0\n", "", "2 2 1\n1 1\n", "2 2 1\n1 3 1.0\n", "2 2 2\n1 1 1.0\n",
        "2 2 1\n1 1 1.0\n2 2 1.0\n", "2 2 1\n1 1 nan\n", "2 2 1\n1 2 inf\n",
        "2 2 1\n1 1 1.0 7\n", "2 3 1\n1 1 1.0\n", "0 0 0\n", "2 2 1\n0 1 1.0\n",
    ], ids=["non-integer-index", "empty-body", "two-tokens", "upper-index-out-of-range",
            "entry-missing", "entry-extra", "nan", "upper-inf", "four-tokens",
            "not-square", "no-rows", "zero-index"])
    def test_malformed_symmetric_rejected(self, tmp_path, body):
        path = tmp_path / "bad.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{body}")
        with pytest.raises(InvalidInput):
            sio.read_matrix_market(path)

    def test_asymmetric_general_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 2 5.0\n2 2 1.0\n")
        with pytest.raises(InvalidInput, match="not symmetric"):
            sio.read_matrix_market(path)

    @pytest.mark.parametrize("text", [
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1.0\n",
        b"%%MatrixMarket matrix coordinate real general\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n",
        b"%%MatrixMarket matrix coordinate r\xe9al general\n2 2 1\n1 1 1.0\n",
        b"%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n",
        b"%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1000000000000000000\n1 1 1.0\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999999999999 1 1.0\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1\x00\n",
        b"%%MatrixMarket matrix coordinate real general\n0 0 0\n",
    ], ids=["non-integer-index", "empty-body", "two-tokens", "index-out-of-range",
            "entry-missing", "entry-extra", "non-ascii-banner", "array-format",
            "integer-field", "absurd-entry-count", "index-beyond-int64", "nul-byte",
            "no-rows"])
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.mtx"
        path.write_bytes(text)
        with pytest.raises(InvalidInput):
            sio.read_matrix_market(path)

    @pytest.mark.parametrize("value", [
        "12,5", "0x10", "1.5abc", "1_000", "nan", "inf", "-inf", "1e", "1e+",
        "1.5.3", "1e5e5", "1e5.3", "2-1", ".", "-.e5", "e5", "1e400",
        "+", "++2", "+-2", "+e5", "1+2",
    ])
    def test_value_token_must_be_a_number(self, tmp_path, value):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"1 1 1\n1 1 {value}\n")
        with pytest.raises(InvalidInput):
            sio.read_matrix_market(path)

    @pytest.mark.parametrize("value", ["12", "-1.5", ".5", "5.", "1E-3", "-2.5e+10",
                                       "+2", "+.5", "+1.5e+1"])
    def test_value_token_forms_accepted(self, tmp_path, value):
        path = tmp_path / "ok.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"1 1 1\n1 1 {value}\n")
        assert sio.read_matrix_market(path).values[0] == float(value)

    def test_extra_entry_token_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 1.0 7\n2 2 1.0\n")
        with pytest.raises(InvalidInput, match="three per entry"):
            sio.read_matrix_market(path)

    def test_comment_lines_may_hold_anything(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% nan 12,5 0x10 1_000 inf\n%\n\n2 2 2\n1 1 4.0\n2 2 3.0\n")
        np.testing.assert_array_equal(sio.read_matrix_market(path).to_dense(),
                                      np.diag([4.0, 3.0]))

    def test_bad_token_found_beyond_the_first_run(self, tmp_path):
        n = 20000  # about 300 kB of entries, several runs of the check
        lines = [f"{i} {i} 1.25E0" for i in range(1, n + 1)]
        lines[-7] = f"{n - 6} {n - 6} 1.25E0,5"
        path = tmp_path / "long.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"{n} {n} {n}\n" + "\n".join(lines) + "\n")
        with pytest.raises(InvalidInput, match="not a decimal number"):
            sio.read_matrix_market(path)

    def test_trailing_blanks_without_final_newline(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                         b"2 2 2\n1 1 4.0\n2 2 3.0 \t")
        again = sio.read_matrix_market(path)
        np.testing.assert_array_equal(again.to_dense(), np.diag([4.0, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_not_written(self, tmp_path, bad):
        # the reader refuses them, so the writer does too, before opening the file
        a = SparseSym.from_triplets(2, np.array([0, 1, 1]), np.array([0, 0, 1]),
                                    np.array([1.0, bad, 2.0]))
        path = tmp_path / "k.mtx"
        with pytest.raises(InvalidInput, match="finite"):
            sio.write_matrix_market(path, a)
        assert not path.exists()

    def test_writes_exactly_the_given_path(self, tmp_path):
        sio.write_matrix_market(tmp_path / "k.txt", SparseSym.from_dense(np.eye(2)))
        assert [p.name for p in tmp_path.iterdir()] == ["k.txt"]

    def test_deterministic_bytes(self, tmp_path):
        a = SparseSym.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
        sio.write_matrix_market(p1, a)
        sio.write_matrix_market(p2, a)
        assert p1.read_bytes() == p2.read_bytes()


class TestFactorFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        dense = (rng.random((12, 12)) < 0.3) * rng.normal(size=(12, 12))
        dense = np.tril(dense, -1) + np.tril(dense, -1).T
        dense += np.diag(np.abs(dense).sum(axis=1) + 1)
        a = SparseSym.from_dense(dense)
        factor = sparse_cholesky(a, fill_reducing_order(a), rho=0.25)
        path = tmp_path / "f.chol"
        sio.write_factor(path, factor)
        again = sio.read_factor(path)
        assert again.n == factor.n
        assert again.rho == factor.rho
        np.testing.assert_array_equal(again.perm.order, factor.perm.order)
        np.testing.assert_array_equal(again.indices, factor.indices)
        np.testing.assert_array_equal(again.values, factor.values)
        b = rng.normal(size=12)
        np.testing.assert_allclose(again.solve(b), factor.solve(b))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.chol"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(InvalidInput, match="wrong magic"):
            sio.read_factor(path)

    @pytest.mark.parametrize("cut", [10, 20, 50, -3])
    def test_truncated_file_rejected(self, tmp_path, cut):
        path = tmp_path / "f.chol"
        sio.write_factor(path, sparse_cholesky(SparseSym.from_dense(4.0 * np.eye(3))))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(InvalidInput, match="truncated|expected"):
            sio.read_factor(path)

    @pytest.mark.parametrize("entry", [7, -3])
    def test_out_of_range_order_rejected(self, tmp_path, entry):
        path = tmp_path / "f.chol"
        sio.write_factor(path, sparse_cholesky(SparseSym.from_dense(4.0 * np.eye(3))))
        raw = bytearray(path.read_bytes())
        raw[36:44] = np.int64(entry).astype("<i8").tobytes()  # first order entry
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidInput, match="outside"):
            sio.read_factor(path)

    @pytest.fixture
    def grf_factor(self, tmp_path):
        """The factor file of a 64-point GRF problem, with its n and nnz."""
        rng = np.random.default_rng(4)
        basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(64, 2))), q=1)
        k = assemble_compressed_kernel(basis, KernelConfig("matern32", length_scale=0.5))
        ridged = add_ridge(k.matrix, 1.0)
        factor = sparse_cholesky(ridged, fill_reducing_order(ridged), rho=1.0)
        path = tmp_path / "grf.chol"
        sio.write_factor(path, factor)
        return path, factor.n, factor.nnz

    @staticmethod
    def patch(path, offset, value, dtype):
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 8] = np.array([value], dtype=dtype).tobytes()
        path.write_bytes(bytes(raw))

    def test_row_index_out_of_range_rejected(self, grf_factor):
        path, n, nnz = grf_factor
        indices = 36 + 8 * (2 * n + 1)
        self.patch(path, indices + 8 * (nnz // 2), n + 3, "<i8")
        with pytest.raises(InvalidInput, match=r"row indices must lie in \[0, 64\)"):
            sio.read_factor(path)

    def test_column_pointer_past_nnz_rejected(self, grf_factor):
        path, n, nnz = grf_factor
        self.patch(path, 36 + 8 * n + 8 * (n // 2), nnz + 100, "<i8")
        with pytest.raises(InvalidInput, match="at least its diagonal"):
            sio.read_factor(path)

    @pytest.mark.parametrize("position,value,message", [
        ("off-diagonal", np.nan, "finite"),
        ("diagonal", np.nan, "finite"),
        ("diagonal", 0.0, "diagonal must be positive"),
        ("diagonal", -1.0, "diagonal must be positive"),
    ])
    def test_bad_value_rejected(self, grf_factor, position, value, message):
        path, n, nnz = grf_factor
        indptr = np.frombuffer(path.read_bytes(), "<i8", n + 1, 36 + 8 * n)
        entry = indptr[n // 2] + (1 if position == "off-diagonal" else 0)
        assert entry < indptr[n // 2 + 1]
        self.patch(path, 36 + 8 * (2 * n + 1 + nnz + entry), value, "<f8")
        with pytest.raises(InvalidInput, match=message):
            sio.read_factor(path)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -0.5])
    def test_bad_ridge_rejected(self, grf_factor, rho):
        path, _, _ = grf_factor
        self.patch(path, 28, rho, "<f8")
        with pytest.raises(InvalidInput, match="ridge"):
            sio.read_factor(path)

    def test_overlong_file_rejected(self, tmp_path):
        path = tmp_path / "f.chol"
        sio.write_factor(path, sparse_cholesky(SparseSym.from_dense(4.0 * np.eye(3))))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(InvalidInput, match="expected"):
            sio.read_factor(path)


_CLOUD = PointCloud(np.array([[0.5, -1.25], [0.1, 1e-300], [-0.0, 3e20]]))
_VALUES = np.array([1.0, -2.5, 0.1, 1 / 3])
_MATRIX = SparseSym.from_triplets(2, [0, 1, 1], [0, 0, 1], [4.0, 2.0, 3.0])
_FACTOR = CholeskyFactor(n=2, perm=Permutation.from_order([1, 0]), rho=0.25,
                         indptr=[0, 2, 3], indices=[0, 1, 1], values=[2.0, 1.0, 2.0])


def _f8(*values) -> bytes:
    return np.array(values, dtype="<f8").tobytes()


@pytest.mark.parametrize("write, want", [
    (lambda p: sio.write_points_csv(p, _CLOUD),
     b"0.5,-1.25\n0.10000000000000001,1e-300\n-0,3e+20\n"),
    (lambda p: sio.write_points_csv(p, _CLOUD, header=True),
     b"x0,x1\n0.5,-1.25\n0.10000000000000001,1e-300\n-0,3e+20\n"),
    (lambda p: sio.write_points_binary(p, _CLOUD),
     b"SMPLPTS1" + struct.pack("<II", 2, 3) + _f8(0.5, -1.25, 0.1, 1e-300, -0.0, 3e20)),
    (lambda p: sio.write_vector_csv(p, _VALUES),
     b"1\n-2.5\n0.10000000000000001\n0.33333333333333331\n"),
    (lambda p: sio.write_vector_binary(p, _VALUES),
     b"SMPLVEC1" + struct.pack("<I", 4) + _f8(1.0, -2.5, 0.1, 1 / 3)),
    (lambda p: sio.write_factor(p, _FACTOR),
     b"SMPLCHOL" + struct.pack("<IQQd", 1, 2, 3, 0.25)
     + np.array([1, 0, 0, 2, 3, 0, 1, 1], dtype="<i8").tobytes() + _f8(2.0, 1.0, 2.0)),
    (lambda p: sio.write_matrix_market(p, _MATRIX),
     b"%%MatrixMarket matrix coordinate real symmetric\n%\n2 2 3\n1 1 4\n2 1 2\n2 2 3\n"),
], ids=["points-csv", "points-csv-header", "points-binary", "vector-csv", "vector-binary",
        "factor", "matrix-market"])
def test_written_bytes(tmp_path, write, want):
    """Every writer's bytes on a small input."""
    path = tmp_path / "out"
    write(path)
    assert path.read_bytes() == want


class TestKernelFiles:
    def test_round_trip(self, tmp_path):
        cfg = KernelConfig(SCALED_EXPONENTIAL, distance_scale=7.5)
        path = tmp_path / "kernel.json"
        path.write_text(cfg.to_json())
        assert sio.read_kernel(path) == cfg

    @pytest.mark.parametrize("raw, message", [
        (b'{"family": "cauchy"}', "unknown kernel family"),
        (b"\xff\xfe{}", "not UTF-8"),
    ], ids=["unknown-family", "not-utf8"])
    def test_refusal_names_the_file(self, tmp_path, raw, message):
        path = tmp_path / "kernel.json"
        path.write_bytes(raw)
        with pytest.raises(InvalidInput, match=f"kernel.json: {message}"):
            sio.read_kernel(path)


EVERY_READER = pytest.mark.parametrize(
    "reader", [sio.read_points, sio.read_vector, sio.read_kernel, sio.read_matrix_market,
               sio.read_factor], ids=["points", "vector", "kernel", "matrix-market", "factor"])


@EVERY_READER
def test_a_missing_file_is_refused(tmp_path, reader):
    with pytest.raises(InvalidInput, match="no-such.dat: no such file"):
        reader(tmp_path / "no-such.dat")


@EVERY_READER
def test_a_directory_is_refused(tmp_path, reader):
    with pytest.raises(InvalidInput, match=f"{tmp_path.name}: is a directory"):
        reader(tmp_path)
