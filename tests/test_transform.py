import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplets.basis import build_samplet_basis, dense_basis_matrix, multi_indices
from samplets.cluster_tree import PointCloud
from samplets.errors import InvalidInput
from samplets.transform import (
    POINT_BASIS,
    SAMPLET_BASIS,
    CoefficientVector,
    detect_singularities,
    forward_transform,
    forward_transform_matrix,
    inverse_transform,
    inverse_transform_matrix,
    reconstruction_error,
    relative_threshold,
    threshold_coefficients,
)


@pytest.fixture(scope="module")
def basis_2d():
    rng = np.random.default_rng(42)
    cloud = PointCloud(rng.uniform(-1, 1, size=(200, 2)))
    return build_samplet_basis(cloud, q=2)


def point_vec(values):
    return CoefficientVector(np.asarray(values, float), POINT_BASIS)


class TestForward:
    def test_constant_data_has_zero_samplet_coefficients(self, basis_2d):
        n = basis_2d.size
        coeffs = forward_transform(basis_2d, point_vec(np.ones(n)))
        tail = coeffs.values[basis_2d.n_root_scaling:]
        assert np.max(np.abs(tail)) < 1e-10 * np.sqrt(n)
        assert np.linalg.norm(coeffs.values) == pytest.approx(np.sqrt(n), rel=1e-12)

    def test_polynomial_data_is_annihilated(self, basis_2d):
        x = basis_2d.frame.normalize(basis_2d.tree.cloud.coords)
        rng = np.random.default_rng(0)
        f = np.zeros(basis_2d.size)
        for alpha in multi_indices(basis_2d.spec.q, 2):
            f += rng.normal() * np.prod(x ** alpha, axis=1)
        coeffs = forward_transform(basis_2d, point_vec(f))
        tail = coeffs.values[basis_2d.n_root_scaling:]
        assert np.max(np.abs(tail)) <= 1e-9 * np.linalg.norm(f)

    def test_energy_identity(self, basis_2d):
        rng = np.random.default_rng(1)
        f = rng.normal(size=basis_2d.size)
        coeffs = forward_transform(basis_2d, point_vec(f))
        assert np.linalg.norm(coeffs.values) == pytest.approx(np.linalg.norm(f), rel=1e-10)

    def test_tag_and_length_validation(self, basis_2d):
        with pytest.raises(InvalidInput):
            forward_transform(basis_2d, CoefficientVector(np.ones(basis_2d.size), SAMPLET_BASIS))
        with pytest.raises(InvalidInput):
            forward_transform(basis_2d, point_vec(np.ones(3)))


class TestInverse:
    def test_round_trip_large(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(rng.uniform(-1, 1, size=(4096, 1)))
        basis = build_samplet_basis(cloud, q=2)
        f = rng.normal(size=4096)
        back = inverse_transform(basis, forward_transform(basis, point_vec(f)))
        assert np.max(np.abs(back.values - f)) <= 1e-12 * np.max(np.abs(f))

    def test_unit_coefficient_reproduces_basis_element(self, basis_2d):
        from samplets.basis import samplet_as_point_vector

        for k in (0, basis_2d.n_root_scaling, basis_2d.size - 1):
            e = np.zeros(basis_2d.size)
            e[k] = 1.0
            field = inverse_transform(basis_2d, CoefficientVector(e, SAMPLET_BASIS))
            np.testing.assert_allclose(field.values,
                                       samplet_as_point_vector(basis_2d, k), atol=1e-12)

    def test_zero_to_zero(self, basis_2d):
        z = CoefficientVector(np.zeros(basis_2d.size), SAMPLET_BASIS)
        assert np.all(inverse_transform(basis_2d, z).values == 0.0)

    def test_round_trip_both_directions(self, basis_2d):
        rng = np.random.default_rng(2)
        f = rng.normal(size=basis_2d.size)
        fwd_inv = inverse_transform(basis_2d, forward_transform(basis_2d, point_vec(f)))
        np.testing.assert_allclose(fwd_inv.values, f, atol=1e-12 * np.max(np.abs(f)))
        g = CoefficientVector(rng.normal(size=basis_2d.size), SAMPLET_BASIS)
        inv_fwd = forward_transform(basis_2d, inverse_transform(basis_2d, g))
        np.testing.assert_allclose(inv_fwd.values, g.values, atol=1e-12 * np.max(np.abs(g.values)))


class TestMatrixConsistency:
    def test_forward_agrees_with_dense_matrix(self, basis_2d):
        t = dense_basis_matrix(basis_2d)
        rng = np.random.default_rng(3)
        f = rng.normal(size=basis_2d.size)
        fast = forward_transform(basis_2d, point_vec(f)).values
        assert np.max(np.abs(fast - t @ f)) < 1e-10

    def test_matrix_variants_match_vector_loop(self, basis_2d):
        rng = np.random.default_rng(4)
        block = rng.normal(size=(basis_2d.size, 5))
        fwd = forward_transform_matrix(basis_2d, block)
        for j in range(5):
            col = forward_transform(basis_2d, point_vec(block[:, j])).values
            np.testing.assert_allclose(fwd[:, j], col, atol=1e-13)
        back = inverse_transform_matrix(basis_2d, fwd)
        np.testing.assert_allclose(back, block, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.uniform(-1, 1, size=(50, 1)))
        basis = build_samplet_basis(cloud, q=1)
        f, g = rng.normal(size=(2, 50))
        lhs = forward_transform(basis, point_vec(a * f + b * g)).values
        rhs = (a * forward_transform(basis, point_vec(f)).values
               + b * forward_transform(basis, point_vec(g)).values)
        scale = max(np.max(np.abs(rhs)), 1.0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)


class TestThreshold:
    def test_tau_zero_keeps_everything(self, basis_2d):
        rng = np.random.default_rng(5)
        coeffs = forward_transform(basis_2d, point_vec(rng.normal(size=basis_2d.size)))
        out, report = threshold_coefficients(basis_2d, coeffs, 0.0)
        np.testing.assert_array_equal(out.values, coeffs.values)
        assert report.compression_ratio == 0.0
        assert report.kept == basis_2d.size

    def test_huge_tau_keeps_only_protected_scaling(self, basis_2d):
        rng = np.random.default_rng(6)
        coeffs = forward_transform(basis_2d, point_vec(rng.normal(size=basis_2d.size)))
        tau = 10.0 * np.max(np.abs(coeffs.values))
        out, report = threshold_coefficients(basis_2d, coeffs, tau, protect_scaling=True)
        assert report.kept == basis_2d.n_root_scaling
        assert np.all(out.values[basis_2d.n_root_scaling:] == 0.0)
        assert np.array_equal(out.values[:basis_2d.n_root_scaling],
                              coeffs.values[:basis_2d.n_root_scaling])

    def test_counts_are_consistent(self, basis_2d):
        rng = np.random.default_rng(7)
        coeffs = forward_transform(basis_2d, point_vec(rng.normal(size=basis_2d.size)))
        tau = relative_threshold(coeffs, 1)
        out, report = threshold_coefficients(basis_2d, coeffs, tau)
        assert report.kept + report.zeroed == basis_2d.size
        assert report.compression_ratio == pytest.approx(report.zeroed / basis_2d.size)
        assert report.max_abs_coefficient == pytest.approx(np.max(np.abs(coeffs.values)))
        dropped = coeffs.values[out.values == 0.0]
        assert np.all(np.abs(dropped) < tau) or dropped.size == 0

    def test_parseval_error_identity(self, basis_2d):
        rng = np.random.default_rng(8)
        f = rng.normal(size=basis_2d.size)
        coeffs = forward_transform(basis_2d, point_vec(f))
        tau = relative_threshold(coeffs, 1)
        _, rep = reconstruction_error(basis_2d, point_vec(f), tau)
        kept, _ = threshold_coefficients(basis_2d, coeffs, tau)
        dropped_norm = np.linalg.norm(coeffs.values - kept.values)
        assert rep.l2_error == pytest.approx(dropped_norm, rel=1e-10, abs=1e-14)

    def test_reconstruction_tau_zero_exact(self, basis_2d):
        rng = np.random.default_rng(9)
        f = rng.normal(size=basis_2d.size)
        _, rep = reconstruction_error(basis_2d, point_vec(f), 0.0)
        assert rep.l2_error < 1e-12 * np.linalg.norm(f)
        assert rep.compression_ratio == 0.0

    def test_smooth_bump_compresses_well(self):
        n = 8192
        x = np.linspace(-1, 1, n)
        cloud = PointCloud(x[:, None])
        basis = build_samplet_basis(cloud, q=2)
        f = np.exp(-8 * x**2)
        coeffs = forward_transform(basis, CoefficientVector(f, POINT_BASIS))
        tau = relative_threshold(coeffs, 2)
        _, rep = reconstruction_error(basis, CoefficientVector(f, POINT_BASIS), tau)
        assert rep.compression_ratio >= 0.9


class TestDegenerateClouds:
    def test_duplicate_points_round_trip(self):
        # heavy duplication makes the moment matrices rank deficient; the
        # basis stays orthonormal and the transform stays exact regardless
        rng = np.random.default_rng(21)
        pts = rng.uniform(-1, 1, size=(30, 2))
        pts = np.vstack([pts, pts, pts[:10]])
        basis = build_samplet_basis(PointCloud(pts), q=1, leaf_size=6)
        f = rng.normal(size=pts.shape[0])
        coeffs = forward_transform(basis, point_vec(f))
        back = inverse_transform(basis, coeffs)
        np.testing.assert_allclose(back.values, f, atol=1e-12)
        assert np.linalg.norm(coeffs.values) == pytest.approx(np.linalg.norm(f), rel=1e-10)

    def test_collapsed_cloud_round_trip(self):
        basis = build_samplet_basis(PointCloud(np.ones((17, 3))), q=2)
        f = np.random.default_rng(2).normal(size=17)
        back = inverse_transform(basis, forward_transform(basis, point_vec(f)))
        np.testing.assert_allclose(back.values, f, atol=1e-12)


class TestSingularities:
    def test_smooth_polynomial_gives_empty_list(self, basis_2d):
        x = basis_2d.frame.normalize(basis_2d.tree.cloud.coords)
        f = 1.0 + x[:, 0] - 2 * x[:, 1] + x[:, 0] * x[:, 1]
        coeffs = forward_transform(basis_2d, point_vec(f))
        assert detect_singularities(basis_2d, coeffs, 1e-8) == []

    def test_constant_gives_empty_list(self, basis_2d):
        coeffs = forward_transform(basis_2d, point_vec(np.full(basis_2d.size, 3.0)))
        assert detect_singularities(basis_2d, coeffs, 1e-8) == []

    def test_kink_is_localized(self):
        n = 2048
        x = np.linspace(-1, 1, n)
        basis = build_samplet_basis(PointCloud(x[:, None]), q=2)
        f = np.abs(x)
        coeffs = forward_transform(basis, CoefficientVector(f, POINT_BASIS))
        tau = relative_threshold(coeffs, 4)
        hits = detect_singularities(basis, coeffs, tau)
        assert hits
        assert hits == sorted(hits, key=lambda h: -h.max_abs_coefficient)
        spacing = 2.0 / (n - 1)
        for hit in hits:
            if hit.cluster.is_leaf:
                assert hit.cluster.bbox.lo[0] <= 2 * spacing
                assert hit.cluster.bbox.hi[0] >= -2 * spacing
