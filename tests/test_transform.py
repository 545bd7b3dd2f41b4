import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplets.basis import build_samplet_basis, multi_indices
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

from oracles import dense_basis_matrix, q_matrices, samplet_as_point_vector


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
        _, rep = reconstruction_error(basis_2d, point_vec(f), coeffs, tau)
        kept, _ = threshold_coefficients(basis_2d, coeffs, tau)
        dropped_norm = np.linalg.norm(coeffs.values - kept.values)
        assert rep.l2_error == pytest.approx(dropped_norm, rel=1e-10, abs=1e-14)

    def test_reconstruction_tau_zero_exact(self, basis_2d):
        rng = np.random.default_rng(9)
        f = rng.normal(size=basis_2d.size)
        coeffs = forward_transform(basis_2d, point_vec(f))
        _, rep = reconstruction_error(basis_2d, point_vec(f), coeffs, 0.0)
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
        _, rep = reconstruction_error(basis, CoefficientVector(f, POINT_BASIS), coeffs, tau)
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


def reference_detection(basis, coeffs, tau):
    """Detection one cluster at a time: (cluster, level, peak), largest first,
    equal peaks in breadth-first order."""
    hits = []
    for c in basis.tree.clusters:
        n = basis.n_samplets[c]
        if n == 0:
            continue
        offset = basis.samplet_offset[c]
        peak = float(np.max(np.abs(coeffs[offset:offset + n])))
        if peak >= tau:
            hits.append((c, int(basis.tree.level[c]), peak))
    hits.sort(key=lambda h: -h[2])
    return hits


def detected(basis, coeffs, tau):
    hits = detect_singularities(basis, CoefficientVector(coeffs, SAMPLET_BASIS), tau)
    return [(h.cluster, h.level, h.max_abs_coefficient) for h in hits]


@pytest.fixture(scope="module")
def starved_basis():
    """Leaves of at most 2 points under q = 0 in 1-D (q_leaf = 1) keep only
    scaling functions, while every father gets a samplet.  300 points put
    leaves and fathers on one level, so clusters without samplets sit between
    and after clusters with samplets in breadth-first order."""
    rng = np.random.default_rng(31)
    basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(300, 1))), q=0,
                                leaf_size=2)
    empty = basis.n_samplets == 0
    assert empty[-1] and not empty.all()
    assert np.any(empty[:-1] & ~empty[1:])
    return basis


class TestDetectionReference:
    @pytest.mark.parametrize("rel", [None, 0.5, 1, 2])
    def test_matches_reference_with_empty_clusters(self, starved_basis, rel):
        rng = np.random.default_rng(32)
        n_root = starved_basis.n_root_scaling
        coeffs = rng.normal(size=starved_basis.size)
        coeffs[:n_root] = 100.0  # never a samplet peak
        tau = 0.0 if rel is None else 10.0 ** -rel * np.max(np.abs(coeffs[n_root:]))
        hits = detected(starved_basis, coeffs, tau)
        assert hits == reference_detection(starved_basis, coeffs, tau)
        flagged = [c for c, _, _ in hits]
        assert not np.any(starved_basis.n_samplets[flagged] == 0)

    def test_matches_reference_on_transformed_data(self, basis_2d):
        x = basis_2d.tree.cloud.coords
        coeffs = forward_transform(basis_2d, point_vec(np.abs(x[:, 0] - 0.1))).values
        for rel in (0, 1, 2, 3):
            tau = relative_threshold(CoefficientVector(coeffs, SAMPLET_BASIS), rel)
            assert detected(basis_2d, coeffs, tau) == reference_detection(basis_2d, coeffs, tau)

    @pytest.mark.parametrize("make_basis", ["basis_2d", "starved_basis"])
    def test_equal_peaks_keep_breadth_first_order(self, request, make_basis):
        basis = request.getfixturevalue(make_basis)
        rng = np.random.default_rng(33)
        # peaks of 1, 2 or 3: many ties, each broken by cluster index
        coeffs = rng.integers(-3, 4, size=basis.size).astype(float)
        coeffs[np.abs(coeffs) == 0] = 1.0
        hits = detected(basis, coeffs, 0.0)
        assert hits == reference_detection(basis, coeffs, 0.0)
        for (c0, _, p0), (c1, _, p1) in zip(hits, hits[1:]):
            assert p0 > p1 or (p0 == p1 and c0 < c1)
        assert len({p for _, _, p in hits}) < len(hits)

    def test_every_samplet_below_threshold(self, starved_basis):
        coeffs = np.zeros(starved_basis.size)
        coeffs[:starved_basis.n_root_scaling] = 1.0
        assert detected(starved_basis, coeffs, 1e-12) == []

    def test_no_samplets_at_all(self):
        basis = build_samplet_basis(PointCloud(np.linspace(0, 1, 3)[:, None]), q=1)
        assert basis.n_samplets.sum() == 0
        assert detected(basis, np.ones(3), 0.0) == []


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
        tree = basis.tree
        for hit in hits:
            assert hit.level == tree.level[hit.cluster]
            if tree.is_leaf[hit.cluster]:
                assert tree.lo[hit.cluster, 0] <= 2 * spacing
                assert tree.hi[hit.cluster, 0] >= -2 * spacing


class TestCountedCost:
    """Linear cost as a count, beside A4's wall time: each transform step
    multiplies a stack of b two-scale matrices of order n by b blocks of n
    rows, b n^2 multiply-adds per column."""

    def test_every_two_scale_matrix_is_in_exactly_one_step(self):
        rng = np.random.default_rng(8)
        basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(1003, 2))), q=2,
                                    leaf_size=13)
        tree, q_of = basis.tree, q_matrices(basis)
        assert sum(q.shape[0] for _, q, *_ in basis.steps) == len(q_of)
        step_of = np.empty(len(q_of), dtype=np.int64)
        for c, q in enumerate(q_of):
            holders = [i for i, (_, stack, *_) in enumerate(basis.steps)
                       if np.shares_memory(q, stack)]
            assert len(holders) == 1, f"cluster {c} is in steps {holders}"
            step_of[c] = holders[0]
        # the forward pass reaches a father after both of its sons
        inner = np.flatnonzero(~tree.is_leaf)
        assert np.all(step_of[inner] > step_of[tree.sons[inner]].max(axis=1))

    def test_multiply_adds_per_point_stay_in_a_band(self):
        per_point = []
        for e in range(10, 17):
            n = 2 ** e
            rng = np.random.default_rng(e)
            basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(n, 2))), q=2)
            per_point.append(sum(q.shape[0] * q.shape[1] ** 2 for _, q, *_ in basis.steps) / n)
        # measured 48.48 ... 48.62 per point at q = 2, 16 points per leaf
        assert all(44.0 <= c <= 53.0 for c in per_point), per_point
