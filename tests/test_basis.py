import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplets.basis import (
    MomentSpec,
    NormalizationFrame,
    build_samplet_basis,
    construct_basis,
    moment_dimension,
    multi_indices,
    two_scale_decomposition,
)
from samplets.cluster_tree import PointCloud, build_cluster_tree

from oracles import (
    dense_basis_matrix,
    leaf_moment_matrix,
    owner_of,
    q_matrices,
    samplet_as_point_vector,
)


class TestMomentDimension:
    def test_constants_only(self):
        for d in (1, 2, 3, 5):
            assert moment_dimension(0, d) == 1

    def test_q2_d2(self):
        assert moment_dimension(2, 2) == 6

    def test_q3_d3(self):
        assert moment_dimension(3, 3) == 20

    @given(q=st.integers(0, 6), d=st.integers(1, 4))
    def test_sum_formula_agrees_with_binomial(self, q, d):
        by_sum = sum(math.comb(ell + d - 1, d - 1) for ell in range(q + 1))
        assert by_sum == moment_dimension(q, d)

    @given(q=st.integers(0, 4), d=st.integers(1, 3))
    def test_multi_index_enumeration(self, q, d):
        idx = multi_indices(q, d)
        assert idx.shape == (moment_dimension(q, d), d)
        degrees = idx.sum(axis=1)
        assert np.all(np.diff(degrees) >= 0)  # graded ordering
        assert len({tuple(row) for row in idx}) == idx.shape[0]
        # within a degree, the first axis carries the highest exponent first
        for ell in range(q + 1):
            block = [tuple(row) for row in idx[degrees == ell]]
            assert block == sorted(block, reverse=True)
        assert multi_indices(2, 2).tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


class TestLeafMoments:
    def test_single_point_at_origin(self):
        cloud = PointCloud(np.array([[0.0, 0.0]]))
        tree = build_cluster_tree(cloud, leaf_size=4)
        frame = NormalizationFrame.for_cloud(cloud)
        m = leaf_moment_matrix(tree, 0, 1, frame)
        np.testing.assert_allclose(m, np.array([[1.0], [0.0], [0.0]]))

    def test_two_points_degree_one(self):
        cloud = PointCloud(np.array([[-1.0], [1.0]]))
        tree = build_cluster_tree(cloud, leaf_size=4)
        frame = NormalizationFrame.for_cloud(cloud)
        m = leaf_moment_matrix(tree, 0, 1, frame)
        np.testing.assert_allclose(m, np.array([[1.0, 1.0], [-1.0, 1.0]]))

    def test_degree_zero_all_ones(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(7, 2)))
        tree = build_cluster_tree(cloud, leaf_size=16)
        frame = NormalizationFrame.for_cloud(cloud)
        m = leaf_moment_matrix(tree, 0, 0, frame)
        np.testing.assert_allclose(m, np.ones((1, 7)))


class TestTwoScale:
    def test_all_ones_row(self):
        q, n_scaling = two_scale_decomposition(np.array([[1.0, 1.0]]))
        assert n_scaling == 1
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(q[:, 0], [s, s], atol=1e-14)
        # samplet column annihilates constants, sign free
        np.testing.assert_allclose(np.abs(q[:, 1]), [s, s], atol=1e-14)
        assert abs(q[:, 1].sum()) < 1e-14

    def test_triangular_moment_gives_identity(self):
        moment = np.array([[2.0, 0.0], [1.0, 3.0]])  # transpose is upper triangular
        q, n_scaling = two_scale_decomposition(moment)
        np.testing.assert_allclose(q, np.eye(2), atol=1e-14)
        assert n_scaling == 2

    def test_rank_deficient_duplicate_points(self):
        moment = np.array([[1.0, 1.0], [0.0, 0.0]])  # two coincident points
        q, n_scaling = two_scale_decomposition(moment)
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)
        r = q.T @ moment.T
        assert abs(r[1, 1]) < 1e-14  # zero diagonal signals the rank drop

    @given(m=st.integers(1, 5), n=st.integers(1, 8), seed=st.integers(0, 10**6))
    def test_orthogonality_and_annihilation(self, m, n, seed):
        rng = np.random.default_rng(seed)
        moment = rng.normal(size=(m, n))
        q, n_scaling = two_scale_decomposition(moment)
        assert n_scaling == min(m, n)
        np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)
        if n > m:
            # every samplet column kills every moment row
            np.testing.assert_allclose(moment @ q[:, m:], 0.0, atol=1e-10)


class TestConstruction:
    def test_four_collinear_points_q0(self):
        cloud = PointCloud(np.array([[-3.0], [-1.0], [1.0], [3.0]]))
        tree = build_cluster_tree(cloud, leaf_size=2)
        basis = construct_basis(tree, MomentSpec(dim=1, q=0, q_leaf=0))
        np.testing.assert_array_equal(basis.n_scaling, [1, 1, 1])
        np.testing.assert_array_equal(basis.n_samplets, [1, 1, 1])
        np.testing.assert_array_equal(basis.samplet_offset, [1, 2, 3])
        assert [q.shape for q in q_matrices(basis)] == [(2, 2)] * 3
        # leaf samplets are pair differences
        for leaf in tree.leaves:
            assert owner_of(basis, basis.samplet_offset[leaf]) == leaf
            omega = samplet_as_point_vector(basis, basis.samplet_offset[leaf])
            nz = omega[np.abs(omega) > 1e-14]
            np.testing.assert_allclose(np.sort(nz), [-1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_starved_single_leaf_all_scaling(self):
        cloud = PointCloud(np.linspace(0, 1, 3)[:, None])
        basis = build_samplet_basis(cloud, q=1)  # m_q=2, q_leaf=3, m_q_leaf=4 > N
        assert len(basis.tree.clusters) == 1
        assert basis.n_samplets[0] == 0
        assert basis.n_scaling[0] == 3
        assert basis.samplet_offset[0] == 3
        assert owner_of(basis, 2) == 0

    def test_every_samplet_kills_constants(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.uniform(-1, 1, size=(60, 2)))
        basis = build_samplet_basis(cloud, q=0, q_leaf=0, leaf_size=5)
        ones = np.ones(60)
        for k in range(basis.n_root_scaling, 60):
            omega = samplet_as_point_vector(basis, k)
            assert abs(omega @ ones) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 120),
        d=st.integers(1, 3),
        q=st.integers(0, 2),
        seed=st.integers(0, 10**6),
    )
    def test_coefficient_count_is_n(self, n, d, q, seed):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.uniform(-1, 1, size=(n, d)))
        basis = build_samplet_basis(cloud, q=q)
        rows = np.array([qm.shape[0] for qm in q_matrices(basis)])
        np.testing.assert_array_equal(basis.n_samplets, rows - basis.n_scaling)
        assert basis.n_root_scaling + basis.n_samplets.sum() == n
        # samplet blocks tile [n_root_scaling, n) in breadth-first order
        cursor = basis.n_root_scaling
        for c in basis.tree.clusters:
            assert basis.samplet_offset[c] == cursor
            cursor += basis.n_samplets[c]
        assert cursor == n


class TestBasisProperties:
    @pytest.mark.parametrize("n,d,q,seed", [
        (40, 1, 0, 0), (64, 2, 1, 1), (90, 3, 2, 2), (128, 2, 2, 3),
    ])
    def test_global_orthonormality(self, n, d, q, seed):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.uniform(-1, 1, size=(n, d)))
        basis = build_samplet_basis(cloud, q=q)
        t = dense_basis_matrix(basis)
        assert np.max(np.abs(t @ t.T - np.eye(n))) < 1e-10

    def test_unit_norm_support_and_l1_bound(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.uniform(-1, 1, size=(100, 2)))
        basis = build_samplet_basis(cloud, q=1)
        perm = basis.tree.permutation
        for k in range(100):
            omega = samplet_as_point_vector(basis, k)
            assert np.linalg.norm(omega) == pytest.approx(1.0, abs=1e-10)
            owner = owner_of(basis, k)
            tree = basis.tree
            inside = perm[tree.begin[owner]:tree.end[owner]]
            outside = np.setdiff1d(np.arange(100), inside)
            assert np.all(np.abs(omega[outside]) < 1e-14)
            assert np.sum(np.abs(omega)) <= math.sqrt(tree.size[owner]) + 1e-10

    def test_vanishing_moments_including_leaf_enrichment(self):
        rng = np.random.default_rng(17)
        n, d = 140, 2
        cloud = PointCloud(rng.uniform(-1, 1, size=(n, d)))
        basis = build_samplet_basis(cloud, q=1)  # q_leaf=2 in 2d (m: 3 -> 6)
        spec = basis.spec
        x_norm = NormalizationFrame.for_cloud(cloud).normalize(cloud.coords)
        for k in range(basis.n_root_scaling, n):
            omega = samplet_as_point_vector(basis, k)
            owner = owner_of(basis, k)
            degree = spec.q_leaf if basis.tree.is_leaf[owner] else spec.q
            for alpha in multi_indices(degree, d):
                vals = np.prod(x_norm ** alpha, axis=1)
                bound = 1e-9 * basis.tree.size[owner] * max(np.max(np.abs(vals)), 1e-300)
                assert abs(omega @ vals) < bound

    def test_coefficient_decay_for_smooth_data(self):
        # f(x) = exp(sum of normalized coordinates); every derivative is f itself,
        # so the C^{q+1} norm on the normalized domain is bounded by e^d.
        rng = np.random.default_rng(23)
        n, d, q = 300, 2, 2
        cloud = PointCloud(rng.uniform(-1, 1, size=(n, d)))
        basis = build_samplet_basis(cloud, q=q)
        frame = NormalizationFrame.for_cloud(cloud)
        x_norm = frame.normalize(cloud.coords)
        f = np.exp(x_norm.sum(axis=1))
        c_norm = math.e ** d
        halfwidth = frame.halfwidth
        for k in range(basis.n_root_scaling, n):
            omega = samplet_as_point_vector(basis, k)
            owner = owner_of(basis, k)
            tree = basis.tree
            diam_norm = np.linalg.norm((tree.hi[owner] - tree.lo[owner]) / halfwidth)
            bound = diam_norm ** (q + 1) * c_norm * np.sum(np.abs(omega))
            assert abs(omega @ f) <= bound + 1e-12


def test_out_of_range_index_rejected():
    basis = build_samplet_basis(PointCloud(np.linspace(0, 1, 10)[:, None]), q=1)
    from samplets.errors import InvalidInput

    with pytest.raises(InvalidInput):
        samplet_as_point_vector(basis, 10)
    with pytest.raises(InvalidInput):
        samplet_as_point_vector(basis, -1)


def test_moment_size_cap(monkeypatch):
    import samplets.basis as basis_module
    from samplets.errors import ResourceLimit

    tree = build_cluster_tree(PointCloud(np.linspace(0, 1, 10)[:, None]), leaf_size=16)
    spec = MomentSpec(dim=1, q=0, q_leaf=4)  # one leaf: a 5 x 10 moment matrix
    monkeypatch.setattr(basis_module, "MAX_MOMENT_ENTRIES", 50)
    construct_basis(tree, spec)
    monkeypatch.setattr(basis_module, "MAX_MOMENT_ENTRIES", 49)
    with pytest.raises(ResourceLimit):
        construct_basis(tree, spec)


def test_moment_size_cap_is_the_largest_moment_matrix(monkeypatch):
    # a father's moment matrix has m_q rows and its order's columns, a
    # leaf's m_q_leaf rows and a column per point; the cap admits the
    # largest exactly
    import samplets.basis as basis_module
    from samplets.errors import ResourceLimit

    tree = build_cluster_tree(PointCloud(np.random.default_rng(2).uniform(-1, 1, (200, 2))),
                              leaf_size=12)
    spec = MomentSpec(dim=2, q=2, q_leaf=2)
    rows = np.where(tree.is_leaf, spec.m_q_leaf, spec.m_q)
    largest = int(np.max(rows * construct_basis(tree, spec).order))
    monkeypatch.setattr(basis_module, "MAX_MOMENT_ENTRIES", largest)
    construct_basis(tree, spec)
    monkeypatch.setattr(basis_module, "MAX_MOMENT_ENTRIES", largest - 1)
    with pytest.raises(ResourceLimit):
        construct_basis(tree, spec)


@pytest.mark.parametrize("failing", ["mapping", "qr"])
def test_two_scale_matrices_that_cannot_be_allocated_are_a_resource_limit(monkeypatch,
                                                                           failing):
    import errno
    import mmap

    from samplets.errors import ResourceLimit

    def mapping(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    def qr(*args, **kwargs):
        raise MemoryError

    tree = build_cluster_tree(PointCloud(np.linspace(0, 1, 40)[:, None]), leaf_size=8)
    if failing == "mapping":
        monkeypatch.setattr(mmap, "mmap", mapping)
    else:
        monkeypatch.setattr(np.linalg, "qr", qr)
    with pytest.raises(ResourceLimit, match="two-scale matrices"):
        construct_basis(tree, MomentSpec.default(1))


def test_build_cost_grows_linearly():
    import time

    from samplets.basis import MomentSpec
    from samplets.cluster_tree import build_cluster_tree

    rng = np.random.default_rng(0)
    spec = MomentSpec.default(2)
    trees = [build_cluster_tree(PointCloud(rng.uniform(-1, 1, size=(n, 2))),
                                leaf_size=spec.default_leaf_size())
             for n in (2 ** 15, 2 ** 16)]
    for tree in trees:
        construct_basis(tree, spec)  # warm up
    # Round-robin rounds: a burst of host load lands on both sizes, not on one,
    # and each size keeps its fastest round.
    times = [math.inf] * len(trees)
    for _ in range(5):
        for i, tree in enumerate(trees):
            t0 = time.perf_counter()
            construct_basis(tree, spec)
            times[i] = min(times[i], time.perf_counter() - t0)
    assert times[1] / times[0] <= 2.5


def test_default_spec_rule():
    spec = MomentSpec.default(2)
    assert spec.q == 2 and spec.m_q == 6
    assert spec.m_q_leaf >= 12
    assert MomentSpec.default(2, q=2, q_leaf=spec.q_leaf - 1).m_q_leaf < 12 or spec.q_leaf == spec.q
    assert spec.default_leaf_size() == max(2 * spec.m_q_leaf, 8)
