import functools
import math
import weakref

import numpy as np
import pytest

from samplets import h2
from samplets.basis import build_samplet_basis
from samplets.cluster_tree import PointCloud, build_cluster_tree
from samplets.errors import InvalidInput, ResourceLimit
from samplets.h2 import (
    InterpolationScheme,
    assemble_compressed_kernel,
    compute_multiscale_cluster_basis,
    dense_compressed_oracle,
)
from samplets.kernels import KernelConfig, dense_kernel_matrix, kernel_cross

from oracles import q_matrices, samplet_as_point_vector


def box(lo, hi):
    """One box as (1, d) corner arrays, the input of the batched helpers."""
    return np.atleast_2d(np.asarray(lo, float)), np.atleast_2d(np.asarray(hi, float))


def cluster_box(tree, c):
    return tree.lo[c:c + 1], tree.hi[c:c + 1]


def grid(b, p):
    """Tensor Chebyshev grid of one box, first axis slowest; shape ((p+1)^d, d)."""
    axes = h2._chebyshev_axes(*b, p)[0]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def lagrange(b, p, points):
    """Tensor Lagrange basis values of one box at the given points."""
    return h2._lagrange_tensors(h2._chebyshev_axes(*b, p), np.asarray(points, float)[None])[0]


def v_of(basis, mb, c):
    """Cluster c's V, read from the stack of its order at the slot of its Q."""
    return mb[basis.order[c]][basis.slot[c]]


def coupling(cfg, a, b, p):
    """Kernel evaluated on the interpolation grids of two boxes."""
    return kernel_cross(cfg, grid(a, p), grid(b, p))


def admits(tree, a, b, eta):
    """The admissibility of one cluster pair."""
    return bool(tree.admissible(np.array([a]), np.array([b]), eta)[0])


def distance(tree, a, b):
    """Euclidean distance between two clusters' boxes."""
    gap = np.maximum(0.0, np.maximum(tree.lo[a] - tree.hi[b], tree.lo[b] - tree.hi[a]))
    return float(np.linalg.norm(gap))


def expand_cluster_outputs(basis, cluster):
    """Test oracle: every output of a cluster expanded over its own points."""
    tree, q = basis.tree, q_matrices(basis)
    n_out = q[cluster].shape[1]
    rows = np.zeros((n_out, tree.size[cluster]))

    def expand(node, outputs):
        incoming = q[node] @ outputs
        if tree.is_leaf[node]:
            return [(tree.begin[node], incoming)]
        parts = []
        pos = 0
        for son in tree.sons[node]:
            ns = basis.n_scaling[son]
            son_out = np.zeros((q[son].shape[1], incoming.shape[1]))
            son_out[:ns] = incoming[pos:pos + ns]
            pos += ns
            parts.extend(expand(son, son_out))
        return parts

    first = tree.begin[cluster]
    for k in range(n_out):
        unit = np.zeros((n_out, 1))
        unit[k] = 1.0
        for begin, vals in expand(cluster, unit):
            rows[k, begin - first:begin - first + vals.size] = vals[:, 0]
    return rows


class TestChebyshev:
    def test_p0_is_box_center(self):
        axes = h2._chebyshev_axes(*box([0, 2], [4, 6]), 0)
        np.testing.assert_allclose(axes, [[[2.0], [4.0]]])

    def test_p1_nodes_on_reference_interval(self):
        axes = h2._chebyshev_axes(*box([-1], [1]), 1)
        s = math.sqrt(2) / 2
        np.testing.assert_allclose(axes, [[[-s, s]]], atol=1e-15)

    def test_tensor_structure_2d(self):
        # the basis at its own grid, listed first axis slowest, is the identity
        b = box([-1, 0], [1, 1])
        axis0, axis1 = h2._chebyshev_axes(*b, 1)[0]
        s = math.sqrt(2) / 2
        np.testing.assert_allclose(axis0, [-s, s], atol=1e-15)
        np.testing.assert_allclose(axis1, 0.5 + 0.5 * axis0, atol=1e-15)
        own_grid = [[axis0[i], axis1[j]] for i in range(2) for j in range(2)]
        np.testing.assert_array_equal(lagrange(b, 1, own_grid), np.eye(4))
        b3 = box([0, -1, 2], [1, 1, 5])
        x, y, z = h2._chebyshev_axes(*b3, 2)[0]
        own_grid = [[x[i], y[j], z[k]] for i in range(3) for j in range(3) for k in range(3)]
        np.testing.assert_array_equal(lagrange(b3, 2, own_grid), np.eye(27))

    def test_polynomial_reproduction_through_interpolation(self):
        rng = np.random.default_rng(0)
        b = box([-0.5, 1.0], [2.0, 3.0])
        p = 3
        coeff = rng.normal(size=(p + 1, p + 1))

        def poly(xy):
            vx = np.vander(xy[:, 0], p + 1, increasing=True)
            vy = np.vander(xy[:, 1], p + 1, increasing=True)
            return np.einsum("ni,ij,nj->n", vx, coeff, vy)

        nodes = grid(b, p)
        targets = rng.uniform([-0.5, 1.0], [2.0, 3.0], size=(40, 2))
        interp = lagrange(b, p, targets) @ poly(nodes)
        np.testing.assert_allclose(interp, poly(targets), atol=1e-10)

    def test_transfer_reproduces_parent_basis_on_son_box(self):
        rng = np.random.default_rng(1)
        tree = build_cluster_tree(PointCloud(rng.uniform([0, 0], [2, 3], size=(40, 2))),
                                  leaf_size=10)
        p = 3
        transfers = InterpolationScheme.build(tree, p).transfers
        for son in range(1, len(tree.clusters)):
            father = int(np.flatnonzero((tree.sons == son).any(axis=1))[0])
            x = rng.uniform(tree.lo[son], tree.hi[son], size=(25, 2))
            np.testing.assert_allclose(lagrange(cluster_box(tree, father), p, x),
                                       lagrange(cluster_box(tree, son), p, x)
                                       @ transfers[son].T, atol=1e-10)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("exponent", [-300, -100, 100, 300])
    def test_monomials_reproduced_on_boxes_of_any_width(self, p, exponent):
        # the box [3w, 4w] of width w = 2^exponent, where barycentric weights
        # of size w^-p would overflow or underflow
        w = 2.0 ** exponent
        lo, hi = np.array([3.0 * w]), np.array([4.0 * w])
        nodes = h2._chebyshev_axes(lo, hi, p)
        ref = np.linspace(-1.0, 1.0, 41)
        targets = 3.5 * w + 0.5 * w * ref
        values = h2._lagrange(nodes, targets[None])[0]
        assert np.isfinite(values).all()
        node_ref = (nodes[0] - 3.5 * w) / (0.5 * w)
        for degree in range(p + 1):
            np.testing.assert_allclose(values @ node_ref ** degree, ref ** degree,
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("lo, hi", [(2.5, 2.5), (1.0, 1.0 + 2.0 ** -52)],
                             ids=["zero-width", "one-ulp-wide"])
    def test_collapsed_node_set_is_constant(self, lo, hi):
        # two or more of the box's p+1 nodes coincide
        nodes = h2._chebyshev_axes(np.array([lo]), np.array([hi]), 3)
        values = h2._lagrange(nodes, np.array([[lo, hi, 7.0]]))
        np.testing.assert_array_equal(values, [[[1.0, 0.0, 0.0, 0.0]] * 3])

    def test_degenerate_axis_constant_convention(self):
        b = box([1.0, 0.0], [1.0, 2.0])  # zero width on axis 0
        vals = lagrange(b, 2, [[1.0, 0.7]])
        assert vals.shape == (1, 9)
        assert abs(vals.sum() - 1.0) < 1e-12  # partition of unity survives


class TestInterpolationScheme:
    @pytest.mark.parametrize("d, p", [(1, 0), (2, 2), (3, 1)])
    def test_one_leaf_tree_has_only_the_roots_nan_transfer(self, d, p):
        rng = np.random.default_rng(d)
        tree = build_cluster_tree(PointCloud(rng.uniform(-1, 1, size=(5, d))), leaf_size=8)
        assert len(tree.clusters) == 1
        scheme = InterpolationScheme.build(tree, p)
        assert scheme.transfers.shape == (1, (p + 1) ** d, (p + 1) ** d)
        assert np.isnan(scheme.transfers).all()
        assert scheme.axes.shape == (1, d, p + 1)

    def test_negative_degree_rejected(self):
        tree = build_cluster_tree(PointCloud(np.zeros((3, 2))))
        with pytest.raises(InvalidInput, match="degree"):
            InterpolationScheme.build(tree, -1)


class TestCoupling:
    def test_same_box_p0(self):
        b = box([0, 0], [1, 1])
        np.testing.assert_allclose(coupling(KernelConfig("matern12"), b, b, 0), [[1.0]])

    def test_transpose_symmetry(self):
        a, b = box([0], [1]), box([2], [4])
        cfg = KernelConfig("matern32", length_scale=0.5)
        np.testing.assert_array_equal(coupling(cfg, a, b, 2), coupling(cfg, b, a, 2).T)

    def test_two_degenerate_1d_boxes(self):
        a, b = box([0], [0]), box([1], [1])
        s = coupling(KernelConfig("matern12", length_scale=1.0), a, b, 0)
        np.testing.assert_allclose(s, [[math.exp(-1)]])


class TestMultiscaleBasis:
    def test_single_leaf_tree_direct_formula(self):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.uniform(-1, 1, size=(6, 2)))
        basis = build_samplet_basis(cloud, q=0, q_leaf=0, leaf_size=8)
        scheme = InterpolationScheme.build(basis.tree, 2)
        mb = compute_multiscale_cluster_basis(basis, scheme)
        assert len(basis.tree.clusters) == 1
        v_delta = lagrange(cluster_box(basis.tree, 0), 2, basis.tree.permuted_coords())
        expected = q_matrices(basis)[0].T @ v_delta
        np.testing.assert_allclose(v_of(basis, mb, 0), expected, atol=1e-12)

    def test_constant_reproduction_kills_samplet_rows(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(-1, 1, size=(90, 2)))
        basis = build_samplet_basis(cloud, q=1)
        scheme = InterpolationScheme.build(basis.tree, 2)
        mb = compute_multiscale_cluster_basis(basis, scheme)
        m = (2 + 1) ** 2
        for c in basis.tree.clusters:
            v_sigma = v_of(basis, mb, c)[basis.n_scaling[c]:]
            if v_sigma.size:
                assert np.max(np.abs(v_sigma @ np.ones(m))) < 1e-9

    def test_nestedness_matches_dense_cascade(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.uniform(-1, 1, size=(48, 2)))
        basis = build_samplet_basis(cloud, q=1, leaf_size=12)
        p = 2
        scheme = InterpolationScheme.build(basis.tree, p)
        mb = compute_multiscale_cluster_basis(basis, scheme)
        tree = basis.tree
        coords = tree.permuted_coords()
        for c in tree.clusters:
            w = expand_cluster_outputs(basis, c)
            v_delta = lagrange(cluster_box(tree, c), p, coords[tree.begin[c]:tree.end[c]])
            expected = w @ v_delta
            np.testing.assert_allclose(v_of(basis, mb, c), expected, atol=1e-10)


def two_leaf_basis(points, leaf_size=2, q=0):
    cloud = PointCloud(np.asarray(points, float))
    basis = build_samplet_basis(cloud, q=q, q_leaf=q, leaf_size=leaf_size)
    return basis


def two_leaf_case(points, leaf_size, eta, admissible):
    """Builder of a two-leaf basis whose leaf pair has the stated admissibility."""
    def make():
        basis = two_leaf_basis(points, leaf_size=leaf_size)
        l1, l2 = basis.tree.sons[0]
        assert admits(basis.tree, l1, l2, eta) == admissible
        return basis
    return make


def uniform_case(d, n, seed, q=1, leaf_sizes=None):
    """Builder of a basis on n uniform points in [-1, 1]^d, optionally
    asserting the sorted distinct leaf sizes of its tree."""
    def make():
        rng = np.random.default_rng(seed)
        basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(n, d))), q=q)
        if leaf_sizes is not None:
            tree = basis.tree
            assert sorted(set(tree.size[tree.leaves].tolist())) == leaf_sizes
        return basis
    return make


def exact_leaf_block(basis, cfg, a, b):
    """Two-sided two-scale transform of the exact kernel block of two leaves."""
    tree = basis.tree
    k_exact = dense_kernel_matrix(cfg, tree.cloud)
    perm = tree.permutation
    sub = k_exact[np.ix_(perm[tree.begin[a]:tree.end[a]], perm[tree.begin[b]:tree.end[b]])]
    q = q_matrices(basis)
    return q[a].T @ sub @ q[b]


def far_field_block(basis, cfg, a, b, p):
    """The block assembly forms for an admissible pair: V_a S V_b^T."""
    tree = basis.tree
    mb = compute_multiscale_cluster_basis(basis, InterpolationScheme.build(tree, p))
    s = coupling(cfg, cluster_box(tree, a), cluster_box(tree, b), p)
    return v_of(basis, mb, a) @ s @ v_of(basis, mb, b).T


def reference_assembly(basis, cfg, eta, p, epsilon):
    """The compressed matrix as a dense array, one block at a time.

    A memoised recursion over (row, column) cluster pairs with the block
    formulas of the assembly, 2-D products only: the reference for the
    batched evaluation.
    """
    tree = basis.tree
    mb = compute_multiscale_cluster_basis(basis, InterpolationScheme.build(tree, p))
    coords = tree.permuted_coords()
    q, ns = q_matrices(basis), basis.n_scaling
    memo = {}

    def points(c):
        return coords[tree.begin[c]:tree.end[c]]

    def block(nu, col):
        key = (nu, col)
        if key not in memo:
            if admits(tree, nu, col, eta):
                s = coupling(cfg, cluster_box(tree, nu), cluster_box(tree, col), p)
                f = v_of(basis, mb, nu) @ s @ v_of(basis, mb, col).T
            elif not tree.is_leaf[nu]:
                f = q[nu].T @ np.vstack([block(s, col)[:ns[s]] for s in tree.sons[nu]])
            elif tree.is_leaf[col]:
                f = q[nu].T @ kernel_cross(cfg, points(nu), points(col)) @ q[col]
            else:
                f = np.hstack([block(nu, s)[:, :ns[s]] for s in tree.sons[col]]) @ q[col]
            memo[key] = f
        return memo[key]

    def outputs(c):
        """Global index of each output of c; -1 for scaling functions below the root."""
        if c == 0:
            return np.arange(q[c].shape[1])
        return np.r_[np.full(ns[c], -1),
                     basis.samplet_offset[c] + np.arange(basis.n_samplets[c])]

    for col in tree.clusters:
        block(0, col)
    lower = np.zeros((basis.size, basis.size))
    for (nu, col), f in memo.items():
        if admits(tree, nu, col, eta):
            continue
        rows, cols = outputs(nu), outputs(col)
        for r, c in zip(*np.nonzero((rows[:, None] >= cols[None, :]) & (cols[None, :] >= 0))):
            lower[rows[r], cols[c]] = f[r, c]
    lower = np.where((np.abs(lower) >= epsilon) | np.eye(basis.size, dtype=bool), lower, 0.0)
    return lower + np.tril(lower, -1).T


class TestAssembly:
    @pytest.mark.parametrize("make_basis,cfg,eta,p,epsilon", [
        pytest.param(uniform_case(2, 61, 3, q=2, leaf_sizes=[15, 16, 30]),
                     KernelConfig("matern32", length_scale=0.5), 1.25, 3, 0.0,
                     id="2-61-3-mixed-leaves"),
        pytest.param(uniform_case(2, 300, 4), KernelConfig("matern32", length_scale=0.5),
                     1.25, 2, 1e-4, id="2-300-4"),
        pytest.param(uniform_case(1, 200, 5), KernelConfig("matern12"), 1.0, 3, 0.0,
                     id="1-200-5"),
        pytest.param(uniform_case(3, 250, 6), KernelConfig("squared-exponential",
                                                           length_scale=0.4),
                     0.8, 2, 1e-5, id="3-250-6"),
    ])
    def test_equals_blockwise_reference(self, make_basis, cfg, eta, p, epsilon):
        basis = make_basis()
        compressed = assemble_compressed_kernel(basis, cfg, eta=eta, p=p, epsilon=epsilon)
        expected = reference_assembly(basis, cfg, eta, p, epsilon)
        np.testing.assert_array_equal(compressed.matrix.to_dense(), expected)

    @pytest.mark.parametrize("make_basis,cfg,eta,p", [
        pytest.param(uniform_case(1, 100, 0), KernelConfig("matern12", length_scale=1.0),
                     np.inf, 1, id="1-100-0"),
        pytest.param(uniform_case(2, 120, 1), KernelConfig("matern12", length_scale=1.0),
                     np.inf, 1, id="2-120-1"),
        pytest.param(uniform_case(3, 90, 2), KernelConfig("matern12", length_scale=1.0),
                     np.inf, 1, id="3-90-2"),
        # leaves of 30, 16 and 15 points on two levels: blocks of several shapes
        pytest.param(uniform_case(2, 61, 3, q=2, leaf_sizes=[15, 16, 30]),
                     KernelConfig("matern32", length_scale=0.5), np.inf, 3,
                     id="2-61-3-mixed-leaves"),
        # an inadmissible leaf pair is evaluated exactly
        pytest.param(two_leaf_case([[0.0], [0.4], [1.0], [1.4]], 2, 2.0, False),
                     KernelConfig("matern32", length_scale=0.7), 2.0, 2,
                     id="inadmissible-leaf-pair"),
        # an admissible pair of singletons: the interpolant of a point is exact
        pytest.param(two_leaf_case([[0.0], [3.0]], 1, 1.0, True),
                     KernelConfig("matern12", length_scale=1.0), 1.0, 3,
                     id="far-singletons"),
    ])
    def test_exact_mode_equals_dense_oracle(self, make_basis, cfg, eta, p):
        basis = make_basis()
        compressed = assemble_compressed_kernel(basis, cfg, eta=eta, p=p, epsilon=0.0)
        oracle = dense_compressed_oracle(cfg, basis)
        np.testing.assert_allclose(compressed.matrix.to_dense(), oracle, atol=1e-10)

    def test_thresholding_drops_only_small_entries(self):
        rng = np.random.default_rng(6)
        cloud = PointCloud(rng.uniform(-1, 1, size=(150, 2)))
        basis = build_samplet_basis(cloud, q=1)
        cfg = KernelConfig("scaled-exponential", distance_scale=10 / math.sqrt(2))
        eps = 1e-4
        loose = assemble_compressed_kernel(basis, cfg, eta=1.25, p=3, epsilon=eps)
        exact = assemble_compressed_kernel(basis, cfg, eta=1.25, p=3, epsilon=0.0)
        dense_loose = loose.matrix.to_dense()
        dense_exact = exact.matrix.to_dense()
        assert np.max(np.abs(dense_loose - dense_exact)) <= eps
        dropped = (dense_exact != 0) & (dense_loose == 0)
        assert np.all(np.abs(dense_exact[dropped]) < eps)
        np.testing.assert_array_equal(np.diag(dense_loose) != 0, np.full(150, True))

    def test_matrix_is_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        cloud = PointCloud(rng.uniform(-1, 1, size=(80, 2)))
        basis = build_samplet_basis(cloud, q=1)
        cfg = KernelConfig("matern52", length_scale=0.6)
        compressed = assemble_compressed_kernel(basis, cfg, eta=1.0, p=2, epsilon=1e-5)
        dense = compressed.matrix.to_dense()
        assert np.max(np.abs(dense - dense.T)) == 0.0

    def test_compression_error_against_oracle_moderate(self):
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.uniform(-1, 1, size=(256, 2)))
        basis = build_samplet_basis(cloud, q=2)
        cfg = KernelConfig("scaled-exponential", distance_scale=10 / math.sqrt(2))
        compressed = assemble_compressed_kernel(basis, cfg, eta=1.25, p=3, epsilon=1e-3)
        oracle = dense_compressed_oracle(cfg, basis)
        err = np.linalg.norm(compressed.matrix.to_dense() - oracle) / np.linalg.norm(oracle)
        assert err <= 5e-3

    def test_stats_are_populated(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(rng.uniform(-1, 1, size=(64, 1)))
        basis = build_samplet_basis(cloud, q=1)
        cfg = KernelConfig("matern12")
        compressed = assemble_compressed_kernel(basis, cfg, eta=1.25, p=2, epsilon=1e-4)
        assert compressed.stats.visited_pairs > 0
        assert compressed.stats.assembly_seconds >= 0.0
        assert compressed.stats.peak_block_bytes > 0
        assert compressed.anz == pytest.approx(compressed.matrix.nnz_full / 64)

    @pytest.mark.parametrize("batch_points", [1, 40])
    def test_column_subtree_batches_give_the_same_matrix(self, monkeypatch, batch_points):
        basis = uniform_case(2, 300, 4)()
        cfg = KernelConfig("matern32", length_scale=0.5)
        whole = assemble_compressed_kernel(basis, cfg, eta=1.25, p=2, epsilon=0.0)
        monkeypatch.setattr(h2, "_BATCH_POINTS", batch_points)
        split = assemble_compressed_kernel(basis, cfg, eta=1.25, p=2, epsilon=0.0)
        for name in ("indptr", "indices", "values"):
            np.testing.assert_array_equal(getattr(split.matrix, name),
                                          getattr(whole.matrix, name))
        assert split.stats.visited_pairs == whole.stats.visited_pairs

    def test_infinite_eta_computes_every_leaf_pair_once(self):
        rng = np.random.default_rng(14)
        basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(300, 2))), q=1)
        compressed = assemble_compressed_kernel(basis, KernelConfig("matern12"),
                                                eta=np.inf, p=2, epsilon=1e-4)
        assert compressed.stats.visited_pairs == len(basis.tree.leaves) ** 2

    def test_scheme_released_before_blocks_are_evaluated(self, monkeypatch):
        # the transfer stack is read only by the cluster bases; the scheme
        # that holds it must be unreachable once the block evaluation starts
        build, run = h2.InterpolationScheme.build, h2._Assembly.run
        schemes, runs = [], []

        def recording_build(tree, p):
            scheme = build(tree, p)
            schemes.append(weakref.ref(scheme))
            return scheme

        def checked_run(self, col, demand):
            assert schemes[0]() is None, "the interpolation scheme is still alive"
            runs.append(col)
            return run(self, col, demand)

        monkeypatch.setattr(h2.InterpolationScheme, "build", staticmethod(recording_build))
        monkeypatch.setattr(h2._Assembly, "run", checked_run)
        monkeypatch.setattr(h2, "_BATCH_POINTS", 64)
        basis = uniform_case(2, 300, 4)()
        assemble_compressed_kernel(basis, KernelConfig("matern32"), eta=1.25, p=2, epsilon=0.0)
        assert len(schemes) == 1 and len(runs) > 1

    def test_golden_matrix(self):
        # nnz_lower and the Frobenius norm of the memoised block recursion
        # this assembly replaced
        rng = np.random.default_rng(20)
        basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(512, 2))), q=2)
        cfg = KernelConfig("scaled-exponential", distance_scale=10 / math.sqrt(2))
        compressed = assemble_compressed_kernel(basis, cfg, eta=1.25, p=3, epsilon=1e-3)
        assert compressed.matrix.nnz_lower == 34350
        assert compressed.matrix.frobenius_norm() == pytest.approx(48.85745230154519,
                                                                   rel=1e-12)

    @pytest.mark.parametrize("p", [3, 15])
    @pytest.mark.parametrize("family", ["scaled-exponential", "matern32"])
    def test_scaling_by_a_power_of_two_gives_the_same_matrix(self, family, p):
        # points times 2^k with the kernel's length times 2^k: every ratio
        # the assembly forms is unchanged, so K is bit for bit the same
        points = np.random.default_rng(5).uniform(size=(300, 2))

        def compressed(k):
            if family == "scaled-exponential":
                cfg = KernelConfig(family, distance_scale=5.0 * 2.0 ** -k)
            else:
                cfg = KernelConfig(family, length_scale=0.4 * 2.0 ** k)
            basis = build_samplet_basis(PointCloud(points * 2.0 ** k), q=2)
            return assemble_compressed_kernel(basis, cfg, p=p, epsilon=1e-4).matrix

        want = compressed(0)
        for k in (-250, -100, 100, 250):
            got = compressed(k)
            for name in ("indptr", "indices", "values"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_non_finite_kernel_values_are_refused(self):
        # r / length_scale overflows, and the Matern factor (1 + s) e^-s is inf * 0
        basis = uniform_case(2, 64, 1, q=2)()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInput, match="matern32.*non-finite"):
                assemble_compressed_kernel(basis, KernelConfig("matern32",
                                                               length_scale=1e-320))

    def test_points_whose_squared_distances_overflow_are_refused(self):
        rng = np.random.default_rng(3)
        points = np.vstack([rng.uniform(0, 1e159, size=(100, 2)),
                            1e160 + rng.uniform(0, 1e159, size=(100, 2))])
        with np.errstate(over="ignore"):  # the root's squared diameter
            basis = build_samplet_basis(PointCloud(points), q=2)
        with pytest.raises(InvalidInput, match="1e154"):
            assemble_compressed_kernel(basis, KernelConfig("matern12", length_scale=1e160))
        scale = 2.0 ** -600  # the same geometry, with distances in range
        basis = build_samplet_basis(PointCloud(points * scale), q=2)
        k = assemble_compressed_kernel(basis, KernelConfig("matern12",
                                                           length_scale=1e160 * scale))
        assert np.isfinite(k.matrix.values).all() and k.matrix.nnz_lower > 200

    @pytest.mark.parametrize("epsilon", [-1e-3, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, epsilon):
        basis = uniform_case(1, 40, 0)()
        with pytest.raises(InvalidInput):
            assemble_compressed_kernel(basis, KernelConfig("matern12"), epsilon=epsilon)

    def test_peak_block_bytes_covers_kept_triplets(self):
        rng = np.random.default_rng(13)
        cloud = PointCloud(rng.uniform(-1, 1, size=(200, 2)))
        basis = build_samplet_basis(cloud, q=1)
        cfg = KernelConfig("matern32", length_scale=0.5)
        compressed = assemble_compressed_kernel(basis, cfg, eta=1.25, p=2, epsilon=1e-4)
        # each kept lower entry is buffered as an int64 row and column and a float64 value
        assert compressed.stats.peak_block_bytes >= 24 * compressed.matrix.nnz_lower


class TestOracle:
    def test_single_point(self):
        basis = build_samplet_basis(PointCloud(np.array([[0.5]])), q=0, q_leaf=0)
        oracle = dense_compressed_oracle(KernelConfig("matern12"), basis)
        np.testing.assert_allclose(oracle, [[1.0]])

    def test_symmetric_and_spectrum_preserving(self):
        rng = np.random.default_rng(10)
        cloud = PointCloud(rng.uniform(-1, 1, size=(70, 2)))
        basis = build_samplet_basis(cloud, q=1)
        cfg = KernelConfig("matern32", length_scale=0.8)
        oracle = dense_compressed_oracle(cfg, basis)
        assert np.max(np.abs(oracle - oracle.T)) < 1e-12
        dense = dense_kernel_matrix(cfg, cloud)
        np.testing.assert_allclose(np.linalg.eigvalsh(oracle),
                                   np.linalg.eigvalsh(dense), atol=1e-8)

    def test_cap(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.uniform(-1, 1, size=(40, 1)))
        basis = build_samplet_basis(cloud, q=0)
        with pytest.raises(ResourceLimit):
            dense_compressed_oracle(KernelConfig("matern12"), basis, cap=10)


def visited_pairs(points, leaf_size, eta):
    """The pairs one assembly computes directly, on a q = 0 basis of 1-D points."""
    basis = two_leaf_basis([[x] for x in points], leaf_size=leaf_size)
    compressed = assemble_compressed_kernel(basis, KernelConfig("matern12"), eta=eta,
                                            p=1, epsilon=0.0)
    return compressed.stats.visited_pairs


def needed_pair_count(basis, eta):
    """Brute force over all cluster pairs: the pairs an assembly computes
    directly.

    A pair is stored when it is inadmissible and its samplets do not lie
    above the diagonal (the root's outputs start at index 0).  A pair is
    needed when it is stored or a needed pair reads it: an inadmissible
    interior row reads its row sons' pairs, and an inadmissible leaf row with
    an interior column its column sons' pairs.  Counted are the needed pairs
    that are admissible or leaf-leaf.
    """
    tree = basis.tree
    n = len(tree.clusters)
    offset = basis.samplet_offset.copy()
    offset[0] = 0
    rows, cols = np.divmod(np.arange(n * n), n)
    inadmissible = ~tree.admissible(rows, cols, eta).reshape(n, n)
    father = {int(s): c for c in range(n) if not tree.is_leaf[c] for s in tree.sons[c]}

    @functools.cache
    def needed(nu, col):
        if inadmissible[nu, col] and offset[nu] >= offset[col]:
            return True
        f = father.get(nu)
        if f is not None and inadmissible[f, col] and needed(f, col):
            return True
        f = father.get(col)
        return bool(tree.is_leaf[nu]) and f is not None and inadmissible[nu, f] and needed(nu, f)

    return sum(needed(nu, col) for nu in range(n) for col in range(n)
               if not inadmissible[nu, col] or (tree.is_leaf[nu] and tree.is_leaf[col]))


class TestPairCounting:
    def test_single_leaf_tree(self):
        # the root is a leaf: one exact leaf-leaf block
        assert visited_pairs([0.0, 1.0], leaf_size=4, eta=1.0) == 1

    def test_two_leaf_tree_hand_count(self):
        # four leaf pairs: the two diagonal ones are exact; the separated cross
        # pairs of single points (diameter 0) are admissible for any finite eta
        # and interpolated instead, which leaves the count unchanged
        assert visited_pairs([0.0, 1.0], leaf_size=1, eta=1e-9) == 4
        assert visited_pairs([0.0, 1.0], leaf_size=1, eta=np.inf) == 4

    def test_depth_two_pruning_witness(self):
        pts = [0.0, 0.1, 10.0, 10.1]
        assert build_cluster_tree(PointCloud(np.array(pts)[:, None]), leaf_size=1).depth == 2
        # eta=inf: all 16 leaf-leaf blocks are exact
        assert visited_pairs(pts, leaf_size=1, eta=np.inf) == 16
        # eta=1: only the 4 diagonal leaf blocks are exact.  Clusters are
        # root 0, halves 1 and 2, leaves 3, 4 (in 1) and 5, 6 (in 2).  Stored
        # are the root column, the diagonal and the leaf rows of each half's
        # column, (3, 1), (4, 1), (5, 2) and (6, 2).  Interpolated are the 2
        # neighbouring singleton pairs in each half, (3, 4) and (4, 3) for
        # half 1, which those leaf rows read, and the 4 pairs of a leaf row
        # with the far half's column, (3, 2), (4, 2), (5, 1) and (6, 1),
        # which the leaf rows of the root column read: 12 in all.  The 2
        # cross pairs of the halves and the 4 pairs of a half's row with a
        # far leaf column lie above the diagonal, and no stored block reads
        # them.
        assert visited_pairs(pts, leaf_size=1, eta=1.0) == 12

    @pytest.mark.parametrize("batch_points", [None, 1])
    @pytest.mark.parametrize("make_basis,eta", [
        pytest.param(uniform_case(1, 90, 0), 1.0, id="1-90"),
        pytest.param(uniform_case(2, 200, 1), 1.25, id="2-200"),
        pytest.param(uniform_case(2, 400, 4, q=2), 1.0, id="2-400-q2"),
        pytest.param(uniform_case(3, 400, 2), 0.5, id="3-400"),
    ])
    def test_visited_pairs_are_the_needed_pairs(self, monkeypatch, make_basis, eta,
                                                batch_points):
        basis = make_basis()
        if batch_points is not None:
            monkeypatch.setattr(h2, "_BATCH_POINTS", batch_points)
        compressed = assemble_compressed_kernel(basis, KernelConfig("matern32"), eta=eta,
                                                p=2, epsilon=0.0)
        assert compressed.stats.visited_pairs == needed_pair_count(basis, eta)


class TestAdmissibility:
    def test_admissibility_is_inherited_by_son_pairs(self):
        # assembly relies on this: a kept block below an admissible pair
        # would never be consumed
        rng = np.random.default_rng(12)
        cloud = PointCloud(rng.uniform(-1, 1, size=(60, 2)))
        tree = build_cluster_tree(cloud, leaf_size=5)
        eta = 1.25

        def sons_or_self(c):
            return (c,) if tree.is_leaf[c] else tuple(tree.sons[c])

        n_admissible = 0
        for a in tree.clusters:
            for b in tree.clusters:
                if admits(tree, a, b, eta):
                    n_admissible += 1
                    for sa in sons_or_self(a):
                        for sb in sons_or_self(b):
                            assert admits(tree, sa, sb, eta)
        assert n_admissible > 0


class TestFarFieldConvergence:
    def test_far_pair_interpolation_error_small(self):
        basis = two_leaf_basis([[0.0], [0.2], [3.0], [3.2]])
        cfg = KernelConfig("matern12", length_scale=1.0)
        l1, l2 = basis.tree.sons[0]
        assert admits(basis.tree, l1, l2, 1.0)
        approx = far_field_block(basis, cfg, l1, l2, p=3)
        assert np.max(np.abs(approx - exact_leaf_block(basis, cfg, l1, l2))) <= 1e-3

    def test_error_decreases_with_degree(self):
        basis = two_leaf_basis([[0.0], [0.3], [2.0], [2.3]])
        cfg = KernelConfig("matern12", length_scale=1.0)
        l1, l2 = basis.tree.sons[0]
        assert admits(basis.tree, l1, l2, 1.0)
        exact = exact_leaf_block(basis, cfg, l1, l2)
        errors = []
        for p in range(1, 6):
            approx = far_field_block(basis, cfg, l1, l2, p)
            errors.append(np.max(np.abs(approx - exact)))
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert lo <= hi * 1.5
        assert errors[-1] < 0.1 * errors[0]


class TestKernelDecayBound:
    def test_admissible_entries_obey_calibrated_decay_bound(self):
        cfg = KernelConfig("matern12", length_scale=1.0)

        def max_ratio(seed):
            rng = np.random.default_rng(seed)
            cloud = PointCloud(rng.uniform(-1, 1, size=(64, 1)))
            basis = build_samplet_basis(cloud, q=1, leaf_size=8)
            q = basis.spec.q
            k_sig = dense_compressed_oracle(cfg, basis)
            tree = basis.tree
            ratios = []
            for a in tree.clusters:
                for b in tree.clusters:
                    # admissible pairs are apart: their distance is positive
                    if not admits(tree, a, b, 1.0):
                        continue
                    if basis.n_samplets[a] == 0 or basis.n_samplets[b] == 0:
                        continue
                    dist = distance(tree, a, b)
                    for i in range(basis.n_samplets[a]):
                        gi = basis.samplet_offset[a] + i
                        l1_i = np.abs(samplet_as_point_vector(basis, gi)).sum()
                        for j in range(basis.n_samplets[b]):
                            gj = basis.samplet_offset[b] + j
                            l1_j = np.abs(samplet_as_point_vector(basis, gj)).sum()
                            denom = (tree.diameter[a] ** (q + 1)
                                     * tree.diameter[b] ** (q + 1)
                                     / dist ** (2 * (q + 1))) * l1_i * l1_j
                            if denom > 0:
                                ratios.append(abs(k_sig[gi, gj]) / denom)
            return max(ratios)

        c_cal = max_ratio(0)
        assert np.isfinite(c_cal)
        # the calibrated constant is stable across point configurations
        assert max_ratio(1) <= 5.0 * c_cal
