"""The stack-batched set-up and the stacked transforms against per-cluster
reference code.

``reference_tree`` and ``reference_basis`` build the cluster tree and the
samplet basis one cluster at a time, with one median split, one QR and one
product per cluster, and ``reference_monomials`` evaluates the monomials of
one point set by the direct broadcast power.  ``reference_forward`` and
``reference_inverse`` transform with one product per cluster, depth-first.
``reference_transfers`` builds the H^2 transfer matrices as Kronecker
products of one-axis Lagrange matrices, ``tensor_grid_transfers`` as the
father's tensor Lagrange basis at the son's tensor grid, and
``reference_cluster_bases`` builds every cluster's V as its own array.  The
library must reproduce every tree array, every moment matrix, every
two-scale matrix, every transform, every transfer matrix and every V bit for
bit, dtypes included.  The stored layout is pinned too: one buffer holds all
Q, one region per order, and each region holds its order's stacks, one per
leaf size and one per tree level and pair of son scaling counts.
"""

import hashlib
import mmap

import numpy as np
import pytest

import samplets.basis as basis_module
from samplets.basis import (
    MomentSpec,
    NormalizationFrame,
    _groups,
    _monomials,
    build_samplet_basis,
    construct_basis,
    multi_indices,
    two_scale_decomposition,
)
from samplets.cluster_tree import PointCloud, _norms, build_cluster_tree
from samplets.h2 import (
    InterpolationScheme,
    _chebyshev_axes,
    _lagrange,
    _lagrange_tensors,
    compute_multiscale_cluster_basis,
)
from samplets.transform import forward_transform_matrix, inverse_transform_matrix

from oracles import (BYTE_OFFSETS, at_offset, forward_by_cluster, inverse_by_cluster, preorder,
                     q_matrices)

TREE_ARRAYS = ("permutation", "begin", "end", "lo", "hi", "diameter", "level", "sons")


def _split_indices(idx, vals, k):
    """The k smallest of ``idx`` by (value, original index), and the rest."""
    part = np.argpartition(vals, k - 1)
    pivot = vals[part[k - 1]]
    less = vals < pivot
    n_less = int(np.count_nonzero(less))
    tie_pos = np.flatnonzero(vals == pivot)
    tie_order = tie_pos[np.argsort(idx[tie_pos], kind="stable")]
    left_pos = np.concatenate([np.flatnonzero(less), tie_order[:k - n_less]])
    right_mask = np.ones(idx.size, dtype=bool)
    right_mask[left_pos] = False
    return idx[left_pos], idx[right_mask]


def reference_tree(coords, leaf_size):
    """One median split per cluster, breadth-first; the tree arrays by name."""
    perm = np.arange(coords.shape[0], dtype=np.int64)
    begin, end, level = [0], [coords.shape[0]], [0]
    lo, hi, sons = [], [], []
    c = 0
    while c < len(begin):
        b, e = begin[c], end[c]
        idx = perm[b:e]
        pts = coords[idx]
        lo.append(pts.min(axis=0))
        hi.append(pts.max(axis=0))
        n = e - b
        if n <= leaf_size:
            perm[b:e] = np.sort(idx)
            sons.append((-1, -1))
        else:
            axis = int(np.argmax(hi[c] - lo[c]))
            k = (n + 1) // 2
            perm[b:b + k], perm[b + k:e] = _split_indices(idx, pts[:, axis], k)
            sons.append((len(begin), len(begin) + 1))
            begin += [b, b + k]
            end += [b + k, e]
            level += [level[c] + 1] * 2
        c += 1
    lo, hi = np.array(lo), np.array(hi)
    return {"permutation": perm, "begin": np.array(begin, dtype=np.int64),
            "end": np.array(end, dtype=np.int64), "lo": lo, "hi": hi,
            "diameter": _norms(hi - lo), "level": np.array(level, dtype=np.int64),
            "sons": np.array(sons, dtype=np.int64)}


def _reference_two_scale(moment):
    qmat, rmat = np.linalg.qr(moment.T, mode="complete")
    k = min(moment.shape)
    qmat[:, :k] *= np.where(np.diagonal(rmat)[:k] < 0, -1.0, 1.0)
    return qmat, k


def reference_monomials(points, exponents):
    """x^alpha for every multi-index (rows) and point (columns) of one point set."""
    return np.prod(points[None, :, :] ** exponents[:, None, :], axis=2)


def reference_basis(tree, spec):
    """One QR and one product per cluster, sons before fathers.

    Returns the two-scale matrices, scaling counts and samplet offsets.
    """
    frame = NormalizationFrame.for_cloud(tree.cloud)
    exponents = multi_indices(spec.q_leaf, spec.dim)
    n_clusters = tree.begin.size
    two_scale = [None] * n_clusters
    n_scaling = np.empty(n_clusters, dtype=np.int64)
    exported = [None] * n_clusters
    for c in reversed(preorder(tree).tolist()):
        if tree.is_leaf[c]:
            pts = frame.normalize(tree.cloud.coords[tree.permutation[tree.begin[c]:tree.end[c]]])
            moment = reference_monomials(pts, exponents)
        else:
            s0, s1 = tree.sons[c]
            moment = np.hstack([exported[s0], exported[s1]])
        two_scale[c], n_scaling[c] = _reference_two_scale(moment)
        exported[c] = (moment @ two_scale[c])[:spec.m_q, :n_scaling[c]]
    n_samplets = np.array([q.shape[0] for q in two_scale], dtype=np.int64) - n_scaling
    samplet_offset = n_scaling[0] + np.cumsum(n_samplets) - n_samplets
    return two_scale, n_scaling, samplet_offset


def assert_same(got, want, what):
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert np.array_equal(got, want), f"{what} differs"


def digest(a):
    return a.dtype, a.shape, hashlib.sha256(np.ascontiguousarray(a)).hexdigest()


def assert_matches_reference(coords, q, leaf_size=None, q_leaf=None):
    spec = MomentSpec.default(coords.shape[1], q=q, q_leaf=q_leaf)
    leaf_size = spec.default_leaf_size() if leaf_size is None else leaf_size
    tree = build_cluster_tree(PointCloud(coords), leaf_size=leaf_size)
    for name, want in reference_tree(tree.cloud.coords, leaf_size).items():
        assert_same(getattr(tree, name), want, name)
    basis = construct_basis(tree, spec)
    got_n_scaling, got_offset = basis.n_scaling, basis.samplet_offset
    got_q = [digest(q) for q in q_matrices(basis)]
    del basis  # a leaf of n points has an n x n two-scale matrix; hold one copy
    want_q, n_scaling, samplet_offset = reference_basis(tree, spec)
    assert_same(got_n_scaling, n_scaling, "n_scaling")
    assert_same(got_offset, samplet_offset, "samplet_offset")
    assert len(got_q) == len(want_q)
    for c, (got, want) in enumerate(zip(got_q, want_q)):
        assert got == digest(want), f"Q of cluster {c} differs (dtype, shape or bits)"


@pytest.mark.parametrize("leaf_size", [1, 2, None])
@pytest.mark.parametrize("q", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_points(d, q, leaf_size):
    rng = np.random.default_rng(100 * d + 10 * q + (leaf_size or 0))
    assert_matches_reference(rng.uniform(-1, 1, size=(157, d)), q, leaf_size)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sizes_around_the_leaf_size(d):
    spec = MomentSpec.default(d, q=1)
    leaf_size = spec.default_leaf_size()
    rng = np.random.default_rng(d)
    for n in (1, leaf_size, leaf_size + 1):
        assert_matches_reference(rng.uniform(-1, 1, size=(n, d)), 1)


@pytest.mark.parametrize("leaf_size", [1, 2, None])
def test_duplicate_points(leaf_size):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(90, 2))
    pts[::3] = pts[1]
    pts[40:50] = pts[7]
    assert_matches_reference(pts, 2, leaf_size)
    assert_matches_reference(np.zeros((25, 3)), 1, leaf_size)


def test_lattice_with_repeated_points():
    side = np.linspace(-1, 1, 32)
    lattice = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    repeats = lattice[np.random.default_rng(9).choice(lattice.shape[0], 100, replace=False)]
    pts = np.concatenate([lattice, repeats])
    for leaf_size in (1, 2, None):
        assert_matches_reference(pts, 2, leaf_size)


def test_collinear_points():
    t = np.linspace(0, 1, 200)
    pts = np.stack([t, 2 * t - 1, 0.5 - t], axis=1)
    for q in (0, 2):
        assert_matches_reference(pts, q)
        assert_matches_reference(pts, q, leaf_size=1)


def test_zero_width_axis():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1, 1, size=(300, 3))
    pts[:, 1] = 0.25
    assert_matches_reference(pts, 2)
    assert_matches_reference(pts, 1, leaf_size=2)


def test_enriched_leaf_degree():
    rng = np.random.default_rng(17)
    assert_matches_reference(rng.uniform(-1, 1, size=(400, 2)), 1, q_leaf=4)


@pytest.mark.parametrize("q_leaf", range(7))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_monomials_match_one_point_set_at_a_time(d, q_leaf):
    """NumPy picks the inner loop of ``**`` by operand layout and size, and
    the loops differ in the last bit.  The reference is one point set alone,
    not one point: in 1-D, a leaf of a few thousand points already differs
    from its points evaluated one at a time, and the library has always had
    the leaf's bits.  A stack must give each entry the bits of its set alone."""
    exponents = multi_indices(q_leaf, d)
    pool = np.random.default_rng(10 * d + q_leaf).uniform(-1, 1, size=(3 * 20000, d))
    for n in (1, 16, 2000, 8192, 20000):
        sets = pool[:3 * n].reshape(3, n, d)
        want = np.stack([reference_monomials(x, exponents) for x in sets])
        assert_same(_monomials(sets[0], exponents), want[0], f"{n} points")
        assert_same(_monomials(sets, exponents), want, f"a stack of 3 x {n} points")


@pytest.mark.parametrize("d, n, q, leaf_size", [
    (2, 5000, 2, 5000),  # one leaf
    (1, 6000, 2, 6000),  # one leaf
    (3, 8000, 2, 2000),  # four leaves of 2000
    (2, 8000, 6, 2000),  # four leaves of 2000 at q_leaf = 10
])
def test_big_leaves(d, n, q, leaf_size):
    rng = np.random.default_rng(1000 * d + n + q)
    assert_matches_reference(rng.uniform(-1, 1, size=(n, d)), q, leaf_size)


def test_one_cluster_per_stack_gives_the_same_bits(monkeypatch):
    rng = np.random.default_rng(21)
    cloud = PointCloud(rng.uniform(-1, 1, size=(3000, 2)))
    spec = MomentSpec.default(2)
    tree = build_cluster_tree(cloud, leaf_size=spec.default_leaf_size())
    batched = construct_basis(tree, spec)
    stack_sizes = []

    def recording(moment):
        stack_sizes.append(moment.shape[0])
        return two_scale_decomposition(moment)

    monkeypatch.setattr(basis_module, "_STACK_BYTES", 1)
    monkeypatch.setattr(basis_module, "two_scale_decomposition", recording)
    single = construct_basis(tree, spec)
    assert stack_sizes == [1] * len(tree.clusters)  # one QR per cluster
    assert_same(single.n_scaling, batched.n_scaling, "n_scaling")
    assert_same(single.samplet_offset, batched.samplet_offset, "samplet_offset")
    for c, (got, want) in enumerate(zip(q_matrices(single), q_matrices(batched))):
        assert_same(got, want, f"Q of cluster {c}")


def reference_forward(basis, data):
    """Forward transform of the columns of ``data``, one product per cluster."""
    tree, q, n_scaling = basis.tree, q_matrices(basis), basis.n_scaling
    out = np.empty_like(data)
    permuted = data[tree.permutation]
    scaling = [None] * tree.begin.size
    for c in reversed(preorder(tree).tolist()):
        s0, s1 = tree.sons[c]
        if s0 < 0:
            coeffs = q[c].T @ permuted[tree.begin[c]:tree.end[c]]
        else:
            coeffs = q[c].T @ np.concatenate((scaling[s0], scaling[s1]))
        offset = basis.samplet_offset[c]
        out[offset:offset + basis.n_samplets[c]] = coeffs[n_scaling[c]:]
        scaling[c] = coeffs[:n_scaling[c]]
    out[:n_scaling[0]] = scaling[0]
    return out


def reference_inverse(basis, coeffs):
    """Inverse transform of the columns of ``coeffs``, one product per cluster."""
    tree, q, n_scaling = basis.tree, q_matrices(basis), basis.n_scaling
    out = np.empty_like(coeffs)
    scaling = [None] * tree.begin.size
    scaling[0] = coeffs[:n_scaling[0]]
    for c in preorder(tree).tolist():
        offset = basis.samplet_offset[c]
        incoming = q[c] @ np.concatenate(
            (scaling[c], coeffs[offset:offset + basis.n_samplets[c]]))
        s0, s1 = tree.sons[c]
        if s0 < 0:
            out[tree.permutation[tree.begin[c]:tree.end[c]]] = incoming
        else:
            scaling[s0] = incoming[:n_scaling[s0]]
            scaling[s1] = incoming[n_scaling[s0]:]
    return out


TRANSFORM_CASES = {
    "1-D, q = 0": (1, 500, 0, None),
    "2-D, q = 1": (2, 700, 1, None),
    "2-D, q = 2": (2, 900, 2, None),
    "2-D, q = 3": (2, 1100, 3, None),
    "3-D, q = 2": (3, 800, 2, None),
    "N = 1": (2, 1, 2, None),
    "leaf size 1": (2, 300, 1, 1),
    "leaf size 40": (2, 1000, 2, 40),
    "mixed leaf sizes": (2, 1003, 2, 13),
}


def transform_case(case):
    d, n, q, leaf_size = TRANSFORM_CASES[case]
    rng = np.random.default_rng(n + q)
    spec = MomentSpec.default(d, q=q)
    tree = build_cluster_tree(PointCloud(rng.uniform(-1, 1, size=(n, d))),
                              leaf_size=leaf_size or spec.default_leaf_size())
    return tree, spec, rng


def transform_shapes(n):
    return (n,), (n, 1), (n, 3), (n, 7), (n, n)


@pytest.mark.parametrize("case", TRANSFORM_CASES)
def test_transforms_match_reference(case):
    tree, spec, rng = transform_case(case)
    basis = construct_basis(tree, spec)
    for shape in transform_shapes(basis.size):
        data = rng.normal(size=shape)
        want_forward = reference_forward(basis, data)
        want_inverse = reference_inverse(basis, data)
        for offset in BYTE_OFFSETS:
            copy = at_offset(data, offset)
            assert_same(forward_transform_matrix(basis, copy), want_forward,
                        f"forward of {shape} at offset {offset}")
            assert_same(inverse_transform_matrix(basis, copy), want_inverse,
                        f"inverse of {shape} at offset {offset}")


@pytest.mark.parametrize("case", TRANSFORM_CASES)
def test_transforms_with_one_cluster_per_stack_give_the_same_bits(case):
    """The transforms take one step per stored Q stack; how many clusters a
    stack holds must not change a bit of their outputs."""
    tree, spec, rng = transform_case(case)
    basis = construct_basis(tree, spec)
    for shape in transform_shapes(basis.size):
        data = rng.normal(size=shape)
        want_forward = forward_by_cluster(basis, data)
        want_inverse = inverse_by_cluster(basis, data)
        for offset in BYTE_OFFSETS:
            copy = at_offset(data, offset)
            assert_same(forward_transform_matrix(basis, copy), want_forward,
                        f"forward of {shape} at offset {offset}")
            assert_same(inverse_transform_matrix(basis, copy), want_inverse,
                        f"inverse of {shape} at offset {offset}")


def stored_basis():
    rng = np.random.default_rng(8)
    spec = MomentSpec.default(2)
    tree = build_cluster_tree(PointCloud(rng.uniform(-1, 1, size=(1003, 2))), leaf_size=13)
    return construct_basis(tree, spec)


def assert_row_views(basis, clusters, stack):
    for row, c in enumerate(clusters.tolist()):
        q = basis.q[basis.order[c]][basis.slot[c]]
        assert q.base is not None and q.shape == stack.shape[1:]
        assert np.shares_memory(q, stack[row]) and q.ctypes.data == stack[row].ctypes.data


def test_leaf_two_scale_matrices_are_views_of_their_stacks():
    basis = stored_basis()
    tree = basis.tree
    stacked = 0
    for leaves, stack in basis.leaf_stacks:
        assert np.all(tree.size[leaves] == stack.shape[-1])
        assert_row_views(basis, leaves, stack)
        stacked += leaves.size
    assert stacked == tree.leaves.size


def test_interior_two_scale_matrices_are_views_of_their_stacks():
    basis = stored_basis()
    tree = basis.tree
    stacked = []
    for fathers, stack in basis.interior_stacks:
        assert not tree.is_leaf[fathers].any()
        assert np.all(basis.order[fathers] == stack.shape[-1])
        assert_row_views(basis, fathers, stack)
        stacked.extend(fathers.tolist())
    assert sorted(stacked) == np.flatnonzero(~tree.is_leaf).tolist()


@pytest.mark.parametrize("case", TRANSFORM_CASES)
def test_one_stored_stack_per_leaf_size_and_son_scaling_group(case):
    tree, spec, _ = transform_case(case)
    basis = construct_basis(tree, spec)
    leaves, inner = tree.leaves, np.flatnonzero(~tree.is_leaf)
    n_scaling = basis.n_scaling
    want = [tuple(leaves[tree.size[leaves] == n]) for n in np.unique(tree.size[leaves])]
    keys = sorted({(-tree.level[c], *n_scaling[tree.sons[c]]) for c in inner.tolist()})
    want += [tuple(c for c in inner.tolist()
                   if (-tree.level[c], *n_scaling[tree.sons[c]]) == key) for key in keys]
    got = [tuple(clusters) for clusters, _ in basis.leaf_stacks + basis.interior_stacks]
    assert got == want
    assert len(basis.steps) == len(want)
    for (clusters, stack), (q, rows, outputs) in zip(
            basis.leaf_stacks + basis.interior_stacks, basis.steps):
        assert q is stack and rows.shape == outputs.shape == stack.shape[:2]


@pytest.mark.parametrize("case", TRANSFORM_CASES)
def test_all_two_scale_matrices_live_in_one_buffer(case):
    """One page-aligned buffer holds every Q: the per-order views tile it,
    orders ascending; every step stack is a contiguous run of its order's
    view; and ``slot`` numbers each order's clusters, naming their rows."""
    tree, spec, _ = transform_case(case)
    basis = construct_basis(tree, spec)
    q_of = q_matrices(basis)
    buffer = q_of[0].base
    assert all(q.base is buffer for q in q_of)
    assert buffer.nbytes == 8 * int(np.sum(basis.order ** 2))
    assert buffer.ctypes.data % mmap.PAGESIZE == 0
    orders = sorted(basis.q)
    views = [basis.q[r] for r in orders]
    assert orders == np.unique(basis.order).tolist()
    assert all(view.base is buffer and view.shape[1:] == (r, r) for r, view in zip(orders, views))
    starts = [view.ctypes.data - buffer.ctypes.data for view in views]
    assert starts == np.cumsum([0] + [view.nbytes for view in views[:-1]]).tolist()
    assert starts[-1] + views[-1].nbytes == buffer.nbytes
    for r, view in zip(orders, views):
        assert sorted(basis.slot[basis.order == r].tolist()) == list(range(view.shape[0]))
    for clusters, stack in basis.leaf_stacks + basis.interior_stacks:
        view = basis.q[stack.shape[-1]]
        start = stack.ctypes.data - view.ctypes.data
        assert stack.flags.c_contiguous and start % stack[0].nbytes == 0
        assert 0 <= start and start + stack.nbytes <= view.nbytes
        for row, c in enumerate(clusters.tolist()):
            assert basis.q[basis.order[c]][basis.slot[c]].ctypes.data == stack[row].ctypes.data


def reference_transfers(tree, p):
    """Transfer matrices of every son, indexed by cluster (NaN at the root):
    the Kronecker product over the axes of the father's one-axis Lagrange
    basis at the son's one-axis nodes."""
    m = (p + 1) ** tree.lo.shape[1]
    transfers = np.full((tree.begin.size, m, m), np.nan)
    inner = np.flatnonzero(~tree.is_leaf)
    fathers, sons = np.repeat(inner, 2), tree.sons[inner].ravel()
    father = _chebyshev_axes(tree.lo[fathers], tree.hi[fathers], p)
    son = _chebyshev_axes(tree.lo[sons], tree.hi[sons], p)
    t = np.ones((sons.size, 1, 1))
    for k in range(tree.lo.shape[1]):
        a = _lagrange(father[:, k], son[:, k]).transpose(0, 2, 1)
        r, c = t.shape[1] * a.shape[1], t.shape[2] * a.shape[2]
        t = (t[:, :, None, :, None] * a[:, None, :, None, :]).reshape(sons.size, r, c)
    transfers[sons] = t
    return transfers


def tensor_grid_transfers(tree, p):
    """Transfer matrices of every son, indexed by cluster (NaN at the root):
    the father's tensor Lagrange basis evaluated at the son's tensor grid,
    first axis slowest."""
    d = tree.lo.shape[1]
    m = (p + 1) ** d
    transfers = np.full((tree.begin.size, m, m), np.nan)
    inner = np.flatnonzero(~tree.is_leaf)
    fathers, sons = np.repeat(inner, 2), tree.sons[inner].ravel()
    son = _chebyshev_axes(tree.lo[sons], tree.hi[sons], p)
    digits = np.indices((p + 1,) * d).reshape(d, -1)
    grids = np.stack([son[:, k, digits[k]] for k in range(d)], axis=2)
    father = _chebyshev_axes(tree.lo[fathers], tree.hi[fathers], p)
    transfers[sons] = _lagrange_tensors(father, grids).transpose(0, 2, 1)
    return transfers


def reference_cluster_bases(basis, p):
    """Every cluster's V as its own array, one level at a time, sons before
    fathers, with the transfer matrices of ``reference_transfers``."""
    tree = basis.tree
    transfers = reference_transfers(tree, p)
    coords = tree.permuted_coords()
    q_of, n_scaling = q_matrices(basis), basis.n_scaling
    v = [None] * len(q_of)

    def finish(group, v_in):
        q = np.stack([q_of[c] for c in group])
        for c, vc in zip(group, np.matmul(q.transpose(0, 2, 1), v_in)):
            v[c] = vc

    for level in range(tree.depth, -1, -1):
        at_level = np.flatnonzero(tree.level == level)
        leaves = at_level[tree.is_leaf[at_level]]
        for (n,), pos in _groups(tree.size[leaves]):
            group = leaves[pos]
            points = coords[tree.begin[group][:, None] + np.arange(n)]
            finish(group, _lagrange_tensors(_chebyshev_axes(tree.lo[group], tree.hi[group], p),
                                            points))
        inner = at_level[~tree.is_leaf[at_level]]
        sons = tree.sons[inner]
        for (ns0, ns1), pos in _groups(n_scaling[sons[:, 0]], n_scaling[sons[:, 1]]):
            parts = [np.matmul(np.stack([v[s][:ns] for s in sons[pos, k]]),
                               transfers[sons[pos, k]].transpose(0, 2, 1))
                     for k, ns in ((0, ns0), (1, ns1))]
            finish(inner[pos], np.concatenate(parts, axis=1))
    return transfers, v


H2_CASES = {  # d, n, seed, q, p, leaf size (None: the default), its leaf sizes,
    # the levels of the first leaf stack
    "1-D, q = 0, p = 5": (1, 333, 333, 0, 5, None, None, None),
    "one leaf": (2, 6, 2, 0, 2, 8, [6], [0]),
    "2-D, mixed leaves": (2, 61, 3, 2, 3, None, [15, 16, 30], None),
    "3-D": (3, 1000, 1000, 2, 3, None, None, None),
    # its size-1 leaves lie at levels 6 and 7, in one leaf stack
    "2-D, leaf stack on two levels": (2, 100, 100, 1, 2, 1, [1], [6, 7]),
}


@pytest.mark.parametrize("case", H2_CASES)
def test_cluster_bases_match_reference(case):
    d, n, seed, q, p, leaf_size, leaf_sizes, stack_levels = H2_CASES[case]
    rng = np.random.default_rng(seed)
    basis = build_samplet_basis(PointCloud(rng.uniform(-1, 1, size=(n, d))), q=q,
                                leaf_size=leaf_size)
    tree = basis.tree
    if leaf_sizes is not None:
        assert sorted(set(tree.size[tree.leaves].tolist())) == leaf_sizes
    if stack_levels is not None:
        leaves = basis.leaf_stacks[0][0]
        assert sorted(set(tree.level[leaves].tolist())) == stack_levels
    scheme = InterpolationScheme.build(tree, p)
    mb = compute_multiscale_cluster_basis(basis, scheme)
    transfers, v = reference_cluster_bases(basis, p)
    assert_same(scheme.transfers[1:], transfers[1:], "transfer matrices")  # the root's are NaN
    q_of, order, slot = q_matrices(basis), basis.order, basis.slot
    for c in tree.clusters:
        assert_same(basis.q[order[c]][slot[c]], q_of[c], f"Q of cluster {c}")
        assert_same(mb[order[c]][slot[c]], v[c], f"V of cluster {c}")


@pytest.mark.parametrize("p", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_transfers_match_reference(d, p):
    rng = np.random.default_rng(10 * d + p)
    coords = rng.uniform(-1, 1, size=(512, d))
    if d > 1:
        coords[:, 1] = 0.25  # a zero-width axis in every box
    tree = build_cluster_tree(PointCloud(coords), leaf_size=20)
    assert_same(InterpolationScheme.build(tree, p).transfers[1:],
                reference_transfers(tree, p)[1:], "transfer matrices")
    assert_same(InterpolationScheme.build(tree, p).transfers[1:],
                tensor_grid_transfers(tree, p)[1:], "transfer matrices at the son grids")
