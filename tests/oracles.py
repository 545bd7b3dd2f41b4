"""Per-element reference code for the samplet basis, shared by the tests.

``q_matrices`` lists every cluster's two-scale matrix, read from the step
stacks (``leaf_stacks`` and ``interior_stacks``) rather than through
``SampletBasis.q`` and ``slot``, so tests comparing the two check the
layout.  ``samplet_as_point_vector`` expands one basis element over the
original points by pushing a unit vector down the tree one cluster at a
time, independently of the stacked transforms, and ``dense_basis_matrix``
stacks all of them into the N x N basis matrix.  ``owner_of`` names the cluster a
basis element belongs to, and ``leaf_moment_matrix`` evaluates one leaf's
moment matrix on its own.  ``forward_by_cluster`` and ``inverse_by_cluster``
transform in the work buffer of ``SampletBasis.steps``, with each cluster's
``q_matrices`` entry applied on its own, as a stack of one.  ``preorder``
lists the clusters depth-first, the order of per-cluster reference
recursions.  ``at_offset`` copies an input to a given byte offset, to show
that outputs do not depend on where the input lies.
"""

import numpy as np

from samplets.basis import NormalizationFrame, SampletBasis, _monomials, multi_indices
from samplets.cluster_tree import ClusterTree
from samplets.errors import InvalidInput


def q_matrices(basis: SampletBasis) -> list[np.ndarray]:
    """Every cluster's two-scale matrix, a view of its row in its step stack."""
    q = [None] * basis.n_scaling.size
    for clusters, stack in basis.leaf_stacks + basis.interior_stacks:
        for c, qc in zip(clusters.tolist(), stack):
            q[c] = qc
    return q


def preorder(tree: ClusterTree) -> np.ndarray:
    """All cluster indices depth-first, each father before its sons' subtrees.

    Sorting by first tree position puts a subtree after the clusters left of
    it; a father shares its first position with its left son and comes first
    by level.
    """
    return np.lexsort((tree.level, tree.begin))


def owner_of(basis: SampletBasis, global_index: int) -> int:
    """The cluster owning a basis element (the root for root scaling functions)."""
    n = basis.size
    if not 0 <= global_index < n:
        raise InvalidInput(f"basis index {global_index} out of range [0, {n})")
    if global_index < basis.n_root_scaling:
        return 0
    return int(np.searchsorted(basis.samplet_offset, global_index, side="right")) - 1


def leaf_moment_matrix(tree: ClusterTree, leaf: int, degree: int,
                       frame: NormalizationFrame) -> np.ndarray:
    """Moment matrix of a leaf: monomials of the normalized points, (m_degree x n)."""
    assert tree.is_leaf[leaf], "leaf_moment_matrix requires a leaf cluster"
    pts = tree.cloud.coords[tree.permutation[tree.begin[leaf]:tree.end[leaf]]]
    return _monomials(frame.normalize(pts), multi_indices(degree, tree.cloud.dim))


def samplet_as_point_vector(basis: SampletBasis, global_index: int) -> np.ndarray:
    """Expand one basis element into its coefficients over the original points.

    The result has unit Euclidean norm and is supported on the owning
    cluster's index range only.
    """
    tree, q = basis.tree, q_matrices(basis)
    cluster = owner_of(basis, global_index)
    coeff = np.zeros(q[cluster].shape[1])
    if global_index < basis.n_root_scaling:
        coeff[global_index] = 1.0
    else:
        coeff[basis.n_scaling[cluster] + global_index - basis.samplet_offset[cluster]] = 1.0

    out = np.zeros(basis.size)

    def push_down(node: int, outputs: np.ndarray):
        incoming = q[node] @ outputs
        if tree.is_leaf[node]:
            out[tree.permutation[tree.begin[node]:tree.end[node]]] = incoming
            return
        pos = 0
        for son in tree.sons[node]:
            son_scaling = basis.n_scaling[son]
            son_outputs = np.zeros(q[son].shape[1])
            son_outputs[:son_scaling] = incoming[pos:pos + son_scaling]
            pos += son_scaling
            push_down(son, son_outputs)

    push_down(cluster, coeff)
    return out


def dense_basis_matrix(basis: SampletBasis, cap: int = 4096) -> np.ndarray:
    """All basis elements as rows of an N x N orthogonal matrix."""
    n = basis.size
    assert n <= cap, f"dense basis matrix guarded to N <= {cap}, got {n}"
    return np.vstack([samplet_as_point_vector(basis, k) for k in range(n)])


def _cluster_rows(basis: SampletBasis):
    """Yield (cluster, Q, input rows, output rows) bottom-up, with the rows of
    the work buffer that ``SampletBasis.steps`` describes; a leaf's input
    rows are its points' original indices into the data."""
    tree, n_scaling = basis.tree, basis.n_scaling
    scaling_row = basis.size + np.cumsum(n_scaling) - n_scaling
    scaling_row[0] = 0
    q_of = q_matrices(basis)
    for c in reversed(tree.clusters):
        q = q_of[c]
        n, ns = q.shape[0], int(n_scaling[c])
        if tree.is_leaf[c]:
            rows = tree.permutation[tree.begin[c]:tree.end[c]]
        else:
            rows = scaling_row[tree.sons[c, 0]] + np.arange(n)
        outputs = np.concatenate((scaling_row[c] + np.arange(ns),
                                  basis.samplet_offset[c] + np.arange(n - ns)))
        yield c, q, rows, outputs


def forward_by_cluster(basis: SampletBasis, data: np.ndarray) -> np.ndarray:
    """Forward transform of the columns of ``data``, one stacked product of
    one two-scale matrix per cluster, sons before fathers."""
    values = data.reshape(basis.size, -1)
    work = np.empty((basis.size + int(basis.n_scaling.sum()), values.shape[1]))
    for c, q, rows, outputs in _cluster_rows(basis):
        source = values if basis.tree.is_leaf[c] else work
        work[outputs] = np.matmul(q.T[None], source[rows][None])[0]
    return work[:basis.size].reshape(data.shape)


def inverse_by_cluster(basis: SampletBasis, coeffs: np.ndarray) -> np.ndarray:
    """Inverse transform of the columns of ``coeffs``, one stacked product of
    one two-scale matrix per cluster, fathers before sons."""
    out = np.empty_like(coeffs)
    values = out.reshape(basis.size, -1)
    work = np.empty((basis.size + int(basis.n_scaling.sum()), values.shape[1]))
    work[:basis.size] = coeffs.reshape(values.shape)
    for c, q, rows, outputs in reversed(list(_cluster_rows(basis))):
        target = values if basis.tree.is_leaf[c] else work
        target[rows] = np.matmul(q[None], work[outputs][None])[0]
    return out


BYTE_OFFSETS = (0, 8, 24)


def at_offset(a, offset):
    """A copy of ``a`` that starts ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(a.nbytes + 128, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    copy = buf[start:start + a.nbytes].view(np.float64).reshape(a.shape)
    copy[...] = a
    return copy
