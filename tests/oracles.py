"""Per-element reference code for the samplet basis, shared by the tests.

``samplet_as_point_vector`` expands one basis element over the original
points by pushing a unit vector down the tree one cluster at a time,
independently of the stacked transforms, and ``dense_basis_matrix`` stacks
all of them into the N x N basis matrix.  ``owner_of`` names the cluster a
basis element belongs to, and ``leaf_moment_matrix`` evaluates one leaf's
moment matrix on its own.
"""

import numpy as np

from samplets.basis import NormalizationFrame, SampletBasis, _monomials, multi_indices
from samplets.cluster_tree import ClusterTree
from samplets.errors import InvalidInput


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
    tree, q = basis.tree, basis.q_matrices
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
