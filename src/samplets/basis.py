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
scaling and samplet counts as arrays indexed the same way.  The basis is
built one tree level at a time, with one stacked QR per stack of equally
shaped moment matrices, under a byte budget per stack.  The two-scale
matrices of all leaves of one size are stored as one stack; each interior
QR stack is stored as it came out of the QR.  The transforms multiply each
stored stack in one call (``SampletBasis.steps``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .cluster_tree import ClusterTree, PointCloud, build_cluster_tree
from .errors import InvalidInput, ResourceLimit

# Byte budget of one stack of moment matrices and their two-scale matrices
# in ``construct_basis``; it bounds the build's temporaries.  On the
# ``signals-2d`` benchmark (N = 2^16, 2-core x86), 1 MiB stacks built the
# basis about 8 % faster but raised the peak RSS of repeated builds by
# 4 %; 64 KiB stacks left it where one array per cluster did.
_STACK_BYTES = 1 << 16

# Cap on the entries of one moment matrix; a leaf's is m_q_leaf x its point
# count.  2^24 float64 entries are 128 MiB; evaluating the monomials also
# holds a table of (q_leaf + 1) d powers per point.
MAX_MOMENT_ENTRIES = 1 << 24


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
    """Evaluate x^alpha for every point and multi-index; shape (..., m, n).

    ``points`` is (..., n, d), a stack of point sets; ``exponents`` is (m, d).
    Each coordinate is raised once to every power 0..max(exponents): a
    (..., k, n, d) table, with the (k, d) int64 powers broadcast over the
    points.  Every monomial is the product of its axes' table rows, multiplied
    from the first axis on as ``np.prod`` does.  That takes k d powers per
    point instead of m d, with the bits of ``np.prod(x ** exponents)`` on each
    point set alone.  NumPy picks the inner loop of ``**`` by operand layout
    and size, and the loops differ in the last bit; this layout keeps them,
    which the oracle tests pin.
    """
    d = exponents.shape[1]
    powers = np.repeat(np.arange(exponents.max() + 1)[:, None], d, axis=1)
    table = points[..., None, :, :] ** powers[:, None, :]
    out = np.take(table[..., 0], exponents[:, 0], axis=-2)
    for a in range(1, d):
        out = out * np.take(table[..., a], exponents[:, a], axis=-2)
    return out


def two_scale_decomposition(moment: np.ndarray) -> tuple[np.ndarray, int]:
    """Full QR of the transposed moment matrix with the sign fixed so diag(R) >= 0.

    ``moment`` is one (m x n) matrix or a stack (..., m, n) of them; each
    stack entry is decomposed on its own and gets the bits of a call on it
    alone.  Returns the orthogonal (..., n, n) matrices and the number of
    scaling columns min(m, n).  Column k annihilates the first k-1 moment
    rows, so every column beyond the scaling block annihilates all m rows.
    """
    m, n = moment.shape[-2:]
    if n < 1:
        raise InvalidInput("moment matrix needs at least one column")
    qmat, rmat = np.linalg.qr(np.swapaxes(moment, -1, -2), mode="complete")
    k = min(m, n)
    diagonal = np.diagonal(rmat, axis1=-2, axis2=-1)[..., None, :k]
    qmat[..., :k] *= np.where(diagonal < 0, -1.0, 1.0)
    return qmat, k


@dataclass(eq=False)
class SampletBasis:
    """Orthonormal multiscale basis: root scaling functions plus all samplets.

    ``q_matrices[c]`` is cluster c's two-scale matrix [Q_phi | Q_sigma]: its
    first ``n_scaling[c]`` columns are scaling functions, the rest samplets.
    Global coefficient ordering: indices 0..n_scaling[0]-1 address the root
    scaling functions; samplets follow grouped per cluster in breadth-first
    (coarse-to-fine) tree order, cluster c's starting at ``samplet_offset[c]``.
    ``leaf_stacks`` holds one (leaves, Q stack) pair per leaf size, leaves
    ascending; ``interior_stacks`` holds one (fathers, Q stack) pair per
    stacked QR of the build, finest level first.  Every ``q_matrices`` entry
    is a view into the one stack that holds its cluster.
    """

    tree: ClusterTree
    spec: MomentSpec
    frame: NormalizationFrame
    q_matrices: list[np.ndarray]
    n_scaling: np.ndarray
    samplet_offset: np.ndarray
    leaf_stacks: list[tuple[np.ndarray, np.ndarray]]
    interior_stacks: list[tuple[np.ndarray, np.ndarray]]

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

    @cached_property
    def order(self) -> np.ndarray:
        """Outputs per cluster, scaling functions plus samplets: the order of
        its two-scale matrix."""
        return self.n_scaling + self.n_samplets

    @cached_property
    def steps(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """One step per stored Q stack (b, n, n), in the order of the forward
        pass: ``leaf_stacks``, then ``interior_stacks``.  A step holds the
        stack, its clusters' input rows (b, n) and their output rows (b, n).

        The rows index the transforms' work buffer: the N coefficients in
        global order, then every cluster's scaling coefficients in cluster
        order, so brothers' rows are adjacent.  The root's scaling functions
        are basis elements, and its scaling rows are coefficients 0..ns-1.
        A cluster's output rows are its scaling rows, then its samplets'.
        A leaf's input rows are its points' original indices into the data;
        a father's are its sons' scaling rows, one run from the first son's.
        """
        tree, n_scaling = self.tree, self.n_scaling
        scaling_row = self.size + np.cumsum(n_scaling) - n_scaling
        scaling_row[0] = 0
        steps = []
        for clusters, q in self.leaf_stacks + self.interior_stacks:
            n, ns = q.shape[-1], int(n_scaling[clusters[0]])
            if tree.is_leaf[clusters[0]]:
                rows = tree.permutation[tree.begin[clusters][:, None] + np.arange(n)]
            else:
                rows = scaling_row[tree.sons[clusters, 0]][:, None] + np.arange(n)
            outputs = np.concatenate((scaling_row[clusters][:, None] + np.arange(ns),
                                      self.samplet_offset[clusters][:, None] + np.arange(n - ns)),
                                     axis=1)
            steps.append((q, rows, outputs))
        return steps


def _groups(*keys: np.ndarray):
    """Yield (key values, positions) for each distinct combination of keys.

    Positions are ascending within a group.
    """
    if keys[0].size == 0:
        return
    order = np.lexsort(keys[::-1])
    sorted_keys = np.stack([k[order] for k in keys])
    cuts = np.flatnonzero(np.any(sorted_keys[:, 1:] != sorted_keys[:, :-1], axis=0)) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, order.size]):
        yield tuple(int(k[lo]) for k in sorted_keys), order[lo:hi]


def _chunks(members: np.ndarray, m: int, n: int):
    """Split a group of (m x n) moment matrices into stacks of at most
    ``_STACK_BYTES`` of moments and two-scale matrices (one matrix at least)."""
    step = max(1, _STACK_BYTES // (8 * n * (m + n)))
    return (members[i:i + step] for i in range(0, members.size, step))


def _check_moment_size(tree: ClusterTree, spec: MomentSpec) -> None:
    """Refuse a build whose moment matrices could exceed ``MAX_MOMENT_ENTRIES``.

    A leaf's moment matrix is m_q_leaf x (its points).  A father's has m_q
    rows and one column per scaling function of its sons; a son has at most
    its point count of them, and at most max(m_q, largest leaf).  The bound
    is taken from binomials, before any monomial is enumerated.
    """
    largest_leaf = int(tree.size[tree.leaves].max())
    entries = spec.m_q_leaf * largest_leaf
    if not tree.is_leaf[0]:
        columns = min(tree.cloud.count, 2 * max(spec.m_q, largest_leaf))
        entries = max(entries, spec.m_q * columns)
    if entries > MAX_MOMENT_ENTRIES:
        raise ResourceLimit(
            f"moment matrices of up to {entries} entries exceed the cap of "
            f"{MAX_MOMENT_ENTRIES} (q={spec.q}, q_leaf={spec.q_leaf}, largest leaf "
            f"{largest_leaf} points); lower q, q_leaf or the leaf size")


def _moment_stacks(tree: ClusterTree, at_level: np.ndarray, points: np.ndarray,
                   exponents: np.ndarray, n_scaling: np.ndarray, son_exports: np.ndarray,
                   below: int):
    """Yield (clusters, moments) over one level: stacks of equally shaped
    moment matrices, at most ``_STACK_BYTES`` each.

    A leaf's moments are its monomials; a father's are the columns its sons
    exported, side by side.  ``son_exports[s - below]`` holds son s's.
    """
    leaves = at_level[tree.is_leaf[at_level]]
    for (n,), pos in _groups(tree.size[leaves]):
        for group in _chunks(leaves[pos], exponents.shape[0], n):
            yield group, _monomials(points[tree.begin[group][:, None] + np.arange(n)], exponents)
    inner = at_level[~tree.is_leaf[at_level]]
    s0, s1 = tree.sons[inner, 0], tree.sons[inner, 1]
    for (ns0, ns1), pos in _groups(n_scaling[s0], n_scaling[s1]):
        for chunk in _chunks(pos, son_exports.shape[1], ns0 + ns1):
            yield inner[chunk], np.concatenate((son_exports[s0[chunk] - below, :, :ns0],
                                                son_exports[s1[chunk] - below, :, :ns1]),
                                               axis=-1)


def construct_basis(tree: ClusterTree, spec: MomentSpec) -> SampletBasis:
    """Bottom-up construction of the samplet basis on a cluster tree.

    Leaves decompose their enriched moment matrix (degree ``q_leaf``); every
    interior cluster concatenates the degree-``q`` moment columns its sons
    export for their scaling functions and decomposes those.  The root keeps
    its scaling functions as basis elements, so the total count of scaling
    functions at the root plus samplets everywhere equals N.

    The build runs one tree level at a time, finest first.  A level's
    clusters with equally shaped moment matrices (leaves of one size, or
    fathers whose sons carry the same scaling counts) are decomposed in
    stacks of at most ``_STACK_BYTES``, with one stacked QR and one stacked
    product each; every cluster gets the bits of a decomposition of its own
    matrix.  An interior QR stack is kept as it is, in ``interior_stacks``,
    and its clusters' ``q_matrices`` entries are views into it; a leaf's
    two-scale matrix is copied into the one stack of all leaves of its size,
    and its entry is a view into that.  The moments a level exports upward
    are copied into one array per level, so that no view holds a stack's
    full product alive.
    """
    if spec.dim != tree.cloud.dim:
        raise InvalidInput(f"moment spec dim {spec.dim} != cloud dim {tree.cloud.dim}")
    _check_moment_size(tree, spec)
    frame = NormalizationFrame.for_cloud(tree.cloud)
    points = frame.normalize(tree.permuted_coords())
    exponents = multi_indices(spec.q_leaf, spec.dim)
    m_q, m_leaf = spec.m_q, exponents.shape[0]
    is_leaf, sons, size = tree.is_leaf, tree.sons, tree.size
    n_clusters = len(tree.clusters)
    q_matrices: list[np.ndarray | None] = [None] * n_clusters
    n_scaling = np.empty(n_clusters, dtype=np.int64)
    columns = np.empty(n_clusters, dtype=np.int64)  # of the moment matrix, and Q's order
    bounds = np.searchsorted(tree.level, np.arange(tree.depth + 2))
    leaf_stacks, interior_stacks = [], []
    leaf_row = np.empty(n_clusters, dtype=np.int64)  # a leaf's place in its stack
    stack_of: dict[int, np.ndarray] = {}
    for (n,), pos in _groups(size[tree.leaves]):
        leaves = tree.leaves[pos]
        leaf_row[leaves] = np.arange(leaves.size)
        stack_of[n] = np.empty((leaves.size, n, n))
        leaf_stacks.append((leaves, stack_of[n]))
    son_exports = None
    for level in range(tree.depth, -1, -1):
        first, stop = bounds[level], bounds[level + 1]
        at_level = np.arange(first, stop)
        leaves, inner = at_level[is_leaf[at_level]], at_level[~is_leaf[at_level]]
        columns[leaves] = size[leaves]
        columns[inner] = n_scaling[sons[inner, 0]] + n_scaling[sons[inner, 1]]
        n_scaling[at_level] = np.minimum(np.where(is_leaf[at_level], m_leaf, m_q),
                                         columns[at_level])
        exports = np.empty((at_level.size, m_q, int(n_scaling[at_level].max())))
        for group, moment in _moment_stacks(tree, at_level, points, exponents, n_scaling,
                                            son_exports, stop):
            qmat, ns = two_scale_decomposition(moment)
            exports[group - first, :, :ns] = np.matmul(moment, qmat)[:, :m_q, :ns]
            if is_leaf[group[0]]:  # one level's leaves of one size: consecutive rows
                row = leaf_row[group[0]]
                stack = stack_of[qmat.shape[-1]][row:row + group.size]
                stack[...] = qmat
                qmat = stack
            else:
                interior_stacks.append((group, qmat))
            for c, q in zip(group.tolist(), qmat):
                q_matrices[c] = q
        son_exports = exports

    n_samplets = columns - n_scaling
    # samplets follow the root scaling functions in breadth-first cluster order
    samplet_offset = n_scaling[0] + np.cumsum(n_samplets) - n_samplets
    total = n_scaling[0] + n_samplets.sum()
    if total != tree.cloud.count:
        raise AssertionError(f"basis size mismatch: {total} != {tree.cloud.count}")
    return SampletBasis(tree=tree, spec=spec, frame=frame, q_matrices=q_matrices,
                        n_scaling=n_scaling, samplet_offset=samplet_offset,
                        leaf_stacks=leaf_stacks, interior_stacks=interior_stacks)


def build_samplet_basis(cloud: PointCloud, q: int = 2, q_leaf: int | None = None,
                        leaf_size: int | None = None) -> SampletBasis:
    """Convenience builder: cluster tree plus basis with defaults derived from q."""
    spec = MomentSpec.default(cloud.dim, q=q, q_leaf=q_leaf)
    if leaf_size is None:
        leaf_size = spec.default_leaf_size()
    tree = build_cluster_tree(cloud, leaf_size=leaf_size)
    return construct_basis(tree, spec)

