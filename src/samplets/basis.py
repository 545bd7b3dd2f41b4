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

All two-scale matrices live in one buffer, one region per order (the
matrices' size), orders ascending.  A region holds its order's step groups,
one stack per leaf size and one per tree level and pair of son scaling
counts, each a contiguous run.  Taken in the order of the forward pass (the
leaf stacks, then the interior stacks, finest level first) every son's
stack comes before its father's, so these stacks are the one bottom-up
schedule, ``SampletBasis.steps`` (13 steps at N = 2^16 in 2-D), with one
row layout: the transforms' work buffer of the N coefficients, then every
cluster's scaling coefficients.  The build walks it with stacked QRs under
a byte budget, the transforms multiply each step in one call, and the H^2
cluster bases follow it too; the build and the H^2 bases carry their
scaling data in the scaling region of that buffer.  The H^2 assembly reads
the same Q buffer, a cluster's Q through its order's region and its row
there (``SampletBasis.q`` and ``slot``).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb, prod

import numpy as np

from .cluster_tree import ClusterTree, PointCloud, build_cluster_tree
from .errors import InvalidInput, ResourceLimit, allocate

# Byte budget of one QR stack in ``construct_basis``: its moment matrices
# and their two-scale matrices.  It bounds only the build's temporaries; the
# stored stacks are laid out apart from it.  On the ``signals-2d`` benchmark
# (N = 2^16, 2-core x86), 1 MiB stacks built the basis about 8 % faster but
# raised the peak RSS of repeated builds by 4 %; 64 KiB stacks left it where
# one array per cluster did.
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
    # each combination lists the axes of one monomial's factors; sorted
    # combinations give the first axis its highest count first
    return np.asarray([[axes.count(axis) for axis in range(d)]
                       for ell in range(degree + 1)
                       for axes in combinations_with_replacement(range(d), ell)], dtype=np.int64)


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
    Raises ResourceLimit when the QR cannot allocate them.
    """
    m, n = moment.shape[-2:]
    if n < 1:
        raise InvalidInput("moment matrix needs at least one column")
    try:
        qmat, rmat = np.linalg.qr(np.swapaxes(moment, -1, -2), mode="complete")
    except MemoryError as exc:
        raise ResourceLimit(f"two-scale matrices of order {n} would take "
                            f"{8 * prod(moment.shape[:-2]) * n * n} bytes, more than can "
                            "be allocated") from exc
    k = min(m, n)
    diagonal = np.diagonal(rmat, axis1=-2, axis2=-1)[..., None, :k]
    qmat[..., :k] *= np.where(diagonal < 0, -1.0, 1.0)
    return qmat, k


@dataclass(eq=False)
class SampletBasis:
    """Orthonormal multiscale basis: root scaling functions plus all samplets.

    ``q[order[c]][slot[c]]`` is cluster c's two-scale matrix
    [Q_phi | Q_sigma]: its first ``n_scaling[c]`` columns are scaling
    functions, the rest samplets.  ``q[r]`` is a (count, r, r) view holding
    every Q of order r, and ``slot`` numbers each order's clusters from 0.
    Global coefficient ordering: indices 0..n_scaling[0]-1 address the root
    scaling functions; samplets follow grouped per cluster in breadth-first
    (coarse-to-fine) tree order, cluster c's starting at ``samplet_offset[c]``.
    ``stacks`` holds one (clusters, Q stack) pair per step of the forward
    pass: one per leaf size, leaves ascending, then one per tree level and
    pair of son scaling counts, finest level first, fathers ascending within
    it.  Every stack is a run of consecutive rows of its order's view, and
    the views tile one buffer, orders ascending.
    """

    tree: ClusterTree
    spec: MomentSpec
    n_scaling: np.ndarray
    samplet_offset: np.ndarray
    q: dict[int, np.ndarray]
    slot: np.ndarray
    stacks: list[tuple[np.ndarray, np.ndarray]]

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
    def steps(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """One step per stored stack, in the order of the forward pass: its
        clusters, its Q stack (b, n, n) and their input and output rows
        (b, n) from ``_step_rows``."""
        rows = _step_rows(self.tree, self.n_scaling, self.samplet_offset,
                          [clusters for clusters, _ in self.stacks])
        return [(clusters, q, inputs, outputs)
                for (clusters, q), (inputs, outputs) in zip(self.stacks, rows)]


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


def _step_rows(tree: ClusterTree, n_scaling: np.ndarray, samplet_offset: np.ndarray,
               groups: list[np.ndarray]):
    """Yield the input rows (b, n) and output rows (b, n) of each group of b
    clusters of one order n, a step of the bottom-up schedule.

    The rows index the transforms' work buffer: the N coefficients in
    global order, then every cluster's scaling coefficients in cluster
    order, so brothers' rows are adjacent.  The root's scaling functions
    are basis elements, and its scaling rows are coefficients 0..ns-1.
    A cluster's output rows are its scaling rows, then its samplets'.
    A leaf's input rows are its points' tree positions, which index the
    data in tree order; a father's are its sons' scaling rows, one run
    from the first son's.
    """
    scaling_row = tree.cloud.count + np.cumsum(n_scaling) - n_scaling
    scaling_row[0] = 0
    for clusters in groups:
        c = clusters[0]
        ns = n_scaling[c]
        if tree.is_leaf[c]:
            first, n = tree.begin[clusters], tree.size[c]
        else:
            first, n = scaling_row[tree.sons[clusters, 0]], n_scaling[tree.sons[c]].sum()
        yield first[:, None] + np.arange(n), np.concatenate(
            (scaling_row[clusters][:, None] + np.arange(ns),
             samplet_offset[clusters][:, None] + np.arange(n - ns)), axis=1)


def _counts(tree: ClusterTree, m_q: int, m_leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Every cluster's moment columns (the order of its two-scale matrix) and
    scaling count, in one integer pass over the levels, finest first.

    A leaf's columns are its points, a father's its sons' scaling functions;
    a cluster keeps as many scaling functions as it has moment rows, or
    columns if fewer.
    """
    is_leaf, sons = tree.is_leaf, tree.sons
    columns = tree.size.copy()
    n_scaling = np.empty_like(columns)
    bounds = np.searchsorted(tree.level, np.arange(tree.depth + 2))
    for level in range(tree.depth, -1, -1):
        at_level = np.arange(bounds[level], bounds[level + 1])
        inner = at_level[~is_leaf[at_level]]
        columns[inner] = n_scaling[sons[inner, 0]] + n_scaling[sons[inner, 1]]
        n_scaling[at_level] = np.minimum(np.where(is_leaf[at_level], m_leaf, m_q),
                                         columns[at_level])
    return columns, n_scaling


def _private_pages(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float64 array in a private anonymous mapping of its own.

    All two-scale matrices of a basis live in one such buffer, 25 MB at
    N = 2^16 in 2-D, and it goes back to the system when the basis is freed.
    From ``np.empty``, glibc's malloc maps a block that large only while its
    dynamic mmap threshold is below it.  Freeing an earlier basis raises the
    threshold, so later buffers land on the brk heap, which fragments:
    ``signals-2d``, whose set-ups build a basis while the last one is alive,
    read ``peak_rss_mb`` up to 157 MB, against 130.6 with the QR's own
    stacks and 132.8-134.4 with this mapping (2-core x86).
    """
    pages = mmap.mmap(-1, 8 * prod(shape), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(pages, dtype=np.float64).reshape(shape)


def construct_basis(tree: ClusterTree, spec: MomentSpec) -> SampletBasis:
    """Bottom-up construction of the samplet basis on a cluster tree.

    Leaves decompose their enriched moment matrix (degree ``q_leaf``); every
    interior cluster concatenates the degree-``q`` moment columns its sons
    export for their scaling functions and decomposes those.  The root keeps
    its scaling functions as basis elements, so the total count of scaling
    functions at the root plus samplets everywhere equals N.

    Every cluster's order and scaling count come first, from ``_counts``.
    They give every moment matrix's size, and a build whose largest exceeds
    ``MAX_MOMENT_ENTRIES`` is refused before any monomial is enumerated.
    They also lay out one buffer with a region per order.  Inside its order's
    region lies a stack of every leaf size and a stack of every level's
    fathers whose sons carry the same scaling counts.  The build walks these
    stacks once, in the order of the forward pass, so every son is done
    before its father.  A stack is decomposed in chunks of at most
    ``_STACK_BYTES``, with one stacked QR and one stacked product each;
    every cluster gets the bits of a decomposition of its own matrix.  Each
    chunk's QR is copied into its clusters' rows of the stored stack, and
    the moments it exports upward into the scaling region of the rows of
    ``_step_rows``, so that no view holds a chunk's full product alive.
    """
    if spec.dim != tree.cloud.dim:
        raise InvalidInput(f"moment spec dim {spec.dim} != cloud dim {tree.cloud.dim}")
    # More moment rows than points change no count; clamped, none overflows.
    n_points = tree.cloud.count
    columns, n_scaling = _counts(tree, min(spec.m_q, n_points), min(spec.m_q_leaf, n_points))
    largest_leaf = int(columns[tree.leaves].max())  # a leaf's columns are its points
    entries = max(spec.m_q_leaf * largest_leaf,
                  spec.m_q * int(columns[~tree.is_leaf].max(initial=0)))
    if entries > MAX_MOMENT_ENTRIES:
        raise ResourceLimit(
            f"moment matrices of up to {entries} entries exceed the cap of "
            f"{MAX_MOMENT_ENTRIES} (q={spec.q}, q_leaf={spec.q_leaf}, largest leaf "
            f"{largest_leaf} points); lower q, q_leaf or the leaf size")
    points = NormalizationFrame.for_cloud(tree.cloud).normalize(tree.permuted_coords())
    exponents = multi_indices(spec.q_leaf, spec.dim)
    m_q = spec.m_q

    leaves, inner = tree.leaves, np.flatnonzero(~tree.is_leaf)
    groups = [leaves[pos] for _, pos in _groups(tree.size[leaves])]
    groups += [inner[pos] for _, pos in _groups(-tree.level[inner],
                                                n_scaling[tree.sons[inner, 0]],
                                                n_scaling[tree.sons[inner, 1]])]
    # one region per order, ascending, holding its groups in forward-pass order
    step = np.empty_like(columns)
    for i, group in enumerate(groups):
        step[group] = i
    layout = np.lexsort((step, columns))
    orders, starts, counts = np.unique(columns[layout], return_index=True, return_counts=True)
    slot = np.empty_like(columns)
    slot[layout] = np.arange(layout.size) - np.repeat(starts, counts)
    buffer = allocate(_private_pages, (int(np.sum(columns ** 2)),), "the two-scale matrices")
    q, start = {}, 0
    for r, count in zip(orders.tolist(), counts.tolist()):
        q[r] = buffer[start:start + count * r * r].reshape(count, r, r)
        start += count * r * r
    stacks = [q[int(columns[g[0]])][slot[g[0]]:slot[g[0]] + g.size] for g in groups]

    n_samplets = columns - n_scaling
    # samplets follow the root scaling functions in breadth-first cluster order
    samplet_offset = n_scaling[0] + np.cumsum(n_samplets) - n_samplets
    total = n_scaling[0] + n_samplets.sum()
    if total != tree.cloud.count:
        raise AssertionError(f"basis size mismatch: {total} != {tree.cloud.count}")

    exports = np.empty((int(n_scaling.sum()), m_q))  # row i is step row N + i
    for group, stack, (inputs, outputs) in zip(
            groups, stacks, _step_rows(tree, n_scaling, samplet_offset, groups)):
        n, leaf = stack.shape[-1], tree.is_leaf[group[0]]
        size = max(1, _STACK_BYTES // (8 * n * (n + (exponents.shape[0] if leaf else m_q))))
        for lo in range(0, group.size, size):
            rows = inputs[lo:lo + size]
            if leaf:
                moment = _monomials(points[rows], exponents)
            else:  # the sons' exports side by side
                moment = np.ascontiguousarray(np.swapaxes(exports[rows - n_points], 1, 2))
            qmat, ns = two_scale_decomposition(moment)
            stack[lo:lo + size] = qmat
            if group[0] > 0:  # the root has no father
                exports[outputs[lo:lo + size, :ns] - n_points] = np.swapaxes(
                    np.matmul(moment, qmat)[:, :m_q, :ns], 1, 2)
    return SampletBasis(tree=tree, spec=spec, n_scaling=n_scaling,
                        samplet_offset=samplet_offset, q=q, slot=slot,
                        stacks=list(zip(groups, stacks)))


def build_samplet_basis(cloud: PointCloud, q: int = 2, q_leaf: int | None = None,
                        leaf_size: int | None = None) -> SampletBasis:
    """Convenience builder: cluster tree plus basis with defaults derived from q."""
    spec = MomentSpec.default(cloud.dim, q=q, q_leaf=q_leaf)
    if leaf_size is None:
        leaf_size = spec.default_leaf_size()
    tree = build_cluster_tree(cloud, leaf_size=leaf_size)
    return construct_basis(tree, spec)

