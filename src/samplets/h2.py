"""Compressed kernel matrices via interpolation-based far-field approximation.

Admissible cluster pairs (``cluster_tree.is_admissible``, the cut-off
criterion) are evaluated through a tensor Chebyshev interpolant of the
kernel, all other pairs exactly.  Nested cluster bases connect interpolation
data across levels through transfer matrices, so the whole samplet-compressed
matrix assembles in log-linear time: one block recursion, swept depth-first
and sons-first over the column clusters, reuses son blocks for father blocks
and releases them as soon as they have been consumed.  Retained entries are
the samplet-samplet interactions of inadmissible pairs plus the root scaling
rows and columns; each block drops its entries below the a-posteriori
threshold as it is stored, keeping the diagonal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .basis import SampletBasis
from .cluster_tree import BoundingBox, Cluster, ClusterTree, is_admissible
from .errors import InvalidInput, ResourceLimit
from .kernels import KernelConfig, dense_kernel_matrix, kernel_cross
from .sparse import SparseSym
from .transform import forward_transform_matrix

_DEGENERATE_WIDTH = 1e-300


def chebyshev_nodes_1d(lo: float, hi: float, p: int) -> np.ndarray:
    """p+1 Chebyshev points of the first kind mapped to [lo, hi], ascending."""
    k = np.arange(p + 1)
    ref = -np.cos((2 * k + 1) * np.pi / (2 * (p + 1)))
    return (lo + hi) / 2.0 + (hi - lo) / 2.0 * ref


def chebyshev_points(box: BoundingBox, p: int) -> np.ndarray:
    """Tensor grid of (p+1)^d Chebyshev points in the box, first axis slowest."""
    if p < 0:
        raise InvalidInput(f"interpolation degree must be >= 0, got {p}")
    axes = [chebyshev_nodes_1d(lo, hi, p) for lo, hi in zip(box.lo, box.hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _lagrange_1d(nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange basis values, shape (len(targets), len(nodes)).

    Collapsed node sets (zero-width axis) fall back to constant interpolation:
    the first basis function is 1, the others 0.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    m = nodes.size
    out = np.zeros((targets.size, m))
    if m == 1 or np.ptp(nodes) <= _DEGENERATE_WIDTH:
        out[:, 0] = 1.0
        return out
    weights = np.empty(m)
    for j in range(m):
        weights[j] = 1.0 / np.prod(nodes[j] - np.delete(nodes, j))
    diff = targets[:, None] - nodes[None, :]
    exact = diff == 0.0
    hit_rows = exact.any(axis=1)
    safe = np.where(exact, 1.0, diff)
    terms = weights[None, :] / safe
    out[:] = terms / terms.sum(axis=1, keepdims=True)
    if hit_rows.any():
        out[hit_rows] = exact[hit_rows].astype(np.float64)
    return out


def lagrange_tensor(box: BoundingBox, p: int, points: np.ndarray) -> np.ndarray:
    """Tensor Lagrange basis values at ``points``; shape (n_points, (p+1)^d)."""
    n, d = points.shape
    values = None
    for axis in range(d):
        nodes = chebyshev_nodes_1d(box.lo[axis], box.hi[axis], p)
        a = _lagrange_1d(nodes, points[:, axis])
        if values is None:
            values = a
        else:
            values = (values[:, :, None] * a[:, None, :]).reshape(n, -1)
    return values


def transfer_matrix(parent: BoundingBox, son: BoundingBox, p: int) -> np.ndarray:
    """T[s, t] = (parent Lagrange polynomial s)(son interpolation point t)."""
    t = np.ones((1, 1))
    for axis in range(parent.lo.size):
        par_nodes = chebyshev_nodes_1d(parent.lo[axis], parent.hi[axis], p)
        son_nodes = chebyshev_nodes_1d(son.lo[axis], son.hi[axis], p)
        t = np.kron(t, _lagrange_1d(par_nodes, son_nodes).T)
    return t


def coupling_matrix(cfg: KernelConfig, box_a: BoundingBox, box_b: BoundingBox,
                    p: int) -> np.ndarray:
    """Kernel evaluated on the two clusters' interpolation grids."""
    return kernel_cross(cfg, chebyshev_points(box_a, p), chebyshev_points(box_b, p))


@dataclass(eq=False)
class InterpolationScheme:
    """Per-cluster Chebyshev grids and son transfer matrices for one tree."""

    tree: ClusterTree
    degree: int
    nodes: list[np.ndarray] = field(default_factory=list)
    transfers: dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def build(cls, tree: ClusterTree, p: int) -> "InterpolationScheme":
        if p < 0:
            raise InvalidInput(f"interpolation degree must be >= 0, got {p}")
        scheme = cls(tree=tree, degree=p)
        scheme.nodes = [chebyshev_points(c.bbox, p) for c in tree.clusters]
        for cluster in tree.clusters:
            if cluster.sons is not None:
                for son in cluster.sons:
                    scheme.transfers[son.index] = transfer_matrix(cluster.bbox, son.bbox, p)
        return scheme


@dataclass(eq=False)
class MultiscaleClusterBasis:
    """Samplet-transformed nested cluster bases, one whole V per cluster.

    The rows of ``v[c.index]`` are the cluster's scaling part V_phi followed
    by its samplet part V_sigma, ordered like the columns of its q_matrix.
    """

    scheme: InterpolationScheme
    v: list[np.ndarray]


def compute_multiscale_cluster_basis(basis: SampletBasis,
                                     scheme: InterpolationScheme) -> MultiscaleClusterBasis:
    """Bottom-up pass: leaves transform Lagrange evaluations, fathers transform
    the stacked, transfer-mapped scaling parts of their sons."""
    if scheme.tree is not basis.tree:
        raise InvalidInput("interpolation scheme was built for a different tree")
    tree = basis.tree
    coords = tree.permuted_coords()
    v: list[np.ndarray | None] = [None] * len(tree.clusters)

    def ascend(cluster: Cluster) -> np.ndarray:
        if cluster.is_leaf:
            v_in = lagrange_tensor(cluster.bbox, scheme.degree,
                                   coords[cluster.begin:cluster.end])
        else:
            parts = [ascend(son) @ scheme.transfers[son.index].T for son in cluster.sons]
            v_in = np.vstack(parts)
        block = basis.block(cluster)
        v[cluster.index] = block.q_matrix.T @ v_in
        return v[cluster.index][:block.n_scaling]

    ascend(tree.root)
    return MultiscaleClusterBasis(scheme=scheme, v=v)


@dataclass(frozen=True)
class AssemblyStats:
    """What one assembly did.

    ``visited_pairs`` counts the blocks computed directly: admissible pairs
    interpolated and leaf-leaf pairs evaluated exactly.  ``peak_block_bytes``
    is the largest total, at any point of the sweep, of the cached leaf-row
    blocks plus the buffered kept triplets (row, column and value arrays).
    """

    visited_pairs: int
    assembly_seconds: float
    peak_block_bytes: int


@dataclass(eq=False)
class CompressedKernelMatrix:
    """Sparse samplet-compressed kernel matrix K with its assembly parameters."""

    matrix: SparseSym
    kernel: KernelConfig
    eta: float
    p: int
    epsilon: float
    stats: AssemblyStats

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def anz(self) -> float:
        return self.matrix.nnz_full / self.matrix.n


def assemble_compressed_kernel(basis: SampletBasis, cfg: KernelConfig,
                               eta: float = 1.25, p: int = 3,
                               epsilon: float = 1e-3) -> CompressedKernelMatrix:
    """Assemble the samplet-compressed kernel matrix in a single sweep.

    One memoised block recursion ``block(nu, col)`` forms the interaction of
    two clusters in their output bases: rows are nu's scaling functions
    followed by its samplets, columns likewise for col.  An admissible pair
    is interpolated.  Otherwise rows recurse first, a leaf-leaf pair is
    exact, and a leaf row recurses over the column's sons.  Column clusters
    are swept sons-first, so a leaf row's son blocks are already cached and
    are popped exactly once.  Every inadmissible block is stored once: its
    samplet-samplet part, or the root scaling rows and columns, restricted to
    the lower triangle.  The same pass drops off-diagonal entries below
    ``epsilon``; diagonal entries are always kept.  The lower triangle is
    mirrored, so the result is exactly symmetric.
    """
    if epsilon < 0:
        raise InvalidInput(f"epsilon must be nonnegative, got {epsilon}")
    if not eta > 0:
        raise InvalidInput(f"eta must be positive, got {eta}")
    start = time.perf_counter()
    tree = basis.tree
    root = tree.root
    mbasis = compute_multiscale_cluster_basis(basis, InterpolationScheme.build(tree, p))
    nodes, v = mbasis.scheme.nodes, mbasis.v
    coords = tree.permuted_coords()

    def samplet_indices(cluster: Cluster) -> np.ndarray:
        b = basis.block(cluster)
        return np.arange(b.samplet_offset, b.samplet_offset + b.n_samplets, dtype=np.int64)

    root_indices = np.concatenate([np.arange(basis.block(root).n_scaling, dtype=np.int64),
                                   samplet_indices(root)])
    triplets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    cache: dict[tuple[int, int], np.ndarray] = {}
    visited_pairs = cache_bytes = triplet_bytes = peak_bytes = 0

    def emit(f: np.ndarray, gi: np.ndarray, gj: np.ndarray, diagonal: bool = False):
        """Buffer the kept entries of f; a diagonal block keeps its lower triangle."""
        nonlocal triplet_bytes
        if f.size == 0:
            return
        keep = np.abs(f) >= epsilon
        if diagonal:
            keep = np.tril(keep, -1) | np.eye(gi.size, dtype=bool)
        r, c = np.nonzero(keep)
        ii, jj, vv = gi[r], gj[c], f[r, c]
        triplets.append((ii, jj, vv))
        triplet_bytes += ii.nbytes + jj.nbytes + vv.nbytes

    def store(nu: Cluster, col: Cluster, f: np.ndarray):
        """Emit the stored part of F(nu, col): samplet rows and columns, plus
        the root's scaling ones.  A pair whose samplets lie above the diagonal
        is stored through its transposed pair, the upper root strip through
        the root column."""
        ns_r = basis.block(nu).n_scaling
        ns_c = basis.block(col).n_scaling
        if col is root:
            if nu is root:
                emit(f, root_indices, root_indices, diagonal=True)
            else:
                emit(f[ns_r:, :], samplet_indices(nu), root_indices)
        elif nu is not root and basis.block(nu).samplet_offset >= basis.block(col).samplet_offset:
            emit(f[ns_r:, ns_c:], samplet_indices(nu), samplet_indices(col),
                 diagonal=nu is col)

    def block(nu: Cluster, col: Cluster) -> np.ndarray:
        nonlocal visited_pairs, cache_bytes, peak_bytes
        if is_admissible(nu.bbox, col.bbox, eta):
            visited_pairs += 1
            s = kernel_cross(cfg, nodes[nu.index], nodes[col.index])
            return v[nu.index] @ s @ v[col.index].T
        f = cache.pop((nu.index, col.index), None)
        if f is not None:
            cache_bytes -= f.nbytes
            return f
        q_row = basis.block(nu).q_matrix
        q_col = basis.block(col).q_matrix
        if not nu.is_leaf:
            parts = [block(son, col)[:basis.block(son).n_scaling, :] for son in nu.sons]
            f = q_row.T @ np.vstack(parts)
        elif col.is_leaf:
            visited_pairs += 1
            k = kernel_cross(cfg, coords[nu.begin:nu.end], coords[col.begin:col.end])
            f = q_row.T @ k @ q_col
        else:
            parts = [block(nu, son)[:, :basis.block(son).n_scaling] for son in col.sons]
            f = np.hstack(parts) @ q_col
        if nu.is_leaf and col is not root:
            cache[(nu.index, col.index)] = f
            cache_bytes += f.nbytes
        store(nu, col, f)
        peak_bytes = max(peak_bytes, cache_bytes + triplet_bytes)
        return f

    def sweep(col: Cluster):
        for son in col.sons or ():
            sweep(son)
        block(root, col)

    sweep(root)
    if cache:
        # admissibility monotonicity guarantees every cached block is consumed
        raise AssertionError(f"{len(cache)} assembly blocks were never consumed")

    rows, cols, vals = (np.concatenate(parts) for parts in zip(*triplets))
    matrix = SparseSym.from_triplets(basis.size, rows, cols, vals)
    stats = AssemblyStats(visited_pairs=visited_pairs,
                          assembly_seconds=time.perf_counter() - start,
                          peak_block_bytes=int(peak_bytes))
    return CompressedKernelMatrix(matrix=matrix, kernel=cfg, eta=eta, p=p,
                                  epsilon=epsilon, stats=stats)


def dense_compressed_oracle(cfg: KernelConfig, basis: SampletBasis,
                            cap: int = 2 ** 12) -> np.ndarray:
    """Exact two-sided samplet transform of the dense kernel matrix (oracle)."""
    n = basis.size
    if n > cap:
        raise ResourceLimit(f"dense oracle capped at N <= {cap}, got {n}")
    k = dense_kernel_matrix(cfg, basis.tree.cloud, cap=cap)
    return forward_transform_matrix(basis, forward_transform_matrix(basis, k).T)


def admissible_pair_count(tree: ClusterTree, eta: float) -> int:
    """Number of cluster pairs visited by the pruned block recursion.

    Descendants of an admissible pair are never visited, which is what bounds
    the assembly cost; leaf-leaf pairs terminate the recursion.
    """
    count = 0
    stack = [(tree.root, tree.root)]
    while stack:
        a, b = stack.pop()
        count += 1
        if is_admissible(a.bbox, b.bbox, eta) or (a.is_leaf and b.is_leaf):
            continue
        for sa in (a.sons or (a,)):
            for sb in (b.sons or (b,)):
                stack.append((sa, sb))
    return count
