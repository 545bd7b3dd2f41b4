"""Compressed kernel matrices via interpolation-based far-field approximation.

Admissible cluster pairs (``cluster_tree.admissible``, the cut-off criterion)
are evaluated through a tensor Chebyshev interpolant of the kernel, all other
pairs exactly.  Nested cluster bases connect interpolation data across levels
through transfer matrices, so the whole samplet-compressed matrix assembles in
log-linear time.  The interpolation data are kept per axis: every cluster
stores its box's p+1 Chebyshev points on each axis, and no tensor grid is
stored.  A leaf's interpolation data are its box's tensor Lagrange basis at
its points, a son's transfer matrix is the Kronecker product over the axes of
its father's one-axis Lagrange matrices at the son's axis points, and a far
pair's kernel values on the two grids come from per-axis distances.  The
one-axis Lagrange basis is evaluated as a product of ratios of coordinate
differences, so it is exact at the nodes, and scaling the points by a power
of two (with the kernel's length) leaves every ratio, and so every transfer
matrix, V and K, unchanged bit for bit; an axis on which a box has collapsed,
so that two of its nodes coincide, is interpolated by a constant.  The
cluster bases are built bottom-up over ``SampletBasis.steps``, the one
schedule and row layout of the basis build and of the transforms, into
stacks of equal order laid out like the two-scale matrices: cluster c's V is
row ``slot[c]`` of its order's stack, as its Q is of ``SampletBasis.q``.
Scaling parts pass from sons to fathers through the step rows' scaling
region.  ``compute_multiscale_cluster_basis``
returns these V stacks, and it is the only reader of the transfer matrices:
the assembly keeps the V stacks and the axis points and releases the scheme,
with its (C, (p+1)^d, (p+1)^d) transfer stack, before it evaluates any block.

The matrix stores the samplet-samplet interactions of the inadmissible
cluster pairs, plus the root's scaling rows and columns, and of these only
the pairs whose samplets do not lie above the diagonal: the lower triangle.
Assembly first lists, as arrays, the pairs it needs: the stored ones and,
recursively, the pairs they read.  This is the part of the block-cluster tree
of an H^2-matrix (Boerm, *Efficient Numerical Methods for Non-local
Operators*, EMS 2010) that reaches the output.  A pair reads only pairs whose
level sum is one higher, so the list is evaluated from the highest level sum
down, a group of equally shaped blocks at a time with stacked matrix products,
and a level's blocks are released once the next coarser level has used them.
Each group masks only the stored part of its stored blocks and drops the
entries below the a-posteriori threshold, keeping the diagonal.  Clusters are
tree indices throughout: every step gathers from the tree's per-cluster
arrays (boxes, ranges, sons), the basis's (scaling counts, samplet offsets)
and the per-order stacks of two-scale matrices and of V, through the basis's
``order`` and ``slot``.  The two-scale matrices are read in place, from the
buffer the transforms use.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .basis import SampletBasis, _groups
from .cluster_tree import ClusterTree
from .errors import InvalidInput, ResourceLimit, allocate
from .kernels import KernelConfig, dense_kernel_matrix, kernel_radial
from .sparse import SparseSym
from .transform import forward_transform_matrix


def _chebyshev_axes(lo: np.ndarray, hi: np.ndarray, p: int) -> np.ndarray:
    """p+1 ascending Chebyshev points of the first kind on each interval
    [lo, hi] of two float64 arrays; shape lo.shape + (p+1,)."""
    k = np.arange(p + 1)
    ref = -np.cos((2 * k + 1) * np.pi / (2 * (p + 1)))
    return (lo + hi)[..., None] / 2.0 + (hi - lo)[..., None] / 2.0 * ref


def _lagrange(nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Lagrange basis values for stacks of ascending node sets.

    ``nodes`` has shape (n, m) and ``targets`` (n, t); the result has shape
    (n, t, m).  Basis function j at t is the product over k != j of the
    ratios (t - x_k) / (x_j - x_k), multiplied one ratio at a time in
    ascending k.  A ratio does not change when nodes and targets are scaled
    by a power of two, so neither does the result, for boxes of any width
    whose differences stay normal numbers.  At t = x_j every ratio is exactly
    1, and at another node one factor is exactly 0, so the nodes are
    reproduced exactly; for m = 1 the product is empty and the value 1.  A
    node set in which two nodes coincide (an axis on which the box has
    collapsed) falls back to constant interpolation: the first basis
    function is 1, the others 0.
    """
    n, m = nodes.shape
    out = np.ones((n, targets.shape[1], m))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            ratio = ((targets - nodes[:, k, None])[:, :, None]
                     / (nodes - nodes[:, k, None])[:, None, :])
            ratio[:, :, k] = 1.0  # basis function k has no factor k
            out *= ratio
    collapsed = (np.diff(nodes, axis=1) == 0).any(axis=1)
    out[collapsed] = 0.0
    out[collapsed, :, 0] = 1.0
    return out


def _lagrange_tensors(axes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Tensor Lagrange basis values of n boxes, given by their (n, d, m) axis
    points, at n point sets (n, t, d), first axis slowest; shape (n, t, m^d)."""
    n, t, d = points.shape
    values = _lagrange(axes[:, 0], points[:, :, 0])
    for k in range(1, d):
        a = _lagrange(axes[:, k], points[:, :, k])
        values = (values[:, :, :, None] * a[:, :, None, :]).reshape(n, t, -1)
    return values


@dataclass(eq=False)
class InterpolationScheme:
    """Chebyshev axis points and son transfer matrices of all clusters of one
    tree.

    ``axes[c, k]`` holds cluster c's p+1 Chebyshev points on axis k; its
    interpolation grid is their tensor product, first axis slowest, and is
    never stored.  ``transfers[c]`` maps its father's Lagrange basis to its
    grid: entry (i, j) is the father's i-th Lagrange polynomial at the son's
    j-th node.  It is the Kronecker product over the axes of the father's
    one-axis Lagrange matrices at the son's axis points.  Both are stacked
    arrays indexed by cluster, and the root's transfer entry is NaN.
    """

    tree: ClusterTree
    axes: np.ndarray
    transfers: np.ndarray

    @classmethod
    def build(cls, tree: ClusterTree, p: int) -> "InterpolationScheme":
        if p < 0:
            raise InvalidInput(f"interpolation degree must be >= 0, got {p}")
        n, d = tree.lo.shape
        m = (p + 1) ** d
        transfers = allocate(np.full, (n, m, m), "the transfer matrices", fill_value=np.nan)
        axes = _chebyshev_axes(tree.lo, tree.hi, p)
        inner = np.flatnonzero(~tree.is_leaf)
        fathers, sons = np.repeat(inner, 2), tree.sons[inner].ravel()
        # a one-leaf tree has no sons, so every size is given, none inferred
        t = np.ones((sons.size, 1, 1))
        for k in range(d):
            a = _lagrange(axes[fathers, k], axes[sons, k]).transpose(0, 2, 1)
            t = (t[:, :, None, :, None] * a[:, None, :, None, :]).reshape(
                sons.size, t.shape[1] * (p + 1), t.shape[2] * (p + 1))
        transfers[sons] = t
        return cls(tree=tree, axes=axes, transfers=transfers)


def compute_multiscale_cluster_basis(basis: SampletBasis,
                                     scheme: InterpolationScheme) -> dict[int, np.ndarray]:
    """Samplet-transformed nested cluster bases: the V stacks, by cluster order.

    A cluster's order is its number of outputs, ``SampletBasis.order``.
    Cluster c's V is ``v[basis.order[c]][basis.slot[c]]``, in the layout of
    its two-scale matrix ``basis.q[basis.order[c]][basis.slot[c]]``: the rows
    of V are c's scaling part V_phi followed by its samplet part V_sigma,
    ordered like the columns of Q.  Only this pass reads the scheme's
    transfer matrices.

    Bottom-up pass over the basis's steps (``SampletBasis.steps``), in the
    order of the forward pass, so sons come before fathers.  A leaf's V
    transforms its Lagrange evaluations, a father's its sons' scaling parts
    mapped onto its grid.  Each step reads its two-scale matrices in place
    and writes its V into the same run of the V stack of its order with one
    stacked product.  Every cluster's scaling part, mapped onto its father's
    grid, goes to the step's scaling output rows in the scaling region of
    the transforms' work buffer, where the father's input rows read it."""
    if scheme.tree is not basis.tree:
        raise InvalidInput("interpolation scheme was built for a different tree")
    tree = basis.tree
    coords = tree.permuted_coords()
    grid = scheme.transfers.shape[1]
    v = {r: np.empty((q.shape[0], r, grid)) for r, q in basis.q.items()}
    lifted = np.empty((int(basis.n_scaling.sum()), grid))  # row i is step row N + i
    for clusters, q, rows, outputs in basis.steps:
        n, ns, i = q.shape[-1], basis.n_scaling[clusters[0]], basis.slot[clusters[0]]
        if tree.is_leaf[clusters[0]]:
            v_in = _lagrange_tensors(scheme.axes[clusters], coords[rows])
        else:
            v_in = lifted[rows - basis.size]
        out = np.matmul(q.transpose(0, 2, 1), v_in, out=v[n][i:i + clusters.size])
        if clusters[0] > 0:  # the root has no father
            lifted[outputs[:, :ns] - basis.size] = np.matmul(
                out[:, :ns], scheme.transfers[clusters].transpose(0, 2, 1))
    return v


@dataclass(frozen=True)
class AssemblyStats:
    """What one assembly did.

    ``visited_pairs`` counts the distinct blocks computed directly among the
    needed pairs (those stored, and those a needed pair reads): admissible
    pairs interpolated and leaf-leaf pairs evaluated exactly.  Each is
    computed once, so the count does not depend on how the columns are
    batched.  ``peak_block_bytes`` is the largest total, at any point of the
    evaluation, of the block stacks held (the current and the previous level
    sum, plus the blocks kept for the column batches above) and the buffered
    kept triplets (row, column and value arrays).
    """

    visited_pairs: int
    assembly_seconds: float
    peak_block_bytes: int


@dataclass(eq=False)
class CompressedKernelMatrix:
    """Sparse samplet-compressed kernel matrix K with its assembly statistics."""

    matrix: SparseSym
    stats: AssemblyStats

    @property
    def anz(self) -> float:
        return self.matrix.nnz_full / self.matrix.n


# Kinds of block-list entries.  FAR pairs are interpolated, LEAF pairs are
# evaluated exactly, ROWS and COLS pairs combine the scaling parts of their
# row or column sons' blocks, and GIVEN blocks were computed in the batch of
# a son column, which this batch asked for, and are read from it.
FAR, LEAF, ROWS, COLS, GIVEN = range(5)

# Columns of a subtree with at most this many points are evaluated as one
# batch; larger subtrees are split, which bounds the blocks held at once.
_BATCH_POINTS = 1024
# Target size of the temporaries of one stacked product.
_CHUNK_BYTES = 1 << 22


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise distances of point stacks (b, n, d) and (b, m, d), summed axis
    by axis like ``scipy.spatial.distance.cdist``; shape (b, n, m)."""
    total = None
    for k in range(x.shape[2]):
        diff = x[:, :, None, k] - y[:, None, :, k]
        total = diff * diff if total is None else total + diff * diff
    return np.sqrt(total)


def _grid_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``_distances`` of the tensor grids of two stacks of axis points (b, d,
    m), bit for bit: each axis' squared differences are formed once on its
    m x m pairs and broadcast, in the grids' order; shape (b, m^d, m^d)."""
    b, d, m = x.shape
    total = None
    for k in range(d):
        diff = x[:, k, :, None] - y[:, k, None, :]
        sq = (diff * diff).reshape((b,) + (1,) * k + (m,) + (1,) * (d - 1) + (m,)
                                   + (1,) * (d - 1 - k))
        total = sq if total is None else total + sq
    return np.sqrt(total).reshape(b, m ** d, m ** d)


class _Assembly:
    """Demand-driven block-list evaluation of one compressed kernel matrix."""

    def __init__(self, basis: SampletBasis, v: dict[int, np.ndarray], axes: np.ndarray,
                 cfg: KernelConfig, eta: float, epsilon: float):
        tree = basis.tree
        self.cfg, self.eta, self.epsilon = cfg, eta, epsilon
        self.tree, self.basis, self.v, self.axes = tree, basis, v, axes
        self.n_clusters = len(tree.clusters)
        self.coords = tree.permuted_coords()
        self.grid_size = axes.shape[2] ** axes.shape[1]
        # The stored part of a block starts after the scaling rows/columns,
        # at the samplet offset; the root (index 0) stores its scaling ones too.
        self.skip = basis.n_scaling.copy()
        self.offset = basis.samplet_offset.copy()
        self.skip[0] = self.offset[0] = 0
        self.triplets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.visited_pairs = self.triplet_bytes = self.given_bytes = self.peak_bytes = 0

    def run(self, col: int, demand: np.ndarray):
        """Evaluate every needed pair whose column lies in col's subtree.

        ``demand`` holds the keys of the pairs (leaf, col) that col's father
        reads; their blocks are returned as (keys, sizes, flat values).  A
        small subtree is one batch, whose columns are the clusters whose
        position range lies inside col's.  A large one lists col's own column
        first, so that the pairs it reads in its sons' columns are known, and
        passes them down as the sons' demand before evaluating col's column.
        """
        a = self.tree
        sons = a.sons[col]
        if sons[0] < 0 or a.size[col] <= _BATCH_POINTS:
            columns = np.flatnonzero((a.begin >= a.begin[col]) & (a.end <= a.end[col]))
            return self.evaluate(self.block_list(columns, demand), None)
        levels = self.block_list(np.array([col]), demand)
        read = np.concatenate([keys[kind == GIVEN] for keys, kind, _, _ in levels])
        keys, sizes, values = (np.concatenate(part) for part in zip(
            *(self.run(son, read[read % self.n_clusters == son]) for son in sons.tolist())))
        order = np.argsort(keys)
        return self.evaluate(levels, (keys[order], (np.cumsum(sizes) - sizes)[order], values))

    def block_list(self, columns: np.ndarray, demand: np.ndarray) -> list:
        """The needed pairs of one batch, one (keys, kinds, stored, demanded)
        entry per level sum.

        Keys are nu * n_clusters + col, sorted.  A pair is needed when it is
        stored, demanded, or read by a needed pair.  The stored pairs are
        found by splitting rows from (root, col) for every batch column, down
        through the inadmissible pairs: admissibility is inherited by son
        pairs, so this walk reaches every inadmissible pair, and it computes
        no block.  A pair read in a column outside the batch is GIVEN.
        """
        a, nc = self.tree, self.n_clusters
        in_batch = np.zeros(nc, dtype=bool)
        in_batch[columns] = True
        # the root has index 0, so the key of (root, col) is col
        seeds = np.concatenate([columns, demand])
        seed_sum = a.level[seeds // nc] + a.level[seeds % nc]
        from_above = np.arange(seeds.size) >= columns.size
        levels = []
        walk = read = np.empty(0, dtype=np.int64)
        s = int(seed_sum.min())
        while walk.size or read.size or s <= seed_sum.max():
            at = seed_sum == s
            asked = seeds[at & from_above]
            walk = np.concatenate([walk, seeds[at & ~from_above]])
            keys, inverse = np.unique(np.concatenate([walk, read, asked]), return_inverse=True)
            needed = np.zeros(keys.size, dtype=bool)
            needed[inverse[walk.size:]] = True
            demanded = np.zeros(keys.size, dtype=bool)
            demanded[inverse[inverse.size - asked.size:]] = True
            nu, col = np.divmod(keys, nc)
            far = a.admissible(nu, col, self.eta)
            leaf_row = a.is_leaf[nu]
            kind = np.full(keys.size, FAR, dtype=np.int8)
            kind[~far & ~leaf_row] = ROWS
            kind[~far & leaf_row & a.is_leaf[col]] = LEAF
            kind[~far & leaf_row & ~a.is_leaf[col]] = COLS
            inside = in_batch[col]
            kind[~inside] = GIVEN
            stored = inside & ~far & (self.offset[nu] >= self.offset[col])
            needed |= stored
            split = kind == ROWS
            rows, cols = split & needed, (kind == COLS) & needed
            walk = np.concatenate([a.sons[nu[split], k] * nc + col[split] for k in (0, 1)])
            read = np.concatenate(
                [a.sons[nu[rows], k] * nc + col[rows] for k in (0, 1)]
                + [nu[cols] * nc + a.sons[col[cols], k] for k in (0, 1)])
            levels.append((keys[needed], kind[needed], stored[needed], demanded[needed]))
            s += 1
        return levels

    def evaluate(self, levels: list, given):
        """Evaluate one batch's list from the highest level sum down, each
        group straight into the level's flat buffer.

        ``given`` holds the sorted keys, flat offsets and flat values of the
        GIVEN blocks.  Returns the demanded blocks as (keys, sizes, flat
        values).
        """
        nc, order = self.n_clusters, self.basis.order
        kept = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
        kept_bytes = 0
        finer = None
        for keys, kind, stored, demanded in reversed(levels):
            nu, col = np.divmod(keys, nc)
            sizes = order[nu] * order[col]
            flat = np.empty(int(sizes.sum()))
            offsets = np.empty(keys.size, dtype=np.int64)
            start = 0
            skip_r, skip_c = self.skip[nu], self.skip[col]
            for (k, r, c, sr, sc), pos in _groups(kind, order[nu], order[col], skip_r, skip_c):
                # per pair: the block and its input, or the interpolation data
                step = max(1, _CHUNK_BYTES // (8 * (2 * r * c + self.grid_size * (r + c))))
                for lo in range(0, pos.size, step):
                    sub = pos[lo:lo + step]
                    f = flat[start:start + sub.size * r * c].reshape(sub.size, r, c)
                    self.group_blocks(f, k, keys[sub], nu[sub], col[sub], given, finer)
                    offsets[sub] = start + np.arange(sub.size) * (r * c)
                    start += f.size
                    if stored[sub].any():
                        self.emit(f[:, sr:, sc:], nu[sub], col[sub], stored[sub])
            if demanded.any():
                size = sizes[demanded]
                shift = offsets[demanded] - (np.cumsum(size) - size)
                values = flat[np.repeat(shift, size) + np.arange(size.sum())]
                kept.append((keys[demanded], size, values))
                kept_bytes += values.nbytes
            self.visited_pairs += int(np.count_nonzero((kind == FAR) | (kind == LEAF)))
            held = flat.nbytes + (finer[2].nbytes if finer else 0) + kept_bytes
            self.peak_bytes = max(self.peak_bytes,
                                  held + self.given_bytes + self.triplet_bytes)
            finer = keys, offsets, flat
        self.given_bytes += kept_bytes - (given[2].nbytes if given else 0)
        return tuple(np.concatenate(part) for part in zip(*kept))

    def group_blocks(self, out, kind, keys, nu, col, given, finer):
        """Write the (b, r, c) stack of blocks of one group of equally shaped
        pairs into ``out``.

        ``finer`` holds the keys, flat offsets and flat values of the blocks
        of the next higher level sum, which combine pairs read.
        """
        basis, v, nc, a = self.basis, self.v, self.n_clusters, self.tree
        q, slot, n_scaling = basis.q, basis.slot, basis.n_scaling
        b, r, c = out.shape
        if kind == FAR:
            s = kernel_radial(self.cfg, _grid_distances(self.axes[nu], self.axes[col]))
            np.matmul(np.matmul(v[r][slot[nu]], s), v[c][slot[col]].transpose(0, 2, 1), out=out)
        elif kind == LEAF:
            x = self.coords[a.begin[nu][:, None] + np.arange(r)]
            y = self.coords[a.begin[col][:, None] + np.arange(c)]
            k = kernel_radial(self.cfg, _distances(x, y))
            np.matmul(np.matmul(q[r][slot[nu]].transpose(0, 2, 1), k), q[c][slot[col]], out=out)
        elif kind == GIVEN:
            given_keys, given_offsets, given_values = given
            start = given_offsets[np.searchsorted(given_keys, keys)]
            np.take(given_values, start[:, None, None] + np.arange(r * c).reshape(r, c), out=out)
        elif kind == ROWS:
            # [F(s0, col)[:ns0]; F(s1, col)[:ns1]]: row i is a run of c values
            # of the finer level, so the index is a (b, r, 1) base of row
            # starts plus one shared run
            finer_keys, finer_offsets, finer_flat = finer
            s0, s1 = a.sons[nu, 0], a.sons[nu, 1]
            off0 = finer_offsets[np.searchsorted(finer_keys, s0 * nc + col)]
            off1 = finer_offsets[np.searchsorted(finer_keys, s1 * nc + col)]
            ns0 = n_scaling[s0]
            i = np.arange(r)
            base = np.where(i < ns0[:, None], off0[:, None], (off1 - ns0 * c)[:, None]) + i * c
            np.matmul(q[r][slot[nu]].transpose(0, 2, 1),
                      finer_flat[base[:, :, None] + np.arange(c)], out=out)
        else:
            # COLS: [F(nu, s0)[:, :ns0], F(nu, s1)[:, :ns1]]: column j starts
            # in one son's block and steps down its rows by that block's
            # width.  The sons in one group can differ in width, so the index
            # is a (b, 1, c) base of column starts plus the row steps, formed
            # column by column, where they run contiguously.
            finer_keys, finer_offsets, finer_flat = finer
            s0, s1 = a.sons[col, 0], a.sons[col, 1]
            off0 = finer_offsets[np.searchsorted(finer_keys, nu * nc + s0)]
            off1 = finer_offsets[np.searchsorted(finer_keys, nu * nc + s1)]
            ns0 = n_scaling[s0]
            left = np.arange(c) < ns0[:, None]
            base = np.where(left, off0[:, None], (off1 - ns0)[:, None]) + np.arange(c)
            width = np.where(left, basis.order[s0][:, None], basis.order[s1][:, None])
            index = np.empty((b, r, c), dtype=np.int64)
            np.add(np.multiply.outer(width, np.arange(r)).transpose(0, 2, 1), base[:, None, :],
                   out=index)
            np.matmul(finer_flat[index], q[c][slot[col]], out=out)

    def emit(self, f: np.ndarray, nu: np.ndarray, col: np.ndarray, stored: np.ndarray):
        """Buffer the kept entries of the stored blocks of a stack.

        ``f`` is the stored part of each block: its samplet rows and columns
        (the root's: all of them), f[skip_r:, skip_c:], with the same skips
        throughout the stack.  Entries whose size is not below epsilon are
        kept, a NaN too, so that the assembly can refuse it; a diagonal block
        (nu = col) keeps its strict lower triangle plus its whole diagonal.
        """
        which = np.flatnonzero(stored)
        part, nu, col = f[which], nu[which], col[which]
        keep = ~(np.abs(part) < self.epsilon)
        diagonal = np.flatnonzero(nu == col)
        if diagonal.size:
            m = part.shape[1]
            keep[diagonal] = (keep[diagonal] & np.tri(m, k=-1, dtype=bool)) | np.eye(m, dtype=bool)
        rows = self.offset[nu, None, None] + np.arange(part.shape[1])[:, None]
        cols = self.offset[col, None, None] + np.arange(part.shape[2])
        rows = np.broadcast_to(rows, part.shape)[keep]
        cols = np.broadcast_to(cols, part.shape)[keep]
        vals = part[keep]
        self.triplets.append((rows, cols, vals))
        self.triplet_bytes += rows.nbytes + cols.nbytes + vals.nbytes


def assemble_compressed_kernel(basis: SampletBasis, cfg: KernelConfig,
                               eta: float = 1.25, p: int = 3,
                               epsilon: float = 1e-3) -> CompressedKernelMatrix:
    """Assemble the samplet-compressed kernel matrix from its block list.

    F(nu, col) is the interaction of two clusters in their output bases: rows
    are nu's scaling functions followed by its samplets, columns likewise for
    col.  An admissible pair is interpolated as V_nu S V_col^T.  Otherwise an
    interior row combines its sons' scaling rows,
    Q_nu^T [F(s0, col)[:ns0]; F(s1, col)[:ns1]]; a leaf-leaf pair is exact,
    Q_nu^T K Q_col; and a leaf row with an interior column combines the
    column's sons' scaling columns.  An inadmissible pair is stored when its
    samplets do not lie above the diagonal (offset[nu] >= offset[col]): its
    samplet-samplet part, or the root scaling rows and columns, restricted to
    the lower triangle.  The block list holds the needed pairs: the stored
    ones, found by splitting rows from (root, col) for every column cluster,
    and every pair a needed pair reads.  Each needed pair is computed once,
    from the highest level sum down, in groups of equally shaped blocks, one
    column subtree at a time; a large subtree's column passes the pairs it
    reads in its sons' columns down to their batches.  The same pass drops
    off-diagonal entries below ``epsilon``; diagonal entries are always kept.
    A non-finite entry is never dropped: it raises ``InvalidInput``, as do
    points whose root box is too wide for its squared diameter to be finite
    and, before any block is evaluated, a kernel that is not finite at
    distance 0 or at the root's diameter.
    The lower triangle is mirrored, so the result is exactly symmetric.  The
    interpolation scheme serves only to build the V stacks and is released
    before the block evaluation, so its transfer stack adds nothing to the
    evaluation's peak memory.
    """
    if not 0 <= epsilon < math.inf:
        raise InvalidInput(f"epsilon must be nonnegative and finite, got {epsilon}")
    if not eta > 0:
        raise InvalidInput(f"eta must be positive, got {eta}")
    if not math.isfinite(basis.tree.diameter[0]):
        raise InvalidInput("the points span more than about 1e154: their squared distances "
                           "overflow")
    non_finite = f"kernel {cfg.to_json()} gives non-finite values on these points"
    with np.errstate(all="ignore"):  # at both ends of the distances K reads
        ends = kernel_radial(cfg, np.array([0.0, basis.tree.diameter[0]]))
    if not np.isfinite(ends).all():
        raise InvalidInput(non_finite)
    start = time.perf_counter()
    scheme = InterpolationScheme.build(basis.tree, p)
    assembly = _Assembly(basis, compute_multiscale_cluster_basis(basis, scheme), scheme.axes,
                         cfg, eta, epsilon)
    del scheme  # frees the transfer stack before any block is evaluated
    assembly.run(0, np.empty(0, dtype=np.int64))
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*assembly.triplets))
    if not np.isfinite(vals).all():
        raise InvalidInput(non_finite)
    matrix = SparseSym.from_triplets(basis.size, rows, cols, vals)
    stats = AssemblyStats(visited_pairs=assembly.visited_pairs,
                          assembly_seconds=time.perf_counter() - start,
                          peak_block_bytes=int(assembly.peak_bytes))
    return CompressedKernelMatrix(matrix=matrix, stats=stats)


def dense_compressed_oracle(cfg: KernelConfig, basis: SampletBasis,
                            cap: int = 2 ** 12) -> np.ndarray:
    """Exact two-sided samplet transform of the dense kernel matrix (oracle)."""
    n = basis.size
    if n > cap:
        raise ResourceLimit(f"dense oracle capped at N <= {cap}, got {n}")
    k = dense_kernel_matrix(cfg, basis.tree.cloud, cap=cap)
    return forward_transform_matrix(basis, forward_transform_matrix(basis, k).T)

