"""Balanced binary cluster trees over scattered point sets.

The tree is built by cardinality-balanced clustering: every cluster's
bounding box is split along its longest edge such that the two sons receive
ceil(n/2) and floor(n/2) points.  The tree records an in-place permutation of
the point indices, so every cluster owns a contiguous half-open index range
into that permutation.  A tree is a set of arrays indexed by cluster, in
breadth-first order with the root at index 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput

DEFAULT_LEAF_SIZE = 16


@dataclass(frozen=True)
class PointCloud:
    """An immutable set of N points in d dimensions, stored as an (N, d) array."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if coords.ndim != 2:
            raise InvalidInput(f"expected an (N, d) coordinate array, got ndim={coords.ndim}")
        if coords.shape[0] < 1 or coords.shape[1] < 1:
            raise InvalidInput(f"need at least one point and one dimension, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise InvalidInput("coordinates must be finite (no NaN/Inf)")
        object.__setattr__(self, "coords", coords)

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis.

    Each row's squared norm is one BLAS dot product, so a row of a batch
    gives the same bits as ``math.sqrt(v @ v)`` for that row alone.
    """
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


def _box_gap(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray,
             hi_b: np.ndarray) -> np.ndarray:
    """Euclidean distances between boxes given by (n, d) corner arrays."""
    return _norms(np.maximum(0.0, np.maximum(lo_a - hi_b, lo_b - hi_a)))


def admissible(lo_a: np.ndarray, hi_a: np.ndarray, diam_a: np.ndarray,
               lo_b: np.ndarray, hi_b: np.ndarray, diam_b: np.ndarray,
               eta: float) -> np.ndarray:
    """Cut-off criterion on arrays of box pairs, one pair per row.

    Pair k is admissible iff dist(a_k, b_k) >= eta * max(diam(a_k), diam(b_k))
    and the distance is positive.  This is the one admissibility rule:
    ``ClusterTree.admissible`` applies it to pairs of cluster indices, and
    compressed assembly and ``admissible_pair_count`` decide far-field pairs
    with it.  ``eta=inf`` is allowed and marks every pair inadmissible, which
    forces exact evaluation everywhere downstream.
    """
    if not eta > 0:
        raise InvalidInput(f"eta must be positive, got {eta}")
    if math.isinf(eta):
        return np.zeros(np.shape(diam_a), dtype=bool)
    dist = _box_gap(lo_a, hi_a, lo_b, hi_b)
    return (dist > 0.0) & (dist >= eta * np.maximum(diam_a, diam_b))


@dataclass(eq=False)
class ClusterTree:
    """Balanced binary hierarchy over a point cloud, one array entry per cluster.

    Clusters are numbered breadth-first, root (0) first, so every son has a
    larger index than its father and reverse index order is bottom-up.
    Each cluster c owns the tree positions [begin[c], end[c]), and
    ``permutation[t]`` is the original index of the point at tree position t.
    ``lo[c]`` and ``hi[c]`` are the corners of the tight bounding box of c's
    points, ``diameter[c]`` is its diagonal length, ``level[c]`` is c's depth
    and ``sons[c]`` holds its two son indices, or -1 twice for a leaf.
    """

    cloud: PointCloud
    permutation: np.ndarray
    leaf_size: int
    begin: np.ndarray
    end: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    diameter: np.ndarray
    level: np.ndarray
    sons: np.ndarray

    @property
    def clusters(self) -> range:
        """All cluster indices, coarse to fine."""
        return range(self.begin.size)

    @property
    def depth(self) -> int:
        return int(self.level[-1])

    @cached_property
    def size(self) -> np.ndarray:
        return self.end - self.begin

    @cached_property
    def is_leaf(self) -> np.ndarray:
        return self.sons[:, 0] < 0

    @cached_property
    def preorder(self) -> np.ndarray:
        """All cluster indices depth-first, each father before its sons' subtrees.

        Sorting by first tree position puts a subtree after the clusters left
        of it; a father shares its first position with its left son and comes
        first by level.
        """
        return np.lexsort((self.level, self.begin))

    @cached_property
    def leaves(self) -> np.ndarray:
        """Indices of the leaf clusters."""
        return np.flatnonzero(self.is_leaf)

    def permuted_coords(self) -> np.ndarray:
        return self.cloud.coords[self.permutation]

    def admissible(self, a: np.ndarray, b: np.ndarray, eta: float) -> np.ndarray:
        """The cut-off criterion for the cluster pairs (a[k], b[k])."""
        return admissible(self.lo[a], self.hi[a], self.diameter[a],
                          self.lo[b], self.hi[b], self.diameter[b], eta)


def _split_indices(idx: np.ndarray, vals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Partition ``idx`` into the k smallest by (value, original index) and the rest.

    Equal coordinate values are broken by the original point index, so the
    split is deterministic even for heavily duplicated coordinates.
    """
    part = np.argpartition(vals, k - 1)
    pivot = vals[part[k - 1]]
    less = vals < pivot
    n_less = int(np.count_nonzero(less))
    tie_pos = np.flatnonzero(vals == pivot)
    # among ties, the smallest original indices go left
    tie_order = tie_pos[np.argsort(idx[tie_pos], kind="stable")]
    take = k - n_less
    left_pos = np.concatenate([np.flatnonzero(less), tie_order[:take]])
    right_mask = np.ones(idx.size, dtype=bool)
    right_mask[left_pos] = False
    return idx[left_pos], idx[right_mask]


def build_cluster_tree(cloud: PointCloud, leaf_size: int = DEFAULT_LEAF_SIZE) -> ClusterTree:
    """Build the balanced binary cluster tree by median splits, breadth-first.

    The split axis is the longest bounding-box edge (lowest axis index on
    ties); a cluster holding at most ``leaf_size`` points is a leaf.  Within
    a leaf, points are ordered by original index.
    """
    if leaf_size < 1:
        raise InvalidInput(f"leaf_size must be >= 1, got {leaf_size}")
    coords = cloud.coords
    perm = np.arange(cloud.count, dtype=np.int64)
    begin, end, level = [0], [cloud.count], [0]
    lo, hi, sons = [], [], []
    c = 0
    while c < len(begin):  # sons are appended behind: breadth-first numbering
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
            left_idx, right_idx = _split_indices(idx, pts[:, axis], k)
            perm[b:b + k] = left_idx
            perm[b + k:e] = right_idx
            sons.append((len(begin), len(begin) + 1))
            begin += [b, b + k]
            end += [b + k, e]
            level += [level[c] + 1] * 2
        c += 1

    lo, hi = np.array(lo), np.array(hi)
    return ClusterTree(cloud=cloud, permutation=perm, leaf_size=leaf_size,
                       begin=np.array(begin, dtype=np.int64),
                       end=np.array(end, dtype=np.int64), lo=lo, hi=hi,
                       diameter=_norms(hi - lo),
                       level=np.array(level, dtype=np.int64),
                       sons=np.array(sons, dtype=np.int64))
