"""Balanced binary cluster trees over scattered point sets.

The tree is built by cardinality-balanced clustering: every cluster's
bounding box is split along its longest edge such that the two sons receive
ceil(n/2) and floor(n/2) points.  The tree records an in-place permutation of
the point indices, so every cluster owns a contiguous half-open index range
into that permutation.  A tree is a set of arrays indexed by cluster, in
breadth-first order with the root at index 0.  It is built one level at a
time: every level is a few NumPy passes over the points of its clusters.
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
    gives the same bits as ``math.sqrt(v @ v)`` for that row alone.  A norm
    beyond about 1.3e154 overflows to inf, silently; kernel compression
    refuses a tree whose diameter is inf.
    """
    with np.errstate(over="ignore"):
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
    compressed assembly decides far-field pairs with it.  ``eta=inf`` is
    allowed and marks every pair inadmissible, which forces exact evaluation
    everywhere downstream.
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
    def position(self) -> np.ndarray:
        """``position[i]`` is the tree position of original point i."""
        position = np.empty_like(self.permutation)
        position[self.permutation] = np.arange(self.permutation.size)
        return position

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


def build_cluster_tree(cloud: PointCloud, leaf_size: int = DEFAULT_LEAF_SIZE) -> ClusterTree:
    """Build the balanced binary cluster tree by median splits, one level at a time.

    A cluster's box is the tight box of its points.  A cluster holding at
    most ``leaf_size`` points is a leaf.  Any other cluster is split along
    its longest box edge (lowest axis index on ties): the left son gets the
    ceil(n/2) points that come first by (coordinate, original index), so
    duplicated coordinates split deterministically.  Within a leaf, points
    are ordered by original index.

    Every point is ranked once per axis by (coordinate, original index).
    Each level then keeps, per axis, its clusters' points in that order, one
    cluster after another; a split keeps the order on every axis by a stable
    partition, so a level costs a few NumPy passes over its points and no
    sort.  A box corner is the first or last point of its cluster's run.
    """
    if leaf_size < 1:
        raise InvalidInput(f"leaf_size must be >= 1, got {leaf_size}")
    coords = cloud.coords
    n_points, dim = coords.shape
    axes = np.arange(dim)[:, None]
    order = np.ascontiguousarray(np.argsort(coords, axis=0, kind="stable").T)
    leaf_begin = np.empty(n_points, dtype=np.int64)  # each point's leaf's first position
    begin = np.zeros(1, dtype=np.int64)
    size = np.array([n_points], dtype=np.int64)
    levels = []  # (begin, size, lo, hi, is_leaf) of every level's clusters
    while begin.size:
        start = np.cumsum(size) - size  # each cluster's first entry in ``order``
        lo = coords[order[axes, start], axes].T
        hi = coords[order[axes, start + size - 1], axes].T
        leaf = size <= leaf_size
        levels.append((begin, size, lo, hi, leaf))
        in_leaf = np.repeat(leaf, size)
        leaf_begin[order[0, in_leaf]] = np.repeat(begin[leaf], size[leaf])
        order = order[:, ~in_leaf]
        inner = ~leaf
        begin, size = begin[inner], size[inner]
        if not begin.size:
            break
        axis = np.argmax(hi[inner] - lo[inner], axis=1)
        k = (size + 1) // 2
        start = np.cumsum(size) - size
        pos = np.arange(order.shape[1])
        start_of, k_of = np.repeat(start, size), np.repeat(k, size)
        split_order = order[np.repeat(axis, size), pos]
        left = np.zeros(n_points, dtype=bool)
        left[split_order[pos - start_of < k_of]] = True
        for run in order:  # stable partition: the left son's points first
            goes_left = left[run]
            before = np.cumsum(goes_left) - goes_left
            before -= np.repeat(before[start], size)  # left points before, in the cluster
            dest = np.where(goes_left, start_of + before, pos + k_of - before)
            run[dest] = run.copy()
        begin = np.stack([begin, begin + k], axis=1).ravel()
        size = np.stack([k, size - k], axis=1).ravel()

    begin, size, lo, hi, leaf = (np.concatenate(parts) for parts in zip(*levels))
    sons = np.full((begin.size, 2), -1, dtype=np.int64)
    sons[~leaf] = np.arange(1, begin.size).reshape(-1, 2)  # sons follow in father order
    return ClusterTree(cloud=cloud, permutation=np.argsort(leaf_begin, kind="stable"),
                       leaf_size=leaf_size, begin=begin, end=begin + size, lo=lo, hi=hi,
                       diameter=_norms(hi - lo),
                       level=np.repeat(np.arange(len(levels)),
                                       [part[0].size for part in levels]),
                       sons=sons)
