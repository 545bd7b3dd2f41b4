"""Balanced binary cluster trees over scattered point sets.

The tree is built by cardinality-balanced clustering: every cluster's
bounding box is split along its longest edge such that the two sons receive
ceil(n/2) and floor(n/2) points.  The tree records an in-place permutation of
the point indices, so every cluster owns a contiguous half-open index range
into that permutation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class BoundingBox:
    """Axis-parallel box [lo, hi] with lo <= hi componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InvalidInput("box corners must be 1-d vectors of equal length")
        if np.any(lo > hi):
            raise InvalidInput("box has lo > hi on some axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @cached_property
    def diameter(self) -> float:
        """Euclidean length of the box diagonal, computed on first use."""
        return float(_norms(self.hi - self.lo))


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


def cluster_diameter(box: BoundingBox) -> float:
    """Euclidean length of the box diagonal."""
    return box.diameter


def cluster_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Euclidean distance between two boxes; zero iff they intersect."""
    return float(_box_gap(a.lo, a.hi, b.lo, b.hi))


def admissible(lo_a: np.ndarray, hi_a: np.ndarray, diam_a: np.ndarray,
               lo_b: np.ndarray, hi_b: np.ndarray, diam_b: np.ndarray,
               eta: float) -> np.ndarray:
    """Cut-off criterion on arrays of box pairs, one pair per row.

    Pair k is admissible iff dist(a_k, b_k) >= eta * max(diam(a_k), diam(b_k))
    and the distance is positive.  This is the one admissibility rule:
    ``is_admissible`` is its one-pair form, and compressed assembly and
    ``admissible_pair_count`` decide far-field pairs with it.  ``eta=inf`` is
    allowed and marks every pair inadmissible, which forces exact evaluation
    everywhere downstream.
    """
    if not eta > 0:
        raise InvalidInput(f"eta must be positive, got {eta}")
    if math.isinf(eta):
        return np.zeros(np.shape(diam_a), dtype=bool)
    dist = _box_gap(lo_a, hi_a, lo_b, hi_b)
    return (dist > 0.0) & (dist >= eta * np.maximum(diam_a, diam_b))


def is_admissible(a: BoundingBox, b: BoundingBox, eta: float) -> bool:
    """The cut-off criterion of ``admissible`` for one pair of boxes."""
    return bool(admissible(a.lo, a.hi, a.diameter, b.lo, b.hi, b.diameter, eta))


@dataclass(frozen=True)
class ClusterArrays:
    """Per-cluster data of a tree as arrays indexed by breadth-first position.

    ``sons[c]`` holds the two son indices, or -1 twice for a leaf.
    """

    lo: np.ndarray
    hi: np.ndarray
    diameter: np.ndarray
    level: np.ndarray
    begin: np.ndarray
    end: np.ndarray
    sons: np.ndarray

    @property
    def is_leaf(self) -> np.ndarray:
        return self.sons[:, 0] < 0

    def admissible(self, a: np.ndarray, b: np.ndarray, eta: float) -> np.ndarray:
        """The cut-off criterion for the cluster pairs (a[k], b[k])."""
        return admissible(self.lo[a], self.hi[a], self.diameter[a],
                          self.lo[b], self.hi[b], self.diameter[b], eta)


@dataclass(eq=False)
class Cluster:
    """A node of the cluster tree owning the permutation range [begin, end)."""

    level: int
    begin: int
    end: int
    bbox: BoundingBox
    sons: tuple["Cluster", "Cluster"] | None = None
    index: int = -1  # position in breadth-first order, assigned after build

    @property
    def size(self) -> int:
        return self.end - self.begin

    @property
    def is_leaf(self) -> bool:
        return self.sons is None


@dataclass(eq=False)
class ClusterTree:
    """Balanced binary hierarchy over a point cloud.

    ``permutation[t]`` is the original index of the point at tree position t.
    ``clusters`` lists all nodes in breadth-first order (root first), so a
    cluster's ``index`` field addresses per-cluster side arrays.
    """

    cloud: PointCloud
    root: Cluster
    permutation: np.ndarray
    leaf_size: int
    depth: int = 0
    clusters: list[Cluster] = field(default_factory=list)

    def permuted_coords(self) -> np.ndarray:
        return self.cloud.coords[self.permutation]

    @property
    def leaves(self) -> list[Cluster]:
        return [c for c in self.clusters if c.is_leaf]

    @cached_property
    def arrays(self) -> ClusterArrays:
        """The clusters as arrays, built on first use."""
        clusters = self.clusters
        lo = np.array([c.bbox.lo for c in clusters])
        hi = np.array([c.bbox.hi for c in clusters])
        sons = np.array([(c.sons[0].index, c.sons[1].index) if c.sons else (-1, -1)
                         for c in clusters], dtype=np.int64)
        return ClusterArrays(
            lo=lo, hi=hi, diameter=_norms(hi - lo),
            level=np.array([c.level for c in clusters], dtype=np.int64),
            begin=np.array([c.begin for c in clusters], dtype=np.int64),
            end=np.array([c.end for c in clusters], dtype=np.int64),
            sons=sons)


def _tight_box(coords: np.ndarray) -> BoundingBox:
    return BoundingBox(coords.min(axis=0), coords.max(axis=0))


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
    """Build the balanced binary cluster tree by recursive median splits.

    The split axis is the longest bounding-box edge (lowest axis index on
    ties); recursion stops once a cluster holds at most ``leaf_size`` points.
    Within a leaf, points are ordered by original index.
    """
    if leaf_size < 1:
        raise InvalidInput(f"leaf_size must be >= 1, got {leaf_size}")
    coords = cloud.coords
    perm = np.arange(cloud.count, dtype=np.int64)

    def build(begin: int, end: int, level: int) -> Cluster:
        idx = perm[begin:end]
        pts = coords[idx]
        box = _tight_box(pts)
        n = end - begin
        if n <= leaf_size:
            perm[begin:end] = np.sort(idx)
            return Cluster(level=level, begin=begin, end=end, bbox=box)
        axis = int(np.argmax(box.hi - box.lo))
        k = (n + 1) // 2
        left_idx, right_idx = _split_indices(idx, pts[:, axis], k)
        perm[begin:begin + k] = left_idx
        perm[begin + k:end] = right_idx
        left = build(begin, begin + k, level + 1)
        right = build(begin + k, end, level + 1)
        return Cluster(level=level, begin=begin, end=end, bbox=box, sons=(left, right))

    root = build(0, cloud.count, 0)

    ordered: list[Cluster] = []
    queue = deque([root])
    depth = 0
    while queue:
        node = queue.popleft()
        node.index = len(ordered)
        ordered.append(node)
        depth = max(depth, node.level)
        if node.sons is not None:
            queue.extend(node.sons)

    return ClusterTree(cloud=cloud, root=root, permutation=perm,
                       leaf_size=leaf_size, depth=depth, clusters=ordered)
