import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplets.cluster_tree import PointCloud, admissible, build_cluster_tree
from samplets.errors import InvalidInput


def box(lo, hi):
    """One box as (1, d) corner arrays and its (1,) diameter."""
    lo = np.atleast_2d(np.asarray(lo, float))
    hi = np.atleast_2d(np.asarray(hi, float))
    return lo, hi, np.linalg.norm(hi - lo, axis=1)


def diameter(lo, hi):
    """The root diameter of the tree over a box's two corners."""
    tree = build_cluster_tree(PointCloud(np.array([lo, hi], float)), leaf_size=2)
    return tree.diameter[0]


def admits(a, b, eta):
    return bool(admissible(*a, *b, eta)[0])


def separated_at(a, b, eta):
    """Whether the pair's admissibility switches off at eta (to 1e-12)."""
    return admits(a, b, eta * (1 - 1e-12)) and not admits(a, b, eta * (1 + 1e-12))


class TestBoxGeometry:
    def test_diameter_unit_cube(self):
        assert diameter([0, 0, 0], [1, 1, 1]) == pytest.approx(math.sqrt(3))

    def test_diameter_degenerate(self):
        assert diameter([2, 2], [2, 2]) == 0.0

    def test_diameter_3_4_5(self):
        assert diameter([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_distance_overlapping(self):
        # touching or overlapping boxes have distance 0: never admissible
        assert not admits(box([0, 0], [2, 2]), box([1, 1], [3, 3]), 1e-300)

    def test_distance_1d_gap(self):
        # distance 2, larger diameter 1: the admissibility edge is eta = 2
        assert separated_at(box([0], [1]), box([3], [4]), 2.0)

    def test_distance_single_axis_gap_2d(self):
        # distance 1, larger diameter sqrt(2)
        a, b = box([0, 0], [1, 1]), box([2, 0], [3, 1])
        assert separated_at(a, b, 1.0 / math.sqrt(2))

    def test_admissible_self_pair(self):
        b = box([0, 0], [1, 1])
        assert not admits(b, b, 1.0)

    def test_admissible_separated(self):
        a, b = box([0], [1]), box([3], [4])
        assert admits(a, b, 1.0)       # dist 2 >= 1 * 1
        assert not admits(a, b, 2.5)   # 2 < 2.5

    def test_admissible_eta_inf_never(self):
        a, b = box([0], [0]), box([3], [3])
        # degenerate boxes are separated, but eta=inf must force exact branches
        assert admits(a, b, 1.0)
        assert not admits(a, b, np.inf)

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    def test_distance_and_admissibility_symmetric(self, vals):
        lo = sorted(vals[:2])
        hi = sorted(vals[2:])
        a, b = box([lo[0]], [lo[1]]), box([hi[0]], [hi[1]])
        for eta in (1e-300, 0.5, 1.0, 2.0):
            assert admits(a, b, eta) == admits(b, a, eta)

    def test_rows_are_independent_pairs(self):
        a = box([[0], [0], [0]], [[1], [1], [1]])
        b = box([[3], [1], [1.5]], [[4], [2], [2.5]])
        np.testing.assert_array_equal(admissible(*a, *b, 0.5), [True, False, True])

    def test_bad_eta_rejected(self):
        a = box([0], [1])
        for eta in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidInput):
                admissible(*a, *a, eta)


class TestTreeBuild:
    def test_collinear_eight_points(self):
        cloud = PointCloud(np.arange(8.0)[:, None])
        tree = build_cluster_tree(cloud, leaf_size=2)
        assert tree.depth == 2
        assert (tree.begin[0], tree.end[0]) == (0, 8)
        leaves = tree.leaves
        assert len(leaves) == 4
        assert np.all(tree.size[leaves] == 2)
        np.testing.assert_array_equal(leaves, [3, 4, 5, 6])
        # median splits of sorted input keep the identity permutation
        assert np.array_equal(tree.permutation, np.arange(8))

    def test_single_point(self):
        tree = build_cluster_tree(PointCloud(np.array([[0.5, 0.5]])), leaf_size=4)
        assert tree.depth == 0
        assert list(tree.clusters) == [0]
        assert tree.is_leaf[0]
        assert tree.size[0] == 1
        np.testing.assert_array_equal(tree.sons, [[-1, -1]])

    def test_unit_square_corners_tie_breaks_to_axis_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tree = build_cluster_tree(PointCloud(pts), leaf_size=1)
        left, right = tree.sons[0]
        assert tree.size[left] == 2 and tree.size[right] == 2
        # axis-0 split: x=0 points left, x=1 points right
        assert set(tree.permutation[tree.begin[left]:tree.end[left]]) == {0, 2}
        assert set(tree.permutation[tree.begin[right]:tree.end[right]]) == {1, 3}

    def test_empty_cloud_rejected(self):
        with pytest.raises(InvalidInput):
            PointCloud(np.zeros((0, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            PointCloud(np.array([[0.0], [np.nan]]))

    def test_duplicate_points_still_balanced(self):
        cloud = PointCloud(np.zeros((10, 2)))
        tree = build_cluster_tree(cloud, leaf_size=3)
        for c in tree.clusters:
            if not tree.is_leaf[c]:
                l, r = tree.sons[c]
                assert tree.size[l] == math.ceil(tree.size[c] / 2)
                assert tree.size[r] == math.floor(tree.size[c] / 2)

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(257, 3))
        t1 = build_cluster_tree(PointCloud(pts), leaf_size=9)
        t2 = build_cluster_tree(PointCloud(pts.copy()), leaf_size=9)
        for name in ("permutation", "begin", "end", "lo", "hi", "diameter", "level", "sons"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 200),
    d=st.integers(1, 3),
    leaf_size=st.integers(1, 20),
    seed=st.integers(0, 2**31),
)
def test_tree_invariants(n, d, leaf_size, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(n, d))
    if n > 3:  # sprinkle duplicates to exercise tie handling
        pts[n // 2] = pts[0]
        pts[n // 3] = pts[0]
    tree = build_cluster_tree(PointCloud(pts), leaf_size=leaf_size)

    assert np.array_equal(np.sort(tree.permutation), np.arange(n))
    assert (tree.begin[0], tree.end[0]) == (0, n)
    assert tree.level[0] == 0

    for c in tree.clusters:
        span = pts[tree.permutation[tree.begin[c]:tree.end[c]]]
        # the box is the tight box of the cluster's points
        np.testing.assert_array_equal(tree.lo[c], span.min(axis=0))
        np.testing.assert_array_equal(tree.hi[c], span.max(axis=0))
        assert tree.diameter[c] == pytest.approx(np.linalg.norm(tree.hi[c] - tree.lo[c]))
        if tree.is_leaf[c]:
            assert tree.size[c] <= leaf_size
            assert np.all(np.diff(tree.permutation[tree.begin[c]:tree.end[c]]) > 0)
        else:
            l, r = tree.sons[c]
            assert c < l and r == l + 1  # sons follow their father
            assert (tree.begin[l], tree.end[r]) == (tree.begin[c], tree.end[c])
            assert tree.end[l] == tree.begin[r]
            assert tree.size[l] == math.ceil(tree.size[c] / 2)
            assert tree.size[r] == math.floor(tree.size[c] / 2)
            assert tree.level[l] == tree.level[r] == tree.level[c] + 1
    # breadth-first numbering: levels never decrease, and every cluster but
    # the root is the son of exactly one father
    assert np.all(np.diff(tree.level) >= 0)
    sons = tree.sons[~tree.is_leaf].ravel()
    np.testing.assert_array_equal(np.sort(sons), np.arange(1, len(tree.clusters)))
    np.testing.assert_array_equal(tree.leaves, np.flatnonzero(tree.sons[:, 0] < 0))
    assert np.all(tree.sons[tree.is_leaf] == -1)

    expected_depth = max(0, math.ceil(math.log2(n / leaf_size))) if n > leaf_size else 0
    assert tree.depth == expected_depth
    assert tree.depth <= math.ceil(math.log2(max(n, 2)))
