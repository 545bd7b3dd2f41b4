import json
import math

import numpy as np
import pytest

from samplets.cluster_tree import PointCloud
from samplets.errors import InvalidInput, ResourceLimit
from samplets.kernels import (
    FAMILIES,
    SCALED_EXPONENTIAL,
    KernelConfig,
    dense_kernel_matrix,
    kernel_radial,
)


def all_configs(ell=1.0, c=1.0):
    """Every family, each with the one scale it reads."""
    return [KernelConfig(f, distance_scale=c) if f == SCALED_EXPONENTIAL
            else KernelConfig(f, length_scale=ell) for f in FAMILIES]


class TestPointwise:
    def test_self_evaluation_is_one(self):
        for cfg in all_configs(ell=0.5, c=3.0):
            assert kernel_radial(cfg, 0.0) == pytest.approx(1.0)

    def test_matern12_closed_form(self):
        cfg = KernelConfig("matern12", length_scale=1.0)
        assert kernel_radial(cfg, 1.0) == pytest.approx(math.exp(-1))

    def test_squared_exponential_closed_form(self):
        cfg = KernelConfig("squared-exponential", length_scale=1.0)
        assert kernel_radial(cfg, math.sqrt(2)) == pytest.approx(math.exp(-1))

    def test_matern32_52_closed_forms(self):
        r, ell = 0.8, 0.5
        s3 = math.sqrt(3) * r / ell
        s5 = math.sqrt(5) * r / ell
        assert kernel_radial(KernelConfig("matern32", length_scale=ell), r) == \
            pytest.approx((1 + s3) * math.exp(-s3))
        assert kernel_radial(KernelConfig("matern52", length_scale=ell), r) == \
            pytest.approx((1 + s5 + s5**2 / 3) * math.exp(-s5))

    def test_scaled_exponential(self):
        cfg = KernelConfig("scaled-exponential", distance_scale=25.0)
        assert kernel_radial(cfg, 0.1) == pytest.approx(math.exp(-2.5))

    @pytest.mark.parametrize("text", [
        '{"family": "matern12", "length_scale": 1' + "0" * 400 + "}",  # overflows a float
        '{"family": "matern12", "length_scale": 1' + "0" * 5000 + "}",  # over 4300 digits
        "[" * 100000 + "]" * 100000,  # deeper than the parser's recursion limit
    ], ids=["float-overflow", "over-4300-digits", "deep-nesting"])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(InvalidInput):
            KernelConfig.from_json(text)

    @pytest.mark.parametrize("config, key", [
        ({"family": "scaled-exponential", "length_scale": 0.1}, "length_scale"),
        ({"family": "matern32", "lengthscale": 0.1}, "lengthscale"),
        ({"family": "matern12", "length_scale": 1e-3, "distance_scale": 2}, "distance_scale"),
        ({"family": "matern52", "name": "k"}, "name"),
    ])
    def test_keys_the_family_does_not_read_rejected(self, config, key):
        with pytest.raises(InvalidInput, match=repr(key)):
            KernelConfig.from_json(json.dumps(config))

    @pytest.mark.parametrize("scale", [True, False, "0.5", " 0.5 ", None],
                             ids=["true", "false", "string", "padded-string", "null"])
    @pytest.mark.parametrize("family, key", [("matern12", "length_scale"),
                                             ("scaled-exponential", "distance_scale")])
    def test_scale_must_be_a_json_number(self, family, key, scale):
        with pytest.raises(InvalidInput, match=key):
            KernelConfig.from_json(json.dumps({"family": family, key: scale}))

    @pytest.mark.parametrize("family, scales", [
        ("matern32", {"distance_scale": 5.0}),
        ("squared-exponential", {"length_scale": 0.5, "distance_scale": 2.0}),
        ("scaled-exponential", {"length_scale": 0.1}),
    ], ids=["matern-distance-scale", "both-scales", "exponential-length-scale"])
    def test_a_scale_the_family_does_not_read_rejected(self, family, scales):
        unread = "length_scale" if family == SCALED_EXPONENTIAL else "distance_scale"
        with pytest.raises(InvalidInput, match=repr(unread)):
            KernelConfig(family, **scales)

    def test_integer_scale_accepted(self):
        assert KernelConfig.from_json('{"family": "matern12", "length_scale": 2}') == \
            KernelConfig("matern12", length_scale=2.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidInput):
            KernelConfig("cauchy")

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_scales_rejected(self, scale):
        with pytest.raises(InvalidInput):
            KernelConfig("matern12", length_scale=scale)
        with pytest.raises(InvalidInput):
            KernelConfig("scaled-exponential", distance_scale=scale)
        with pytest.raises(InvalidInput):
            KernelConfig.from_json(f'{{"family": "matern32", "length_scale": "{scale}"}}')


class TestDenseMatrix:
    def test_single_point(self):
        k = dense_kernel_matrix(KernelConfig("matern32"), PointCloud(np.array([[1.0, 2.0]])))
        np.testing.assert_allclose(k, [[1.0]])

    def test_three_collinear_matern12(self):
        cloud = PointCloud(np.array([[0.0], [1.0], [2.0]]))
        k = dense_kernel_matrix(KernelConfig("matern12", length_scale=1.0), cloud)
        e1, e2 = math.exp(-1), math.exp(-2)
        np.testing.assert_allclose(k, [[1, e1, e2], [e1, 1, e1], [e2, e1, 1]])

    def test_exact_symmetry(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(50, 3)))
        for cfg in all_configs(ell=0.7, c=4.0):
            k = dense_kernel_matrix(cfg, cloud)
            assert np.max(np.abs(k - k.T)) == 0.0

    def test_cap_enforced(self):
        cloud = PointCloud(np.zeros((10, 1)))
        with pytest.raises(ResourceLimit):
            dense_kernel_matrix(KernelConfig("matern12"), cloud, cap=5)

    def test_positive_semidefinite_spot_check(self):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.uniform(-1, 1, size=(64, 2)))
        for cfg in all_configs(ell=0.5, c=10.0):
            k = dense_kernel_matrix(cfg, cloud)
            assert np.linalg.eigvalsh(k).min() >= -1e-8


class TestRadialShape:
    def test_monotone_decay(self):
        r = np.linspace(0.0, 5.0, 200)
        for cfg in all_configs(ell=0.8, c=2.0):
            vals = kernel_radial(cfg, r)
            assert np.all(np.diff(vals) <= 1e-15)

    def test_matern52_approaches_squared_exponential_for_large_ell(self):
        # smoothness ordering: the pointwise gap at r=1 shrinks as ell grows past r;
        # expected gaps evaluated from the closed forms by hand
        expected = {1.0: 0.08253655088081313, 2.0: 0.05384776016646986,
                    4.0: 0.01827331279771116, 8.0: 0.005019259058810399}
        gaps = []
        for ell, gap in expected.items():
            m52 = kernel_radial(KernelConfig("matern52", length_scale=ell), 1.0)
            se = kernel_radial(KernelConfig("squared-exponential", length_scale=ell), 1.0)
            assert abs(se - m52 - gap) < 1e-14
            gaps.append(se - m52)
        assert gaps == sorted(gaps, reverse=True)

    def test_json_round_trip(self):
        cfg = KernelConfig("scaled-exponential", distance_scale=10 / math.sqrt(2))
        again = KernelConfig.from_json(cfg.to_json())
        assert again == cfg
        assert KernelConfig.from_json('{"family": "matern32"}') == KernelConfig("matern32")
        with pytest.raises(InvalidInput):
            KernelConfig.from_json("not json")
        with pytest.raises(InvalidInput):
            KernelConfig.from_json('{"length_scale": 1.0}')
