"""Positive definite radial kernels and the dense kernel-matrix oracle."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .cluster_tree import PointCloud
from .errors import InvalidInput, ResourceLimit

MATERN12 = "matern12"
MATERN32 = "matern32"
MATERN52 = "matern52"
SQUARED_EXPONENTIAL = "squared-exponential"
SCALED_EXPONENTIAL = "scaled-exponential"

FAMILIES = (MATERN12, MATERN32, MATERN52, SQUARED_EXPONENTIAL, SCALED_EXPONENTIAL)

DENSE_CAP = 2 ** 14


@dataclass(frozen=True)
class KernelConfig:
    """A radial kernel: half-integer Matern family, its smooth limit, or a plain
    exponential k(r) = exp(-c r) parameterized by the distance scale c.

    A family reads one scale, ``distance_scale`` for the scaled exponential
    and ``length_scale`` for the others; the other one must keep its default.
    """

    family: str
    length_scale: float = 1.0
    distance_scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInput(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        if not (0 < self.length_scale < np.inf and 0 < self.distance_scale < np.inf):
            raise InvalidInput("kernel scales must be positive and finite")
        key = _scale_key(self.family)
        unread = "length_scale" if key == "distance_scale" else "distance_scale"
        if getattr(self, unread) != 1.0:
            raise InvalidInput(f"kernel family {self.family!r} does not read {unread!r}, "
                               f"only {key!r}")

    @classmethod
    def from_json(cls, text: str) -> "KernelConfig":
        """Parse ``{"family": ..., <its scale key>: ...}``; the scale is
        optional and must be a JSON number, and any other key is refused."""
        # Python's JSON parser raises a bare ValueError on an integer of more
        # than 4300 digits and RecursionError on deeply nested arrays.
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InvalidInput(f"kernel config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "family" not in payload:
            raise InvalidInput('kernel config must be an object with a "family" key')
        family = cls(payload["family"]).family
        key = _scale_key(family)
        unread = sorted(payload.keys() - {"family", key})
        if unread:
            raise InvalidInput(f"kernel config key {unread[0]!r} is not read by family "
                               f"{family!r}, which reads only \"family\" and {key!r}")
        if key not in payload:
            return cls(family)
        value = payload[key]
        # a JSON number parses to exactly int or float; true is a bool, "0.5" a str
        if type(value) not in (int, float):
            raise InvalidInput(f"kernel {key} must be a JSON number, got {value!r}")
        try:
            scale = float(value)
        except OverflowError as exc:  # an integer beyond the float range
            raise InvalidInput(f"kernel {key} must be a finite number, got {value!r}") from exc
        return cls(family, **{key: scale})

    def to_json(self) -> str:
        key = _scale_key(self.family)
        return json.dumps({"family": self.family, key: getattr(self, key)}, sort_keys=True)


def _scale_key(family: str) -> str:
    """The one scale a family reads: c for the scaled exponential, the
    length scale otherwise."""
    return "distance_scale" if family == SCALED_EXPONENTIAL else "length_scale"


def kernel_radial(cfg: KernelConfig, r: np.ndarray) -> np.ndarray:
    """Evaluate the kernel on an array of nonnegative radii."""
    r = np.asarray(r, dtype=np.float64)
    ell = cfg.length_scale
    if cfg.family == MATERN12:
        return np.exp(-r / ell)
    if cfg.family == MATERN32:
        s = np.sqrt(3.0) * r / ell
        return (1.0 + s) * np.exp(-s)
    if cfg.family == MATERN52:
        s = np.sqrt(5.0) * r / ell
        return (1.0 + s + s * s / 3.0) * np.exp(-s)
    if cfg.family == SQUARED_EXPONENTIAL:
        return np.exp(-(r * r) / (2.0 * ell * ell))
    return np.exp(-cfg.distance_scale * r)  # scaled exponential


def kernel_cross(cfg: KernelConfig, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Kernel matrix between two point sets, shapes (n, d) and (m, d)."""
    return kernel_radial(cfg, cdist(xs, ys))


def dense_kernel_matrix(cfg: KernelConfig, cloud: PointCloud,
                        cap: int = DENSE_CAP) -> np.ndarray:
    """Exact dense N x N kernel matrix, guarded against oversize allocation."""
    n = cloud.count
    if n > cap:
        raise ResourceLimit(f"dense kernel matrix capped at N <= {cap}, got {n}")
    return kernel_cross(cfg, cloud.coords, cloud.coords)
