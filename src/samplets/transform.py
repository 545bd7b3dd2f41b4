"""Discrete samplet transform, its inverse, thresholding and singularity detection.

Both transforms run in linear time: the forward pass gathers point data at the
leaves and pushes scaling coefficients upward through the two-scale matrices;
the inverse pass reverses the recursion top-down.  Callers see data in the
original point order; the tree permutation is applied internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SampletBasis
from .cluster_tree import Cluster
from .errors import InvalidInput

POINT_BASIS = "point"
SAMPLET_BASIS = "samplet"


@dataclass(frozen=True)
class CoefficientVector:
    """An N-vector tagged with the basis its entries refer to."""

    values: np.ndarray
    basis_tag: str

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidInput("coefficient vectors are one-dimensional")
        if self.basis_tag not in (POINT_BASIS, SAMPLET_BASIS):
            raise InvalidInput(f"unknown basis tag {self.basis_tag!r}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ThresholdReport:
    threshold: float
    kept: int
    zeroed: int
    compression_ratio: float
    max_abs_coefficient: float


def _require(vec: CoefficientVector, tag: str, n: int) -> np.ndarray:
    if not isinstance(vec, CoefficientVector):
        vec = CoefficientVector(np.asarray(vec), tag)
    if vec.basis_tag != tag:
        raise InvalidInput(f"expected a {tag}-basis vector, got {vec.basis_tag}")
    if len(vec) != n:
        raise InvalidInput(f"vector length {len(vec)} does not match basis size {n}")
    return vec.values


def _forward_array(basis: SampletBasis, data: np.ndarray) -> np.ndarray:
    """Transform columns of ``data`` (already in original point order)."""
    out = np.empty_like(data)
    permuted = data[basis.tree.permutation]

    def ascend(cluster: Cluster) -> np.ndarray:
        if cluster.is_leaf:
            incoming = permuted[cluster.begin:cluster.end]
        else:
            parts = [ascend(son) for son in cluster.sons]
            incoming = np.concatenate(parts, axis=0)
        block = basis.block(cluster)
        coeffs = block.q_matrix.T @ incoming
        out[block.samplet_offset:block.samplet_offset + block.n_samplets] = \
            coeffs[block.n_scaling:]
        return coeffs[:block.n_scaling]

    out[:basis.n_root_scaling] = ascend(basis.tree.root)
    return out


def _inverse_array(basis: SampletBasis, coeffs: np.ndarray) -> np.ndarray:
    """Inverse transform for columns of ``coeffs``; result in original point order."""
    out = np.empty_like(coeffs)

    def descend(cluster: Cluster, scaling: np.ndarray):
        block = basis.block(cluster)
        outputs = np.concatenate(
            [scaling, coeffs[block.samplet_offset:block.samplet_offset + block.n_samplets]],
            axis=0,
        )
        incoming = block.q_matrix @ outputs
        if cluster.is_leaf:
            out[basis.tree.permutation[cluster.begin:cluster.end]] = incoming
            return
        pos = 0
        for son in cluster.sons:
            son_scaling = basis.block(son).n_scaling
            descend(son, incoming[pos:pos + son_scaling])
            pos += son_scaling

    descend(basis.tree.root, coeffs[:basis.n_root_scaling])
    return out


def forward_transform(basis: SampletBasis, f_delta: CoefficientVector) -> CoefficientVector:
    """Point-basis data -> samplet coefficients (root scaling block first)."""
    data = _require(f_delta, POINT_BASIS, basis.size)
    return CoefficientVector(_forward_array(basis, data), SAMPLET_BASIS)


def inverse_transform(basis: SampletBasis, f_sigma: CoefficientVector) -> CoefficientVector:
    """Samplet coefficients -> point-basis data in original point order."""
    coeffs = _require(f_sigma, SAMPLET_BASIS, basis.size)
    return CoefficientVector(_inverse_array(basis, coeffs), POINT_BASIS)


def forward_transform_matrix(basis: SampletBasis, data: np.ndarray) -> np.ndarray:
    """Forward transform applied to every column of an (N, k) array."""
    if data.shape[0] != basis.size:
        raise InvalidInput("row count does not match basis size")
    return _forward_array(basis, np.ascontiguousarray(data, dtype=np.float64))


def inverse_transform_matrix(basis: SampletBasis, coeffs: np.ndarray) -> np.ndarray:
    """Inverse transform applied to every column of an (N, k) array."""
    if coeffs.shape[0] != basis.size:
        raise InvalidInput("row count does not match basis size")
    return _inverse_array(basis, np.ascontiguousarray(coeffs, dtype=np.float64))


def threshold_coefficients(basis: SampletBasis, f_sigma: CoefficientVector,
                           tau: float, protect_scaling: bool = True
                           ) -> tuple[CoefficientVector, ThresholdReport]:
    """Zero all coefficients with magnitude below ``tau``.

    With ``protect_scaling`` (the default) the root scaling coefficients are
    never zeroed, preserving the coarse least-squares approximation.
    """
    if not tau >= 0:
        raise InvalidInput(f"threshold must be nonnegative, got {tau}")
    coeffs = _require(f_sigma, SAMPLET_BASIS, basis.size)
    keep = np.abs(coeffs) >= tau
    if protect_scaling:
        keep[:basis.n_root_scaling] = True
    result = np.where(keep, coeffs, 0.0)
    kept = int(np.count_nonzero(keep))
    n = basis.size
    report = ThresholdReport(
        threshold=float(tau),
        kept=kept,
        zeroed=n - kept,
        compression_ratio=(n - kept) / n,
        max_abs_coefficient=float(np.max(np.abs(coeffs))) if n else 0.0,
    )
    return CoefficientVector(result, SAMPLET_BASIS), report


def relative_threshold(f_sigma: CoefficientVector, exponent: float) -> float:
    """The threshold 10^(-exponent) * max|coefficient|; the exponent is finite."""
    if not math.isfinite(exponent):
        raise InvalidInput(f"relative threshold exponent must be finite, got {exponent}")
    try:
        scale = 10.0 ** (-exponent)
    except OverflowError as exc:
        raise InvalidInput(f"relative threshold exponent {exponent} is out of range") from exc
    return scale * float(np.max(np.abs(f_sigma.values)))


@dataclass(frozen=True)
class ReconstructionReport:
    threshold: float
    kept: int
    compression_ratio: float
    l2_error: float
    linf_error: float


def reconstruction_error(basis: SampletBasis, f_delta: CoefficientVector,
                         tau: float, protect_scaling: bool = True
                         ) -> tuple[CoefficientVector, ReconstructionReport]:
    """Run forward -> threshold -> inverse and report the reconstruction errors.

    By orthonormality the Euclidean error equals the norm of the dropped
    coefficients exactly.
    """
    data = _require(f_delta, POINT_BASIS, basis.size)
    coeffs = forward_transform(basis, f_delta)
    kept_vec, report = threshold_coefficients(basis, coeffs, tau, protect_scaling)
    recon = inverse_transform(basis, kept_vec)
    diff = recon.values - data
    rep = ReconstructionReport(
        threshold=report.threshold,
        kept=report.kept,
        compression_ratio=report.compression_ratio,
        l2_error=float(np.linalg.norm(diff)),
        linf_error=float(np.max(np.abs(diff))) if len(diff) else 0.0,
    )
    return recon, rep


@dataclass(frozen=True)
class SingularityHit:
    """A cluster owning at least one large samplet coefficient."""

    cluster: Cluster
    level: int
    max_abs_coefficient: float


def detect_singularities(basis: SampletBasis, f_sigma: CoefficientVector,
                         tau: float) -> list[SingularityHit]:
    """Clusters with a samplet coefficient of magnitude >= tau, largest first.

    Large coefficients localize regions where the data fail to be smooth, so
    the flagged bounding boxes bracket kinks and jumps.
    """
    if not tau >= 0:
        raise InvalidInput(f"threshold must be nonnegative, got {tau}")
    coeffs = _require(f_sigma, SAMPLET_BASIS, basis.size)
    hits = []
    for cluster in basis.tree.clusters:
        block = basis.block(cluster)
        if block.n_samplets == 0:
            continue
        local = coeffs[block.samplet_offset:block.samplet_offset + block.n_samplets]
        peak = float(np.max(np.abs(local)))
        if peak >= tau:
            hits.append(SingularityHit(cluster=cluster, level=cluster.level,
                                       max_abs_coefficient=peak))
    hits.sort(key=lambda h: -h.max_abs_coefficient)
    return hits


__all__ = [
    "POINT_BASIS", "SAMPLET_BASIS", "CoefficientVector", "ThresholdReport",
    "ReconstructionReport", "SingularityHit", "forward_transform",
    "inverse_transform", "forward_transform_matrix", "inverse_transform_matrix",
    "threshold_coefficients", "relative_threshold", "reconstruction_error",
    "detect_singularities",
]
