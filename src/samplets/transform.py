"""Discrete samplet transform, its inverse, thresholding and singularity detection.

Both transforms run in linear time in two stages, and the inverse mirrors the
forward pass.  Callers see data in the original point order; the tree
permutation is applied internally.

Leaves.  The basis stores the two-scale matrices of all leaves of one size as
one stack (``SampletBasis.leaf_stacks``, indexed for the transforms by
``leaf_steps``).  Per stack, the forward pass gathers
the leaves' point values through the tree permutation, multiplies them by the
transposed stack in one ``np.matmul`` and scatters the results: scaling rows
into a buffer of every cluster's scaling coefficients, samplet rows into the
output.  The inverse gathers those rows, multiplies by the stack and scatters
to the points.  A stacked ``matmul`` calls BLAS once per leaf with the
operands of a product on that leaf alone, so each leaf keeps its bits.

Interior clusters.  One step per cluster (``SampletBasis.interior_steps``),
in breadth-first order, sons before fathers for the forward pass and fathers
first for the inverse.  Brothers have consecutive indices, so their scaling
rows lie side by side in the buffer: a forward step is one slice, one product
and two slice writes.  Depth-first order was no faster: at N = 2^16 and 2^18
in 2-D, breadth-first was 0.3-4 % faster in the median of 31 interleaved
forward-plus-inverse calls (2-core x86, one BLAS thread).

The interior is not stacked.  A prototype that stacked every level was about
7x faster at N = 2^16, but its Q stacks hold about 390 B per point and fall
out of cache as N grows: its per-point cost rose 96 -> 127 -> 161 ns from
N = 2^14 to 2^16, and the linear-cost test (A4) read doubling ratios of 2.65
and 2.52.  The leaves are half of all clusters, hold 8 x (leaf size) bytes of
Q per point (128 B at 16 points per leaf), and are the only place where data
pass through the tree permutation; stacking them alone more than halves the
cost of a transform at N = 2^16 and keeps the per-point cost flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SampletBasis
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
    """Transform the columns of ``data`` (N or (N, k), original point order)."""
    out = np.empty_like(data)
    values, coeffs = (data[:, None], out[:, None]) if data.ndim == 1 else (data, out)
    scaling = np.empty((int(basis.n_scaling.sum()), values.shape[1]))
    for q, points, scaling_rows, samplet_rows in basis.leaf_steps:
        stacked = np.matmul(np.swapaxes(q, 1, 2), values[points])
        ns = scaling_rows.shape[1]
        scaling[scaling_rows] = stacked[:, :ns]
        coeffs[samplet_rows] = stacked[:, ns:]
    # ``dot`` makes the BLAS call of ``@`` with about 1 us less overhead
    for q, first, stop, own, ns, lo, hi in basis.interior_steps:
        step = q.T.dot(scaling[first:stop])
        scaling[own:own + ns] = step[:ns]
        coeffs[lo:hi] = step[ns:]
    ns = basis.n_root_scaling
    coeffs[:ns] = scaling[:ns]
    return out


def _inverse_array(basis: SampletBasis, coeffs: np.ndarray) -> np.ndarray:
    """Inverse transform of the columns of ``coeffs``; result in original point order."""
    out = np.empty_like(coeffs)
    coeffs, values = (coeffs[:, None], out[:, None]) if coeffs.ndim == 1 else (coeffs, out)
    scaling = np.empty((int(basis.n_scaling.sum()), coeffs.shape[1]))
    ns = basis.n_root_scaling
    scaling[:ns] = coeffs[:ns]
    for q, first, stop, own, ns, lo, hi in reversed(basis.interior_steps):
        np.dot(q, np.concatenate((scaling[own:own + ns], coeffs[lo:hi])), out=scaling[first:stop])
    for q, points, scaling_rows, samplet_rows in basis.leaf_steps:
        ns = scaling_rows.shape[1]
        stacked = np.empty(points.shape + coeffs.shape[1:])
        stacked[:, :ns] = scaling[scaling_rows]
        stacked[:, ns:] = coeffs[samplet_rows]
        values[points] = np.matmul(q, stacked)
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
    """A cluster, by index, owning at least one large samplet coefficient."""

    cluster: int
    level: int
    max_abs_coefficient: float


def detect_singularities(basis: SampletBasis, f_sigma: CoefficientVector,
                         tau: float) -> list[SingularityHit]:
    """Clusters with a samplet coefficient of magnitude >= tau, largest first.

    Large coefficients localize regions where the data fail to be smooth, so
    the flagged bounding boxes bracket kinks and jumps.  Equal peaks keep
    breadth-first cluster order.
    """
    if not tau >= 0:
        raise InvalidInput(f"threshold must be nonnegative, got {tau}")
    coeffs = _require(f_sigma, SAMPLET_BASIS, basis.size)
    # Clusters without samplets own empty segments, which reduceat cannot
    # express; the others' segments tile [n_root_scaling, N) in index order.
    owners = np.flatnonzero(basis.n_samplets > 0)
    if owners.size == 0:
        return []
    peaks = np.maximum.reduceat(np.abs(coeffs), basis.samplet_offset[owners])
    flagged = np.flatnonzero(peaks >= tau)
    flagged = flagged[np.argsort(-peaks[flagged], kind="stable")]
    level = basis.tree.level
    return [SingularityHit(cluster=int(owners[k]), level=int(level[owners[k]]),
                           max_abs_coefficient=float(peaks[k])) for k in flagged]


__all__ = [
    "POINT_BASIS", "SAMPLET_BASIS", "CoefficientVector", "ThresholdReport",
    "ReconstructionReport", "SingularityHit", "forward_transform",
    "inverse_transform", "forward_transform_matrix", "inverse_transform_matrix",
    "threshold_coefficients", "relative_threshold", "reconstruction_error",
    "detect_singularities",
]
