"""Discrete samplet transform, its inverse, thresholding and singularity detection.

Both transforms run in linear time; the inverse mirrors the forward pass.
Callers see data in the original point order; the tree permutation is
applied internally.

A pass walks the basis's one bottom-up schedule, ``SampletBasis.steps``,
one step per stored stack of two-scale matrices: the stacks of all leaves
of one size, then one stack per tree level and pair of son scaling counts,
finest level first; 13 steps at N = 2^16 in 2-D.  Both passes work in one
buffer, the one row layout of the steps, which the basis build and the H^2
cluster bases use too: the N coefficients, then every cluster's scaling
coefficients.  The forward pass first gathers the data into tree order in
one ``take``.  A step gathers its input rows (a leaf's points in tree
order, or a father's sons' scaling rows), multiplies them by the transposed
stack in one ``np.matmul`` and scatters the product to its clusters'
scaling and samplet rows.  The inverse runs the steps in reverse, from
those rows back to the inputs; its leaf steps write the points in tree
order, and one ``take`` through ``ClusterTree.position`` returns them to
the original order.  A stacked ``matmul`` calls BLAS once per cluster with
the operands of a product on that cluster alone, so every cluster keeps
its bits.  Steps run in row
slices of at most ``_PART_BYTES`` of gathered input, so many-column
transforms hold small temporaries.  No cluster of a step reads rows that
another cluster of the step writes, so the slices of a step with two or
more are split into contiguous runs over the worker threads
(``workers.map_parts``), the caller running one; each slice's product is
the same at any worker count, and so is every output bit.  For one column
on N = 2^16 uniform points in 2-D, the first three steps split, into 8, 8
and 2 slices; at N = 512 every step is one slice and runs on the caller.

Every pass reads all of Q once, about 390 B per point (2-D, q = 2), so no
step order keeps it in cache.  With one stack per level group,
``signals-2d`` read ``job_p90_s`` 0.16-0.20 s against 0.24-0.26 s with the
QR's 64 KiB stacks (355 steps), and ``peak_rss_mb`` 133.4-133.8 against
130.6 MB (medians of 10 runs each, 2-core x86, one BLAS thread).  The
stacks share one private mapping (``basis._private_pages``), laid out by
order: each stack is a contiguous run of its order's view
``SampletBasis.q[r]``, which the H^2 assembly reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import workers
from .basis import SampletBasis
from .errors import InvalidInput

POINT_BASIS = "point"
SAMPLET_BASIS = "samplet"

_PART_BYTES = 1 << 16  # of one slice of a step's gathered input


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


def _steps(basis: SampletBasis, k: int):
    """Yield the forward pass's steps, each as whether it is a leaf step and
    its row slices (Q, input rows, output rows) of at most ``_PART_BYTES`` of
    gathered input for k columns."""
    for clusters, q, rows, outputs in basis.steps:
        size = max(1, _PART_BYTES // max(1, rows.shape[1] * k * 8))
        leaf = basis.tree.is_leaf[clusters[0]]
        if size >= rows.shape[0]:  # three slices cost about 2 us, a step about 25
            yield leaf, [(q, rows, outputs)]
        else:
            yield leaf, [(q[lo:lo + size], rows[lo:lo + size], outputs[lo:lo + size])
                         for lo in range(0, rows.shape[0], size)]


def _each_slice(step, parts: list, array: np.ndarray) -> None:
    """step(part, array) for the slices of one step: a step of one slice on
    the caller, which spares most steps the helper's 1-2 us, and one of
    several split over the workers."""
    if len(parts) == 1:
        step(parts[0], array)
    else:
        workers.map_parts(lambda part: step(part, array), parts)


def _work(basis: SampletBasis, k: int) -> np.ndarray:
    """The buffer that ``SampletBasis.steps`` indexes, for k columns."""
    return np.empty((basis.size + int(basis.n_scaling.sum()), k))


def _forward_array(basis: SampletBasis, data: np.ndarray) -> np.ndarray:
    """Transform the columns of ``data`` (N or (N, k), original point order)."""
    values = data.reshape(data.shape[0], -1)
    out = values.take(basis.tree.permutation, axis=0)  # the data in tree order
    work = _work(basis, values.shape[1])

    def step(part, source):
        q, rows, outputs = part
        work[outputs] = np.matmul(np.swapaxes(q, 1, 2), source.take(rows, axis=0))

    for leaf, parts in _steps(basis, values.shape[1]):
        _each_slice(step, parts, out if leaf else work)
    out[...] = work[:basis.size]
    return out.reshape(data.shape)


def _inverse_array(basis: SampletBasis, coeffs: np.ndarray) -> np.ndarray:
    """Inverse transform of the columns of ``coeffs``; result in original point order."""
    values = coeffs.reshape(coeffs.shape[0], -1)
    points = np.empty_like(values)  # the result in tree order
    work = _work(basis, values.shape[1])
    work[:basis.size] = values

    def step(part, target):
        q, rows, outputs = part
        target[rows] = np.matmul(q, work.take(outputs, axis=0))

    for leaf, parts in reversed(list(_steps(basis, values.shape[1]))):
        _each_slice(step, parts, points if leaf else work)
    del work  # before the result is allocated
    return points.take(basis.tree.position, axis=0).reshape(coeffs.shape)


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
                         f_sigma: CoefficientVector, tau: float, protect_scaling: bool = True
                         ) -> tuple[CoefficientVector, ReconstructionReport]:
    """Threshold -> inverse, and report the reconstruction errors against the data.

    ``f_sigma`` is ``forward_transform(basis, f_delta)``, which callers hold
    already, having chosen ``tau`` from it.  By orthonormality the Euclidean
    error equals the norm of the dropped coefficients exactly.
    """
    data = _require(f_delta, POINT_BASIS, basis.size)
    kept_vec, report = threshold_coefficients(basis, f_sigma, tau, protect_scaling)
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
