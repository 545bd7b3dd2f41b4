"""Samplets: multiresolution analysis and kernel matrix compression on scattered data.

The pipeline: cluster the points into a balanced binary tree, build an
orthonormal multiscale basis of localized signed measures with vanishing
moments on it, transform data in linear time, compress kernel matrices into
sparse form, and factorize them for direct solves and Gaussian field sampling.
"""

from .basis import (
    MomentSpec,
    SampletBasis,
    build_samplet_basis,
    construct_basis,
    moment_dimension,
    two_scale_decomposition,
)
from .cluster_tree import ClusterTree, PointCloud, admissible, build_cluster_tree
from .errors import InvalidInput, NonPositivePivot, ResourceLimit
from .h2 import (
    CompressedKernelMatrix,
    InterpolationScheme,
    assemble_compressed_kernel,
    compute_multiscale_cluster_basis,
    dense_compressed_oracle,
)
from .kernels import KernelConfig, dense_kernel_matrix
from .sparse import (
    CholeskyFactor,
    Permutation,
    SparseSym,
    add_ridge,
    anz,
    factorization_residual,
    fill_reducing_order,
    sample_grf,
    sparse_cholesky,
)
from .transform import (
    CoefficientVector,
    detect_singularities,
    forward_transform,
    inverse_transform,
    reconstruction_error,
    relative_threshold,
    threshold_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "CholeskyFactor", "ClusterTree", "CoefficientVector",
    "CompressedKernelMatrix", "InterpolationScheme", "InvalidInput",
    "KernelConfig", "MomentSpec", "NonPositivePivot", "Permutation",
    "PointCloud", "ResourceLimit", "SampletBasis", "SparseSym", "add_ridge",
    "admissible", "anz", "assemble_compressed_kernel",
    "build_cluster_tree", "build_samplet_basis",
    "compute_multiscale_cluster_basis", "construct_basis",
    "dense_compressed_oracle", "dense_kernel_matrix", "detect_singularities",
    "factorization_residual", "fill_reducing_order", "forward_transform",
    "inverse_transform", "moment_dimension",
    "reconstruction_error", "relative_threshold", "sample_grf",
    "sparse_cholesky", "threshold_coefficients",
    "two_scale_decomposition",
]
