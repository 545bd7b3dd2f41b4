"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the timing budgets are asserted with
generous headroom over the measured costs.
"""

import math
import time

import numpy as np
import pytest

from samplets.basis import NormalizationFrame, build_samplet_basis, multi_indices
from samplets.cluster_tree import PointCloud
from samplets.h2 import assemble_compressed_kernel, dense_compressed_oracle
from samplets.kernels import KernelConfig, dense_kernel_matrix
from samplets.sparse import (
    add_ridge,
    factorization_residual,
    fill_reducing_order,
    sample_grf,
    sparse_cholesky,
)
from samplets.transform import (
    POINT_BASIS,
    CoefficientVector,
    detect_singularities,
    forward_transform,
    forward_transform_matrix,
    inverse_transform,
    inverse_transform_matrix,
    reconstruction_error,
    relative_threshold,
    threshold_coefficients,
)

from oracles import dense_basis_matrix

BENCH_KERNEL_2D = KernelConfig("scaled-exponential", distance_scale=10.0 / math.sqrt(2))


def report(tag, message):
    print(f"\n[{tag}] PASS: {message}")


def test_a1_orthonormal_basis():
    start = time.perf_counter()
    configs = []
    for i in range(20):
        d = (1, 2, 3)[i % 3]
        q = (0, 1, 2)[(i // 3) % 3]
        n = (33, 100, 257, 512)[i % 4]
        configs.append((n, d, q, i))
    worst = 0.0
    for n, d, q, seed in configs:
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.uniform(-1, 1, size=(n, d)))
        basis = build_samplet_basis(cloud, q=q)
        t = dense_basis_matrix(basis)
        worst = max(worst, float(np.max(np.abs(t @ t.T - np.eye(n)))))
        assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("A1", f"20 configs orthonormal, worst deviation {worst:.2e} "
                 f"(tol 1e-10), {elapsed:.1f}s")


def test_a2_vanishing_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    n, d = 700, 2
    cloud = PointCloud(rng.uniform(-1, 1, size=(n, d)))
    basis = build_samplet_basis(cloud, q=2)
    x = NormalizationFrame.for_cloud(cloud).normalize(cloud.coords)

    poly_q = np.zeros(n)
    for alpha in multi_indices(basis.spec.q, d):
        poly_q += rng.normal() * np.prod(x ** alpha, axis=1)
    coeffs = forward_transform(basis, CoefficientVector(poly_q, POINT_BASIS))
    rel = np.max(np.abs(coeffs.values[basis.n_root_scaling:])) / np.linalg.norm(poly_q)
    assert rel <= 1e-9

    poly_qhat = np.zeros(n)
    for alpha in multi_indices(basis.spec.q_leaf, d):
        poly_qhat += rng.normal() * np.prod(x ** alpha, axis=1)
    coeffs2 = forward_transform(basis, CoefficientVector(poly_qhat, POINT_BASIS))
    leaf_rel = 0.0
    for leaf in basis.tree.leaves:
        offset = basis.samplet_offset[leaf]
        vals = coeffs2.values[offset:offset + basis.n_samplets[leaf]]
        if vals.size:
            leaf_rel = max(leaf_rel, float(np.max(np.abs(vals))))
    leaf_rel /= np.linalg.norm(poly_qhat)
    assert leaf_rel <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("A2", f"degree-q data rel {rel:.2e}, leaf degree-q_leaf rel {leaf_rel:.2e} "
                 f"(tol 1e-9), {elapsed:.1f}s")


def test_a3_round_trip_and_parseval():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    n = 2 ** 16
    cloud = PointCloud(rng.uniform(-1, 1, size=(n, 2)))
    basis = build_samplet_basis(cloud, q=2)
    f = rng.normal(size=n)
    coeffs = forward_transform(basis, CoefficientVector(f, POINT_BASIS))
    back = inverse_transform(basis, coeffs)
    rt_err = np.max(np.abs(back.values - f)) / np.max(np.abs(f))
    assert rt_err <= 1e-12
    energy_gap = abs(np.linalg.norm(coeffs.values) ** 2 - np.linalg.norm(f) ** 2)
    assert energy_gap <= 1e-10 * np.linalg.norm(f) ** 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("A3", f"N=2^16 round trip {rt_err:.2e} (tol 1e-12), "
                 f"energy gap {energy_gap / np.linalg.norm(f)**2:.2e} (tol 1e-10), "
                 f"{elapsed:.1f}s")


def test_a4_linear_cost_transforms():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    sizes = [2 ** k for k in range(14, 21)]
    cases = []
    for n in sizes:
        cloud = PointCloud(rng.uniform(-1, 1, size=(n, 2)))
        basis = build_samplet_basis(cloud, q=2)
        f = rng.normal(size=(n, 1))
        inverse_transform_matrix(basis, forward_transform_matrix(basis, f))  # warm up
        cases.append((basis, f))
    # Round-robin rounds over all sizes, one forward+inverse per size each: a
    # burst of host load lands on every size, not on one, and each size keeps
    # its fastest round.  Every timed pass follows a pass over another size's
    # data, so all sizes start from the same cache state; repeating a small
    # size back to back would run it from cache while the large ones stream
    # their Q stacks (about 390 B per point) from memory.  At least 5 rounds,
    # then more while another round still ends within 110 s.
    times = [math.inf] * len(sizes)
    rounds = round_seconds = 0
    while rounds < 5 or time.perf_counter() - start + round_seconds < 110.0:
        round_start = time.perf_counter()
        for i, (basis, f) in enumerate(cases):
            t0 = time.perf_counter()
            inverse_transform_matrix(basis, forward_transform_matrix(basis, f))
            times[i] = min(times[i], time.perf_counter() - t0)
        round_seconds = time.perf_counter() - round_start
        rounds += 1
    del cases
    ratios = [b / a for a, b in zip(times, times[1:])]
    assert max(ratios) <= 2.5, f"doubling ratios {ratios} over {rounds} rounds"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("A4", "doubling ratios " + ", ".join(f"{r:.2f}" for r in ratios) +
                 f" (tol 2.5), {rounds} rounds, {elapsed:.0f}s")


def test_a5_data_compression():
    start = time.perf_counter()
    n = 8192
    x = np.linspace(-1, 1, n)
    f = (1.5 * np.exp(-40 * np.abs(x - 0.25))
         + 2.0 * np.exp(-40 * np.abs(x))
         - np.exp(-40 * np.abs(x + 0.5)))
    basis = build_samplet_basis(PointCloud(x[:, None]), q=2)
    fv = CoefficientVector(f, POINT_BASIS)
    coeffs = forward_transform(basis, fv)
    tau = relative_threshold(coeffs, 3)
    kept, _ = threshold_coefficients(basis, coeffs, tau)
    _, rep = reconstruction_error(basis, fv, coeffs, tau)
    assert rep.compression_ratio >= 0.95
    dropped_norm = float(np.linalg.norm(coeffs.values - kept.values))
    assert abs(rep.l2_error - dropped_norm) <= 1e-10 * max(dropped_norm, 1.0)
    assert rep.linf_error <= 1e-2 * np.max(np.abs(f))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("A5", f"ratio {rep.compression_ratio:.4f} (>= 0.95), error identity "
                 f"{abs(rep.l2_error - dropped_norm):.1e}, "
                 f"linf {rep.linf_error:.2e} <= {1e-2 * np.max(np.abs(f)):.2e}, "
                 f"{elapsed:.1f}s")


def test_a6_exact_mode_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for d, n, seed in ((1, 1024, 1), (2, 900, 2), (3, 780, 3)):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.uniform(-1, 1, size=(n, d)))
        basis = build_samplet_basis(cloud, q=1)
        cfg = KernelConfig("matern12", length_scale=1.0)
        compressed = assemble_compressed_kernel(basis, cfg, eta=np.inf, p=1,
                                                epsilon=0.0)
        oracle = dense_compressed_oracle(cfg, basis)
        worst = max(worst, float(np.max(np.abs(compressed.matrix.to_dense() - oracle))))
        assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("A6", f"exact-mode assembly equals dense oracle, worst entry gap "
                 f"{worst:.2e} (tol 1e-10), {elapsed:.0f}s")


@pytest.fixture(scope="module")
def benchmark_4096():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.uniform(-1, 1, size=(4096, 2)))
    basis = build_samplet_basis(cloud, q=2)
    compressed = assemble_compressed_kernel(basis, BENCH_KERNEL_2D, eta=1.25,
                                            p=3, epsilon=1e-3)
    return basis, compressed


def test_a7_compression_accuracy(benchmark_4096):
    start = time.perf_counter()
    basis, compressed = benchmark_4096
    oracle = dense_compressed_oracle(BENCH_KERNEL_2D, basis, cap=4096)
    err = float(np.linalg.norm(compressed.matrix.to_dense() - oracle)
                / np.linalg.norm(oracle))
    assert err <= 5e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("A7", f"N=4096 relative Frobenius error {err:.2e} (tol 5e-3), "
                 f"{elapsed:.0f}s")


def test_a8_sparsity_scaling():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    anz_by_n = {}
    normalized = []
    for k in range(10, 15):
        n = 2 ** k
        cloud = PointCloud(rng.uniform(-1, 1, size=(n, 2)))
        basis = build_samplet_basis(cloud, q=2)
        compressed = assemble_compressed_kernel(basis, BENCH_KERNEL_2D, eta=1.25,
                                                p=3, epsilon=1e-3)
        anz_by_n[n] = compressed.anz
        normalized.append(compressed.stats.visited_pairs / (n * k))
        del basis, compressed
    assert anz_by_n[2 ** 14] <= 1.25 * anz_by_n[2 ** 13]
    assert max(normalized) <= 4.0 * min(normalized)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report("A8", f"anz {anz_by_n[2**13]:.1f} -> {anz_by_n[2**14]:.1f} "
                 f"(ratio {anz_by_n[2**14] / anz_by_n[2**13]:.3f} <= 1.25), "
                 f"visited/(N log N) spread {max(normalized) / min(normalized):.2f}x "
                 f"(<= 4x), {elapsed:.0f}s")


def test_a9_cholesky_pipeline(benchmark_4096):
    start = time.perf_counter()
    _, compressed = benchmark_4096
    a = add_ridge(compressed.matrix, 1.0)
    perm = fill_reducing_order(a)
    factor = sparse_cholesky(a, perm, rho=1.0)
    residual = factorization_residual(a, factor)
    assert residual <= 1e-10
    natural_nnz = sparse_cholesky(a).nnz
    assert factor.nnz <= natural_nnz
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("A9", f"residual {residual:.2e} (tol 1e-10), nnz(L) {factor.nnz} <= "
                 f"natural {natural_nnz}, {elapsed:.0f}s")


def test_a10_grf_statistics():
    start = time.perf_counter()
    n = 256
    rho = 1.0
    cloud = PointCloud(np.linspace(-1, 1, n)[:, None])
    basis = build_samplet_basis(cloud, q=2)
    cfg = KernelConfig("matern12", length_scale=1.0)
    compressed = assemble_compressed_kernel(basis, cfg, eta=np.inf, p=1, epsilon=0.0)
    a = add_ridge(compressed.matrix, rho)
    factor = sparse_cholesky(a, fill_reducing_order(a), rho=rho)
    n_samples = 20000
    fields = sample_grf(factor, basis, seed=2026, n_samples=n_samples)
    empirical = fields.T @ fields / n_samples
    target = dense_kernel_matrix(cfg, cloud) + rho * np.eye(n)
    sigma = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2)
                    / n_samples)
    coverage = float(np.mean(np.abs(empirical - target) <= 3.0 * sigma))
    assert coverage >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("A10", f"empirical covariance coverage {coverage:.4f} "
                  f"(>= 0.99 within 3 sigma), {elapsed:.0f}s")


def test_a11_singularity_detection():
    start = time.perf_counter()
    n = 4096

    def flagged(xs):
        """Each hit's box and whether it is a leaf."""
        basis = build_samplet_basis(PointCloud(xs[:, None]), q=2)
        coeffs = forward_transform(basis, CoefficientVector(np.abs(xs), POINT_BASIS))
        tree = basis.tree
        return [(tree.lo[h.cluster], tree.hi[h.cluster], tree.is_leaf[h.cluster])
                for h in detect_singularities(basis, coeffs, relative_threshold(coeffs, 8))]

    # stated grid: the kink may align with cluster boundaries, in which case
    # every flagged box (whatever its level) still brackets the origin
    x = np.linspace(-1, 1, n)
    spacing = 2.0 / (n - 1)
    hits = flagged(x)
    assert hits
    for lo, hi, _ in hits:
        assert lo[0] <= 2 * spacing
        assert hi[0] >= -2 * spacing

    # shifted grid: the kink is interior to leaf clusters, so leaf-level hits
    # exist and all of them localize the kink
    x2 = np.linspace(-1.0137, 1.0, n)
    spacing2 = (1.0 + 1.0137) / (n - 1)
    leaf_hits = [h for h in flagged(x2) if h[2]]
    assert leaf_hits
    for lo, hi, _ in leaf_hits:
        assert lo[0] <= 2 * spacing2
        assert hi[0] >= -2 * spacing2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("A11", f"{len(hits)} flagged clusters bracket the kink on the "
                  f"aligned grid; {len(leaf_hits)} leaf hits localize it on the "
                  f"shifted grid, {elapsed:.1f}s")
