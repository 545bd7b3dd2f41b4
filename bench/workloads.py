"""The benchmark's three workloads: generated inputs, job, gates and requests.

Each workload replays the calls of one ``samplets`` subcommand on points drawn
from a keyed Philox stream, so the program sees only generated arrays.  Every
call into the library sits inside a span named ``<layer>.<call>``.

A workload object holds one point set's basis and the job's outputs:

- ``job`` runs the subcommand's call sequence once;
- ``prepare`` builds what the gates and requests compare against (untimed);
- ``gates`` checks the job's outputs at the acceptance suite's tolerances;
- ``make_request`` / ``serve`` / ``check`` are one closed-loop request: its
  input, the timed calls, and the check of its reply.

``gates`` and ``check`` return a failure message, or None when the output is
correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from samplets import (
    CoefficientVector,
    KernelConfig,
    MomentSpec,
    PointCloud,
    add_ridge,
    anz,
    assemble_compressed_kernel,
    build_cluster_tree,
    construct_basis,
    dense_compressed_oracle,
    detect_singularities,
    factorization_residual,
    fill_reducing_order,
    forward_transform,
    inverse_transform,
    relative_threshold,
    sample_grf,
    sparse_cholesky,
    threshold_coefficients,
)
from samplets import io as sio
from samplets.kernels import SCALED_EXPONENTIAL, kernel_cross
from samplets.transform import (
    POINT_BASIS,
    SAMPLET_BASIS,
    forward_transform_matrix,
    inverse_transform_matrix,
)

Q = 2
ETA = 1.25
P = 3
EPSILON = 1e-3
RIDGE = 1.0

# Tolerances pinned by the acceptance suite (tests/test_acceptance.py).
K_REL_TOL = 5e-3       # A7: relative Frobenius error of K
RESIDUAL_TOL = 1e-10   # A9: factorization residual; also each solve's residual
IDENTITY_TOL = 1e-10   # A5 error identity and A3 Parseval gap

# Philox stream keys: (seed, stream).  Points use the workload's tag; requests
# and probe vectors use disjoint stream ranges so no two inputs share bits.
REQUEST_STREAM = 1 << 32
PROBE_STREAM = 2 << 32


def philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def setup(tracer, coords: np.ndarray):
    """Cluster tree plus samplet basis, as every subcommand builds them."""
    spec = MomentSpec.default(coords.shape[1], q=Q)
    with tracer.span("cluster_tree.build"):
        tree = build_cluster_tree(PointCloud(coords), leaf_size=spec.default_leaf_size())
    with tracer.span("basis.construct"):
        return construct_basis(tree, spec)


def assemble(tracer, basis, kernel: KernelConfig, epsilon: float = EPSILON):
    with tracer.span("h2.assemble"):
        return assemble_compressed_kernel(basis, kernel, eta=ETA, p=P, epsilon=epsilon)


def dense_kernel_apply(kernel: KernelConfig, coords: np.ndarray, vectors: np.ndarray,
                       rows: int = 1024) -> np.ndarray:
    """Exact K @ vectors in row blocks, so the dense kernel is never held whole."""
    out = np.empty((coords.shape[0], vectors.shape[1]))
    for lo in range(0, coords.shape[0], rows):
        out[lo:lo + rows] = kernel_cross(kernel, coords[lo:lo + rows], coords) @ vectors
    return out


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def exceeds(name: str, value: float, tol: float) -> str | None:
    """Failure message unless value <= tol (NaN fails)."""
    return None if value <= tol else f"{name} {value:.3e} > {tol:.0e}"


class Workload:
    name: str
    full_n: int
    dim: int
    tag: int
    request_nouns: tuple[str, str]  # names the request metrics in the report
    kernel: KernelConfig | None = None
    job_is_stream = False
    point_sets = 4  # set-ups and jobs cycle over this many point sets

    def __init__(self, basis, seed: int, workdir: Path):
        self.basis = basis
        self.seed = seed
        self.n = basis.size
        self.coords = basis.tree.cloud.coords

    @classmethod
    def points(cls, seed: int, n: int, k: int = 0) -> np.ndarray:
        """Point set k of the run; k = 0 is keyed by the workload's tag alone."""
        return philox(seed, cls.tag + (k << 8)).random((n, cls.dim)) * 2.0 - 1.0

    def job(self, tracer) -> None:
        pass

    def prepare(self, tracer) -> None:
        pass

    def gates(self, tracer) -> list:
        return []

    def close(self) -> None:
        pass


class Grf2d(Workload):
    """``samplets grf``: assemble, ridge, AMD, Cholesky, 16 fields; then solves."""

    name = "grf-2d"
    full_n = 512
    dim = 2
    tag = 1
    request_nouns = ("solve", "solves")
    kernel = KernelConfig(SCALED_EXPONENTIAL, distance_scale=10.0 / math.sqrt(2))
    samples = 16

    def job(self, tracer) -> None:
        self.compressed = assemble(tracer, self.basis, self.kernel)
        with tracer.span("sparse.add_ridge"):
            self.ridged = add_ridge(self.compressed.matrix, RIDGE)
        with tracer.span("sparse.order"):
            perm = fill_reducing_order(self.ridged, method="amd")
        with tracer.span("sparse.cholesky"):
            self.factor = sparse_cholesky(self.ridged, perm, rho=RIDGE)
        with tracer.span("sparse.sample_grf"):
            self.fields = sample_grf(self.factor, self.basis, seed=self.seed,
                                     n_samples=self.samples)

    def prepare(self, tracer) -> None:
        self.a_full = self.ridged.to_scipy_full()

    def gates(self, tracer) -> list:
        return [("factorization_residual", self.gate_residual),
                ("k_rel_error", self.gate_oracle),
                ("finite_fields", self.gate_fields)]

    def gate_residual(self) -> str | None:
        return exceeds("residual", factorization_residual(self.ridged, self.factor),
                       RESIDUAL_TOL)

    def gate_oracle(self) -> str | None:
        oracle = dense_compressed_oracle(self.kernel, self.basis)
        self.k_rel_error = relative_gap(self.compressed.matrix.to_dense(), oracle)
        return exceeds("k_rel_error", self.k_rel_error, K_REL_TOL)

    def gate_fields(self) -> str | None:
        if self.fields.shape != (self.samples, self.n) or not np.isfinite(self.fields).all():
            return "GRF samples are not finite"
        return None

    def make_request(self, i: int) -> np.ndarray:
        return philox(self.seed, REQUEST_STREAM + i).standard_normal(self.n)

    def serve(self, rhs: np.ndarray, tracer) -> np.ndarray:
        with tracer.span("sparse.solve"):
            return self.factor.solve(rhs)

    def check(self, rhs: np.ndarray, x: np.ndarray) -> str | None:
        return exceeds("solve residual", relative_gap(self.a_full @ x, rhs), RESIDUAL_TOL)

    def accuracy(self) -> dict:
        return {"rel_error": (self.k_rel_error, 1),
                "stored_fraction": (self.compressed.matrix.nnz_full / self.n ** 2, 1)}

    def details(self) -> list:
        return [("anz_K", anz(self.ridged), "entries/row", "lower", 1),
                ("anz_L", anz(self.factor), "entries/row", "lower", 1),
                ("k_rel_error", self.k_rel_error, "1", "lower", 1)]

    def counts(self) -> dict:
        matrix = self.compressed.matrix
        return {"h2.visited_pairs": self.compressed.stats.visited_pairs,
                "h2.nnz_kept": matrix.nnz_lower,
                "h2.peak_block_bytes": self.compressed.stats.peak_block_bytes,
                "sparse.nnz_L": self.factor.nnz,
                "sparse.fill_ratio": self.factor.nnz / self.ridged.nnz_lower}


class Kernel3d(Workload):
    """``samplets kernel-compress``: assemble, write Matrix Market; then
    requests that apply the compressed kernel to point-basis vectors."""

    name = "kernel-3d"
    full_n = 512
    dim = 3
    tag = 2
    request_nouns = ("apply", "applies")
    kernel = KernelConfig(SCALED_EXPONENTIAL, distance_scale=10.0 / math.sqrt(3))
    probes = 64   # seeded Gaussian vectors with exact images K @ probe

    def __init__(self, basis, seed: int, workdir: Path):
        super().__init__(basis, seed, workdir)
        self.path = workdir / f"{self.name}-seed{seed}-n{self.n}.mtx"

    def job(self, tracer) -> None:
        self.compressed = assemble(tracer, self.basis, self.kernel)
        with tracer.span("io.write_matrix_market"):
            sio.write_matrix_market(self.path, self.compressed.matrix)
        self.file_bytes = self.path.stat().st_size

    def prepare(self, tracer) -> None:
        self.k_full = self.compressed.matrix.to_scipy_full()
        self.probe_vectors = philox(self.seed, PROBE_STREAM).standard_normal(
            (self.n, self.probes))
        self.exact_probes = dense_kernel_apply(self.kernel, self.coords, self.probe_vectors)

    def gates(self, tracer) -> list:
        gates = [("matrix_market_read_back", self.gate_read_back),
                 ("k_rel_error", self.gate_probes)]
        if tracer.enabled:
            gates.append(("matrix_market_library_read_back",
                          lambda: self.gate_library_read_back(tracer)))
        return gates

    def gate_read_back(self) -> str | None:
        """The written file, parsed by SciPy's reader, equals K exactly."""
        try:
            back = sp.csc_matrix(scipy.io.mmread(self.path))
        except ValueError as exc:
            return f"unreadable Matrix Market file: {exc}"
        if back.shape != self.k_full.shape or (back != self.k_full).nnz:
            return "Matrix Market read-back differs from the assembled matrix"
        return None

    def gate_library_read_back(self, tracer) -> str | None:
        with tracer.span("io.read_matrix_market"):
            back = sio.read_matrix_market(self.path)
        ref = self.compressed.matrix
        same = (np.array_equal(back.indptr, ref.indptr)
                and np.array_equal(back.indices, ref.indices)
                and np.array_equal(back.values, ref.values))
        return None if same else "read_matrix_market differs from the assembled matrix"

    def gate_probes(self) -> str | None:
        """Relative Frobenius error of K from Gaussian probes g, since
        E|A g|^2 = |A|_F^2; the samplet transform is orthogonal, so this is
        also the error of K in the samplet basis."""
        coeffs = forward_transform_matrix(self.basis, self.probe_vectors)
        approx = inverse_transform_matrix(self.basis, self.k_full @ coeffs)
        self.k_rel_error = relative_gap(approx, self.exact_probes)
        return exceeds("k_rel_error", self.k_rel_error, K_REL_TOL)

    def make_request(self, i: int):
        mix = philox(self.seed, REQUEST_STREAM + i).standard_normal(self.probes)
        scale = 1.0 / math.sqrt(self.probes)
        return self.probe_vectors @ mix * scale, self.exact_probes @ mix * scale

    def serve(self, request, tracer) -> np.ndarray:
        vector, _ = request
        with tracer.span("transform.forward"):
            coeffs = forward_transform(self.basis, CoefficientVector(vector, POINT_BASIS))
        image = self.k_full @ coeffs.values
        with tracer.span("transform.inverse"):
            return inverse_transform(self.basis, CoefficientVector(image, SAMPLET_BASIS)).values

    def check(self, request, result: np.ndarray) -> str | None:
        # One Gaussian input scatters around the Frobenius ratio that the
        # 64-probe gate holds to A7's bound, so one reply gets twice that.
        return exceeds("apply error", relative_gap(result, request[1]), 2 * K_REL_TOL)

    def accuracy(self) -> dict:
        return {"rel_error": (self.k_rel_error, self.probes),
                "stored_fraction": (self.compressed.matrix.nnz_full / self.n ** 2, 1)}

    def details(self) -> list:
        return [("anz_K", self.compressed.anz, "entries/row", "lower", 1),
                ("k_rel_error", self.k_rel_error, "1", "lower", self.probes)]

    def counts(self) -> dict:
        return {"h2.visited_pairs": self.compressed.stats.visited_pairs,
                "h2.nnz_kept": self.compressed.matrix.nnz_lower,
                "h2.peak_block_bytes": self.compressed.stats.peak_block_bytes,
                "io.matrix_market_bytes": self.file_bytes}

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


class Signals2d(Workload):
    """``samplets compress`` and ``detect`` on a closed-loop stream of signals."""

    name = "signals-2d"
    full_n = 2 ** 16
    dim = 2
    tag = 3
    request_nouns = ("signal", "signals")
    job_is_stream = True
    point_sets = 1

    def __init__(self, basis, seed: int, workdir: Path):
        super().__init__(basis, seed, workdir)
        self.rel_errors: list[float] = []
        self.kept: list[int] = []

    def make_request(self, i: int) -> np.ndarray:
        """A smooth bump plus a jump across a random line."""
        u = philox(self.seed, REQUEST_STREAM + i).random(6)
        x = self.coords
        bump = np.exp(-(4.0 + 12.0 * u[2]) * np.sum((x - (u[:2] - 0.5)) ** 2, axis=1))
        normal = np.array([math.cos(2 * math.pi * u[3]), math.sin(2 * math.pi * u[3])])
        return bump + (0.5 + u[5]) * (x @ normal > u[4] - 0.5)

    def serve(self, signal: np.ndarray, tracer):
        basis = self.basis
        with tracer.span("transform.forward"):
            coeffs = forward_transform(basis, CoefficientVector(signal, POINT_BASIS))
        with tracer.span("transform.threshold"):
            kept, report = threshold_coefficients(basis, coeffs, relative_threshold(coeffs, 3))
        with tracer.span("transform.inverse"):
            recon = inverse_transform(basis, kept)
        with tracer.span("transform.detect"):
            hits = detect_singularities(basis, coeffs, relative_threshold(coeffs, 2))
        return coeffs, kept, report, recon, hits

    def check(self, signal: np.ndarray, result) -> str | None:
        coeffs, kept, report, recon, _ = result
        l2_error = float(np.linalg.norm(recon.values - signal))
        dropped = float(np.linalg.norm(coeffs.values - kept.values))
        energy = float(np.linalg.norm(signal)) ** 2
        self.rel_errors.append(l2_error / math.sqrt(energy))
        self.kept.append(report.kept)
        identity = abs(l2_error - dropped) / max(dropped, 1.0)
        parseval = abs(float(np.linalg.norm(coeffs.values)) ** 2 - energy) / energy
        return (exceeds("error identity", identity, IDENTITY_TOL)
                or exceeds("Parseval gap", parseval, IDENTITY_TOL))

    def accuracy(self) -> dict:
        count = len(self.kept)
        return {"rel_error": (float(np.mean(self.rel_errors)), count),
                "stored_fraction": (float(np.mean(self.kept)) / self.n, count)}

    def details(self) -> list:
        return [("compression_ratio", 1.0 - float(np.mean(self.kept)) / self.n, "1", "higher",
                 len(self.kept))]

    def counts(self) -> dict:
        return {"transform.kept": float(np.mean(self.kept))}


WORKLOADS = {w.name: w for w in (Grf2d, Kernel3d, Signals2d)}
