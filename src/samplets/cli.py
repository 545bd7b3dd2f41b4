"""Command-line front end for the transform / compression / sampling pipelines.

Subcommands: transform, compress, detect, kernel-compress, grf, info.
Each flag is declared once, in one of four shared groups: inputs (--points,
--gen, --n, --dim, --seed, --q, --q-leaf, --leaf-size; every subcommand),
data (--data and the threshold flags; transform, compress, detect), kernel
(--kernel, --eta, --p, --epsilon, --metrics; kernel-compress, grf) and
--format (transform, compress, grf), or by the one subcommand that reads it.
Exit codes: 0 on success, 1 on numerical failure (non-positive pivot), 2 on
I/O or validation errors.  All data artifacts are deterministic given the
same inputs, flags, and seed, at any worker count; metric sidecars
additionally carry wall times and the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io as sio
from . import workers
from .basis import build_samplet_basis
from .cluster_tree import PointCloud
from .errors import InvalidInput, NonPositivePivot, ResourceLimit, allocate
from .h2 import assemble_compressed_kernel, dense_compressed_oracle
from .kernels import KernelConfig
from .sparse import (
    add_ridge,
    anz,
    check_key,
    check_ridge,
    cholesky_method,
    fill_reducing_order,
    grf_buffer,
    sample_grf,
    sparse_cholesky,
)
from .transform import (
    POINT_BASIS,
    SAMPLET_BASIS,
    CoefficientVector,
    detect_singularities,
    forward_transform,
    inverse_transform,
    reconstruction_error,
    relative_threshold,
    threshold_coefficients,
)

SCHEMA_VERSION = 1


def _json_text(payload: dict, indent: int | None = None) -> str:
    """One JSON document with sorted keys; NaN and infinities are refused."""
    try:
        return json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise InvalidInput(f"refusing to write a non-finite value: {exc}") from exc


def _write_text(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload: dict, path: str | None) -> None:
    _write_text(_json_text(payload, indent=2) + "\n", path)


def _eta_field(eta: float) -> float | str:
    """eta as a metrics value: JSON has no infinity, so eta = inf reads "inf"."""
    return eta if math.isfinite(eta) else "inf"


def _write_vector(path: str, values: np.ndarray, fmt: str) -> None:
    if fmt == "bin":
        sio.write_vector_binary(path, values)
    else:
        sio.write_vector_csv(path, values)


def generate_points(kind: str, n: int, dim: int, seed: int | None) -> PointCloud:
    """Built-in generators for benchmarks: seeded uniform cube or regular grid."""
    if n < 1 or dim < 1:
        raise InvalidInput("generator needs --n >= 1 and --dim >= 1")
    if kind == "uniform-cube":
        if seed is None:
            raise InvalidInput("--gen uniform-cube requires --seed")
        bits = np.random.Generator(np.random.Philox(key=np.array([seed, 0x5EED], dtype=np.uint64)))
        coords = allocate(np.empty, (n, dim), f"{n} points in {dim}-D")
        bits.random(out=coords)
        coords *= 2.0
        coords -= 1.0
        return PointCloud(coords)
    if kind == "grid":
        side = round(n ** (1.0 / dim))
        if side ** dim != n:
            nearest = min((s ** dim for s in (side - 1, side, side + 1) if s >= 1),
                          key=lambda count: abs(count - n))
            raise InvalidInput(f"--gen grid needs --n = side**{dim} for --dim {dim}; "
                               f"the nearest such count is {nearest}")
        coords = allocate(np.empty, (n, dim), f"{n} points in {dim}-D")
        axis = np.linspace(-1.0, 1.0, side)
        for k in range(dim):  # axis k runs over the middle index, first axis slowest
            coords.reshape(side ** k, side, -1, dim)[..., k] = axis[:, None]
        return PointCloud(coords)
    raise InvalidInput(f"unknown generator {kind!r}; use uniform-cube or grid")


def _load_points(args) -> PointCloud:
    if args.seed is not None:
        check_key(args.seed, "--seed")
    if args.gen:
        return generate_points(args.gen, args.n, args.dim, args.seed)
    if not args.points:
        raise InvalidInput("provide --points FILE or --gen KIND with --n/--dim")
    return sio.read_points(args.points)


def _build_basis(cloud: PointCloud, args):
    return build_samplet_basis(cloud, q=args.q, q_leaf=args.q_leaf,
                               leaf_size=args.leaf_size)


def _load_data(args):
    """The point cloud, the data vector and the basis of transform, compress
    and detect."""
    cloud = _load_points(args)
    data = sio.read_vector(args.data)
    return cloud, data, _build_basis(cloud, args)


def _resolve_threshold(args, coeffs: CoefficientVector) -> float:
    if args.threshold is not None and args.threshold_rel is not None:
        raise InvalidInput("use either --threshold or --threshold-rel, not both")
    if args.threshold_rel is not None:
        tau = relative_threshold(coeffs, args.threshold_rel)
    elif args.threshold is not None:
        tau = args.threshold
    else:
        return 0.0
    if not 0 <= tau < math.inf:
        raise InvalidInput(f"the threshold must be nonnegative and finite, got {tau}")
    return tau


def cmd_transform(args) -> int:
    if args.inverse and (args.threshold is not None or args.threshold_rel is not None
                         or not args.protect_scaling):
        raise InvalidInput("--inverse takes no --threshold, --threshold-rel or "
                           "--no-protect-scaling")
    cloud, data, basis = _load_data(args)
    report: dict = {"schema": SCHEMA_VERSION, "command": "transform",
                    "n": cloud.count, "dim": cloud.dim,
                    "q": basis.spec.q, "q_leaf": basis.spec.q_leaf,
                    "leaf_size": basis.tree.leaf_size,
                    "direction": "inverse" if args.inverse else "forward"}
    if args.inverse:
        vec = CoefficientVector(data, SAMPLET_BASIS)
        out = inverse_transform(basis, vec)
    else:
        vec = CoefficientVector(data, POINT_BASIS)
        out = forward_transform(basis, vec)
        tau = _resolve_threshold(args, out)
        if tau > 0.0:
            out, trep = threshold_coefficients(basis, out, tau, args.protect_scaling)
            report.update(threshold=trep.threshold, kept=trep.kept,
                          ratio=trep.compression_ratio,
                          max_abs_coefficient=trep.max_abs_coefficient)
    _write_vector(args.out, out.values, args.format)
    _json_dump(report, args.report)
    return 0


def cmd_compress(args) -> int:
    _, data, basis = _load_data(args)
    coeffs = forward_transform(basis, CoefficientVector(data, POINT_BASIS))
    tau = _resolve_threshold(args, coeffs)
    recon, rep = reconstruction_error(basis, CoefficientVector(data, POINT_BASIS), coeffs,
                                      tau, args.protect_scaling)
    if args.out:
        _write_vector(args.out, recon.values, args.format)
    line = {"threshold": rep.threshold, "kept": rep.kept,
            "ratio": rep.compression_ratio, "l2_error": rep.l2_error,
            "linf_error": rep.linf_error}
    _write_text(_json_text(line) + "\n", args.report)
    return 0


def cmd_detect(args) -> int:
    _, data, basis = _load_data(args)
    coeffs = forward_transform(basis, CoefficientVector(data, POINT_BASIS))
    tau = _resolve_threshold(args, coeffs)
    hits = detect_singularities(basis, coeffs, tau)
    tree = basis.tree
    _write_text("".join(_json_text({
        "level": hit.level,
        "is_leaf": bool(tree.is_leaf[hit.cluster]),
        "lo": tree.lo[hit.cluster].tolist(),
        "hi": tree.hi[hit.cluster].tolist(),
        "size": int(tree.size[hit.cluster]),
        "max_abs_coefficient": hit.max_abs_coefficient,
    }) + "\n" for hit in hits), args.out)
    return 0


def _compressed_kernel(args, cloud: PointCloud, cfg: KernelConfig):
    """Basis, compressed kernel matrix (plus --ridge when given) and the
    metrics that kernel-compress and grf share."""
    if args.ridge is not None:
        check_ridge(args.ridge)  # before the basis and the assembly, not after them
    basis = _build_basis(cloud, args)
    compressed = assemble_compressed_kernel(basis, cfg, eta=args.eta, p=args.p,
                                            epsilon=args.epsilon)
    matrix = compressed.matrix
    if args.ridge is not None:
        matrix = add_ridge(matrix, args.ridge)
    metrics = {
        "schema": SCHEMA_VERSION, "command": args.command,
        "N": cloud.count, "d": cloud.dim, "eta": _eta_field(args.eta), "p": args.p,
        "q": basis.spec.q, "epsilon": args.epsilon, "ridge": args.ridge,
        "assembly_seconds": compressed.stats.assembly_seconds,
        "peak_block_bytes": compressed.stats.peak_block_bytes,
        "visited_pairs": compressed.stats.visited_pairs,
        "workers": workers.count(),
    }
    return basis, matrix, metrics


def cmd_kernel_compress(args) -> int:
    cloud = _load_points(args)
    cfg = sio.read_kernel(args.kernel)
    basis, matrix, metrics = _compressed_kernel(args, cloud, cfg)
    sio.write_matrix_market(args.out, matrix)
    metrics.update(q_leaf=basis.spec.q_leaf, anz=anz(matrix), nnz=matrix.nnz_full,
                   kernel=json.loads(cfg.to_json()))
    if args.dense_oracle:
        oracle = dense_compressed_oracle(cfg, basis)
        if args.ridge is not None:
            oracle = oracle + args.ridge * np.eye(cloud.count)
        delta = matrix.to_dense() - oracle
        metrics["rel_frobenius_error"] = float(
            np.linalg.norm(delta) / np.linalg.norm(oracle))
    _json_dump(metrics, args.metrics)
    return 0


def cmd_grf(args) -> int:
    cloud = _load_points(args)
    cfg = sio.read_kernel(args.kernel)
    if args.seed is None:
        raise InvalidInput("grf requires --seed for reproducible sampling")
    grf_buffer(args.samples, cloud.count)  # refuse a bad or unallocatable count before any work
    basis, ridged, metrics = _compressed_kernel(args, cloud, cfg)
    t0 = time.perf_counter()
    perm = fill_reducing_order(ridged)
    t1 = time.perf_counter()
    factor = sparse_cholesky(ridged, perm, rho=args.ridge)
    chol_seconds = time.perf_counter() - t1
    fields = sample_grf(factor, basis, seed=args.seed, n_samples=args.samples)
    paths = []
    for s in range(args.samples):
        path = f"{args.out_prefix}_{s:03d}.{args.format}"
        _write_vector(path, fields[s], args.format)
        paths.append(path)
    if args.factor_out:
        sio.write_factor(args.factor_out, factor)
    metrics.update(seed=args.seed, samples=args.samples,
                   anz_K=anz(ridged), anz_L=anz(factor),
                   nnz_K=ridged.nnz_full, nnz_L=factor.nnz,
                   ordering_seconds=t1 - t0,
                   cholesky=cholesky_method(ridged), cholesky_seconds=chol_seconds,
                   fields=paths)
    _json_dump(metrics, args.metrics)
    return 0


def cmd_info(args) -> int:
    cloud = _load_points(args)
    basis = _build_basis(cloud, args)
    spec = basis.spec
    payload = {
        "schema": SCHEMA_VERSION, "command": "info",
        "n": cloud.count, "dim": cloud.dim,
        "tree_depth": basis.tree.depth,
        "clusters": len(basis.tree.clusters),
        "leaves": len(basis.tree.leaves),
        "leaf_size": basis.tree.leaf_size,
        "q": spec.q, "q_leaf": spec.q_leaf,
        "m_q": spec.m_q, "m_q_leaf": spec.m_q_leaf,
        "root_scaling_functions": basis.n_root_scaling,
        "samplets": cloud.count - basis.n_root_scaling,
    }
    _json_dump(payload, args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samplets",
        description="Multiresolution scattered-data analysis and kernel matrix compression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flag groups, each a parent parser of the subcommands that share it
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--points", help="point file (CSV or SMPLPTS1 binary)")
    inputs.add_argument("--gen", choices=("uniform-cube", "grid"),
                        help="generate points instead of reading a file")
    inputs.add_argument("--n", type=int, default=1024,
                        help="generated point count (side**dim for grid)")
    inputs.add_argument("--dim", type=int, default=2, help="generated dimension")
    inputs.add_argument("--seed", type=int, default=None)
    inputs.add_argument("--q", type=int, default=2, help="vanishing moments minus one")
    inputs.add_argument("--q-leaf", dest="q_leaf", type=int, default=None,
                        help="enriched polynomial degree at leaves")
    inputs.add_argument("--leaf-size", dest="leaf_size", type=int, default=None)

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="data vector file")
    data.add_argument("--threshold", type=float, default=None,
                      help="absolute coefficient threshold")
    data.add_argument("--threshold-rel", dest="threshold_rel", type=float, default=None,
                      help="exponent i for the relative threshold 1e-i * max|coeff|")
    data.add_argument("--no-protect-scaling", dest="protect_scaling",
                      action="store_false", default=True,
                      help="allow thresholding of root scaling coefficients")

    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument("--kernel", required=True, help="kernel config JSON file")
    kernel.add_argument("--eta", type=float, default=1.25)
    kernel.add_argument("--p", type=int, default=3)
    kernel.add_argument("--epsilon", type=float, default=1e-3)
    kernel.add_argument("--metrics", help="metrics JSON path (stdout if omitted)")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "bin"), default="csv")

    p_tr = sub.add_parser("transform", parents=[inputs, data, fmt],
                          help="forward or inverse samplet transform")
    p_tr.add_argument("--out", required=True, help="output vector file")
    p_tr.add_argument("--inverse", action="store_true")
    p_tr.add_argument("--report", help="metrics JSON path (stdout if omitted)")
    p_tr.set_defaults(func=cmd_transform)

    p_cp = sub.add_parser("compress", parents=[inputs, data, fmt],
                          help="threshold coefficients and report errors")
    p_cp.add_argument("--out", help="reconstruction output vector")
    p_cp.add_argument("--report", help="JSON-lines report path (stdout if omitted)")
    p_cp.set_defaults(func=cmd_compress)

    p_dt = sub.add_parser("detect", parents=[inputs, data],
                          help="list clusters with large coefficients")
    p_dt.add_argument("--out", help="JSON-lines output (stdout if omitted)")
    p_dt.set_defaults(func=cmd_detect)

    p_kc = sub.add_parser("kernel-compress", parents=[inputs, kernel],
                          help="assemble the compressed kernel matrix")
    p_kc.add_argument("--out", required=True, help="Matrix Market output path")
    p_kc.add_argument("--ridge", type=float, default=None)
    p_kc.add_argument("--dense-oracle", dest="dense_oracle", action="store_true",
                      help="also compare against the dense transform oracle")
    p_kc.set_defaults(func=cmd_kernel_compress)

    p_gr = sub.add_parser("grf", parents=[inputs, kernel, fmt],
                          help="sample Gaussian random fields")
    p_gr.add_argument("--out-prefix", dest="out_prefix", required=True)
    p_gr.add_argument("--samples", type=int, default=4)
    p_gr.add_argument("--ridge", type=float, default=1.0)
    p_gr.add_argument("--factor-out", dest="factor_out", help="save the factor (binary)")
    p_gr.set_defaults(func=cmd_grf)

    p_in = sub.add_parser("info", parents=[inputs],
                          help="report tree and basis statistics")
    p_in.add_argument("--report", help="JSON output path (stdout if omitted)")
    p_in.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NonPositivePivot as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidInput, ResourceLimit, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
