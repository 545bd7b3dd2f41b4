#!/usr/bin/env python3
"""Data-compression demo on a 1D signal with three exponential peaks.

Transforms the signal, thresholds at 1e-i * max|coefficient| for i = 1..4,
and reports compression ratio and reconstruction errors per level.  Writes a
plot-ready table (x, signal, one reconstruction column per i) next to it.
"""

import argparse
from pathlib import Path

import numpy as np

from samplets import CoefficientVector, PointCloud, build_samplet_basis
from samplets.transform import (
    POINT_BASIS,
    forward_transform,
    reconstruction_error,
    relative_threshold,
)


def test_signal(x):
    return (1.5 * np.exp(-40 * np.abs(x - 0.25))
            + 2.0 * np.exp(-40 * np.abs(x))
            - np.exp(-40 * np.abs(x + 0.5)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8192)
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--out", default="compress_1d_demo.csv")
    args = parser.parse_args()

    x = np.linspace(-1, 1, args.n)
    f = test_signal(x)
    basis = build_samplet_basis(PointCloud(x[:, None]), q=args.q)
    fv = CoefficientVector(f, POINT_BASIS)
    coeffs = forward_transform(basis, fv)

    columns = [x, f]
    print(f"{'i':>3} {'tau':>12} {'ratio':>9} {'l2_error':>12} {'linf_error':>12}")
    for i in (1, 2, 3, 4):
        tau = relative_threshold(coeffs, i)
        recon, rep = reconstruction_error(basis, fv, coeffs, tau)
        columns.append(recon.values)
        print(f"{i:>3} {tau:>12.4e} {rep.compression_ratio:>9.4f} "
              f"{rep.l2_error:>12.4e} {rep.linf_error:>12.4e}")

    table = np.column_stack(columns)
    header = "x,signal," + ",".join(f"recon_1e-{i}" for i in (1, 2, 3, 4))
    np.savetxt(args.out, table, delimiter=",", header=header, comments="")
    print(f"wrote {Path(args.out).resolve()}")


if __name__ == "__main__":
    main()
