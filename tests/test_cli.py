import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from samplets import cli, transform
from samplets import io as sio
from samplets.basis import build_samplet_basis
from samplets.cli import main
from samplets.cluster_tree import PointCloud


@pytest.fixture
def points_1d(tmp_path):
    x = np.linspace(-1, 1, 256)
    path = tmp_path / "pts.csv"
    sio.write_points_csv(path, PointCloud(x[:, None]))
    return path


@pytest.fixture
def data_1d(tmp_path, points_1d):
    x = np.linspace(-1, 1, 256)
    f = np.exp(-4 * x * x) + 0.1 * x
    path = tmp_path / "f.csv"
    sio.write_vector_csv(path, f)
    return path


@pytest.fixture
def kernel_json(tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"family": "matern12", "length_scale": 1.0}))
    return path


@pytest.fixture
def no_basis(monkeypatch):
    """Fail the test if the command builds a samplet basis."""
    def build(*args, **kwargs):
        raise AssertionError("the basis was built before the arguments were checked")

    monkeypatch.setattr(cli, "build_samplet_basis", build)


@pytest.fixture
def non_utf8_kernel(tmp_path):
    path = tmp_path / "kernel.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"family": "matern12"}).encode())
    return path


class TestTransformCommand:
    def test_round_trip_through_files(self, tmp_path, points_1d, data_1d):
        coeffs = tmp_path / "coeffs.csv"
        back = tmp_path / "back.csv"
        rep1 = tmp_path / "r1.json"
        rep2 = tmp_path / "r2.json"
        assert main(["transform", "--points", str(points_1d), "--data", str(data_1d),
                     "--out", str(coeffs), "--report", str(rep1)]) == 0
        assert main(["transform", "--points", str(points_1d), "--data", str(coeffs),
                     "--out", str(back), "--inverse", "--report", str(rep2)]) == 0
        orig = sio.read_vector(data_1d)
        recon = sio.read_vector(back)
        assert np.max(np.abs(orig - recon)) <= 1e-12 * np.max(np.abs(orig))
        assert json.loads(rep1.read_text())["direction"] == "forward"

    def test_relative_threshold_policy(self, tmp_path, points_1d, data_1d):
        coeffs = tmp_path / "c.csv"
        rep = tmp_path / "rep.json"
        assert main(["transform", "--points", str(points_1d), "--data", str(data_1d),
                     "--out", str(coeffs), "--threshold-rel", "3",
                     "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["threshold"] == pytest.approx(
            1e-3 * payload["max_abs_coefficient"])
        assert payload["kept"] < 256

    def test_missing_file_exit_code_and_message(self, tmp_path, capsys):
        rc = main(["transform", "--points", str(tmp_path / "absent.csv"),
                   "--data", str(tmp_path / "also-absent.csv"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_conflicting_threshold_flags(self, tmp_path, points_1d, data_1d):
        rc = main(["transform", "--points", str(points_1d), "--data", str(data_1d),
                   "--out", str(tmp_path / "o.csv"),
                   "--threshold", "0.1", "--threshold-rel", "2"])
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        ["--threshold-rel", "3"], ["--threshold", "-5"],
        ["--threshold", "1", "--threshold-rel", "2"], ["--no-protect-scaling"],
    ], ids=["relative", "negative", "both", "no-protect-scaling"])
    def test_inverse_refuses_threshold_flags(self, tmp_path, points_1d, data_1d, capsys,
                                             no_basis, flags):
        out = tmp_path / "o.csv"
        rc = main(["transform", "--points", str(points_1d), "--data", str(data_1d),
                   "--out", str(out), "--inverse", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--inverse" in err
        assert not out.exists()


class TestCompressCommand:
    def test_report_fields(self, tmp_path, points_1d, data_1d):
        rep = tmp_path / "report.jsonl"
        assert main(["compress", "--points", str(points_1d), "--data", str(data_1d),
                     "--threshold-rel", "2", "--report", str(rep),
                     "--out", str(tmp_path / "recon.csv")]) == 0
        line = json.loads(rep.read_text().splitlines()[0])
        assert set(line) == {"threshold", "kept", "ratio", "l2_error", "linf_error"}
        assert 0 <= line["ratio"] <= 1

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_one_forward_pass_and_the_pipeline_result(self, tmp_path, monkeypatch, points_1d,
                                                      data_1d, fmt):
        """The threshold and the errors come from one forward transform, and
        the report and output equal forward -> threshold -> inverse byte for
        byte."""
        passes = []
        forward = transform._forward_array

        def counting(basis, data):
            passes.append(data.shape)
            return forward(basis, data)

        monkeypatch.setattr(transform, "_forward_array", counting)
        rep, out = tmp_path / "report.jsonl", tmp_path / f"recon.{fmt}"
        assert main(["compress", "--points", str(points_1d), "--data", str(data_1d),
                     "--threshold-rel", "2", "--report", str(rep), "--out", str(out),
                     "--format", fmt]) == 0
        assert passes == [(256,)]

        data = sio.read_vector(data_1d)
        basis = build_samplet_basis(sio.read_points(points_1d), q=2)
        coeffs = transform.forward_transform(basis, transform.CoefficientVector(data, "point"))
        tau = transform.relative_threshold(coeffs, 2)
        kept, report = transform.threshold_coefficients(basis, coeffs, tau)
        recon = transform.inverse_transform(basis, kept).values
        want = tmp_path / f"want.{fmt}"
        (sio.write_vector_binary if fmt == "bin" else sio.write_vector_csv)(want, recon)
        assert out.read_bytes() == want.read_bytes()
        line = {"threshold": tau, "kept": report.kept, "ratio": report.compression_ratio,
                "l2_error": float(np.linalg.norm(recon - data)),
                "linf_error": float(np.max(np.abs(recon - data)))}
        assert rep.read_text() == json.dumps(line, sort_keys=True) + "\n"


class TestDetectCommand:
    def test_kink_detection_output(self, tmp_path):
        x = np.linspace(-1, 1, 512)
        pts = tmp_path / "p.csv"
        dat = tmp_path / "d.csv"
        sio.write_points_csv(pts, PointCloud(x[:, None]))
        sio.write_vector_csv(dat, np.abs(x))
        out = tmp_path / "hits.jsonl"
        assert main(["detect", "--points", str(pts), "--data", str(dat),
                     "--threshold-rel", "4", "--out", str(out)]) == 0
        hits = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert hits
        mags = [h["max_abs_coefficient"] for h in hits]
        assert mags == sorted(mags, reverse=True)
        for h in hits:
            if h["is_leaf"]:
                assert h["lo"][0] <= 0.01 and h["hi"][0] >= -0.01


    @pytest.mark.parametrize("start,rel,expected", [
        # the kink at 0 lies on a cluster boundary: only the root flags it
        (-1.0, "4", [
            {"hi": [1.0], "is_leaf": False, "level": 0, "lo": [-1.0],
             "max_abs_coefficient": 1.1867317490541798, "size": 512},
        ]),
        # the kink lies inside clusters of every level
        (-1.0137, "8", [
            {"hi": [1.0], "is_leaf": False, "level": 0, "lo": [-1.0137],
             "max_abs_coefficient": 1.229090758408475, "size": 512},
            {"hi": [0.05423091976516625], "is_leaf": False, "level": 5,
             "lo": [-0.004879647749510774], "max_abs_coefficient": 0.004952036821095186,
             "size": 16},
            {"hi": [0.117282191780822], "is_leaf": False, "level": 4,
             "lo": [-0.004879647749510774], "max_abs_coefficient": 0.004585204474221842,
             "size": 32},
            {"hi": [0.24338473581213305], "is_leaf": False, "level": 3,
             "lo": [-0.004879647749510774], "max_abs_coefficient": 0.0036843915533732933,
             "size": 64},
            {"hi": [0.49558982387475536], "is_leaf": False, "level": 2,
             "lo": [-0.004879647749510774], "max_abs_coefficient": 0.0027736877578465966,
             "size": 128},
            {"hi": [1.0], "is_leaf": False, "level": 1, "lo": [-0.004879647749510774],
             "max_abs_coefficient": 0.002023157467259785, "size": 256},
            {"hi": [0.02270528375733849], "is_leaf": True, "level": 6,
             "lo": [-0.004879647749510774], "max_abs_coefficient": 5.018540720726043e-05,
             "size": 8},
        ]),
    ], ids=["aligned", "shifted"])
    def test_golden_output(self, tmp_path, start, rel, expected):
        # the lines of the per-cluster object tree this output was read from
        x = np.linspace(start, 1, 512)
        pts = tmp_path / "p.csv"
        dat = tmp_path / "d.csv"
        sio.write_points_csv(pts, PointCloud(x[:, None]))
        sio.write_vector_csv(dat, np.abs(x))
        out = tmp_path / "hits.jsonl"
        assert main(["detect", "--points", str(pts), "--data", str(dat),
                     "--threshold-rel", rel, "--out", str(out)]) == 0
        hits = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(hits) == len(expected)
        for got, want in zip(hits, expected):
            assert got == {**want, "max_abs_coefficient": pytest.approx(
                want["max_abs_coefficient"], rel=1e-12)}


class TestKernelCompressCommand:
    def test_single_point_with_ridge(self, tmp_path, kernel_json):
        pts = tmp_path / "one.csv"
        sio.write_points_csv(pts, PointCloud(np.array([[0.25]])))
        out = tmp_path / "k.mtx"
        met = tmp_path / "m.json"
        assert main(["kernel-compress", "--points", str(pts), "--kernel",
                     str(kernel_json), "--out", str(out), "--metrics", str(met),
                     "--ridge", "0.5"]) == 0
        a = sio.read_matrix_market(out)
        np.testing.assert_allclose(a.to_dense(), [[1.5]])

    def test_dense_oracle_above_the_cap_refused_before_any_work(self, tmp_path, kernel_json,
                                                                capsys, no_basis):
        out, met = tmp_path / "k.mtx", tmp_path / "m.json"
        rc = main(["kernel-compress", "--gen", "uniform-cube", "--n", "4097", "--dim", "2",
                   "--seed", "1", "--kernel", str(kernel_json), "--out", str(out),
                   "--metrics", str(met), "--dense-oracle"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: dense kernel matrix capped at N <= 4096, got 4097\n")
        assert not out.exists() and not met.exists()

    def test_symmetric_file_holds_the_full_matrix_for_other_readers(self, tmp_path,
                                                                    kernel_json):
        out = tmp_path / "K.mtx"
        assert main(["kernel-compress", "--gen", "uniform-cube", "--n", "300", "--dim", "2",
                     "--seed", "5", "--kernel", str(kernel_json), "--out", str(out)]) == 0
        lines = out.read_bytes().splitlines()
        assert lines[0] == b"%%MatrixMarket matrix coordinate real symmetric"
        header = 1 + sum(line.startswith(b"%") for line in lines)  # and the size line
        full = sio.read_matrix_market(out)
        assert len(lines) == header + full.nnz_lower
        external = sp.csc_matrix(scipy.io.mmread(out))
        assert external.shape == (300, 300) and (external != full.to_scipy_full()).nnz == 0

    def test_metrics_and_oracle_error(self, tmp_path, kernel_json):
        out = tmp_path / "k.mtx"
        met = tmp_path / "m.json"
        assert main(["kernel-compress", "--gen", "uniform-cube", "--n", "300",
                     "--dim", "2", "--seed", "11", "--kernel", str(kernel_json),
                     "--out", str(out), "--metrics", str(met),
                     "--epsilon", "1e-3", "--dense-oracle"]) == 0
        payload = json.loads(met.read_text())
        assert payload["schema"] == 1
        assert payload["N"] == 300 and payload["d"] == 2
        assert payload["anz"] > 0 and math.isfinite(payload["assembly_seconds"])
        assert payload["rel_frobenius_error"] <= 5e-3

    def test_deterministic_artifacts(self, tmp_path, kernel_json):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"k{tag}.mtx"
            assert main(["kernel-compress", "--gen", "uniform-cube", "--n", "200",
                         "--dim", "2", "--seed", "3", "--kernel", str(kernel_json),
                         "--out", str(out), "--metrics", str(tmp_path / f"m{tag}.json"),
                         ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_non_numeric_scale_exit_code(self, tmp_path, points_1d, capsys):
        kern = tmp_path / "bad.json"
        kern.write_text(json.dumps({"family": "matern12", "length_scale": "abc"}))
        rc = main(["kernel-compress", "--points", str(points_1d), "--kernel", str(kern),
                   "--out", str(tmp_path / "k.mtx")])
        assert rc == 2
        assert "length_scale" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [True, "0.5", " 0.5 ", None],
                             ids=["bool", "string", "padded-string", "null"])
    def test_scale_not_a_json_number_exit_code(self, tmp_path, points_1d, capsys, scale):
        kern = tmp_path / "bad.json"
        kern.write_text(json.dumps({"family": "matern12", "length_scale": scale}))
        out = tmp_path / "k.mtx"
        rc = main(["kernel-compress", "--points", str(points_1d), "--kernel", str(kern),
                   "--out", str(out)])
        assert rc == 2
        assert "length_scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["1" + "0" * 400, "1" + "0" * 5000],
                             ids=["float-overflow", "over-4300-digits"])
    def test_huge_integer_scale_exit_code(self, tmp_path, points_1d, capsys, scale):
        kern = tmp_path / "huge.json"
        kern.write_text('{"family": "matern12", "length_scale": ' + scale + "}")
        rc = main(["kernel-compress", "--points", str(points_1d), "--kernel", str(kern),
                   "--out", str(tmp_path / "k.mtx")])
        assert rc == 2
        assert "kernel" in capsys.readouterr().err

    def test_non_utf8_kernel_exit_code(self, tmp_path, points_1d, non_utf8_kernel, capsys):
        rc = main(["kernel-compress", "--points", str(points_1d),
                   "--kernel", str(non_utf8_kernel), "--out", str(tmp_path / "k.mtx")])
        assert rc == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", [
        ({"family": "scaled-exponential", "length_scale": 0.1}, "length_scale"),
        ({"family": "matern32", "lengthscale": 0.1}, "lengthscale"),
    ], ids=["other-family-scale", "misspelt-scale"])
    def test_unread_kernel_key_exit_code(self, tmp_path, points_1d, capsys, config, key):
        kern = tmp_path / "unread.json"
        kern.write_text(json.dumps(config))
        out = tmp_path / "k.mtx"
        rc = main(["kernel-compress", "--points", str(points_1d), "--kernel", str(kern),
                   "--out", str(out)])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("degree, message", [("-1", "degree"), ("200", "allocated")])
    def test_bad_interpolation_degree_exit_code(self, tmp_path, kernel_json, capsys,
                                                degree, message):
        # p = 200 in 3-D: 7 clusters' transfer matrices of 201**3 squared entries,
        # 1.41 PiB, beyond any address space, so nothing is allocated
        rc = main(["kernel-compress", "--gen", "uniform-cube", "--n", "64", "--dim", "3",
                   "--seed", "1", "--kernel", str(kernel_json), "--p", degree,
                   "--out", str(tmp_path / "k.mtx")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("ridge", ["0", "-1", "nan", "inf"])
    def test_bad_ridge_exit_code(self, tmp_path, kernel_json, capsys, monkeypatch, ridge):
        out = tmp_path / "k.mtx"
        argv = ["kernel-compress", "--gen", "grid", "--n", "64", "--dim", "1",
                "--kernel", str(kernel_json), "--out", str(out), f"--ridge={ridge}"]
        TestGrfCommand.refuse_bad_argument(monkeypatch, capsys, tmp_path, argv, "ridge")
        assert not out.exists()


class TestGrfCommand:
    def test_samples_written_and_deterministic(self, tmp_path, kernel_json):
        prefix1 = tmp_path / "fieldA"
        prefix2 = tmp_path / "fieldB"
        base = ["grf", "--gen", "uniform-cube", "--n", "200", "--dim", "1",
                "--seed", "9", "--kernel", str(kernel_json),
                "--samples", "4", "--epsilon", "1e-6", "--ridge", "0.01"]
        assert main(base + ["--out-prefix", str(prefix1),
                            "--metrics", str(tmp_path / "g1.json")]) == 0
        assert main(base + ["--out-prefix", str(prefix2),
                            "--metrics", str(tmp_path / "g2.json")]) == 0
        for s in range(4):
            f1 = (tmp_path / f"fieldA_{s:03d}.csv").read_bytes()
            f2 = (tmp_path / f"fieldB_{s:03d}.csv").read_bytes()
            assert f1 == f2
        payload = json.loads((tmp_path / "g1.json").read_text())
        assert payload["anz_K"] > 0 and payload["anz_L"] > 0
        assert len(payload["fields"]) == 4

    def test_bunny_style_config_runs(self, tmp_path):
        # steep exponential kernel, tiny threshold, small ridge
        kern = tmp_path / "steep.json"
        kern.write_text(json.dumps({"family": "scaled-exponential",
                                    "distance_scale": 25.0}))
        met = tmp_path / "m.json"
        assert main(["grf", "--gen", "uniform-cube", "--n", "300", "--dim", "3",
                     "--seed", "4", "--kernel", str(kern), "--samples", "1",
                     "--epsilon", "1e-6", "--ridge", "0.01",
                     "--out-prefix", str(tmp_path / "f"),
                     "--metrics", str(met)]) == 0
        payload = json.loads(met.read_text())
        assert payload["anz_K"] > 0 and payload["anz_L"] > 0

    @pytest.mark.parametrize("n, dim, method", [(300, 3, "dense"), (1024, 1, "sparse")])
    def test_metrics_name_the_cholesky_path(self, tmp_path, kernel_json, n, dim, method):
        met = tmp_path / "m.json"
        assert main(["grf", "--gen", "uniform-cube", "--n", str(n), "--dim", str(dim),
                     "--seed", "1", "--kernel", str(kernel_json), "--samples", "1",
                     "--out-prefix", str(tmp_path / "f"), "--metrics", str(met)]) == 0
        payload = json.loads(met.read_text())
        assert payload["cholesky"] == method
        assert (payload["nnz_K"] >= n * n / 8) == (method == "dense")

    def test_metrics_report_ordering_time_and_assembly_counts(self, tmp_path, kernel_json,
                                                             monkeypatch):
        # the assembly counts are those kernel-compress reports for the same
        # matrix, and the worker count is the CPUs the process may run on
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        common = ["--gen", "uniform-cube", "--n", "300", "--dim", "2", "--seed", "5",
                  "--kernel", str(kernel_json)]
        assert main(["grf", *common, "--samples", "1", "--out-prefix", str(tmp_path / "f"),
                     "--metrics", str(tmp_path / "g.json")]) == 0
        assert main(["kernel-compress", *common, "--out", str(tmp_path / "k.mtx"),
                     "--metrics", str(tmp_path / "k.json")]) == 0
        grf = json.loads((tmp_path / "g.json").read_text())
        compressed = json.loads((tmp_path / "k.json").read_text())
        assert math.isfinite(grf["ordering_seconds"]) and grf["ordering_seconds"] >= 0.0
        for key in ("visited_pairs", "peak_block_bytes"):
            assert grf[key] == compressed[key] > 0
        assert grf["workers"] == compressed["workers"] == 3

    def test_ordering_is_not_an_option(self, tmp_path, kernel_json):
        # the ordering is always multiple minimum degree
        assert main(["grf", "--gen", "grid", "--n", "64", "--dim", "1", "--seed", "1",
                     "--kernel", str(kernel_json), "--ordering", "amd",
                     "--out-prefix", str(tmp_path / "f")]) == 2

    def test_requires_seed(self, tmp_path, kernel_json, capsys):
        rc = main(["grf", "--gen", "grid", "--n", "64", "--dim", "1",
                   "--kernel", str(kernel_json),
                   "--out-prefix", str(tmp_path / "f")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_non_utf8_kernel_exit_code(self, tmp_path, non_utf8_kernel, capsys):
        rc = main(["grf", "--gen", "grid", "--n", "64", "--dim", "1", "--seed", "1",
                   "--kernel", str(non_utf8_kernel), "--out-prefix", str(tmp_path / "f")])
        assert rc == 2
        assert "not UTF-8" in capsys.readouterr().err

    BAD_ARGUMENTS = [("--seed", str(2 ** 64), "seed"), ("--seed", "-1", "seed"),
                     ("--samples", "-1", "sample count"),
                     ("--samples", str(10 ** 12), "samples"),
                     ("--samples", str(10 ** 20), "samples")]

    @staticmethod
    def refuse_bad_argument(monkeypatch, capsys, tmp_path, argv, word):
        """grf exits 2 with a one-line error, before any basis or assembly."""
        def no_work(*args, **kwargs):
            raise AssertionError("grf built the basis before checking its arguments")

        monkeypatch.setattr(cli, "_build_basis", no_work)
        monkeypatch.setattr(cli, "assemble_compressed_kernel", no_work)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert word in err and err.count("\n") == 1
        assert not list(tmp_path.glob("f_*"))

    @pytest.mark.parametrize("flag,value,word", BAD_ARGUMENTS)
    def test_bad_seed_or_sample_count_exit_code(self, tmp_path, kernel_json, capsys,
                                                monkeypatch, flag, value, word):
        argv = ["grf", "--gen", "grid", "--n", "64", "--dim", "1", "--seed", "1",
                "--kernel", str(kernel_json), "--out-prefix", str(tmp_path / "f")]
        self.refuse_bad_argument(monkeypatch, capsys, tmp_path, argv + [flag, value], word)

    @pytest.mark.parametrize("flag,value,word", BAD_ARGUMENTS)
    def test_bad_seed_or_sample_count_with_point_file(self, tmp_path, kernel_json, capsys,
                                                      monkeypatch, flag, value, word):
        path = tmp_path / "pts.csv"
        sio.write_points_csv(path, PointCloud(np.linspace(-1, 1, 8000).reshape(-1, 2)))
        argv = ["grf", "--points", str(path), "--seed", "1", "--kernel", str(kernel_json),
                "--out-prefix", str(tmp_path / "f")]
        self.refuse_bad_argument(monkeypatch, capsys, tmp_path, argv + [flag, value], word)

    @pytest.mark.parametrize("ridge", ["0", "-1", "nan", "inf"])
    def test_bad_ridge_exit_code(self, tmp_path, kernel_json, capsys, monkeypatch, ridge):
        argv = ["grf", "--gen", "grid", "--n", "64", "--dim", "1", "--seed", "1",
                "--kernel", str(kernel_json), "--out-prefix", str(tmp_path / "f"),
                f"--ridge={ridge}"]
        self.refuse_bad_argument(monkeypatch, capsys, tmp_path, argv, "ridge")

    def test_non_positive_pivot_exit_code_and_hint(self, tmp_path, capsys):
        # a long-length-scale smooth kernel has a fast-decaying spectrum, so
        # compression noise makes the matrix indefinite for a negligible ridge
        kern = tmp_path / "smooth.json"
        kern.write_text(json.dumps({"family": "squared-exponential",
                                    "length_scale": 2.0}))
        rc = main(["grf", "--gen", "grid", "--n", "512", "--dim", "1",
                   "--seed", "1", "--kernel", str(kern), "--samples", "1",
                   "--epsilon", "1e-3", "--ridge", "1e-12",
                   "--out-prefix", str(tmp_path / "f")])
        assert rc == 1
        assert "ridge" in capsys.readouterr().err


class TestInfoCommand:
    def test_reports_structure(self, tmp_path, points_1d):
        rep = tmp_path / "info.json"
        assert main(["info", "--points", str(points_1d), "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["n"] == 256
        assert payload["dim"] == 1
        assert payload["root_scaling_functions"] + payload["samplets"] == 256

    def test_grid_generator(self, tmp_path):
        rep = tmp_path / "info.json"
        assert main(["info", "--gen", "grid", "--n", "100", "--dim", "2",
                     "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["n"] == 100  # 10 x 10 lattice

    def test_non_utf8_points_exit_code(self, tmp_path, capsys):
        pts = tmp_path / "latin.csv"
        pts.write_bytes(b"\xff\xfe1,2\n")
        assert main(["info", "--points", str(pts)]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_unallocatable_two_scale_matrices_exit_code(self, monkeypatch, capsys):
        def qr(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np.linalg, "qr", qr)
        assert main(["info", "--gen", "uniform-cube", "--n", "64", "--dim", "2",
                     "--seed", "1"]) == 2
        assert "two-scale matrices" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--q", "200"], ["--q-leaf", "400"]])
    def test_huge_moment_degree_exit_code(self, tmp_path, capsys, flags):
        pts = tmp_path / "p3.csv"
        rng = np.random.default_rng(0)
        sio.write_points_csv(pts, PointCloud(rng.uniform(-1, 1, size=(100, 3))))
        assert main(["info", "--points", str(pts), *flags]) == 2
        assert "exceed the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_out_of_range_exit_code(self, capsys, seed):
        assert main(["info", "--gen", "uniform-cube", "--n", "64", "--dim", "2",
                     "--seed", seed]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["info", "kernel-compress"])
    @pytest.mark.parametrize("source", ["grid", "points"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_checked_for_every_point_source(self, tmp_path, points_1d, kernel_json,
                                                 capsys, monkeypatch, command, source, seed):
        points = (["--gen", "grid", "--n", "64", "--dim", "2"] if source == "grid"
                  else ["--points", str(points_1d)])
        extra = {"info": [],
                 "kernel-compress": ["--kernel", str(kernel_json),
                                     "--out", str(tmp_path / "k.mtx")]}[command]
        argv = [command, *points, "--seed", seed, *extra]
        TestGrfCommand.refuse_bad_argument(monkeypatch, capsys, tmp_path, argv, "seed")

    def test_grid_size_mismatch_rejected(self, capsys):
        assert main(["info", "--gen", "grid", "--n", "1000", "--dim", "2"]) == 2
        assert "1024" in capsys.readouterr().err

    # every array lies beyond the 128 TiB user address space, so the tests
    # allocate nothing, whatever the host's overcommit setting
    @pytest.mark.parametrize("argv", [
        ["--gen", "uniform-cube", "--n", str(10 ** 14), "--dim", "2", "--seed", "1"],
        ["--gen", "grid", "--n", str(10 ** 14), "--dim", "2"],
        ["--gen", "uniform-cube", "--n", str(2 ** 62), "--dim", "4", "--seed", "1"],
    ], ids=["uniform-cube-1.42PiB", "grid-728TiB", "uniform-cube-beyond-int64"])
    def test_unallocatable_point_count_exit_code(self, capsys, argv):
        assert main(["info", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "allocated" in err

    def test_grid_generator_beyond_numpys_dimension_limit(self, tmp_path):
        rep = tmp_path / "info.json"
        assert main(["info", "--gen", "grid", "--n", "1", "--dim", "100",
                     "--report", str(rep)]) == 0
        assert json.loads(rep.read_text())["dim"] == 100


def _threshold_argv(command, points, data, tmp_path):
    out = {"transform": "--out", "compress": "--report", "detect": "--out"}[command]
    return [command, "--points", str(points), "--data", str(data),
            out, str(tmp_path / "out.jsonl")]


class TestNonFiniteParameters:
    @pytest.mark.parametrize("command", ["transform", "compress", "detect"])
    @pytest.mark.parametrize("flag,value", [
        ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-1"),
        ("--threshold-rel", "nan"), ("--threshold-rel", "inf"),
        ("--threshold-rel", "-inf"), ("--threshold-rel", "-400"),
    ])
    def test_bad_threshold_exit_code(self, tmp_path, points_1d, data_1d, capsys, no_basis,
                                     command, flag, value):
        argv = _threshold_argv(command, points_1d, data_1d, tmp_path) + [f"{flag}={value}"]
        assert main(argv) == 2
        assert "threshold" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("command", ["transform", "compress", "detect"])
    def test_both_threshold_flags_exit_code(self, tmp_path, points_1d, data_1d, capsys,
                                            no_basis, command):
        argv = _threshold_argv(command, points_1d, data_1d, tmp_path)
        assert main(argv + ["--threshold=1", "--threshold-rel=2"]) == 2
        assert "not both" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("command", ["kernel-compress", "grf"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
    def test_bad_epsilon_exit_code(self, tmp_path, points_1d, kernel_json, capsys,
                                   command, value):
        out = {"kernel-compress": ["--out", str(tmp_path / "k.mtx")],
               "grf": ["--out-prefix", str(tmp_path / "f"), "--seed", "1"]}[command]
        metrics = tmp_path / "m.json"
        assert main([command, "--points", str(points_1d), "--kernel", str(kernel_json),
                     "--metrics", str(metrics), f"--epsilon={value}"] + out) == 2
        assert "epsilon" in capsys.readouterr().err
        assert not metrics.exists()


class TestNonFiniteKernelValues:
    """kernel-compress and grf exit 2, with no output, when a kernel value is
    not finite or the points span too far for their squared distances."""

    @staticmethod
    def wide_points(tmp_path):
        rng = np.random.default_rng(3)
        coords = np.vstack([rng.uniform(0, 1e159, size=(100, 2)),
                            1e160 + rng.uniform(0, 1e159, size=(100, 2))])
        path = tmp_path / "wide.csv"
        sio.write_points_csv(path, PointCloud(coords))
        return ["--points", str(path)]

    @pytest.mark.parametrize("command", ["kernel-compress", "grf"])
    @pytest.mark.parametrize("case", ["tiny-length-scale", "wide-points"])
    def test_exit_code_and_no_output(self, tmp_path, capsys, command, case):
        if case == "tiny-length-scale":
            config = {"family": "matern32", "length_scale": 1e-320}
            points = ["--gen", "uniform-cube", "--n", "64", "--dim", "2"]
            word = "non-finite"
        else:
            config = {"family": "matern12", "length_scale": 1e160}
            points = self.wide_points(tmp_path)
            word = "1e154"
        kern = tmp_path / "kernel.json"
        kern.write_text(json.dumps(config))
        out = {"kernel-compress": ["--out", str(tmp_path / "K.mtx")],
               "grf": ["--out-prefix", str(tmp_path / "f")]}[command]
        metrics = tmp_path / "m.json"
        rc = main([command, *points, "--seed", "1", "--kernel", str(kern),
                   "--metrics", str(metrics), *out])
        assert rc == 2
        err = capsys.readouterr().err
        assert word in err and err.count("\n") == 1
        assert not metrics.exists()
        assert not (tmp_path / "K.mtx").exists() and not list(tmp_path.glob("f_*"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["info", "compress"])
    def test_wide_points_print_nothing_to_stderr(self, tmp_path, capsys, command):
        """The tree's infinite diameters overflow without a NumPy warning,
        which in a process of its own would go to stderr."""
        points = self.wide_points(tmp_path)
        extra = {"info": ["--report", str(tmp_path / "r.json")],
                 "compress": ["--data", str(tmp_path / "f.csv"), "--threshold", "0",
                              "--report", str(tmp_path / "r.jsonl")]}[command]
        sio.write_vector_csv(tmp_path / "f.csv", np.linspace(0.0, 1.0, 200))
        assert main([command, *points, *extra]) == 0
        assert capsys.readouterr().err == ""


class TestMalformedFiles:
    def test_binary_points_with_partial_value_exit_code(self, tmp_path, data_1d, capsys):
        pts = tmp_path / "pts.bin"
        sio.write_points_binary(pts, PointCloud(np.linspace(-1, 1, 256)[:, None]))
        pts.write_bytes(pts.read_bytes()[:-3])
        argv = ["transform", "--points", str(pts), "--data", str(data_1d),
                "--out", str(tmp_path / "c.csv"), "--report", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert "coordinates" in capsys.readouterr().err

    def test_directory_as_input_exit_code(self, tmp_path, capsys):
        assert main(["info", "--points", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path}: is a directory" in err
        assert "[Errno" not in err

    def test_header_only_data_exit_code(self, tmp_path, points_1d, capsys):
        data = tmp_path / "f.csv"
        data.write_text("x,y\n")
        argv = ["transform", "--points", str(points_1d), "--data", str(data),
                "--out", str(tmp_path / "c.csv"), "--report", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert "no data" in capsys.readouterr().err


class TestOutputPaths:
    """An output path in a missing directory, or naming a directory, is
    refused before any work and worded as such an input is."""

    WRITES = [("transform", "--out"), ("transform", "--report"), ("compress", "--out"),
              ("compress", "--report"), ("detect", "--out"), ("kernel-compress", "--out"),
              ("kernel-compress", "--metrics"), ("grf", "--out-prefix"), ("grf", "--metrics"),
              ("grf", "--factor-out"), ("info", "--report")]

    @staticmethod
    def argv(command, points, data, kernel, outputs):
        """``command`` on ``points`` with every output flag it has, each
        writing into ``outputs`` unless the test replaces it."""
        data, kernel, out = str(data), str(kernel), lambda name: str(outputs / name)
        flags = {"transform": ["--data", data, "--out", out("c.csv"), "--report", out("r.json")],
                 "compress": ["--data", data, "--out", out("c.csv"), "--report", out("r.json")],
                 "detect": ["--data", data, "--out", out("d.json")],
                 "kernel-compress": ["--kernel", kernel, "--out", out("k.mtx"),
                                     "--metrics", out("m.json")],
                 "grf": ["--kernel", kernel, "--seed", "1", "--samples", "2",
                         "--out-prefix", out("f"), "--metrics", out("m.json"),
                         "--factor-out", out("l.chol")],
                 "info": ["--report", out("r.json")]}[command]
        return [command, "--points", str(points), *flags]

    @pytest.mark.parametrize("command,flag", WRITES)
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_refused_before_any_work(self, tmp_path, points_1d, data_1d, kernel_json, capsys,
                                     no_basis, command, flag, where):
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        argv = self.argv(command, points_1d, data_1d, kernel_json, outputs)
        bad = str(tmp_path / "missing" / "x") if where == "missing-directory" else str(outputs)
        argv[argv.index(flag) + 1] = bad
        if flag == "--out-prefix":
            bad += "_000.csv"
            if where == "directory":
                Path(bad).mkdir()
        reason = "no such file or directory" if where == "missing-directory" else "is a directory"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
        assert not list(outputs.iterdir())

    def test_a_failed_write_names_its_path(self, tmp_path, points_1d, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_check_outputs", lambda paths: None)
        report = tmp_path / "missing" / "r.json"
        assert main(["info", "--points", str(points_1d), "--report", str(report)]) == 2
        assert capsys.readouterr().err == f"error: {report}: no such file or directory\n"


class TestNonFiniteData:
    @pytest.mark.parametrize("command", ["transform", "compress", "detect"])
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_non_finite_data_exit_code(self, tmp_path, points_1d, capsys, command, fmt):
        f = np.linspace(0.0, 1.0, 256)
        f[100] = np.nan
        data = tmp_path / f"f.{fmt}"
        (sio.write_vector_csv if fmt == "csv" else sio.write_vector_binary)(data, f)
        out = tmp_path / "out"
        argv = [command, "--points", str(points_1d), "--data", str(data), "--out", str(out)]
        if command == "transform":
            argv += ["--report", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def _strict_json(text):
    """Parse JSON, failing on the NaN and Infinity constants."""
    def reject(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestStrictJsonOutput:
    def test_every_subcommand_writes_strict_json(self, tmp_path, points_1d, data_1d,
                                                 kernel_json, capsys):
        pts, dat, ker = str(points_1d), str(data_1d), str(kernel_json)
        runs = [
            ["transform", "--points", pts, "--data", dat, "--out",
             str(tmp_path / "c.csv"), "--threshold-rel", "3"],
            ["compress", "--points", pts, "--data", dat, "--threshold-rel", "2"],
            ["detect", "--points", pts, "--data", dat, "--threshold-rel", "2"],
            ["kernel-compress", "--points", pts, "--kernel", ker, "--out",
             str(tmp_path / "k.mtx"), "--eta", "inf", "--dense-oracle"],
            ["grf", "--points", pts, "--kernel", ker, "--out-prefix",
             str(tmp_path / "f"), "--seed", "3", "--samples", "1", "--eta", "inf"],
            ["info", "--points", pts],
        ]
        for argv in runs:
            assert main(argv) == 0, argv
            out = capsys.readouterr().out
            documents = [out] if argv[0] in ("transform", "kernel-compress", "grf",
                                             "info") else out.splitlines()
            assert documents, argv
            parsed = [_strict_json(doc) for doc in documents]
            if argv[0] in ("kernel-compress", "grf"):
                assert parsed[0]["eta"] == "inf"


def _flag_table(parser):
    """Every subcommand's flags as {option strings: (dest, default, required,
    choices, type, action)}."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {tuple(a.option_strings): (
        a.dest, a.default, a.required, a.choices, getattr(a.type, "__name__", a.type),
        type(a).__name__) for a in command._actions}
        for name, command in sub.choices.items()}


_HELP = {("-h", "--help"): ("help", argparse.SUPPRESS, False, None, None, "_HelpAction")}
_INPUT_FLAGS = {
    ("--points",): ("points", None, False, None, None, "_StoreAction"),
    ("--gen",): ("gen", None, False, ("uniform-cube", "grid"), None, "_StoreAction"),
    ("--n",): ("n", 1024, False, None, "int", "_StoreAction"),
    ("--dim",): ("dim", 2, False, None, "int", "_StoreAction"),
    ("--seed",): ("seed", None, False, None, "int", "_StoreAction"),
    ("--q",): ("q", 2, False, None, "int", "_StoreAction"),
    ("--q-leaf",): ("q_leaf", None, False, None, "int", "_StoreAction"),
    ("--leaf-size",): ("leaf_size", None, False, None, "int", "_StoreAction"),
}
_DATA_FLAGS = {
    ("--data",): ("data", None, True, None, None, "_StoreAction"),
    ("--threshold",): ("threshold", None, False, None, "float", "_StoreAction"),
    ("--threshold-rel",): ("threshold_rel", None, False, None, "float", "_StoreAction"),
    ("--no-protect-scaling",): ("protect_scaling", True, False, None, None,
                                "_StoreFalseAction"),
}
_KERNEL_FLAGS = {
    ("--kernel",): ("kernel", None, True, None, None, "_StoreAction"),
    ("--eta",): ("eta", 1.25, False, None, "float", "_StoreAction"),
    ("--p",): ("p", 3, False, None, "int", "_StoreAction"),
    ("--epsilon",): ("epsilon", 1e-3, False, None, "float", "_StoreAction"),
    ("--metrics",): ("metrics", None, False, None, None, "_StoreAction"),
}
_FORMAT_FLAG = {("--format",): ("format", "csv", False, ("csv", "bin"), None, "_StoreAction")}


def _path_flag(dest, required=False):
    return {(f"--{dest.replace('_', '-')}",): (dest, None, required, None, None,
                                               "_StoreAction")}


def test_flag_tables_are_pinned():
    # option strings, dest, default, required, choices, type and action of
    # every flag of every subcommand
    common = {**_HELP, **_INPUT_FLAGS}
    store_true = {("--inverse",): ("inverse", False, False, None, None, "_StoreTrueAction"),
                  ("--dense-oracle",): ("dense_oracle", False, False, None, None,
                                        "_StoreTrueAction")}
    assert _flag_table(cli.build_parser()) == {
        "transform": {**common, **_DATA_FLAGS, **_FORMAT_FLAG, **_path_flag("out", True),
                      **_path_flag("report"), ("--inverse",): store_true[("--inverse",)]},
        "compress": {**common, **_DATA_FLAGS, **_FORMAT_FLAG, **_path_flag("out"),
                     **_path_flag("report")},
        "detect": {**common, **_DATA_FLAGS, **_path_flag("out")},
        "kernel-compress": {
            **common, **_KERNEL_FLAGS, **_path_flag("out", True),
            ("--ridge",): ("ridge", None, False, None, "float", "_StoreAction"),
            ("--dense-oracle",): store_true[("--dense-oracle",)]},
        "grf": {
            **common, **_KERNEL_FLAGS, **_FORMAT_FLAG, **_path_flag("out_prefix", True),
            **_path_flag("factor_out"),
            ("--samples",): ("samples", 4, False, None, "int", "_StoreAction"),
            ("--ridge",): ("ridge", 1.0, False, None, "float", "_StoreAction")},
        "info": {**common, **_path_flag("report")},
    }


def test_every_subcommand_reports_its_keys(tmp_path, points_1d, data_1d, kernel_json):
    pts, dat, ker = str(points_1d), str(data_1d), str(kernel_json)
    assembly = {"schema", "command", "N", "d", "eta", "p", "q", "epsilon", "ridge",
                "assembly_seconds", "peak_block_bytes", "visited_pairs", "workers"}
    runs = {
        "transform": (["--data", dat, "--out", str(tmp_path / "c.csv"),
                       "--threshold-rel", "3"],
                      {"schema", "command", "n", "dim", "q", "q_leaf", "leaf_size",
                       "direction", "threshold", "kept", "ratio", "max_abs_coefficient"}),
        "compress": (["--data", dat, "--threshold-rel", "2"],
                     {"threshold", "kept", "ratio", "l2_error", "linf_error"}),
        "detect": (["--data", dat, "--threshold-rel", "2"],
                   {"level", "is_leaf", "lo", "hi", "size", "max_abs_coefficient"}),
        "kernel-compress": (["--kernel", ker, "--out", str(tmp_path / "k.mtx"),
                             "--dense-oracle"],
                            assembly | {"q_leaf", "anz", "nnz", "kernel",
                                        "rel_frobenius_error"}),
        "grf": (["--kernel", ker, "--out-prefix", str(tmp_path / "f"), "--seed", "3",
                 "--samples", "1"],
                assembly | {"seed", "samples", "anz_K", "anz_L", "nnz_K", "nnz_L",
                            "ordering_seconds", "cholesky", "cholesky_seconds", "fields"}),
        "info": ([], {"schema", "command", "n", "dim", "tree_depth", "clusters", "leaves",
                      "leaf_size", "q", "q_leaf", "m_q", "m_q_leaf",
                      "root_scaling_functions", "samplets"}),
    }
    for command, (flags, keys) in runs.items():
        out = tmp_path / "out.json"
        target = {"detect": "--out", "kernel-compress": "--metrics",
                  "grf": "--metrics"}.get(command, "--report")
        assert main([command, "--points", pts, *flags, target, str(out)]) == 0, command
        lines = out.read_text().splitlines() if command in ("compress", "detect") else [
            out.read_text()]
        assert lines, command
        for line in lines:
            assert set(json.loads(line)) == keys, command


def _run_module(*argv):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "samplets.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestProcessEntryPoint:
    def test_info_prints_json(self):
        done = _run_module("info", "--gen", "grid", "--n", "64", "--dim", "2")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["n"] == 64

    @pytest.mark.parametrize("argv", [
        ["info", "--gen", "grid", "--n", "64", "--dim", "2", "--no-such-flag"],
        ["info", "--gen", "uniform-cube", "--n", "64", "--dim", "2", "--seed", "-1"],
    ], ids=["unknown-flag", "negative-seed"])
    def test_bad_arguments_exit_2(self, argv):
        done = _run_module(*argv)
        assert done.returncode == 2
        assert done.stdout == "" and "error" in done.stderr
