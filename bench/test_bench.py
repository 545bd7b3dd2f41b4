"""Self-tests of the benchmark: tiny-N smoke runs and the correctness gates.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Grf2d, Kernel3d, Signals2d, setup  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workdir: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale-down", "4"],
        cwd=workdir, capture_output=True, text=True, timeout=300)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        row = next(line for line in lines if line.split()[:1] == [m["name"]])
        assert m["unit"] in row.split() and m["better"] in row.split()
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines)
        assert any(line.startswith("job self time:") for line in lines)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "grf-2d", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def small(cls, n, tmp_path, seed=5):
    tracer = Tracer()
    w = cls(setup(tracer, cls.points(seed, n)), seed, tmp_path)
    w.job(tracer)
    w.prepare(tracer)
    return w, tracer


def test_dropped_matrix_market_line_trips_read_back(tmp_path):
    w, tracer = small(Kernel3d, 512, tmp_path)
    assert all(gate() is None for _, gate in w.gates(tracer))
    lines = w.path.read_text().splitlines(keepends=True)
    w.path.write_text("".join(lines[:10] + lines[11:]))
    assert w.gate_read_back() is not None


def test_perturbed_matrix_market_value_trips_read_back(tmp_path):
    w, _ = small(Kernel3d, 512, tmp_path)
    lines = w.path.read_text().splitlines(keepends=True)
    i, j, v = lines[5].split()
    lines[5] = f"{i} {j} {float(v) * (1 + 1e-12)!r}\n"
    w.path.write_text("".join(lines))
    assert w.gate_read_back() is not None


def test_perturbed_apply_trips_its_check(tmp_path):
    w, tracer = small(Kernel3d, 512, tmp_path)
    request = w.make_request(1)
    result = w.serve(request, tracer)
    assert w.check(request, result) is None
    result[0] += 0.1 * np.linalg.norm(result)
    assert w.check(request, result) is not None


def test_perturbed_solve_trips_residual(tmp_path):
    w, tracer = small(Grf2d, 256, tmp_path)
    assert all(gate() is None for _, gate in w.gates(tracer))
    rhs = w.make_request(1)
    x = w.serve(rhs, tracer)
    assert w.check(rhs, x) is None
    x[7] *= 1 + 1e-6
    assert w.check(rhs, x) is not None


def test_perturbed_field_trips_finite_gate(tmp_path):
    w, _ = small(Grf2d, 256, tmp_path)
    w.fields[3, 11] = np.nan
    assert w.gate_fields() is not None


def test_perturbed_reconstruction_trips_error_identity(tmp_path):
    w, tracer = small(Signals2d, 1024, tmp_path)
    signal = w.make_request(1)
    result = w.serve(signal, tracer)
    assert w.check(signal, result) is None
    result[3].values[17] += 1e-3
    assert w.check(signal, result) is not None
