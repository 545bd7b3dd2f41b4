"""The demo scripts and the README quick start run end to end on small inputs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def run_script(name, *args, cwd):
    return run_python(str(ROOT / "scripts" / name), *args, cwd=cwd)


def test_grf_demo(tmp_path):
    done = run_script("grf_demo.py", "--side", "12", "--samples", "2",
                      "--prefix", str(tmp_path / "field"), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for s in range(2):
        table = np.loadtxt(tmp_path / f"field_{s:03d}.csv", delimiter=",", skiprows=1)
        assert table.shape == (144, 3)
        assert np.isfinite(table).all()


def test_compress_1d_demo(tmp_path):
    out = tmp_path / "demo.csv"
    done = run_script("compress_1d_demo.py", "--n", "256", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert out.read_text().splitlines()[0] == (
        "x,signal,recon_1e-1,recon_1e-2,recon_1e-3,recon_1e-4")
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table.shape == (256, 6)
    assert np.isfinite(table).all()


def test_readme_quick_start(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    done = run_python("-c", blocks[0], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert 0.0 < float(done.stdout) < 1.0  # the share of coefficients dropped
