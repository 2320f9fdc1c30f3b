"""Smoke runs of the experiment scripts: each exits 0 and writes its CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadmatch

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = Path(quadmatch.__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,outputs", [
    ("run_qc_ablation.py", ["--pairs", "4", "--out", "qc.csv"], ["qc.csv"]),
    ("run_loss_comparison.py", ["--pairs", "2", "--epochs", "1", "--out-prefix", "loss"],
     ["loss_false_matching.csv", "loss_cross_entropy.csv"]),
    ("run_outlier_sweep.py", ["--train-pairs", "2", "--eval-pairs", "2", "--epochs", "1",
                              "--kmax", "1", "--out", "sweep.csv"], ["sweep.csv"]),
], ids=["qc_ablation", "loss_comparison", "outlier_sweep"])
def test_script_runs_and_writes_csv(tmp_path, script, args, outputs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) >= 2 and "," in lines[0]
