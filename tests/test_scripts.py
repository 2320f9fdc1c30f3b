"""Smoke runs of scripts/experiments.py at small sizes: each experiment
writes its CSVs and prints its criterion's figure."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import experiments
import quadmatch

SRC = Path(quadmatch.__file__).resolve().parents[1]
SMALL = {"QC_PAIRS": 2, "TRAIN_PAIRS": 2, "TEST_PAIRS": 2, "CE_PAIRS": 2, "SWEEP_PAIRS": 2,
         "EPOCHS": 1}
HISTORY = "epoch,mean_loss,train_acc,param_norm"
ACC = r"\d\.\d{3}"


@pytest.mark.parametrize("experiment,csvs,figure", [
    ("qc-ablation",
     {"qc_ablation.csv": "variant,n_pairs,n_failures,mean_accuracy,mean_f1,mean_objective"},
     rf"full {ACC} vs no-QC {ACC} \(gain [+-]{ACC}\)"),
    ("loss-comparison",
     {"loss_comparison_false_matching.csv": HISTORY, "loss_comparison_cross_entropy.csv": HISTORY},
     rf"held-out {ACC} -> {ACC}; unclamped cross entropy (completed \(1 epochs\)|aborted .*)"),
    ("outlier-sweep", {"outlier_sweep.csv": "k,mean_accuracy,mean_f1,n_failures"},
     rf"means \[('{ACC}', ){{4}}'{ACC}'\], rho (-?{ACC}|nan)"),
], ids=["qc_ablation", "loss_comparison", "outlier_sweep"])
def test_script_runs_and_writes_csv(tmp_path, monkeypatch, capsys, experiment, csvs, figure):
    for name, value in SMALL.items():
        monkeypatch.setattr(experiments, name, value)
    experiments.main([experiment, "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(figure, lines[0]), lines[0]
    assert lines[1:] == [f"wrote {tmp_path / name}" for name in csvs]
    for name, header in csvs.items():
        assert (tmp_path / name).read_text().splitlines()[0] == header


def test_script_help_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, experiments.__file__, "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert all(name in proc.stdout for name in experiments.EXPERIMENTS)
