"""End-to-end CLI runs: synth -> train -> eval -> match, plus exit codes."""

import json

import numpy as np
import pytest

from quadmatch.cli import main
from quadmatch.errors import NumericalFailureError
from quadmatch.graphs import load_dataset, save_dataset, save_pair
from quadmatch.refine import init_parameters, load_parameters, save_parameters
from quadmatch.synth import SynthConfig, gen_synthetic_pair


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "synth": {"n_inliers": 5, "d": 4, "classes": 5, "feature_noise": 0.1,
                  "coord_jitter": 0.01, "seed": 3},
        "train": {"epochs": 2, "n_layers": 1, "seed": 3, "m1": 1, "m2": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_synth_train_eval_match_roundtrip(tmp_path, config_file):
    data = str(tmp_path / "data.json")
    ckpt = str(tmp_path / "ckpt.json")
    hist = str(tmp_path / "hist.csv")
    report = str(tmp_path / "report.csv")

    assert main(["synth", "--config", config_file, "--out", data, "--n-pairs", "4"]) == 0
    pairs = load_dataset(data)
    assert len(pairs) == 4

    assert main(["train", "--data", data, "--config", config_file,
                 "--out", ckpt, "--history", hist]) == 0
    params = load_parameters(ckpt)
    assert params.n_layers == 1
    lines = open(hist).read().splitlines()
    assert lines[0] == "epoch,mean_loss,train_acc,param_norm"
    assert len(lines) == 3

    assert main(["eval", "--data", data, "--checkpoint", ckpt, "--config", config_file,
                 "--out", report]) == 0
    rows = open(report).read().splitlines()
    assert rows[0].startswith("variant,")
    assert len(rows) == 5

    pair_file = str(tmp_path / "pair.json")
    save_pair(pairs[0], pair_file)
    out_file = str(tmp_path / "match.json")
    trace_file = str(tmp_path / "trace.csv")
    assert main(["match", "--pair", pair_file, "--checkpoint", ckpt,
                 "--config", config_file, "--out", out_file, "--trace", trace_file]) == 0
    result = json.loads(open(out_file).read())
    assert sorted(result["permutation"]) == list(range(5))
    assert open(trace_file).read().startswith("outer,inner,epsilon,objective")


def test_match_ablate_flag(tmp_path, config_file):
    data = str(tmp_path / "data.json")
    ckpt = str(tmp_path / "ckpt.json")
    main(["synth", "--config", config_file, "--out", data, "--n-pairs", "2"])
    main(["train", "--data", data, "--config", config_file, "--out", ckpt])
    pair_file = str(tmp_path / "pair.json")
    save_pair(load_dataset(data)[0], pair_file)
    out_file = str(tmp_path / "m.json")
    assert main(["match", "--pair", pair_file, "--checkpoint", ckpt,
                 "--ablate", "qc", "--out", out_file]) == 0
    assert json.loads(open(out_file).read())["variant"] == "no_qc"


def test_bench_robust(tmp_path, config_file):
    data = str(tmp_path / "data.json")
    ckpt = str(tmp_path / "ckpt.json")
    main(["synth", "--config", config_file, "--out", data, "--n-pairs", "2"])
    main(["train", "--data", data, "--config", config_file, "--out", ckpt])
    sweep = str(tmp_path / "sweep.csv")
    assert main(["bench-robust", "--config", config_file, "--checkpoint", ckpt,
                 "--out", sweep, "--kmax", "1", "--n-pairs", "2"]) == 0
    lines = open(sweep).read().splitlines()
    assert lines[0] == "k,mean_accuracy,mean_f1,n_failures"
    assert len(lines) == 3


def test_seed_override_changes_dataset(tmp_path, config_file):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    main(["synth", "--config", config_file, "--out", a, "--n-pairs", "2"])
    main(["synth", "--config", config_file, "--out", b, "--n-pairs", "2", "--seed", "77"])
    assert open(a).read() != open(b).read()


def test_identical_runs_byte_identical(tmp_path, config_file):
    outs = []
    for tag in ("one", "two"):
        data = str(tmp_path / f"data_{tag}.json")
        ckpt = str(tmp_path / f"ckpt_{tag}.json")
        hist = str(tmp_path / f"hist_{tag}.csv")
        report = str(tmp_path / f"report_{tag}.csv")
        main(["synth", "--config", config_file, "--out", data, "--n-pairs", "3"])
        main(["train", "--data", data, "--config", config_file,
              "--out", ckpt, "--history", hist])
        main(["eval", "--data", data, "--checkpoint", ckpt,
              "--config", config_file, "--out", report])
        outs.append((open(data, "rb").read(), open(ckpt, "rb").read(),
                     open(hist, "rb").read(), open(report, "rb").read()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    [], ["eval"], ["frobnicate"], ["synth", "--out", "d.json", "--n-pairs", "three"],
])
def test_usage_error_exit_code(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_help_exit_code(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_invalid_input_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["eval", "--data", missing, "--checkpoint", missing,
                 "--out", str(tmp_path / "r.csv")]) == 1


def test_malformed_pair_exit_code(tmp_path, config_file):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"graph_a": {"coords": [[0, 0]], "features": [[1]]}}))
    ckpt = str(tmp_path / "ckpt.json")
    data = str(tmp_path / "data.json")
    main(["synth", "--config", config_file, "--out", data, "--n-pairs", "2"])
    main(["train", "--data", data, "--config", config_file, "--out", ckpt])
    assert main(["match", "--pair", str(bad), "--checkpoint", ckpt]) == 1


def test_numerical_failure_exit_code(monkeypatch, tmp_path, config_file):
    import quadmatch.cli as cli

    def boom(*args, **kwargs):
        raise NumericalFailureError("blew up", stage="loss")

    monkeypatch.setattr(cli, "train", boom)
    data = str(tmp_path / "data.json")
    main(["synth", "--config", config_file, "--out", data, "--n-pairs", "2"])
    assert main(["train", "--data", data, "--config", config_file,
                 "--out", str(tmp_path / "c.json")]) == 2


@pytest.mark.parametrize("command,config,fragment", [
    ("synth", {"synth": 5}, "'synth'"),
    ("train", {"train": [1, 2]}, "'train'"),
    ("match", {"solver": 5}, "'solver'"),
    ("synth", {"synt": {}}, "'synt'"),
    ("match", {"solver": {"m1": 3}}, "'solver'"),
    ("train", {"train": {"tau": -1.0}}, "tau"),
    ("train", {"train": {"grad_cap": 0}}, "grad_cap"),
])
def test_bad_config_exit_code(tmp_path, capsys, command, config, fragment):
    cfg = tmp_path / "bad_config.json"
    cfg.write_text(json.dumps(config))
    pair = gen_synthetic_pair(SynthConfig(n_inliers=5, d=4, classes=5, seed=3))
    data = tmp_path / "data.json"
    save_dataset([pair], str(data))
    pair_file = tmp_path / "pair.json"
    save_pair(pair, str(pair_file))
    ckpt = tmp_path / "ckpt.json"
    save_parameters(init_parameters(pair.a.attributes.shape[1], n_layers=1, seed=0), str(ckpt))
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "out.json"), "--n-pairs", "1"],
        "train": ["train", "--data", str(data), "--out", str(tmp_path / "c.json")],
        "match": ["match", "--pair", str(pair_file), "--checkpoint", str(ckpt)],
    }[command]
    assert main(argv + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err
