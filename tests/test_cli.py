"""End-to-end CLI runs: synth -> train -> eval -> match, plus exit codes."""

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmatch import autodiff as ad
from quadmatch.bench import ABLATIONS, VARIANTS, outlier_sweep, sweep_to_csv
from quadmatch.cli import OUTPUT_FLAGS, build_parser, main
from quadmatch.errors import NumericalFailureError
from quadmatch.graphs import KeypointSet, load_dataset, make_pair, save_dataset, save_pair
from quadmatch.refine import init_parameters, load_parameters, save_parameters
from quadmatch.synth import SynthConfig, gen_synthetic_pair
from quadmatch.train import LOSSES, TrainConfig, train


def small_pair(seed, d=4):
    """A synthetic pair of 5 nodes with features ``d`` wide, drawn from ``seed``."""
    return gen_synthetic_pair(SynthConfig(n_inliers=5, d=d, classes=5),
                              rng=np.random.default_rng(seed))


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

    assert main(["eval", "--data", data, "--checkpoint", ckpt, "--out", report]) == 0
    rows = open(report).read().splitlines()
    assert rows[0].startswith("variant,")
    assert len(rows) == 5

    pair_file = str(tmp_path / "pair.json")
    save_pair(pairs[0], pair_file)
    out_file = str(tmp_path / "match.json")
    trace_file = str(tmp_path / "trace.csv")
    assert main(["match", "--pair", pair_file, "--checkpoint", ckpt,
                 "--out", out_file, "--trace", trace_file]) == 0
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
    trace_file = str(tmp_path / "trace.csv")
    assert main(["match", "--pair", pair_file, "--checkpoint", ckpt,
                 "--ablate", "qc", "--out", out_file, "--trace", trace_file]) == 0
    assert json.loads(open(out_file).read())["variant"] == "no_qc"
    # no Frank-Wolfe solve ran, so the trace is the header alone
    assert open(trace_file).read() == "outer,inner,epsilon,objective\n"


# every subcommand's options; a new one, or one that comes back, is a
# deliberate edit here
CLI_OPTIONS = {
    "synth": {"config", "out", "n_pairs", "seed"},
    "train": {"data", "config", "out", "history", "seed"},
    "match": {"pair", "checkpoint", "out", "trace", "ablate"},
    "eval": {"data", "checkpoint", "out", "json"},
    "bench-robust": {"data", "checkpoint", "out", "seed"},
}


def test_cli_options_are_pinned():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    options = {name: {a.dest for a in p._actions if a.dest != "help"}
               for name, p in sub.choices.items()}
    assert options == CLI_OPTIONS
    assert set(OUTPUT_FLAGS) <= set().union(*CLI_OPTIONS.values())


def test_ablate_choices_are_the_bench_ablations(tmp_path):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    ablate = next(a for a in sub.choices["match"]._actions if a.dest == "ablate")
    assert tuple(ablate.choices) == ABLATIONS
    assert {"full"} | {f"no_{a}" for a in ABLATIONS} == set(VARIANTS)
    pair_file, ckpt = str(tmp_path / "pair.json"), str(tmp_path / "ckpt.json")
    save_pair(small_pair(1), pair_file)
    save_parameters(init_parameters(6, n_layers=1, seed=0), ckpt)
    out = tmp_path / "m.json"
    for ablation in (None, *ABLATIONS):
        flags = ["--ablate", ablation] if ablation else []
        assert main(["match", "--pair", pair_file, "--checkpoint", ckpt,
                     "--out", str(out)] + flags) == 0
        variant = json.loads(out.read_text())["variant"]
        assert variant == (f"no_{ablation}" if ablation else "full")


def test_eval_json_report(tmp_path, config_file):
    data, ckpt = str(tmp_path / "data.json"), str(tmp_path / "ckpt.json")
    main(["synth", "--config", config_file, "--out", data, "--n-pairs", "2"])
    main(["train", "--data", data, "--config", config_file, "--out", ckpt])
    with_json, plain = tmp_path / "with_json.csv", tmp_path / "plain.csv"
    report = tmp_path / "report.json"
    assert main(["eval", "--data", data, "--checkpoint", ckpt, "--out", str(with_json),
                 "--json", str(report)]) == 0
    assert main(["eval", "--data", data, "--checkpoint", ckpt, "--out", str(plain)]) == 0
    rows = json.loads(report.read_text())["rows"]
    assert [r["variant"] for r in rows] == list(VARIANTS)
    assert all(r["wall_clock_s"] >= 0.0 for r in rows)
    assert with_json.read_bytes() == plain.read_bytes()


def test_train_seed_flag_matches_config_seed(tmp_path, config_file):
    data = str(tmp_path / "data.json")
    main(["synth", "--config", config_file, "--out", data, "--n-pairs", "2"])
    cfg = json.loads(Path(config_file).read_text())
    cfg["train"]["seed"] = 5
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(cfg))
    by_flag, by_config = tmp_path / "by_flag.json", tmp_path / "by_config.json"
    assert main(["train", "--data", data, "--config", config_file, "--seed", "5",
                 "--out", str(by_flag)]) == 0
    assert main(["train", "--data", data, "--config", str(seeded), "--out", str(by_config)]) == 0
    # the fixture's config seeds 3, so an ignored flag gives another checkpoint
    assert by_flag.read_bytes() == by_config.read_bytes()


def test_bench_robust(tmp_path, config_file):
    data = str(tmp_path / "data.json")
    ckpt = str(tmp_path / "ckpt.json")
    main(["synth", "--config", config_file, "--out", data, "--n-pairs", "2"])
    main(["train", "--data", data, "--config", config_file, "--out", ckpt])
    sweep = str(tmp_path / "sweep.csv")
    assert main(["bench-robust", "--data", data, "--checkpoint", ckpt, "--out", sweep]) == 0
    lines = open(sweep).read().splitlines()
    assert lines[0] == "k,mean_accuracy,mean_f1,n_failures"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]


@pytest.fixture
def sweep_inputs(tmp_path, config_file):
    """A synthesized 3-pair dataset and an untrained checkpoint."""
    data, ckpt = str(tmp_path / "data.json"), str(tmp_path / "ckpt.json")
    assert main(["synth", "--config", config_file, "--out", data, "--n-pairs", "3"]) == 0
    save_parameters(init_parameters(6, n_layers=1, seed=0), ckpt)
    return data, ckpt


def test_bench_robust_matches_the_library_sweep(tmp_path, sweep_inputs):
    data, ckpt = sweep_inputs
    sweep = tmp_path / "sweep.csv"
    assert main(["bench-robust", "--data", data, "--checkpoint", ckpt, "--out", str(sweep),
                 "--seed", "7"]) == 0
    rows = outlier_sweep(load_dataset(data), load_parameters(ckpt), seed=7)
    assert sweep.read_bytes() == sweep_to_csv(rows).encode()


def test_bench_robust_seed_moves_only_the_injection(tmp_path, sweep_inputs):
    data, ckpt = sweep_inputs
    lines = []
    for seed in ("0", "1"):
        sweep = tmp_path / f"sweep_{seed}.csv"
        assert main(["bench-robust", "--data", data, "--checkpoint", ckpt, "--out", str(sweep),
                     "--seed", seed]) == 0
        lines.append(sweep.read_text().splitlines())
    # the header and the k = 0 row sweep the clean pairs, which no seed touches
    assert lines[0][:2] == lines[1][:2]
    assert all(a != b for a, b in zip(lines[0][2:], lines[1][2:]))


@pytest.mark.parametrize("command,flags,config,seed", [
    ("synth", ["--seed", "-1"], None, -1),
    ("train", ["--seed", "-5"], None, -5),
    ("bench-robust", ["--seed", "-1"], None, -1),
    ("synth", [], {"synth": {"seed": -1}}, -1),
], ids=["synth_flag", "train_flag", "bench_robust_flag", "synth_config"])
def test_negative_seed_names_the_seed(tmp_path, capsys, run_inputs, command, flags, config, seed):
    # numpy's own message, "expected non-negative integer", named no seed
    inputs = dict(run_inputs)
    if config is not None:
        inputs["config"] = str(tmp_path / "negative.json")
        Path(inputs["config"]).write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(_argv(command, inputs, {"out": str(out)}) + flags) == 1
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
    assert not out.exists()


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
        main(["eval", "--data", data, "--checkpoint", ckpt, "--out", report])
        outs.append((open(data, "rb").read(), open(ckpt, "rb").read(),
                     open(hist, "rb").read(), open(report, "rb").read()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    [], ["eval"], ["frobnicate"], ["synth", "--out", "d.json", "--n-pairs", "three"],
    # bench-robust reads its pairs from --data and makes none
    ["bench-robust", "--data", "d.json", "--checkpoint", "c.json", "--out", "s.csv",
     "--config", "cfg.json"],
    ["bench-robust", "--data", "d.json", "--checkpoint", "c.json", "--out", "s.csv",
     "--n-pairs", "2"],
    # and sweeps the one k range at the one outlier scale
    ["bench-robust", "--data", "d.json", "--checkpoint", "c.json", "--out", "s.csv",
     "--kmax", "2"],
    ["bench-robust", "--data", "d.json", "--checkpoint", "c.json", "--out", "s.csv",
     "--sigma", "1"],
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


def test_underflowed_training_exits_2_with_history(tmp_path, capsys):
    # at tau=0.001 the first smooth-FW step lands on a direction whose entries
    # underflowed to 0; the failure is numerical, not a bad input
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"n_inliers": 6, "d": 4, "classes": 2, "seed": 3},
                                  "train": {"epochs": 3, "tau": 0.001}}))
    data, ckpt, hist = (str(tmp_path / name) for name in ("data.json", "c.json", "h.csv"))
    assert main(["synth", "--config", str(config), "--out", data, "--n-pairs", "2"]) == 0
    capsys.readouterr()
    assert main(["train", "--data", data, "--config", str(config), "--out", ckpt,
                 "--history", hist]) == 2
    assert capsys.readouterr().err.startswith("numerical failure (forward): ")
    # the first step failed, so no epoch finished and no checkpoint was written
    assert Path(hist).read_text() == "epoch,mean_loss,train_acc,param_norm\n"
    assert not Path(ckpt).exists()


def test_failure_in_epoch_1_writes_epoch_0_history(tmp_path, capsys, monkeypatch):
    # two pairs an epoch, so the third loss is the first of epoch 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"n_inliers": 5, "d": 4, "classes": 5, "seed": 3},
                                  "train": {"epochs": 3, "n_layers": 1, "m1": 1, "m2": 2}}))
    data, ckpt, hist = (str(tmp_path / name) for name in ("data.json", "c.json", "h.csv"))
    assert main(["synth", "--config", str(config), "--out", data, "--n-pairs", "2"]) == 0
    _, clean = train(load_dataset(data), TrainConfig(epochs=1, n_layers=1, m1=1, m2=2))
    real, calls = LOSSES["false_matching"], []

    def third_fails(x, x_star, loss_cfg):
        calls.append(None)
        return real(x, x_star, loss_cfg) if len(calls) != 3 else ad.asum(ad.log(x * 0.0))

    monkeypatch.setitem(LOSSES, "false_matching", third_fails)
    capsys.readouterr()
    assert main(["train", "--data", data, "--config", str(config), "--out", ckpt,
                 "--history", hist]) == 2
    assert capsys.readouterr().err == "numerical failure (loss): loss is not finite\n"
    assert Path(hist).read_text() == clean.to_csv()
    assert len(clean.entries) == 1 and not Path(ckpt).exists()


# keyed by each row's number in its test id, which stays put when a row goes
BAD_CONFIGS = {
    0: ("synth", {"synth": 5}, "'synth'"),
    1: ("train", {"train": [1, 2]}, "'train'"),
    3: ("synth", {"synt": {}}, "'synt'"),
    5: ("train", {"train": {"tau": -1.0}}, "tau"),
    6: ("train", {"train": {"grad_cap": 0}}, "grad_cap"),  # the cap is a constant, not a field
    7: ("train", {"train": {"epochs": 1.5}}, "epochs must be an integer"),
    8: ("train", {"train": {"epochs": True}}, "epochs must be an integer"),
    9: ("train", {"train": {"m1": 1.5}}, "m1 must be an integer"),
    10: ("train", {"train": {"m2": 2.0}}, "m2 must be an integer"),
    11: ("train", {"train": {"n_layers": 1.5}}, "n_layers must be an integer"),
    12: ("train", {"train": {"seed": 3.5}}, "seed must be an integer"),
    13: ("synth", {"synth": {"n_inliers": 8.5}}, "n_inliers must be an integer"),
    14: ("synth", {"synth": {"d": 4.0}}, "d must be an integer"),
    15: ("synth", {"synth": {"classes": 2.5}}, "classes must be an integer"),
    16: ("synth", {"synth": {"n_outliers": 1.0}}, "n_outliers must be an integer"),
    17: ("synth", {"synth": {"seed": 3.5}}, "seed must be an integer"),
    18: ("train", {"train": {"learning_rate": True}}, "learning_rate must be a real number"),
    19: ("train", {"train": {"learning_rate": None}}, "learning_rate must be a real number"),
    20: ("train", {"train": {"learning_rate": float("nan")}}, "learning_rate must be a real number"),
    21: ("train", {"train": {"tau": True}}, "tau must be a real number"),
    23: ("train", {"train": {"alpha": True}}, "alpha must be a real number"),
    24: ("train", {"train": {"beta": True}}, "beta must be a real number"),
    25: ("train", {"train": {"clip_eps": True}}, "clip_eps must be a real number"),
    26: ("synth", {"synth": {"feature_noise": True}}, "feature_noise must be a real number"),
    27: ("synth", {"synth": {"coord_jitter": "0.01"}}, "coord_jitter must be a real number"),
    28: ("synth", {"synth": {"rotate_b": 2}}, "rotate_b must be a bool"),
    29: ("train", {"train": {"learning_rate": float("inf")}}, "learning_rate must be a real number"),
    30: ("train", {"train": {"tau": float("inf")}}, "tau must be a real number"),
    32: ("train", {"train": {"beta": -float("inf")}}, "beta must be a real number"),
    33: ("synth", {"synth": {"coord_jitter": float("inf")}}, "coord_jitter must be a real number"),
    34: ("synth", [1], "config file must contain a JSON object"),
    35: ("synth", {"synth": {"foo": 1}}, "bad synth config"),
    36: ("synth", {"synth": {"d": 0}}, "d and classes must be >= 1"),
    37: ("synth", {"synth": {"classes": 0}}, "d and classes must be >= 1"),
    38: ("synth", {"synth": {"n_outliers": -1}}, "n_outliers must be >= 0"),
    39: ("train", {"train": {"m1": -1}}, "m1 and m2 must be non-negative"),
}


@pytest.mark.parametrize("command,config,fragment", BAD_CONFIGS.values(),
                         ids=[f"{c}-config{i}-{f}" for i, (c, _, f) in BAD_CONFIGS.items()])
def test_bad_config_exit_code(tmp_path, capsys, command, config, fragment):
    cfg = tmp_path / "bad_config.json"
    cfg.write_text(json.dumps(config))
    pair = small_pair(3)
    data = tmp_path / "data.json"
    save_dataset([pair], str(data))
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "out.json"), "--n-pairs", "1"],
        "train": ["train", "--data", str(data), "--out", str(tmp_path / "c.json")],
    }[command]
    assert main(argv + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err


def _fractional_gt(obj):
    obj["gt_permutation"] = [0, 1, 2, 3, 4.7]


def _gt_below_minus_one(obj):
    obj["gt_permutation"] = [0, 1, 2, 3, -5]


def _boolean_gt(obj):
    # numpy would read this list as [0, 1, 2, 3, 4]
    obj["gt_permutation"] = [False, True, 2, 3, 4]


def _overflowing_coords(obj):
    # every entry is finite, but max - min on the x axis is not
    obj["graph_a"]["coords"][0] = [-1e308, 0.0]
    obj["graph_a"]["coords"][1] = [1e308, 1.0]


def _huge_features(obj):
    # squares overflow, so the cosine kernel could not normalize this row
    obj["graph_a"]["features"][0] = [1e160] * 4


def _coincident_keypoints(obj):
    obj["graph_b"]["coords"][4] = obj["graph_b"]["coords"][3]


def _ragged_coords(obj):
    obj["graph_a"]["coords"][1] = [1.0]


def _text_features(obj):
    obj["graph_b"]["features"][0] = ["a", "b", "c", "d"]


def _three_column_coords(obj):
    obj["graph_a"]["coords"] = [row + [0.0] for row in obj["graph_a"]["coords"]]


def _features_row_short(obj):
    obj["graph_a"]["features"].pop()


def _nan_coordinate(obj):
    obj["graph_a"]["coords"][2][0] = float("nan")


def _infinite_feature(obj):
    obj["graph_b"]["features"][2][1] = float("inf")


def _gt_short(obj):
    obj["gt_permutation"].pop()


def _extra_node_b(obj):
    # a keypoint far from the others, so graph b still triangulates
    obj["graph_b"]["coords"].append([1234.5, -987.6])
    obj["graph_b"]["features"].append([0.5] * 4)


def _wider_features_b(obj):
    obj["graph_b"]["features"] = [row + [0.5] for row in obj["graph_b"]["features"]]


EXTRA_NODE_B = ("graph_a has 5 nodes and attributes 6 wide, but graph_b has 6 nodes and "
                "attributes 6 wide: a pair's graphs must have the same size and width\n")
WIDER_FEATURES_B = ("graph_a has 5 nodes and attributes 6 wide, but graph_b has 5 nodes and "
                    "attributes 7 wide: a pair's graphs must have the same size and width\n")


@pytest.mark.parametrize("edit,fragment", [
    (_fractional_gt, "ground truth entries must be integer"),
    (_gt_below_minus_one, "or -1 for an outlier"),
    (_boolean_gt, "error: ground truth entries must be integer node indices, not true or "
                  "false\n"),
    (_overflowing_coords, "error: graph_a: the coordinates' range overflows a float\n"),
    (_huge_features, "feature rows are too large"),
    (_coincident_keypoints, "error: graph_b: keypoint 4 coincides with keypoint 3, "),
    (_ragged_coords, "error: graph_a: coords is not a rectangular array of numbers (setting "
                     "an array element with a sequence."),
    (_text_features, "error: graph_b: features is not a rectangular array of numbers (could "
                     "not convert string to float: 'a')\n"),
    (_three_column_coords, "error: graph_a: coords must be n x 2, got shape (5, 3)\n"),
    (_features_row_short, "error: graph_a: features must have one row per keypoint\n"),
    (_nan_coordinate, "error: graph_a: keypoint coordinates and features must be finite\n"),
    (_infinite_feature, "error: graph_b: keypoint coordinates and features must be finite\n"),
    (_gt_short, "error: ground truth must have one entry per node of graph a\n"),
    (_extra_node_b, "error: " + EXTRA_NODE_B),
    (_wider_features_b, "error: " + WIDER_FEATURES_B),
], ids=["fractional_gt", "gt_below_minus_one", "boolean_gt", "overflowing_coords",
        "huge_features", "coincident_keypoints", "ragged_coords", "text_features",
        "three_column_coords", "features_row_short", "nan_coordinate", "infinite_feature",
        "gt_short", "extra_node_b", "wider_features_b"])
def test_bad_pair_exit_code(tmp_path, capsys, edit, fragment):
    pair_file = tmp_path / "pair.json"
    save_pair(small_pair(3), str(pair_file))
    obj = json.loads(pair_file.read_text())
    edit(obj)
    pair_file.write_text(json.dumps(obj))
    ckpt = str(tmp_path / "ckpt.json")
    save_parameters(init_parameters(6, n_layers=1, seed=0), ckpt)
    out, trace = tmp_path / "out.json", tmp_path / "trace.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["match", "--pair", str(pair_file), "--checkpoint", ckpt,
                     "--out", str(out), "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err
    assert not out.exists() and not trace.exists()


def test_all_outlier_ground_truth_scores_zero(tmp_path, capsys):
    # no node of graph a has a match, so accuracy and F1 have nothing to count
    pair_file = tmp_path / "pair.json"
    save_pair(small_pair(3), str(pair_file))
    obj = json.loads(pair_file.read_text())
    obj["gt_permutation"] = [-1] * 5
    pair_file.write_text(json.dumps(obj))
    ckpt = str(tmp_path / "ckpt.json")
    save_parameters(init_parameters(6, n_layers=1, seed=0), ckpt)
    assert main(["match", "--pair", str(pair_file), "--checkpoint", ckpt]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "accuracy: 0.0  f1: 0.0"


@pytest.mark.parametrize("text", ["[]", "1", '"pair"', "NaN", "null"])
def test_pair_not_an_object_exit_code(tmp_path, capsys, text):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(text)
    ckpt = str(tmp_path / "ckpt.json")
    save_parameters(init_parameters(6, n_layers=1, seed=0), ckpt)
    assert main(["match", "--pair", str(pair_file), "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert err == ("error: a graph pair must be a JSON object with 'graph_a', 'graph_b' "
                   "and 'gt_permutation'\n")


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("text,fragment", [
    ('{"pairs": 5}', "must contain a 'pairs' array"),
    ('{"pairs": {"graph_a": 1}}', "must contain a 'pairs' array"),
    ('{"pairs": "pair"}', "must contain a 'pairs' array"),
    ("[]", "must contain a 'pairs' array"),
    ('{"pairs": [1]}', "a graph pair must be a JSON object"),
    ('{"pairs": [[]]}', "a graph pair must be a JSON object"),
], ids=["number", "object", "string", "top_level_array", "number_pair", "array_pair"])
def test_malformed_dataset_exit_code(tmp_path, capsys, command, text, fragment):
    data = tmp_path / "data.json"
    data.write_text(text)
    ckpt = str(tmp_path / "ckpt.json")
    save_parameters(init_parameters(6, n_layers=1, seed=0), ckpt)
    argv = {
        "eval": ["eval", "--data", str(data), "--checkpoint", ckpt,
                 "--out", str(tmp_path / "r.csv")],
        "train": ["train", "--data", str(data), "--out", str(tmp_path / "c.json")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err and err.count("\n") == 1


def _ragged_graph_b_coords(obj):
    obj["graph_b"]["coords"][0] = [0.5, 0.5, 0.5]


def _repeated_gt(obj):
    obj["gt_permutation"][1] = obj["gt_permutation"][0]


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("edit,message", [
    (_ragged_graph_b_coords, "error: pair 2: graph_b: coords is not a rectangular array of "
                             "numbers (setting an array element with a sequence."),
    (_repeated_gt, "error: pair 2: ground truth must map distinct nodes into graph b\n"),
    (_extra_node_b, "error: pair 2: " + EXTRA_NODE_B),
    (_wider_features_b, "error: pair 2: " + WIDER_FEATURES_B),
], ids=["ragged_coords", "repeated_gt", "extra_node_b", "wider_features_b"])
def test_bad_dataset_pair_names_the_pair(tmp_path, capsys, command, edit, message):
    data = tmp_path / "data.json"
    pairs = [small_pair(s) for s in range(3)]
    save_dataset(pairs, str(data))
    obj = json.loads(data.read_text())
    edit(obj["pairs"][2])
    data.write_text(json.dumps(obj))
    ckpt = str(tmp_path / "ckpt.json")
    save_parameters(init_parameters(6, n_layers=1, seed=0), ckpt)
    out = tmp_path / "out"
    argv = {"eval": ["eval", "--data", str(data), "--checkpoint", ckpt, "--out", str(out)],
            "train": ["train", "--data", str(data), "--out", str(out)]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_train_checks_every_width_before_the_first_step(tmp_path, capsys, monkeypatch):
    # pairs 0 and 1 have 4 feature columns, so training starts from
    # parameters that take attributes 6 wide; pair 2 has 3
    import quadmatch.train as train_module

    pairs = [small_pair(s, d=d) for s, d in enumerate((4, 4, 3))]
    data = tmp_path / "data.json"
    save_dataset(pairs, str(data))
    calls = []
    grad_params = train_module.grad_params
    monkeypatch.setattr(train_module, "grad_params",
                        lambda *args: calls.append(args) or grad_params(*args))
    ckpt, hist = tmp_path / "ckpt.json", tmp_path / "hist.csv"
    assert main(["train", "--data", str(data), "--out", str(ckpt), "--history", str(hist)]) == 1
    assert capsys.readouterr().err == (
        "error: pair 2: attributes are 5 wide (3 feature columns plus 2 coordinates), "
        "but the parameters take attributes 6 wide\n")
    assert calls == []
    assert not ckpt.exists() and not hist.exists()


@pytest.mark.parametrize("argv,data,message", [
    (["synth", "--n-pairs", "0"], None, "n_pairs must be >= 1"),
    (["eval"], '{"pairs": []}', "evaluation requires a non-empty dataset"),
    (["bench-robust"], '{"pairs": []}', "evaluation requires a non-empty dataset"),
], ids=["synth_no_pairs", "eval_empty_dataset", "bench_robust_empty_dataset"])
def test_empty_request_exit_code(tmp_path, capsys, argv, data, message):
    out = tmp_path / "out"
    if data is not None:
        (tmp_path / "data.json").write_text(data)
        save_parameters(init_parameters(6, n_layers=1, seed=0), str(tmp_path / "ckpt.json"))
        argv = argv + ["--data", str(tmp_path / "data.json"),
                       "--checkpoint", str(tmp_path / "ckpt.json")]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("n_layers", [0, 2])
def test_feature_width_mismatch_names_both_widths(tmp_path, capsys, n_layers):
    # features 4 wide make attributes 6 wide; the checkpoint takes 4
    pair_file = tmp_path / "pair.json"
    save_pair(small_pair(3), str(pair_file))
    ckpt = str(tmp_path / "ckpt.json")
    save_parameters(init_parameters(4, n_layers=n_layers, seed=0), ckpt)
    assert main(["match", "--pair", str(pair_file), "--checkpoint", ckpt]) == 1
    assert capsys.readouterr().err == (
        "error: attributes are 6 wide (4 feature columns plus 2 coordinates), "
        "but the parameters take attributes 4 wide\n")


@pytest.mark.parametrize("command", ["eval", "bench-robust"])
def test_checkpoint_width_mismatch_exit_code(tmp_path, capsys, config_file, command):
    # the config's features are 4 wide, so attributes are 6 wide; the
    # checkpoint takes 7: no pair may run and count as failed
    ckpt = str(tmp_path / "ckpt.json")
    save_parameters(init_parameters(7, n_layers=1, seed=0), ckpt)
    out = tmp_path / "out.csv"
    data = str(tmp_path / "data.json")
    main(["synth", "--config", config_file, "--out", data, "--n-pairs", "2"])
    capsys.readouterr()
    assert main([command, "--data", data, "--checkpoint", ckpt, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: pair 0: attributes are 6 wide (4 feature columns plus 2 coordinates), "
        "but the parameters take attributes 7 wide\n")
    assert not out.exists()


@pytest.fixture
def run_inputs(tmp_path, config_file):
    """Inputs for every subcommand in one run directory; no training runs."""
    pairs = [small_pair(s) for s in (3, 4)]
    save_dataset(pairs, str(tmp_path / "data.json"))
    save_pair(pairs[0], str(tmp_path / "pair.json"))
    save_parameters(init_parameters(6, n_layers=1, seed=0), str(tmp_path / "ckpt.json"))
    (tmp_path / "taken").mkdir()
    return {"config": config_file, "data": str(tmp_path / "data.json"),
            "pair": str(tmp_path / "pair.json"), "checkpoint": str(tmp_path / "ckpt.json")}


def _argv(command, inputs, outputs):
    flags = {"synth": ("config",), "train": ("data", "config"), "match": ("pair", "checkpoint"),
             "eval": ("data", "checkpoint"), "bench-robust": ("data", "checkpoint")}[command]
    argv = [command] + [arg for flag in flags for arg in (f"--{flag}", inputs[flag])]
    argv += [arg for flag, path in outputs.items() for arg in (f"--{flag}", path)]
    return argv + (["--n-pairs", "2"] if command == "synth" else [])


@pytest.mark.parametrize("command,flags", [
    ("synth", ("out",)), ("train", ("out", "history")), ("match", ("out", "trace")),
    ("eval", ("out", "json")), ("bench-robust", ("out",))],
    ids=["synth", "train", "match", "eval", "bench-robust"])
@pytest.mark.parametrize("where", ["missing_dir", "is_dir"])
def test_bad_output_path_writes_nothing(tmp_path, capsys, run_inputs, command, flags, where):
    bad = str(tmp_path / "missing" / "x.out") if where == "missing_dir" else str(tmp_path / "taken")
    for bad_flag in flags:
        outputs = {flag: bad if flag == bad_flag else str(tmp_path / f"{flag}.out")
                   for flag in flags}
        before = sorted(tmp_path.rglob("*"))
        assert main(_argv(command, run_inputs, outputs)) == 1, bad_flag
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{bad_flag} {bad!r}") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command,flags", [
    ("train", ("out", "history")), ("match", ("out", "trace")), ("eval", ("out", "json"))],
    ids=["train", "match", "eval"])
@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_two_flags_naming_one_file_write_nothing(tmp_path, capsys, run_inputs, command, flags,
                                                 spelling):
    first = tmp_path / "x.out"
    second = first if spelling == "same" else tmp_path / "taken" / ".." / "x.out"
    outputs = dict(zip(flags, (str(first), str(second))))
    before = sorted(tmp_path.rglob("*"))
    assert main(_argv(command, run_inputs, outputs)) == 1
    assert capsys.readouterr().err == (
        f"error: --{flags[1]} {str(second)!r} names the same file as --{flags[0]}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command,output,source", [
    ("synth", "out", "config"), ("train", "out", "data"), ("train", "history", "config"),
    ("match", "out", "checkpoint"), ("match", "trace", "pair"), ("eval", "out", "checkpoint"),
    ("eval", "json", "data"), ("bench-robust", "out", "checkpoint"),
    ("bench-robust", "out", "data")],
    ids=["synth_out_config", "train_out_data", "train_history_config", "match_out_checkpoint",
         "match_trace_pair", "eval_out_checkpoint", "eval_json_data",
         "bench_robust_out_checkpoint", "bench_robust_out_data"])
def test_output_naming_an_input_writes_nothing(tmp_path, capsys, run_inputs, command, output,
                                               source):
    outputs = {} if command == "match" else {"out": str(tmp_path / "x.out")}
    # spelled another way than the input flag, so the two compare by resolved path
    outputs[output] = str(tmp_path / "taken" / ".." / Path(run_inputs[source]).name)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(_argv(command, run_inputs, outputs)) == 1
    assert capsys.readouterr().err == (
        f"error: --{output} {outputs[output]!r} names the same file as --{source}\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("command,source", [
    ("train", "config"), ("eval", "data"), ("match", "pair"), ("match", "checkpoint")],
    ids=["config", "dataset", "pair", "checkpoint"])
@pytest.mark.parametrize("content,message", [
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xd0\xcf\x11\xe0", "'utf-8' codec can't decode byte 0xd0 in position 0"),
], ids=["empty", "binary"])
def test_unreadable_json_names_the_file(tmp_path, capsys, run_inputs, command, source, content,
                                        message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    outputs = {} if command == "match" else {"out": str(tmp_path / "x.out")}
    assert main(_argv(command, {**run_inputs, source: str(bad)}, outputs)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1
    assert not (tmp_path / "x.out").exists()


def _relabel_layers(n_layers):
    return lambda obj: obj.update(n_layers=n_layers)


def _drop_tensor(name):
    return lambda obj: obj["tensors"].pop(name)


@pytest.mark.parametrize("edit,message", [
    (_relabel_layers(2.7), "n_layers must be an integer, got 2.7"),
    (_relabel_layers("2"), "n_layers must be an integer, got '2'"),
    (_relabel_layers(True), "n_layers must be an integer, got True"),
    (_relabel_layers(None), "n_layers must be an integer, got None"),
    (_relabel_layers(-1), "n_layers must be >= 0, got -1"),
    (_relabel_layers(1), "checkpoint tensors ['w_aff', 'w_r.1', 'w_r.2', 'w_s.1', 'w_s.2'] "
                         "are not the 3 named by n_layers 1"),
    (_relabel_layers(3), "checkpoint tensors ['w_aff', 'w_r.1', 'w_r.2', 'w_s.1', 'w_s.2'] "
                         "are not the 7 named by n_layers 3"),
    (_relabel_layers(10**12), "are not the 2000000000001 named by n_layers 1000000000000"),
    (_drop_tensor("w_s.2"), "checkpoint tensors ['w_aff', 'w_r.1', 'w_r.2', 'w_s.1'] "
                            "are not the 5 named by n_layers 2"),
    (lambda obj: obj["tensors"].update({"w_s.3": obj["tensors"].pop("w_s.2")}),
     "checkpoint tensors ['w_aff', 'w_r.1', 'w_r.2', 'w_s.1', 'w_s.3'] "
     "are not the 5 named by n_layers 2"),
    (lambda obj: obj["tensors"].update(extra=[[1.0]]), "are not the 5 named by n_layers 2"),
    (lambda obj: obj.update(dim=99), "checkpoint dim 99 is not w_aff's width 6"),
    (lambda obj: obj.update(dim=6.0), "dim must be an integer, got 6.0"),
    (lambda obj: obj.update(seed="abc"), "seed must be an integer, got 'abc'"),
    (lambda obj: obj.update(seed=1.5), "seed must be an integer, got 1.5"),
    (lambda obj: obj.update(tensors=[]), "must be a JSON object with a 'tensors' object"),
    (lambda obj: obj["tensors"].update(w_aff=5.0), "parameter w_aff must be a square matrix"),
    (lambda obj: obj["tensors"].update(w_aff={"a": 1}), "malformed checkpoint"),
    (lambda obj: obj["tensors"].update(w_aff=[[1.0, 2.0], [3.0]]),
     "malformed checkpoint: tensor 'w_aff' is not a rectangular array of numbers"),
    (lambda obj: obj["tensors"]["w_aff"][0].__setitem__(0, float("nan")),
     "parameter w_aff contains non-finite entries"),
], ids=["fractional_layers", "string_layers", "bool_layers", "null_layers", "negative_layers",
        "too_few_layers", "too_many_layers", "huge_layers", "missing_tensor", "misnamed_tensor",
        "extra_tensor", "wrong_dim", "float_dim", "string_seed", "fractional_seed",
        "tensors_not_object", "scalar_w_aff", "object_w_aff", "ragged_w_aff", "nan_w_aff"])
def test_bad_checkpoint_exit_code(tmp_path, capsys, edit, message):
    pair_file = tmp_path / "pair.json"
    save_pair(small_pair(3), str(pair_file))
    ckpt = tmp_path / "ckpt.json"
    save_parameters(init_parameters(6, n_layers=2, seed=0), str(ckpt))
    obj = json.loads(ckpt.read_text())
    edit(obj)
    ckpt.write_text(json.dumps(obj))
    assert main(["match", "--pair", str(pair_file), "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_checkpoint_null_seed_loads(tmp_path):
    ckpt = tmp_path / "ckpt.json"
    save_parameters(init_parameters(6, n_layers=2, seed=0), str(ckpt))
    obj = json.loads(ckpt.read_text())
    obj["seed"] = None
    ckpt.write_text(json.dumps(obj))
    assert load_parameters(str(ckpt)).seed is None


# Degenerate pair files for the match fuzz below: valid but awkward
# coordinates, features and ground truth, each map taking (rng, n) or n.
# Features are two columns wide, the checkpoint's input width.
FUZZ_COORDS = {
    "spread": lambda rng, n: rng.uniform(0.0, 100.0, size=(n, 2)),
    "duplicate": lambda rng, n: np.full((n, 2), 3.0),
    "collinear": lambda rng, n: np.outer(np.arange(n), [1.0, 2.0]),
    "huge": lambda rng, n: rng.uniform(-1.0, 1.0, size=(n, 2)) * 1e300,
    "tiny": lambda rng, n: rng.uniform(-1.0, 1.0, size=(n, 2)) * 1e-300,
}
FUZZ_FEATURES = {
    "normal": lambda rng, n: rng.normal(size=(n, 2)),
    "zero": lambda rng, n: np.zeros((n, 2)),
    "tiny": lambda rng, n: rng.normal(size=(n, 2)) * 1e-300,
    "large": lambda rng, n: rng.normal(size=(n, 2)) * 1e150,
}
FUZZ_GT = {
    "identity": lambda n: list(range(n)),
    "reversed": lambda n: list(range(n))[::-1],
    "outliers": lambda n: [-1] * n,
}
# at most one fault per file, each an edit of the valid pair object
FUZZ_FAULTS = {
    "gt_minus_five": lambda obj, n: obj.update(gt_permutation=list(range(n - 1)) + [-5]),
    "gt_fractional": lambda obj, n: obj.update(gt_permutation=list(range(n - 1)) + [0.5]),
    "gt_out_of_range": lambda obj, n: obj.update(gt_permutation=list(range(n - 1)) + [n + 3]),
    "gt_repeated": lambda obj, n: obj.update(gt_permutation=[0] * max(n, 2)),
    "gt_short": lambda obj, n: obj.update(gt_permutation=list(range(n - 1))),
    "gt_text": lambda obj, n: obj.update(gt_permutation="0 1 2"),
    "gt_null": lambda obj, n: obj.update(gt_permutation=None),
    "overflowing_features": lambda obj, n: obj["graph_a"].update(features=[[1e160, 1e160]] * n),
    "too_wide_features": lambda obj, n: obj["graph_b"].update(features=[[1.0, 2.0, 3.0]] * n),
    "graph_b_larger": lambda obj, n: obj["graph_b"].update(
        coords=obj["graph_b"]["coords"] + [[0.5, 0.5]],
        features=obj["graph_b"]["features"] + [[0.5, 0.5]]),
    "missing_key": lambda obj, n: obj.pop("graph_b"),
    "nan_coords": lambda obj, n: obj["graph_a"].update(coords=[[float("nan"), 0.0]] * n),
}
FUZZ_MALFORMED = ["", "{", "[]", "null", '"pair"', '{"graph_a": {}}', "NaN",
                  '{"graph_a": {"coords": "x", "features": []}, "graph_b": 1, '
                  '"gt_permutation": []}']


@st.composite
def fuzz_pair_text(draw):
    """The text of a degenerate pair file with n = 1-3 nodes: odd but valid,
    or with one fault, or cut short, or JSON that is no pair at all.
    Returns (text, whether the file is a valid pair)."""
    kind = draw(st.sampled_from(["valid", "fault", "cut", "malformed"]))
    if kind == "malformed":
        return draw(st.sampled_from(FUZZ_MALFORMED)), False
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    obj = {}
    for key in ("graph_a", "graph_b"):
        coords = FUZZ_COORDS[draw(st.sampled_from(sorted(FUZZ_COORDS)))](rng, n)
        features = FUZZ_FEATURES[draw(st.sampled_from(sorted(FUZZ_FEATURES)))](rng, n)
        obj[key] = {"coords": coords.tolist(), "features": features.tolist()}
    obj["gt_permutation"] = FUZZ_GT[draw(st.sampled_from(sorted(FUZZ_GT)))](n)
    if kind == "fault":
        FUZZ_FAULTS[draw(st.sampled_from(sorted(FUZZ_FAULTS)))](obj, n)
    text = json.dumps(obj)
    if kind == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text, kind == "valid"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_parameters(init_parameters(4, n_layers=1, seed=0), str(path / "ckpt.json"))
    (path / "one_epoch.json").write_text('{"train": {"epochs": 1}}')
    return path


@settings(max_examples=50)
@given(case=fuzz_pair_text(), ablate=st.sampled_from([None, "qc", "pairwise", "prior"]))
def test_match_fuzz_exits_cleanly(fuzz_dir, case, ablate):
    # a degenerate but valid pair file matches (exit 0); any other is
    # reported as invalid input (exit 1, one "error:" line); never a traceback
    text, valid = case
    pair_file = fuzz_dir / "pair.json"
    pair_file.write_text(text)
    argv = ["match", "--pair", str(pair_file), "--checkpoint", str(fuzz_dir / "ckpt.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv + (["--ablate", ablate] if ablate else []))
    assert code == (0 if valid else 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if valid:
        assert out.getvalue().startswith("permutation: ")
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# Feature scales for the train fuzz below: rows that the GCN rectifies to
# zero or that underflow when squared, plain rows, and rows whose gradient
# norm overflows when squared.
TRAIN_FUZZ_SCALES = (0.0, 1e-300, 1.0, 1e100)


def fuzz_dataset(n, n_pairs, width, scale, constant, seed):
    """``n_pairs`` synthetic pairs of ``n`` nodes whose features are replaced
    by rows ``width`` wide at ``scale``, either constant or random."""
    rng = np.random.default_rng(seed)
    pairs = []
    for pair_seed in rng.integers(2**16, size=n_pairs):
        pair = gen_synthetic_pair(SynthConfig(n_inliers=n, d=1, classes=n),
                                  rng=np.random.default_rng(int(pair_seed)))
        rows = [np.ones((n, width)) if constant else rng.normal(size=(n, width))
                for _ in range(2)]
        pairs.append(make_pair(KeypointSet(pair.a.keypoints.coords, scale * rows[0]),
                               KeypointSet(pair.b.keypoints.coords, scale * rows[1]), pair.gt))
    return pairs


@settings(max_examples=100)
@given(n=st.integers(3, 5), n_pairs=st.integers(1, 2), width=st.integers(0, 3),
       scale=st.sampled_from(TRAIN_FUZZ_SCALES), constant=st.booleans(),
       seed=st.integers(0, 2**16))
# zero rows whose kernel gradient was 0 * inf, and a gradient whose squared
# norm overflowed and zeroed the step
@example(n=4, n_pairs=2, width=3, scale=0.0, constant=True, seed=1)
@example(n=5, n_pairs=1, width=3, scale=1e100, constant=True, seed=0)
def test_train_fuzz_exits_cleanly(fuzz_dir, n, n_pairs, width, scale, constant, seed):
    # features at scale 1 or below train (exit 0, a finite history); larger
    # ones train too or fail with one error line (exit 1 or 2); never a
    # traceback or a numpy warning
    data, ckpt, hist = (fuzz_dir / name for name in ("train.json", "trained.json", "h.csv"))
    save_dataset(fuzz_dataset(n, n_pairs, width, scale, constant, seed), str(data))
    hist.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", str(data), "--out", str(ckpt), "--history", str(hist),
                     "--config", str(fuzz_dir / "one_epoch.json")])
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err.getvalue()
    if scale <= 1.0:
        assert code == 0, err.getvalue()
    if code == 0:
        assert out.getvalue().startswith("trained 1 epochs: ")
        rows = hist.read_text().splitlines()[1:]
        assert len(rows) == 1 and np.all(np.isfinite([float(v) for v in rows[0].split(",")]))
    else:
        assert code in (1, 2), err.getvalue()
        assert err.getvalue().startswith("error: " if code == 1 else "numerical failure (")
        assert err.getvalue().count("\n") == 1
