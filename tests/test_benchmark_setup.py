"""The benchmark's set-up and one operation of each workload, so that a change
to a package name the benchmark uses fails here rather than in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "design.json").read_text(encoding="utf-8"))["workloads"]


@pytest.fixture(scope="module")
def workloads():
    # loaded here, not at collection: the module starts its hard-stop clock on
    # import, and puts src/ and perfbench/ on sys.path
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_sets_up_and_runs(workloads, name):
    spec = WORKLOADS[name]
    state = workloads.setup(spec, 1)
    assert len(state["pairs"]) == spec["pairs"]
    if spec["kind"] == "infer":
        run = workloads.Run()
        workloads.infer_loop(spec, state, run, seconds=0.0, n_pairs=1)
        assert run.problems == [] and run.failed == 0
        assert run.attempted == len(spec["variants"])
    else:
        cfg = workloads.train_config(spec, 1)
        assert cfg == state["train_cfg"] and cfg.epochs == spec["epochs"]


# each workload's traced work at seed 1, as the benchmark digests it; a change
# that moves an answer bit moves one of these
DIGESTS = {"infer-ambiguous": "041fe673ed1451c3", "train-easy": "6271d756dee55b85",
           "infer-outliers": "d0464049e20554b5"}
TRAIN_EASY_LAST_LOSS = 27647.866939344083


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_answers_are_pinned(workloads, name):
    spec = WORKLOADS[name]
    state = workloads.setup(spec, 1)
    run = workloads.Run()
    if spec["kind"] == "infer":
        workloads.infer_loop(spec, state, run, seconds=0.0, n_pairs=spec["trace_pairs"])
    else:
        workloads.train_loop(spec, state, run, seconds=0.0, sessions=1)
        assert run.answers["session"][1].mean_loss == TRAIN_EASY_LAST_LOSS
    assert run.problems == [] and run.failed == 0
    assert workloads.answer_digest(spec, run) == DIGESTS[name]
