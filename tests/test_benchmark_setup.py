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
