"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import Tracer, package_module, self_times  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert checks.tail_percentile(19) is None
    assert checks.tail_percentile(20) == 50.0
    assert checks.tail_percentile(99) == 50.0
    assert checks.tail_percentile(100) == 90.0
    assert checks.tail_percentile(999) == 90.0
    assert checks.tail_percentile(1000) == 99.0
    assert checks.tail_percentile(10_000) == 99.9


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child2", 5.0, 9.0, 0, 0],
        ["other_root", 11.0, 12.0, -1, 1],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    # self times of a tree add up to its root's duration
    assert sum(self_times(spans)[:4]) == 10.0


def test_permutation_check_rejects_doubly_stochastic_matrix():
    assert checks.check_permutation_matrix(np.full((3, 3), 1 / 3)) is not None
    assert checks.check_permutation_matrix(np.eye(3)[[2, 0, 1]]) is None
    two_in_a_row = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert checks.check_permutation_matrix(two_in_a_row) is not None
    assert checks.check_permutation_matrix(np.eye(3)[:2]) is not None


def test_recomputed_accuracy_skips_unmatched_rows():
    matrix = np.eye(3)
    assert checks.recomputed_accuracy(matrix, [0, 2, -1]) == 0.5


def test_tracer_rebinds_every_copy_and_restores_it():
    from quadmatch import init_parameters
    from quadmatch.synth import easy_config, gen_dataset

    projections, qap, bench = (package_module(m) for m in ("projections", "qap", "bench"))
    hungarian = projections.hungarian
    assert qap.hungarian is hungarian and bench.hungarian is hungarian
    pair = gen_dataset(easy_config(seed=3), 1)[0]
    params = init_parameters(pair.a.attributes.shape[1], seed=3)

    tracer = Tracer()
    tracer.install()
    try:
        assert qap.hungarian is not hungarian and bench.hungarian is projections.hungarian
        tracer.op = 7
        bench.match_pair(pair, params, "no_qc")
    finally:
        tracer.uninstall()

    assert qap.hungarian is hungarian and bench.hungarian is hungarian
    names = [rec[0] for rec in tracer.spans]
    assert names[0] == "bench.match_pair" and tracer.spans[0][3] == -1
    assert names.count("projections.hungarian") == 1
    assert tracer.counts["lsa"] >= 1
    assert all(rec[4] == 7 for rec in tracer.spans)
    root = tracer.spans[0]
    assert abs(sum(self_times(tracer.spans)) - (root[2] - root[1])) < 1e-9
