"""The one CSV format: a header line, then floats that read back exactly."""

import json

from hypothesis import given
from hypothesis import strategies as st

from quadmatch.bench import ExperimentReport, VariantResult, sweep_to_csv
from quadmatch.files import csv_text, json_text, read_json, write_text
from quadmatch.qap import SolveTrace, TraceStep
from quadmatch.train import EpochStats, TrainHistory

# every finite float and both infinities; NaN is the one float that cannot
# compare equal to its own reading
FLOATS = st.floats(allow_nan=False)
INTS = st.integers(-10**6, 10**6)


def assert_cells(text, header, rows):
    """``text`` is ``header`` then one line per row, each float cell reading
    back exactly and each other cell its ``str``."""
    lines = text.split("\n")
    assert lines[0] == header and lines[-1] == "" and len(lines) == len(rows) + 2
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert len(cells) == len(row)
        for cell, v in zip(cells, row):
            if isinstance(v, float):
                assert float(cell) == v
            else:
                assert cell == str(v)


@given(st.lists(st.tuples(INTS, INTS, FLOATS, FLOATS), max_size=4))
def test_trace_csv(rows):
    trace = SolveTrace([TraceStep(*r) for r in rows])
    assert_cells(trace.to_csv(), "outer,inner,epsilon,objective", rows)


@given(st.lists(st.tuples(INTS, FLOATS, FLOATS, FLOATS), max_size=4))
def test_history_csv(rows):
    history = TrainHistory([EpochStats(*r) for r in rows])
    assert_cells(history.to_csv(), "epoch,mean_loss,train_acc,param_norm", rows)


@given(st.lists(st.tuples(st.sampled_from(["full", "no_qc", "no_pairwise", "no_prior"]),
                          INTS, INTS, FLOATS, FLOATS, FLOATS), max_size=4), FLOATS)
def test_report_csv(rows, wall):
    report = ExperimentReport([VariantResult(*r, wall_clock_s=wall) for r in rows])
    assert_cells(report.to_csv(),
                 "variant,n_pairs,n_failures,mean_accuracy,mean_f1,mean_objective", rows)


@given(st.lists(st.tuples(INTS, FLOATS, FLOATS, INTS), max_size=4))
def test_sweep_csv(rows):
    dicts = [dict(zip(("k", "mean_accuracy", "mean_f1", "n_failures"), r)) for r in rows]
    assert_cells(sweep_to_csv(dicts), "k,mean_accuracy,mean_f1,n_failures", rows)


def test_csv_text_layout():
    assert csv_text("a,b", []) == "a,b\n"
    assert csv_text("a,b,c", [(1, 0.1, "x"), (2, 1 / 3, "y")]) == (
        "a,b,c\n1,0.1,x\n2,0.3333333333333333,y\n")


def test_json_round_trip(tmp_path):
    obj = {"b": [1, 0.1, None], "a": {"d": "x", "c": True}}
    path = tmp_path / "obj.json"
    write_text(path, json_text(obj))
    assert read_json(path) == obj
    assert path.read_bytes() == json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")
