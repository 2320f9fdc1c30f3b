"""One benchmark workload in one process: set-up, a closed loop, answer checks.

Started by run.py, which caps the BLAS threads before numpy loads. The
package is imported from ``src/`` of the checkout this file sits in and is
driven only through its public functions. The last stdout line is a JSON
object for run.py; the lines before it are for people.

Untraced, the loop repeats the workload's fixed work list (every pair of the
dataset, or one training session) until ``--seconds`` have passed and the
list has run once; the answers of that first pass are checked and digested,
and every repeat must reproduce them. Traced, the work list runs once
untraced and once under the tracer, which gives the per-layer readings and
the tracing overhead.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time starts before numpy and quadmatch load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
HARD_STOP_S = 150.0  # a run must end well inside the 180 s limit

sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import quadmatch  # noqa: E402
from quadmatch import InvalidInputError, NumericalFailureError  # noqa: E402
from quadmatch.losses import LossConfig, matrix_to_permutation  # noqa: E402
from quadmatch.refine import init_parameters  # noqa: E402
from quadmatch.synth import ambiguous_config, easy_config  # noqa: E402
from quadmatch.train import TrainConfig  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, package_module, self_times  # noqa: E402

CONFIGS = {"ambiguous_config": ambiguous_config, "easy_config": easy_config}
FAILURES = (InvalidInputError, NumericalFailureError)


class Run:
    """Outcome of one workload loop: timings, answers and failed checks."""

    def __init__(self):
        self.latencies = defaultdict(list)  # variant or "step" -> seconds per op
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.answers: dict = {}             # work item -> first answer
        self.wall = 0.0

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


# ---------------------------------------------------------------- set-up

def setup(spec: dict, seed: int) -> dict:
    synth = package_module("synth")
    cfg = CONFIGS[spec["synth"]["config"]](seed=seed, **spec["synth"]["overrides"])
    t = time.perf_counter()
    pairs = synth.gen_dataset(cfg, spec["pairs"])
    gen_s = time.perf_counter() - t
    params = init_parameters(pairs[0].a.attributes.shape[1], n_layers=2, seed=seed)
    state = {"cfg": cfg, "pairs": pairs, "params": params, "gen_s": gen_s}
    if spec["kind"] == "infer":
        package_module("bench").match_pair(pairs[0], params, "no_qc")
    else:
        state["train_cfg"] = train_config(spec, seed)
        package_module("train").train(pairs[:1], train_config(spec, seed, epochs=1), params=params)
    return state


def train_config(spec: dict, seed: int, epochs: int | None = None) -> TrainConfig:
    t = spec["train"]
    return TrainConfig(epochs=epochs or spec["epochs"], learning_rate=t["learning_rate"],
                       m1=t["m1"], m2=t["m2"], n_layers=t["n_layers"], seed=seed,
                       loss_cfg=LossConfig(alpha=t["alpha"], beta=t["beta"]))


# ---------------------------------------------------------------- loops

def infer_loop(spec: dict, state: dict, run: Run, *, seconds: float, n_pairs: int,
               tracer=None) -> None:
    """Match the first ``n_pairs`` pairs in order, cycling, until the time is used.

    ``seconds`` 0 runs them exactly once.
    """
    match_pair = package_module("bench").match_pair
    pairs, params = state["pairs"][:n_pairs], state["params"]
    start = time.perf_counter()
    i = 0
    while i < len(pairs) or time.perf_counter() - start < seconds:
        if time.perf_counter() - T0 > HARD_STOP_S:
            run.problem(f"stopped at the hard limit after {i} pairs")
            break
        k = i % len(pairs)
        if tracer is not None:
            tracer.op = k
        for variant in spec["variants"]:
            run.attempted += 1
            t = time.perf_counter()
            try:
                r = match_pair(pairs[k], params, variant)
            except FAILURES as exc:
                run.failed += 1
                run.problem(f"pair {k} {variant}: {type(exc).__name__}: {exc}")
                continue
            run.latencies[variant].append(time.perf_counter() - t)
            record_match(run, (k, variant), r, pairs[k].gt)
        i += 1
    run.wall = time.perf_counter() - start


def record_match(run: Run, key, r, gt) -> None:
    answer = (r.permutation, r.accuracy, r.objective)
    first = run.answers.setdefault(key, answer)
    if first is answer:
        why = checks.check_match(r, gt, matrix_to_permutation)
        if why:
            run.problem(f"pair {key[0]} {key[1]}: {why}")
    elif not (np.array_equal(first[0], answer[0]) and first[2] == answer[2]):
        run.problem(f"pair {key[0]} {key[1]}: a repeat gave another answer")


def train_loop(spec: dict, state: dict, run: Run, *, seconds: float, sessions: int = 1,
               tracer=None) -> None:
    """Train from the same start until the time is used and ``sessions`` ran."""
    train = package_module("train").train
    pairs, params, cfg = state["pairs"], state["params"], state["train_cfg"]
    steps = cfg.epochs * len(pairs)
    start = time.perf_counter()
    s = 0
    while s < sessions or time.perf_counter() - start < seconds:
        if time.perf_counter() - T0 > HARD_STOP_S:
            run.problem(f"stopped at the hard limit after {s} sessions")
            break
        if tracer is not None:
            tracer.op = s
        run.attempted += steps
        t = time.perf_counter()
        try:
            final, history = train(pairs, cfg, params=params)
        except FAILURES as exc:
            run.failed += steps
            run.problem(f"session {s}: {type(exc).__name__}: {exc}")
            s += 1
            continue
        run.latencies["step"].append((time.perf_counter() - t) / steps)
        record_session(run, final, history, cfg.epochs)
        s += 1
    run.wall = time.perf_counter() - start


def record_session(run: Run, final, history, epochs: int) -> None:
    flat = final.flatten()
    last = history.entries[-1] if history.entries else None
    answer = (checks.digest([flat]), last)
    first = run.answers.setdefault("session", answer)
    if len(history.entries) != epochs:
        run.problem(f"history has {len(history.entries)} epochs, expected {epochs}")
    elif not (np.all(np.isfinite(flat)) and all(np.isfinite(e.mean_loss) for e in history.entries)):
        run.problem("training produced a non-finite loss or parameter")
    elif not 0.0 <= last.train_accuracy <= 1.0:
        run.problem(f"train accuracy {last.train_accuracy} outside [0, 1]")
    if first is not answer and first != answer:
        run.problem("a repeated session ended at other parameters")


def run_loop(spec, state, run, *, seconds, tracer=None, traced_work=False):
    """The timed loop, or with ``traced_work`` the workload's fixed traced work once."""
    if spec["kind"] == "infer":
        infer_loop(spec, state, run, seconds=0.0 if traced_work else seconds, tracer=tracer,
                   n_pairs=spec["trace_pairs"] if traced_work else spec["pairs"])
    else:
        train_loop(spec, state, run, seconds=0.0 if traced_work else seconds, tracer=tracer,
                   sessions=spec["trace_sessions"] if traced_work else 1)


# ---------------------------------------------------------------- results

def answer_digest(spec: dict, run: Run) -> str:
    if spec["kind"] == "train":
        return run.answers["session"][0] if "session" in run.answers else ""
    keys = sorted(run.answers)
    return checks.digest([run.answers[k][0] for k in keys])


def end_to_end(spec: dict, run: Run) -> tuple[dict, dict]:
    """(gated metrics, all results under their workload names)."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["kind"] == "train":
        lat = run.latencies["step"]
        last = run.answers["session"][1]
        op_ms, per_s = checks.percentile(lat, 50) * 1e3, len(lat) / sum(lat)
        named = {"train_steps_per_s": (per_s, "1/s"), "train_step_ms_p50": (op_ms, "ms"),
                 "train_loss": (last.mean_loss, ""), "train_accuracy": (last.train_accuracy, "fraction"),
                 "sessions": (len(lat), "count")}
    else:
        lat = run.latencies["full"]
        first = [a for (k, v), a in run.answers.items() if v == "full"]
        op_ms, per_s = checks.percentile(lat, 50) * 1e3, len(lat) / sum(lat)
        named = {"match_ms_p50": (op_ms, "ms"), "pairs_per_s": (per_s, "1/s"),
                 "accuracy": (float(np.mean([a[1] for a in first])), "fraction"),
                 "objective_mean": (float(np.mean([a[2] for a in first])), ""),
                 "samples": (len(lat), "count")}
        if (checks.tail_percentile(len(lat)) or 0) >= 90:
            named["match_ms_p90"] = (checks.percentile(lat, 90) * 1e3, "ms")
        if "no_qc" in run.latencies:
            named["no_qc_ms_p50"] = (checks.percentile(run.latencies["no_qc"], 50) * 1e3, "ms")
    named.update({"failed_ratio": (run.failed / run.attempted, "fraction"),
                  "peak_rss_mb": (rss_mb, "MB")})
    metrics = {"ops_per_s": (per_s, "1/s"), "peak_rss_mb": (rss_mb, "MB")}
    return metrics, named


def per_layer(tracer: Tracer, traced_wall: float, overhead_s: float, gen_s: float) -> dict:
    selfs = self_times(tracer.spans)
    calls, self_s = defaultdict(int), defaultdict(float)
    grad_ms = []
    for rec, st in zip(tracer.spans, selfs):
        calls[rec[0]] += 1
        self_s[rec[0]] += st
        if rec[0] == "train.grad_params":
            grad_ms.append((rec[2] - rec[1]) * 1e3)

    def ms(name):
        return self_s[name] * 1e3

    hung = calls["projections.hungarian"]
    residual = max((max(np.abs(m.sum(axis=0) - 1).max(), np.abs(m.sum(axis=1) - 1).max())
                    for m in tracer.sinkhorn_outputs), default=0.0)
    fw = tracer.fw_infer_runs
    backward = calls["autodiff.backward"]
    out = {
        "projections.hungarian.calls": (hung, "count"),
        "projections.hungarian.self_ms": (ms("projections.hungarian"), "ms"),
        "projections.hungarian.lsa_calls": (tracer.counts["lsa"], "count"),
        "projections.hungarian.lsa_per_call": (tracer.counts["lsa"] / hung if hung else 0.0, "ratio"),
        "projections.sinkhorn.calls": (calls["projections.sinkhorn"], "count"),
        "projections.sinkhorn.self_ms": (ms("projections.sinkhorn"), "ms"),
        "projections.sinkhorn.iterations": (tracer.counts["sinkhorn_iterations"], "count"),
        "projections.sinkhorn.residual_max": (float(residual), "abs"),
        "qap.frank_wolfe_infer.calls": (calls["qap.frank_wolfe_infer"], "count"),
        "qap.frank_wolfe_infer.self_ms": (ms("qap.frank_wolfe_infer"), "ms"),
        "qap.frank_wolfe_infer.steps": (sum(s for s, _ in fw), "count"),
        "qap.frank_wolfe_infer.converged_ratio": (
            sum(c for _, c in fw) / len(fw) if fw else 0.0, "fraction"),
        "qap.fw_direction.calls": (calls["qap.fw_direction"], "count"),
        "qap.fw_direction.self_ms": (ms("qap.fw_direction"), "ms"),
        "qap.objective.calls": (calls["qap.objective"], "count"),
        "qap.objective.self_ms": (ms("qap.objective"), "ms"),
        "qap.objective_gradient.self_ms": (ms("qap.objective_gradient"), "ms"),
        "qap.frank_wolfe_train.self_ms": (ms("qap.frank_wolfe_train"), "ms"),
        "autodiff.backward.calls": (backward, "count"),
        "autodiff.backward.self_ms": (ms("autodiff.backward"), "ms"),
        "autodiff.tape_nodes": (tracer.counts["tape_nodes"] / backward if backward else 0.0, "count"),
        "train.grad_params.calls": (calls["train.grad_params"], "count"),
        "train.grad_params.self_ms": (ms("train.grad_params"), "ms"),
        "train.grad_params.ms_p50": (checks.percentile(grad_ms, 50) if grad_ms else 0.0, "ms"),
        "train.grad_params.ms_p90": (checks.percentile(grad_ms, 90) if grad_ms else 0.0, "ms"),
        "train.forward.calls": (calls["train.forward"], "count"),
        "train.forward.self_ms": (ms("train.forward"), "ms"),
        "train.sgd_step.self_ms": (ms("train.sgd_step"), "ms"),
        "train.train.self_ms": (ms("train.train"), "ms"),
        "refine.refine_pipeline.self_ms": (ms("refine.refine_pipeline"), "ms"),
        "refine.node_affinity.self_ms": (ms("refine.node_affinity"), "ms"),
        "refine.init_assignment.self_ms": (ms("refine.init_assignment"), "ms"),
        "graphs.build_graph.calls": (calls["graphs.build_graph"], "count"),
        "graphs.build_graph.self_ms": (ms("graphs.build_graph"), "ms"),
        "graphs.weighted_adjacency.calls": (calls["graphs.weighted_adjacency"], "count"),
        "graphs.weighted_adjacency.self_ms": (ms("graphs.weighted_adjacency"), "ms"),
        "losses.self_ms": (sum(v for k, v in self_s.items() if k.startswith("losses.")) * 1e3, "ms"),
        "synth.gen_dataset.ms": (gen_s * 1e3, "ms"),
        "bench.match_pair.calls": (calls["bench.match_pair"], "count"),
        "bench.match_pair.self_ms": (ms("bench.match_pair"), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.self_coverage": (sum(selfs) / traced_wall, "fraction"),
    }
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "quadmatch": str(Path(quadmatch.__file__).parent),
    }


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(quadmatch.__file__).resolve().parent != (SRC / "quadmatch").resolve():
        print(f"quadmatch loaded from {quadmatch.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "design.json").read_text())["workloads"][args.workload]
    state = setup(spec, args.seed)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    out.update(workload=args.workload, seed=args.seed, environment=environment())
    run = Run()
    if not args.trace:
        run_loop(spec, state, run, seconds=args.seconds)
        if run.answers:
            out["metrics"], out["named"] = end_to_end(spec, run)
        out["latencies_ms"] = {k: [x * 1e3 for x in v] for k, v in run.latencies.items()}
    else:
        untraced = Run()
        run_loop(spec, state, untraced, seconds=0.0, traced_work=True)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = "gen"
            t = time.perf_counter()
            regen = package_module("synth").gen_dataset(state["cfg"], len(state["pairs"]))
            gen_wall = time.perf_counter() - t
            run_loop(spec, state, run, seconds=0.0, tracer=tracer, traced_work=True)
        finally:
            tracer.uninstall()
        same_inputs = all(np.array_equal(a.a.attributes, b.a.attributes) and np.array_equal(a.gt, b.gt)
                          for a, b in zip(regen, state["pairs"]))
        if not same_inputs:
            run.problem("regenerating the dataset under the tracer gave other inputs")
        if answer_digest(spec, run) != answer_digest(spec, untraced):
            run.problem("tracing changed the answers")
        run.problems += untraced.problems
        out["metrics"] = per_layer(tracer, gen_wall + run.wall, run.wall - untraced.wall, state["gen_s"])
        coverage = out["metrics"]["trace.self_coverage"][0]
        if not 0.95 <= coverage <= 1.0 + 1e-9:
            run.problem(f"span self times cover {coverage:.3f} of the traced wall time")
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
        out["spans"] = str(spans_path.relative_to(HERE.parent))

    out.update(attempted=run.attempted, failed=run.failed, problems=run.problems,
               digest=answer_digest(spec, run))
    out["correct"] = not run.problems and run.failed == 0 and bool(run.answers)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
