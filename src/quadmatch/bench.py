"""Inference benchmarking: full pipeline, ablations, and robustness sweeps.

The report always carries four rows: the full pipeline, the no-QC variant
(Sinkhorn-projected affinity rounded by Hungarian, no Frank-Wolfe), the
no-pairwise variant (binary adjacency in the solved objective), and the
no-prior variant (coordinate columns zeroed out of the node attributes).
Wall-clock lives only in the JSON form of the report; the CSV form is
byte-reproducible for fixed seeds.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError, NumericalFailureError
from .graphs import Graph, GraphPair, assemble_attributes
from .losses import accuracy, f1_score, matrix_to_permutation, permutation_to_matrix
from .projections import hungarian
from .qap import (FW_INFER_ROUNDS, FW_INFER_TOL, FW_TRAIN_INNER, FW_TRAIN_OUTER, SolveTrace,
                  frank_wolfe_infer, objective)
from .refine import ParameterSet
from .synth import inject_outliers
from .train import forward

VARIANTS = ("full", "no_qc", "no_pairwise", "no_prior")


@dataclass
class MatchResult:
    permutation: np.ndarray       # match vector, a-node index -> b-node index
    matrix: np.ndarray
    objective: float
    accuracy: float
    f1: float
    trace: SolveTrace


@dataclass
class VariantResult:
    variant: str
    n_pairs: int
    n_failures: int
    mean_accuracy: float
    mean_f1: float
    mean_objective: float
    wall_clock_s: float


@dataclass
class ExperimentReport:
    rows: list[VariantResult] = field(default_factory=list)

    def row(self, variant: str) -> VariantResult:
        for r in self.rows:
            if r.variant == variant:
                return r
        raise KeyError(variant)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("variant,n_pairs,n_failures,mean_accuracy,mean_f1,mean_objective\n")
        for r in self.rows:
            buf.write(f"{r.variant},{r.n_pairs},{r.n_failures},"
                      f"{r.mean_accuracy!r},{r.mean_f1!r},{r.mean_objective!r}\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    def to_json(self) -> str:
        return json.dumps({"rows": [vars(r) for r in self.rows]}, indent=2, sort_keys=True)


def _strip_prior(pair: GraphPair) -> GraphPair:
    """Zero the coordinate columns of both attribute matrices.

    Keeps dimensions (so one checkpoint serves every report row) while
    removing all coordinate information from the unary side; the kernel and
    GCN see exactly what they would with the columns dropped.
    """
    def strip(g: Graph) -> Graph:
        attrs = assemble_attributes(g.keypoints.features, np.zeros_like(g.coords_norm))
        return replace(g, attributes=attrs)

    return GraphPair(strip(pair.a), strip(pair.b), pair.gt)


def check_solver_args(*, m1: int = FW_TRAIN_OUTER, m2: int = FW_TRAIN_INNER,
                      infer_rounds: int = FW_INFER_ROUNDS,
                      infer_tol: float = FW_INFER_TOL) -> None:
    """Raise InvalidInputError unless the solver loop counts are non-negative
    integers and the inference tolerance is a number."""
    for key, val in (("m1", m1), ("m2", m2), ("infer_rounds", infer_rounds)):
        if isinstance(val, bool) or not isinstance(val, int) or val < 0:
            raise InvalidInputError(f"solver {key} must be a non-negative integer")
    if isinstance(infer_tol, bool) or not isinstance(infer_tol, (int, float)):
        raise InvalidInputError("solver infer_tol must be a number")


def match_pair(pair: GraphPair, params: ParameterSet, variant: str = "full", *,
               m1: int = FW_TRAIN_OUTER, m2: int = FW_TRAIN_INNER,
               infer_rounds: int = FW_INFER_ROUNDS, infer_tol: float = FW_INFER_TOL) -> MatchResult:
    """Run one inference variant on one pair and score it against the truth."""
    check_solver_args(m1=m1, m2=m2, infer_rounds=infer_rounds, infer_tol=infer_tol)
    if variant not in VARIANTS:
        raise InvalidInputError(f"variant must be one of {VARIANTS}")
    if variant == "no_prior":
        pair = _strip_prior(pair)
    res = forward(pair, params, m1=0 if variant == "no_qc" else m1, m2=m2,
                  use_binary_adjacency=(variant == "no_pairwise"))
    x = ad.value(res.assignment)
    inst = res.instance.values()
    if variant == "no_qc":
        matrix = hungarian(x)
        trace = res.trace
    else:
        matrix, trace = frank_wolfe_infer(x, inst, m=infer_rounds, tol=infer_tol)
    x_star = permutation_to_matrix(pair.gt, pair.b.n)
    return MatchResult(
        permutation=matrix_to_permutation(matrix),
        matrix=matrix,
        objective=float(objective(matrix, inst)),
        accuracy=accuracy(matrix, x_star),
        f1=f1_score(matrix, x_star),
        trace=trace,
    )


def evaluate_pairs(pairs, params: ParameterSet, variant: str = "full", **kwargs) -> VariantResult:
    """Mean metrics of one variant over a dataset; per-pair failures are
    counted and skipped rather than aborting the run. Invalid solver
    settings are the caller's error and raise before any pair runs."""
    if not pairs:
        raise InvalidInputError("evaluation requires a non-empty dataset")
    check_solver_args(**kwargs)
    t0 = time.perf_counter()
    accs, f1s, objs = [], [], []
    failures = 0
    for pair in pairs:
        try:
            r = match_pair(pair, params, variant, **kwargs)
        except (InvalidInputError, NumericalFailureError):
            failures += 1
            continue
        accs.append(r.accuracy)
        f1s.append(r.f1)
        objs.append(r.objective)
    wall = time.perf_counter() - t0
    if not accs:
        return VariantResult(variant, len(pairs), failures, 0.0, 0.0, 0.0, wall)
    return VariantResult(variant, len(pairs), failures, float(np.mean(accs)),
                         float(np.mean(f1s)), float(np.mean(objs)), wall)


def run_benchmark(pairs, params: ParameterSet, **kwargs) -> ExperimentReport:
    """Evaluate all four pipeline variants over the dataset."""
    if not pairs:
        raise InvalidInputError("benchmark requires a non-empty dataset")
    return ExperimentReport([evaluate_pairs(pairs, params, v, **kwargs) for v in VARIANTS])


def outlier_sweep(pairs, params: ParameterSet, ks=(0, 1, 2, 3, 4), *,
                  outlier_sigma: float = 10.0, seed: int = 0, **kwargs) -> list[dict]:
    """Accuracy/F1 of the full pipeline as outliers are injected.

    Each sweep point re-injects into the clean pairs with a seed derived
    from the sweep seed, so the whole curve is reproducible.
    """
    rows = []
    for k in ks:
        child_seeds = np.random.SeedSequence((seed, k)).spawn(len(pairs))
        noisy = [inject_outliers(p, k, outlier_sigma, rng=np.random.default_rng(cs))
                 for p, cs in zip(pairs, child_seeds)]
        res = evaluate_pairs(noisy, params, "full", **kwargs)
        rows.append({"k": k, "mean_accuracy": res.mean_accuracy, "mean_f1": res.mean_f1,
                     "n_failures": res.n_failures})
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write("k,mean_accuracy,mean_f1,n_failures\n")
    for r in rows:
        buf.write(f"{r['k']},{r['mean_accuracy']!r},{r['mean_f1']!r},{r['n_failures']}\n")
    return buf.getvalue()
