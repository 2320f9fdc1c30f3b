"""Inference benchmarking: full pipeline, ablations, and robustness sweeps.

The report always carries four rows: the full pipeline, the no-QC variant
(Sinkhorn-projected affinity rounded by Hungarian, no Frank-Wolfe), the
no-pairwise variant (binary adjacency in the solved objective), and the
no-prior variant (coordinate columns zeroed out of the node attributes).
Every variant starts from ``refine.forward``, the front end that training
shares; inference needs nothing from the training module. Wall-clock lives
only in the JSON form of the report; the CSV form is byte-reproducible for
fixed seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, require_seed
from .files import csv_text, json_text
from .graphs import Graph, GraphPair
from .losses import accuracy, f1_score, matrix_to_permutation, permutation_to_matrix
from .projections import hungarian
from .qap import (FW_TRAIN_INNER, FW_TRAIN_OUTER, QapInstance, SolveTrace, frank_wolfe_infer,
                  frank_wolfe_train, objective)
from .refine import ParameterSet, check_widths, forward
from .synth import inject_outliers

ABLATIONS = ("qc", "pairwise", "prior")
VARIANTS = ("full",) + tuple(f"no_{a}" for a in ABLATIONS)
# outliers injected per graph at each point of the robustness sweep (C9),
# each drawn at synth.OUTLIER_SIGMA
SWEEP_KS = (0, 1, 2, 3, 4)


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
    rows: list[VariantResult]

    def row(self, variant: str) -> VariantResult:
        for r in self.rows:
            if r.variant == variant:
                return r
        raise KeyError(variant)

    def to_csv(self) -> str:
        return csv_text("variant,n_pairs,n_failures,mean_accuracy,mean_f1,mean_objective",
                        ((r.variant, r.n_pairs, r.n_failures, r.mean_accuracy, r.mean_f1,
                          r.mean_objective) for r in self.rows))

    def to_json(self) -> str:
        return json_text({"rows": [vars(r) for r in self.rows]})


def _strip_prior(pair: GraphPair) -> GraphPair:
    """Zero the coordinate columns of both attribute matrices.

    Keeps dimensions (so one checkpoint serves every report row) while
    removing all coordinate information from the unary side; the kernel and
    GCN see exactly what they would with the columns dropped.
    """
    def strip(g: Graph) -> Graph:
        attributes = g.attributes.copy()
        attributes[:, -2:] = 0.0
        return replace(g, attributes=attributes)

    return GraphPair(strip(pair.a), strip(pair.b), pair.gt)


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise InvalidInputError(f"variant must be one of {VARIANTS}")


def match_pair(pair: GraphPair, params: ParameterSet, variant: str) -> MatchResult:
    """Run one inference variant on one pair and score it against the truth.

    Every variant starts from ``forward`` and differs from ``full`` in one
    place: ``no_prior`` zeroes the coordinate columns of the inputs,
    ``no_pairwise`` scores the plain 0/1 adjacencies in place of the refined
    weighted ones, and ``no_qc`` rounds the Sinkhorn start with Hungarian and
    solves nothing. The others run at the pinned inference settings, which
    this call passes: a ``frank_wolfe_train`` warm start of m1=3 rounds
    (``FW_TRAIN_OUTER``) of m2=5 smooth steps (``FW_TRAIN_INNER``) at
    tau=1.0, then ``frank_wolfe_infer``.
    """
    _check_variant(variant)
    if variant == "no_prior":
        pair = _strip_prior(pair)
    start, inst = forward(pair, params)
    if variant == "no_pairwise":
        inst = QapInstance(pair.a.adjacency, pair.b.adjacency, inst.x_u)
    if variant == "no_qc":
        matrix, trace = hungarian(start), SolveTrace()
    else:
        matrix, trace = frank_wolfe_infer(
            frank_wolfe_train(start, inst, FW_TRAIN_OUTER, FW_TRAIN_INNER, tau=1.0), inst)
    x_star = permutation_to_matrix(pair.gt)
    return MatchResult(
        permutation=matrix_to_permutation(matrix),
        matrix=matrix,
        objective=float(objective(matrix, inst)),
        accuracy=accuracy(matrix, x_star),
        f1=f1_score(matrix, x_star),
        trace=trace,
    )


def evaluate_pairs(pairs, params: ParameterSet, variant: str) -> VariantResult:
    """Mean metrics of one variant over a dataset; per-pair failures are
    counted and skipped rather than aborting the run. An unknown variant, or
    a pair whose attribute width the parameters do not take, is the
    caller's error and raises before any pair runs."""
    if not pairs:
        raise InvalidInputError("evaluation requires a non-empty dataset")
    _check_variant(variant)
    check_widths(pairs, params)
    t0 = time.perf_counter()
    scores = []
    for pair in pairs:
        try:
            r = match_pair(pair, params, variant)
        except (InvalidInputError, NumericalFailureError):
            continue
        scores.append((r.accuracy, r.f1, r.objective))
    wall = time.perf_counter() - t0
    means = [float(np.mean(column)) for column in zip(*scores)] or [0.0, 0.0, 0.0]
    return VariantResult(variant, len(pairs), len(pairs) - len(scores), *means, wall)


def run_benchmark(pairs, params: ParameterSet) -> ExperimentReport:
    """Evaluate all four pipeline variants over the dataset."""
    return ExperimentReport([evaluate_pairs(pairs, params, v) for v in VARIANTS])


def outlier_sweep(pairs, params: ParameterSet, *, seed: int) -> list[dict]:
    """Accuracy/F1 of the full pipeline as k = ``SWEEP_KS`` outliers are
    injected into each graph.

    Each sweep point re-injects into the clean pairs with a seed derived
    from the sweep seed (an integer >= 0) and k alone, so the whole curve is
    reproducible.
    """
    require_seed(seed)
    rows = []
    for k in SWEEP_KS:
        child_seeds = np.random.SeedSequence((seed, k)).spawn(len(pairs))
        noisy = [inject_outliers(p, k, rng=np.random.default_rng(cs))
                 for p, cs in zip(pairs, child_seeds)]
        res = evaluate_pairs(noisy, params, "full")
        rows.append({"k": k, "mean_accuracy": res.mean_accuracy, "mean_f1": res.mean_f1,
                     "n_failures": res.n_failures})
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    return csv_text("k,mean_accuracy,mean_f1,n_failures",
                    ((r["k"], r["mean_accuracy"], r["mean_f1"], r["n_failures"]) for r in rows))
