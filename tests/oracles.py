"""Slow reference implementations that the fast product paths are tested against."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from quadmatch import autodiff as ad
from quadmatch.losses import LossConfig, permutation_to_matrix
from quadmatch.projections import SINKHORN_MAX_ITER, SINKHORN_TOL, SinkhornResult, hungarian
from quadmatch.qap import (FW_INFER_MAX_INNER, FW_INFER_ROUNDS, FW_TRAIN_INNER, FW_TRAIN_OUTER,
                           QapInstance, SolveTrace, TraceStep, fw_direction, fw_step_size,
                           objective)
from quadmatch.refine import TRAIN_KERNEL_EPS
from quadmatch.train import _loss_fn, forward

FD_STEP = 1e-5


def lexicographic_hungarian(score) -> np.ndarray:
    """Lexicographically smallest optimal permutation by O(n^2) assignment solves.

    Rows are fixed in order to the smallest column whose best completion,
    found by a full assignment solve on the remaining rows and columns,
    still reaches the optimum within the tolerance of ``hungarian``.
    """
    s = np.asarray(score, dtype=float)
    n = s.shape[0]
    best_value = _lap_value(s)
    tol = 1e-9 * max(1.0, float(np.abs(s).max()) * n)

    perm = np.zeros((n, n), dtype=float)
    cols = list(range(n))
    prefix = 0.0
    for i in range(n):
        for pos, j in enumerate(cols):
            rest = _lap_value(s[i + 1:][:, [c for c in cols if c != j]])
            if prefix + s[i, j] + rest >= best_value - tol:
                perm[i, j] = 1.0
                prefix += s[i, j]
                del cols[pos]
                break
        else:  # the optimal column always qualifies
            raise AssertionError("no column admits an optimal completion")
    return perm


def _lap_value(s: np.ndarray) -> float:
    if s.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(s, maximize=True)
    return float(s[rows, cols].sum())


def unrolled_sinkhorn(m, max_iter: int = SINKHORN_MAX_ITER, tol: float = SINKHORN_TOL, *,
                      log_input: bool = False) -> SinkhornResult:
    """Sinkhorn normalization built from tape primitives, one node per operation.

    Same iteration and stopping rule as ``projections.sinkhorn``; on a tape
    ``Var`` every half-step adds a ``logsumexp`` and a ``sub`` node, so
    reverse mode differentiates the unrolled loop operation by operation.
    """
    log_x = m if log_input else ad.log(m)
    converged = tol <= 0.0
    iterations = 0
    for i in range(max_iter):
        log_x = log_x - ad.logsumexp(log_x, axis=1, keepdims=True)
        log_x = log_x - ad.logsumexp(log_x, axis=0, keepdims=True)
        iterations = i + 1
        if tol > 0.0:
            lv = ad.value(log_x)
            row_dev = np.abs(np.exp(ad.logsumexp(lv, axis=1)) - 1.0).max()
            col_dev = np.abs(np.exp(ad.logsumexp(lv, axis=0)) - 1.0).max()
            if max(row_dev, col_dev) < tol:
                converged = True
                break
    return SinkhornResult(ad.exp(log_x), converged, iterations)


def stepwise_frank_wolfe_infer(x0, inst: QapInstance):
    """Discrete Frank-Wolfe built from the public per-step functions.

    Same rounds, steps, stopping rules and trace as ``qap.frank_wolfe_infer``,
    but each step calls ``fw_direction`` for the Hungarian direction and
    ``objective`` for the traced value, so the residual is formed afresh in
    each of them.
    """
    x = np.asarray(x0, dtype=float)
    inst_v = inst.values()
    trace = SolveTrace(converged=False)

    best = hungarian(x)
    best_val = float(objective(best, inst_v))

    prev_rounded = None
    for outer in range(FW_INFER_ROUNDS):
        for inner in range(FW_INFER_MAX_INNER):
            eps = fw_step_size(inner)
            s = fw_direction(x, inst_v, "inference")
            fixed = np.array_equal(s, x)
            x = x - eps * (x - s)
            trace.steps.append(TraceStep(outer, inner, eps, float(objective(x, inst_v))))
            if fixed:
                break
        rounded = hungarian(x)
        val = float(objective(rounded, inst_v))
        if val < best_val:
            best, best_val = rounded, val
        if prev_rounded is not None and np.array_equal(rounded, prev_rounded):
            trace.converged = True
            break
        prev_rounded = rounded
        x = rounded
    return best, trace


def finite_difference_grad(pair, params, loss_cfg: LossConfig, *, loss: str = "false_matching",
                           m1: int = FW_TRAIN_OUTER, m2: int = FW_TRAIN_INNER, tau: float = 1.0,
                           step: float = FD_STEP):
    """Central differences of the matching loss in every scalar parameter.

    Evaluates the same forward map as ``train.grad_params``, two forward
    passes per parameter, and returns the same triple: (gradients in
    parameter shape, loss value, forward assignment).
    """
    x_star = permutation_to_matrix(pair.gt, pair.b.n)
    loss_f = _loss_fn(loss)

    def run(flat_vec: np.ndarray) -> np.ndarray:
        p = params.replace_flat(flat_vec)
        return forward(pair, p, m1=m1, m2=m2, tau=tau, kernel_eps=TRAIN_KERNEL_EPS).assignment

    theta = params.flatten()
    x_val = run(theta)
    grad_flat = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = step
        up = float(loss_f(run(theta + bump), x_star, loss_cfg))
        down = float(loss_f(run(theta - bump), x_star, loss_cfg))
        grad_flat[i] = (up - down) / (2 * step)
    return params.replace_flat(grad_flat), float(loss_f(x_val, x_star, loss_cfg)), x_val


def false_matching_loss_grad(x, x_star, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Closed-form gradient of the false-matching loss in the prediction."""
    xs = np.asarray(x_star, dtype=float)
    xv = ad.value(x)
    s_plus = float(np.sum(xv * (1.0 - xs)))
    s_minus = float(np.sum(xs * (1.0 - xv)))
    return cfg.alpha * np.exp(cfg.alpha * s_plus) * (1.0 - xs) - cfg.beta * np.exp(cfg.beta * s_minus) * xs
