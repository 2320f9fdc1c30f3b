"""Every slow reference the fast product paths are tested against, and every
random input that more than one test draws, each defined once.

- References: ``central_difference`` (and ``finite_difference_grad`` on it),
  ``naive_objective``, ``brute_force_assignment``, ``brute_force_qap``,
  ``brute_force_delaunay``, ``lexicographic_hungarian``,
  ``floyd_warshall_hungarian``, ``logsumexp`` and ``unrolled_sinkhorn``,
  ``stepwise_frank_wolfe_infer`` with ``assert_trace_extends``, and
  ``false_matching_loss_grad``.
- Random inputs: ``random_symmetric_hollow``, ``random_instance`` and
  ``random_doubly_stochastic``.
- ``sinkhorn_rounds``, the one way a test runs Sinkhorn at a round count
  other than the product's.
"""

import itertools
from unittest import mock

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from quadmatch import autodiff as ad
from quadmatch import projections
from quadmatch.errors import InvalidInputError
from quadmatch.losses import LossConfig, permutation_to_matrix
from quadmatch.qap import (FW_INFER_MAX_INNER, FW_INFER_ROUNDS, QapInstance, SolveTrace,
                           TraceStep, frank_wolfe_train, fw_step_size, objective,
                           objective_gradient)
from quadmatch.refine import forward
from quadmatch.train import LOSSES, TrainConfig

FD_STEP = 1e-5


def central_difference(f, x, h: float) -> np.ndarray:
    """Central differences, with step ``h``, of a scalar function of one array."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[idx] += h
        down[idx] -= h
        g[idx] = (f(up) - f(down)) / (2 * h)
    return g


def random_symmetric_hollow(rng, n) -> np.ndarray:
    """A symmetric n x n Gaussian matrix with a zero diagonal."""
    m = rng.normal(size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


def random_instance(rng, n) -> QapInstance:
    """Two ``random_symmetric_hollow`` adjacencies and a unary in [0.1, 1)."""
    return QapInstance(random_symmetric_hollow(rng, n),
                       random_symmetric_hollow(rng, n),
                       rng.uniform(0.1, 1.0, size=(n, n)))


def random_doubly_stochastic(rng, n) -> np.ndarray:
    """``sinkhorn`` of the log of an n x n matrix drawn uniformly from [0.1, 1)."""
    return ad.value(projections.sinkhorn(np.log(rng.uniform(0.1, 1.0, size=(n, n)))).matrix)


def naive_objective(x, inst: QapInstance) -> float:
    """Elementwise recomputation of the Frobenius expansion."""
    n = inst.n
    a, b, u = inst.a_d, inst.b_d, inst.x_u
    xbx = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                for l in range(n):
                    acc += x[i, k] * b[k, l] * x[j, l]
            xbx[i, j] = acc
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += (a[i, j] - xbx[i, j]) ** 2
            total -= u[i, j] * x[i, j]
    return total


def brute_force_assignment(score):
    """Exhaustive search over all permutations; returns (value, permutation)."""
    n = score.shape[0]
    best_val, best_perm = -np.inf, None
    for perm in itertools.permutations(range(n)):
        val = sum(score[i, j] for i, j in enumerate(perm))
        if val > best_val:
            best_val, best_perm = val, perm
    return best_val, best_perm


def brute_force_delaunay(coords) -> np.ndarray:
    """Edge (i, j) is Delaunay iff some circumcircle through i, j, k is empty.

    Valid for point sets in general position (no ties generated in tests).
    """
    c = np.asarray(coords, dtype=float)
    n = len(c)
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k in (i, j):
                    continue
                center, r2 = _circumcircle(c[i], c[j], c[k])
                if center is None:
                    continue
                dists = ((c - center) ** 2).sum(axis=1)
                inside = dists < r2 - 1e-12
                inside[[i, j, k]] = False
                if not inside.any():
                    adj[i, j] = adj[j, i] = 1.0
                    break
    return adj


def _circumcircle(a, b, c):
    d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < 1e-14:
        return None, None
    ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
    uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
    center = np.array([ux, uy])
    return center, ((a - center) ** 2).sum()


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


def floyd_warshall_hungarian(score) -> np.ndarray:
    """``projections.hungarian`` certified by Floyd-Warshall alone.

    The product function as it was before the second-solve certificate: one
    assignment solve gives an optimum sigma. Every other permutation is
    sigma rotated along cycles of the graph whose edge r -> q costs the value
    lost when row r takes row q's column; a Floyd-Warshall pass over that
    graph certifies sigma as the unique optimum when its shortest cycle
    exceeds the tolerance. Otherwise ties are broken toward the
    lexicographically smallest optimal permutation (row 0's column first,
    then row 1's, ...): the shortest-path potentials mark the tight edges,
    which carry every optimal permutation, and rows are fixed in order to the
    smallest tight column that still admits a perfect matching on the tight
    edges left. Not differentiable: rejects tape variables.
    """
    if isinstance(score, ad.Var):
        raise InvalidInputError("hungarian is not differentiable; pass a plain array")
    s = np.asarray(score, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise InvalidInputError(f"hungarian expects a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise InvalidInputError("hungarian requires finite entries")

    n = s.shape[0]
    tol = 1e-9 * max(1.0, float(np.abs(s).max()) * n)
    _, cols = linear_sum_assignment(s, maximize=True)

    # loss[r, q]: value lost when row r takes row q's column; the solve is
    # optimal, so no cycle is negative and shortest paths are well defined
    loss = s[np.arange(n), cols][None, :] - s[:, cols]
    d = loss.copy()
    for k in range(n):
        np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :], out=d)
    cycle = d + d.T
    np.fill_diagonal(cycle, np.inf)
    if cycle.min() <= tol:
        phi = d.min(axis=0)
        tight = np.zeros((n, n), dtype=bool)
        tight[:, cols] = loss + phi[:, None] - phi[None, :] <= tol
        free = np.ones(n, dtype=bool)
        # invariant: cols[i:] is a perfect matching of the unfixed rows onto
        # the free columns using tight edges only
        for i in range(n):
            for j in np.flatnonzero(tight[i] & free):
                if j == cols[i]:
                    break
                rest = np.flatnonzero(free)
                rest = rest[rest != j]
                match = maximum_bipartite_matching(
                    csr_matrix(tight[i + 1:][:, rest]), perm_type="column")
                if np.all(match >= 0):
                    cols[i], cols[i + 1:] = j, rest[match]
                    break
            free[cols[i]] = False
    return np.eye(n)[cols]


def brute_force_qap(inst: QapInstance):
    """Global optimum of ``objective`` over all n! permutation matrices.

    Returns (optimal value, an optimal permutation matrix). A permutation
    sigma (row i takes column sigma[i]) turns X B X^T into B indexed by
    sigma on both axes, so every permutation is scored at once.
    """
    a, b, u = inst.a_d, inst.b_d, inst.x_u
    n = inst.n
    perms = np.array(list(itertools.permutations(range(n))))
    resid = a - b[perms[:, :, None], perms[:, None, :]]
    values = np.sum(resid * resid, axis=(1, 2)) - u[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(values))
    return float(values[best]), np.eye(n)[perms[best]]


def logsumexp(a, axis: int, keepdims: bool = False):
    """Fused log-sum-exp reduction; backward is the softmax along ``axis``.

    On a plain array this is the ufunc sequence ``projections.sinkhorn``
    runs per half-step, so the unrolled oracle below reproduces its bits.
    """
    av = ad.value(a)
    m = np.max(av, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(av - m), axis=axis, keepdims=True))
    if not isinstance(a, ad.Var):
        return out if keepdims else np.squeeze(out, axis=axis)
    soft = np.exp(av - out)

    def bw(g):
        gg = np.asarray(g)
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        a.grad += soft * gg

    return ad.Var(out if keepdims else np.squeeze(out, axis=axis), (a,), bw)


def sinkhorn_rounds(rounds: int):
    """Context manager that runs ``projections.sinkhorn`` and
    ``unrolled_sinkhorn`` at ``rounds`` rounds instead of
    ``SINKHORN_MAX_ITER``; it patches the module constant both read, so it
    also works inside a hypothesis test body."""
    return mock.patch.object(projections, "SINKHORN_MAX_ITER", rounds)


def unrolled_sinkhorn(log_m) -> projections.SinkhornResult:
    """Sinkhorn normalization built from tape primitives, one node per operation.

    Same input and result as ``projections.sinkhorn``, but it runs every one
    of the ``projections.SINKHORN_MAX_ITER`` rounds, as the tape branch does
    (read at call time, so ``sinkhorn_rounds`` applies); on a tape ``Var``
    every half-step adds a ``logsumexp`` and a ``sub`` node, so reverse mode
    differentiates the unrolled loop operation by operation.
    """
    rounds = projections.SINKHORN_MAX_ITER
    log_x = log_m
    for _ in range(rounds):
        log_x = log_x - logsumexp(log_x, axis=1, keepdims=True)
        log_x = log_x - logsumexp(log_x, axis=0, keepdims=True)
    return projections.SinkhornResult(ad.exp(log_x), rounds)


def stepwise_frank_wolfe_infer(x0, inst: QapInstance):
    """Discrete Frank-Wolfe built from the public per-step functions.

    Same rounds, steps, fixed-point stop and trace as ``qap.frank_wolfe_infer``,
    but each step takes the Hungarian direction from ``objective_gradient`` and
    ``objective`` for the traced value, so the residual is formed afresh in
    each of them, and every Hungarian call is ``floyd_warshall_hungarian``.
    Between rounds it stops only when a rounding equals the previous round's,
    where the solver stops at a repeat of any earlier round's: on a cycle of
    two or more roundings it replays the cycle up to ``FW_INFER_ROUNDS``, so
    its trace extends the solver's (see ``assert_trace_extends``) and its
    answer is the same.
    """
    x = np.asarray(x0, dtype=float)
    trace = SolveTrace(converged=False)

    best = floyd_warshall_hungarian(x)
    best_val = float(objective(best, inst))

    prev_rounded = None
    for outer in range(FW_INFER_ROUNDS):
        for inner in range(FW_INFER_MAX_INNER):
            eps = fw_step_size(inner)
            s = floyd_warshall_hungarian(-objective_gradient(x, inst))
            fixed = np.array_equal(s, x)
            x = x - eps * (x - s)
            trace.steps.append(TraceStep(outer, inner, eps, float(objective(x, inst))))
            if fixed:
                break
        rounded = floyd_warshall_hungarian(x)
        val = float(objective(rounded, inst))
        if val < best_val:
            best, best_val = rounded, val
        if prev_rounded is not None and np.array_equal(rounded, prev_rounded):
            trace.converged = True
            break
        prev_rounded = rounded
        x = rounded
    return best, trace


def assert_trace_extends(trace: SolveTrace, oracle: SolveTrace) -> None:
    """The solver's trace against ``stepwise_frank_wolfe_infer``'s on one solve.

    Either both ran the same steps, and the traces are identical with equal
    ``converged``; or the solver met a cycle of two or more roundings and
    stopped first: its trace is a strict prefix of the oracle's, it
    converged, and the oracle replayed the cycle through all
    ``FW_INFER_ROUNDS`` rounds without converging.
    """
    csv, csv_o = trace.to_csv(), oracle.to_csv()
    if len(trace.steps) == len(oracle.steps):
        assert csv == csv_o
        assert trace.converged == oracle.converged
    else:
        assert len(trace.steps) < len(oracle.steps) and csv_o.startswith(csv)
        assert trace.converged and not oracle.converged
        assert oracle.steps[-1].outer == FW_INFER_ROUNDS - 1


def finite_difference_grad(pair, params, cfg: TrainConfig, *, step: float = FD_STEP):
    """Central differences of the matching loss in every scalar parameter.

    Evaluates the same forward map and loss as ``train.grad_params`` at the
    settings of ``cfg``, two forward passes per parameter, and returns the
    same triple: (the flat gradient, in ``params.flatten()`` order, loss
    value, forward assignment).
    """
    x_star = permutation_to_matrix(pair.gt)
    loss_f, loss_cfg = LOSSES[cfg.loss], cfg.loss_cfg

    def run(flat_vec: np.ndarray) -> np.ndarray:
        p = params.replace_flat(flat_vec)
        return frank_wolfe_train(*forward(pair, p), cfg.m1, cfg.m2, tau=cfg.tau)

    def loss(flat_vec: np.ndarray) -> float:
        return float(loss_f(run(flat_vec), x_star, loss_cfg))

    theta = params.flatten()
    x_val = run(theta)
    return central_difference(loss, theta, step), float(loss_f(x_val, x_star, loss_cfg)), x_val


def false_matching_loss_grad(x, x_star, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Closed-form gradient of the false-matching loss in the prediction."""
    xs = np.asarray(x_star, dtype=float)
    xv = ad.value(x)
    s_plus = float(np.sum(xv * (1.0 - xs)))
    s_minus = float(np.sum(xs * (1.0 - xv)))
    return cfg.alpha * np.exp(cfg.alpha * s_plus) * (1.0 - xs) - cfg.beta * np.exp(cfg.beta * s_minus) * xs
