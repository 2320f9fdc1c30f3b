"""Projections onto the doubly-stochastic set and onto permutation matrices.

These are the two feasibility projections used by the matching solver:
Sinkhorn normalization during training (differentiable) and the Hungarian
assignment at inference (discrete).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .errors import InvalidInputError

SINKHORN_MAX_ITER = 50


@dataclass
class SinkhornResult:
    matrix: object  # ndarray, or autodiff.Var on the training tape
    iterations: int


def sinkhorn(log_m) -> SinkhornResult:
    """Alternating row/column normalization toward a doubly-stochastic matrix.

    Takes the log of the matrix to normalize (finite entries whose span,
    maximum minus minimum, is a finite float), so affinities too spread out
    to exponentiate pass through without underflowing to zero; a positive
    matrix ``m`` goes in as ``ad.log(m)``. Returns the exponentiated iterate
    after ``SINKHORN_MAX_ITER`` rounds, a module constant rather than an
    argument, read once per call. The argument is never written to.

    The map is the fixed unrolled one the model trains through, not the
    limit: its result is not exactly doubly stochastic. The largest
    row or column sum error over the benchmark's traced seed-1 calls is
    0.0041, 0.0175 and 0.0407 on infer-ambiguous, train-easy and
    infer-outliers, and criterion C3 runs 100 rounds for its 1e-6 bound.

    Each half-step subtracts the log-sum-exp along one axis in seven ufunc
    calls, the oracle ``logsumexp``'s in the same order, so the same bits:
    the maximum and the sum reduce into two reused length-n buffers, seen
    through ``(n, 1)`` or ``(1, n)`` views, and the n-by-n temporary goes
    through one reused scratch buffer.

    Off the tape the log iterate is a private copy updated in place, and
    the loop stops at a bitwise fixed point: when a round ends on the bytes
    it started from, every remaining round would reproduce them, so the
    result is the one ``SINKHORN_MAX_ITER`` rounds give. ``iterations`` is
    the number of rounds computed, at most ``SINKHORN_MAX_ITER``.

    On the training tape the whole normalization is one node and every
    round runs (``iterations`` is ``SINKHORN_MAX_ITER``): the forward pass
    writes each normalized log iterate into one ``(2 * SINKHORN_MAX_ITER, n,
    n)`` block, held only while the tape lives, and exponentiates the whole
    block in place with one call once the loop ends; the backward pass
    replays the exponentiated iterates in reverse through the same buffers.
    Its gradient is bit for bit the one a tape holding one node per
    operation of the loop gives.
    """
    lv = ad.value(log_m)
    if lv.ndim != 2 or lv.shape[0] != lv.shape[1] or lv.shape[0] < 1:
        raise InvalidInputError(f"sinkhorn expects a square matrix, got shape {lv.shape}")
    # one span serves both checks: a NaN or an infinite entry makes it
    # non-finite, and so do finite entries whose shifts would overflow
    if not math.isfinite(span := float(lv.max()) - float(lv.min())):
        raise InvalidInputError(f"sinkhorn requires finite entries and a finite span, got {span}")

    rounds = SINKHORN_MAX_ITER
    on_tape = isinstance(log_m, ad.Var)
    n = lv.shape[0]
    top, tot = np.empty(n), np.empty(n)
    # the two reductions as kept size-1 axes: (n, 1) for rows, (1, n) for columns
    top_rows, tot_rows, top_cols, tot_cols = top[:, None], tot[:, None], top[None, :], tot[None, :]
    buf = np.empty_like(lv)
    if on_tape:
        iterates = np.empty((2 * rounds, n, n))
        x = lv
    else:
        x = np.array(lv)
        start = x.tobytes()
    for r in range(rounds):
        to_rows, to_cols = (iterates[2 * r], iterates[2 * r + 1]) if on_tape else (x, x)
        np.maximum.reduce(x, 1, None, top)
        np.subtract(x, top_rows, buf)
        np.exp(buf, buf)
        np.add.reduce(buf, 1, None, tot)
        np.log(tot, tot)
        np.add(top, tot, tot)
        x = np.subtract(x, tot_rows, to_rows)
        np.maximum.reduce(x, 0, None, top)
        np.subtract(x, top_cols, buf)
        np.exp(buf, buf)
        np.add.reduce(buf, 0, None, tot)
        np.log(tot, tot)
        np.add(top, tot, tot)
        x = np.subtract(x, tot_cols, to_cols)
        if not on_tape:
            end = x.tobytes()
            if end == start:
                return SinkhornResult(np.exp(x, x), r + 1)
            start = end
    if not on_tape:
        return SinkhornResult(np.exp(x, x), rounds)
    out = np.exp(x)
    np.exp(iterates, iterates)

    def bw(g):
        # reverse of x <- x - lse(x): g <- g - softmax * sum(g); the even
        # half-steps normalized rows, the odd ones columns
        g = g * out
        for k in range(2 * rounds - 1, 0, -1):
            axis, tot_v = (0, tot_cols) if k % 2 else (1, tot_rows)
            np.add.reduce(g, axis, None, tot)
            np.multiply(iterates[k], tot_v, buf)
            np.subtract(g, buf, g)
        # the first half-step reads log_m directly: add its two terms one at
        # a time, as a tape of one node per operation does, so that log_m's
        # other uses sum into its grad in the same order and the result is
        # the same
        log_m.grad += g
        log_m.grad -= iterates[0] * g.sum(axis=1, keepdims=True)

    return SinkhornResult(ad.Var(out, (log_m,), bw), rounds)


def hungarian(score) -> np.ndarray:
    """Permutation matrix maximizing ``sum(score * X)``, as float64 zeros and ones.

    One assignment solve gives an optimum sigma. A second solve, on the score
    with sigma's entries lowered by the tolerance, certifies sigma as the
    unique optimum when it returns sigma again. Only when it does not, a
    Floyd-Warshall pass runs over the graph whose edge r -> q costs the value
    lost when row r takes row q's column; every other permutation is sigma
    rotated along cycles of that graph, so sigma is still the unique optimum
    when the shortest cycle exceeds the tolerance. Otherwise ties are broken
    toward the lexicographically smallest optimal permutation (row 0's column
    first, then row 1's, ...): the shortest-path potentials mark the tight edges,
    which carry every optimal permutation, and rows are fixed in order to the
    smallest tight column that still admits a perfect matching on the tight
    edges left, which one more assignment solve, counting loose edges, tests.
    Not differentiable: rejects tape variables.
    """
    if isinstance(score, ad.Var):
        raise InvalidInputError("hungarian is not differentiable; pass a plain array")
    s = np.asarray(score, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise InvalidInputError(f"hungarian expects a square matrix, got shape {s.shape}")
    # one maximum serves both checks: a NaN or an infinite entry makes it non-finite
    top = float(np.maximum.reduce(np.abs(s), axis=None))
    if not math.isfinite(top):
        raise InvalidInputError("hungarian requires finite entries")

    n = s.shape[0]
    # near the float limit the solver's sums and the shortest paths overflow
    # (scipy then returns a worse permutation, and an infinite tol puts
    # inf * 0 = NaN in the second solve's score); halving is exact and moves
    # no optimum, so scores are halved until a sum of 4n of them is finite
    while not math.isfinite(4.0 * top * n):
        s, top = s / 2, top / 2
    tol = 1e-9 * max(1.0, top * n)
    rows, cols = linear_sum_assignment(s, maximize=True)
    perm = np.zeros((n, n))
    perm[rows, cols] = 1.0
    # lower sigma's entries by tol and solve again (s - tol * perm leaves every
    # other entry exactly as it is): sigma drops by n * tol, any other
    # permutation, which moves k >= 2 rows off sigma, by only (n - k) * tol,
    # so if sigma still wins it leads every other by 2 * tol
    if linear_sum_assignment(s - tol * perm, maximize=True)[1].tolist() == cols.tolist():
        return perm

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
                # a perfect matching on tight edges exists exactly when the
                # assignment minimizing the count of loose edges uses none
                loose = ~tight[i + 1:][:, rest]
                left, match = linear_sum_assignment(loose)
                if not loose[left, match].any():
                    cols[i], cols[i + 1:] = j, rest[match]
                    break
            free[cols[i]] = False
        perm.fill(0.0)
        perm[rows, cols] = 1.0
    return perm
