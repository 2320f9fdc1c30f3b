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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from . import autodiff as ad
from .errors import InvalidInputError

SINKHORN_MAX_ITER = 50


@dataclass
class SinkhornResult:
    matrix: object  # ndarray, or autodiff.Var on the training tape
    iterations: int


def _logsumexp(x: np.ndarray, axis: int, buf: np.ndarray) -> np.ndarray:
    """Log-sum-exp along ``axis``, kept as a size-1 axis, through ``buf``.

    The ufuncs of the oracle ``logsumexp`` in the same order, so the same
    bits, with the n-by-n temporary in the scratch buffer ``buf`` (clobbered).
    """
    top = np.maximum.reduce(x, axis=axis, keepdims=True)
    np.subtract(x, top, out=buf)
    np.exp(buf, out=buf)
    total = np.add.reduce(buf, axis=axis, keepdims=True)
    np.log(total, out=total)
    return np.add(top, total, out=total)


def sinkhorn(log_m, max_iter: int = SINKHORN_MAX_ITER) -> SinkhornResult:
    """Alternating row/column normalization toward a doubly-stochastic matrix.

    Takes the log of the matrix to normalize (finite entries), so affinities
    too spread out to exponentiate pass through without underflowing to
    zero; a positive matrix ``m`` goes in as ``ad.log(m)``. Runs exactly
    ``max_iter`` rounds, which keeps the map smooth for differentiation, and
    returns the exponentiated last iterate. The argument is never written to.

    Each half-step subtracts the log-sum-exp along one axis, computed by
    direct ufunc calls through one reused scratch buffer; off the tape the
    log iterate is a private copy updated in place, so a call allocates a
    fixed handful of n-by-n arrays whatever ``max_iter`` is.

    On the training tape the whole normalization is one node: each half-step
    writes a new array, because the forward pass keeps every normalized log
    iterate (up to ``2 * max_iter`` n-by-n arrays, held only while the tape
    lives), and the backward pass replays them in reverse through one
    scratch buffer. Its gradient is bit for bit the one a tape holding one
    node per operation of the loop gives.
    """
    lv = ad.value(log_m)
    if lv.ndim != 2 or lv.shape[0] != lv.shape[1] or lv.shape[0] < 1:
        raise InvalidInputError(f"sinkhorn expects a square matrix, got shape {lv.shape}")
    if not np.all(np.isfinite(lv)):
        raise InvalidInputError("sinkhorn requires finite entries")

    on_tape = isinstance(log_m, ad.Var)
    iterates = []  # (axis, normalized log iterate) per half-step, tape only
    log_x = np.array(lv)
    buf = np.empty_like(log_x)
    for _ in range(max_iter):
        for axis in (1, 0):
            lse = _logsumexp(log_x, axis, buf)
            log_x = np.subtract(log_x, lse, out=None if on_tape else log_x)
            if on_tape:
                iterates.append((axis, log_x))
    if not on_tape:
        return SinkhornResult(np.exp(log_x, out=log_x), max_iter)
    out = np.exp(log_x)

    def bw(g):
        # reverse of log_x <- log_x - lse(log_x): g <- g - softmax * sum(g)
        g = g * out
        for axis, y in reversed(iterates[1:]):
            total = np.add.reduce(g, axis=axis, keepdims=True)
            np.multiply(np.exp(y, out=buf), total, out=buf)
            np.subtract(g, buf, out=g)
        # the first half-step reads log_m directly: add its two terms one at
        # a time, as a tape of one node per operation does, so that log_m's
        # other uses sum into its grad in the same order and the result is
        # the same
        log_m.grad += g
        if iterates:
            axis, y = iterates[0]
            log_m.grad -= np.exp(y) * g.sum(axis=axis, keepdims=True)

    return SinkhornResult(ad.Var(out, (log_m,), bw), max_iter)


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
    edges left. Not differentiable: rejects tape variables.
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
                match = maximum_bipartite_matching(
                    csr_matrix(tight[i + 1:][:, rest]), perm_type="column")
                if np.all(match >= 0):
                    cols[i], cols[i + 1:] = j, rest[match]
                    break
            free[cols[i]] = False
        perm.fill(0.0)
        perm[rows, cols] = 1.0
    return perm
