"""Answer checks and summary statistics used by the benchmark workloads.

Only numpy is used here: the checks recompute what they verify instead of
trusting quadmatch's own helpers.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Percentile levels in per mille, highest first.
_LEVELS = (999, 990, 900, 500)


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9, p99, p90 and p50 with at least 10 of ``n`` samples beyond it."""
    for level in _LEVELS:
        if n * (1000 - level) >= 10_000:
            return level / 10
    return None


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def check_permutation_matrix(matrix) -> str | None:
    """Why ``matrix`` is not a square 0/1 permutation matrix, or None if it is."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return f"not square: shape {m.shape}"
    if not np.all((m == 0.0) | (m == 1.0)):
        return "entries are not all 0 or 1"
    if not (np.all(m.sum(axis=0) == 1.0) and np.all(m.sum(axis=1) == 1.0)):
        return "a row or column does not hold exactly one 1"
    return None


def gt_matrix(gt, n_cols: int) -> np.ndarray:
    """0/1 ground-truth matrix; rows of unmatched nodes (-1) stay zero."""
    gt = np.asarray(gt, dtype=int)
    out = np.zeros((gt.size, n_cols))
    rows = np.flatnonzero(gt >= 0)
    out[rows, gt[rows]] = 1.0
    return out


def recomputed_accuracy(matrix, gt) -> float:
    x_star = gt_matrix(gt, np.asarray(matrix).shape[1])
    n_gt = x_star.sum()
    return float((np.asarray(matrix) * x_star).sum() / n_gt) if n_gt else 0.0


def check_match(result, gt, matrix_to_permutation) -> str | None:
    """Why a ``MatchResult`` is wrong, or None if every check holds."""
    why = check_permutation_matrix(result.matrix)
    if why:
        return why
    if not np.array_equal(result.permutation, matrix_to_permutation(result.matrix)):
        return "permutation differs from matrix_to_permutation(matrix)"
    if not np.array_equal(result.permutation, np.argmax(result.matrix, axis=1)):
        return "permutation does not follow the matrix rows"
    if abs(result.accuracy - recomputed_accuracy(result.matrix, gt)) > 1e-12:
        return f"accuracy {result.accuracy!r} differs from the recomputation"
    if not np.isfinite(result.objective):
        return "objective is not finite"
    return None


def digest(arrays) -> str:
    """Short sha256 over the bytes of a sequence of arrays, order included."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]
