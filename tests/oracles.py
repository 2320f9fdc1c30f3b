"""Slow reference implementations that the fast product paths are tested against."""

import numpy as np
from scipy.optimize import linear_sum_assignment


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
