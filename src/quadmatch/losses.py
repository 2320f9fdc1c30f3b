"""Training losses and evaluation metrics for soft and discrete matchings.

The false-matching loss exponentiates the total false-positive and
false-negative assignment mass separately, so it is bounded on the
doubly-stochastic set (by e^{alpha n} + e^{beta n}) where the
cross-entropy loss can diverge; that boundedness is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError, require_reals

DEFAULT_ALPHA = 2.0
DEFAULT_BETA = 0.1
DEFAULT_CLIP_EPS = 1e-12


@dataclass(frozen=True)
class LossConfig:
    alpha: float = DEFAULT_ALPHA       # false-positive weight
    beta: float = DEFAULT_BETA         # false-negative weight
    clip_eps: float = DEFAULT_CLIP_EPS  # cross-entropy log clamp

    def __post_init__(self):
        require_reals(self, ("alpha", "beta", "clip_eps"))
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidInputError("alpha and beta must be positive")
        if not (0.0 < self.clip_eps < 0.5):
            raise InvalidInputError("clip_eps must lie in (0, 0.5)")


def _check_shapes(x, x_star) -> np.ndarray:
    xv = ad.value(x)
    xs = np.asarray(x_star, dtype=float)
    if xv.shape != xs.shape:
        raise InvalidInputError(f"prediction shape {xv.shape} != ground truth shape {xs.shape}")
    return xs


def false_matching_loss(x, x_star, cfg: LossConfig):
    """exp(alpha * false-positive mass) + exp(beta * false-negative mass)."""
    xs = _check_shapes(x, x_star)
    s_plus = ad.asum(x * (1.0 - xs))
    s_minus = ad.asum(xs * (1.0 - x))
    return ad.exp(cfg.alpha * s_plus) + ad.exp(cfg.beta * s_minus)


def cross_entropy_loss(x, x_star, cfg: LossConfig):
    """Elementwise binary cross entropy against a 0/1 ground truth.

    Predictions are clamped into [clip_eps, 1 - clip_eps] before the log;
    with clip_eps near the smallest double the clamp is vacuous in floating
    point and the divergence of the unclamped loss is reproduced. For 0/1
    truth each entry takes the log of the probability given to its true
    label only, so a perfect prediction scores 0 rather than 0 * log 0.
    """
    xs = _check_shapes(x, x_star)
    xt = ad.clip(x, cfg.clip_eps, 1.0 - cfg.clip_eps)
    with np.errstate(divide="ignore"):
        return -ad.asum(ad.log(xs * xt + (1.0 - xs) * (1.0 - xt)))


def accuracy(x_pred, x_star) -> float:
    """Fraction of ground-truth matches recovered by the prediction.

    Rows of the ground truth with no match (outliers) are excluded from the
    denominator; 0.0 when the ground truth marks no matches at all.
    """
    xs = _check_shapes(x_pred, x_star)
    n_gt = float(xs.sum())
    if n_gt == 0.0:
        return 0.0
    return float(np.sum(ad.value(x_pred) * xs) / n_gt)


def f1_score(x_pred, x_star) -> float:
    """Harmonic mean of match precision and recall; 0 when both are 0."""
    xs = _check_shapes(x_pred, x_star)
    xp = ad.value(x_pred)
    correct = float(np.sum(xp * xs))
    predicted = float(xp.sum())
    n_gt = float(xs.sum())
    precision = correct / predicted if predicted > 0 else 0.0
    recall = correct / n_gt if n_gt > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def permutation_to_matrix(perm) -> np.ndarray:
    """Square n x n 0/1 matrix from a match vector of length n; -1 entries
    give all-zero rows. A node index that appears twice raises
    ``InvalidInputError``."""
    p = np.asarray(perm, dtype=int)
    if p.ndim != 1:
        raise InvalidInputError("permutation vector must be 1-D")
    if np.any(p >= p.size) or np.any(p < -1):
        raise InvalidInputError("permutation index out of range")
    if np.unique(p[p >= 0]).size != np.count_nonzero(p >= 0):
        raise InvalidInputError("permutation repeats a node index")
    out = np.zeros((p.size, p.size))
    out[p >= 0, p[p >= 0]] = 1.0
    return out


def matrix_to_permutation(mat) -> np.ndarray:
    """Match vector from a 0/1 matrix; all-zero rows map to -1."""
    m = np.asarray(ad.value(mat))
    out = np.full(m.shape[0], -1, dtype=int)
    for i in range(m.shape[0]):
        hits = np.flatnonzero(m[i] > 0.5)
        if hits.size > 1:
            raise InvalidInputError("matrix row selects more than one match")
        if hits.size == 1:
            out[i] = int(hits[0])
    return out
