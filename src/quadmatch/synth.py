"""Synthetic graph-pair generation for the desk-scale benchmark harness.

Pairs are permuted noisy copies: graph A samples keypoints uniformly in the
unit frame with features drawn around class prototypes; graph B permutes the
nodes, optionally rotates the point set, jitters the coordinates, and
re-noises the features from the same prototypes. Rotating graph B leaves the
Delaunay topology intact (triangulation is similarity-invariant) while
scrambling the normalized coordinates, so matching must come from structure
rather than from the coordinate prior. Outlier nodes (no counterpart in the
other graph) can be appended for robustness sweeps; their coordinates are
Gaussian in the pre-normalization frame so they break structure the way
far-off detections would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_ints, require_reals, require_seed
from .graphs import GraphPair, KeypointSet, make_pair

OUTLIER_SIGMA = 10.0
FEATURE_SCALE = 1.6  # prototype norm; keeps affinity exponents unsaturated


@dataclass(frozen=True)
class SynthConfig:
    """One class of synthetic pairs. The defaults are the easy class
    (``easy_config``): near-copy pairs with distinct prototypes, solvable,
    with mild feature noise."""

    n_inliers: int = 8
    d: int = 16
    classes: int = 8         # distinct feature prototypes; < n_inliers duplicates them
    feature_noise: float = 0.15
    coord_jitter: float = 0.005
    n_outliers: int = 0
    seed: int = 0
    rotate_b: bool = False   # apply a random rigid rotation to graph B's points

    def __post_init__(self):
        require_ints(self, ("n_inliers", "d", "classes", "n_outliers", "seed"))
        require_reals(self, ("feature_noise", "coord_jitter"))
        if not isinstance(self.rotate_b, bool):
            raise InvalidInputError(f"rotate_b must be a bool, got {self.rotate_b!r}")
        if self.n_inliers < 3:
            raise InvalidInputError("n_inliers must be >= 3")
        if self.d < 1 or self.classes < 1:
            raise InvalidInputError("d and classes must be >= 1")
        if min(self.feature_noise, self.coord_jitter) < 0:
            raise InvalidInputError("noise scales must be non-negative")
        if self.n_outliers < 0:
            raise InvalidInputError("n_outliers must be >= 0")
        require_seed(self.seed)


def gen_synthetic_pair(cfg: SynthConfig, *, rng: np.random.Generator) -> GraphPair:
    """One ground-truthed pair; all randomness comes from ``rng``, and
    ``cfg.seed`` is not read (``gen_dataset`` seeds each pair from it)."""
    n, d = cfg.n_inliers, cfg.d
    class_of = np.arange(n) % cfg.classes

    coords_a = rng.uniform(size=(n, 2))
    prototypes = rng.uniform(0.0, 1.0, size=(cfg.classes, d)) * (FEATURE_SCALE / np.sqrt(d))
    features_a = prototypes[class_of] + cfg.feature_noise * rng.normal(size=(n, d))

    perm = rng.permutation(n)
    source = coords_a
    if cfg.rotate_b:
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        source = coords_a @ rot.T
    coords_b = np.empty_like(coords_a)
    coords_b[perm] = source + cfg.coord_jitter * rng.normal(size=(n, 2))
    features_b = np.empty_like(features_a)
    features_b[perm] = prototypes[class_of] + cfg.feature_noise * rng.normal(size=(n, d))

    pair = make_pair(KeypointSet(coords_a, features_a), KeypointSet(coords_b, features_b), perm)
    if cfg.n_outliers > 0:
        pair = inject_outliers(pair, cfg.n_outliers, rng=rng)
    return pair


def inject_outliers(pair: GraphPair, k: int, *, rng: np.random.Generator) -> GraphPair:
    """Append k unmatched nodes to each graph and recompute the topology.

    Outlier coordinates are N(0, OUTLIER_SIGMA^2) in raw coordinate units,
    features standard normal, all drawn from ``rng``; inlier ground truth is
    untouched (new rows get -1).
    """
    if k < 0:
        raise InvalidInputError("outlier count must be >= 0")
    if k == 0:
        return pair
    d = pair.a.keypoints.features.shape[1]

    def extend(kp: KeypointSet) -> KeypointSet:
        coords = np.vstack([kp.coords, rng.normal(0.0, OUTLIER_SIGMA, size=(k, 2))])
        features = np.vstack([kp.features, rng.normal(size=(k, d))])
        return KeypointSet(coords, features)

    new_a = extend(pair.a.keypoints)
    new_b = extend(pair.b.keypoints)
    gt = np.concatenate([pair.gt, np.full(k, -1, dtype=int)])
    return make_pair(new_a, new_b, gt)


def gen_dataset(cfg: SynthConfig, n_pairs: int) -> list[GraphPair]:
    """Independent pairs with per-pair rngs spawned from the single seed."""
    if n_pairs < 1:
        raise InvalidInputError("n_pairs must be >= 1")
    children = np.random.SeedSequence(cfg.seed).spawn(n_pairs)
    return [gen_synthetic_pair(cfg, rng=np.random.default_rng(child)) for child in children]


def easy_config(seed: int, **overrides) -> SynthConfig:
    """The easy class: ``SynthConfig``'s defaults."""
    return SynthConfig(seed=seed, **overrides)


def ambiguous_config(seed: int, **overrides) -> SynthConfig:
    """Duplicated prototypes and a rotated partner graph: features and
    coordinates cannot separate group members, Delaunay structure can."""
    base = dict(n_inliers=10, d=16, classes=2, feature_noise=0.05,
                coord_jitter=0.0, rotate_b=True, seed=seed)
    base.update(overrides)
    return SynthConfig(**base)
