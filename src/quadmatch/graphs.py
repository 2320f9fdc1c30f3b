"""Graph construction from keypoints and precomputed node features.

A graph is a set of 2D keypoints with feature vectors; its structure is a
Delaunay triangulation over bounding-box-normalized coordinates, and its
pairwise context is that binary topology reweighted by the cosine similarity
of node attributes (features with the normalized coordinates appended).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError

from . import autodiff as ad
from .errors import InvalidInputError


@dataclass(frozen=True)
class KeypointSet:
    """Raw per-node data: 2D coordinates, feature rows, optional labels."""

    coords: np.ndarray
    features: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        features = np.asarray(self.features, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidInputError(f"coords must be n x 2, got shape {coords.shape}")
        if features.ndim != 2 or features.shape[0] != coords.shape[0]:
            raise InvalidInputError("features must have one row per keypoint")
        if not np.all(np.isfinite(coords)) or not np.all(np.isfinite(features)):
            raise InvalidInputError("keypoint coordinates and features must be finite")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "features", features)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class Graph:
    """A keypoint set with its derived attributes and Delaunay topology."""

    keypoints: KeypointSet
    coords_norm: np.ndarray
    attributes: np.ndarray
    adjacency: np.ndarray
    collinear_fallback: bool

    @property
    def n(self) -> int:
        return self.keypoints.n


@dataclass(frozen=True)
class GraphPair:
    a: Graph
    b: Graph
    gt: np.ndarray  # gt[i] = matched node index in b, or -1 for an outlier

    def __post_init__(self):
        gt = np.asarray(self.gt, dtype=int)
        if gt.shape != (self.a.n,):
            raise InvalidInputError("ground truth must have one entry per node of graph a")
        matched = gt[gt >= 0]
        if matched.size and (matched.max() >= self.b.n or np.unique(matched).size != matched.size):
            raise InvalidInputError("ground truth must map distinct nodes into graph b")
        object.__setattr__(self, "gt", gt)


@dataclass(frozen=True)
class DelaunayResult:
    adjacency: np.ndarray
    collinear_fallback: bool


def normalize_coordinates(coords) -> np.ndarray:
    """Affinely map each axis so the keypoint bounding box spans [0, 1].

    A degenerate axis (all values equal) maps to 0.5.
    """
    c = np.asarray(coords, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] < 1:
        raise InvalidInputError(f"expected n x 2 coordinates, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("coordinates must be finite")
    lo = c.min(axis=0)
    span = c.max(axis=0) - lo
    out = np.empty_like(c)
    for axis in range(2):
        if span[axis] > 0.0:
            out[:, axis] = (c[:, axis] - lo[axis]) / span[axis]
        else:
            out[:, axis] = 0.5
    return out


def delaunay_adjacency(coords_norm) -> DelaunayResult:
    """Binary adjacency whose edges are the Delaunay triangulation edges.

    Fewer than 3 points give a complete graph; collinear inputs fall back to
    a path graph along the dominant axis, flagged in the result.
    """
    c = np.asarray(coords_norm, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2:
        raise InvalidInputError(f"expected n x 2 coordinates, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("coordinates must be finite")
    n = c.shape[0]
    if n < 3:
        adj = np.ones((n, n)) - np.eye(n)
        return DelaunayResult(adj, False)
    if _collinear(c):
        return DelaunayResult(_path_adjacency(c), True)
    try:
        tri = Delaunay(c)
    except QhullError:
        return DelaunayResult(_path_adjacency(c), True)
    adj = np.zeros((n, n))
    for simplex in tri.simplices:
        for k in range(3):
            i, j = simplex[k], simplex[(k + 1) % 3]
            adj[i, j] = adj[j, i] = 1.0
    return DelaunayResult(adj, False)


def _collinear(c: np.ndarray) -> bool:
    centered = c - c.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    return sv[0] == 0.0 or sv[1] <= 1e-9 * sv[0]


def _path_adjacency(c: np.ndarray) -> np.ndarray:
    n = c.shape[0]
    span = c.max(axis=0) - c.min(axis=0)
    major = int(np.argmax(span))
    order = np.lexsort((c[:, 1 - major], c[:, major]))
    adj = np.zeros((n, n))
    for a, b in zip(order[:-1], order[1:]):
        adj[a, b] = adj[b, a] = 1.0
    return adj


def assemble_attributes(features, coords_norm) -> np.ndarray:
    """Node attribute rows: feature vector with (x, y) in [0,1] appended."""
    f = np.asarray(features, dtype=float)
    c = np.asarray(coords_norm, dtype=float)
    if f.ndim == 1 and f.shape[0] == c.shape[0]:
        f = f.reshape(-1, 1)
    if f.ndim != 2 or f.shape[0] != c.shape[0]:
        raise InvalidInputError("features and coordinates disagree on node count")
    return np.hstack([f, c])


def linear_kernel(p, *, eps: float = 0.0):
    """Cosine similarity matrix of attribute rows.

    Rows are L2-normalized first, so entries lie in [-1, 1] with a unit
    diagonal. The refinement pipeline adds ``refine.KERNEL_EPS`` to the row
    norms, so rows that collapse to zero give zero kernel rows; at the
    default ``eps`` 0 the kernel is exact and a zero-norm row is rejected.
    """
    pv = ad.value(p)
    if pv.ndim != 2:
        raise InvalidInputError("attribute matrix must be 2-D")
    sq = ad.asum(p * p, axis=1, keepdims=True)
    if eps <= 0.0 and np.any(ad.value(sq) == 0.0):
        raise InvalidInputError("attribute matrix has a zero-norm row")
    norms = ad.sqrt(sq) + eps
    unit = p / norms
    return unit @ ad.transpose(unit)


def weighted_adjacency(p, adjacency, *, eps: float = 0.0):
    """Binary topology masked elementwise with the attribute cosine kernel."""
    adj = np.asarray(adjacency, dtype=float)
    pv = ad.value(p)
    if adj.shape != (pv.shape[0], pv.shape[0]):
        raise InvalidInputError("adjacency size does not match attribute rows")
    return linear_kernel(p, eps=eps) * adj


def build_graph(keypoints: KeypointSet) -> Graph:
    """Normalize coordinates, triangulate, and assemble node attributes."""
    coords_norm = normalize_coordinates(keypoints.coords)
    delaunay = delaunay_adjacency(coords_norm)
    attributes = assemble_attributes(keypoints.features, coords_norm)
    return Graph(keypoints, coords_norm, attributes, delaunay.adjacency, delaunay.collinear_fallback)


def make_pair(a: KeypointSet, b: KeypointSet, gt) -> GraphPair:
    return GraphPair(build_graph(a), build_graph(b), np.asarray(gt, dtype=int))


def pair_to_dict(pair: GraphPair) -> dict:
    return {
        "graph_a": {
            "coords": pair.a.keypoints.coords.tolist(),
            "features": pair.a.keypoints.features.tolist(),
        },
        "graph_b": {
            "coords": pair.b.keypoints.coords.tolist(),
            "features": pair.b.keypoints.features.tolist(),
        },
        "gt_permutation": pair.gt.tolist(),
    }


def pair_from_dict(obj: dict) -> GraphPair:
    try:
        ga, gb = obj["graph_a"], obj["graph_b"]
        a = KeypointSet(np.asarray(ga["coords"], dtype=float), np.asarray(ga["features"], dtype=float))
        b = KeypointSet(np.asarray(gb["coords"], dtype=float), np.asarray(gb["features"], dtype=float))
        gt = np.asarray(obj["gt_permutation"], dtype=int)
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed graph-pair object: {exc}") from exc
    return make_pair(a, b, gt)


def save_pair(pair: GraphPair, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pair_to_dict(pair), fh, indent=2, sort_keys=True)


def load_pair(path) -> GraphPair:
    with open(path, "r", encoding="utf-8") as fh:
        return pair_from_dict(json.load(fh))


def save_dataset(pairs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pairs": [pair_to_dict(p) for p in pairs]}, fh, indent=2, sort_keys=True)


def load_dataset(path) -> list[GraphPair]:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "pairs" not in obj:
        raise InvalidInputError("dataset file must contain a 'pairs' array")
    return [pair_from_dict(p) for p in obj["pairs"]]
