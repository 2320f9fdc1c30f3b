"""Graph construction from keypoints and precomputed node features.

A graph is a set of 2D keypoints with feature vectors; its structure is a
Delaunay triangulation over bounding-box-normalized coordinates, and its
pairwise context is that binary topology reweighted by the cosine similarity
of node attributes (features with the normalized coordinates appended).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError

from . import autodiff as ad
from .errors import InvalidInputError, prefixed
from .files import float_array, json_text, read_json, write_text

# added to each attribute row's norm in the cosine kernel, so a row that
# collapses to zero (a rectified GCN output) gives a zero kernel row
KERNEL_EPS = 1e-8


@dataclass(frozen=True)
class KeypointSet:
    """Raw per-node data: 2D coordinates and feature rows.

    Each must be a rectangular array of numbers. Feature rows must be finite
    and small enough that their squared norm, which the cosine kernel forms,
    does not overflow.
    """

    coords: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        coords = float_array(self.coords, "coords")
        features = float_array(self.features, "features")
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidInputError(f"coords must be n x 2, got shape {coords.shape}")
        if features.ndim != 2 or features.shape[0] != coords.shape[0]:
            raise InvalidInputError("features must have one row per keypoint")
        if not np.all(np.isfinite(coords)) or not np.all(np.isfinite(features)):
            raise InvalidInputError("keypoint coordinates and features must be finite")
        with np.errstate(over="ignore"):
            sq_norms = np.sum(features * features, axis=1)
        if not np.all(np.isfinite(sq_norms)):
            raise InvalidInputError("feature rows are too large: their squared norm overflows")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "features", features)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class Graph:
    """A keypoint set with its derived attributes and Delaunay topology."""

    keypoints: KeypointSet
    attributes: np.ndarray  # features, then the normalized (x, y) as the last two columns
    adjacency: np.ndarray

    @property
    def n(self) -> int:
        return self.keypoints.n


@dataclass(frozen=True)
class GraphPair:
    """Two graphs of one size and one attribute width, and the ground truth
    that maps the nodes of ``a`` into ``b``: the square problem the matching
    pipeline solves."""

    a: Graph
    b: Graph
    gt: np.ndarray  # gt[i] = matched node index in b, or -1 for an outlier

    def __post_init__(self):
        (n_a, w_a), (n_b, w_b) = self.a.attributes.shape, self.b.attributes.shape
        if (n_a, w_a) != (n_b, w_b):
            raise InvalidInputError(f"graph_a has {n_a} nodes and attributes {w_a} wide, but "
                                    f"graph_b has {n_b} nodes and attributes {w_b} wide: a pair's "
                                    "graphs must have the same size and width")
        # numpy would cast a sequence that mixes booleans and integers to integers
        if isinstance(self.gt, (list, tuple)) and any(isinstance(v, (bool, np.bool_))
                                                      for v in self.gt):
            raise InvalidInputError("ground truth entries must be integer node indices, "
                                    "not true or false")
        raw = np.asarray(self.gt)
        # NaN, inf or a float beyond int64 casts to garbage, rejected below;
        # a bool is no node index, although numpy casts it to one
        with np.errstate(invalid="ignore"):
            gt = raw.astype(int) if raw.dtype.kind in "iuf" else None
        if gt is None or not np.array_equal(gt, raw):
            raise InvalidInputError("ground truth entries must be integer node indices")
        if gt.shape != (self.a.n,):
            raise InvalidInputError("ground truth must have one entry per node of graph a")
        if np.any(gt < -1):
            raise InvalidInputError("ground truth entries must be node indices of graph b, "
                                    "or -1 for an outlier")
        matched = gt[gt >= 0]
        if matched.size and (matched.max() >= self.b.n or np.unique(matched).size != matched.size):
            raise InvalidInputError("ground truth must map distinct nodes into graph b")
        object.__setattr__(self, "gt", gt)


def normalize_coordinates(coords) -> np.ndarray:
    """Affinely map each axis so the keypoint bounding box spans [0, 1].

    A degenerate axis (all values equal) maps to 0.5. Finite coordinates
    whose range (max - min) overflows a float raise ``InvalidInputError``.
    """
    c = np.asarray(coords, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] < 1:
        raise InvalidInputError(f"expected n x 2 coordinates, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("coordinates must be finite")
    lo = c.min(axis=0)
    with np.errstate(over="ignore"):
        span = c.max(axis=0) - lo
    if not np.all(np.isfinite(span)):
        raise InvalidInputError("the coordinates' range overflows a float")
    out = np.empty_like(c)
    for axis in range(2):
        if span[axis] > 0.0:
            out[:, axis] = (c[:, axis] - lo[axis]) / span[axis]
        else:
            out[:, axis] = 0.5
    return out


def delaunay_adjacency(coords_norm) -> np.ndarray:
    """Binary adjacency whose edges are the Delaunay triangulation edges.

    Fewer than 3 points give a complete graph. Collinear or all-coincident
    inputs fall back to a path graph along the dominant axis; the result shows
    it, since a path over n points has n - 1 edges and a triangulation of
    n >= 3 points has at least n. A point that coincides with another in an
    otherwise triangulable set would be in no triangle, so it raises
    ``InvalidInputError`` rather than become an isolated node.
    """
    c = np.asarray(coords_norm, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2:
        raise InvalidInputError(f"expected n x 2 coordinates, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("coordinates must be finite")
    n = c.shape[0]
    if n < 3:
        return np.ones((n, n)) - np.eye(n)
    if _collinear(c):
        return _path_adjacency(c)
    try:
        tri = Delaunay(c)
    except QhullError:
        return _path_adjacency(c)
    if len(tri.coplanar):
        # qhull leaves such a point out of every simplex; column 2 is the
        # vertex it coincides with
        dropped, _, kept = tri.coplanar[0]
        raise InvalidInputError(f"keypoint {dropped} coincides with keypoint {kept}, "
                                "so the Delaunay graph would leave it isolated")
    adj = np.zeros((n, n))
    for simplex in tri.simplices:
        for k in range(3):
            i, j = simplex[k], simplex[(k + 1) % 3]
            adj[i, j] = adj[j, i] = 1.0
    return adj


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
    if f.ndim != 2 or f.shape[0] != c.shape[0]:
        raise InvalidInputError("features and coordinates disagree on node count")
    return np.hstack([f, c])


def linear_kernel(p):
    """Cosine similarity matrix of attribute rows.

    Rows are divided by their L2 norm plus ``KERNEL_EPS``, so entries lie in
    [-1, 1], a diagonal entry is ``(|p| / (|p| + KERNEL_EPS))**2`` (1 up to
    about 1e-8 relative for rows of unit scale), and a zero row gives a zero
    kernel row.
    """
    pv = ad.value(p)
    if pv.ndim != 2:
        raise InvalidInputError("attribute matrix must be 2-D")
    sq = ad.asum(p * p, axis=1, keepdims=True)
    norms = ad.sqrt(sq) + KERNEL_EPS
    unit = p / norms
    return unit @ ad.transpose(unit)


def weighted_adjacency(p, adjacency):
    """Binary topology masked elementwise with the attribute cosine kernel."""
    adj = np.asarray(adjacency, dtype=float)
    pv = ad.value(p)
    if adj.shape != (pv.shape[0], pv.shape[0]):
        raise InvalidInputError("adjacency size does not match attribute rows")
    return linear_kernel(p) * adj


def build_graph(keypoints: KeypointSet) -> Graph:
    """Normalize coordinates, triangulate, and assemble node attributes."""
    coords_norm = normalize_coordinates(keypoints.coords)
    attributes = assemble_attributes(keypoints.features, coords_norm)
    return Graph(keypoints, attributes, delaunay_adjacency(coords_norm))


def make_pair(a: KeypointSet, b: KeypointSet, gt) -> GraphPair:
    graphs = []
    for name, keypoints in (("graph_a", a), ("graph_b", b)):
        with prefixed(name):
            graphs.append(build_graph(keypoints))
    return GraphPair(*graphs, gt)


def pair_to_dict(pair: GraphPair) -> dict:
    obj = {name: {"coords": g.keypoints.coords.tolist(), "features": g.keypoints.features.tolist()}
           for name, g in (("graph_a", pair.a), ("graph_b", pair.b))}
    return {**obj, "gt_permutation": pair.gt.tolist()}


def pair_from_dict(obj: dict) -> GraphPair:
    """The pair a JSON object holds; an error in a graph's keypoints names
    the graph."""
    if not isinstance(obj, dict):
        raise InvalidInputError("a graph pair must be a JSON object with 'graph_a', "
                                "'graph_b' and 'gt_permutation'")
    try:
        graphs = [(name, obj[name]["coords"], obj[name]["features"])
                  for name in ("graph_a", "graph_b")]
        gt = obj["gt_permutation"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed graph-pair object: {exc}") from exc
    keypoints = []
    for name, coords, features in graphs:
        with prefixed(name):
            keypoints.append(KeypointSet(coords, features))
    return make_pair(*keypoints, gt)


def save_pair(pair: GraphPair, path) -> None:
    write_text(path, json_text(pair_to_dict(pair)))


def load_pair(path) -> GraphPair:
    return pair_from_dict(read_json(path))


def save_dataset(pairs, path) -> None:
    write_text(path, json_text({"pairs": [pair_to_dict(p) for p in pairs]}))


def load_dataset(path) -> list[GraphPair]:
    obj = read_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("pairs"), list):
        raise InvalidInputError("dataset file must contain a 'pairs' array")
    pairs = []
    for i, p in enumerate(obj["pairs"]):
        with prefixed(f"pair {i}"):
            pairs.append(pair_from_dict(p))
    return pairs
