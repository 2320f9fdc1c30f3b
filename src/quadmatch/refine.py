"""Learnable front end: GCN attribute refinement and node affinity.

Two alternating rounds of graph convolution and adjacency reweighting refine
the node attributes of both graphs; a bilinear learnable metric between the
refined attribute sets yields the log of the positive node affinity, whose
Sinkhorn projection initializes the matching variable. ``forward`` composes
these into the front end that training and inference share; it holds no
solver, and each side hands its output to its own Frank-Wolfe mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError, NumericalFailureError, prefixed, require_seed
from .files import float_array, json_text, read_json, write_text
from .graphs import GraphPair, weighted_adjacency
from .projections import sinkhorn
from .qap import QapInstance

DEFAULT_LAYERS = 2


@dataclass(frozen=True)
class ParameterSet:
    """All learnable weights: per-layer GCN matrices plus the affinity metric.

    ``w_r[l]`` mixes neighbor attributes, ``w_s[l]`` the node's own; both are
    square in the attribute dimension, as is ``w_aff``. The checkpoint names
    and the flat layout are the order of ``names``, spelled there only;
    every derived set is rebuilt from a mapping of those names by
    ``from_tensors``. Gradients are flat vectors in ``flatten`` order, and
    an SGD update goes back through ``replace_flat``.
    """

    w_r: tuple
    w_s: tuple
    w_aff: object

    @property
    def n_layers(self) -> int:
        return len(self.w_r)

    @property
    def dim(self) -> int:
        return ad.value(self.w_aff).shape[0]

    @staticmethod
    def names(n_layers: int) -> list:
        """Checkpoint names of a set of ``n_layers`` layers, in order
        (w_r.1, w_s.1, ..., w_aff)."""
        return [f"{w}.{l + 1}" for l in range(n_layers) for w in ("w_r", "w_s")] + ["w_aff"]

    def tensors(self) -> dict:
        """Named entries in checkpoint order."""
        values = [t for layer in zip(self.w_r, self.w_s) for t in layer] + [self.w_aff]
        return dict(zip(self.names(self.n_layers), values))

    @classmethod
    def from_tensors(cls, tensors, n_layers: int) -> "ParameterSet":
        """The set whose ``tensors()`` are the named entries of ``tensors``."""
        values = [tensors[name] for name in cls.names(n_layers)]
        return cls(tuple(values[0:-1:2]), tuple(values[1:-1:2]), values[-1])

    def flatten(self) -> np.ndarray:
        return np.concatenate([ad.value(t).ravel() for t in self.tensors().values()])

    def replace_flat(self, flat: np.ndarray) -> "ParameterSet":
        """New set with the same shapes filled from a flat vector of
        ``flatten``'s length; another length raises ``InvalidInputError``
        naming both."""
        flat = np.asarray(flat, dtype=float)
        refs = {name: ad.value(t) for name, t in self.tensors().items()}
        ends = np.cumsum([ref.size for ref in refs.values()])
        if flat.shape != (ends[-1],):
            raise InvalidInputError(f"parameter vector has {flat.size} entries, not {ends[-1]}")
        parts = np.split(flat, ends[:-1])
        out = {name: part.reshape(ref.shape) for (name, ref), part in zip(refs.items(), parts)}
        return ParameterSet.from_tensors(out, self.n_layers)

    def lift(self) -> tuple["ParameterSet", list]:
        """Copy onto the autodiff tape; returns the lifted set and its leaves."""
        leaves = {name: ad.Var(ad.value(t)) for name, t in self.tensors().items()}
        return ParameterSet.from_tensors(leaves, self.n_layers), list(leaves.values())

    def norm(self) -> float:
        return float(np.linalg.norm(self.flatten()))

    def validate(self) -> None:
        if ad.value(self.w_aff).ndim != 2:
            raise InvalidInputError("parameter w_aff must be a square matrix")
        d = self.dim
        for name, t in self.tensors().items():
            tv = ad.value(t)
            if tv.shape != (d, d):
                raise InvalidInputError(f"parameter {name} must be {d} x {d}, got {tv.shape}")
            if not np.all(np.isfinite(tv)):
                raise InvalidInputError(f"parameter {name} contains non-finite entries")


def init_parameters(dim: int, n_layers: int = DEFAULT_LAYERS, *, seed: int) -> ParameterSet:
    """Uniform [-s, s] init with s = 1/sqrt(dim).

    An identity is added to w_aff so the initial affinity favors attribute
    similarity, and to each self-update w_s so the untrained refinement
    passes attribute geometry through instead of scrambling it (at small
    attribute dimensions a purely random mixing loses the similarity
    structure the solver needs to start from).
    """
    if dim < 1 or n_layers < 0:
        raise InvalidInputError("dim must be >= 1 and n_layers >= 0")
    require_seed(seed)
    rng = np.random.default_rng(seed)
    s = 1.0 / np.sqrt(dim)
    w_r, w_s = [], []
    for _ in range(n_layers):
        w_r.append(rng.uniform(-s, s, size=(dim, dim)))
        w_s.append(rng.uniform(-s, s, size=(dim, dim)) + np.eye(dim))
    w_aff = rng.uniform(-s, s, size=(dim, dim)) + np.eye(dim)
    return ParameterSet(tuple(w_r), tuple(w_s), w_aff)


def save_parameters(params: ParameterSet, path) -> None:
    tensors = {k: ad.value(v).tolist() for k, v in params.tensors().items()}
    write_text(path, json_text({"tensors": tensors}))


def load_parameters(path) -> ParameterSet:
    """Read a checkpoint's named tensors. Its layer count is half their
    number, rounded down, and they must be exactly that count's ``names``;
    its width is ``w_aff``'s. Other top-level keys, such as the ``dim``,
    ``n_layers`` and ``seed`` that older checkpoints carry, are ignored."""
    obj = read_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("tensors"), dict):
        raise InvalidInputError("malformed checkpoint: it must be a JSON object with a "
                                "'tensors' object")
    n_layers = len(obj["tensors"]) // 2
    held, named = sorted(obj["tensors"]), sorted(ParameterSet.names(n_layers))
    if held != named:
        raise InvalidInputError(f"checkpoint tensors {held} are not {named}")
    tensors = {name: float_array(t, f"malformed checkpoint: tensor {name!r}")
               for name, t in obj["tensors"].items()}
    params = ParameterSet.from_tensors(tensors, n_layers)
    params.validate()
    return params


def gcn_layer(p, a_d, w_r, w_s):
    """One graph-convolution update: rectified neighbor plus self mixing."""
    pv, av = ad.value(p), ad.value(a_d)
    wr, ws = ad.value(w_r), ad.value(w_s)
    if av.shape != (pv.shape[0], pv.shape[0]) or wr.shape != (pv.shape[1], pv.shape[1]) or ws.shape != wr.shape:
        raise InvalidInputError("gcn_layer dimension mismatch")
    return ad.relu((a_d @ p) @ w_r + p @ w_s)


def refine_pipeline(p_a, p_b, adj_a, adj_b, params: ParameterSet):
    """Alternate GCN updates and adjacency reweighting over both graphs.

    Returns the final attributes and the final weighted adjacencies
    (the initial reweighting when the parameter set has no layers).
    """
    a_d = weighted_adjacency(p_a, adj_a)
    b_d = weighted_adjacency(p_b, adj_b)
    for w_r, w_s in zip(params.w_r, params.w_s):
        p_a = gcn_layer(p_a, a_d, w_r, w_s)
        p_b = gcn_layer(p_b, b_d, w_r, w_s)
        a_d = weighted_adjacency(p_a, adj_a)
        b_d = weighted_adjacency(p_b, adj_b)
    return p_a, p_b, a_d, b_d


def node_affinity(p_a, p_b, w_aff):
    """Log of the exponential bilinear affinity between the two attribute sets.

    Returns the exponent shifted down by its global maximum, so every entry
    is finite and at most 0; the single global shift leaves the Sinkhorn
    fixed point unchanged, and the affinity itself is its ``exp``, which may
    underflow to 0 where the log does not. An exponent that overflows (weights
    blown up by training) raises ``NumericalFailureError`` at stage
    ``"forward"``.
    """
    pa, pb, w = ad.value(p_a), ad.value(p_b), ad.value(w_aff)
    if pa.shape[1] != w.shape[0] or pb.shape[1] != w.shape[1]:
        raise InvalidInputError("node_affinity dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = (p_a @ w_aff) @ ad.transpose(p_b)
    if not np.all(np.isfinite(ad.value(exponent))):
        raise NumericalFailureError("affinity exponent is not finite", stage="forward")
    return exponent - ad.amax(exponent)


def init_assignment(log_affinity):
    """Sinkhorn projection of the log affinity, unrolled at a fixed
    iteration count: the solver's smooth start point."""
    return sinkhorn(log_affinity).matrix


def check_width(pair: GraphPair, params: ParameterSet) -> None:
    """Raise ``InvalidInputError`` naming both widths unless the pair's
    attributes are as wide as the parameters take (a ``GraphPair``'s two
    graphs have one width)."""
    width = pair.a.attributes.shape[1]
    if width != params.dim:
        raise InvalidInputError(
            f"attributes are {width} wide ({width - 2} feature columns plus 2 coordinates), "
            f"but the parameters take attributes {params.dim} wide")


def check_widths(pairs, params: ParameterSet) -> None:
    """``check_width`` on every pair of a dataset, the error naming the pair,
    so a run rejects a dataset before any pair runs."""
    for i, pair in enumerate(pairs):
        with prefixed(f"pair {i}"):
            check_width(pair, params)


def forward(pair: GraphPair, params: ParameterSet) -> tuple[object, QapInstance]:
    """Refine attributes, build the log affinity, and project it.

    Returns ``(start, instance)``: the Sinkhorn projection of the log
    affinity, a soft matching (ndarray, or tape ``Var`` under lifted
    parameters), and the instance over the refined weighted adjacencies
    whose unary term is the affinity, the one ``exp`` of its log.
    Training hands both to ``frank_wolfe_train``; ``bench.match_pair`` builds
    every inference variant on them.
    """
    check_width(pair, params)
    p_a, p_b, a_d, b_d = refine_pipeline(
        pair.a.attributes, pair.b.attributes, pair.a.adjacency, pair.b.adjacency, params)
    log_aff = node_affinity(p_a, p_b, params.w_aff)
    x_u = ad.exp(log_aff)
    return init_assignment(log_aff), QapInstance(a_d, b_d, x_u)
