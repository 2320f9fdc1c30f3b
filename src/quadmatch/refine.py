"""Learnable front end: GCN attribute refinement and node affinity.

Two alternating rounds of graph convolution and adjacency reweighting refine
the node attributes of both graphs; a bilinear learnable metric between the
refined attribute sets yields the positive node-affinity matrix whose
Sinkhorn projection initializes the matching variable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError
from .graphs import weighted_adjacency
from .projections import sinkhorn

DEFAULT_LAYERS = 2


@dataclass(frozen=True)
class ParameterSet:
    """All learnable weights: per-layer GCN matrices plus the affinity metric.

    ``w_r[l]`` mixes neighbor attributes, ``w_s[l]`` the node's own; both are
    square in the attribute dimension, as is ``w_aff``. ``seed`` records the
    RNG seed used at initialization; sets derived through ``replace_flat``,
    gradients included, carry the seed of the set they were derived from.
    The checkpoint names and the flat layout are the order of ``tensors``,
    spelled there only; every derived set is rebuilt from such a mapping by
    ``from_tensors``, and gradients and SGD updates go through ``flatten``
    and ``replace_flat``.
    """

    w_r: tuple
    w_s: tuple
    w_aff: object
    seed: int | None = None

    @property
    def n_layers(self) -> int:
        return len(self.w_r)

    @property
    def dim(self) -> int:
        return ad.value(self.w_aff).shape[0]

    def tensors(self) -> dict:
        """Named entries in checkpoint order (w_r.1, w_s.1, ..., w_aff)."""
        out = {}
        for l in range(self.n_layers):
            out[f"w_r.{l + 1}"] = self.w_r[l]
            out[f"w_s.{l + 1}"] = self.w_s[l]
        out["w_aff"] = self.w_aff
        return out

    @classmethod
    def from_tensors(cls, tensors, n_layers: int, seed: int | None = None) -> "ParameterSet":
        """The set whose ``tensors()`` are the named entries of ``tensors``."""
        return cls(tuple(tensors[f"w_r.{l + 1}"] for l in range(n_layers)),
                   tuple(tensors[f"w_s.{l + 1}"] for l in range(n_layers)),
                   tensors["w_aff"], seed=seed)

    def flatten(self) -> np.ndarray:
        return np.concatenate([ad.value(t).ravel() for t in self.tensors().values()])

    def replace_flat(self, flat: np.ndarray) -> "ParameterSet":
        """New set with the same shapes filled from a flat vector."""
        flat = np.asarray(flat, dtype=float)
        out, pos = {}, 0
        for name, t in self.tensors().items():
            ref = ad.value(t)
            out[name] = flat[pos:pos + ref.size].reshape(ref.shape)
            pos += ref.size
        if pos != flat.size:
            raise InvalidInputError("flat parameter vector has the wrong length")
        return ParameterSet.from_tensors(out, self.n_layers, seed=self.seed)

    def lift(self) -> tuple["ParameterSet", list]:
        """Copy onto the autodiff tape; returns the lifted set and its leaves."""
        leaves = {name: ad.Var(ad.value(t)) for name, t in self.tensors().items()}
        return (ParameterSet.from_tensors(leaves, self.n_layers, seed=self.seed),
                list(leaves.values()))

    def norm(self) -> float:
        return float(np.linalg.norm(self.flatten()))

    def validate(self) -> None:
        d = self.dim
        for name, t in self.tensors().items():
            tv = ad.value(t)
            if tv.shape != (d, d):
                raise InvalidInputError(f"parameter {name} must be {d} x {d}, got {tv.shape}")
            if not np.all(np.isfinite(tv)):
                raise InvalidInputError(f"parameter {name} contains non-finite entries")


def init_parameters(dim: int, n_layers: int = DEFAULT_LAYERS, seed: int = 0) -> ParameterSet:
    """Uniform [-s, s] init with s = 1/sqrt(dim).

    An identity is added to w_aff so the initial affinity favors attribute
    similarity, and to each self-update w_s so the untrained refinement
    passes attribute geometry through instead of scrambling it (at small
    attribute dimensions a purely random mixing loses the similarity
    structure the solver needs to start from).
    """
    if dim < 1 or n_layers < 0:
        raise InvalidInputError("dim must be >= 1 and n_layers >= 0")
    rng = np.random.default_rng(seed)
    s = 1.0 / np.sqrt(dim)
    w_r, w_s = [], []
    for _ in range(n_layers):
        w_r.append(rng.uniform(-s, s, size=(dim, dim)))
        w_s.append(rng.uniform(-s, s, size=(dim, dim)) + np.eye(dim))
    w_aff = rng.uniform(-s, s, size=(dim, dim)) + np.eye(dim)
    return ParameterSet(tuple(w_r), tuple(w_s), w_aff, seed=seed)


def save_parameters(params: ParameterSet, path) -> None:
    obj = {
        "dim": params.dim,
        "n_layers": params.n_layers,
        "seed": params.seed,
        "tensors": {k: ad.value(v).tolist() for k, v in params.tensors().items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def load_parameters(path) -> ParameterSet:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        tensors = {name: np.asarray(t, dtype=float) for name, t in obj["tensors"].items()}
        params = ParameterSet.from_tensors(tensors, int(obj["n_layers"]), seed=obj.get("seed"))
    except (AttributeError, KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed checkpoint: {exc}") from exc
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


@dataclass
class AffinityResult:
    matrix: object      # positive affinity (may underflow to 0 in float)
    log_matrix: object  # shifted exponent: log of the affinity, always finite


def node_affinity(p_a, p_b, w_aff) -> AffinityResult:
    """Exponential bilinear affinity between the two attribute sets.

    The global maximum of the exponent is subtracted before exponentiation
    (a single global shift, so the Sinkhorn fixed point is unchanged); the
    shifted exponent itself is kept alongside so downstream Sinkhorn can run
    fully in the log domain when the spread is too wide to exponentiate.
    """
    pa, pb, w = ad.value(p_a), ad.value(p_b), ad.value(w_aff)
    if pa.shape[1] != w.shape[0] or pb.shape[1] != w.shape[1]:
        raise InvalidInputError("node_affinity dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = (p_a @ w_aff) @ ad.transpose(p_b)
    if not np.all(np.isfinite(ad.value(exponent))):
        raise InvalidInputError("affinity exponent is not finite")
    log_matrix = exponent - ad.amax(exponent)
    return AffinityResult(ad.exp(log_matrix), log_matrix)


def init_assignment(affinity: AffinityResult):
    """Sinkhorn projection of the affinity's shifted exponent, unrolled at a
    fixed iteration count: the solver's smooth start point."""
    return sinkhorn(affinity.log_matrix).matrix
