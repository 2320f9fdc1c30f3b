"""End-to-end training: unrolled forward pass, gradients, SGD loop.

The forward map composes attribute refinement, node affinity, Sinkhorn
initialization, and the smooth Frank-Wolfe solver; every primitive on that
path is differentiable, so reverse mode through the tape gives exact
gradients of the unrolled computation. Sinkhorn runs a fixed iteration count
(tol 0) inside the forward map so the unrolled function stays smooth.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError, NumericalFailureError
from .graphs import GraphPair
from .losses import (LossConfig, accuracy, cross_entropy_loss, false_matching_loss,
                     permutation_to_matrix)
from .projections import hungarian
from .qap import FW_TRAIN_INNER, FW_TRAIN_OUTER, QapInstance, SolveTrace, frank_wolfe_train
from .refine import (ParameterSet, init_assignment, init_parameters, node_affinity,
                     refine_pipeline)

LOSSES = ("false_matching", "cross_entropy")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-3
    m1: int = FW_TRAIN_OUTER
    m2: int = FW_TRAIN_INNER
    loss: str = "false_matching"
    seed: int = 0
    loss_cfg: LossConfig = field(default_factory=LossConfig)
    tau: float = 0.3
    n_layers: int = 2
    # exponential losses through the unrolled solver spike by orders of
    # magnitude on near-tie rows; plain SGD at the default rate diverges
    # without a cap on the update norm
    grad_cap: float | None = 100.0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidInputError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidInputError("learning_rate must be positive")
        if self.m1 < 0 or self.m2 < 0:
            raise InvalidInputError("m1 and m2 must be non-negative")
        if self.loss not in LOSSES:
            raise InvalidInputError(f"loss must be one of {LOSSES}")
        if not self.tau > 0:
            raise InvalidInputError("tau must be positive")
        if self.grad_cap is not None and not self.grad_cap > 0:
            raise InvalidInputError("grad_cap must be positive or None")


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    train_accuracy: float
    param_norm: float


@dataclass
class TrainHistory:
    entries: list[EpochStats] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epoch,mean_loss,train_acc,param_norm\n")
        for e in self.entries:
            buf.write(f"{e.epoch},{e.mean_loss!r},{e.train_accuracy!r},{e.param_norm!r}\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


@dataclass
class ForwardResult:
    assignment: object          # soft matching, ndarray or tape Var
    trace: SolveTrace
    instance: QapInstance       # the solved instance (weighted adjacencies + affinity)


def forward(pair: GraphPair, params: ParameterSet, *,
            m1: int = FW_TRAIN_OUTER, m2: int = FW_TRAIN_INNER, tau: float = 1.0,
            use_binary_adjacency: bool = False) -> ForwardResult:
    """Refine attributes, build the affinity, project, and run smooth FW.

    With ``m1`` 0 the solver is bypassed and the Sinkhorn-projected affinity
    is returned directly. ``use_binary_adjacency`` swaps the weighted
    adjacencies for the plain 0/1 topology in the solved objective (the
    pairwise-context ablation); refinement itself is unaffected.
    """
    if pair.a.n != pair.b.n:
        raise InvalidInputError("forward requires graphs of equal size")
    p_a, p_b, a_d, b_d = refine_pipeline(
        pair.a.attributes, pair.b.attributes, pair.a.adjacency, pair.b.adjacency, params)
    aff = node_affinity(p_a, p_b, params.w_aff)
    if use_binary_adjacency:
        inst = QapInstance(pair.a.adjacency, pair.b.adjacency, aff.matrix)
    else:
        inst = QapInstance(a_d, b_d, aff.matrix)
    x0 = init_assignment(aff)
    x, trace = frank_wolfe_train(x0, inst, m1, m2, tau=tau)
    return ForwardResult(x, trace, inst)


def _loss_fn(name: str):
    if name == "false_matching":
        return false_matching_loss
    if name == "cross_entropy":
        return cross_entropy_loss
    raise InvalidInputError(f"unknown loss {name!r}")


def grad_params(pair: GraphPair, params: ParameterSet, loss_cfg: LossConfig, *,
                loss: str = "false_matching", m1: int = FW_TRAIN_OUTER, m2: int = FW_TRAIN_INNER,
                tau: float = 1.0) -> tuple[ParameterSet, float, np.ndarray]:
    """Gradient of the matching loss with respect to every parameter.

    Reverse mode differentiates the unrolled forward computation exactly.
    Returns (gradients in parameter shape, loss value, the forward
    assignment). Non-finite values raise NumericalFailureError naming the
    failing stage.
    """
    x_star = permutation_to_matrix(pair.gt, pair.b.n)
    loss_f = _loss_fn(loss)
    lifted, leaves = params.lift()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        res = forward(pair, lifted, m1=m1, m2=m2, tau=tau)
        x_val = np.array(ad.value(res.assignment))
        if not np.all(np.isfinite(x_val)):
            raise NumericalFailureError("forward produced non-finite assignment", stage="forward")
        loss_v = loss_f(res.assignment, x_star, loss_cfg)
        if not np.isfinite(ad.value(loss_v)):
            raise NumericalFailureError("loss is not finite", stage="loss")
        loss_v.backward()
    flat = [leaf.grad for leaf in leaves]
    if not all(np.all(np.isfinite(g)) for g in flat):
        raise NumericalFailureError("parameter gradient is not finite", stage="parameter_gradient")
    n_layers = params.n_layers
    grads = ParameterSet(tuple(flat[2 * l] for l in range(n_layers)),
                         tuple(flat[2 * l + 1] for l in range(n_layers)),
                         flat[-1])
    return grads, float(ad.value(loss_v)), x_val


def sgd_step(params: ParameterSet, grads: ParameterSet, lr: float) -> ParameterSet:
    """Plain gradient step; returns a new parameter set."""
    if params.n_layers != grads.n_layers:
        raise InvalidInputError("parameter and gradient layer counts differ")
    for (name, p), (_, g) in zip(params.tensors().items(), grads.tensors().items()):
        if ad.value(p).shape != ad.value(g).shape:
            raise InvalidInputError(f"gradient shape mismatch for {name}")
    w_r = tuple(ad.value(p) - lr * ad.value(g) for p, g in zip(params.w_r, grads.w_r))
    w_s = tuple(ad.value(p) - lr * ad.value(g) for p, g in zip(params.w_s, grads.w_s))
    w_aff = ad.value(params.w_aff) - lr * ad.value(grads.w_aff)
    return ParameterSet(w_r, w_s, w_aff, seed=params.seed)


def train(pairs: list[GraphPair], cfg: TrainConfig,
          params: ParameterSet | None = None) -> tuple[ParameterSet, TrainHistory]:
    """Per-pair SGD over a seeded shuffle of the dataset, one pass per epoch.

    On a numerical failure the partial history is attached to the raised
    error. Identical (dataset, config) inputs give bit-identical histories.
    """
    if not pairs:
        raise InvalidInputError("training requires a non-empty dataset")
    if params is None:
        dim = pairs[0].a.attributes.shape[1]
        params = init_parameters(dim, n_layers=cfg.n_layers, seed=cfg.seed)
    params.validate()
    history = TrainHistory()
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        losses, accs = [], []
        for idx in order:
            pair = pairs[idx]
            try:
                grads, loss_v, x_val = grad_params(pair, params, cfg.loss_cfg, loss=cfg.loss,
                                                   m1=cfg.m1, m2=cfg.m2, tau=cfg.tau)
            except NumericalFailureError as exc:
                exc.history = history
                raise
            x_star = permutation_to_matrix(pair.gt, pair.b.n)
            accs.append(accuracy(hungarian(x_val), x_star))
            losses.append(loss_v)
            if cfg.grad_cap is not None:
                gnorm = grads.norm()
                if gnorm > cfg.grad_cap:
                    grads = grads.replace_flat(grads.flatten() * (cfg.grad_cap / gnorm))
            params = sgd_step(params, grads, cfg.learning_rate)
        history.entries.append(EpochStats(epoch, float(np.mean(losses)),
                                          float(np.mean(accs)), params.norm()))
    return params, history
