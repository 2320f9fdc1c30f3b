"""Training through the shared front end: losses, gradients and the SGD loop.

The training map is ``refine.forward``, then the smooth Frank-Wolfe solve
``frank_wolfe_train``, then the loss; every primitive on that path is
differentiable, so reverse mode through the tape gives exact gradients of
the unrolled computation. Sinkhorn runs a fixed iteration count so the
unrolled function stays smooth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (InvalidInputError, NumericalFailureError, require_ints, require_reals,
                     require_seed)
from .files import csv_text
from .graphs import GraphPair
from .losses import (LossConfig, accuracy, cross_entropy_loss, false_matching_loss,
                     permutation_to_matrix)
from .projections import hungarian
from .qap import FW_TRAIN_INNER, FW_TRAIN_OUTER, frank_wolfe_train
from .refine import DEFAULT_LAYERS, ParameterSet, check_widths, forward, init_parameters

LOSSES = {"false_matching": false_matching_loss, "cross_entropy": cross_entropy_loss}
# exponential losses through the unrolled solver spike by orders of magnitude
# on near-tie rows; plain SGD at the default rate diverges without a cap on
# the norm of each step's gradient
GRAD_CAP = 100.0


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
    n_layers: int = DEFAULT_LAYERS

    def __post_init__(self):
        require_ints(self, ("epochs", "m1", "m2", "seed", "n_layers"))
        require_reals(self, ("learning_rate", "tau"))
        if self.epochs < 1:
            raise InvalidInputError("epochs must be >= 1")
        require_seed(self.seed)
        if self.learning_rate <= 0:
            raise InvalidInputError("learning_rate must be positive")
        if self.m1 < 0 or self.m2 < 0:
            raise InvalidInputError("m1 and m2 must be non-negative")
        if self.loss not in LOSSES:
            raise InvalidInputError(f"loss must be one of {tuple(LOSSES)}")
        if not self.tau > 0:
            raise InvalidInputError("tau must be positive")


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
        return csv_text("epoch,mean_loss,train_acc,param_norm",
                        ((e.epoch, e.mean_loss, e.train_accuracy, e.param_norm)
                         for e in self.entries))


def grad_params(pair: GraphPair, params: ParameterSet,
                cfg: TrainConfig) -> tuple[np.ndarray, float, np.ndarray]:
    """Gradient of the matching loss with respect to every parameter.

    The loss, its ``loss_cfg`` and the solver's ``m1``, ``m2`` and ``tau``
    come from ``cfg``. Reverse mode differentiates the unrolled computation,
    ``forward`` then ``frank_wolfe_train``, exactly. Returns (the flat
    gradient, in ``params.flatten()`` order; loss value; the solved
    assignment). Non-finite values raise NumericalFailureError naming the
    failing stage.
    """
    x_star = permutation_to_matrix(pair.gt)
    lifted, leaves = params.lift()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = frank_wolfe_train(*forward(pair, lifted), cfg.m1, cfg.m2, tau=cfg.tau)
        x_val = np.array(ad.value(x))
        loss_v = LOSSES[cfg.loss](x, x_star, cfg.loss_cfg)
        if not np.isfinite(ad.value(loss_v)):
            raise NumericalFailureError("loss is not finite", stage="loss")
        loss_v.backward()
    flat = np.concatenate([leaf.grad.ravel() for leaf in leaves])
    if not np.all(np.isfinite(flat)):
        raise NumericalFailureError("parameter gradient is not finite", stage="parameter_gradient")
    return flat, float(ad.value(loss_v)), x_val


def sgd_step(params: ParameterSet, grad: np.ndarray, lr: float) -> ParameterSet:
    """Plain gradient step along a flat gradient in ``params.flatten()``
    order; returns a new parameter set. A gradient of another length raises
    ``InvalidInputError`` naming both, before numpy could broadcast it."""
    theta = params.flatten()
    if np.shape(grad) != theta.shape:
        raise InvalidInputError(f"gradient has {np.size(grad)} entries, not {theta.size}")
    return params.replace_flat(theta - lr * grad)


def train(pairs: list[GraphPair], cfg: TrainConfig,
          params: ParameterSet | None = None) -> tuple[ParameterSet, TrainHistory]:
    """Per-pair SGD over a seeded shuffle of the dataset, one pass per epoch.

    Every pair's attribute width, and the layer count of given ``params``
    against ``cfg.n_layers``, is checked before the first step. A gradient
    whose norm exceeds ``GRAD_CAP`` is scaled down to that norm before its
    step.

    On a numerical failure the partial history is attached to the raised
    error. Identical (dataset, config) inputs give bit-identical histories.
    """
    if not pairs:
        raise InvalidInputError("training requires a non-empty dataset")
    if params is None:
        dim = pairs[0].a.attributes.shape[1]
        params = init_parameters(dim, n_layers=cfg.n_layers, seed=cfg.seed)
    params.validate()
    if params.n_layers != cfg.n_layers:
        raise InvalidInputError(f"params.n_layers {params.n_layers} != cfg.n_layers {cfg.n_layers}")
    check_widths(pairs, params)
    history = TrainHistory()
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        losses, accs = [], []
        for idx in rng.permutation(len(pairs)):
            pair = pairs[idx]
            try:
                grad, loss_v, x_val = grad_params(pair, params, cfg)
            except NumericalFailureError as exc:
                exc.history = history
                raise
            accs.append(accuracy(hungarian(x_val), permutation_to_matrix(pair.gt)))
            losses.append(loss_v)
            with np.errstate(over="ignore"):
                gnorm = float(np.linalg.norm(grad))
            if not np.isfinite(gnorm):
                # the gradient is finite (grad_params checks it), but its
                # squared norm overflowed: scale by its largest entry first
                m = np.max(np.abs(grad))
                gnorm = m * float(np.linalg.norm(grad / m))
            if gnorm > GRAD_CAP:
                grad = grad * (GRAD_CAP / gnorm)
            params = sgd_step(params, grad, cfg.learning_rate)
        history.entries.append(EpochStats(epoch, float(np.mean(losses)),
                                          float(np.mean(accs)), params.norm()))
    return params, history
