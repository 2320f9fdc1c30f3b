"""Relaxed Koopmans-Beckmann objective and the two-mode Frank-Wolfe solver.

The objective couples a quadratic structural term (Frobenius discrepancy
between the weighted adjacencies under the current soft assignment) with a
linear unary affinity term. Training mode keeps every step differentiable by
using a temperature-softened Sinkhorn step in place of the exact linear
minimization; inference mode uses Hungarian directions and rounds to a
permutation, tracking the best discrete iterate seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError, NumericalFailureError
from .files import csv_text
from .projections import hungarian, sinkhorn

FW_TRAIN_OUTER = 3
FW_TRAIN_INNER = 5
FW_INFER_ROUNDS = 10
FW_INFER_MAX_INNER = 50


@dataclass(frozen=True)
class QapInstance:
    """One matching problem: two weighted adjacencies plus a unary affinity."""

    a_d: object
    b_d: object
    x_u: object

    def __post_init__(self):
        a, b, u = ad.value(self.a_d), ad.value(self.b_d), ad.value(self.x_u)
        if not (a.shape == b.shape == u.shape) or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError("instance matrices must be square and share one size")
        if not np.allclose(a, a.T, atol=1e-8) or not np.allclose(b, b.T, atol=1e-8):
            raise InvalidInputError("adjacency matrices must be symmetric")

    @property
    def n(self) -> int:
        return ad.value(self.a_d).shape[0]


@dataclass
class TraceStep:
    outer: int
    inner: int
    epsilon: float
    objective: float


@dataclass
class SolveTrace:
    """Per-step diagnostics of one solver run."""

    steps: list[TraceStep] = field(default_factory=list)
    converged: bool = False

    def to_csv(self) -> str:
        return csv_text("outer,inner,epsilon,objective",
                        ((s.outer, s.inner, s.epsilon, s.objective) for s in self.steps))


def _residual(x, inst: QapInstance):
    """The residual ``A - x B x^T`` of an assignment that fits the instance."""
    if ad.value(x).shape != (inst.n, inst.n):
        raise InvalidInputError("assignment shape does not match the instance")
    return inst.a_d - (x @ inst.b_d) @ ad.transpose(x)


def objective(x, inst: QapInstance):
    """Structural discrepancy plus negated unary alignment."""
    r = _residual(x, inst)
    return ad.asum(r * r) - ad.asum(inst.x_u * x)


def objective_gradient(x, inst: QapInstance):
    """Analytic gradient of the objective with respect to the assignment."""
    # a second x @ B, not the residual's: on the tape a shared product would
    # send its summed upstream gradient through one matmul instead of each
    # part through its own, which moves the last bits of training gradients
    return _gradient(_residual(x, inst), x @ inst.b_d, x @ ad.transpose(inst.b_d), inst.x_u)


def _gradient(r, xb, xbt, u):
    """``-2 (r^T xb + r xbt) - u``: the objective's gradient from its residual
    ``r = A - x B x^T``, the products ``xb = x B`` and ``xbt = x B^T``, and the
    unary ``u``."""
    return -2.0 * (ad.transpose(r) @ xb + r @ xbt) - u


def fw_step_size(k: int) -> float:
    """Diminishing conditional-gradient step: 2 / (k + 2) at inner index k."""
    if k < 0:
        raise InvalidInputError("step index must be non-negative")
    return 2.0 / (k + 2)


def fw_direction(x, inst: QapInstance, *, tau: float):
    """Smooth descent target for the linearized objective.

    The Sinkhorn projection of ``exp(-grad / tau)`` at a fixed iteration
    count, a differentiable surrogate for the exact minimizer over
    permutations that ``frank_wolfe_infer`` takes with Hungarian. The
    benefit ``-grad`` is globally shifted by its maximum before
    exponentiating, which cannot overflow and leaves the Sinkhorn fixed point
    unchanged (a global scaling).
    """
    if not tau > 0:
        raise InvalidInputError(f"tau must be positive, got {tau!r}")
    benefit = -objective_gradient(x, inst)
    log_dir = (benefit - ad.amax(benefit)) / tau
    return sinkhorn(log_dir).matrix


def frank_wolfe_train(x0, inst: QapInstance, m1: int, m2: int, *, tau: float):
    """Differentiable Frank-Wolfe: m1 rounds of m2 smooth pursuit steps.

    Each inner step blends the iterate toward the soft direction with the
    diminishing step size; each round ends with a Sinkhorn re-projection of
    the iterate's log (nearly idempotent, since the blend stays close to
    doubly stochastic).
    The whole map is differentiable in ``x0`` and in any tape parameters
    reachable through the instance. Returns only the final iterate (``x0``
    itself when ``m1`` is 0); no per-step objective is evaluated, since
    neither the gradient nor the inference warm start reads one. A ``tau``
    that is not positive raises ``InvalidInputError`` at the first step. An
    iterate with an entry that is not positive (a small ``tau`` makes the
    first step, of size 1, land on a direction whose entries underflowed to
    0) has no log to re-project and raises ``NumericalFailureError`` at
    stage ``"forward"``.
    """
    if m1 < 0 or m2 < 0:
        raise InvalidInputError("iteration counts must be non-negative")
    x = x0
    for _ in range(m1):
        for inner in range(m2):
            eps = fw_step_size(inner)
            s = fw_direction(x, inst, tau=tau)
            x = x - eps * (x - s)
        if not (ad.value(x) > 0).all():
            raise NumericalFailureError("smooth Frank-Wolfe iterate underflowed to 0",
                                        stage="forward")
        x = sinkhorn(ad.log(x)).matrix
    return x


def frank_wolfe_infer(x0, inst: QapInstance):
    """Discrete Frank-Wolfe refinement returning a permutation matrix.

    Each of at most ``FW_INFER_ROUNDS`` rounds pursues Hungarian directions
    for at most ``FW_INFER_MAX_INNER`` steps, stopping early at a fixed point
    (the direction equals the iterate, so every later step is a no-op), then
    rounds to a permutation. The best discrete iterate by objective value is
    tracked across the run, starting from the plain rounding of ``x0``, so
    the returned objective never exceeds the initialization's.
    The run is deterministic and each round after the first starts from the
    previous round's rounding, so once a rounding repeats any earlier
    round's, the rounds left would replay rounds already scored and cannot
    change the best iterate: the run stops there with ``converged`` set.

    The instance is read as it is: its matrices, like ``x0``, must be plain
    arrays, and a tape ``Var`` raises ``InvalidInputError``. Every iterate,
    each step's and each rounding, is scored once: ``x @ B``, the residual
    ``A - x B x^T`` and the objective, from which the next step's gradient is
    also taken, so a rounding's residual is the next round's first. The
    arithmetic is that of ``objective`` and of
    ``hungarian(-objective_gradient(x, inst))``, so every value is the same
    bits.
    """
    a, b, u = inst.a_d, inst.b_d, inst.x_u
    if any(isinstance(t, ad.Var) for t in (x0, a, b, u)):
        raise InvalidInputError("inference solver is not differentiable; pass plain arrays")

    def score(x):
        """``x @ B``, the residual and the objective of the iterate ``x``."""
        xb = x @ b
        r = a - xb @ x.T
        # np.add.reduce over all axes is what np.sum runs: the same bits
        return xb, r, float(np.add.reduce(r * r, axis=None) - np.add.reduce(u * x, axis=None))

    x = np.asarray(x0, dtype=float)
    if x.shape != (inst.n, inst.n):
        raise InvalidInputError("assignment shape does not match the instance")
    trace = SolveTrace(converged=False)
    best = hungarian(x)
    best_val = score(best)[2]
    xb, r, _ = score(x)
    seen = set()  # the bytes of every round's rounding so far
    for outer in range(FW_INFER_ROUNDS):
        for inner in range(FW_INFER_MAX_INNER):
            eps = fw_step_size(inner)
            s = hungarian(-_gradient(r, xb, x @ b.T, u))
            fixed = (s == x).all()
            x = x - eps * (x - s)
            xb, r, value = score(x)
            trace.steps.append(TraceStep(outer, inner, eps, value))
            if fixed:
                break
        rounded = hungarian(x)
        xb, r, val = score(rounded)
        if val < best_val:
            best, best_val = rounded, val
        key = rounded.tobytes()
        if key in seen:
            trace.converged = True
            break
        seen.add(key)
        x = rounded
    return best, trace
