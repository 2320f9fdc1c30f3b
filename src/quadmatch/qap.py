"""Relaxed Koopmans-Beckmann objective and the two-mode Frank-Wolfe solver.

The objective couples a quadratic structural term (Frobenius discrepancy
between the weighted adjacencies under the current soft assignment) with a
linear unary affinity term. Training mode keeps every step differentiable by
using a temperature-softened Sinkhorn step in place of the exact linear
minimization; inference mode uses Hungarian directions and rounds to a
permutation, tracking the best discrete iterate seen.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError
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

    def values(self) -> "QapInstance":
        return QapInstance(ad.value(self.a_d), ad.value(self.b_d), ad.value(self.x_u))


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
        buf = io.StringIO()
        buf.write("outer,inner,epsilon,objective\n")
        for s in self.steps:
            buf.write(f"{s.outer},{s.inner},{s.epsilon!r},{s.objective!r}\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def objective(x, inst: QapInstance):
    """Structural discrepancy plus negated unary alignment."""
    xv = ad.value(x)
    if xv.shape != (inst.n, inst.n):
        raise InvalidInputError("assignment shape does not match the instance")
    r = inst.a_d - (x @ inst.b_d) @ ad.transpose(x)
    return ad.asum(r * r) - ad.asum(inst.x_u * x)


def objective_gradient(x, inst: QapInstance):
    """Analytic gradient of the objective with respect to the assignment."""
    xv = ad.value(x)
    if xv.shape != (inst.n, inst.n):
        raise InvalidInputError("assignment shape does not match the instance")
    r = inst.a_d - (x @ inst.b_d) @ ad.transpose(x)
    quad = ad.transpose(r) @ (x @ inst.b_d) + r @ (x @ ad.transpose(inst.b_d))
    return -2.0 * quad - inst.x_u


def fw_step_size(k: int) -> float:
    """Diminishing conditional-gradient step: 2 / (k + 2) at inner index k."""
    if k < 0:
        raise InvalidInputError("step index must be non-negative")
    return 2.0 / (k + 2)


def fw_direction(x, inst: QapInstance, *, tau: float = 1.0):
    """Smooth descent target for the linearized objective.

    The Sinkhorn projection of ``exp(-grad / tau)`` at a fixed iteration
    count, a differentiable surrogate for the exact minimizer over
    permutations that ``frank_wolfe_infer`` takes with Hungarian. The
    benefit ``-grad`` is globally shifted by its maximum before
    exponentiating, which cannot overflow and leaves the Sinkhorn fixed point
    unchanged (a global scaling).
    """
    benefit = -objective_gradient(x, inst)
    log_dir = (benefit - ad.amax(benefit)) / tau
    return sinkhorn(log_dir, tol=0.0, log_input=True).matrix


def frank_wolfe_train(x0, inst: QapInstance, m1: int = FW_TRAIN_OUTER, m2: int = FW_TRAIN_INNER, *,
                      tau: float = 1.0):
    """Differentiable Frank-Wolfe: m1 rounds of m2 smooth pursuit steps.

    Each inner step blends the iterate toward the soft direction with the
    diminishing step size; each round ends with a Sinkhorn re-projection
    (idempotent up to tolerance since the blend stays doubly stochastic).
    The whole map is differentiable in ``x0`` and in any tape parameters
    reachable through the instance. Returns the final iterate and a trace.
    """
    if m1 < 0 or m2 < 0:
        raise InvalidInputError("iteration counts must be non-negative")
    inst_v = inst.values()
    trace = SolveTrace(converged=True)
    x = x0
    for outer in range(m1):
        for inner in range(m2):
            eps = fw_step_size(inner)
            s = fw_direction(x, inst, tau=tau)
            x = x - eps * (x - s)
            trace.steps.append(TraceStep(outer, inner, eps, float(objective(ad.value(x), inst_v))))
        x = sinkhorn(x, tol=0.0).matrix
    return x, trace


def frank_wolfe_infer(x0, inst: QapInstance):
    """Discrete Frank-Wolfe refinement returning a permutation matrix.

    Each of at most ``FW_INFER_ROUNDS`` rounds pursues Hungarian directions
    for at most ``FW_INFER_MAX_INNER`` steps, stopping early at a fixed point
    (the direction equals the iterate, so every later step is a no-op), then
    rounds to a permutation. The best discrete iterate by objective value is
    tracked across the run, starting from the plain rounding of ``x0``, so
    the returned objective never exceeds the initialization's.
    Stops early once the rounded iterate repeats between rounds.

    Each step forms ``x @ B`` and the residual ``A - x B x^T`` once, after
    its update, and takes from them both the traced objective and the next
    step's gradient; the arithmetic is that of ``objective`` and of
    ``hungarian(-objective_gradient(x, inst))``, so every value is the same
    bits.
    """
    if isinstance(x0, ad.Var):
        raise InvalidInputError("inference solver is not differentiable; pass a plain array")
    x = np.asarray(x0, dtype=float)
    inst_v = inst.values()
    a, b, u = inst_v.a_d, inst_v.b_d, inst_v.x_u
    trace = SolveTrace(converged=False)

    best = hungarian(x)
    best_val = float(objective(best, inst_v))

    prev_rounded = None
    for outer in range(FW_INFER_ROUNDS):
        xb = x @ b
        r = a - xb @ x.T
        for inner in range(FW_INFER_MAX_INNER):
            eps = fw_step_size(inner)
            g = -2.0 * (r.T @ xb + r @ (x @ b.T)) - u
            s = hungarian(-g)
            fixed = np.array_equal(s, x)
            x = x - eps * (x - s)
            xb = x @ b
            r = a - xb @ x.T
            trace.steps.append(TraceStep(outer, inner, eps, float(np.sum(r * r) - np.sum(u * x))))
            if fixed:
                break
        rounded = hungarian(x)
        val = float(objective(rounded, inst_v))
        if val < best_val:
            best, best_val = rounded, val
        if prev_rounded is not None and np.array_equal(rounded, prev_rounded):
            trace.converged = True
            break
        prev_rounded = rounded
        x = rounded
    return best, trace
