"""Exception types shared across the package."""

import math
from contextlib import contextmanager
from numbers import Integral, Real


class InvalidInputError(ValueError):
    """An operation received input that violates its preconditions."""


class NumericalFailureError(RuntimeError):
    """A computation produced non-finite values.

    ``stage`` names the pipeline stage where the failure was detected;
    ``history`` starts as None, and training sets it to the partial history
    of a run that fails mid-way.
    """

    def __init__(self, message: str, stage: str):
        super().__init__(message)
        self.stage = stage
        self.history = None


def require_ints(obj, names) -> None:
    """Raise ``InvalidInputError`` unless each named attribute of ``obj`` is an
    integer; a bool is rejected, although Python counts it as one."""
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, Integral):
            raise InvalidInputError(f"{name} must be an integer, got {v!r}")


def require_reals(obj, names) -> None:
    """Raise ``InvalidInputError`` unless each named attribute of ``obj`` is a
    real number, so neither NaN nor +-inf; a bool is rejected, so ``true`` in
    a JSON config cannot pass as 1.0."""
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, Real) or not -math.inf < v < math.inf:
            raise InvalidInputError(f"{name} must be a real number, got {v!r}")


def require_seed(seed) -> None:
    """Raise ``InvalidInputError`` naming ``seed`` unless it is >= 0; numpy's
    own error for a negative seed, "expected non-negative integer", names
    nothing."""
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")


@contextmanager
def prefixed(prefix: str):
    """Re-raise an ``InvalidInputError`` from the block with ``prefix: ``
    before its message, naming the graph or pair it concerns."""
    try:
        yield
    except InvalidInputError as exc:
        raise InvalidInputError(f"{prefix}: {exc}") from exc
