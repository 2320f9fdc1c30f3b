"""Reverse-mode automatic differentiation over numpy arrays.

The training path records the Frank-Wolfe updates into one flat expression
graph, so a small tape with closure-based backward passes is all that is
needed. Each Sinkhorn normalization on that path is a single node whose
backward pass replays its stored log iterates in numpy (see
`projections.sinkhorn`). Every helper in this module accepts either a `Var` or
a plain ndarray: when no `Var` is involved the computation falls through to
numpy directly, which lets the solver code be written once and reused for
both inference and training. `_binary` and `_unary` hold that rule once; each
primitive gives only its numpy function and its local derivative.

Non-smooth primitives (`relu`, `amax`, `clip`) use the standard
almost-everywhere derivatives; ties in `amax` route the gradient to the first
maximizer so results are deterministic.
"""

from __future__ import annotations

import numpy as np


class Var:
    """Node in the expression graph: a value plus a backward closure."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    # Keep numpy from consuming Vars in mixed expressions; reflected
    # operators below handle ndarray-on-the-left arithmetic.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self._parents = parents
        self._backward = backward

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into ``grad`` over the whole graph."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        order = _toposort(self)
        for node in order:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Var(shape={self.data.shape})"


def _toposort(root: Var) -> list[Var]:
    """Iterative post-order walk; parents precede children in the result."""
    order: list[Var] = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def value(x) -> np.ndarray:
    """Concrete ndarray behind ``x`` whether or not it is on the tape."""
    if isinstance(x, Var):
        return x.data
    return np.asarray(x, dtype=float)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(fn, a, b, da, db):
    """``fn(a, b)``, put on the tape when either argument is a ``Var``.

    ``da(g, av, bv)`` and ``db(g, av, bv)`` give the local derivatives
    against the upstream gradient ``g``; each is summed back down to its
    argument's shape where ``fn`` broadcast it. Plain arguments give
    ``fn``'s numpy result.
    """
    av, bv = value(a), value(b)
    if not isinstance(a, Var) and not isinstance(b, Var):
        return fn(av, bv)

    def bw(g):
        if isinstance(a, Var):
            a.grad += _unbroadcast(da(g, av, bv), av.shape)
        if isinstance(b, Var):
            b.grad += _unbroadcast(db(g, av, bv), bv.shape)

    return Var(fn(av, bv), tuple(x for x in (a, b) if isinstance(x, Var)), bw)


def _unary(fn, a, da):
    """``fn(a)``, put on the tape when ``a`` is a ``Var``; ``da(g, av, out)``
    is the local derivative against the upstream gradient ``g``."""
    if not isinstance(a, Var):
        return fn(value(a))
    av = a.data
    out = fn(av)

    def bw(g):
        a.grad += da(g, av, out)

    return Var(out, (a,), bw)


def add(a, b):
    return _binary(np.add, a, b, lambda g, av, bv: g, lambda g, av, bv: g)


def sub(a, b):
    return _binary(np.subtract, a, b, lambda g, av, bv: g, lambda g, av, bv: -g)


def mul(a, b):
    return _binary(np.multiply, a, b, lambda g, av, bv: g * bv, lambda g, av, bv: g * av)


def div(a, b):
    return _binary(np.divide, a, b, lambda g, av, bv: g / bv,
                   lambda g, av, bv: -g * av / (bv * bv))


def matmul(a, b):
    return _binary(np.matmul, a, b, lambda g, av, bv: g @ bv.T, lambda g, av, bv: av.T @ g)


def neg(a):
    return _unary(np.negative, a, lambda g, av, out: -g)


def transpose(a):
    return _unary(lambda x: x.T, a, lambda g, av, out: g.T)


def exp(a):
    return _unary(np.exp, a, lambda g, av, out: g * out)


def log(a):
    return _unary(np.log, a, lambda g, av, out: g / av)


def sqrt(a):
    # the derivative is infinite at 0; pass back 0 there, so that a row whose
    # squared norm is 0 (a rectified or underflowed one) gives a zero
    # gradient instead of 0 * inf
    return _unary(np.sqrt, a, lambda g, av, out: np.divide(g * 0.5, out, out=np.zeros_like(out),
                                                           where=out != 0.0))


def relu(a):
    return _unary(lambda x: np.maximum(x, 0.0), a, lambda g, av, out: g * (av > 0.0))


def clip(a, lo: float, hi: float):
    return _unary(lambda x: np.clip(x, lo, hi), a, lambda g, av, out: g * ((av > lo) & (av < hi)))


def asum(a, axis=None, keepdims=False):
    def da(g, av, out):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, av.shape)

    return _unary(lambda x: np.sum(x, axis=axis, keepdims=keepdims), a, da)


def amax(a):
    """Global maximum with gradient routed to the first maximizer."""
    def da(g, av, out):
        mask = np.zeros_like(av)
        mask[np.unravel_index(np.argmax(av), av.shape)] = 1.0
        return mask * g

    return _unary(np.max, a, da)
