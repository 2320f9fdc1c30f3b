"""Reverse-mode automatic differentiation over numpy arrays.

The training path records the Frank-Wolfe updates into one flat expression
graph, so a small tape with closure-based backward passes is all that is
needed. Each Sinkhorn normalization on that path is a single node whose
backward pass replays its stored log iterates in numpy (see
`projections.sinkhorn`). Every helper in this module accepts either a `Var` or
a plain ndarray: when no `Var` is involved the computation falls through to
numpy directly, which lets the solver code be written once and reused for
both inference and training.

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

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def T(self):
        return transpose(self)

    def backward(self, seed=None) -> None:
        """Accumulate d(self)/d(leaf) into ``grad`` over the whole graph."""
        if seed is None:
            if self.data.ndim != 0 and self.data.size != 1:
                raise ValueError("implicit backward seed requires a scalar output")
            seed = np.ones_like(self.data)
        order = _toposort(self)
        for node in order:
            node.grad = np.zeros_like(node.data)
        self.grad = np.broadcast_to(np.asarray(seed, dtype=float), self.data.shape).copy()
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

    def __rtruediv__(self, other):
        return div(other, self)

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


def add(a, b):
    if not isinstance(a, Var) and not isinstance(b, Var):
        return np.add(value(a), value(b))
    av, bv = value(a), value(b)

    def bw(g):
        if isinstance(a, Var):
            a.grad += _unbroadcast(g, av.shape)
        if isinstance(b, Var):
            b.grad += _unbroadcast(g, bv.shape)

    return Var(av + bv, tuple(x for x in (a, b) if isinstance(x, Var)), bw)


def sub(a, b):
    if not isinstance(a, Var) and not isinstance(b, Var):
        return np.subtract(value(a), value(b))
    av, bv = value(a), value(b)

    def bw(g):
        if isinstance(a, Var):
            a.grad += _unbroadcast(g, av.shape)
        if isinstance(b, Var):
            b.grad += _unbroadcast(-g, bv.shape)

    return Var(av - bv, tuple(x for x in (a, b) if isinstance(x, Var)), bw)


def neg(a):
    if not isinstance(a, Var):
        return -value(a)

    def bw(g):
        a.grad += -g

    return Var(-a.data, (a,), bw)


def mul(a, b):
    if not isinstance(a, Var) and not isinstance(b, Var):
        return np.multiply(value(a), value(b))
    av, bv = value(a), value(b)

    def bw(g):
        if isinstance(a, Var):
            a.grad += _unbroadcast(g * bv, av.shape)
        if isinstance(b, Var):
            b.grad += _unbroadcast(g * av, bv.shape)

    return Var(av * bv, tuple(x for x in (a, b) if isinstance(x, Var)), bw)


def div(a, b):
    if not isinstance(a, Var) and not isinstance(b, Var):
        return np.divide(value(a), value(b))
    av, bv = value(a), value(b)

    def bw(g):
        if isinstance(a, Var):
            a.grad += _unbroadcast(g / bv, av.shape)
        if isinstance(b, Var):
            b.grad += _unbroadcast(-g * av / (bv * bv), bv.shape)

    return Var(av / bv, tuple(x for x in (a, b) if isinstance(x, Var)), bw)


def matmul(a, b):
    if not isinstance(a, Var) and not isinstance(b, Var):
        return np.matmul(value(a), value(b))
    av, bv = value(a), value(b)

    def bw(g):
        if isinstance(a, Var):
            a.grad += g @ bv.T
        if isinstance(b, Var):
            b.grad += av.T @ g

    return Var(av @ bv, tuple(x for x in (a, b) if isinstance(x, Var)), bw)


def transpose(a):
    if not isinstance(a, Var):
        return value(a).T

    def bw(g):
        a.grad += g.T

    return Var(a.data.T, (a,), bw)


def exp(a):
    if not isinstance(a, Var):
        return np.exp(value(a))
    out = np.exp(a.data)

    def bw(g):
        a.grad += g * out

    return Var(out, (a,), bw)


def log(a):
    if not isinstance(a, Var):
        return np.log(value(a))

    def bw(g):
        a.grad += g / a.data

    return Var(np.log(a.data), (a,), bw)


def sqrt(a):
    if not isinstance(a, Var):
        return np.sqrt(value(a))
    out = np.sqrt(a.data)

    def bw(g):
        a.grad += g * 0.5 / out

    return Var(out, (a,), bw)


def relu(a):
    if not isinstance(a, Var):
        return np.maximum(value(a), 0.0)
    out = np.maximum(a.data, 0.0)

    def bw(g):
        a.grad += g * (a.data > 0.0)

    return Var(out, (a,), bw)


def clip(a, lo: float, hi: float):
    if not isinstance(a, Var):
        return np.clip(value(a), lo, hi)
    out = np.clip(a.data, lo, hi)

    def bw(g):
        a.grad += g * ((a.data > lo) & (a.data < hi))

    return Var(out, (a,), bw)


def asum(a, axis=None, keepdims=False):
    if not isinstance(a, Var):
        return np.sum(value(a), axis=axis, keepdims=keepdims)
    out = np.sum(a.data, axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def bw(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        a.grad += np.broadcast_to(gg, shape)

    return Var(out, (a,), bw)


def amax(a, axis=None, keepdims=False):
    """Maximum with gradient routed to the first maximizer."""
    if not isinstance(a, Var):
        return np.max(value(a), axis=axis, keepdims=keepdims)
    data = a.data
    out = np.max(data, axis=axis, keepdims=keepdims)

    def bw(g):
        gg = np.asarray(g)
        mask = np.zeros_like(data)
        if axis is None:
            mask[np.unravel_index(np.argmax(data), data.shape)] = 1.0
            a.grad += mask * gg
        else:
            idx = np.expand_dims(np.argmax(data, axis=axis), axis)
            np.put_along_axis(mask, idx, 1.0, axis=axis)
            if not keepdims:
                gg = np.expand_dims(gg, axis)
            a.grad += mask * gg

    return Var(out, (a,), bw)
