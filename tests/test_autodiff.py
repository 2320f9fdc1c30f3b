"""Finite-difference checks for every tape primitive."""

import numpy as np
import pytest
from oracles import logsumexp

from quadmatch import autodiff as ad


def fd_grad(f, x, h=1e-6):
    """Central differences of a scalar function of one array."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[idx] += h
        down[idx] -= h
        g[idx] = (f(up) - f(down)) / (2 * h)
    return g


def check(build, x, h=1e-6, rtol=1e-6):
    """Compare tape backward against finite differences of the same scalar."""
    v = ad.Var(x)
    out = build(v)
    out.backward()
    expected = fd_grad(lambda a: float(ad.value(build(ad.Var(a)))), x, h=h)
    np.testing.assert_allclose(v.grad, expected, rtol=rtol, atol=1e-8)


def test_arithmetic_chain(rng):
    x = rng.normal(size=(4, 4))
    other = rng.normal(size=(4, 4))
    check(lambda v: ad.asum((v * other + v / 2.0 - other) * v), x)


def test_matmul_transpose(rng):
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(5, 3))
    check(lambda v: ad.asum(ad.transpose(v) @ (v @ w)), x)


def test_reverse_operand_matmul(rng):
    x = rng.normal(size=(4, 4))
    c = rng.normal(size=(4, 4))
    check(lambda v: ad.asum(c @ v), x)


def test_exp_log_sqrt(rng):
    x = rng.uniform(0.5, 2.0, size=(3, 3))
    check(lambda v: ad.asum(ad.exp(v) + ad.log(v) + ad.sqrt(v)), x)


def test_relu_and_abs(rng):
    x = rng.normal(size=(5, 5))
    x[np.abs(x) < 1e-3] += 0.1  # keep clear of the kinks
    check(lambda v: ad.asum(ad.relu(v) * 2.0 + (ad.relu(v) + ad.relu(-v))), x)  # |v| from relus


def test_clip(rng):
    x = rng.uniform(-1.0, 2.0, size=(4, 4))
    x[np.abs(x - 0.0) < 1e-3] += 0.01
    x[np.abs(x - 1.0) < 1e-3] += 0.01
    check(lambda v: ad.asum(ad.clip(v, 0.0, 1.0) * x), x)


@pytest.mark.parametrize("axis,keepdims", [(0, True), (1, True), (0, False), (1, False)])
def test_sum_axis(rng, axis, keepdims):
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4))
    check(lambda v: ad.asum(w * (v - ad.asum(v, axis=axis, keepdims=True))), x)
    check(lambda v: ad.asum(ad.asum(v * v, axis=axis, keepdims=keepdims)), x)


def test_global_max(rng):
    x = rng.normal(size=(4, 4))
    check(lambda v: ad.asum(ad.exp(v - ad.amax(v))), x)


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp(rng, axis):
    x = rng.normal(size=(4, 4))
    w = rng.normal(size=(4, 4))
    check(lambda v: ad.asum(w * (v - logsumexp(v, axis=axis, keepdims=True))), x)


def test_logsumexp_matches_plain(rng):
    x = rng.normal(size=(5, 3)) * 10
    expected = np.log(np.exp(x).sum(axis=1))
    np.testing.assert_allclose(logsumexp(x, axis=1), expected, rtol=1e-12)


def test_broadcast_backward(rng):
    x = rng.normal(size=(1, 4))
    other = rng.normal(size=(3, 4))
    check(lambda v: ad.asum(v * other), x)


def test_grad_accumulates_through_reuse(rng):
    x = rng.normal(size=(3, 3))
    check(lambda v: ad.asum(v * v + v @ v), x)


def test_scaling_loss_scales_gradient(rng):
    x = rng.normal(size=(3, 3))
    v1, v2 = ad.Var(x), ad.Var(x)
    out1 = ad.asum(ad.exp(v1))
    out2 = 2.0 * ad.asum(ad.exp(v2))
    out1.backward()
    out2.backward()
    np.testing.assert_allclose(v2.grad, 2.0 * v1.grad, rtol=1e-12)


# every primitive next to the numpy call it must equal on plain arrays
PRIMITIVES = {
    "add": (ad.add, np.add, 2),
    "sub": (ad.sub, np.subtract, 2),
    "mul": (ad.mul, np.multiply, 2),
    "div": (ad.div, np.divide, 2),
    "matmul": (ad.matmul, np.matmul, 2),
    "neg": (ad.neg, np.negative, 1),
    "transpose": (ad.transpose, np.transpose, 1),
    "exp": (ad.exp, np.exp, 1),
    "log": (ad.log, np.log, 1),
    "sqrt": (ad.sqrt, np.sqrt, 1),
    "relu": (ad.relu, lambda x: np.maximum(x, 0.0), 1),
    "clip": (lambda x: ad.clip(x, 1.2, 1.7), lambda x: np.clip(x, 1.2, 1.7), 1),
    "asum": (lambda x: ad.asum(x, axis=1), lambda x: np.sum(x, axis=1), 1),
    "asum_keepdims": (lambda x: ad.asum(x, axis=0, keepdims=True),
                      lambda x: np.sum(x, axis=0, keepdims=True), 1),
    "amax": (ad.amax, np.max, 1),
}


def test_numpy_passthrough(rng):
    for name, (prim, reference, arity) in PRIMITIVES.items():
        args = [rng.uniform(1.0, 2.0, size=(3, 3)) for _ in range(arity)]
        expected = reference(*args)
        plain = prim(*args)
        assert not isinstance(plain, ad.Var), name
        np.testing.assert_array_equal(plain, expected, err_msg=name)
        assert np.asarray(plain).dtype == np.asarray(expected).dtype, name
        # any Var argument puts the op on the tape with the same value
        for k in range(arity):
            mixed = [ad.Var(a) if i == k else a for i, a in enumerate(args)]
            out = prim(*mixed)
            assert isinstance(out, ad.Var), name
            np.testing.assert_array_equal(out.data, expected, err_msg=name)


def test_backward_requires_scalar(rng):
    v = ad.Var(rng.normal(size=(2, 2)))
    out = v * 2.0
    with pytest.raises(ValueError):
        out.backward()


def test_deep_chain_no_recursion_limit():
    v = ad.Var(np.ones((2, 2)))
    x = v
    for _ in range(5000):
        x = x * 1.0001
    out = ad.asum(x)
    out.backward()
    assert np.all(np.isfinite(v.grad))


def test_sqrt_passes_back_zero_where_it_is_zero():
    # the derivative is infinite at 0; a zero there keeps 0 * inf out of a
    # zero-norm row's gradient
    v = ad.Var(np.array([0.0, 4.0]))
    ad.asum(ad.sqrt(v)).backward()
    np.testing.assert_array_equal(v.grad, [0.0, 0.25])
