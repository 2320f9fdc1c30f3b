"""Forward composition, reverse-mode gradients, SGD loop, and history output."""

import types

import numpy as np
import pytest
from oracles import finite_difference_grad, unrolled_sinkhorn

from quadmatch import autodiff as ad
from quadmatch import qap, refine
from quadmatch.errors import InvalidInputError, NumericalFailureError
from quadmatch.losses import LossConfig, permutation_to_matrix
from quadmatch.refine import (init_assignment, init_parameters, node_affinity,
                              refine_pipeline)
from quadmatch.synth import SynthConfig, easy_config, gen_dataset, gen_synthetic_pair
from quadmatch.train import (TrainConfig, forward, grad_params, sgd_step, train)

FIXTURE_CFG = SynthConfig(n_inliers=5, d=4, classes=5, feature_noise=0.2,
                          coord_jitter=0.02, seed=13)


@pytest.fixture
def pair():
    return gen_synthetic_pair(FIXTURE_CFG)


@pytest.fixture
def params():
    return init_parameters(6, n_layers=1, seed=7)


class TestForward:
    def test_m1_zero_is_projected_affinity(self, pair, params):
        res = forward(pair, params, m1=0)
        p_a, p_b, _, _ = refine_pipeline(pair.a.attributes, pair.b.attributes,
                                         pair.a.adjacency, pair.b.adjacency, params)
        aff = node_affinity(p_a, p_b, params.w_aff)
        expected = ad.value(init_assignment(aff))
        np.testing.assert_allclose(ad.value(res.assignment), expected, atol=1e-12)
        assert res.trace.steps == []

    def test_output_doubly_stochastic(self, pair, params):
        res = forward(pair, params)
        x = ad.value(res.assignment)
        np.testing.assert_allclose(x.sum(axis=0), 1.0, atol=1e-5)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-5)

    def test_deterministic(self, pair, params):
        a = ad.value(forward(pair, params).assignment)
        b = ad.value(forward(pair, params).assignment)
        np.testing.assert_array_equal(a, b)

    def test_binary_adjacency_ablation(self, pair, params):
        res = forward(pair, params, use_binary_adjacency=True)
        np.testing.assert_array_equal(ad.value(res.instance.a_d), pair.a.adjacency)

    def test_unequal_sizes_rejected(self, params):
        a = gen_synthetic_pair(SynthConfig(n_inliers=5, d=4, classes=5, seed=1))
        b = gen_synthetic_pair(SynthConfig(n_inliers=6, d=4, classes=6, seed=2))
        from quadmatch.graphs import GraphPair
        mismatched = GraphPair(a.a, b.b, np.arange(5))
        with pytest.raises(InvalidInputError):
            forward(mismatched, params)


class TestGradParams:
    def test_reverse_matches_finite_difference(self, pair, params):
        g_rev, loss_rev, _ = grad_params(pair, params, LossConfig(), m1=1, m2=2)
        g_fd, loss_fd, _ = finite_difference_grad(pair, params, LossConfig(), m1=1, m2=2)
        assert loss_rev == pytest.approx(loss_fd)
        rel = (np.linalg.norm(g_rev.flatten() - g_fd.flatten())
               / np.linalg.norm(g_fd.flatten()))
        assert rel < 1e-3

    def test_cross_entropy_gradients(self, pair, params):
        g_rev, _, _ = grad_params(pair, params, LossConfig(), loss="cross_entropy", m1=1, m2=2)
        g_fd, _, _ = finite_difference_grad(pair, params, LossConfig(), loss="cross_entropy",
                                            m1=1, m2=2)
        rel = (np.linalg.norm(g_rev.flatten() - g_fd.flatten())
               / np.linalg.norm(g_fd.flatten()))
        assert rel < 1e-3

    def test_fused_sinkhorn_matches_unrolled_pipeline(self, monkeypatch):
        # C8 settings: n=8 easy pairs, two GCN layers, m1=3, m2=5, tau=0.3
        pairs = gen_dataset(easy_config(seed=11), 2)
        params = init_parameters(18, n_layers=2, seed=5)
        cfg = LossConfig(alpha=2.0, beta=0.1)
        kwargs = dict(m1=3, m2=5, tau=0.3)
        sizes = []
        toposort = ad._toposort

        def counted(root):
            order = toposort(root)
            sizes.append(len(order))
            return order

        monkeypatch.setattr(ad, "_toposort", counted)
        fused = [grad_params(p, params, cfg, **kwargs) for p in pairs]
        monkeypatch.setattr(ad, "_toposort", toposort)
        monkeypatch.setattr(qap, "sinkhorn", unrolled_sinkhorn)
        monkeypatch.setattr(refine, "sinkhorn", unrolled_sinkhorn)
        unrolled = [grad_params(p, params, cfg, **kwargs) for p in pairs]

        assert len(sizes) == len(pairs) and max(sizes) < 500
        for (g, loss_v, x), (g_o, loss_o, x_o) in zip(fused, unrolled):
            assert loss_v == loss_o
            np.testing.assert_array_equal(x, x_o)
            np.testing.assert_array_equal(g.flatten(), g_o.flatten())

    def test_assignment_is_the_forward_map(self, pair, params):
        # training differentiates the very map inference evaluates
        _, _, x = grad_params(pair, params, LossConfig(), m1=1, m2=2)
        np.testing.assert_array_equal(x, forward(pair, params, m1=1, m2=2).assignment)

    def test_gradients_are_parameter_shaped(self, pair, params):
        g, _, x = grad_params(pair, params, LossConfig(), m1=1, m2=2)
        assert g.n_layers == params.n_layers
        for (k1, t1), (k2, t2) in zip(g.tensors().items(), params.tensors().items()):
            assert k1 == k2 and ad.value(t1).shape == ad.value(t2).shape
        assert x.shape == (5, 5)


class TestSgdStep:
    def test_zero_lr_unchanged(self, params):
        grads = params.replace_flat(np.ones_like(params.flatten()))
        out = sgd_step(params, grads, 0.0)
        np.testing.assert_array_equal(out.flatten(), params.flatten())

    def test_zero_grads_unchanged(self, params):
        grads = params.replace_flat(np.zeros_like(params.flatten()))
        out = sgd_step(params, grads, 0.5)
        np.testing.assert_array_equal(out.flatten(), params.flatten())

    def test_scalar_arithmetic(self, params):
        theta = params.flatten()
        grads = params.replace_flat(np.full_like(theta, 2.0))
        out = sgd_step(params.replace_flat(np.full_like(theta, 1.0)), grads, 0.1)
        np.testing.assert_allclose(out.flatten(), 0.8)

    def test_purity(self, params):
        before = params.flatten().copy()
        grads = params.replace_flat(np.ones_like(before))
        sgd_step(params, grads, 0.1)
        np.testing.assert_array_equal(params.flatten(), before)

    def test_shape_mismatch_rejected(self, params):
        bad = init_parameters(6, n_layers=2, seed=0)
        with pytest.raises(InvalidInputError):
            sgd_step(params, bad, 0.1)


class TestTrainLoop:
    def test_single_epoch_history(self):
        pairs = gen_dataset(easy_config(seed=3, n_inliers=5, d=4, classes=5), 3)
        cfg = TrainConfig(epochs=1, seed=0, n_layers=1)
        _, history = train(pairs, cfg)
        assert len(history.entries) == 1
        assert np.isfinite(history.entries[0].mean_loss)

    def test_determinism(self):
        pairs = gen_dataset(easy_config(seed=3, n_inliers=5, d=4, classes=5), 3)
        cfg = TrainConfig(epochs=2, seed=4, n_layers=1)
        p1, h1 = train(pairs, cfg)
        p2, h2 = train(pairs, cfg)
        np.testing.assert_array_equal(p1.flatten(), p2.flatten())
        assert h1.to_csv() == h2.to_csv()

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            train([], TrainConfig(epochs=1))

    def test_history_csv_shape(self):
        pairs = gen_dataset(easy_config(seed=3, n_inliers=5, d=4, classes=5), 2)
        _, history = train(pairs, TrainConfig(epochs=3, seed=0, n_layers=1))
        lines = history.to_csv().splitlines()
        assert lines[0] == "epoch,mean_loss,train_acc,param_norm"
        assert len(lines) == 4

    def test_numerical_failure_carries_history(self):
        # unclamped cross entropy on a sharp forward blows up the gradient
        pairs = gen_dataset(easy_config(seed=3, n_inliers=6, d=4, classes=2,
                                        feature_noise=0.0, coord_jitter=0.0,
                                        rotate_b=True), 2)
        cfg = TrainConfig(epochs=50, seed=0, loss="cross_entropy",
                          loss_cfg=LossConfig(clip_eps=1e-300), tau=0.05,
                          grad_cap=None, learning_rate=10.0)
        try:
            train(pairs, cfg)
        except NumericalFailureError as exc:
            assert exc.stage in {"forward", "loss", "parameter_gradient"}
            assert exc.history is not None
        # a run that survives is also acceptable; the contract under test is
        # only that failures carry partial history


class TestConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=0)

    def test_bad_lr(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(learning_rate=0.0)

    def test_bad_loss_name(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(loss="hinge")

    @pytest.mark.parametrize("overrides", [
        {"tau": 0.0}, {"tau": -1.0}, {"tau": float("nan")},
        {"grad_cap": 0.0}, {"grad_cap": -1.0}, {"grad_cap": float("nan")},
    ])
    def test_bad_tau_or_grad_cap(self, overrides):
        with pytest.raises(InvalidInputError):
            TrainConfig(**overrides)


def test_package_attribute_is_the_module():
    # the package re-exports no ``train`` function that would shadow its module
    import quadmatch.train as T
    assert isinstance(T, types.ModuleType)
    assert T.train.__module__ == "quadmatch.train"
