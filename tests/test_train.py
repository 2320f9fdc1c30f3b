"""Forward composition, reverse-mode gradients, SGD loop, and history output."""

import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from oracles import finite_difference_grad, unrolled_sinkhorn

from quadmatch import autodiff as ad
from quadmatch import qap, refine
from quadmatch.errors import InvalidInputError, NumericalFailureError
from quadmatch.graphs import make_pair
from quadmatch.losses import LossConfig
from quadmatch.qap import frank_wolfe_train
from quadmatch.refine import (forward, init_assignment, init_parameters, node_affinity,
                              refine_pipeline)
from quadmatch.synth import SynthConfig, easy_config, gen_dataset, gen_synthetic_pair
from quadmatch.train import GRAD_CAP, LOSSES, TrainConfig, grad_params, sgd_step, train

FIXTURE_CFG = SynthConfig(n_inliers=5, d=4, classes=5, feature_noise=0.2, coord_jitter=0.02)
# the gradient checks run a short solve at the warm-start temperature
GRAD_CFG = TrainConfig(m1=1, m2=2, tau=1.0)


@pytest.fixture
def pair():
    return gen_synthetic_pair(FIXTURE_CFG, rng=np.random.default_rng(13))


@pytest.fixture
def params():
    return init_parameters(6, n_layers=1, seed=7)


class TestForward:
    def test_m1_zero_is_projected_affinity(self, pair, params):
        start, _ = forward(pair, params)
        p_a, p_b, _, _ = refine_pipeline(pair.a.attributes, pair.b.attributes,
                                         pair.a.adjacency, pair.b.adjacency, params)
        aff = node_affinity(p_a, p_b, params.w_aff)
        expected = ad.value(init_assignment(aff))
        np.testing.assert_allclose(ad.value(start), expected, atol=1e-12)

    def test_output_doubly_stochastic(self, pair, params):
        x = ad.value(frank_wolfe_train(*forward(pair, params),
                                       qap.FW_TRAIN_OUTER, qap.FW_TRAIN_INNER, tau=1.0))
        np.testing.assert_allclose(x.sum(axis=0), 1.0, atol=1e-5)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-5)

    def test_deterministic(self, pair, params):
        a = ad.value(frank_wolfe_train(*forward(pair, params),
                                       qap.FW_TRAIN_OUTER, qap.FW_TRAIN_INNER, tau=1.0))
        b = ad.value(frank_wolfe_train(*forward(pair, params),
                                       qap.FW_TRAIN_OUTER, qap.FW_TRAIN_INNER, tau=1.0))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_bad_tau_rejected(self, pair, params, tau):
        # without the check -1.0 pursues the ascent direction silently and
        # 0.0 divides by zero before Sinkhorn rejects the non-finite input
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="tau"):
                frank_wolfe_train(*forward(pair, params), qap.FW_TRAIN_OUTER, qap.FW_TRAIN_INNER,
                                  tau=tau)


class TestGradParams:
    def test_reverse_matches_finite_difference(self, pair, params):
        g_rev, loss_rev, _ = grad_params(pair, params, GRAD_CFG)
        g_fd, loss_fd, _ = finite_difference_grad(pair, params, GRAD_CFG)
        assert loss_rev == pytest.approx(loss_fd)
        assert np.linalg.norm(g_rev - g_fd) / np.linalg.norm(g_fd) < 1e-3

    def test_cross_entropy_gradients(self, pair, params):
        cfg = TrainConfig(loss="cross_entropy", m1=1, m2=2, tau=1.0)
        g_rev, _, _ = grad_params(pair, params, cfg)
        g_fd, _, _ = finite_difference_grad(pair, params, cfg)
        assert np.linalg.norm(g_rev - g_fd) / np.linalg.norm(g_fd) < 1e-3

    def test_fused_sinkhorn_matches_unrolled_pipeline(self, monkeypatch):
        # C8 settings: n=8 easy pairs, two GCN layers, m1=3, m2=5, tau=0.3
        pairs = gen_dataset(easy_config(seed=11), 2)
        params = init_parameters(18, n_layers=2, seed=5)
        cfg = TrainConfig(m1=3, m2=5, tau=0.3, loss_cfg=LossConfig(alpha=2.0, beta=0.1))
        sizes = []
        toposort = ad._toposort

        def counted(root):
            order = toposort(root)
            sizes.append(len(order))
            return order

        monkeypatch.setattr(ad, "_toposort", counted)
        fused = [grad_params(p, params, cfg) for p in pairs]
        monkeypatch.setattr(ad, "_toposort", toposort)
        monkeypatch.setattr(qap, "sinkhorn", unrolled_sinkhorn)
        monkeypatch.setattr(refine, "sinkhorn", unrolled_sinkhorn)
        unrolled = [grad_params(p, params, cfg) for p in pairs]

        assert len(sizes) == len(pairs) and max(sizes) < 500
        for (g, loss_v, x), (g_o, loss_o, x_o) in zip(fused, unrolled):
            assert loss_v == loss_o
            np.testing.assert_array_equal(x, x_o)
            np.testing.assert_array_equal(g, g_o)

    def test_assignment_is_the_forward_map(self, pair, params):
        # training differentiates the very map inference evaluates
        _, _, x = grad_params(pair, params, GRAD_CFG)
        np.testing.assert_array_equal(x, frank_wolfe_train(*forward(pair, params), 1, 2,
                                                           tau=1.0))

    def test_gradient_is_flat_in_parameter_order(self, pair, params):
        # the finite-difference tests pin the order entry by entry
        g, _, x = grad_params(pair, params, GRAD_CFG)
        assert g.shape == params.flatten().shape and x.shape == (5, 5)

    def test_underflowed_iterate_is_a_forward_failure(self):
        # at tau=0.001 the Sinkhorn direction has entries that underflow to 0,
        # and the first step, of size 1, lands on it: no log to re-project
        pair = gen_dataset(SynthConfig(n_inliers=6, d=4, classes=2, seed=3), 2)[0]
        with pytest.raises(NumericalFailureError) as info:
            grad_params(pair, init_parameters(6, n_layers=2, seed=0), TrainConfig(tau=0.001))
        assert info.value.stage == "forward"

    @pytest.mark.parametrize("loss,stage", [
        (lambda x, x_star, cfg: ad.asum(ad.log(x * 0.0)), "loss"),
        # the loss is finite, but d(1/u)/du at u = 1e-300 overflows to -inf,
        # and times 0 it is NaN
        (lambda x, x_star, cfg: ad.asum(ad.div(1.0, x * 0.0 + 1e-300)), "parameter_gradient"),
    ], ids=["loss", "parameter_gradient"])
    def test_non_finite_stage_is_named(self, pair, params, monkeypatch, loss, stage):
        monkeypatch.setitem(LOSSES, "cross_entropy", loss)
        with pytest.raises(NumericalFailureError) as info:
            grad_params(pair, params, TrainConfig(loss="cross_entropy", m1=1, m2=2))
        assert info.value.stage == stage and info.value.history is None


class TestSgdStep:
    def test_zero_lr_unchanged(self, params):
        out = sgd_step(params, np.ones_like(params.flatten()), 0.0)
        np.testing.assert_array_equal(out.flatten(), params.flatten())

    def test_zero_grads_unchanged(self, params):
        out = sgd_step(params, np.zeros_like(params.flatten()), 0.5)
        np.testing.assert_array_equal(out.flatten(), params.flatten())

    def test_scalar_arithmetic(self, params):
        theta = params.flatten()
        out = sgd_step(params.replace_flat(np.full_like(theta, 1.0)), np.full_like(theta, 2.0), 0.1)
        np.testing.assert_allclose(out.flatten(), 0.8)

    def test_purity(self, params):
        before = params.flatten().copy()
        sgd_step(params, np.ones_like(before), 0.1)
        np.testing.assert_array_equal(params.flatten(), before)

    def test_shape_mismatch_rejected(self, params):
        # the fixture's one layer of 6 x 6 tensors flattens to 108 entries;
        # 180 is the length of a two-layer set, and 1 would broadcast
        for size in (1, 180):
            with pytest.raises(InvalidInputError, match=f"^gradient has {size} entries, not 108$"):
                sgd_step(params, np.ones(size), 0.1)


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

    def test_layer_count_mismatch_rejected(self, pair, params):
        # a 1-layer set under a 0-layer config would otherwise train 1 layer
        with pytest.raises(InvalidInputError, match="params.n_layers 1 != cfg.n_layers 0"):
            train([pair], TrainConfig(epochs=1, n_layers=0), params)

    def test_history_csv_shape(self):
        pairs = gen_dataset(easy_config(seed=3, n_inliers=5, d=4, classes=5), 2)
        _, history = train(pairs, TrainConfig(epochs=3, seed=0, n_layers=1))
        lines = history.to_csv().splitlines()
        assert lines[0] == "epoch,mean_loss,train_acc,param_norm"
        assert len(lines) == 4

    def test_failure_in_a_later_epoch_carries_finished_epochs(self, monkeypatch):
        # two pairs an epoch, so the third loss is the first of epoch 1
        pairs = gen_dataset(easy_config(seed=3, n_inliers=5, d=4, classes=5), 2)
        cfg = TrainConfig(epochs=3, m1=1, m2=2, n_layers=1, seed=0)
        _, clean = train(pairs, replace(cfg, epochs=1))
        real, calls = LOSSES["false_matching"], []

        def third_fails(x, x_star, loss_cfg):
            calls.append(None)
            return real(x, x_star, loss_cfg) if len(calls) != 3 else ad.asum(ad.log(x * 0.0))

        monkeypatch.setitem(LOSSES, "false_matching", third_fails)
        with pytest.raises(NumericalFailureError) as info:
            train(pairs, cfg)
        assert info.value.stage == "loss" and len(calls) == 3
        assert info.value.history.entries == clean.entries

    @pytest.mark.parametrize("loss,clipped", [("false_matching", True),
                                              ("cross_entropy", False)])
    def test_step_norm_is_capped(self, pair, params, loss, clipped):
        # at the fixture's start the false-matching gradient norm is about
        # 436, the cross-entropy one about 14
        cfg = TrainConfig(epochs=1, m1=1, m2=2, loss=loss, n_layers=1)
        grad, _, _ = grad_params(pair, params, cfg)
        assert (np.linalg.norm(grad) > GRAD_CAP) == clipped
        trained, _ = train([pair], cfg, params)
        step = np.linalg.norm(trained.flatten() - params.flatten())
        np.testing.assert_allclose(step, cfg.learning_rate * min(np.linalg.norm(grad), GRAD_CAP),
                                   rtol=1e-12)

    def test_zero_features_train(self):
        # every attribute row of the GCN's input is its coordinates alone, and
        # some refined rows rectify to zero, where the kernel's norm has an
        # infinite derivative
        pairs = _with_features(gen_dataset(easy_config(seed=3, n_inliers=5, d=4, classes=5), 2),
                               0.0)
        _, history = train(pairs, TrainConfig(epochs=1, seed=3))
        assert np.isfinite(history.entries[0].mean_loss)

    def test_overflowing_gradient_norm_is_capped(self):
        # constant features of 1e100 give a finite gradient whose squared
        # norm overflows; the step is still capped to GRAD_CAP, not zeroed
        pairs = _with_features(gen_dataset(easy_config(seed=0, n_inliers=5, d=4, classes=5), 1),
                               1e100)
        params = init_parameters(6, seed=0)
        cfg = TrainConfig(epochs=1)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.linalg.norm(grad_params(pairs[0], params, cfg)[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trained, _ = train(pairs, cfg, params)
        step = np.linalg.norm(trained.flatten() - params.flatten())
        np.testing.assert_allclose(step, cfg.learning_rate * GRAD_CAP, rtol=1e-12)


def _with_features(pairs, fill):
    """The pairs with every feature entry set to ``fill``."""
    def filled(g):
        return g.coords, np.full_like(g.features, fill)

    return [make_pair(filled(p.a), filled(p.b), p.gt) for p in pairs]


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
    ])
    def test_bad_tau_or_grad_cap(self, overrides):
        with pytest.raises(InvalidInputError):
            TrainConfig(**overrides)


def test_package_attribute_is_the_module():
    # the package re-exports no ``train`` function that would shadow its module
    import quadmatch.train as T
    assert isinstance(T, types.ModuleType)
    assert T.train.__module__ == "quadmatch.train"
