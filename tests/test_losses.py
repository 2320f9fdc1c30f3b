"""Loss values, gradients, and matching metrics against hand computations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import false_matching_loss_grad

from quadmatch import autodiff as ad
from quadmatch.errors import InvalidInputError
from quadmatch.losses import (LossConfig, accuracy, cross_entropy_loss, f1_score,
                              false_matching_loss, matrix_to_permutation,
                              permutation_to_matrix)
from quadmatch.projections import sinkhorn


def random_ds(seed, n):
    rng = np.random.default_rng(seed)
    return ad.value(sinkhorn(rng.uniform(0.1, 1.0, size=(n, n)), max_iter=500).matrix)


def random_perm_matrix(seed, n):
    return np.eye(n)[np.random.default_rng(seed).permutation(n)]


class TestFalseMatchingLoss:
    def test_exact_match_gives_two(self):
        x_star = random_perm_matrix(3, 5)
        assert false_matching_loss(x_star, x_star) == pytest.approx(2.0)

    def test_one_by_one(self):
        assert false_matching_loss(np.ones((1, 1)), np.ones((1, 1))) == pytest.approx(2.0)

    def test_single_row_example(self):
        cfg = LossConfig(alpha=2.0, beta=0.1)
        x_star = np.array([[0.0, 0.0, 1.0]])
        x = np.array([[1.0, 0.0, 0.0]])
        expected = np.exp(2.0 * 1.0) + np.exp(0.1 * 1.0)
        assert false_matching_loss(x, x_star, cfg) == pytest.approx(expected)

    @given(seed=st.integers(0, 3_000), n=st.integers(1, 12))
    def test_bounds_on_doubly_stochastic(self, seed, n):
        cfg = LossConfig()
        x = random_ds(seed, n)
        x_star = random_perm_matrix(seed + 1, n)
        loss = false_matching_loss(x, x_star, cfg)
        assert loss >= 2.0 - 1e-9
        assert loss <= np.exp(cfg.alpha * n) + np.exp(cfg.beta * n) + 1e-9

    def test_equality_iff_exact(self):
        x_star = random_perm_matrix(7, 4)
        x = random_ds(8, 4)
        assert false_matching_loss(x, x_star) > 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            false_matching_loss(np.eye(3), np.eye(4))


class TestFalseMatchingGrad:
    def test_at_ground_truth(self):
        cfg = LossConfig(alpha=2.0, beta=0.1)
        x_star = random_perm_matrix(11, 4)
        g = false_matching_loss_grad(x_star, x_star, cfg)
        np.testing.assert_allclose(g, 2.0 * (1 - x_star) - 0.1 * x_star, atol=1e-12)

    @given(seed=st.integers(0, 2_000), n=st.integers(2, 8))
    def test_matches_finite_differences(self, seed, n):
        cfg = LossConfig()
        x = random_ds(seed, n)
        x_star = random_perm_matrix(seed + 3, n)
        g = false_matching_loss_grad(x, x_star, cfg)
        h = 1e-7
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            up, down = x.copy(), x.copy()
            up[idx] += h
            down[idx] -= h
            fd[idx] = (false_matching_loss(up, x_star, cfg)
                       - false_matching_loss(down, x_star, cfg)) / (2 * h)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6

    def test_tape_gradient_agrees_with_closed_form(self):
        cfg = LossConfig()
        x = random_ds(21, 5)
        x_star = random_perm_matrix(22, 5)
        v = ad.Var(x)
        false_matching_loss(v, x_star, cfg).backward()
        np.testing.assert_allclose(v.grad, false_matching_loss_grad(x, x_star, cfg), rtol=1e-12)


class TestCrossEntropyLoss:
    def test_exact_binary_match_near_zero(self):
        x_star = random_perm_matrix(5, 4)
        cfg = LossConfig(clip_eps=1e-300)
        assert cross_entropy_loss(x_star, x_star, cfg) == pytest.approx(0.0, abs=1e-9)

    def test_exact_binary_match_near_zero_on_tape(self):
        x_star = random_perm_matrix(5, 4)
        cfg = LossConfig(clip_eps=1e-300)
        loss = cross_entropy_loss(ad.Var(x_star), x_star, cfg)
        assert isinstance(loss, ad.Var)
        assert ad.value(loss) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_closed_form(self):
        n = 5
        x = np.full((n, n), 1.0 / n)
        x_star = random_perm_matrix(9, n)
        expected = -(n * np.log(1 / n) + (n * n - n) * np.log(1 - 1 / n))
        assert cross_entropy_loss(x, x_star) == pytest.approx(expected)

    def test_divergence_when_unclamped(self):
        # disjoint permutation: prediction mass sits exactly on wrong entries
        x_star = np.eye(3)
        x = np.roll(np.eye(3), 1, axis=1)
        loss = cross_entropy_loss(x, x_star, LossConfig(clip_eps=1e-300))
        assert loss > 1e6  # diverges (infinite in exact arithmetic)

    def test_clamped_stays_finite(self):
        x_star = np.eye(3)
        x = np.roll(np.eye(3), 1, axis=1)
        loss = cross_entropy_loss(x, x_star, LossConfig(clip_eps=1e-12))
        assert np.isfinite(loss)

    def test_tape_gradient_matches_fd(self):
        cfg = LossConfig()
        x = random_ds(31, 5)
        x_star = random_perm_matrix(32, 5)
        v = ad.Var(x)
        cross_entropy_loss(v, x_star, cfg).backward()
        h = 1e-7
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            up, down = x.copy(), x.copy()
            up[idx] += h
            down[idx] -= h
            fd[idx] = (cross_entropy_loss(up, x_star, cfg)
                       - cross_entropy_loss(down, x_star, cfg)) / (2 * h)
        assert np.linalg.norm(v.grad - fd) / np.linalg.norm(fd) < 1e-5


class TestLossConfig:
    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidInputError):
            LossConfig(alpha=0.0)
        with pytest.raises(InvalidInputError):
            LossConfig(beta=-1.0)

    def test_rejects_bad_clip(self):
        with pytest.raises(InvalidInputError):
            LossConfig(clip_eps=0.0)
        with pytest.raises(InvalidInputError):
            LossConfig(clip_eps=0.6)


class TestMetrics:
    def test_perfect_accuracy(self):
        p = random_perm_matrix(41, 6)
        assert accuracy(p, p) == 1.0

    def test_disjoint_accuracy(self):
        x_star = np.eye(3)
        pred = np.roll(np.eye(3), 1, axis=1)
        assert accuracy(pred, x_star) == 0.0

    def test_half_right(self):
        x_star = np.eye(4)
        pred = np.eye(4)[[0, 1, 3, 2]]
        assert accuracy(pred, x_star) == 0.5

    def test_outlier_rows_excluded_from_denominator(self):
        x_star = permutation_to_matrix([1, 0, -1, -1], 4)
        pred = permutation_to_matrix([1, 0, 3, 2], 4)
        assert accuracy(pred, x_star) == 1.0

    def test_f1_perfect(self):
        p = random_perm_matrix(43, 5)
        assert f1_score(p, p) == 1.0

    def test_f1_no_correct(self):
        assert f1_score(np.roll(np.eye(3), 1, axis=1), np.eye(3)) == 0.0

    def test_f1_hand_value(self):
        # 3 predictions, 2 correct, 4 ground-truth matches -> F1 = 4/7
        x_star = permutation_to_matrix([0, 1, 2, 3, -1], 5)
        pred = permutation_to_matrix([0, 1, 4, -1, -1], 5)
        assert f1_score(pred, x_star) == pytest.approx(4.0 / 7.0)

    @given(seed=st.integers(0, 2_000), n=st.integers(2, 10))
    def test_relabeling_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        pred = np.eye(n)[rng.permutation(n)]
        x_star = np.eye(n)[rng.permutation(n)]
        relabel = np.eye(n)[rng.permutation(n)]
        # relabel the nodes of graph a in both prediction and truth
        assert accuracy(relabel @ pred, relabel @ x_star) == accuracy(pred, x_star)
        assert f1_score(relabel @ pred, relabel @ x_star) == f1_score(pred, x_star)

    def test_vector_matrix_roundtrip(self):
        vec = np.array([2, 0, -1, 1])
        mat = permutation_to_matrix(vec, 4)
        np.testing.assert_array_equal(matrix_to_permutation(mat), vec)
        assert mat[2].sum() == 0.0
