"""Sinkhorn and Hungarian against closed forms and brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lexicographic_hungarian, unrolled_sinkhorn
from quadmatch import autodiff as ad
from quadmatch import projections
from quadmatch.errors import InvalidInputError
from quadmatch.projections import hungarian, sinkhorn


def brute_force_assignment(score):
    """Exhaustive search over all permutations; returns (value, permutation)."""
    n = score.shape[0]
    best_val, best_perm = -np.inf, None
    for perm in itertools.permutations(range(n)):
        val = sum(score[i, j] for i, j in enumerate(perm))
        if val > best_val:
            best_val, best_perm = val, perm
    return best_val, best_perm


def positive_matrix(rng, n):
    return rng.uniform(1e-3, 1.0, size=(n, n))


class TestSinkhorn:
    def test_fixed_point_unchanged(self):
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        res = sinkhorn(m)
        assert res.converged
        np.testing.assert_allclose(res.matrix, m, atol=1e-12)

    def test_all_ones_gives_uniform(self):
        res = sinkhorn(np.ones((5, 5)))
        np.testing.assert_allclose(res.matrix, np.full((5, 5), 0.2), atol=1e-12)

    def test_2x2_closed_form(self):
        # limit of [[a,b],[c,d]] puts sqrt(ad)/(sqrt(ad)+sqrt(bc)) on the diagonal
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        res = sinkhorn(m, max_iter=500, tol=1e-10)
        expected = np.sqrt(1 * 4) / (np.sqrt(1 * 4) + np.sqrt(2 * 3))
        assert res.converged
        np.testing.assert_allclose(res.matrix[0, 0], expected, atol=1e-8)
        np.testing.assert_allclose(res.matrix[1, 1], expected, atol=1e-8)

    def test_single_entry(self):
        res = sinkhorn(np.array([[7.0]]))
        np.testing.assert_allclose(res.matrix, [[1.0]])

    @given(n=st.integers(1, 32), seed=st.integers(0, 10_000))
    def test_row_col_sums(self, n, seed):
        m = positive_matrix(np.random.default_rng(seed), n)
        res = sinkhorn(m, max_iter=500)
        assert res.converged
        out = ad.value(res.matrix)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-6)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out > 0.0)

    @given(n=st.integers(2, 8), seed=st.integers(0, 10_000),
           scale=st.floats(1e-3, 1e3))
    def test_scale_invariance(self, n, seed, scale):
        m = positive_matrix(np.random.default_rng(seed), n)
        a = ad.value(sinkhorn(m, max_iter=500).matrix)
        b = ad.value(sinkhorn(scale * m, max_iter=500).matrix)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_log_input_matches_linear(self, rng):
        m = positive_matrix(rng, 6)
        a = ad.value(sinkhorn(m, max_iter=200).matrix)
        b = ad.value(sinkhorn(np.log(m), max_iter=200, log_input=True).matrix)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(InvalidInputError):
            sinkhorn(np.array([[1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            sinkhorn(np.array([[1.0, -2.0], [1.0, 1.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidInputError):
            sinkhorn(np.ones((2, 3)))

    def test_nonconvergence_flag(self):
        # nearly decomposable matrix: Sinkhorn converges very slowly
        eps = 1e-12
        m = np.array([[1.0, eps], [eps, eps]])
        res = sinkhorn(m, max_iter=5, tol=1e-6)
        assert not res.converged
        assert res.iterations == 5
        assert np.all(np.isfinite(ad.value(res.matrix)))

    def test_fixed_iteration_mode(self):
        res = sinkhorn(np.array([[1.0, 2.0], [3.0, 4.0]]), max_iter=7, tol=0.0)
        assert res.iterations == 7
        assert res.converged

    @given(n=st.integers(1, 12), log_input=st.booleans(), max_iter=st.integers(0, 60),
           tol=st.sampled_from([0.0, 1e-6]), seed=st.integers(0, 10_000))
    def test_tape_matches_unrolled_oracle(self, n, log_input, max_iter, tol, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(scale=3.0, size=(n, n)) if log_input else positive_matrix(rng, n)
        weight, other = rng.normal(size=(2, n, n))
        results = []
        for fn in (sinkhorn, unrolled_sinkhorn):
            leaf = ad.Var(m)
            res = fn(leaf, max_iter=max_iter, tol=tol, log_input=log_input)
            # a second use of the input, as the affinity's log matrix has
            ad.asum(res.matrix * weight + leaf * other).backward()
            results.append((ad.value(res.matrix), res.converged, res.iterations, leaf.grad))
        (x, conv, its, grad), (x_o, conv_o, its_o, grad_o) = results
        np.testing.assert_array_equal(x, x_o)
        assert (conv, its) == (conv_o, its_o)
        np.testing.assert_array_equal(grad, grad_o)
        plain = sinkhorn(m, max_iter=max_iter, tol=tol, log_input=log_input).matrix
        assert isinstance(plain, np.ndarray)
        np.testing.assert_array_equal(plain, x_o)

    def test_tape_result_is_one_node(self, rng):
        leaf = ad.Var(positive_matrix(rng, 4))
        out = sinkhorn(leaf, max_iter=20, tol=0.0).matrix
        assert isinstance(out, ad.Var)
        assert ad._toposort(out) == [leaf, out]


class TestHungarian:
    def test_identity_score(self):
        np.testing.assert_array_equal(hungarian(np.eye(3)), np.eye(3))

    def test_2x2_example(self):
        # identity worth 8 beats the swap worth 3
        perm = hungarian(np.array([[5.0, 1.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(perm, np.eye(2))

    def test_matches_brute_force_6x6(self, rng):
        score = rng.normal(size=(6, 6))
        perm = hungarian(score)
        best_val, best_perm = brute_force_assignment(score)
        assert np.isclose(float((score * perm).sum()), best_val)
        np.testing.assert_array_equal(np.argmax(perm, axis=1), best_perm)

    @given(n=st.integers(1, 7), seed=st.integers(0, 5_000))
    def test_brute_force_value_equality(self, n, seed):
        score = np.random.default_rng(seed).normal(size=(n, n))
        perm = hungarian(score)
        assert perm.sum(axis=0).tolist() == [1.0] * n
        assert perm.sum(axis=1).tolist() == [1.0] * n
        best_val, _ = brute_force_assignment(score)
        assert np.isclose(float((score * perm).sum()), best_val)

    def test_lexicographic_tie_break(self):
        # every permutation is optimal; the identity is lexicographically first
        np.testing.assert_array_equal(hungarian(np.ones((4, 4))), np.eye(4))

    def test_lexicographic_among_ties_only(self):
        # rows 1 and 2 tie between columns 1 and 2: lex picks (1->1, 2->2)
        score = np.array([[9.0, 0.0, 0.0],
                          [0.0, 4.0, 4.0],
                          [0.0, 4.0, 4.0]])
        np.testing.assert_array_equal(hungarian(score), np.eye(3))

    @given(seed=st.integers(0, 2_000))
    def test_row_col_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        score = rng.normal(size=(5, 5))
        shifted = score.copy()
        shifted[2, :] += 3.7
        shifted[:, 4] -= 1.9
        np.testing.assert_array_equal(hungarian(score), hungarian(shifted))

    @given(n=st.integers(1, 9), seed=st.integers(0, 10_000))
    def test_matches_oracle_small_integers(self, n, seed):
        score = np.random.default_rng(seed).integers(0, 3, size=(n, n)).astype(float)
        np.testing.assert_array_equal(hungarian(score), lexicographic_hungarian(score))

    @given(n=st.integers(1, 9), k=st.integers(2, 3), equal_weights=st.booleans(),
           seed=st.integers(0, 10_000))
    def test_matches_oracle_permutation_mixtures(self, n, k, equal_weights, seed):
        # the shape of Frank-Wolfe iterates; an exact 1/2-1/2 blend ties two vertices
        rng = np.random.default_rng(seed)
        weights = np.full(k, 1.0 / k) if equal_weights else rng.dirichlet(np.ones(k))
        score = sum(w * np.eye(n)[rng.permutation(n)] for w in weights)
        np.testing.assert_array_equal(hungarian(score), lexicographic_hungarian(score))

    @given(n=st.integers(1, 9), seed=st.integers(0, 10_000))
    def test_matches_oracle_gaussian(self, n, seed):
        score = np.random.default_rng(seed).normal(size=(n, n))
        np.testing.assert_array_equal(hungarian(score), lexicographic_hungarian(score))

    def test_one_assignment_solve_per_call(self, monkeypatch, rng):
        calls = []
        lsa = projections.linear_sum_assignment

        def counted(*args, **kwargs):
            calls.append(1)
            return lsa(*args, **kwargs)

        monkeypatch.setattr(projections, "linear_sum_assignment", counted)
        np.testing.assert_array_equal(hungarian(np.ones((12, 12))), np.eye(12))
        assert len(calls) == 1
        hungarian(rng.normal(size=(24, 24)))
        assert len(calls) == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            hungarian(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_tape_variable(self):
        with pytest.raises(InvalidInputError):
            hungarian(ad.Var(np.eye(2)))

    def test_permutation_score_roundtrip(self, rng):
        perm = np.eye(5)[rng.permutation(5)]
        np.testing.assert_array_equal(hungarian(perm), perm)
