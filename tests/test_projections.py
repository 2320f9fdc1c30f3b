"""Sinkhorn and Hungarian against closed forms and brute-force oracles."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (floyd_warshall_hungarian, lexicographic_hungarian, sinkhorn_rounds,
                     unrolled_sinkhorn)
from quadmatch import autodiff as ad
from quadmatch import projections
from quadmatch.errors import InvalidInputError
from quadmatch.projections import SINKHORN_MAX_ITER, hungarian, sinkhorn


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
        res = sinkhorn(np.log(m))
        np.testing.assert_allclose(res.matrix, m, atol=1e-12)

    def test_all_ones_gives_uniform(self):
        res = sinkhorn(np.zeros((5, 5)))
        np.testing.assert_allclose(res.matrix, np.full((5, 5), 0.2), atol=1e-12)

    def test_2x2_closed_form(self):
        # limit of [[a,b],[c,d]] puts sqrt(ad)/(sqrt(ad)+sqrt(bc)) on the diagonal
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        res = sinkhorn(np.log(m))
        expected = np.sqrt(1 * 4) / (np.sqrt(1 * 4) + np.sqrt(2 * 3))
        np.testing.assert_allclose(res.matrix[0, 0], expected, atol=1e-8)
        np.testing.assert_allclose(res.matrix[1, 1], expected, atol=1e-8)

    def test_single_entry(self):
        res = sinkhorn(np.log(np.array([[7.0]])))
        np.testing.assert_allclose(res.matrix, [[1.0]])

    @given(n=st.integers(1, 32), seed=st.integers(0, 10_000))
    def test_row_col_sums(self, n, seed):
        m = positive_matrix(np.random.default_rng(seed), n)
        with sinkhorn_rounds(500):
            out = ad.value(sinkhorn(np.log(m)).matrix)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-6)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out > 0.0)

    @given(n=st.integers(2, 8), seed=st.integers(0, 10_000),
           scale=st.floats(1e-3, 1e3))
    def test_scale_invariance(self, n, seed, scale):
        m = positive_matrix(np.random.default_rng(seed), n)
        a = ad.value(sinkhorn(np.log(m)).matrix)
        b = ad.value(sinkhorn(np.log(scale * m)).matrix)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_log_input_matches_linear(self, rng):
        # the same rounds of plain row and column division on the matrix itself
        m = positive_matrix(rng, 6)
        x = m.copy()
        for _ in range(SINKHORN_MAX_ITER):
            x /= x.sum(axis=1, keepdims=True)
            x /= x.sum(axis=0, keepdims=True)
        np.testing.assert_allclose(sinkhorn(np.log(m)).matrix, x, atol=1e-12)

    def test_nonpositive_entry_rejected(self):
        # the logs of a zero and of a negative entry: -inf and NaN
        with pytest.raises(InvalidInputError):
            sinkhorn(np.array([[0.0, -np.inf], [0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            sinkhorn(np.array([[0.0, np.nan], [0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            with np.errstate(divide="ignore"):
                sinkhorn(ad.log(ad.Var(np.array([[1.0, 0.0], [1.0, 1.0]]))))

    @pytest.mark.parametrize("on_tape", [False, True])
    def test_overflowing_span_rejected(self, on_tape):
        # finite logs whose span overflows a float: each shift by a maximum
        # would give -inf, and the result NaN
        log_m = np.array([[1e308, -1e308], [1e308, -1e308]])
        with pytest.raises(InvalidInputError, match="finite entries.*span, got inf"):
            sinkhorn(ad.Var(log_m) if on_tape else log_m)

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidInputError):
            sinkhorn(np.zeros((2, 3)))

    def test_fixed_iteration_mode(self):
        # this matrix reaches a bitwise fixed point in 10 rounds
        with sinkhorn_rounds(7):
            res = sinkhorn(np.log(np.array([[1.0, 2.0], [3.0, 4.0]])))
        assert res.iterations == 7

    @pytest.mark.parametrize("case", ["zeros", "single", "normalized", "converging"])
    def test_fixed_point_stop(self, case):
        # off the tape a round that ends on the bytes it started from ends
        # the loop; the tape runs every round, and both give the oracle's bits
        with sinkhorn_rounds(500):
            normalized = sinkhorn(np.log(positive_matrix(np.random.default_rng(1), 6)))
        # the converging input needs 67 rounds to reach its fixed point
        log_m, rounds = {
            "zeros": (np.zeros((5, 5)), SINKHORN_MAX_ITER),
            "single": (np.log(np.array([[7.0]])), SINKHORN_MAX_ITER),
            "normalized": (np.log(normalized.matrix), SINKHORN_MAX_ITER),
            "converging": (np.random.default_rng(0).normal(scale=3.0, size=(6, 6)), 500),
        }[case]
        with sinkhorn_rounds(rounds):
            res = sinkhorn(log_m)
            tape = sinkhorn(ad.Var(log_m))
            oracle = unrolled_sinkhorn(log_m).matrix
        assert 0 < res.iterations < rounds
        assert tape.iterations == rounds
        assert res.matrix.tobytes() == ad.value(tape.matrix).tobytes() == oracle.tobytes()

    # from n = 3 on, no seed tried reaches a bitwise fixed point in 10 rounds
    # (a 2 x 2 with a dominant diagonal can)
    @given(n=st.integers(3, 24), rounds=st.integers(1, 10), seed=st.integers(0, 10_000))
    def test_random_input_runs_every_round(self, n, rounds, seed):
        log_m = np.random.default_rng(seed).normal(scale=3.0, size=(n, n))
        with sinkhorn_rounds(rounds):
            assert sinkhorn(log_m).iterations == rounds

    def test_allocation_floor(self, rng):
        # off the tape a call allocates the same few arrays whatever the round
        # count is; on the tape it adds one (2 * rounds, n, n) block of iterates
        # and no array per half-step
        n = 6
        log_m = rng.normal(scale=3.0, size=(n, n))

        # numpy's first call on each branch fills caches that later calls
        # reuse; pay for them before measuring
        with sinkhorn_rounds(1):
            sinkhorn(log_m)
            sinkhorn(ad.Var(log_m))

        def peak(arg, rounds):
            with sinkhorn_rounds(rounds):
                tracemalloc.start()
                try:
                    sinkhorn(arg)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert peak(log_m, 200) <= peak(log_m, 5)
        block = 2 * (200 - 5) * n * n * 8
        growth = peak(ad.Var(log_m), 200) - peak(ad.Var(log_m), 5)
        assert abs(growth - block) < 0.05 * block

    @given(n=st.integers(1, 24), through_log=st.booleans(), rounds=st.integers(1, 60),
           seed=st.integers(0, 10_000))
    def test_tape_matches_unrolled_oracle(self, n, through_log, rounds, seed):
        # the input is a raw log matrix, or the ad.log of a positive one as
        # in the Frank-Wolfe re-projection
        rng = np.random.default_rng(seed)
        m = positive_matrix(rng, n) if through_log else rng.normal(scale=3.0, size=(n, n))
        weight, other = rng.normal(size=(2, n, n))
        results = []
        with sinkhorn_rounds(rounds):
            for fn in (sinkhorn, unrolled_sinkhorn):
                leaf = ad.Var(m)
                res = fn(ad.log(leaf) if through_log else leaf)
                # a second use of the input, as the affinity's log matrix has
                ad.asum(res.matrix * weight + leaf * other).backward()
                results.append((ad.value(res.matrix), res.iterations, leaf.grad))
            plain = sinkhorn(np.log(m) if through_log else m).matrix
        (x, its, grad), (x_o, its_o, grad_o) = results
        np.testing.assert_array_equal(x, x_o)
        assert its == its_o == rounds
        np.testing.assert_array_equal(grad, grad_o)
        assert isinstance(plain, np.ndarray)
        np.testing.assert_array_equal(plain, x_o)

    @pytest.mark.parametrize("on_tape", [False, True])
    @pytest.mark.parametrize("through_log", [False, True])
    def test_input_left_unchanged(self, rng, through_log, on_tape):
        # off the tape the log iterate is updated in place: it must be a copy
        m = positive_matrix(rng, 6) if through_log else rng.normal(size=(6, 6))
        leaf = ad.Var(m) if on_tape else m
        arg = ad.log(leaf) if through_log else leaf
        before, arg_before = m.copy(), ad.value(arg).copy()
        res = sinkhorn(arg)
        if on_tape:
            ad.asum(res.matrix * rng.normal(size=(6, 6))).backward()
        np.testing.assert_array_equal(m, before)  # a Var's data is m itself
        np.testing.assert_array_equal(ad.value(arg), arg_before)

    def test_tape_result_is_one_node(self, rng):
        leaf = ad.Var(rng.normal(size=(4, 4)))
        out = sinkhorn(leaf).matrix
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

    @given(n=st.integers(1, 24), scale=st.sampled_from([1e-12, 1e-6, 1.0, 1e6, 1e12]),
           seed=st.integers(0, 10_000))
    def test_matches_floyd_warshall_gaussian(self, n, scale, seed):
        score = scale * np.random.default_rng(seed).normal(size=(n, n))
        np.testing.assert_array_equal(hungarian(score), floyd_warshall_hungarian(score))

    @given(n=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_matches_floyd_warshall_small_integers(self, n, seed):
        score = np.random.default_rng(seed).integers(0, 3, size=(n, n)).astype(float)
        np.testing.assert_array_equal(hungarian(score), floyd_warshall_hungarian(score))

    @given(n=st.integers(1, 12), k=st.integers(2, 3), equal_weights=st.booleans(),
           seed=st.integers(0, 10_000))
    def test_matches_floyd_warshall_permutation_mixtures(self, n, k, equal_weights, seed):
        rng = np.random.default_rng(seed)
        weights = np.full(k, 1.0 / k) if equal_weights else rng.dirichlet(np.ones(k))
        score = sum(w * np.eye(n)[rng.permutation(n)] for w in weights)
        np.testing.assert_array_equal(hungarian(score), floyd_warshall_hungarian(score))

    def test_matches_floyd_warshall_near_ties(self):
        # sigma beats pi, which rotates sigma along one k-cycle, by c * tol;
        # pi is the lexicographically smaller, so it wins a tie. The second
        # solve certifies sigma only when c >= k; for 1 < c < k it declines
        # and Floyd-Warshall still finds the k-cycle above tol.
        declined_but_unique = []

        @given(n=st.integers(2, 12), k=st.integers(2, 12),
               c=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]),
               seed=st.integers(0, 10_000))
        def check(n, k, c, seed):
            k = min(k, n)
            rng = np.random.default_rng(seed)
            sigma = rng.permutation(n)
            moved = rng.choice(n, size=k, replace=False)
            pi = sigma.copy()
            pi[moved] = sigma[np.roll(moved, 1)]
            if tuple(pi) > tuple(sigma):
                sigma, pi = pi, sigma
            # sigma scores n + m + g * n and pi n + m + g * m, m = n - k rows shared
            base = np.eye(n)[sigma] + np.eye(n)[pi]
            tol = 1e-9 * max(1.0, float(np.abs(base).max()) * n)
            score = base + (c * tol / k) * np.eye(n)[sigma]
            perm = hungarian(score)
            np.testing.assert_array_equal(perm, floyd_warshall_hungarian(score))
            if c != 1:
                np.testing.assert_array_equal(perm, np.eye(n)[sigma if c > 1 else pi])
            if 1 < c < k:
                declined_but_unique.append((n, k, c))

        check()
        assert declined_but_unique

    def test_two_assignment_solves_per_call(self, monkeypatch, rng):
        # two solves per call, whichever certificate answers, plus one per
        # feasibility check on the tie path (infer-outliers makes 5,439
        # solves in 2,658 calls); the O(n^2) greedy of the lexicographic
        # oracle must not come back
        calls = []
        lsa = projections.linear_sum_assignment

        def counted(*args, **kwargs):
            calls.append(1)
            return lsa(*args, **kwargs)

        monkeypatch.setattr(projections, "linear_sum_assignment", counted)
        # tie: the second solve declines and Floyd-Warshall breaks the tie;
        # every edge is tight and the first solve is already the smallest
        # permutation, so no feasibility check runs
        np.testing.assert_array_equal(hungarian(np.ones((12, 12))), np.eye(12))
        assert len(calls) == 2
        # no tie: the second solve certifies the first
        hungarian(rng.normal(size=(24, 24)))
        assert len(calls) == 4

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInputError, match="finite entries"):
                hungarian(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_scores_near_the_float_limit(self):
        # unscaled, these overflow: an infinite tolerance (NaN off the
        # optimum), scipy's worse permutation on the last, and the tie
        # branch's shortest paths on the tied pair
        cases = [(np.diag([1e308, 1e308]), [0, 1]), (np.full((3, 3), 7e307), [0, 1, 2]),
                 ([[-1e308, 1e308], [1e308, -1e308]], [1, 0]),
                 ([[1e308, 1e308], [-1e308, -1e308]], [0, 1]),
                 (np.array([[6, -8, -4], [5, -6, -5], [10, -6, 10]]) * 1e307, [0, 1, 2])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for score, cols in cases:
                np.testing.assert_array_equal(hungarian(np.array(score)), np.eye(len(cols))[cols])

    def test_returns_float_zero_one_matrix(self, rng):
        for score in (rng.normal(size=(6, 6)), np.ones((6, 6)), np.arange(4).reshape(2, 2)):
            perm = hungarian(score)
            assert perm.dtype == np.float64
            assert set(np.unique(perm)) == {0.0, 1.0}
            np.testing.assert_array_equal(perm.sum(axis=0), 1.0)
            np.testing.assert_array_equal(perm.sum(axis=1), 1.0)

    def test_rejects_tape_variable(self):
        with pytest.raises(InvalidInputError):
            hungarian(ad.Var(np.eye(2)))

    def test_permutation_score_roundtrip(self, rng):
        perm = np.eye(5)[rng.permutation(5)]
        np.testing.assert_array_equal(hungarian(perm), perm)
