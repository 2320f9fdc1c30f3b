"""Objective, analytic gradient, and the two Frank-Wolfe solver modes."""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import quadratic_assignment

from oracles import assert_trace_extends, brute_force_qap, stepwise_frank_wolfe_infer
from quadmatch import autodiff as ad
from quadmatch import qap
from quadmatch.errors import InvalidInputError
from quadmatch.projections import hungarian, sinkhorn
from quadmatch.qap import (QapInstance, frank_wolfe_infer, frank_wolfe_train,
                           fw_direction, fw_step_size, objective, objective_gradient)
from quadmatch.refine import forward, init_parameters
from quadmatch.synth import ambiguous_config, gen_dataset


def random_instance(rng, n, unary_scale=1.0):
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    b = rng.normal(size=(n, n))
    b = (b + b.T) / 2
    np.fill_diagonal(b, 0.0)
    x_u = rng.uniform(0.1, 1.0, size=(n, n)) * unary_scale
    return QapInstance(a, b, x_u)


def naive_objective(x, inst):
    """Elementwise recomputation of the Frobenius expansion."""
    n = inst.n
    a, b, u = inst.a_d, inst.b_d, inst.x_u
    xbx = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                for l in range(n):
                    acc += x[i, k] * b[k, l] * x[j, l]
            xbx[i, j] = acc
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += (a[i, j] - xbx[i, j]) ** 2
            total -= u[i, j] * x[i, j]
    return total


def fd_objective_gradient(x, inst, h=1e-6):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[idx] += h
        down[idx] -= h
        g[idx] = (objective(up, inst) - objective(down, inst)) / (2 * h)
    return g


def random_doubly_stochastic(rng, n):
    return ad.value(sinkhorn(np.log(rng.uniform(0.1, 1.0, size=(n, n)))).matrix)


class TestObjective:
    def test_perfect_alignment(self, rng):
        a = rng.normal(size=(2, 2))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        inst = QapInstance(a, a, np.eye(2))
        assert np.isclose(objective(np.eye(2), inst), -2.0)

    def test_zero_assignment(self, rng):
        inst = random_instance(rng, 4)
        assert np.isclose(objective(np.zeros((4, 4)), inst), (inst.a_d ** 2).sum())

    @given(seed=st.integers(0, 2_000))
    def test_matches_naive_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, 5)
        x = rng.uniform(size=(5, 5))
        assert np.isclose(objective(x, inst), naive_objective(x, inst), rtol=1e-10)

    def test_shape_mismatch_rejected(self, rng):
        inst = random_instance(rng, 4)
        with pytest.raises(InvalidInputError):
            objective(np.eye(3), inst)

    def test_asymmetric_adjacency_rejected(self, rng):
        m = rng.normal(size=(3, 3))
        with pytest.raises(InvalidInputError):
            QapInstance(m, m, np.eye(3))


class TestObjectiveGradient:
    def test_residual_vanishes(self, rng):
        a = rng.normal(size=(3, 3))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        x_u = rng.uniform(size=(3, 3))
        inst = QapInstance(a, a, x_u)
        np.testing.assert_allclose(objective_gradient(np.eye(3), inst), -x_u, atol=1e-12)

    def test_zero_pairwise(self, rng):
        x_u = rng.uniform(size=(4, 4))
        inst = QapInstance(np.zeros((4, 4)), np.zeros((4, 4)), x_u)
        x = rng.uniform(size=(4, 4))
        np.testing.assert_allclose(objective_gradient(x, inst), -x_u, atol=1e-12)

    def test_matches_finite_differences_6x6(self, rng):
        inst = random_instance(rng, 6)
        x = rng.uniform(size=(6, 6))
        g = objective_gradient(x, inst)
        g_fd = fd_objective_gradient(x, inst)
        assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) < 1e-5

    @given(seed=st.integers(0, 500), n=st.integers(3, 8))
    def test_matches_finite_differences(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n)
        x = rng.uniform(size=(n, n))
        g = objective_gradient(x, inst)
        g_fd = fd_objective_gradient(x, inst)
        assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) < 1e-5


class TestStepSize:
    def test_paper_values(self):
        assert fw_step_size(0) == 1.0
        assert fw_step_size(2) == 0.5

    def test_monotone_decreasing(self):
        values = [fw_step_size(k) for k in range(100)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.02 + 1e-12

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            fw_step_size(-1)


class TestDirection:
    def test_constant_gradient_training_uniform(self):
        inst = QapInstance(np.zeros((3, 3)), np.zeros((3, 3)), np.full((3, 3), 0.7))
        x = np.full((3, 3), 1 / 3)
        s = fw_direction(x, inst, tau=1.0)
        np.testing.assert_allclose(ad.value(s), np.full((3, 3), 1 / 3), atol=1e-9)

    @given(seed=st.integers(0, 500), n=st.integers(2, 6))
    def test_inference_is_exact_linear_minimizer(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n)
        x = random_doubly_stochastic(rng, n)
        g = objective_gradient(x, inst)
        s = hungarian(-g)
        best = min(np.sum(g * np.eye(n)[list(p)])
                   for p in itertools.permutations(range(n)))
        assert np.isclose(float(np.sum(g * s)), best)

    def test_training_direction_doubly_stochastic(self, rng):
        inst = random_instance(rng, 5)
        x = random_doubly_stochastic(rng, 5)
        s = ad.value(fw_direction(x, inst, tau=0.5))
        np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_bad_tau_rejected(self, rng, tau):
        # -1.0 would return the ascent direction; 0.0 would divide by zero
        inst = random_instance(rng, 4)
        x = random_doubly_stochastic(rng, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="tau"):
                fw_direction(x, inst, tau=tau)


class TestFrankWolfeTrain:
    def test_zero_rounds_returns_input(self, rng):
        inst = random_instance(rng, 4)
        x0 = random_doubly_stochastic(rng, 4)
        assert frank_wolfe_train(x0, inst, m1=0, m2=5, tau=1.0) is x0

    def test_unary_only_objective_non_increasing(self, rng):
        # with zero adjacencies the direction is constant; the objective
        # cannot increase with the number of pursuit steps
        x_u = rng.uniform(0.1, 1.0, size=(4, 4))
        inst = QapInstance(np.zeros((4, 4)), np.zeros((4, 4)), x_u)
        x0 = random_doubly_stochastic(rng, 4)
        objs = [float(objective(frank_wolfe_train(x0, inst, 1, k, tau=0.2), inst))
                for k in range(6)]
        assert all(a >= b - 1e-9 for a, b in zip(objs, objs[1:]))

    def test_output_doubly_stochastic(self, rng):
        inst = random_instance(rng, 6)
        x0 = random_doubly_stochastic(rng, 6)
        xv = ad.value(frank_wolfe_train(x0, inst, qap.FW_TRAIN_OUTER, qap.FW_TRAIN_INNER, tau=1.0))
        np.testing.assert_allclose(xv.sum(axis=0), 1.0, atol=1e-5)
        np.testing.assert_allclose(xv.sum(axis=1), 1.0, atol=1e-5)

    def test_structural_recovery(self, rng):
        # aligned pair with a concentrated unary: pursuit recovers the permutation
        n = 6
        perm = np.eye(n)[rng.permutation(n)]
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        b = perm.T @ a @ perm
        x_u = 5.0 * perm + 0.1
        inst = QapInstance(a, b, x_u)
        x0 = ad.value(sinkhorn(np.log(np.full((n, n), 1.0) + 0.1 * perm)).matrix)
        x = frank_wolfe_train(x0, inst, qap.FW_TRAIN_OUTER, qap.FW_TRAIN_INNER, tau=0.1)
        np.testing.assert_array_equal(hungarian(ad.value(x)), perm)

    def test_determinism(self, rng):
        inst = random_instance(rng, 5)
        x0 = random_doubly_stochastic(rng, 5)
        x1 = frank_wolfe_train(x0, inst, qap.FW_TRAIN_OUTER, qap.FW_TRAIN_INNER, tau=1.0)
        x2 = frank_wolfe_train(x0.copy(), inst, qap.FW_TRAIN_OUTER, qap.FW_TRAIN_INNER, tau=1.0)
        np.testing.assert_array_equal(ad.value(x1), ad.value(x2))


class TestFrankWolfeInfer:
    def test_dominant_unary_returns_target(self, rng):
        n = 5
        perm = np.eye(n)[rng.permutation(n)]
        inst = QapInstance(np.zeros((n, n)), np.zeros((n, n)), 100.0 * perm + 0.01)
        x0 = np.full((n, n), 1.0 / n)
        out, trace = frank_wolfe_infer(x0, inst)
        np.testing.assert_array_equal(out, perm)

    def test_structural_recovery_from_perturbation(self, rng):
        n = 8
        perm = np.eye(n)[rng.permutation(n)]
        a = rng.uniform(size=(n, n))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        b = perm.T @ a @ perm
        inst = QapInstance(a, b, np.full((n, n), 0.5))
        x0 = ad.value(sinkhorn(np.log(perm + 0.1 * rng.uniform(size=(n, n)))).matrix)
        out, _ = frank_wolfe_infer(x0, inst)
        np.testing.assert_array_equal(out, perm)

    @given(seed=st.integers(0, 300), n=st.integers(3, 7))
    def test_never_worse_than_rounded_init(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n)
        x0 = random_doubly_stochastic(rng, n)
        out, _ = frank_wolfe_infer(x0, inst)
        assert float(objective(out, inst)) <= float(objective(hungarian(x0), inst))

    def test_output_is_permutation(self, rng):
        inst = random_instance(rng, 6)
        x0 = random_doubly_stochastic(rng, 6)
        out, _ = frank_wolfe_infer(x0, inst)
        assert set(np.unique(out)) <= {0.0, 1.0}
        np.testing.assert_array_equal(out.sum(axis=0), np.ones(6))
        np.testing.assert_array_equal(out.sum(axis=1), np.ones(6))

    def test_rejects_tape_variable(self, rng):
        inst = random_instance(rng, 3)
        with pytest.raises(InvalidInputError):
            frank_wolfe_infer(ad.Var(np.eye(3)), inst)
        for field in ("a_d", "b_d", "x_u"):
            on_tape = replace(inst, **{field: ad.Var(getattr(inst, field))})
            with pytest.raises(InvalidInputError):
                frank_wolfe_infer(np.eye(3), on_tape)

    def test_rejects_start_of_another_size(self, rng):
        inst = random_instance(rng, 4)
        with pytest.raises(InvalidInputError, match="assignment shape"):
            frank_wolfe_infer(np.eye(3), inst)

    def test_fixed_point_stops_each_round_after_one_step(self, rng):
        # the Hungarian direction at the unary's favoured permutation is that
        # permutation, so each round breaks after one step and the repeated
        # rounding ends the run after two rounds
        n = 5
        perm = np.eye(n)[rng.permutation(n)]
        inst = QapInstance(np.zeros((n, n)), np.zeros((n, n)), perm + 0.01)
        out, trace = frank_wolfe_infer(perm, inst)
        np.testing.assert_array_equal(out, perm)
        assert [(s.outer, s.inner) for s in trace.steps] == [(0, 0), (1, 0)]
        assert trace.converged

    def test_trace_csv_format(self, rng):
        inst = random_instance(rng, 4)
        x0 = random_doubly_stochastic(rng, 4)
        _, trace = frank_wolfe_infer(x0, inst)
        csv = trace.to_csv()
        assert csv.splitlines()[0] == "outer,inner,epsilon,objective"
        assert len(csv.splitlines()) == len(trace.steps) + 1

    @given(n=st.integers(1, 24), start=st.sampled_from(["sinkhorn", "doubly_stochastic", "fixed"]),
           seed=st.integers(0, 10_000))
    def test_matches_stepwise_oracle(self, n, start, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n)
        if start == "sinkhorn":
            x0 = ad.value(sinkhorn(rng.normal(scale=3.0, size=(n, n))).matrix)
        elif start == "doubly_stochastic":
            w = rng.dirichlet(np.ones(4))
            x0 = sum(wk * np.eye(n)[rng.permutation(n)] for wk in w)
        else:
            # a dominant unary makes this permutation its own Hungarian direction
            x0 = np.eye(n)[rng.permutation(n)]
            inst = QapInstance(inst.a_d, inst.b_d, inst.x_u + 1e4 * x0)
            np.testing.assert_array_equal(hungarian(-objective_gradient(x0, inst)), x0)
        out, trace = frank_wolfe_infer(x0, inst)
        out_o, trace_o = stepwise_frank_wolfe_infer(x0, inst)
        np.testing.assert_array_equal(out, out_o)
        assert float(objective(out, inst)) == float(objective(out_o, inst))
        assert_trace_extends(trace, trace_o)

    def test_stops_at_first_repeated_rounding(self, monkeypatch):
        # a C7-style pair whose roundings enter a cycle of two or more: the
        # solver stops at the first repeat, after 5 rounds of 50 steps, where
        # the oracle's one-back test replays the cycle through all 10 rounds
        pair = gen_dataset(ambiguous_config(seed=1), 12)[0]
        start, inst = forward(pair, init_parameters(18, 2, seed=1))
        x0 = ad.value(frank_wolfe_train(start, inst, qap.FW_TRAIN_OUTER, qap.FW_TRAIN_INNER,
                                        tau=1.0))
        out_o, trace_o = stepwise_frank_wolfe_infer(x0, inst)
        calls = []

        def counted(score):
            calls.append(1)
            return hungarian(score)

        monkeypatch.setattr(qap, "hungarian", counted)
        out, trace = frank_wolfe_infer(x0, inst)
        np.testing.assert_array_equal(out, out_o)
        assert float(objective(out, inst)) == float(objective(out_o, inst))
        assert (len(trace.steps), trace.steps[-1].outer) == (250, 4)
        assert (len(trace_o.steps), trace_o.steps[-1].outer) == (500, 9)
        assert_trace_extends(trace, trace_o)
        assert trace.converged
        # the rounding of x0, one per step, one per round
        assert len(calls) == 1 + 250 + 5

    def test_arguments_left_unchanged(self, rng):
        inst = random_instance(rng, 7)
        x0 = random_doubly_stochastic(rng, 7)
        before = [x0.copy(), inst.a_d.copy(), inst.b_d.copy(), inst.x_u.copy()]
        frank_wolfe_infer(x0, inst)
        for arr, kept in zip([x0, inst.a_d, inst.b_d, inst.x_u], before):
            np.testing.assert_array_equal(arr, kept)

    def test_reaches_global_optimum_floor(self):
        # measured: the optimum on 80 of these 150 instances, mean gap 0.912;
        # the floor sits a few below so that last-bit changes do not trip it
        rng = np.random.default_rng(606)
        hits = 0
        for _ in range(150):
            n = int(rng.integers(4, 8))
            inst = random_instance(rng, n)
            best, perm = brute_force_qap(inst)
            assert abs(float(objective(perm, inst)) - best) <= 1e-9
            out, _ = frank_wolfe_infer(np.full((n, n), 1.0 / n), inst)
            gap = float(objective(out, inst)) - best
            assert gap >= -1e-9
            hits += gap <= 1e-9
        assert hits >= 75

    def test_no_worse_than_faq_floor(self):
        # reference: scipy's FAQ (Vogelstein et al. 2015) on noisy permuted
        # copies with no unary term, both from the barycenter. Measured: ours
        # no worse on 121 of 150 (71 ties, 50 better, 29 worse); the floor
        # sits a few below
        rng = np.random.default_rng(707)
        no_worse = 0
        for _ in range(150):
            n = int(rng.integers(4, 13))
            w = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
            a = np.triu(w, 1)
            a = a + a.T
            perm = rng.permutation(n)
            noise = np.triu(rng.normal(0.0, 0.1, size=(n, n)), 1)
            b = a[perm][:, perm] + noise + noise.T
            inst = QapInstance(a, b, np.zeros((n, n)))
            # rng goes unused from the barycenter; passing one keeps scipy
            # from warning about the global RNG
            res = quadratic_assignment(a, b, method="faq",
                                       options={"maximize": True, "rng": np.random.default_rng(0)})
            # on a permutation X, g(X) = |A|^2 + |B|^2 - 2 tr(A X B X^T)
            g_faq = float(objective(np.eye(n)[res.col_ind], inst))
            assert g_faq == pytest.approx(np.sum(a * a) + np.sum(b * b) - 2 * res.fun,
                                          rel=1e-9)
            out, _ = frank_wolfe_infer(np.full((n, n), 1.0 / n), inst)
            no_worse += float(objective(out, inst)) <= g_faq + 1e-9 * max(1.0, abs(g_faq))
        assert no_worse >= 115
