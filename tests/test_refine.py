"""GCN refinement, node affinity, and parameter handling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadmatch import autodiff as ad
from quadmatch.errors import InvalidInputError
from quadmatch.graphs import delaunay_adjacency, weighted_adjacency
from quadmatch.projections import hungarian, sinkhorn
from quadmatch.refine import (ParameterSet, gcn_layer, init_assignment, init_parameters,
                              load_parameters, node_affinity, refine_pipeline,
                              save_parameters)


def small_graph(rng, n=4, d=3):
    coords = rng.uniform(size=(n, 2))
    attrs = np.hstack([rng.normal(size=(n, d)), coords])
    adj = delaunay_adjacency(coords)
    return attrs, adj


class TestGcnLayer:
    def test_identity_self_update(self, rng):
        attrs, adj = small_graph(rng)
        p = np.abs(attrs)  # nonnegative so the rectifier is transparent
        a_d = weighted_adjacency(p, adj)
        dim = p.shape[1]
        out = gcn_layer(p, a_d, np.zeros((dim, dim)), np.eye(dim))
        np.testing.assert_allclose(out, p, atol=1e-12)

    def test_zero_weights_zero_output(self, rng):
        attrs, adj = small_graph(rng)
        a_d = weighted_adjacency(attrs, adj)
        dim = attrs.shape[1]
        out = gcn_layer(attrs, a_d, np.zeros((dim, dim)), np.zeros((dim, dim)))
        np.testing.assert_array_equal(out, np.zeros_like(attrs))

    def test_golden_three_node(self):
        # independent evaluation with explicit loops
        p = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a_d = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.1], [0.2, 0.1, 0.0]])
        w_r = np.array([[0.3, -0.1], [0.2, 0.4]])
        w_s = np.array([[1.0, 0.5], [-0.2, 0.6]])
        expected = np.zeros((3, 2))
        for i in range(3):
            mixed = sum(a_d[i, k] * p[k] for k in range(3))
            pre = mixed @ w_r + p[i] @ w_s
            expected[i] = np.maximum(pre, 0.0)
        np.testing.assert_allclose(gcn_layer(p, a_d, w_r, w_s), expected, atol=1e-12)

    def test_nonnegative_output(self, rng):
        attrs, adj = small_graph(rng)
        a_d = weighted_adjacency(attrs, adj)
        w = rng.normal(size=(5, 5))
        out = gcn_layer(attrs, a_d, w, rng.normal(size=(5, 5)))
        assert np.all(ad.value(out) >= 0.0)

    def test_dimension_mismatch(self, rng):
        attrs, adj = small_graph(rng)
        with pytest.raises(InvalidInputError):
            gcn_layer(attrs, adj, np.eye(3), np.eye(3))


class TestRefinePipeline:
    def test_zero_layers_returns_inputs(self, rng):
        attrs_a, adj_a = small_graph(rng)
        attrs_b, adj_b = small_graph(rng)
        params = init_parameters(5, n_layers=0, seed=1)
        p_a, p_b, a_d, b_d = refine_pipeline(attrs_a, attrs_b, adj_a, adj_b, params)
        assert p_a is attrs_a and p_b is attrs_b
        np.testing.assert_allclose(a_d, weighted_adjacency(attrs_a, adj_a))
        np.testing.assert_allclose(b_d, weighted_adjacency(attrs_b, adj_b))

    def test_training_eps_keeps_zero_rows_finite(self, rng):
        attrs_a, adj_a = small_graph(rng)
        attrs_b, adj_b = small_graph(rng)
        zero = np.zeros((5, 5))
        params = ParameterSet((zero,), (zero,), np.eye(5))
        p_a, _, a_d, _ = refine_pipeline(attrs_a, attrs_b, adj_a, adj_b, params)
        assert np.all(np.isfinite(ad.value(a_d)))

    def test_golden_recomputation(self, rng):
        attrs_a, adj_a = small_graph(rng)
        attrs_b, adj_b = small_graph(rng)
        params = init_parameters(5, n_layers=2, seed=3)
        p_a, p_b, a_d, b_d = refine_pipeline(attrs_a, attrs_b, adj_a, adj_b, params)
        # straight-line recomputation
        xa, xb = attrs_a, attrs_b
        wa = weighted_adjacency(xa, adj_a)
        wb = weighted_adjacency(xb, adj_b)
        for w_r, w_s in zip(params.w_r, params.w_s):
            xa = np.maximum((wa @ xa) @ w_r + xa @ w_s, 0.0)
            xb = np.maximum((wb @ xb) @ w_r + xb @ w_s, 0.0)
            wa = weighted_adjacency(xa, adj_a)
            wb = weighted_adjacency(xb, adj_b)
        np.testing.assert_allclose(p_a, xa, atol=1e-12)
        np.testing.assert_allclose(b_d, wb, atol=1e-12)


class TestNodeAffinity:
    def test_zero_metric_constant_matrix(self, rng):
        p_a = rng.normal(size=(4, 3))
        p_b = rng.normal(size=(4, 3))
        res = node_affinity(p_a, p_b, np.zeros((3, 3)))
        np.testing.assert_allclose(np.exp(res), np.ones((4, 4)))
        np.testing.assert_array_equal(ad.value(res), np.zeros((4, 4)))

    def test_identity_metric_orthonormal(self):
        res = node_affinity(np.eye(2), np.eye(2), np.eye(2))
        m = np.exp(res)
        assert np.argmax(m[0]) == 0 and np.argmax(m[1]) == 1
        # the exponent is eye(2), shifted down by its maximum 1
        np.testing.assert_allclose(ad.value(res), np.eye(2) - 1.0, atol=1e-12)
        np.testing.assert_allclose(np.log(m), np.eye(2) - 1.0, atol=1e-12)

    def test_log_matrix_consistency(self, rng):
        p_a, p_b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 4))
        res = node_affinity(p_a, p_b, w)
        exponent = p_a @ w @ p_b.T
        np.testing.assert_allclose(ad.value(res) + exponent.max(), exponent,
                                   atol=1e-12)
        assert np.all(np.exp(res) > 0.0)
        assert ad.value(res).max() == 0.0

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_exponent_rejected(self, rng):
        p = rng.normal(size=(3, 2)) * 1e200
        with pytest.raises(InvalidInputError):
            node_affinity(p, p, np.eye(2) * 1e200)

    @given(seed=st.integers(0, 2_000))
    def test_row_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        p_a, p_b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 3))
        perm = rng.permutation(5)
        base = np.exp(node_affinity(p_a, p_b, w))
        moved = np.exp(node_affinity(p_a[perm], p_b, w))
        np.testing.assert_allclose(moved, base[perm], rtol=1e-10)


def affinity_from_exponent(exponent):
    return exponent - exponent.max()


class TestInitAssignment:
    def test_constant_affinity_uniform(self):
        out = ad.value(init_assignment(affinity_from_exponent(np.zeros((4, 4)))))
        np.testing.assert_allclose(out, np.full((4, 4), 0.25), atol=1e-9)

    def test_diagonally_dominant_rounds_to_identity(self, rng):
        k = np.eye(5) * 50.0 + rng.uniform(0.1, 1.0, size=(5, 5))
        out = ad.value(init_assignment(affinity_from_exponent(k)))
        np.testing.assert_array_equal(hungarian(out), np.eye(5))

    def test_accepts_affinity_result(self, rng):
        p_a, p_b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        res = node_affinity(p_a, p_b, np.eye(3))
        a = ad.value(init_assignment(res))
        b = ad.value(sinkhorn(np.log(np.exp(res))).matrix)
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestParameterSet:
    def test_init_shapes_and_determinism(self):
        p1 = init_parameters(6, n_layers=2, seed=9)
        p2 = init_parameters(6, n_layers=2, seed=9)
        assert p1.dim == 6 and p1.n_layers == 2
        np.testing.assert_array_equal(p1.w_aff, p2.w_aff)
        assert not np.array_equal(p1.w_r[0], init_parameters(6, 2, seed=10).w_r[0])

    def test_flatten_roundtrip(self):
        p = init_parameters(4, n_layers=2, seed=1)
        flat = p.flatten()
        again = p.replace_flat(flat)
        for (k1, t1), (k2, t2) in zip(p.tensors().items(), again.tensors().items()):
            assert k1 == k2
            np.testing.assert_array_equal(ad.value(t1), ad.value(t2))

    @pytest.mark.parametrize("size", [0, 50, 191])
    def test_replace_flat_wrong_length_names_both(self, size):
        # two layers of 4 x 4 tensors, five in all, flatten to 80 entries;
        # a short vector used to fail in numpy's reshape, unnamed
        p = init_parameters(4, n_layers=2, seed=1)
        with pytest.raises(InvalidInputError, match=f"^parameter vector has {size} entries, not 80$"):
            p.replace_flat(np.zeros(size))

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="^seed must be >= 0, got -1$"):
            init_parameters(4, seed=-1)

    def test_checkpoint_roundtrip(self, tmp_path):
        p = init_parameters(5, n_layers=2, seed=17)
        path = tmp_path / "ckpt.json"
        save_parameters(p, path)
        q = load_parameters(path)
        assert q.seed == 17
        np.testing.assert_array_equal(ad.value(q.w_aff), ad.value(p.w_aff))
        np.testing.assert_array_equal(ad.value(q.w_r[1]), ad.value(p.w_r[1]))

    def test_checkpoint_key_names(self, tmp_path):
        import json
        p = init_parameters(3, n_layers=2, seed=0)
        path = tmp_path / "ckpt.json"
        save_parameters(p, path)
        obj = json.loads(path.read_text())
        assert set(obj["tensors"]) == {"w_r.1", "w_s.1", "w_r.2", "w_s.2", "w_aff"}
        assert obj["dim"] == 3 and obj["seed"] == 0

    def test_validate_rejects_bad_shape(self):
        p = ParameterSet((np.ones((2, 3)),), (np.ones((3, 3)),), np.ones((3, 3)))
        with pytest.raises(InvalidInputError):
            p.validate()

    def test_lift_preserves_values(self):
        p = init_parameters(4, n_layers=1, seed=2)
        lifted, leaves = p.lift()
        assert len(leaves) == 3
        np.testing.assert_array_equal(ad.value(lifted.w_aff), ad.value(p.w_aff))
        assert all(isinstance(ad.value(l), np.ndarray) for l in leaves)


class TestRefineGradients:
    def test_scalar_of_pipeline_matches_fd(self, rng):
        """Parameter gradients of a scalar readout of refine + affinity."""
        n, d = 5, 4
        attrs_a = np.hstack([rng.normal(size=(n, d)), rng.uniform(size=(n, 2))])
        attrs_b = np.hstack([rng.normal(size=(n, d)), rng.uniform(size=(n, 2))])
        adj = delaunay_adjacency(rng.uniform(size=(n, 2)))
        readout = rng.normal(size=(n, n))
        params = init_parameters(d + 2, n_layers=1, seed=4)

        def scalar(p: ParameterSet) -> float:
            pa, pb, a_d, b_d = refine_pipeline(attrs_a, attrs_b, adj, adj, p)
            aff = np.exp(node_affinity(pa, pb, p.w_aff))
            return float(ad.asum(readout * aff) + ad.asum(a_d * b_d))

        lifted, leaves = params.lift()
        pa, pb, a_d, b_d = refine_pipeline(attrs_a, attrs_b, adj, adj, lifted)
        aff = ad.exp(node_affinity(pa, pb, lifted.w_aff))
        out = ad.asum(readout * aff) + ad.asum(a_d * b_d)
        out.backward()
        grad = np.concatenate([l.grad.ravel() for l in leaves])

        h = 1e-5
        theta = params.flatten()
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            bump = np.zeros_like(theta)
            bump[i] = h
            fd[i] = (scalar(params.replace_flat(theta + bump))
                     - scalar(params.replace_flat(theta - bump))) / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4
