"""Graph construction: coordinate normalization, Delaunay topology, kernels."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_force_delaunay
from quadmatch import graphs
from quadmatch.errors import InvalidInputError
from quadmatch.graphs import (KERNEL_EPS, GraphPair, build_graph, delaunay_adjacency,
                              linear_kernel, make_pair, normalize_coordinates, pair_from_dict,
                              pair_to_dict, weighted_adjacency)
from quadmatch.synth import SynthConfig, gen_synthetic_pair


class TestNormalizeCoordinates:
    def test_bounding_box_corners(self):
        out = normalize_coordinates([(0, 0), (10, 0), (0, 10)])
        np.testing.assert_allclose(out, [(0, 0), (1, 0), (0, 1)])

    def test_degenerate_axis_maps_to_half(self):
        out = normalize_coordinates([(5, 5)] * 4)
        np.testing.assert_allclose(out, np.full((4, 2), 0.5))

    def test_hand_affine_map(self):
        out = normalize_coordinates([(2, 4), (6, 4), (4, 8)])
        np.testing.assert_allclose(out, [(0, 0), (1, 0), (0.5, 1)])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            normalize_coordinates([(0.0, np.inf), (1.0, 2.0)])

    @pytest.mark.parametrize("function", [normalize_coordinates, delaunay_adjacency],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 2, 2)], ids=["1d", "3_columns", "3d"])
    def test_rejects_shape_not_n_by_2(self, function, shape):
        message = re.escape(f"expected n x 2 coordinates, got shape {shape}")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            function(np.zeros(shape))

    def test_range_overflow_rejected_without_warning(self):
        # every entry is finite, but max - min on the x axis is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^the coordinates' range overflows"):
                normalize_coordinates([(-1e308, 0.0), (1e308, 1.0), (0.0, 5.0)])

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 20))
    def test_idempotent(self, seed, n):
        coords = np.random.default_rng(seed).uniform(-50, 50, size=(n, 2))
        once = normalize_coordinates(coords)
        np.testing.assert_array_equal(normalize_coordinates(once), once)

    def test_output_in_unit_square(self, rng):
        out = normalize_coordinates(rng.normal(size=(30, 2)) * 100)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestDelaunayAdjacency:
    def test_triangle_is_complete(self):
        adj = delaunay_adjacency([(0, 0), (1, 0), (0.5, 1)])
        np.testing.assert_array_equal(adj, np.ones((3, 3)) - np.eye(3))

    def test_interior_point_gives_k4(self):
        adj = delaunay_adjacency([(0, 0), (4, 0), (2, 3), (2, 1)])
        np.testing.assert_array_equal(adj, np.ones((4, 4)) - np.eye(4))
        np.testing.assert_array_equal(
            adj, brute_force_delaunay([(0, 0), (4, 0), (2, 3), (2, 1)]))

    def test_two_points_single_edge(self):
        adj = delaunay_adjacency([(0, 0), (1, 1)])
        np.testing.assert_array_equal(adj, [[0, 1], [1, 0]])

    def test_collinear_falls_back_to_path(self):
        adj = delaunay_adjacency([(0, 0), (2, 0), (1, 0), (3, 0)])
        # path in sorted-x order: 0-2, 2-1... sorted order is x=0,1,2,3 -> nodes 0,2,1,3
        expected = np.zeros((4, 4))
        for a, b in [(0, 2), (2, 1), (1, 3)]:
            expected[a, b] = expected[b, a] = 1.0
        np.testing.assert_array_equal(adj, expected)

    def test_qhull_failure_falls_back_to_path(self, monkeypatch):
        # no point set that passes the collinearity test is known to make
        # qhull fail, so the failure is patched in
        def fail(points):
            raise graphs.QhullError("QH6154 initial simplex is flat")

        monkeypatch.setattr(graphs, "Delaunay", fail)
        adj = delaunay_adjacency([(0, 0), (1, 0), (0.5, 1), (2, 0.2)])
        # x is the longer axis: path 0-2-1-3 in x order
        expected = np.zeros((4, 4))
        for a, b in [(0, 2), (2, 1), (1, 3)]:
            expected[a, b] = expected[b, a] = 1.0
        np.testing.assert_array_equal(adj, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(InvalidInputError, match="^coordinates must be finite$"):
            delaunay_adjacency([(0.0, 0.0), (1.0, bad), (0.5, 1.0)])

    def test_coincident_points_fall_back(self):
        adj = delaunay_adjacency([(1.0, 1.0)] * 4)
        assert adj.sum() == 2 * 3  # a path over 4 nodes

    @pytest.mark.parametrize("coords,dropped,kept", [
        ([(0, 0), (0, 0), (1, 0), (0, 1)], 1, 0),
        ([(0, 0), (1, 0), (0, 1), (1, 1), (1, 1)], 4, 3),
    ])
    def test_coincident_keypoint_rejected(self, coords, dropped, kept):
        # qhull would leave the duplicate out of every triangle: an isolated node
        with pytest.raises(InvalidInputError,
                           match=f"^keypoint {dropped} coincides with keypoint {kept}, "):
            delaunay_adjacency(normalize_coordinates(coords))

    @given(seed=st.integers(0, 2_000), n=st.integers(4, 12))
    def test_matches_brute_force(self, seed, n):
        coords = np.random.default_rng(seed).uniform(size=(n, 2))
        np.testing.assert_array_equal(delaunay_adjacency(coords), brute_force_delaunay(coords))

    @given(seed=st.integers(0, 2_000))
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(size=(9, 2))
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = coords @ rot.T * rng.uniform(0.5, 20.0) + rng.uniform(-5, 5, size=2)
        base = delaunay_adjacency(coords)
        np.testing.assert_array_equal(delaunay_adjacency(moved), base)

    @given(seed=st.integers(0, 5_000), n=st.integers(3, 12))
    def test_symmetric_zero_diagonal(self, seed, n):
        coords = np.random.default_rng(seed).uniform(size=(n, 2))
        adj = delaunay_adjacency(coords)
        np.testing.assert_array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)


class TestBuildGraph:
    def test_zero_feature_dim(self):
        coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]])
        g = build_graph(coords, np.zeros((3, 0)))
        np.testing.assert_array_equal(g.attributes, normalize_coordinates(coords))

    def test_features_lead_attributes(self):
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = build_graph([[0, 0], [2, 4]], features)
        np.testing.assert_array_equal(g.attributes, [[1, 2, 0, 0], [3, 4, 1, 1]])
        assert g.features.tobytes() == features.tobytes()
        assert np.shares_memory(g.features, g.attributes)

    def test_shape_and_determinism(self, rng):
        feats = rng.normal(size=(5, 16))
        coords = rng.uniform(size=(5, 2))
        a = build_graph(coords, feats).attributes
        b = build_graph(coords.copy(), feats.copy()).attributes
        assert a.shape == (5, 18)
        np.testing.assert_array_equal(a, b)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(InvalidInputError, match="^features must have one row per keypoint$"):
            build_graph(np.eye(3, 2), np.ones((2, 4)))


def shrink(norm):
    """Factor by which ``KERNEL_EPS`` scales a row of the given norm."""
    return norm / (norm + KERNEL_EPS)


class TestLinearKernel:
    def test_identical_rows_all_ones(self):
        p = np.tile([1.0, 2.0, 3.0], (4, 1))
        np.testing.assert_allclose(linear_kernel(p), np.full((4, 4), shrink(np.sqrt(14.0)) ** 2),
                                   atol=1e-12)

    def test_orthogonal_rows_identity(self):
        np.testing.assert_allclose(linear_kernel(np.eye(2)), shrink(1.0) ** 2 * np.eye(2),
                                   atol=1e-15)

    def test_hand_cosine(self):
        k = linear_kernel(np.array([[1.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(k[0, 1], 1 / ((np.sqrt(2) + KERNEL_EPS) * (1 + KERNEL_EPS)),
                                   atol=1e-12)

    def test_rejects_1d(self):
        with pytest.raises(InvalidInputError, match="^attribute matrix must be 2-D$"):
            linear_kernel(np.ones(3))

    def test_eps_allows_zero_rows(self):
        # KERNEL_EPS keeps a zero row finite: it gives an exact zero kernel row and column
        k = linear_kernel(np.array([[1.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(k[1], [0.0, 0.0])
        np.testing.assert_array_equal(k[:, 1], [0.0, 0.0])
        np.testing.assert_allclose(k[0, 0], shrink(1.0) ** 2, atol=1e-15)

    @given(seed=st.integers(0, 5_000), n=st.integers(2, 12), d=st.integers(1, 8))
    def test_gram_psd_and_bounded(self, seed, n, d):
        p = np.random.default_rng(seed).normal(size=(n, d))
        k = linear_kernel(p)
        assert np.all(np.abs(k) <= 1.0 + 1e-12)
        np.testing.assert_allclose(np.diag(k), shrink(np.linalg.norm(p, axis=1)) ** 2, atol=1e-12)
        assert np.linalg.eigvalsh(k).min() >= -1e-8


class TestWeightedAdjacency:
    def test_identical_rows_reduce_to_mask(self, rng):
        p = np.tile(rng.normal(size=3), (4, 1))
        adj = delaunay_adjacency(rng.uniform(size=(4, 2)))
        np.testing.assert_allclose(weighted_adjacency(p, adj),
                                   shrink(np.linalg.norm(p[0])) ** 2 * adj, atol=1e-12)

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(InvalidInputError,
                           match="^adjacency size does not match attribute rows$"):
            weighted_adjacency(rng.normal(size=(4, 3)), np.zeros((3, 3)))

    def test_zero_mask_annihilates(self, rng):
        p = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(weighted_adjacency(p, np.zeros((4, 4))), np.zeros((4, 4)))

    def test_k3_hand_values(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        adj = np.ones((3, 3)) - np.eye(3)
        w = weighted_adjacency(p, adj)
        k3 = 1 / ((np.sqrt(2) + KERNEL_EPS) * (1 + KERNEL_EPS))
        np.testing.assert_allclose(w[0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(w[0, 2], k3, atol=1e-12)
        np.testing.assert_allclose(w[1, 2], k3, atol=1e-12)

    @given(seed=st.integers(0, 5_000), n=st.integers(3, 10))
    def test_symmetric_zero_diag_bounded(self, seed, n):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(n, 4))
        adj = delaunay_adjacency(rng.uniform(size=(n, 2)))
        w = weighted_adjacency(p, adj)
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        assert np.all(np.diag(w) == 0)
        assert np.all(np.abs(w) <= 1.0 + 1e-12)
        assert np.all((w == 0) | (adj == 1))


class TestPairIO:
    def test_roundtrip(self, rng):
        a = (rng.uniform(size=(5, 2)) * 100, rng.normal(size=(5, 3)))
        b = (rng.uniform(size=(5, 2)) * 100, rng.normal(size=(5, 3)))
        pair = make_pair(a, b, [3, 2, -1, 0, 4])
        again = pair_from_dict(pair_to_dict(pair))
        np.testing.assert_array_equal(again.gt, pair.gt)
        np.testing.assert_allclose(again.a.coords, pair.a.coords)
        np.testing.assert_allclose(again.b.attributes, pair.b.attributes)

    def test_duplicate_target_rejected(self, rng):
        a = (rng.uniform(size=(3, 2)), rng.normal(size=(3, 2)))
        b = (rng.uniform(size=(3, 2)), rng.normal(size=(3, 2)))
        with pytest.raises(InvalidInputError):
            make_pair(a, b, [0, 0, 1])

    @pytest.mark.parametrize("entry", [0.5, 4.7])
    def test_fractional_ground_truth_rejected(self, rng, entry):
        a = (rng.uniform(size=(5, 2)), rng.normal(size=(5, 2)))
        b = (rng.uniform(size=(5, 2)), rng.normal(size=(5, 2)))
        gt = [0, 1, 2, 3, entry]
        with pytest.raises(InvalidInputError, match="integer"):
            make_pair(a, b, gt)
        obj = pair_to_dict(make_pair(a, b, [0, 1, 2, 3, 4]))
        obj["gt_permutation"] = gt
        with pytest.raises(InvalidInputError, match="integer"):
            pair_from_dict(obj)

    @pytest.mark.parametrize("entry", [-2, -5])
    def test_ground_truth_below_minus_one_rejected(self, rng, entry):
        # only -1 marks an outlier; any other negative entry is a typo that
        # would silently drop a match from the accuracy
        a = (rng.uniform(size=(3, 2)), rng.normal(size=(3, 2)))
        b = (rng.uniform(size=(3, 2)), rng.normal(size=(3, 2)))
        gt = [0, 1, entry]
        with pytest.raises(InvalidInputError, match="or -1 for an outlier"):
            make_pair(a, b, gt)
        obj = pair_to_dict(make_pair(a, b, [0, 1, -1]))
        obj["gt_permutation"] = gt
        with pytest.raises(InvalidInputError, match="or -1 for an outlier"):
            pair_from_dict(obj)

    def test_boolean_ground_truth_array_rejected(self, rng):
        # a bool array would cast to the valid [0, 1]
        a = (rng.uniform(size=(2, 2)), rng.normal(size=(2, 2)))
        b = (rng.uniform(size=(2, 2)), rng.normal(size=(2, 2)))
        with pytest.raises(InvalidInputError, match="integer node indices"):
            make_pair(a, b, np.array([False, True]))

    def test_boolean_ground_truth_entry_rejected(self, rng):
        # numpy casts a list that mixes booleans and integers to integers
        a = (rng.uniform(size=(2, 2)), rng.normal(size=(2, 2)))
        b = (rng.uniform(size=(2, 2)), rng.normal(size=(2, 2)))
        obj = pair_to_dict(make_pair(a, b, [0, 1]))
        obj["gt_permutation"] = [False, 1]
        with pytest.raises(InvalidInputError, match="integer node indices, not true or false"):
            pair_from_dict(obj)

    @pytest.mark.parametrize("gt", [[True, False, 2, 3], (True, 0, 2, 3), [0, 1, 2, np.True_]],
                             ids=["list", "tuple", "numpy_bool"])
    def test_boolean_ground_truth_sequence_rejected(self, rng, gt):
        # every path builds a GraphPair, so the Python API rejects it as JSON input does
        a = (rng.uniform(size=(4, 2)), rng.normal(size=(4, 2)))
        b = (rng.uniform(size=(4, 2)), rng.normal(size=(4, 2)))
        with pytest.raises(InvalidInputError, match="integer node indices, not true or false"):
            make_pair(a, b, gt)

    def test_unequal_sizes_rejected(self):
        a = gen_synthetic_pair(SynthConfig(n_inliers=5, d=4, classes=5),
                               rng=np.random.default_rng(1))
        b = gen_synthetic_pair(SynthConfig(n_inliers=6, d=4, classes=6),
                               rng=np.random.default_rng(2))
        with pytest.raises(InvalidInputError):
            GraphPair(a.a, b.b, np.arange(5))

    def test_unequal_widths_rejected(self):
        a = gen_synthetic_pair(SynthConfig(n_inliers=5, d=4, classes=5),
                               rng=np.random.default_rng(1))
        b = gen_synthetic_pair(SynthConfig(n_inliers=5, d=5, classes=5),
                               rng=np.random.default_rng(2))
        with pytest.raises(InvalidInputError, match="^graph_a has 5 nodes and attributes 6 "
                                                    "wide, but graph_b has 5 nodes and "
                                                    "attributes 7 wide"):
            GraphPair(a.a, b.b, np.arange(5))

    def test_malformed_dict_rejected(self):
        with pytest.raises(InvalidInputError):
            pair_from_dict({"graph_a": {}})

    def test_build_graph_fields(self, rng):
        g = build_graph(rng.uniform(size=(6, 2)) * 30, rng.normal(size=(6, 4)))
        assert g.attributes.shape == (6, 6)
        coords_norm = g.attributes[:, -2:]
        assert coords_norm.min() >= 0 and coords_norm.max() <= 1
        # a triangulation (at least n edges), not the collinear path (n - 1)
        assert g.adjacency.sum() / 2 >= g.n
