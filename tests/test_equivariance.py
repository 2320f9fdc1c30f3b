"""Relabeling the nodes of one graph relabels the answer.

A pair with graph B's nodes, or graph A's, listed in another order is the
same matching problem, so the permutation-equivariant pipeline (Maron et al.
2019, arXiv:1812.09902) must return the old match under that relabeling, at
the same objective, and the parameter gradient must not move. On outlier
pairs the Hungarian directions meet tolerance ties, which the lexicographic
rule breaks by node index, so there only a floor on the count of
equivariant answers is pinned.

Scaling a graph's coordinates (per axis, by positive factors) and shifting
them leaves the answer as it was, since every graph is built from its
normalized coordinates.
"""

import numpy as np
import pytest

from quadmatch.bench import match_pair
from quadmatch.graphs import make_pair
from quadmatch.refine import init_parameters
from quadmatch.synth import ambiguous_config, easy_config, gen_dataset
from quadmatch.train import TrainConfig, grad_params


def relabel_a(pair, order):
    """Node k of the new graph A is node ``order[k]`` of the old one.

    Returns the new pair and the map from an old match vector to the new one.
    """
    a, b = pair.a, pair.b
    moved = make_pair((a.coords[order], a.features[order]), (b.coords, b.features),
                      pair.gt[order])
    return moved, lambda perm: perm[order]


def relabel_b(pair, order):
    """Node k of the new graph B is node ``order[k]`` of the old one."""
    a, b = pair.a, pair.b
    new_index = np.argsort(order)
    # an outlier's -1 stays -1
    gt = np.where(pair.gt >= 0, new_index[pair.gt], -1)
    moved = make_pair((a.coords, a.features), (b.coords[order], b.features[order]), gt)
    return moved, lambda perm: new_index[perm]


@pytest.fixture(scope="module")
def pairs():
    return gen_dataset(ambiguous_config(seed=3), 12) + gen_dataset(easy_config(seed=3), 8)


@pytest.fixture(scope="module")
def params():
    return init_parameters(18, 2, seed=3)


@pytest.mark.parametrize("relabel", [relabel_a, relabel_b])
def test_match_follows_relabeling(pairs, params, relabel):
    rng = np.random.default_rng(3)
    for k, pair in enumerate(pairs):
        moved, follow = relabel(pair, rng.permutation(pair.a.n))
        for variant in ("full", "no_qc"):
            base = match_pair(pair, params, variant)
            again = match_pair(moved, params, variant)
            np.testing.assert_array_equal(again.permutation, follow(base.permutation),
                                          err_msg=f"pair {k}, {variant}")
            np.testing.assert_allclose(again.objective, base.objective, rtol=1e-12,
                                       err_msg=f"pair {k}, {variant}")
            assert again.accuracy == base.accuracy


@pytest.mark.parametrize("relabel", [relabel_a, relabel_b])
def test_gradient_ignores_relabeling(pairs, params, relabel):
    rng = np.random.default_rng(4)
    cfg = TrainConfig()
    for pair in (pairs[0], pairs[1], pairs[12]):
        moved, _ = relabel(pair, rng.permutation(pair.a.n))
        g = grad_params(pair, params, cfg)[0]
        g_moved = grad_params(moved, params, cfg)[0]
        assert np.linalg.norm(g_moved - g) <= 1e-9 * np.linalg.norm(g)


def test_outlier_pairs_equivariance_floor():
    # The rows and columns of outlier nodes in the FW direction score carry
    # entries near zero, far below hungarian's tolerance, so they tie and the
    # lexicographic rule picks by node index; one tied direction sends the
    # rest of the FW run elsewhere. Measured: full follows the relabeling on
    # 13 of these 20 relabelings, no_qc (a single rounding, no FW) on all 20.
    pairs = gen_dataset(easy_config(seed=3, n_inliers=16, n_outliers=8), 10)
    params = init_parameters(18, 2, seed=3)
    rng = np.random.default_rng(3)
    hits = {"full": 0, "no_qc": 0}
    for pair in pairs:
        base = {variant: match_pair(pair, params, variant) for variant in hits}
        for _ in range(2):
            moved, follow = relabel_b(pair, rng.permutation(pair.b.n))
            for variant, res in base.items():
                again = match_pair(moved, params, variant)
                hits[variant] += bool(
                    np.array_equal(again.permutation, follow(res.permutation))
                    and abs(again.objective - res.objective) <= 1e-12 * abs(res.objective))
    assert hits["full"] >= 13
    assert hits["no_qc"] == 20


def transform_coords(pair, scale, shift, graphs):
    """The pair with coordinates ``coords * scale + shift`` in the named graphs."""
    def moved(g, name):
        coords = g.coords * np.asarray(scale) + np.asarray(shift) if name in graphs else g.coords
        return coords, g.features
    return make_pair(moved(pair.a, "a"), moved(pair.b, "b"), pair.gt)


@pytest.fixture(scope="module")
def base_answers(pairs, params):
    return [{variant: match_pair(pair, params, variant) for variant in ("full", "no_qc")}
            for pair in pairs]


@pytest.mark.parametrize("scale,shift", [
    (2.5, (3.0, -7.0)), (1e-3, (0.0, 0.0)), (1e4, (-1e4, 5e3)), ((2.5, 0.4), (3.0, -7.0))],
    ids=["scale_2.5", "scale_1e-3", "scale_1e4", "per_axis"])
@pytest.mark.parametrize("graphs", ["a", "b", "ab"])
def test_match_ignores_scaling_and_shift(pairs, params, base_answers, scale, shift, graphs):
    """Scaling by positive factors and shifting leaves each graph's normalized
    coordinates as they were, up to rounding, and with them its Delaunay
    edges and attributes. Rotation is not a symmetry: ``normalize_coordinates``
    maps the axis-aligned bounding box onto the unit square, which a
    rotation changes, and ``rotate_b`` relies on that so that the rotated
    graph's coordinate attributes cannot separate the members of a group."""
    for k, (pair, base) in enumerate(zip(pairs, base_answers)):
        moved = transform_coords(pair, scale, shift, graphs)
        for variant, res in base.items():
            again = match_pair(moved, params, variant)
            np.testing.assert_array_equal(again.permutation, res.permutation,
                                          err_msg=f"pair {k}, {variant}")
            np.testing.assert_allclose(again.objective, res.objective, rtol=1e-12,
                                       err_msg=f"pair {k}, {variant}")
