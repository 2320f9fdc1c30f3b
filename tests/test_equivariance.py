"""Relabeling the nodes of one graph relabels the answer.

A pair with graph B's nodes, or graph A's, listed in another order is the
same matching problem, so the permutation-equivariant pipeline (Maron et al.
2019, arXiv:1812.09902) must return the old match under that relabeling, at
the same objective, and the parameter gradient must not move. Outlier pairs
are left out: the Hungarian directions there meet tolerance ties, which the
lexicographic rule breaks by node index.
"""

import numpy as np
import pytest

from quadmatch.bench import match_pair
from quadmatch.graphs import KeypointSet, make_pair
from quadmatch.refine import init_parameters
from quadmatch.synth import ambiguous_config, easy_config, gen_dataset
from quadmatch.train import TrainConfig, grad_params


def relabel_a(pair, order):
    """Node k of the new graph A is node ``order[k]`` of the old one.

    Returns the new pair and the map from an old match vector to the new one.
    """
    kp = pair.a.keypoints
    moved = make_pair(KeypointSet(kp.coords[order], kp.features[order]), pair.b.keypoints,
                      pair.gt[order])
    return moved, lambda perm: perm[order]


def relabel_b(pair, order):
    """Node k of the new graph B is node ``order[k]`` of the old one."""
    kp = pair.b.keypoints
    new_index = np.argsort(order)
    moved = make_pair(pair.a.keypoints, KeypointSet(kp.coords[order], kp.features[order]),
                      new_index[pair.gt])
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
        g = grad_params(pair, params, cfg)[0].flatten()
        g_moved = grad_params(moved, params, cfg)[0].flatten()
        assert np.linalg.norm(g_moved - g) <= 1e-9 * np.linalg.norm(g)
