"""Synthetic generation, outlier injection, and the benchmark report."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from oracles import (assert_trace_extends, brute_force_qap, stepwise_frank_wolfe_infer,
                     unrolled_sinkhorn)

from quadmatch import bench, qap, refine
from quadmatch.bench import (VARIANTS, evaluate_pairs, match_pair, outlier_sweep,
                             run_benchmark, sweep_to_csv)
from quadmatch.errors import InvalidInputError
from quadmatch.qap import QapInstance, objective
from quadmatch.refine import ParameterSet, forward, init_parameters
from quadmatch.synth import (SynthConfig, ambiguous_config, easy_config,
                             gen_dataset, gen_synthetic_pair, inject_outliers)


@pytest.fixture(scope="module")
def small_params():
    return init_parameters(8, n_layers=1, seed=2)


def small_cfg(**overrides):
    base = dict(n_inliers=6, d=6, classes=6, seed=5)
    base.update(overrides)
    return SynthConfig(**base)


def small_pair(seed=5, **overrides):
    """``gen_synthetic_pair`` on ``small_cfg(**overrides)``, drawn from ``seed``."""
    return gen_synthetic_pair(small_cfg(**overrides), rng=np.random.default_rng(seed))


class TestGenSyntheticPair:
    def test_noise_free_pair_is_exact_permuted_copy(self):
        pair = small_pair(feature_noise=0.0, coord_jitter=0.0)
        perm = pair.gt
        np.testing.assert_allclose(pair.b.coords[perm], pair.a.coords)
        np.testing.assert_allclose(pair.b.features[perm], pair.a.features)

    def test_same_seed_identical(self):
        a, b = small_pair(), small_pair()
        np.testing.assert_array_equal(a.gt, b.gt)
        np.testing.assert_array_equal(a.a.features, b.a.features)

    def test_different_seed_differs(self):
        a, b = small_pair(1), small_pair(2)
        assert not np.array_equal(a.a.coords, b.a.coords)

    def test_ground_truth_is_permutation(self):
        pair = small_pair()
        assert sorted(pair.gt) == list(range(6))

    def test_rotation_preserves_topology(self):
        pair = small_pair(9, rotate_b=True, coord_jitter=0.0)
        perm_m = np.zeros((6, 6))
        perm_m[np.arange(6), pair.gt] = 1.0
        np.testing.assert_array_equal(pair.a.adjacency,
                                      perm_m @ pair.b.adjacency @ perm_m.T)

    def test_features_follow_permutation(self):
        # without feature noise each node of B carries exactly the prototype
        # row of the node of A that the ground truth maps onto it
        for seed, rotate_b in itertools.product(range(10), (False, True)):
            pair = small_pair(seed, classes=3, feature_noise=0.0, rotate_b=rotate_b)
            np.testing.assert_array_equal(pair.b.features[pair.gt], pair.a.features)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SynthConfig(n_inliers=2)
        with pytest.raises(InvalidInputError):
            SynthConfig(feature_noise=-0.1)
        with pytest.raises(InvalidInputError, match="^seed must be >= 0, got -1$"):
            SynthConfig(seed=-1)

    def test_rng_is_required(self):
        # cfg.seed is read only through gen_dataset's seed sequence, so
        # `synth --seed s --n-pairs 1` writes the one pair that seed names
        with pytest.raises(TypeError):
            gen_synthetic_pair(small_cfg())


class TestInjectOutliers:
    def test_zero_is_identity(self):
        pair = small_pair()
        assert inject_outliers(pair, 0, rng=np.random.default_rng(0)) is pair

    def test_bookkeeping(self):
        pair = small_pair()
        noisy = inject_outliers(pair, 2, rng=np.random.default_rng(3))
        assert noisy.a.n == pair.a.n + 2
        assert noisy.b.n == pair.b.n + 2
        assert (noisy.gt == -1).sum() == 2
        np.testing.assert_array_equal(noisy.gt[:6], pair.gt)

    def test_inlier_truth_and_data_preserved(self):
        pair = small_pair()
        noisy = inject_outliers(pair, 3, rng=np.random.default_rng(4))
        np.testing.assert_array_equal(noisy.a.coords[:6], pair.a.coords)
        np.testing.assert_array_equal(noisy.b.features[:6], pair.b.features)

    def test_deterministic_given_seed(self):
        pair = small_pair()
        a = inject_outliers(pair, 2, rng=np.random.default_rng(11))
        b = inject_outliers(pair, 2, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(a.a.coords, b.a.coords)

    def test_sigma_scale(self):
        pair = small_pair()
        noisy = inject_outliers(pair, 50, rng=np.random.default_rng(0))
        spread = np.abs(noisy.a.coords[6:]).max()
        assert spread > 5.0  # far outside the unit frame

    def test_rng_is_required(self):
        with pytest.raises(TypeError):
            inject_outliers(small_pair(), 2)

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInputError, match="^outlier count must be >= 0$"):
            inject_outliers(small_pair(), -1, rng=np.random.default_rng(0))


class TestDatasets:
    def test_generator_matches_golden_file(self, tmp_path):
        # frozen output of one seeded generator run, committed as a fixture
        from pathlib import Path
        from quadmatch.graphs import save_pair
        cfg = SynthConfig(n_inliers=6, d=5, classes=3, feature_noise=0.1,
                          coord_jitter=0.01, n_outliers=1)
        out = tmp_path / "pair.json"
        save_pair(gen_synthetic_pair(cfg, rng=np.random.default_rng(2718)), out)
        golden = Path(__file__).parent / "data" / "golden_pair.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_gen_dataset_deterministic(self):
        cfg = small_cfg()
        d1 = gen_dataset(cfg, 4)
        d2 = gen_dataset(cfg, 4)
        for p1, p2 in zip(d1, d2):
            np.testing.assert_array_equal(p1.a.features, p2.a.features)

    def test_pairs_differ_within_dataset(self):
        d = gen_dataset(small_cfg(), 3)
        assert not np.array_equal(d[0].a.coords, d[1].a.coords)

    def test_preset_configs_valid(self):
        assert easy_config(seed=1).classes == easy_config(seed=1).n_inliers
        amb = ambiguous_config(seed=1)
        assert amb.classes < amb.n_inliers and amb.rotate_b


class TestBenchmark:
    def test_report_has_all_variant_rows(self, small_params):
        pairs = gen_dataset(small_cfg(), 3)
        report = run_benchmark(pairs, small_params)
        assert [r.variant for r in report.rows] == list(VARIANTS)
        for row in report.rows:
            assert 0.0 <= row.mean_accuracy <= 1.0
            assert 0.0 <= row.mean_f1 <= 1.0
            assert row.n_pairs == 3

    def test_empty_dataset_rejected(self, small_params):
        with pytest.raises(InvalidInputError):
            run_benchmark([], small_params)

    def test_unknown_variant_row_raises(self, small_params):
        report = run_benchmark(gen_dataset(small_cfg(), 1), small_params)
        with pytest.raises(KeyError, match="^'ful'$"):
            report.row("ful")

    def test_match_pair_scores(self, small_params):
        pair = small_pair(feature_noise=0.0, coord_jitter=0.0)
        r = match_pair(pair, small_params, "full")
        assert r.matrix.shape == (6, 6)
        assert sorted(r.permutation) == list(range(6))
        assert 0.0 <= r.accuracy <= 1.0

    def test_no_qc_skips_solver(self, small_params):
        pair = small_pair()
        r = match_pair(pair, small_params, "no_qc")
        assert r.trace.steps == []

    def test_no_prior_strips_coordinates(self, small_params):
        pair = small_pair(feature_noise=0.0, coord_jitter=0.0)
        from quadmatch.bench import _strip_prior
        stripped = _strip_prior(pair)
        np.testing.assert_array_equal(stripped.a.attributes[:, -2:], 0.0)
        np.testing.assert_array_equal(stripped.a.attributes[:, :-2],
                                      pair.a.attributes[:, :-2])
        r = match_pair(pair, small_params, "no_prior")
        assert 0.0 <= r.accuracy <= 1.0

    def test_no_pairwise_scores_the_binary_adjacencies(self, small_params):
        pair = small_pair()
        r = match_pair(pair, small_params, "no_pairwise")
        weighted = forward(pair, small_params)[1]
        binary = QapInstance(pair.a.adjacency, pair.b.adjacency, weighted.x_u)
        assert r.objective == float(objective(r.matrix, binary))
        # the swap matters: the weighted instance scores the same matrix otherwise
        assert r.objective != float(objective(r.matrix, weighted))

    def test_unknown_variant_rejected(self, small_params):
        pair = small_pair()
        with pytest.raises(InvalidInputError):
            match_pair(pair, small_params, "no_everything")

    def test_csv_excludes_wall_clock(self, small_params):
        pairs = gen_dataset(small_cfg(), 2)
        report = run_benchmark(pairs, small_params)
        assert "wall" not in report.to_csv()
        assert "wall_clock_s" in report.to_json()

    def test_csv_deterministic_across_runs(self, small_params):
        pairs = gen_dataset(small_cfg(), 2)
        a = run_benchmark(pairs, small_params).to_csv()
        b = run_benchmark(pairs, small_params).to_csv()
        assert a == b

    def test_per_pair_failures_recorded_and_run_continues(self, small_params):
        # the affinity exponent overflows, so every pair is rejected; the run
        # must keep going
        broken = replace(small_params, w_aff=1e308 * np.eye(8))
        pairs = gen_dataset(small_cfg(), 3)
        res = evaluate_pairs(pairs, broken, "full")
        assert res.n_failures == 3
        assert res.mean_accuracy == 0.0

    def test_zero_gcn_weights_still_match(self):
        # the rectifier collapses every attribute row to zero; the kernel
        # epsilon keeps the adjacencies finite (all zero) at inference too
        zero = np.zeros((8, 8))
        pair = small_pair()
        res = match_pair(pair, ParameterSet((zero,), (zero,), np.eye(8)), "full")
        assert sorted(res.permutation.tolist()) == list(range(pair.b.n))

    def test_unknown_variant_raises_not_fail_pairs(self, small_params):
        pairs = gen_dataset(small_cfg(), 3)
        with pytest.raises(InvalidInputError):
            evaluate_pairs(pairs, small_params, "ful")

    def test_width_mismatch_raises_not_fail_pairs(self, small_params, monkeypatch):
        # pair 2 has attributes 7 wide; the parameters take 8
        pairs = gen_dataset(small_cfg(), 2) + gen_dataset(small_cfg(d=5), 1)
        monkeypatch.setattr(bench, "match_pair", lambda *args: pytest.fail("a pair ran"))
        with pytest.raises(InvalidInputError, match="^pair 2: attributes are 7 wide"):
            evaluate_pairs(pairs, small_params, "full")

    def test_inference_matches_stepwise_oracles(self, monkeypatch):
        # infer-ambiguous pairs (n=10) and one infer-outliers pair (n=24)
        pairs = (gen_dataset(ambiguous_config(seed=3), 3)
                 + gen_dataset(easy_config(seed=3, n_inliers=16, n_outliers=8), 1))

        def run():
            out = []
            for pair in pairs:
                params = init_parameters(pair.a.attributes.shape[1], n_layers=2, seed=3)
                out.append(match_pair(pair, params, "full"))
            return out

        shipped = run()
        monkeypatch.setattr(qap, "sinkhorn", unrolled_sinkhorn)
        monkeypatch.setattr(refine, "sinkhorn", unrolled_sinkhorn)
        monkeypatch.setattr(bench, "frank_wolfe_infer", stepwise_frank_wolfe_infer)
        oracle = run()
        assert pairs[-1].a.n == 24
        for r, r_o in zip(shipped, oracle):
            np.testing.assert_array_equal(r.permutation, r_o.permutation)
            assert r.objective == r_o.objective
            assert_trace_extends(r.trace, r_o.trace)

    def test_match_pair_reaches_global_optimum_floor(self):
        # measured: match_pair's answer is the global optimum of the solved
        # objective on 48 of these 60 pairs, mean gap 0.0638; the floor sits a
        # few below so that last-bit changes do not trip it. The ground truth
        # is optimal on only 34 of them: optimality and accuracy are separate
        # claims, and this test makes only the first.
        pairs = gen_dataset(ambiguous_config(seed=5, n_inliers=7), 60)
        params = init_parameters(pairs[0].a.attributes.shape[1], n_layers=2, seed=5)
        hits = 0
        for pair in pairs:
            best, _ = brute_force_qap(forward(pair, params)[1])
            gap = match_pair(pair, params, "full").objective - best
            assert gap >= -1e-9
            hits += gap <= 1e-9
        assert hits >= 45


class TestOutlierSweep:
    def test_sweep_rows_and_csv(self, small_params):
        pairs = gen_dataset(small_cfg(), 2)
        rows = outlier_sweep(pairs, small_params, seed=7)
        assert [r["k"] for r in rows] == [0, 1, 2, 3, 4]
        csv = sweep_to_csv(rows)
        assert csv.splitlines()[0] == "k,mean_accuracy,mean_f1,n_failures"
        assert len(csv.splitlines()) == 6

    def test_sweep_deterministic(self, small_params):
        pairs = gen_dataset(small_cfg(), 2)
        a = outlier_sweep(pairs, small_params, seed=7)
        b = outlier_sweep(pairs, small_params, seed=7)
        assert [r["k"] for r in a] == [0, 1, 2, 3, 4]
        assert sweep_to_csv(a) == sweep_to_csv(b)

    def test_k_zero_matches_plain_eval(self, small_params):
        pairs = gen_dataset(small_cfg(), 2)
        rows = outlier_sweep(pairs, small_params, seed=7)
        direct = evaluate_pairs(pairs, small_params, "full")
        assert [r["k"] for r in rows] == [0, 1, 2, 3, 4]
        assert rows[0]["mean_accuracy"] == direct.mean_accuracy
