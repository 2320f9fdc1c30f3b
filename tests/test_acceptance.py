"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria pin their tolerances here; nothing is
deferred to later calibration. C7-C9 take their data, seeds and sizes from
``scripts/experiments.py``, whose runs print the figures printed here.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

import experiments
from oracles import finite_difference_grad, sinkhorn_rounds
from quadmatch import autodiff as ad
from quadmatch.bench import evaluate_pairs
from quadmatch.losses import LossConfig, cross_entropy_loss, false_matching_loss
from quadmatch.projections import hungarian, sinkhorn
from quadmatch.qap import QapInstance, frank_wolfe_infer, objective, objective_gradient
from quadmatch.refine import init_parameters
from quadmatch.synth import SynthConfig, gen_synthetic_pair
from quadmatch.train import TrainConfig, grad_params


@contextmanager
def criterion(name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"\n[acceptance] {name}: PASS ({time.perf_counter() - start:.1f}s)")


def random_symmetric_hollow(rng, n):
    m = rng.normal(size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


def random_instance(rng, n):
    return QapInstance(random_symmetric_hollow(rng, n),
                       random_symmetric_hollow(rng, n),
                       rng.uniform(0.1, 1.0, size=(n, n)))


def test_c01_gradient_correctness():
    """Analytic objective gradient vs central finite differences."""
    with criterion("C1 gradient correctness (rel err < 1e-5, 100 instances, < 10 s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        h = 1e-6
        for trial in range(100):
            n = int(rng.integers(3, 9))
            inst = random_instance(rng, n)
            x = rng.uniform(size=(n, n))
            g = objective_gradient(x, inst)
            fd = np.zeros_like(x)
            for idx in np.ndindex(x.shape):
                up, down = x.copy(), x.copy()
                up[idx] += h
                down[idx] -= h
                fd[idx] = (objective(up, inst) - objective(down, inst)) / (2 * h)
            rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert rel < 1e-5, f"trial {trial}: rel err {rel:.2e}"
        assert time.perf_counter() - start < 10.0


def test_c02_end_to_end_differentiability():
    """Reverse-mode parameter gradients through the whole unrolled pipeline."""
    with criterion("C2 end-to-end differentiability (rel err < 1e-3, 20 fixtures, < 60 s)"):
        start = time.perf_counter()
        worst = 0.0
        train_cfg = TrainConfig(m1=1, m2=2, tau=1.0)
        for seed in range(20):
            cfg = SynthConfig(n_inliers=5, d=4, classes=5, feature_noise=0.2,
                              coord_jitter=0.02)
            pair = gen_synthetic_pair(cfg, rng=np.random.default_rng(1000 + seed))
            params = init_parameters(6, n_layers=1, seed=seed)
            g_rev, _, _ = grad_params(pair, params, train_cfg)
            g_fd, _, _ = finite_difference_grad(pair, params, train_cfg)
            rel = np.linalg.norm(g_rev - g_fd) / max(np.linalg.norm(g_fd), 1e-30)
            worst = max(worst, rel)
            assert rel < 1e-3, f"fixture {seed}: rel err {rel:.2e}"
        elapsed = time.perf_counter() - start
        print(f"  worst rel err {worst:.2e}, {elapsed:.1f}s", end="")
        assert elapsed < 60.0


def test_c03_projection_correctness():
    """Sinkhorn marginals at 1e-6 and Hungarian vs brute force."""
    with criterion("C3 projections (1000 sinkhorn, 500 hungarian vs brute force, < 30 s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        # the product's 50 rounds leave one of these instances at 1.25e-5
        with sinkhorn_rounds(100):
            for _ in range(1000):
                n = int(rng.integers(1, 33))
                m = rng.uniform(1e-3, 1.0, size=(n, n))
                out = ad.value(sinkhorn(np.log(m)).matrix)
                assert np.abs(out.sum(axis=0) - 1.0).max() < 1e-6
                assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6
        for _ in range(500):
            n = int(rng.integers(1, 8))
            score = rng.normal(size=(n, n))
            perm = hungarian(score)
            best = max(sum(score[i, j] for i, j in enumerate(p))
                       for p in itertools.permutations(range(n)))
            assert np.isclose(float((score * perm).sum()), best)
        assert time.perf_counter() - start < 30.0


def test_c04_structural_recovery():
    """Conjugated instances recovered from a perturbed initialization."""
    with criterion("C4 structural recovery (>= 95% of 100 trials, n=8, < 30 s)"):
        start = time.perf_counter()
        n, hits = 8, 0
        for seed in range(100):
            rng = np.random.default_rng(4000 + seed)
            perm = np.eye(n)[rng.permutation(n)]
            a = rng.uniform(size=(n, n))
            a = (a + a.T) / 2
            np.fill_diagonal(a, 0.0)
            inst = QapInstance(a, perm.T @ a @ perm, np.full((n, n), 0.5))
            x0 = ad.value(sinkhorn(np.log(perm + 0.1 * rng.uniform(size=(n, n)))).matrix)
            out, _ = frank_wolfe_infer(x0, inst)
            hits += int(np.array_equal(out, perm))
        print(f"  recovered {hits}/100", end="")
        assert hits >= 95
        assert time.perf_counter() - start < 30.0


def test_c05_loss_contracts():
    """Exact value at truth, bounds on the feasible set, divergence contrast."""
    with criterion("C5 loss contracts (exact 2 at truth; bounded vs divergent)"):
        cfg = LossConfig(alpha=2.0, beta=0.1)
        rng = np.random.default_rng(505)
        n = 8
        x_star = np.eye(n)[rng.permutation(n)]
        assert false_matching_loss(x_star, x_star, cfg) == 2.0

        bound = np.exp(cfg.alpha * n) + np.exp(cfg.beta * n)
        for seed in range(200):
            x = ad.value(sinkhorn(np.log(np.random.default_rng(seed).uniform(
                0.1, 1.0, size=(n, n)))).matrix)
            loss = false_matching_loss(x, x_star, cfg)
            assert 2.0 - 1e-9 <= loss <= bound + 1e-9

        # adversarial fixture: all prediction mass exactly where truth has none
        adversarial = x_star[:, np.roll(np.arange(n), 1)]
        assert float((adversarial * x_star).sum()) == 0.0
        ce = cross_entropy_loss(adversarial, x_star, LossConfig(clip_eps=1e-300))
        fm = false_matching_loss(adversarial, x_star, cfg)
        print(f"  ce={ce}, fm={fm:.3e} (cap {bound:.3e})", end="")
        assert ce > 1e6
        assert np.isfinite(fm) and fm <= bound + 1e-9


def test_c06_inference_monotone_acceptance():
    """Returned objective never exceeds the rounded initialization's."""
    with criterion("C6 monotone acceptance (500 random instances)"):
        rng = np.random.default_rng(606)
        for _ in range(500):
            n = int(rng.integers(3, 9))
            inst = random_instance(rng, n)
            x0 = ad.value(sinkhorn(np.log(rng.uniform(0.1, 1.0, size=(n, n)))).matrix)
            out, _ = frank_wolfe_infer(x0, inst)
            assert (float(objective(out, inst))
                    <= float(objective(hungarian(x0), inst)) + 1e-12)


def test_c07_qc_benefit():
    """Structural constraint beats the affinity-only ablation by >= 10 points."""
    with criterion("C7 QC benefit (>= 10 points on ambiguous class, < 2 min)"):
        start = time.perf_counter()
        pairs, params = experiments.qc_ablation_setup()
        full = evaluate_pairs(pairs, params, "full").mean_accuracy
        noqc = evaluate_pairs(pairs, params, "no_qc").mean_accuracy
        print(f"  {experiments.qc_figure(full, noqc)}", end="")
        assert full - noqc >= 0.10
        assert time.perf_counter() - start < 120.0


@pytest.fixture(scope="module")
def trained_easy_model():
    """The experiments' 30-epoch training run (criteria 8 and 9)."""
    return experiments.trained_model()


def test_c08_training_improves(trained_easy_model):
    """30 pinned-default epochs lift held-out accuracy above 90%."""
    with criterion("C8 training improves matching (> 90% held-out, finite loss, < 5 min)"):
        start = time.perf_counter()
        params, history, untrained, test_pairs = trained_easy_model
        assert all(np.isfinite(e.mean_loss) for e in history.entries)
        trained = evaluate_pairs(test_pairs, params, "full").mean_accuracy
        # stability contrast: unclamped cross entropy on the ambiguous class is
        # permitted to abort with a recorded numerical failure
        ce_outcome, _ = experiments.cross_entropy_contrast()
        print(f"  {experiments.training_figure(untrained, trained, ce_outcome)}", end="")
        assert trained > 0.90
        assert trained > untrained
        assert time.perf_counter() - start < 300.0


def test_c09_robustness_sweep_shape(trained_easy_model):
    """Accuracy is non-increasing in the injected outlier count."""
    with criterion("C9 robustness sweep (Spearman rho < 0 over k = 0..4)"):
        rows, rho = experiments.robustness_sweep(trained_easy_model[0])
        print(f"  {experiments.sweep_figure(rows, rho)}", end="")
        assert rho < 0.0


def test_c10_determinism(tmp_path):
    """Identical seeds give byte-identical train and eval CSV outputs."""
    with criterion("C10 determinism (byte-identical CSVs)"):
        from quadmatch.cli import main

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            '{"synth": {"n_inliers": 5, "d": 4, "classes": 5, "seed": 3},\n'
            ' "train": {"epochs": 2, "n_layers": 1, "seed": 3, "m1": 1, "m2": 2}}')
        outputs = []
        for tag in ("one", "two"):
            data = str(tmp_path / f"data_{tag}.json")
            ckpt = str(tmp_path / f"ckpt_{tag}.json")
            hist = str(tmp_path / f"hist_{tag}.csv")
            report = str(tmp_path / f"report_{tag}.csv")
            assert main(["synth", "--config", str(cfg_path), "--out", data,
                         "--n-pairs", "4"]) == 0
            assert main(["train", "--data", data, "--config", str(cfg_path),
                         "--out", ckpt, "--history", hist]) == 0
            assert main(["eval", "--data", data, "--checkpoint", ckpt,
                         "--out", report]) == 0
            outputs.append((open(data, "rb").read(), open(ckpt, "rb").read(),
                            open(hist, "rb").read(), open(report, "rb").read()))
        assert outputs[0] == outputs[1]
