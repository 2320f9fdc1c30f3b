"""The paper's three experiments, each defined once, at the settings of its
acceptance criterion in tests/test_acceptance.py, which reads them here.

  qc-ablation      C7: the quadratic constraint against affinity alone on
                   the ambiguous class, untrained; writes qc_ablation.csv
                   (all four variants) and prints full vs no-QC accuracy
  loss-comparison  C8: false-matching training on the easy class and the
                   unclamped cross-entropy contrast; writes one history CSV
                   per loss and prints held-out accuracy before and after
  outlier-sweep    C9: the C8 model on held-out pairs with k = 0-4 injected
                   outliers; writes outlier_sweep.csv and prints the mean
                   accuracy per k and Spearman's rho against k

Usage: python scripts/experiments.py EXPERIMENT [--out DIR]
"""

import argparse
from pathlib import Path

from scipy.stats import spearmanr

from quadmatch.bench import SWEEP_KS, evaluate_pairs, outlier_sweep, run_benchmark, sweep_to_csv
from quadmatch.errors import NumericalFailureError
from quadmatch.files import write_text
from quadmatch.losses import LossConfig
from quadmatch.refine import init_parameters
from quadmatch.synth import ambiguous_config, easy_config, gen_dataset
from quadmatch.train import TrainConfig, train

# C7
QC_SEED, QC_PAIRS = 123, 200
# C8: data seeds and sizes, then the seed of the initial parameters and the
# shuffle; every other training setting is TrainConfig's default
TRAIN_SEED, TRAIN_PAIRS = 11, 36
TEST_SEED, TEST_PAIRS = 99, 24
CE_SEED, CE_PAIRS = 11, 12
MODEL_SEED, EPOCHS = 5, 30
# C9
SWEEP_DATA_SEED, SWEEP_PAIRS = 2024, 30
SWEEP_SEED = 7


def qc_ablation_setup():
    """C7's ambiguous pairs and the untrained parameters they are matched with."""
    pairs = gen_dataset(ambiguous_config(seed=QC_SEED), QC_PAIRS)
    return pairs, init_parameters(pairs[0].a.attributes.shape[1], seed=QC_SEED)


def qc_figure(full: float, no_qc: float) -> str:
    return f"full {full:.3f} vs no-QC {no_qc:.3f} (gain {full - no_qc:+.3f})"


def trained_model():
    """C8's model, shared with C9. Returns (trained parameters, history,
    held-out accuracy before training, held-out pairs)."""
    train_pairs = gen_dataset(easy_config(seed=TRAIN_SEED), TRAIN_PAIRS)
    test_pairs = gen_dataset(easy_config(seed=TEST_SEED), TEST_PAIRS)
    params0 = init_parameters(train_pairs[0].a.attributes.shape[1], seed=MODEL_SEED)
    untrained = evaluate_pairs(test_pairs, params0, "full").mean_accuracy
    params, history = train(train_pairs, TrainConfig(epochs=EPOCHS, seed=MODEL_SEED),
                            params=params0)
    return params, history, untrained, test_pairs


def cross_entropy_contrast():
    """C8's stability contrast: unclamped cross entropy on the ambiguous class,
    which may abort with a numerical failure. Returns the outcome and the
    history of the epochs it finished."""
    cfg = TrainConfig(epochs=EPOCHS, seed=MODEL_SEED, loss="cross_entropy",
                      loss_cfg=LossConfig(clip_eps=1e-300))
    try:
        _, history = train(gen_dataset(ambiguous_config(seed=CE_SEED), CE_PAIRS), cfg)
        return f"completed ({len(history.entries)} epochs)", history
    except NumericalFailureError as exc:
        return (f"aborted at stage '{exc.stage}' after {len(exc.history.entries)} epochs",
                exc.history)


def training_figure(untrained: float, trained: float, ce_outcome: str) -> str:
    return f"held-out {untrained:.3f} -> {trained:.3f}; unclamped cross entropy {ce_outcome}"


def robustness_sweep(params):
    """C9's sweep of ``params`` over held-out easy pairs. Returns the sweep
    rows and Spearman's rho of mean accuracy against k."""
    pairs = gen_dataset(easy_config(seed=SWEEP_DATA_SEED), SWEEP_PAIRS)
    rows = outlier_sweep(pairs, params, seed=SWEEP_SEED)
    rho, _ = spearmanr(SWEEP_KS, [r["mean_accuracy"] for r in rows])
    return rows, rho


def sweep_figure(rows, rho: float) -> str:
    return f"means {['%.3f' % r['mean_accuracy'] for r in rows]}, rho {rho:.3f}"


def _write(path: Path, text: str) -> None:
    write_text(path, text)
    print(f"wrote {path}")


def run_qc_ablation(out: Path) -> None:
    report = run_benchmark(*qc_ablation_setup())
    print(qc_figure(report.row("full").mean_accuracy, report.row("no_qc").mean_accuracy))
    _write(out / "qc_ablation.csv", report.to_csv())


def run_loss_comparison(out: Path) -> None:
    params, history, untrained, test_pairs = trained_model()
    trained = evaluate_pairs(test_pairs, params, "full").mean_accuracy
    ce_outcome, ce_history = cross_entropy_contrast()
    print(training_figure(untrained, trained, ce_outcome))
    _write(out / "loss_comparison_false_matching.csv", history.to_csv())
    _write(out / "loss_comparison_cross_entropy.csv", ce_history.to_csv())


def run_outlier_sweep(out: Path) -> None:
    rows, rho = robustness_sweep(trained_model()[0])
    print(sweep_figure(rows, rho))
    _write(out / "outlier_sweep.csv", sweep_to_csv(rows))


EXPERIMENTS = {"qc-ablation": run_qc_ablation, "loss-comparison": run_loss_comparison,
               "outlier-sweep": run_outlier_sweep}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--out", default=".", help="directory for the CSVs (default: .)")
    args = ap.parse_args(argv)
    if not Path(args.out).is_dir():
        ap.error(f"--out {args.out!r} is not a directory")
    EXPERIMENTS[args.experiment](Path(args.out))


if __name__ == "__main__":
    main()
