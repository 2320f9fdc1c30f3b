"""Outlier robustness curve: train on clean pairs, evaluate with outliers.

Trains on the easy class, then sweeps the number of injected outlier nodes
(coordinates drawn far outside the keypoint frame) on held-out pairs and
writes accuracy vs outlier count as CSV.
"""

import argparse

from quadmatch.bench import outlier_sweep, sweep_to_csv
from quadmatch.files import write_text
from quadmatch.synth import OUTLIER_SIGMA, easy_config, gen_dataset
from quadmatch.train import TrainConfig, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train-pairs", type=int, default=36)
    ap.add_argument("--eval-pairs", type=int, default=30)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--kmax", type=int, default=4)
    ap.add_argument("--sigma", type=float, default=OUTLIER_SIGMA)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default="outlier_sweep.csv")
    args = ap.parse_args()

    train_pairs = gen_dataset(easy_config(seed=args.seed), args.train_pairs)
    eval_pairs = gen_dataset(easy_config(seed=args.seed + 1000), args.eval_pairs)

    params, _ = train(train_pairs, TrainConfig(epochs=args.epochs, seed=args.seed))
    rows = outlier_sweep(eval_pairs, params, ks=tuple(range(args.kmax + 1)),
                         outlier_sigma=args.sigma, seed=args.seed)
    write_text(args.out, sweep_to_csv(rows))
    for r in rows:
        print(f"k={r['k']}: accuracy {r['mean_accuracy']:.3f}  f1 {r['mean_f1']:.3f}")
    print(f"sweep written to {args.out}")


if __name__ == "__main__":
    main()
