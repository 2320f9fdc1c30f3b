"""Training-stability comparison: false-matching loss vs cross entropy.

Trains the same model twice on the easy class, once with the bounded
false-matching loss and once with (effectively) unclamped cross entropy.
Writes one history CSV per run; the cross-entropy run is allowed to abort
with a numerical failure, which is the phenomenon under study.
"""

import argparse

from quadmatch.errors import NumericalFailureError
from quadmatch.files import write_text
from quadmatch.losses import LossConfig
from quadmatch.synth import easy_config, gen_dataset
from quadmatch.train import TrainConfig, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=36)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out-prefix", default="loss_comparison")
    args = ap.parse_args()

    pairs = gen_dataset(easy_config(seed=args.seed), args.pairs)

    for tag, cfg in [
        ("false_matching", TrainConfig(epochs=args.epochs, seed=args.seed)),
        ("cross_entropy", TrainConfig(epochs=args.epochs, seed=args.seed,
                                      loss="cross_entropy",
                                      loss_cfg=LossConfig(clip_eps=1e-300))),
    ]:
        path = f"{args.out_prefix}_{tag}.csv"
        try:
            _, history = train(pairs, cfg)
            write_text(path, history.to_csv())
            final = history.entries[-1]
            print(f"{tag}: completed, final loss {final.mean_loss:.4g}, "
                  f"train acc {final.train_accuracy:.3f} -> {path}")
        except NumericalFailureError as exc:
            if exc.history is not None:
                write_text(path, exc.history.to_csv())
            done = len(exc.history.entries) if exc.history else 0
            print(f"{tag}: aborted at stage '{exc.stage}' after {done} epochs -> {path}")


if __name__ == "__main__":
    main()
