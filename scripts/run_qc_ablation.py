"""Reproduce the structural-constraint benefit on the ambiguous class.

Generates pairs whose feature prototypes are duplicated and whose partner
graph is rotated, so neither features nor the coordinate prior can separate
group members; only the Delaunay structure can. Reports all four pipeline
variants and writes the report CSV.
"""

import argparse

from quadmatch.bench import run_benchmark
from quadmatch.files import write_text
from quadmatch.refine import init_parameters
from quadmatch.synth import ambiguous_config, gen_dataset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=123)
    ap.add_argument("--out", default="qc_ablation.csv")
    args = ap.parse_args()

    cfg = ambiguous_config(seed=args.seed)
    pairs = gen_dataset(cfg, args.pairs)
    params = init_parameters(cfg.d + 2, seed=args.seed)

    report = run_benchmark(pairs, params)
    write_text(args.out, report.to_csv())
    print(f"{args.pairs} pairs, n={cfg.n_inliers}, {cfg.classes} prototypes")
    for row in report.rows:
        print(f"  {row.variant:12s} accuracy {row.mean_accuracy:.3f}  f1 {row.mean_f1:.3f}")
    gap = report.row("full").mean_accuracy - report.row("no_qc").mean_accuracy
    print(f"structural-constraint gain: {gap:+.3f}")
    print(f"report written to {args.out}")


if __name__ == "__main__":
    main()
