"""Command-line interface: dataset synthesis, training, matching, evaluation.

Subcommands:
  synth         emit a synthetic dataset JSON
  train         dataset + config -> checkpoint + history CSV
  match         pair JSON + checkpoint -> permutation and objective
  eval          dataset + checkpoint -> four-variant report CSV (and JSON)
  bench-robust  outlier sweep -> CSV of accuracy vs outlier count

Config files are JSON with optional "synth" and "train" sections mirroring
the corresponding dataclass fields; any other top-level key is an error.
Inference (match, eval, bench-robust) runs at fixed solver settings: a
smooth Frank-Wolfe warm start at m1=3, m2=5, tau=1.0, then at most 10
discrete rounds of at most 50 Hungarian steps each; the run stops on a
repeated rounding. Exit codes: 0 success, 1 invalid input or usage, 2
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import match_pair, outlier_sweep, run_benchmark, sweep_to_csv
from .errors import InvalidInputError, NumericalFailureError
from .graphs import load_dataset, load_pair, save_dataset
from .losses import LossConfig
from .refine import load_parameters, save_parameters
from .synth import SynthConfig, gen_dataset
from .train import TrainConfig, train

CONFIG_SECTIONS = ("synth", "train")


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidInputError("config file must contain a JSON object")
    unknown = sorted(set(obj) - set(CONFIG_SECTIONS))
    if unknown:
        raise InvalidInputError(f"unknown config sections {unknown}; "
                                f"allowed: {list(CONFIG_SECTIONS)}")
    for name, section in obj.items():
        if not isinstance(section, dict):
            raise InvalidInputError(f"config section {name!r} must be a JSON object")
    return obj


def _synth_config(cfg: dict, seed: int | None) -> SynthConfig:
    section = dict(cfg.get("synth", {}))
    if seed is not None:
        section["seed"] = seed
    try:
        return SynthConfig(**section)
    except TypeError as exc:
        raise InvalidInputError(f"bad synth config: {exc}") from exc


def _train_config(cfg: dict, seed: int | None) -> TrainConfig:
    section = dict(cfg.get("train", {}))
    loss_keys = {k: section.pop(k) for k in ("alpha", "beta", "clip_eps") if k in section}
    if seed is not None:
        section["seed"] = seed
    try:
        return TrainConfig(loss_cfg=LossConfig(**loss_keys), **section)
    except TypeError as exc:
        raise InvalidInputError(f"bad train config: {exc}") from exc


def _cmd_synth(args) -> None:
    cfg = _synth_config(_load_config(args.config), args.seed)
    pairs = gen_dataset(cfg, args.n_pairs)
    save_dataset(pairs, args.out)
    print(f"wrote {len(pairs)} pairs to {args.out}")


def _cmd_train(args) -> None:
    cfg = _train_config(_load_config(args.config), args.seed)
    pairs = load_dataset(args.data)
    try:
        params, history = train(pairs, cfg)
    except NumericalFailureError as exc:
        if exc.history is not None and args.history:
            exc.history.write_csv(args.history)
        raise
    save_parameters(params, args.out)
    if args.history:
        history.write_csv(args.history)
    final = history.entries[-1]
    print(f"trained {cfg.epochs} epochs: loss {final.mean_loss:.6g}, "
          f"train acc {final.train_accuracy:.3f}")


def _cmd_match(args) -> None:
    pair = load_pair(args.pair)
    params = load_parameters(args.checkpoint)
    variant = {"qc": "no_qc", "pairwise": "no_pairwise", "prior": "no_prior", None: "full"}[args.ablate]
    _load_config(args.config)
    result = match_pair(pair, params, variant)
    print(f"permutation: {result.permutation.tolist()}")
    print(f"objective: {result.objective!r}")
    print(f"accuracy: {result.accuracy!r}  f1: {result.f1!r}")
    if args.out:
        payload = {"permutation": result.permutation.tolist(), "objective": result.objective,
                   "accuracy": result.accuracy, "f1": result.f1, "variant": variant}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    if args.trace:
        result.trace.write_csv(args.trace)


def _cmd_eval(args) -> None:
    pairs = load_dataset(args.data)
    params = load_parameters(args.checkpoint)
    _load_config(args.config)
    report = run_benchmark(pairs, params)
    report.write_csv(args.out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    for row in report.rows:
        print(f"{row.variant:12s} acc {row.mean_accuracy:.3f}  f1 {row.mean_f1:.3f}  "
              f"failures {row.n_failures}")


def _cmd_bench_robust(args) -> None:
    synth_cfg = _synth_config(_load_config(args.config), args.seed)
    params = load_parameters(args.checkpoint)
    pairs = gen_dataset(synth_cfg, args.n_pairs)
    rows = outlier_sweep(pairs, params, ks=tuple(range(args.kmax + 1)),
                         outlier_sigma=args.sigma, seed=synth_cfg.seed)
    csv = sweep_to_csv(rows)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv)
    for r in rows:
        print(f"k={r['k']}: acc {r['mean_accuracy']:.3f}  f1 {r['mean_f1']:.3f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadmatch",
                                     description="Graph matching under quadratic structural constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", help="JSON config with a 'synth' section")
    p.add_argument("--out", required=True, help="output dataset JSON path")
    p.add_argument("--n-pairs", type=int, default=32)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train parameters on a dataset")
    p.add_argument("--data", required=True, help="dataset JSON")
    p.add_argument("--config", help="JSON config with a 'train' section")
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--history", help="history CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("match", help="match a single pair")
    p.add_argument("--pair", required=True, help="pair JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="JSON config (checked; no section applies here)")
    p.add_argument("--out", help="result JSON path")
    p.add_argument("--trace", help="solver trace CSV path")
    p.add_argument("--ablate", choices=["qc", "pairwise", "prior"], default=None)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eval", help="evaluate all pipeline variants on a dataset")
    p.add_argument("--data", required=True, help="dataset JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="JSON config (checked; no section applies here)")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--json", help="optional report JSON path (includes wall-clock)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench-robust", help="outlier robustness sweep")
    p.add_argument("--config", help="JSON config with a 'synth' section")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--n-pairs", type=int, default=32)
    p.add_argument("--sigma", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_bench_robust)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure ({exc.stage}): {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
