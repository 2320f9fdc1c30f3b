"""Command-line interface: dataset synthesis, training, matching, evaluation.

Subcommands:
  synth         emit a synthetic dataset JSON
  train         dataset + config -> checkpoint + history CSV
  match         pair JSON + checkpoint -> permutation and objective
  eval          dataset + checkpoint -> four-variant report CSV (and JSON)
  bench-robust  dataset + checkpoint -> CSV of accuracy vs outlier count

synth is the one command that makes data. Config files feed synth and train
only. They are JSON with optional "synth" and "train" sections mirroring the
corresponding dataclass fields; any other top-level key is an error.
bench-robust sweeps the pairs of a dataset file at k = 0-4 injected outliers
per graph, drawn at sigma = 10 (bench.SWEEP_KS, synth.OUTLIER_SIGMA); its
--seed seeds only the outlier injection.
Inference (match, eval, bench-robust) runs at fixed solver settings: a
smooth Frank-Wolfe warm start at the settings bench.match_pair passes to
frank_wolfe_train (m1=3, m2=5, tau=1.0), then at most 10 discrete rounds of
at most 50 Hungarian steps each; the run stops once a round's rounding
repeats any earlier round's. Exit codes: 0 success, 1 invalid input or
usage, 2 numerical failure. Every output path is checked
before any input is read, and an output flag may name neither the file of
another output flag nor that of an input flag, so a run that exits 1 writes
no file and no run overwrites its input; a training run that exits 2 still
writes the history of the epochs it finished.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import ABLATIONS, match_pair, outlier_sweep, run_benchmark, sweep_to_csv
from .errors import InvalidInputError, NumericalFailureError
from .files import json_text, read_json, write_text
from .graphs import load_dataset, load_pair, save_dataset
from .losses import LossConfig
from .refine import load_parameters, save_parameters
from .synth import SynthConfig, gen_dataset
from .train import TrainConfig, train

CONFIG_SECTIONS = ("synth", "train")
INPUT_FLAGS = ("data", "pair", "checkpoint", "config")
OUTPUT_FLAGS = ("out", "history", "trace", "json")


def _check_outputs(args) -> None:
    """Reject every output path that cannot be written, and an output flag
    that names the file of another output or input flag, before any input is
    read, so that a run that exits 1 leaves no file behind and a run that
    exits 0 loses neither an output nor an input."""
    flags_by_file = {Path(path).resolve(): flag for flag in INPUT_FLAGS
                     if (path := getattr(args, flag, None)) is not None}
    for flag in OUTPUT_FLAGS:
        path = getattr(args, flag, None)
        if path is None:
            continue
        if Path(path).is_dir():
            raise InvalidInputError(f"--{flag} {path!r} is a directory")
        parent = str(Path(path).parent)
        if not Path(parent).is_dir():
            raise InvalidInputError(f"--{flag} {path!r}: directory {parent!r} does not exist")
        first = flags_by_file.setdefault(Path(path).resolve(), flag)
        if first != flag:
            raise InvalidInputError(f"--{flag} {path!r} names the same file as --{first}")


def _load_config(path) -> dict:
    if path is None:
        return {}
    obj = read_json(path)
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
            write_text(args.history, exc.history.to_csv())
        raise
    save_parameters(params, args.out)
    if args.history:
        write_text(args.history, history.to_csv())
    final = history.entries[-1]
    print(f"trained {cfg.epochs} epochs: loss {final.mean_loss:.6g}, "
          f"train acc {final.train_accuracy:.3f}")


def _cmd_match(args) -> None:
    pair = load_pair(args.pair)
    params = load_parameters(args.checkpoint)
    variant = f"no_{args.ablate}" if args.ablate else "full"
    result = match_pair(pair, params, variant)
    print(f"permutation: {result.permutation.tolist()}")
    print(f"objective: {result.objective!r}")
    print(f"accuracy: {result.accuracy!r}  f1: {result.f1!r}")
    if args.out:
        payload = {"permutation": result.permutation.tolist(), "objective": result.objective,
                   "accuracy": result.accuracy, "f1": result.f1, "variant": variant}
        write_text(args.out, json_text(payload))
    if args.trace:
        write_text(args.trace, result.trace.to_csv())


def _cmd_eval(args) -> None:
    pairs = load_dataset(args.data)
    params = load_parameters(args.checkpoint)
    report = run_benchmark(pairs, params)
    write_text(args.out, report.to_csv())
    if args.json:
        write_text(args.json, report.to_json())
    for row in report.rows:
        print(f"{row.variant:12s} acc {row.mean_accuracy:.3f}  f1 {row.mean_f1:.3f}  "
              f"failures {row.n_failures}")


def _cmd_bench_robust(args) -> None:
    pairs = load_dataset(args.data)
    params = load_parameters(args.checkpoint)
    rows = outlier_sweep(pairs, params, seed=args.seed)
    write_text(args.out, sweep_to_csv(rows))
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
    p.add_argument("--out", help="result JSON path")
    p.add_argument("--trace", help="solver trace CSV path")
    p.add_argument("--ablate", choices=ABLATIONS, default=None)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eval", help="evaluate all pipeline variants on a dataset")
    p.add_argument("--data", required=True, help="dataset JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--json", help="optional report JSON path (includes wall-clock)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench-robust", help="outlier robustness sweep over a dataset")
    p.add_argument("--data", required=True, help="dataset JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.add_argument("--seed", type=int, default=0, help="seed of the outlier injection")
    p.set_defaults(func=_cmd_bench_robust)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        _check_outputs(args)
        args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure ({exc.stage}): {exc}", file=sys.stderr)
        return 2
    # InvalidInputError is a ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
