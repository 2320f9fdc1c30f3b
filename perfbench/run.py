"""quadmatch benchmark launcher.

    python3 perfbench/run.py --workload infer-ambiguous --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Untraced (``--trace 0``), it prints the
end-to-end metrics; traced (``--trace 1``), the per-layer metrics. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full result, with the environment and answer digest,
goes to ``perfbench/results/``. ``--workload all`` runs every workload in
turn and prints one summary line per workload. The exit code is 0 only when
every answer check held.

This process imports nothing from numpy or quadmatch: it caps the BLAS
threads of the workload processes it starts (the variables must be set
before numpy loads) and takes ``setup_s`` as the median over three
set-ups, two in set-up-only processes and one in the measured process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 175.0
SETUP_RUNS = 2
# One BLAS thread: every workload has one caller and multiplies matrices of
# at most 24 x 24, too small for BLAS threads to help.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> tuple[int, list[str], str]:
    """Run workloads.py to completion; (exit code, stdout lines, stderr)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def expected_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(workload: str, seed: int, seconds: float, trace: int, start: float) -> dict | None:
    """One workload run; the result dict, or None when a process failed."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS):
            code, lines, err = run_worker(base + ["--setup-only"], RUN_LIMIT_S - (time.perf_counter() - start))
            if code != 0 or not lines:
                print(f"{workload}: set-up process failed (exit {code})\n{err}", file=sys.stderr)
                return None
            setups.append(json.loads(lines[-1])["setup_s"])
    code, lines, err = run_worker(base, RUN_LIMIT_S - (time.perf_counter() - start))
    if not lines or not lines[-1].startswith("{"):
        print(f"{workload}: workload process failed (exit {code})\n{err}", file=sys.stderr)
        return None
    out = json.loads(lines[-1])
    if "metrics" not in out:
        print(f"{workload}: no metrics; problems: {out.get('problems')}", file=sys.stderr)
        return None
    if not trace:
        setups.append(out["setup_s"])
        out["metrics"]["setup_s"] = (statistics.median(setups), "s")
        out["setup_runs_s"] = setups
    names = expected_metrics(trace)
    missing = set(names) - set(out["metrics"])
    if missing:
        print(f"{workload}: metrics missing from the run: {sorted(missing)}", file=sys.stderr)
        return None
    out["metrics"] = {k: {"value": out["metrics"][k][0], "unit": out["metrics"][k][1]} for k in names}

    env = out["environment"]
    print(f"# {workload} seed={seed} trace={trace} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas_threads={env['blas_threads_cap']} "
          f"blas={env['blas']}")
    for name, (value, unit) in out.get("named", {}).items():
        print(f"{workload}  {name} = {fmt(value)} {unit}".rstrip())
    kind = "per-layer" if trace else "end-to-end"
    for name, m in out["metrics"].items():
        print(f"{workload}  [{kind}] {name} = {fmt(m['value'])} {m['unit']}")
    print(f"{workload}  answer_digest = {out['digest']}  attempted = {out['attempted']}  "
          f"failed = {out['failed']}  correct = {out['correct']}")
    for p in out["problems"]:
        print(f"{workload}  CHECK FAILED: {p}")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True))
    return out


def main(argv=None) -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description="quadmatch benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "quadmatch" / "__init__.py").is_file():
        print(f"no quadmatch sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    workloads = json.loads((HERE / "design.json").read_text())["workloads"]
    chosen = list(workloads) if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(workloads):
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)} or all",
              file=sys.stderr)
        return 2

    results = []
    for w in chosen:
        try:
            out = run_one(w, args.seed, args.seconds, args.trace,
                          start if len(chosen) == 1 else time.perf_counter())
        except subprocess.TimeoutExpired:
            print(f"{w}: run exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr)
            out = None
        if out is None:
            return 1
        results.append(out)
    for out in results:
        print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(out["correct"] for out in results) else 1


if __name__ == "__main__":
    sys.exit(main())
