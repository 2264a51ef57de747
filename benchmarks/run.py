"""Run one benchmark workload of fractal-tutte and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: the package is imported from the
checkout's src/ directory, never from an installed copy.  Needs only the
Python standard library.

The workload runs in a fresh Python process on one thread (see workload.py).
Before it, the same process start-up, package import and input generation
run SETUP_SAMPLES times on their own; setup_s is the median of them, each in
reference seconds (see speed.py) by the ticks timed just before and just
after it.  FRACTAL_TUTTE_THREADS is removed from the environment, so the
census always runs serially.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end-to-end metric with --trace 0, and
every per-layer metric with --trace 1.  The line before it holds the
details: the environment, the seeded inputs, the number of rounds, any
failed operation or failed check.  Both are also written to
benchmarks/out/.  The exit code is 0 whenever a result was printed.
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
sys.path.insert(0, str(HERE))
import speed  # noqa: E402

SETUP_SAMPLES = 7
SETUP_TICKS = 5
CHILD_TIMEOUT_S = 170

WORKLOADS = ("symbolic", "pointwise", "oracle", "build")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "symbolic_fractal_s": "s",
    "symbolic_flower_s": "s",
    "eval_integer_s": "s",
    "eval_rational_s": "s",
    "potts_s": "s",
    "verify_s": "s",
    "tree_count_s": "s",
    "build_s": "s",
    "edge_list_s": "s",
}


def run_child(args: argparse.Namespace, env: dict, setup_only: bool, timeout: float) -> dict:
    """Start workload.py in a fresh interpreter; the JSON it prints."""
    command = [sys.executable, "-I", "-S", str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_sample(args: argparse.Namespace, env: dict) -> float:
    """One set-up in its own process, in reference seconds."""
    before = speed.time_ticks(SETUP_TICKS)
    started = time.monotonic()
    raw = run_child(args, env, True, 60)["ready"] - started
    return raw * 2 / (before + speed.time_ticks(SETUP_TICKS))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fractal_tutte" / "__init__.py").is_file():
        print(f"no fractal_tutte package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("FRACTAL_TUTTE_THREADS", None)
    began = time.monotonic()
    try:
        setups = [setup_sample(args, env) for _ in range(SETUP_SAMPLES)]
        record = run_child(args, env, False, CHILD_TIMEOUT_S - (time.monotonic() - began))
    except subprocess.TimeoutExpired:
        print("workload process timed out", file=sys.stderr)
        return 3

    if args.trace:
        metrics = record["per_layer"]
    else:
        values = dict(record["metrics"], setup_s=statistics.median(setups),
                      peak_rss_mb=record["peak_rss_mb"])
        # A metric with no successful sample is left out and marks the run
        # incorrect; the failed operations behind it are counted as failed.
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in values}
        missing = [name for name in END_TO_END if name not in values]
        if missing:
            record["problems"].append(f"no successful sample of {', '.join(missing)}")
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    details = {key: record[key] for key in ("environment", "inputs", "rounds", "ticks",
                                            "samples", "failures", "problems")}
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, setup_samples_s=setups, spans_file=record.get("spans"))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out / name, "w", encoding="utf-8") as handle:
        json.dump({"details": details, "result": result}, handle, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
