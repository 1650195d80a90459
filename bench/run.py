"""The repository benchmark.

    python3 bench/run.py [--workload W] [--seed S] [--trace [0|1]] [--out DIR]

Run from the repository root.  Each workload runs in its own child
process (``python -m bench.worker``), which builds its inputs from the
seed, measures for ``run_seconds`` of ``BENCHMARK.json`` (``--seconds``
is accepted only with that value), checks every output, and prints every
metric by name with its unit.  ``--trace 1`` reports the per-layer
metrics instead of the end-to-end ones.  With ``--out`` every workload
run also writes a JSON record (environment, seed, phases, sample counts,
metrics, checks) there, plus the raw span sample of a traced run.

The last line printed is the result as one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with several
workloads the metric names are prefixed ``<workload>/``.  The exit code
is 0 only when every workload ran and every check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.common import ROOT, child_env, load_spec  # noqa: E402

#: a child that exceeds this is killed and the run fails
CHILD_TIMEOUT_S = 170


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        sha = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "loadavg": list(os.getloadavg()),
    }


def run_workload(workload: str, args, samples) -> Optional[dict]:
    """Run one workload child; returns its result (``None`` if it broke)."""
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if samples is not None:
        command += ["--samples", str(samples)]
    try:
        child = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"[{workload}] timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = child.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print(lines[-1], flush=True)
        result = None
    if result is None:
        print(f"[{workload}] exited {child.returncode} without a result", file=sys.stderr)
    return result


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 bench/run.py")
    parser.add_argument("--workload", choices=workloads, default=None,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload run; only "
                        "BENCHMARK.json's run_seconds is accepted")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for run records")
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        # every run measures equally long, so any two records compare
        parser.error(f"--seconds must be run_seconds ({spec['run_seconds']})")

    selected = [args.workload] if args.workload else workloads
    results = {}
    for workload in selected:
        stem = f"{workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
        samples = None
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            if args.trace:
                samples = args.out / f"{stem}.spans.jsonl"
        env = environment()
        started = time.perf_counter()
        result = run_workload(workload, args, samples)
        if result is None:
            return 2
        results[workload] = result
        if args.out is not None:
            record = {
                "workload": workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "wall_s": time.perf_counter() - started,
                "environment": env,
                **result,
            }
            (args.out / f"{stem}.json").write_text(
                json.dumps(record, indent=1) + "\n", encoding="utf-8"
            )

    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {
            f"{workload}/{name}": value
            for workload, result in results.items()
            for name, value in result["metrics"].items()
        }
    correct = all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
