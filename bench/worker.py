"""One workload run in its own process: ``python -m bench.worker``.

Started by ``bench/run.py``.  Prints every metric by name with its unit
and every check, then, as the last line, the run's result as one JSON
object.  Exits 1 when a check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from bench import replay, serve
from bench.common import load_spec
from bench.layers import missing_metrics
from bench.spans import write_samples

WORKLOADS = {
    "replay-vector": replay.run_vector,
    "replay-sweep": replay.run_sweep,
    "serve-explicit": functools.partial(serve.run, "serve-explicit"),
    "serve-stateful": functools.partial(serve.run, "serve-stateful"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    outcome, tracer = WORKLOADS[args.workload](args.seed, args.seconds, args.trace)

    missing = missing_metrics(outcome.missing)
    expected = {m["name"] for m in declared} - set(missing)
    if args.trace:
        # a layer this workload never runs (a server step in a replay
        # workload, a sweep share outside the sweep) reads 0
        for name in expected - set(outcome.metrics):
            outcome.metrics[name] = 0.0
    if set(outcome.metrics) != expected:
        raise RuntimeError(
            f"{args.workload} measured {sorted(set(outcome.metrics) ^ expected)} "
            "against the BENCHMARK.json declaration"
        )
    tag = f"[{args.workload}]"
    for metric in declared:
        name = metric["name"]
        if name in missing:
            print(f"{tag} {name:<46} missing")
        else:
            print(f"{tag} {name:<46} {outcome.metrics[name]:>16.6f} {metric['unit']}")
    for phase, facts in outcome.phases.items():
        described = ", ".join(f"{k}={v:g}" for k, v in facts.items())
        print(f"{tag} phase {phase}: {described}")
    for name, passed, detail in outcome.checks:
        status = "ok" if passed else "FAILED"
        print(f"{tag} check {status}: {name}" + (f" ({detail})" if detail else ""))
    if tracer is not None and args.samples is not None:
        write_samples(args.samples, tracer.samples)

    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] not in missing
        },
        "phases": outcome.phases,
        "missing": missing,
        "checks": [list(check) for check in outcome.checks],
    }
    if tracer is not None:
        # [name, parent, count, total ns, self ns, units] per span edge
        result["spans"] = tracer.export()["aggregates"]
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
