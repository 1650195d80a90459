"""The offline workloads: ``replay-vector`` and ``replay-sweep``.

Both replay the seed's full network-benchmark recording (the paper's
PassMark run, §V).  ``replay-vector`` runs the columnar engine, whose
inert-event skip does most of the work; ``replay-sweep`` is the paper
reproduction path, the scalar engine with the decision timeline on at
three values of tau, where every indirect flow calls the policy once.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import fig7
from repro.experiments.common import experiment_params, network_recording
from repro.faros import FarosSystem, mitos_config
from repro.vector.encode import encode_recording
from repro.workloads.network import NetworkBenchmark

from bench.common import (
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    set_up,
    timed,
)
from bench.layers import SPANS, span_metrics
from bench.spans import Tracer, install

_DIFT_COUNTS = ("ifp_candidates", "ifp_propagated", "propagation_ops", "drops")
_TAU_NAMES = {1.0: "tau_1", 0.1: "tau_0.1", 0.01: "tau_0.01"}


def _repeat(
    run_once: Callable[[], bool], seconds: float, tracer: Optional[Tracer] = None
) -> Tuple[List[float], int]:
    """Run until ``seconds`` of wall have passed (at least once).

    Returns each run's duration and how many runs failed their check.
    """
    durations: List[float] = []
    failures = 0
    started = time.perf_counter()
    while not durations or time.perf_counter() - started < seconds:
        if tracer is not None:
            tracer.op = len(durations)
        ok, duration = timed(run_once)
        durations.append(duration)
        failures += not ok
    return durations, failures


def _measure(
    outcome: Outcome,
    run_once: Callable[[], bool],
    check: str,
    ops_per_run: int,
    setup: Dict[str, float],
    seconds: float,
    trace: bool,
) -> Optional[Tracer]:
    """Timed runs of ``run_once``, each checked; fills the metrics.

    A traced run spends half of ``seconds`` untraced, then installs the
    spans and spends the other half traced; the throughput of the two
    halves' median runs gives the tracing overhead.  The memory peak is
    that of the untraced timed runs alone.
    """
    share = 0.5 if trace else 1.0
    reset_peak_rss()
    durations, failures = _repeat(run_once, seconds * share)
    peak_rss = peak_rss_mb()
    outcome.attempted += len(durations)
    outcome.failed += failures
    outcome.check(check, not failures, f"{len(durations) - failures}/{len(durations)} equal")
    # the tail is recorded, not gated: the host's slower stretches set it
    outcome.phases["timed"] = {
        "seconds": sum(durations), "runs": len(durations), "events_per_run": ops_per_run,
        "p90_run_us": percentile(durations, 90) * 1e6,
    }
    # the rate of the median run: the shared host slows down by 20-40 %
    # for stretches of 0.25-1 s, which the runs they hit must not set
    untraced_rate = ops_per_run / median(durations)
    if not trace:
        outcome.metrics.update(
            {
                "setup_s": setup["setup_s"],
                "throughput_per_s": untraced_rate,
                # the whole timed phase is the one window
                "latency_p50_median_window_us": median(durations) * 1e6,
                "peak_rss_mb": peak_rss,
            }
        )
        return None
    outcome.metrics.update({k: v for k, v in setup.items() if k != "setup_s"})
    tracer = Tracer()
    outcome.missing = install(tracer, SPANS)
    durations, failures = _repeat(run_once, seconds * share, tracer)
    outcome.attempted += len(durations)
    outcome.failed += failures
    outcome.check(f"{check}, traced", not failures, f"{failures} failed")
    outcome.phases["traced"] = {"seconds": sum(durations), "runs": len(durations)}
    ops = ops_per_run * len(durations)
    outcome.metrics.update(span_metrics(tracer, ops, outcome.missing))
    outcome.metrics["replay.unattributed_us"] = (
        (sum(durations) * 1e9 - tracer.root_total_ns()) / 1e3 / ops
    )
    outcome.metrics["trace.overhead_share"] = (
        1.0 - ops_per_run / median(durations) / untraced_rate
    )
    return tracer


def run_vector(
    seed: int, seconds: float, trace: bool
) -> Tuple[Outcome, Optional[Tracer]]:
    """``replay-vector``: timed columnar replays of the full recording."""
    outcome = Outcome()

    def build():
        recording, record_s = timed(NetworkBenchmark(seed=seed).record)
        _, encode_s = timed(lambda: encode_recording(recording, False))
        return recording, {"workloads.record_s": record_s, "vector.encode.s": encode_s}

    recording, setup = set_up(build)
    events = len(recording)

    # the reference: one scalar-engine replay of the same recording
    scalar = FarosSystem(mitos_config(experiment_params()))
    scalar.replay(recording)
    reference = scalar.tracker.stats.to_payload()
    del scalar

    system = FarosSystem(mitos_config(experiment_params(), engine="vector"))

    def run_once() -> bool:
        system.replay(recording)
        return system.tracker.stats.to_payload() == reference

    outcome.attempted = 1
    outcome.check("warm-up replay equals the scalar reference", run_once())
    tracer = _measure(
        outcome,
        run_once,
        "every timed replay's stats equal the scalar reference",
        events,
        setup,
        seconds,
        trace,
    )
    if tracer is None:
        return outcome, None
    if "vector.plane.next_hot" not in outcome.missing:
        # one next_hot call per hot event, plus the one that finds none
        runs = outcome.phases["traced"]["runs"]
        hot = tracer.calls("vector.plane.next_hot") / runs - 1
        outcome.metrics["vector.plane.cold_share"] = (events - hot) / events
    for name in _DIFT_COUNTS:
        outcome.metrics[f"dift.{name}"] = float(reference[name])
    return outcome, tracer


def run_sweep(
    seed: int, seconds: float, trace: bool
) -> Tuple[Outcome, Optional[Tracer]]:
    """``replay-sweep``: timed Fig. 7 sweeps (three scalar replays each)."""
    outcome = Outcome()

    def build():
        # fig7 reads the recording through this cache; the last set-up
        # is the one it replays
        network_recording.cache_clear()
        recording, record_s = timed(lambda: network_recording(seed=seed, quick=False))
        return recording, {"workloads.record_s": record_s}

    recording, setup = set_up(build)
    events = len(recording)

    # the reference counts at tau = 1: one columnar replay
    vector = FarosSystem(mitos_config(experiment_params(), engine="vector"))
    vector.replay(recording)
    reference = vector.tracker.stats.to_payload()
    del vector

    outcome.attempted = 1
    first = fig7.run(seed=seed, jobs=1)
    counts = {
        tau: (run.decisions, run.propagated) for tau, run in first.runs.items()
    }
    at_one = counts[1.0]
    outcome.check(
        "tau=1 decisions/propagated equal the columnar replay's "
        "ifp_candidates/ifp_propagated",
        at_one == (reference["ifp_candidates"], reference["ifp_propagated"]),
        f"{at_one} vs ({reference['ifp_candidates']}, "
        f"{reference['ifp_propagated']})",
    )
    outcome.check(
        "propagation rate increases as tau drops",
        first.rate_increases_as_tau_drops(),
    )

    def run_once() -> bool:
        result = fig7.run(seed=seed, jobs=1)
        return {
            tau: (run.decisions, run.propagated)
            for tau, run in result.runs.items()
        } == counts

    tracer = _measure(
        outcome,
        run_once,
        "every timed sweep repeats the warm-up sweep's counts",
        events * len(counts),
        setup,
        seconds,
        trace,
    )
    if tracer is None:
        return outcome, None
    for tau, name in _TAU_NAMES.items():
        decisions, propagated = counts[tau]
        outcome.metrics[f"core.policy.propagate_share.{name}"] = (
            propagated / decisions
        )
    return outcome, tracer
