"""The traced layers: where each span is wrapped and what it reports.

Every span is installed in every traced process (the replay child and
the traced server), so a layer a workload never enters is *measured* at
zero calls rather than left out.  Span metrics are normalised per op:
one replayed event on the replay workloads, one request on the serve
workloads.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from bench.spans import Span, Tracer


def _first_row_id(args: tuple) -> object:
    rows = args[1]
    return rows[0][1] if rows else None


SPANS: Tuple[Span, ...] = (
    Span("replay.replay", "repro.replay.replayer", "Replayer.replay"),
    Span("vector.engine.run", "repro.vector.engine", "run_vector_replay"),
    Span(
        "vector.plane.next_hot",
        "repro.vector.plane",
        "TaintActivityPlane.next_hot",
    ),
    # looked up in the engine's namespace, where the engine calls it
    Span("vector.plane.batch_account", "repro.vector.engine", "batch_account"),
    Span(
        "faros.pipeline.on_event",
        "repro.faros.pipeline",
        "FarosPipeline.on_event",
    ),
    Span("dift.tracker.process", "repro.dift.tracker", "DIFTTracker.process"),
    Span(
        "core.policy.select_with_details",
        "repro.core.policy",
        "MitosPolicy.select_with_details",
    ),
    Span(
        "analysis.timeline.observer",
        "repro.analysis.timeline",
        "DecisionTimeline.observer",
    ),
    Span(
        "serve.protocol.parse_request",
        "repro.serve.server",
        "parse_request_cached",
    ),
    Span(
        "serve.shard.decide_rows",
        "repro.serve.shard",
        "DecisionShard.decide_rows",
        op_of=_first_row_id,
        units_of=lambda args: len(args[1]),
    ),
    Span(
        "vector.kernel.decide_rows_batch",
        "repro.serve.shard",
        "decide_rows_batch",
        units_of=lambda args: len(args[0]),
    ),
    Span(
        "serve.shard.apply",
        "repro.serve.shard",
        "DecisionShard.apply",
        op_of=lambda args: args[1].id,
    ),
    Span(
        "serve.protocol.encode_message",
        "repro.serve.server",
        "encode_message",
        op_of=lambda args: args[0].get("id"),
    ),
)

#: per span, the per-op statistics reported: ``calls`` (calls per op),
#: ``us`` (total microseconds per op), ``self_us`` (self microseconds
#: per op); ``per_call`` names the units-per-call ratio, if any
SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "replay.replay": ("us",),
    "vector.engine.run": ("us", "self_us"),
    "vector.plane.next_hot": ("calls", "self_us"),
    "vector.plane.batch_account": ("us",),
    "faros.pipeline.on_event": ("calls", "self_us"),
    "dift.tracker.process": ("calls", "self_us"),
    "core.policy.select_with_details": ("calls", "self_us"),
    "analysis.timeline.observer": ("calls", "self_us"),
    "serve.protocol.parse_request": ("calls", "us"),
    "serve.shard.decide_rows": ("calls", "self_us", "rows_per_call"),
    "vector.kernel.decide_rows_batch": ("calls", "us", "cands_per_call"),
    "serve.shard.apply": ("calls", "self_us"),
    "serve.protocol.encode_message": ("calls", "us"),
}


def span_metrics(
    tracer: Tracer, ops: int, missing: List[str]
) -> Dict[str, float]:
    """Per-op span statistics; a missing span's metrics are left out."""
    values: Dict[str, float] = {}
    for name, stats in SPAN_METRICS.items():
        if name in missing:
            continue
        calls = tracer.calls(name)
        for stat in stats:
            if stat == "calls":
                value = calls / ops
            elif stat == "us":
                value = tracer.total_ns(name) / 1e3 / ops
            elif stat == "self_us":
                value = tracer.self_ns(name) / 1e3 / ops
            else:  # units per call; zero calls read 0
                value = tracer.units(name) / calls if calls else 0.0
            values[f"{name}.{stat}"] = value
    return values


def missing_metrics(missing: List[str]) -> List[str]:
    """The metric names a list of missing spans accounts for."""
    return [
        f"{name}.{stat}"
        for name in missing
        for stat in SPAN_METRICS.get(name, ())
    ]
