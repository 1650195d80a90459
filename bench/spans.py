"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded around the program's public functions by replacing
them, from benchmark code only, with timing wrappers (:func:`install`).
Each span is aggregated per ``(name, parent)`` as a count, a total time,
a self time and a count of work units; self time is the span's duration
minus the durations of its child spans, which the span stack charges to
the parent as they end.  A bounded raw sample of spans per name, each
carrying the id of the operation it served, is kept for the JSONL file
written at exit.

The wrapped functions are synchronous and run on one thread, so a plain
stack is a faithful parent chain.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: raw spans kept per name for the JSONL sample
SAMPLE_CAP = 10_000


@dataclass(frozen=True)
class Span:
    """One wrap site: ``module.attribute`` traced as span ``name``."""

    name: str
    module: str
    attribute: str
    #: the op id of a root span, from the call's positional arguments
    op_of: Optional[Callable[[tuple], object]] = None
    #: work units one call handled (rows, candidates), from its arguments
    units_of: Optional[Callable[[tuple], int]] = None


class Tracer:
    """Span stack plus per-(name, parent) aggregates."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        sample_cap: int = SAMPLE_CAP,
    ):
        self.clock = clock
        self.sample_cap = sample_cap
        #: open spans, innermost last: [name, child_ns, op]
        self.stack: List[list] = []
        #: (name, parent) -> [count, total_ns, self_ns, units]
        self.aggregates: Dict[Tuple[str, Optional[str]], List[int]] = {}
        self.samples: Dict[str, List[dict]] = {}
        #: op id for root spans whose site names none
        self.op: object = None

    def wrap(self, fn: Callable, span: Span) -> Callable:
        """``fn`` timed as ``span``."""
        stack = self.stack
        clock = self.clock
        name = span.name
        op_of = span.op_of
        units_of = span.units_of

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                op = parent[2]
            elif op_of is not None:
                op = op_of(args)
            else:
                op = self.op
            frame = [name, 0, op]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                self._record(
                    name,
                    parent[0] if parent is not None else None,
                    start,
                    duration,
                    duration - frame[1],
                    units_of(args) if units_of is not None else 0,
                    op,
                )

        return traced

    def _record(
        self,
        name: str,
        parent: Optional[str],
        start: int,
        duration: int,
        self_ns: int,
        units: int,
        op: object,
    ) -> None:
        entry = self.aggregates.get((name, parent))
        if entry is None:
            entry = self.aggregates[(name, parent)] = [0, 0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_ns
        entry[3] += units
        sample = self.samples.setdefault(name, [])
        if len(sample) < self.sample_cap:
            sample.append(
                {
                    "name": name,
                    "parent": parent,
                    "start_ns": start,
                    "duration_ns": duration,
                    "self_ns": self_ns,
                    "op": op,
                }
            )

    # -- reading the aggregates -------------------------------------------

    def _sum(self, name: str, column: int) -> int:
        return sum(
            values[column]
            for (span, _), values in self.aggregates.items()
            if span == name
        )

    def calls(self, name: str) -> int:
        return self._sum(name, 0)

    def total_ns(self, name: str) -> int:
        return self._sum(name, 1)

    def self_ns(self, name: str) -> int:
        return self._sum(name, 2)

    def units(self, name: str) -> int:
        return self._sum(name, 3)

    def root_total_ns(self) -> int:
        """Time covered by spans with no parent."""
        return sum(
            values[1]
            for (_, parent), values in self.aggregates.items()
            if parent is None
        )

    def export(self) -> dict:
        return {
            "aggregates": [
                [name, parent, *values]
                for (name, parent), values in self.aggregates.items()
            ],
            "samples": self.samples,
        }

    @classmethod
    def from_export(cls, payload: dict) -> "Tracer":
        tracer = cls()
        for name, parent, *values in payload["aggregates"]:
            tracer.aggregates[(name, parent)] = values
        tracer.samples = payload["samples"]
        return tracer


def install(tracer: Tracer, spans: Iterable[Span]) -> List[str]:
    """Wrap every site in place; returns the span names not found.

    A site whose module or attribute no longer exists is reported by
    name, so the caller prints it as ``missing`` rather than as zero.
    """
    missing: List[str] = []
    for span in spans:
        try:
            owner = importlib.import_module(span.module)
            *path, leaf = span.attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(span.name)
            continue
        setattr(owner, leaf, tracer.wrap(original, span))
    return missing


def write_samples(path: Path, samples: Dict[str, List[dict]]) -> None:
    """Append a raw span sample as JSONL."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        for records in samples.values():
            for record in records:
                handle.write(json.dumps(record, default=str) + "\n")
