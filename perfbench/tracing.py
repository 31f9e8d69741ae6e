"""Spans recorded from outside the program, around the calls into each layer.

The benchmark never edits program code.  Per-layer numbers come from two
instruments installed only for a traced pass:

* :func:`timed_extractor` — a timing proxy around the extractor handed to
  ``FleetPipeline`` / ``FlexibilitySession``.  It is a dynamic subclass of
  the extractor's own class, so the registry still routes it to the same
  input grid, and it times ``detect`` (disaggregation) and ``formulate`` /
  ``extract`` (extraction).  Outside a traced pass it only clocks the
  per-household latency the batch workloads report as ``ingest_*_ms``.
* :func:`installed` — patches the module attributes the pipeline, the
  session and the journal call through (``stamp_household``,
  ``ExtractionResult.summary``, ``group_offers``,
  ``aggregate_all``, ``aggregate_stream``, ``schedule_aggregates``,
  ``greedy_schedule``, ``schedule_zones``, ``encode_state``,
  ``SessionJournal.write_snapshot`` / ``append``) and restores them on
  exit.  Garbage collections are filed as ``gc`` spans, wherever they
  interrupt the program.

Spans live in memory as ``[name, layer, start, end, parent, pass, counts]``
rows and are written once, at exit, as Chrome trace-event JSON.
"""

from __future__ import annotations

import copy
import functools
import gc
import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

NAME, LAYER, START, END, PARENT, PASS, COUNTS = range(7)


class Tracer:
    """An in-memory span recorder: one row per layer call."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> list[Any]:
        """Start a span; returns its row, to hand to :meth:`close`."""
        # Allocate first: an allocation may run the garbage collector, whose
        # own span (see ``_gc_spans``) must be complete before this one's
        # index is taken.
        row = [name, layer, 0.0, 0.0, -1, self.pass_id, {}]
        row[PARENT] = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[START] = time.perf_counter()
        return row

    def close(self, row: list[Any]) -> None:
        row[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[dict[str, float]]:
        """Record one call; yields the span's counter dict."""
        row = self.open(name, layer)
        try:
            yield row[COUNTS]
        finally:
            self.close(row)

    def inside(self, layer: str) -> bool:
        """True when an enclosing open span belongs to ``layer``."""
        return any(self.spans[i][LAYER] == layer for i in self._stack)

    def add(self, counter: str, value: float) -> None:
        """Add to a counter of the innermost open span."""
        counts = self.spans[self._stack[-1]][COUNTS]
        counts[counter] = counts.get(counter, 0.0) + value

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        count: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``count`` runs on the outermost
        call of its layer only, so nested calls never count work twice."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            outermost = not self.inside(layer)
            with self.span(name, layer) as counts:
                result = fn(*args, **kwargs)
                if count is not None and outermost:
                    counts.update(count(args, kwargs, result))
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Derived numbers
    # ------------------------------------------------------------------ #

    def self_times(self) -> list[float]:
        """Each span's duration minus what its direct children cover."""
        own = [row[END] - row[START] for row in self.spans]
        for row in self.spans:
            if row[PARENT] >= 0:
                own[row[PARENT]] -= row[END] - row[START]
        return own

    def roots(self, name: str) -> list[int]:
        return [
            i for i, row in enumerate(self.spans) if row[PARENT] < 0 and row[NAME] == name
        ]

    def under(self, root: int) -> list[int]:
        """Indices of the spans below ``root`` (its descendants)."""
        inside = {root}
        found = []
        end = self.spans[root][END]
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][START] > end:
                break
            if self.spans[i][PARENT] in inside:
                inside.add(i)
                found.append(i)
        return found

    def write_chrome(self, path: Path, metadata: dict[str, Any]) -> None:
        """Write every span as a Chrome trace-event ``X`` event."""
        origin = min((row[START] for row in self.spans), default=0.0)
        pid = os.getpid()
        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
             "args": {"name": "perfbench"}},
        ]
        for index, row in enumerate(self.spans):
            events.append(
                {
                    "name": row[NAME],
                    "cat": row[LAYER],
                    "ph": "X",
                    "ts": (row[START] - origin) * 1e6,
                    "dur": (row[END] - row[START]) * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {"span": index, "parent": row[PARENT],
                             "pass": row[PASS], **row[COUNTS]},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}
            )
        )


# ---------------------------------------------------------------------- #
# The extractor proxy
# ---------------------------------------------------------------------- #

#: Extractor methods and the layer each one's span is filed under.
_EXTRACTOR_LAYERS = (
    ("detect", "disaggregation"),
    ("formulate", "extraction"),
    ("extract", "extraction"),
)


class HouseholdClock:
    """Per-household extraction latencies, plus the tracer of a traced pass.

    A household's latency runs from its first outermost extractor call to
    the end of its ``formulate`` (split pipelines call ``detect`` then
    ``formulate``) or ``extract`` (everything else).
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.tracer: Tracer | None = None
        self._depth = 0
        self._opened: float | None = None


def _timed_method(base: Callable, method: str, layer: str) -> Callable:
    def timed(self: Any, *args: Any, **kwargs: Any) -> Any:
        clock: HouseholdClock = self._household_clock
        outermost = clock._depth == 0
        t0 = time.perf_counter()
        if outermost and clock._opened is None:
            clock._opened = t0
        clock._depth += 1
        try:
            tracer = clock.tracer
            if tracer is None:
                return base(self, *args, **kwargs)
            first_of_layer = not tracer.inside(layer)
            with tracer.span(method, layer) as counts:
                result = base(self, *args, **kwargs)
                if first_of_layer:
                    if layer == "disaggregation":
                        counts["households"] = 1
                    else:
                        counts["offers"] = len(result.offers)
                return result
        finally:
            clock._depth -= 1
            if outermost and method != "detect":
                clock.latencies.append(time.perf_counter() - clock._opened)
                clock._opened = None

    timed.__name__ = method
    return timed


def timed_extractor(extractor: Any, clock: HouseholdClock) -> Any:
    """A copy of ``extractor`` whose calls report to ``clock``."""
    cls = type(extractor)
    namespace = {
        method: _timed_method(getattr(cls, method), method, layer)
        for method, layer in _EXTRACTOR_LAYERS
        if hasattr(cls, method)
    }
    proxy_cls = type(f"Timed{cls.__name__}", (cls,), namespace)
    proxy = copy.copy(extractor)
    # Extractors are frozen dataclasses: set through object.__setattr__.
    object.__setattr__(proxy, "__class__", proxy_cls)
    object.__setattr__(proxy, "_household_clock", clock)
    return proxy


# ---------------------------------------------------------------------- #
# Module-attribute wrappers
# ---------------------------------------------------------------------- #


def _offers(items: Any) -> list:
    return [getattr(item, "offer", item) for item in items]


def candidate_starts(offers: list, earliest_allowed: Any = None) -> int:
    """Feasible start instants of ``offers``, counted from the inputs."""
    total = 0
    for offer in offers:
        first = offer.earliest_start
        if earliest_allowed is not None and earliest_allowed > first:
            first = earliest_allowed
        if offer.latest_start >= first:
            total += (offer.latest_start - first) // offer.resolution + 1
    return total


def _count_schedule(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    offers = _offers(args[0])
    placed = len(result.schedules)
    return {
        "aggregates": len(offers),
        "candidate_starts": candidate_starts(offers, kwargs.get("earliest_allowed")),
        "placed": placed,
        "unplaced": len(result.unplaced),
    }


def _count_group(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"offers_in": len(args[0])}


def _count_aggregate(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"aggregates_out": len(result)}


def _traced_stream(tracer: Tracer, fn: Callable) -> Callable:
    """``aggregate_stream`` is a generator: time its full consumption."""

    @functools.wraps(fn)
    def traced(offers: Any, *args: Any, **kwargs: Any) -> Iterator:
        offers = list(offers)
        with tracer.span("aggregate_stream", "aggregation") as counts:
            aggregates = list(fn(iter(offers), *args, **kwargs))
            counts["offers_in"] = len(offers)
            counts["aggregates_out"] = len(aggregates)
        return iter(aggregates)

    return traced


def _wal_bytes(tracer: Tracer, fn: Callable) -> Callable:
    """Count the bytes each WAL append adds to the journal."""
    from repro.session.persistence import WAL_NAME

    @functools.wraps(fn)
    def counted(journal: Any, *args: Any, **kwargs: Any) -> Any:
        wal = journal.directory / WAL_NAME
        before = wal.stat().st_size
        seq = fn(journal, *args, **kwargs)
        if tracer._stack:
            tracer.add("wal_bytes", wal.stat().st_size - before)
        return seq

    return counted


def _gc_spans(tracer: Tracer) -> Callable[[str, dict], None]:
    """A ``gc.callbacks`` hook filing each collection as a ``gc`` span."""
    collecting: list[list[Any]] = []

    def hook(phase: str, info: dict) -> None:
        if phase == "start":
            collecting.append(tracer.open("collect", "gc"))
        elif collecting:
            tracer.close(collecting.pop())

    return hook


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Patch the layer entry points to record spans; restore on exit."""
    from repro.extraction.base import ExtractionResult
    from repro.session.persistence import SessionJournal

    fleet = importlib.import_module("repro.pipeline.fleet")
    state = importlib.import_module("repro.session.state")
    persistence = importlib.import_module("repro.session.persistence")
    plan = [
        # Stamping the owning household and summarising the result finish
        # a household's extraction.
        (fleet, "stamp_household", "extraction", None),
        (ExtractionResult, "summary", "extraction", None),
        (state, "stamp_household", "extraction", None),
        (fleet, "group_offers", "aggregation", _count_group),
        (fleet, "aggregate_all", "aggregation", _count_aggregate),
        (fleet, "schedule_aggregates", "scheduling", _count_schedule),
        (fleet, "greedy_schedule", "scheduling", _count_schedule),
        (fleet, "schedule_zones", "scheduling", _count_schedule),
        (state, "schedule_aggregates", "scheduling", _count_schedule),
        (state, "greedy_schedule", "scheduling", _count_schedule),
        (persistence, "encode_state", "persistence", None),
        (SessionJournal, "write_snapshot", "persistence",
         lambda args, kwargs, result: {"snapshots": 1}),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in plan]
    saved.append((state, "aggregate_stream", state.aggregate_stream))
    saved.append((SessionJournal, "append", SessionJournal.append))
    hook = _gc_spans(tracer)
    gc.callbacks.append(hook)
    try:
        for owner, attr, layer, count in plan:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), attr, layer, count))
        state.aggregate_stream = _traced_stream(tracer, state.aggregate_stream)
        SessionJournal.append = _wal_bytes(tracer, SessionJournal.append)
        yield
    finally:
        gc.callbacks.remove(hook)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
