"""Per-layer metrics and the per-event stage table, from a traced run.

Inputs: the server's spans and counters (``tracing.Tracer.dump``), the
server's exit report, the generator's own spans, and the generator's
per-event and per-notification timestamps (``loadgen.LoadRun``).

Which phase a number is taken over follows what it is meant to explain:

* latency stages and ingress batching — the **paced** phase, where
  ``delivery_p50_ms``/``delivery_p95_ms`` are measured;
* costs per event, frame or delivery — the **saturated** phase, where
  ``server_cpu_ms_per_event`` and ``saturated_events_per_s`` are;
* exact ``MatchStatistics`` counts — the paced phase, whose event list
  is fixed by the seed, so they repeat exactly on churn-free workloads;
* churn costs — the churn phase (``churn_prune``: the paced phase);
* adaptive counters, frame counts, table sizes — the whole run.

A span's self time is its duration minus its children's.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

Window = Tuple[int, int]

#: The per-event path, in order; stage values telescope, so per
#: notification they sum exactly to due time -> ``on_event``.
STAGES = (
    "generator.send_lag",
    "transport.ingest",
    "service.ingress_wait",
    "routing+matching",
    "service.dispatch",
    "service.queue_wait",
    "transport.egress",
    "transport.wire",
)

def _only_waits(span: "Span") -> bool:
    """Spans that measure waiting, not work: a ``queue.get``, and a flush
    that drained nothing (it queued for the drain lock behind another)."""
    return span.name == "service.queue_get" or (
        span.name == "service.ingress_flush" and span.events == 0
    )


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "batch", "events", "tags")

    def __init__(self, record: Sequence[Any]) -> None:
        (self.id, self.name, self.start, self.end,
         self.parent, self.batch, self.events, self.tags) = record

    @property
    def duration(self) -> int:
        return self.end - self.start


class Trace:
    """Spans indexed the ways the metrics below need them."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.spans = [Span(record) for record in payload["spans"]]
        self.counters: Dict[str, int] = payload["counters"]
        self.by_id = {span.id: span for span in self.spans}
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        children: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                children[span.parent] += span.duration
        self._children = children

    def self_ns(self, span: Span) -> int:
        return max(0, span.duration - self._children.get(span.id, 0))

    def named(self, name: str, window: Optional[Window] = None) -> List[Span]:
        spans = self.by_name.get(name, [])
        if window is None:
            return spans
        return [span for span in spans if window[0] <= span.start < window[1]]

    def under(self, span: Span, ancestor_name: str) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = self.by_id.get(parent)
            if ancestor is None:
                return False
            if ancestor.name == ancestor_name:
                return True
            parent = ancestor.parent
        return False


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_of(values: Iterable[float]) -> float:
    """The median, or 0.0 of nothing (a phase the workload does not have)."""
    values = list(values)
    return median(values) if values else 0.0


def _total(spans: Iterable[Span]) -> int:
    return sum(span.duration for span in spans)


def stage_samples(trace: Trace, run: Any) -> Dict[str, List[float]]:
    """Per paced notification, the milliseconds spent in each stage."""
    first, last = run.ranges["paced"]
    submit = {s.tags[0]: s.start for s in trace.named("service.ingress_submit")}
    publish_start: Dict[int, int] = {}
    batch_of: Dict[int, int] = {}
    for span in trace.named("routing.publish_batch"):
        publish_start[span.batch] = span.start
        for eid in span.tags:
            batch_of[eid] = span.batch
    hook_start = {s.batch: s.start for s in trace.named("service.delivery_hook")}
    put = {s.tags[0]: s.start for s in trace.named("service.queue_put")}
    got = {s.tags[0]: s.end for s in trace.named("service.queue_get")}
    encoded = {
        s.tags[0]: s.end for s in trace.named("transport.encode_frame") if s.tags
    }
    samples: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    for sequence, eid, _subscription, arrived in run.received:
        if not first <= eid < last:
            continue
        batch = batch_of.get(eid)
        marks = (
            run.due_ns[eid],
            run.sent_ns[eid],
            submit.get(eid),
            publish_start.get(batch),
            hook_start.get(batch),
            put.get(sequence),
            got.get(sequence),
            encoded.get(sequence),
            arrived,
        )
        if any(mark is None for mark in marks):
            continue  # recorded before tracing was on, or a lost span
        for stage, before, after in zip(STAGES, marks, marks[1:]):
            samples[stage].append((after - before) / 1e6)
    return samples


def busy_shares(trace: Trace, run: Any) -> Dict[str, float]:
    """Share of the server's CPU over the saturated phase that each
    layer's own code accounts for (self time of its spans ÷ the CPU the
    process used); ``untraced`` is the rest — the event loop, sockets,
    thread hand-offs and the handlers around the wrapped calls.

    Spans that only wait are left out.
    """
    (began, cpu_began), (ended, cpu_ended) = (
        run.saturated_marks[0], run.saturated_marks[-1],
    )
    by_layer: Dict[str, int] = defaultdict(int)
    for span in trace.spans:
        if not began <= span.start < ended or _only_waits(span):
            continue
        by_layer[span.name.split(".", 1)[0]] += trace.self_ns(span)
    cpu_ns = (cpu_ended - cpu_began) * 1e9
    shares = {layer: _ratio(busy, cpu_ns) for layer, busy in sorted(by_layer.items())}
    shares["untraced"] = 1.0 - sum(shares.values())
    return shares


def per_layer_metrics(
    trace: Trace,
    client_trace: Trace,
    report: Dict[str, Any],
    run: Any,
    stages: Dict[str, List[float]],
) -> Dict[str, float]:
    """Every ``per_layer`` metric of ``BENCHMARK.json`` except the
    ``generator.*`` and ``trace.*`` ones the caller adds."""
    paced = run.windows["paced"]
    saturated = run.windows["saturated"]
    churn = run.windows.get("churn", paced)
    paced_events = run.ranges["paced"][1] - run.ranges["paced"][0]
    published = report["published"]
    metrics: Dict[str, float] = {}

    # -- transport -----------------------------------------------------------
    feeds = trace.named("transport.feed", saturated)
    encodes = trace.named("transport.encode_frame", saturated)
    client_feeds = client_trace.named("transport.client_feed", saturated)
    metrics["transport.decode_us_per_frame"] = _ratio(
        _total(feeds) / 1e3, sum(span.events for span in feeds)
    )
    metrics["transport.encode_us_per_frame"] = _ratio(_total(encodes) / 1e3, len(encodes))
    metrics["transport.frames_in"] = sum(s.events for s in trace.named("transport.feed"))
    metrics["transport.frames_out"] = len(trace.named("transport.encode_frame"))
    metrics["transport.bytes_out_per_event"] = _ratio(
        trace.counters.get("transport.bytes_out", 0), published
    )
    metrics["transport.ingest_ms"] = median_of(stages["transport.ingest"])
    metrics["transport.egress_ms"] = median_of(stages["transport.egress"])
    metrics["transport.wire_ms"] = median_of(stages["transport.wire"])
    metrics["transport.client_decode_us_per_frame"] = _ratio(
        _total(client_feeds) / 1e3, sum(span.events for span in client_feeds)
    )

    # -- service -------------------------------------------------------------
    paced_batches = trace.named("routing.publish_batch", paced)
    hooks = trace.named("service.delivery_hook", saturated)
    deliveries = sum(span.tags[0] for span in hooks)
    saturated_batches = trace.named("routing.publish_batch", saturated)
    saturated_events = sum(span.events for span in saturated_batches)
    metrics["service.ingress_wait_ms"] = median_of(stages["service.ingress_wait"])
    metrics["service.batch_events_mean"] = _ratio(
        sum(span.events for span in paced_batches), len(paced_batches)
    )
    metrics["service.flushes"] = len(paced_batches)
    metrics["service.dispatch_us_per_delivery"] = _ratio(
        sum(trace.self_ns(span) for span in hooks) / 1e3, deliveries
    )
    metrics["service.deliveries_per_event"] = _ratio(deliveries, saturated_events)
    metrics["service.queue_wait_ms"] = median_of(stages["service.queue_wait"])
    metrics["service.queue_depth_max"] = report["queue_high_water"]
    metrics["service.dead_letters"] = report["dead_letters"]
    metrics["service.churn_call_ms"] = median_of(
        span.duration / 1e6 for span in trace.named("service.handle_replace", churn)
    )

    # -- routing -------------------------------------------------------------
    routes = trace.named("routing.route_batch", saturated)
    floods = trace.named("routing.replace_subscription", churn)
    metrics["routing.publish_self_ms_per_event"] = _ratio(
        sum(trace.self_ns(span) for span in saturated_batches) / 1e6, saturated_events
    )
    metrics["routing.group_self_us_per_event"] = _ratio(
        sum(trace.self_ns(span) for span in routes) / 1e3, saturated_events
    )
    metrics["routing.brokers_visited_per_event"] = _ratio(
        trace.counters.get("routing.brokers_visited", 0), published
    )
    metrics["routing.event_messages_per_event"] = _ratio(
        trace.counters.get("routing.event_messages", 0), published
    )
    metrics["routing.churn_flood_ms_per_op"] = _ratio(
        _total(floods) / 1e6, len(floods)
    )
    metrics["routing.table_kib"] = report["table_size_bytes"] / 1024.0
    metrics["routing.link_bytes_per_event"] = _ratio(
        report["event_bytes"], published
    )

    # -- matching / events ---------------------------------------------------
    matches = trace.named("matching.match_batch", saturated)
    columns = trace.named("events.columns", saturated)
    metrics["matching.match_ms_per_event"] = _ratio(
        sum(trace.self_ns(span) for span in matches) / 1e6, saturated_events
    )
    metrics["matching.batch_rows_mean"] = _ratio(
        sum(span.events for span in matches), len(matches)
    )
    metrics["events.columnarize_us_per_event"] = _ratio(
        _total(columns) / 1e3, saturated_events
    )
    counts = [0, 0, 0, 0]
    for span in trace.named("matching.match_batch", paced):
        for index, value in enumerate(span.tags):
            counts[index] += value
    candidates, tree_evaluations, fulfilled, matched = counts
    metrics["matching.candidates_per_event"] = _ratio(candidates, paced_events)
    metrics["matching.tree_evaluations_per_event"] = _ratio(tree_evaluations, paced_events)
    metrics["matching.fulfilled_predicates_per_event"] = _ratio(fulfilled, paced_events)
    metrics["matching.matches_per_event"] = _ratio(matched, paced_events)
    metrics["matching.match_per_candidate_ratio"] = _ratio(matched, candidates)
    table_writes = [
        span
        for name in ("matching.register", "matching.replace", "matching.unregister")
        for span in trace.named(name, churn)
        if not trace.under(span, "adaptive.run_cycle")
    ]
    metrics["matching.churn_us_per_op"] = _ratio(
        _total(table_writes) / 1e3, len(table_writes)
    )
    metrics["matching.slots"] = report["slots"]
    metrics["matching.entries"] = report["entries"]

    # -- adaptive (zero where the workload runs without it) ------------------
    cycles = [span.duration / 1e6 for span in trace.named("adaptive.run_cycle")]
    observes = trace.named("adaptive.observe_batch")
    adaptive = report["adaptive"] or {}
    reclaimed = adaptive.get("bytes_reclaimed", 0)
    metrics["adaptive.cycle_p50_ms"] = median_of(cycles)
    metrics["adaptive.cycle_max_ms"] = max(cycles, default=0.0)
    metrics["adaptive.observe_us_per_event"] = _ratio(
        _total(observes) / 1e3, sum(span.events for span in observes)
    )
    metrics["adaptive.cycles"] = adaptive.get("cycles", 0)
    metrics["adaptive.restores"] = adaptive.get("restores", 0)
    metrics["adaptive.prunings_applied"] = adaptive.get("prunings_applied", 0)
    metrics["adaptive.prunings_reverted"] = adaptive.get("prunings_reverted", 0)
    metrics["adaptive.bytes_reclaimed_share"] = _ratio(
        reclaimed, report["table_size_bytes"] + reclaimed
    )
    return metrics
