"""Span recording from the benchmark's own files.

A traced run wraps the public callables at each layer boundary *by
attribute* — nothing under ``src/`` knows it is being traced — and
keeps one record per call in memory::

    {id, name, start_ns, end_ns, parent, batch, events, tags}

``parent`` is the enclosing span on the same thread (self time = span
minus children), ``batch`` the ``publish_batch`` call the work belongs
to, ``events`` the number of items the call handled, and ``tags`` the
join keys the stage table needs (event ids on the way in, the wire
session's ``delivery_seq`` on the way out).  Span names are
``<layer>.<call>`` with layer = ``src/repro/<module>``.  Timestamps are
``CLOCK_MONOTONIC`` nanoseconds, which the generator process shares.

Recording starts when the server is ready (table set-up is not traced)
and everything is written out when the process exits.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Event attribute carrying the generator's event number; no
#: subscription references it, so it never changes a match.
EVENT_ID = "eid"


def now_ns() -> int:
    """System-wide monotonic nanoseconds (comparable across processes)."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span and counter store for one process.

    Records live in one flat integer array — ``length, id, name, start,
    end, parent, batch, events, *tags`` — so that a hundred thousand
    spans add nothing for the traced process's garbage collector to
    walk, and one ``extend`` per span keeps threads from interleaving.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.counters: Dict[str, int] = {}
        self._records = array("q")
        self._names: Dict[str, int] = {}
        self._ids = itertools.count()
        self._batches = itertools.count()
        self._local = threading.local()

    def clear(self) -> None:
        self._records = array("q")
        self.counters = {}

    @property
    def spans(self) -> List[Tuple[Any, ...]]:
        """``(id, name, start_ns, end_ns, parent, batch, events, tags)``
        per recorded span; ``parent``/``batch`` are ``None`` at top level."""
        names = {number: name for name, number in self._names.items()}
        records = self._records
        spans = []
        position = 0
        while position < len(records):
            length = records[position]
            span_id, name, start, end, parent, batch, events = records[
                position + 1 : position + 8
            ]
            spans.append(
                (
                    span_id, names[name], start, end,
                    None if parent < 0 else parent,
                    None if batch < 0 else batch,
                    events,
                    tuple(records[position + 8 : position + length]),
                )
            )
            position += length
        return spans

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        describe: Optional[Callable[..., Optional[Tuple[int, Tuple[int, ...]]]]] = None,
        new_batch: bool = False,
    ) -> Callable[..., Any]:
        """``function`` with one span recorded per call.

        ``describe(args, result)`` returns ``(events, tags)`` for the
        record, or ``None`` to drop it (an empty poll, say).
        """
        tracer = self
        name_id = self._names.setdefault(name, len(self._names))

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            parent, batch = stack[-1] if stack else (-1, -1)
            if new_batch:
                batch = next(tracer._batches)
            span_id = next(tracer._ids)
            stack.append((span_id, batch))
            start = now_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = now_ns()
                stack.pop()
            described = describe(args, result) if describe is not None else (1, ())
            if described is not None:
                events, tags = described
                tracer._records.extend(
                    (8 + len(tags), span_id, name_id, start, end, parent, batch, events)
                    + tags
                )
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span and counter as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": [
                        "id", "name", "start_ns", "end_ns",
                        "parent", "batch", "events", "tags",
                    ],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                handle,
                separators=(",", ":"),
            )


def _event_id(event: Any) -> int:
    value = event.get(EVENT_ID, -1)
    return value if isinstance(value, int) else -1


def install_client(tracer: Tracer) -> None:
    """Generator side: time the client's frame decoding."""
    from repro.transport import client

    client.FrameDecoder.feed = tracer.wrap(  # type: ignore[method-assign]
        "transport.client_feed",
        client.FrameDecoder.feed,
        lambda args, result: (len(result), ()),
    )


def install_server(tracer: Tracer) -> None:
    """Server side: wrap the boundary of every layer on the event path."""
    from repro.adaptive.controller import AdaptiveController
    from repro.adaptive.statistics import OnlineEventStatistics
    from repro.events import EventBatch
    from repro.matching.counting import CountingMatcher
    from repro.routing.broker import Broker
    from repro.routing.network import BrokerNetwork
    from repro.service.backpressure import BoundedDeliveryQueue
    from repro.service.ingress import Ingress
    from repro.service.session import Session, SubscriptionHandle
    from repro.service.sinks import AsyncDeliverySink
    from repro.transport import protocol, server

    def patch(owner: Any, attribute: str, name: str, describe=None, new_batch=False):
        setattr(
            owner,
            attribute,
            tracer.wrap(name, getattr(owner, attribute), describe, new_batch),
        )

    # -- transport -----------------------------------------------------------
    def feed_described(args, result):
        tags = tuple(
            _event_id(message["event"])
            for message in result
            if isinstance(message, dict) and message.get("type") == "publish"
        )
        return len(result), tags

    patch(protocol.FrameDecoder, "feed", "transport.feed", feed_described)

    def encode_described(args, result):
        envelope = args[0]
        tracer.count("transport.bytes_out", len(result))
        if envelope.get("type") == "event":
            return 1, (envelope["delivery_seq"],)
        return 1, ()

    # The server module imported the function by name; patch its binding.
    patch(server, "encode_frame", "transport.encode_frame", encode_described)

    # -- service -------------------------------------------------------------
    patch(
        Session, "publish", "service.session_publish",
        lambda args, result: (1, (_event_id(args[1]),)),
    )
    patch(
        Ingress, "submit", "service.ingress_submit",
        lambda args, result: (1, (_event_id(args[2]),)),
    )
    patch(
        Ingress, "flush", "service.ingress_flush",
        lambda args, result: (result, ()),
    )

    patch(
        BoundedDeliveryQueue, "put", "service.queue_put",
        lambda args, result: (1, (args[1].delivery_seq,)),
    )
    patch(
        BoundedDeliveryQueue, "get", "service.queue_get",
        lambda args, result: (
            None if result is None else (1, (result.delivery_seq,))
        ),
    )
    patch(
        AsyncDeliverySink, "deliver", "service.sink_deliver",
        lambda args, result: (1, (args[1].delivery_seq,)),
    )
    patch(SubscriptionHandle, "replace", "service.handle_replace")

    # -- routing -------------------------------------------------------------
    def publish_described(args, result):
        events = args[2]
        return len(result), tuple(_event_id(event) for event in events)

    patch(
        BrokerNetwork, "publish_batch", "routing.publish_batch",
        publish_described, new_batch=True,
    )
    patch(BrokerNetwork, "replace_subscription", "routing.replace_subscription")
    patch(
        Broker, "route_batch", "routing.route_batch",
        lambda args, result: (len(result), ()),
    )

    # -- matching / events ---------------------------------------------------
    original_match_batch = CountingMatcher.match_batch
    deltas = threading.local()

    def match_batch(self, events):
        # MatchStatistics deltas ride the span as tags, so exact counts
        # can be summed over any phase afterwards.
        stats = self.statistics
        before = (
            stats.candidates, stats.tree_evaluations,
            stats.fulfilled_predicates, stats.matches,
        )
        result = original_match_batch(self, events)
        deltas.last = (
            stats.candidates - before[0],
            stats.tree_evaluations - before[1],
            stats.fulfilled_predicates - before[2],
            stats.matches - before[3],
        )
        return result

    CountingMatcher.match_batch = tracer.wrap(  # type: ignore[method-assign]
        "matching.match_batch",
        match_batch,
        lambda args, result: (len(result), deltas.last),
    )
    for call in ("register", "replace", "unregister"):
        patch(CountingMatcher, call, "matching." + call)
    patch(
        EventBatch, "columns", "events.columns",
        lambda args, result: (len(args[0]), ()),
    )

    # -- adaptive ------------------------------------------------------------
    patch(AdaptiveController, "run_cycle", "adaptive.run_cycle")
    patch(
        OnlineEventStatistics, "observe_batch", "adaptive.observe_batch",
        lambda args, result: (len(args[1]), ()),
    )


def trace_delivery_hook(tracer: Tracer, network: Any) -> None:
    """Capture the service's dispatch by wrapping the public
    ``set_delivery_hook`` on the network handed to ``PubSubService``."""
    install = network.set_delivery_hook

    def hook_described(args, result):
        results = args[1]
        deliveries = 0
        for published in results:
            deliveries += len(published.deliveries)
            tracer.count("routing.event_messages", published.event_messages)
            tracer.count("routing.brokers_visited", published.brokers_visited)
        return len(results), (deliveries,)

    def set_delivery_hook(hook):
        install(
            None
            if hook is None
            else tracer.wrap("service.delivery_hook", hook, hook_described)
        )

    network.set_delivery_hook = set_delivery_hook
