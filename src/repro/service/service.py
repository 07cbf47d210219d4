"""The public service facade: sessions over a broker-network substrate.

:class:`PubSubService` is the primary API of the library for clients of
the pub/sub system (the substrate, :class:`repro.routing.network.
BrokerNetwork`, stays directly usable for experiments and routing
research).  It owns

* a session registry — :meth:`connect` attaches one named client to one
  broker and returns a :class:`~repro.service.session.Session`;
* the service-wide micro-batching :class:`~repro.service.ingress.
  Ingress` every session publishes through;
* the network's delivery hook, through which every published batch's
  deliveries are fanned out to the subscribers' sinks.

Dataflow (see ``docs/ARCHITECTURE.md`` for the full diagram)::

    Session.publish ──▶ Ingress buffer ──(max_batch / flush / churn)──▶
      BrokerNetwork.publish_batch ──▶ delivery hook ──▶ DeliverySinks

The service is safe for **concurrent producers**: any number of threads
may publish at once (submissions batch under the ingress buffer lock),
and one re-entrant *publish lock* serializes the drain/dispatch pipeline
with subscription churn and session registry changes, so a flush still
runs matching to completion and sinks see their notifications before the
flush returns.  Slow consumers get explicit backpressure policy through
per-session :class:`~repro.service.backpressure.BoundedDeliveryQueue`\\ s
(``connect(queue_capacity=...)``); sink failures are contained per sink
and surfaced as :class:`~repro.errors.DeliveryError` (or routed to an
``on_sink_error`` handler).  See ``docs/ARCHITECTURE.md`` ("Concurrent
ingress & backpressure") for the locking discipline.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.adaptive.controller import AdaptiveConfig, AdaptiveController
from repro.errors import DeliveryError, RoutingError, ServiceError
from repro.events import Event, EventBatch
from repro.matching.sharded import ExecutorSpec
from repro.routing.metrics import CostModel
from repro.routing.network import BrokerNetwork, PublishResult
from repro.routing.topology import Topology
from repro.subscriptions.nodes import Node
from repro.subscriptions.subscription import Subscription

from repro.service.backpressure import BoundedDeliveryQueue, DeadLetterSink
from repro.service.ingress import Ingress
from repro.service.session import Session, SubscriptionHandle
from repro.service.sinks import CollectingSink, DeliverySink, Notification


class PubSubService:
    """Sessions, handles, and sinks over a broker network.

    Construct from a topology (the service builds the network) or wrap
    an existing :class:`BrokerNetwork`.  With a topology,
    ``shards=K`` builds every broker with a sharded matching engine of
    K in-process shards, and ``executor="processes"`` moves each shard
    into a persistent worker process fed shared-memory batches, so
    ``PubSubService(topology=..., shards=4, executor="processes")`` lets
    each broker's ``match_batch`` use up to four cores (see
    :mod:`repro.matching.sharded`); results are identical to the
    unsharded default.  Use the service as a context manager (or
    call :meth:`close`) so worker pools are torn down.
    ``adaptive=AdaptiveConfig(...)`` switches on the runtime pruning
    loop (see :mod:`repro.adaptive`): the dispatch path feeds live event
    statistics, and every ``cycle_events`` events the controller —
    exposed as ``service.adaptive`` — re-prunes or un-prunes the
    inner-broker forwarding tables.  Delivery to subscribers is
    unaffected: home brokers always keep exact trees.

    >>> from repro.routing.topology import line_topology
    >>> from repro.subscriptions import P
    >>> service = PubSubService(topology=line_topology(2), max_batch=4)
    >>> alice = service.connect("b1", "alice")
    >>> handle = alice.subscribe(P("x") == 1)
    >>> publisher = service.connect("b0", "publisher")
    >>> publisher.publish(Event({"x": 1}))
    False
    >>> service.flush()
    1
    >>> [n.subscription_id for n in alice.sink.notifications]
    [0]
    """

    def __init__(
        self,
        network: Optional[BrokerNetwork] = None,
        *,
        topology: Optional[Topology] = None,
        cost_model: Optional[CostModel] = None,
        max_batch: int = 64,
        shards: Optional[int] = None,
        executor: Optional[ExecutorSpec] = None,
        on_sink_error: Optional[Callable[[Notification, BaseException], None]] = None,
        adaptive: Optional[AdaptiveConfig] = None,
    ) -> None:
        if network is None:
            if topology is None:
                raise ServiceError(
                    "PubSubService needs a network or a topology to build one"
                )
            network = BrokerNetwork(
                topology,
                cost_model,
                shards=shards,
                executor="serial" if executor is None else executor,
            )
        elif (
            topology is not None
            or cost_model is not None
            or shards is not None
            or executor is not None
        ):
            raise ServiceError(
                "pass either an existing network or "
                "topology/cost_model/shards/executor, not both"
            )
        self._network = network
        # The publish lock serializes ingress drains, delivery dispatch,
        # subscription churn, and session-registry changes.  Re-entrant:
        # a flush dispatches under it, and churn flushes under it.
        self._publish_lock = threading.RLock()
        # Sequence allocation gets its own tiny lock so concurrent
        # producers can reserve numbers while a drain holds the publish
        # lock (lock order: buffer/publish -> sequence, never reversed).
        self._sequence_lock = threading.Lock()
        self.ingress = Ingress(
            network,
            max_batch=max_batch,
            allocate_sequence=self._allocate_sequence,
            expect_sequences=self._expect_sequences,
            lock=self._publish_lock,
        )
        self._sessions: Dict[Tuple[str, str], Session] = {}
        self._session_tokens: Dict[str, Session] = {}
        self._handle_sinks: Dict[int, DeliverySink] = {}
        self._on_sink_error = on_sink_error
        self._sequence = 0
        self._expected_sequences: Deque[int] = deque()
        self._closed = False
        #: The adaptive pruning loop (``None`` unless ``adaptive=`` was
        #: passed).  Fed from :meth:`_dispatch`; its cycles run under the
        #: publish lock, so they serialize with churn and flushes.
        self.adaptive: Optional[AdaptiveController] = (
            AdaptiveController(self, adaptive) if adaptive is not None else None
        )
        network.set_delivery_hook(self._dispatch)

    # -- introspection -------------------------------------------------------

    @property
    def network(self) -> BrokerNetwork:
        """The underlying broker-network substrate."""
        return self._network

    @property
    def publish_count(self) -> int:
        """Events sequenced by the service so far (the sequence number
        the *next* submitted or dispatched event will be assigned)."""
        return self._sequence

    @property
    def sessions(self) -> Tuple[Session, ...]:
        """All open sessions."""
        return tuple(self._sessions.values())

    # -- sessions ------------------------------------------------------------

    def connect(
        self,
        broker_id: str,
        client: str,
        sink: Optional[DeliverySink] = None,
        *,
        queue_capacity: Optional[int] = None,
        policy: str = "block",
        dead_letter: Optional[DeadLetterSink] = None,
        token: Optional[str] = None,
    ) -> Session:
        """Open a session for ``client`` at ``broker_id``.

        ``sink`` receives the session's deliveries; when omitted, a
        fresh :class:`CollectingSink` is attached.  At most one open
        session per ``(broker_id, client)`` pair — deliveries are
        addressed to that pair by the substrate.

        ``queue_capacity`` switches the session from direct (in-flush)
        delivery to a :class:`~repro.service.backpressure.
        BoundedDeliveryQueue` of that capacity: dispatch stages
        notifications, the consumer drives delivery with
        ``session.poll()``/``session.drain()``, and ``policy`` (one of
        ``"block"``/``"drop_oldest"``/``"disconnect"``) decides what an
        overflow does.  Everything refused lands in ``dead_letter`` (a
        fresh :class:`~repro.service.backpressure.DeadLetterSink` when
        omitted) — ``policy``/``dead_letter`` therefore require
        ``queue_capacity``.

        ``token`` registers the session in the service's resume
        registry: as long as the session stays open, :meth:`resume`
        returns it for that token.  This is the hook the network
        transport (:mod:`repro.transport`) uses to reattach a
        reconnecting client to its still-open session (and with it the
        bounded queue holding its undelivered tail).
        """
        self._require_open()
        if broker_id not in self._network.brokers:
            raise RoutingError("unknown broker %r" % broker_id)
        queue: Optional[BoundedDeliveryQueue] = None
        if queue_capacity is not None:
            queue = BoundedDeliveryQueue(
                queue_capacity, policy=policy, dead_letter=dead_letter
            )
        elif policy != "block" or dead_letter is not None:
            raise ServiceError(
                "policy/dead_letter only apply to bounded-queue sessions; "
                "pass queue_capacity as well"
            )
        with self._publish_lock:
            key = (broker_id, client)
            if key in self._sessions:
                raise ServiceError(
                    "client %r already has an open session at broker %s"
                    % (client, broker_id)
                )
            if token is not None and token in self._session_tokens:
                raise ServiceError(
                    "session token %r is already registered" % token
                )
            session = Session(
                self,
                broker_id,
                client,
                # ``is not None``, not truthiness: an empty CollectingSink
                # has len() == 0 and would be silently replaced.
                sink if sink is not None else CollectingSink(),
                queue=queue,
                token=token,
            )
            self._sessions[key] = session
            if token is not None:
                self._session_tokens[token] = session
        return session

    def resume(self, token: str) -> Session:
        """The still-open session registered under ``token``.

        The resume hook for reconnecting transports: a client that
        presents its session token gets its original :class:`Session`
        back — same subscriptions, same bounded queue (and therefore
        the undelivered tail staged in it), same ``delivery_seq``
        counter.  Raises :class:`~repro.errors.ServiceError` when the
        token is unknown or the session has since closed.
        """
        self._require_open()
        with self._publish_lock:
            session = self._session_tokens.get(token)
            if session is None or session.closed:
                raise ServiceError(
                    "no open session registered under token %r" % token
                )
            return session

    def _forget_session(self, session: Session) -> None:
        with self._publish_lock:
            self._sessions.pop((session.broker_id, session.client), None)
            if session.token is not None:
                self._session_tokens.pop(session.token, None)

    # -- publishing ----------------------------------------------------------

    def publish(self, broker_id: str, event: Event) -> bool:
        """Submit one event via the micro-batching ingress.

        Session-less publishing for producers that are not subscribers;
        equivalent to ``connect(...).publish(event)`` without the
        session.  Returns ``True`` when the submission triggered a
        flush.
        """
        self._require_open()
        return self.ingress.submit(broker_id, event)

    def publish_batch(
        self, broker_id: str, events: Union[Sequence[Event], EventBatch]
    ) -> List[PublishResult]:
        """Publish a pre-assembled batch immediately (no buffering).

        Pending ingress events are flushed first so ordering is
        preserved; deliveries flow to sinks *and* are returned.
        """
        self._require_open()
        with self._publish_lock:
            self.flush()
            return self._network.publish_batch(broker_id, events)

    def flush(self) -> int:
        """Drain the ingress; returns the number of events published."""
        return self.ingress.flush()

    # -- subscription plumbing (called by Session / SubscriptionHandle) ------

    def _subscribe(
        self, session: Session, tree: Node, sink: Optional[DeliverySink]
    ) -> SubscriptionHandle:
        # The publish lock is held across flush *and* table change, so a
        # concurrent producer's events land either wholly before or
        # wholly after the churn — never against a half-applied table.
        with self._publish_lock:
            self.flush()  # events already submitted must not see the new table
            subscription_id = self._network.allocate_subscription_id()
            subscription = self._network.subscribe(
                session.broker_id,
                session.client,
                tree,
                subscription_id=subscription_id,
            )
            handle = SubscriptionHandle(session, subscription)
            if sink is not None:
                self._handle_sinks[subscription.id] = sink
            return handle

    def _unsubscribe(self, handle: SubscriptionHandle) -> None:
        with self._publish_lock:
            self.flush()
            self._network.unsubscribe(handle.id)
            self._handle_sinks.pop(handle.id, None)

    def _replace(self, handle: SubscriptionHandle, tree: Node) -> Subscription:
        with self._publish_lock:
            self.flush()
            return self._network.replace_subscription(handle.id, tree)

    # -- delivery fan-out ----------------------------------------------------

    def _allocate_sequence(self) -> int:
        """Reserve the next service-wide event sequence number.

        The ingress calls this at *submission* time, so the sequence a
        notification carries identifies the event's submission position
        regardless of how the ingress grouped the stream into batches.
        Thread-safe: concurrent producers each get a distinct number.
        """
        with self._sequence_lock:
            sequence = self._sequence
            self._sequence += 1
            return sequence

    def _expect_sequences(self, sequences: Sequence[int]) -> None:
        """Announce the reserved sequences of the batch about to publish.

        The previous batch consumed its announcement in full unless its
        publication raised mid-dispatch; clearing first makes a failed
        batch's leftovers harmless instead of mis-sequencing this one.
        """
        self._expected_sequences.clear()
        self._expected_sequences.extend(sequences)

    def _sink_for(self, session: Session, subscription_id: int) -> DeliverySink:
        """The sink a (possibly queued) notification should reach.

        Per-handle sinks override the session sink; once a handle is
        unsubscribed, still-staged notifications fall back to the
        session sink.
        """
        return self._handle_sinks.get(subscription_id, session.sink)

    def _dispatch(
        self, events: Sequence[Event], results: Sequence[PublishResult]
    ) -> None:
        """The network delivery hook: route deliveries to sinks.

        Fires for *every* publish on the substrate, including direct
        ``BrokerNetwork`` calls, so substrate users and service sessions
        can coexist on one network.  Events arriving from the ingress
        carry their submission-time sequence numbers (announced via
        :meth:`_expect_sequences`); direct publishes are sequenced here.
        Deliveries addressed to a client without an open session are
        dropped (the publisher still sees them in its
        ``PublishResult``).

        Runs under the publish lock (re-entrantly when the publish came
        from our own flush), so dispatch — and therefore sink order and
        per-session ``delivery_seq`` stamping — is serialized even when
        the substrate is published directly from several threads.

        Sink failures are **contained**: a raising sink never stops the
        remaining deliveries of the batch.  Contained failures go to the
        service's ``on_sink_error`` handler, or — when none is set — are
        re-raised together as one :class:`~repro.errors.DeliveryError`
        after the batch fully dispatched.  Bounded-queue sessions never
        raise here at all: their queue applies its backpressure policy
        and dead-letters refusals.
        """
        with self._publish_lock:
            failures: List[Tuple[Notification, BaseException]] = []
            for event, result in zip(events, results):
                if self._expected_sequences:
                    sequence = self._expected_sequences.popleft()
                else:
                    sequence = self._allocate_sequence()
                for delivery in result.deliveries:
                    session = self._sessions.get(
                        (delivery.broker_id, delivery.client)
                    )
                    handle_sink = self._handle_sinks.get(delivery.subscription_id)
                    if session is None and handle_sink is None:
                        continue
                    notification = Notification(
                        event,
                        sequence,
                        delivery.client,
                        delivery.broker_id,
                        delivery.subscription_id,
                        session._next_delivery_seq() if session is not None else -1,
                    )
                    if session is not None and session.queue is not None:
                        session._enqueue(notification)
                        continue
                    if handle_sink is not None:
                        sink = handle_sink
                    else:
                        assert session is not None
                        sink = session.sink
                    try:
                        sink.deliver(notification)
                    except Exception as error:
                        failures.append((notification, error))
            if self.adaptive is not None:
                self.adaptive._after_dispatch(list(events))
            if failures:
                if self._on_sink_error is not None:
                    for notification, error in failures:
                        self._on_sink_error(notification, error)
                else:
                    raise DeliveryError(failures)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush, close every session, and release the delivery hook.

        The wrapped network remains usable as a plain substrate
        afterwards (a new service can be attached to it): broker shard
        pools are shut down here, but sharded matchers rebuild theirs
        lazily on the next batch.
        """
        if self._closed:
            return
        self.flush()
        for session in list(self._sessions.values()):
            session.close()
        self._network.set_delivery_hook(None)
        self._network.close()
        self._closed = True

    def __enter__(self) -> "PubSubService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    def __repr__(self) -> str:
        return "PubSubService(%d brokers, %d sessions, pending=%d%s)" % (
            len(self._network.brokers),
            len(self._sessions),
            self.ingress.pending_count,
            ", closed" if self._closed else "",
        )
