"""Micro-batching, thread-safe event admission for the service layer.

Single-event publishing through the substrate pays the per-call
overhead of :meth:`~repro.routing.network.BrokerNetwork.publish_batch`
once per event.  The :class:`Ingress` buffers submitted events and
drains them in micro-batches, so one-event-at-a-time callers ride the
columnar batch path (one index probe per bucket per *batch*, see
``docs/ARCHITECTURE.md``) for free.

The ingress is safe for **concurrent producers**: any number of threads
may :meth:`submit` at once.  Two locks split the work — a short-lived
buffer lock makes appends (and their sequence reservations) atomic, and
a re-entrant drain lock serializes flushes, so exactly one thread at a
time runs the publish/match/dispatch pipeline while the others keep
buffering behind the cheap buffer lock.  The drain lock is shared with
the owning service (see :class:`repro.service.PubSubService`), which
holds it across subscription churn: the flush-before-churn invariant
therefore survives concurrency — every event is matched against a table
that was live between its submission and its flush.

Draining groups pending events by their origin broker, preserving
submission order within each group, and publishes one
:class:`~repro.events.EventBatch` per origin.  Deliveries are observed
through the network's delivery hook (installed by
:class:`repro.service.PubSubService`), not through return values.
Sequence numbers are allocated at *submission* time (through the
service's sequencer callbacks), so the sequence a notification carries
identifies the event's submission position no matter how the ingress
grouped the stream.

Ordering contract: a flush happens when the buffer reaches
``max_batch``, on explicit :meth:`flush` (which the transport server
calls for remote publishers as soon as their publish bursts are
handled, see :mod:`repro.transport.server`), and — driven by the
service layer — before any subscription churn
(subscribe/unsubscribe/replace), so every event is matched against
exactly the subscription table that was live when it was submitted
(under concurrency: a table live between submission and flush, which
is the strongest linearizable guarantee).
"""

from __future__ import annotations

import threading
from typing import Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

from repro.errors import RoutingError, ServiceError
from repro.events import Event, EventBatch
from repro.routing.network import BrokerNetwork


class Ingress:
    """Buffers events per origin broker and drains them as batches.

    ``allocate_sequence``/``expect_sequences`` are the service layer's
    sequencer: the first reserves one submission-ordered sequence
    number per submitted event, the second announces each drained
    group's reserved numbers to the delivery dispatcher just before the
    group is published.  Standalone use (no service) leaves both unset.

    ``lock`` is the drain lock.  The service passes its own re-entrant
    publish lock so that flushes, delivery dispatch, and subscription
    churn all serialize on one lock; standalone ingresses create their
    own.  It must be re-entrant: sinks may trigger nested flushes.
    """

    def __init__(
        self,
        network: BrokerNetwork,
        max_batch: int = 64,
        allocate_sequence: Optional[Callable[[], int]] = None,
        expect_sequences: Optional[Callable[[Sequence[int]], None]] = None,
        lock: Optional[ContextManager[bool]] = None,
    ) -> None:
        if max_batch < 1:
            raise ServiceError("ingress max_batch must be >= 1, got %d" % max_batch)
        self.network = network
        self.max_batch = max_batch
        self._allocate_sequence = allocate_sequence
        self._expect_sequences = expect_sequences
        self._pending: List[Tuple[str, Event, Optional[int]]] = []
        #: Guards ``_pending`` appends/swaps only — held for nanoseconds,
        #: never while matching or delivering.
        self._buffer_lock = threading.Lock()
        #: Serializes drains (and, via the service, churn + dispatch).
        self._lock: ContextManager[bool] = (
            lock if lock is not None else threading.RLock()
        )

    @property
    def pending_count(self) -> int:
        """Events submitted but not yet drained."""
        with self._buffer_lock:
            return len(self._pending)

    def submit(self, broker_id: str, event: Event) -> bool:
        """Enqueue one event for publication from ``broker_id``.

        Thread-safe.  Returns ``True`` when the submission filled the
        buffer and this caller ran the resulting flush (unknown brokers
        are rejected at submit time, not at flush time).  The sequence
        reservation and the append happen atomically under the buffer
        lock, so buffer order and sequence order always agree.
        """
        if broker_id not in self.network.brokers:
            raise RoutingError("unknown broker %r" % broker_id)
        with self._buffer_lock:
            sequence = (
                self._allocate_sequence()
                if self._allocate_sequence is not None
                else None
            )
            self._pending.append((broker_id, event, sequence))
            should_flush = len(self._pending) >= self.max_batch
        # Flush outside the buffer lock: the drain takes buffer_lock
        # itself, and holding it here would invert the lock order against
        # a concurrent flusher.  A racing producer may drain our events
        # first; our flush then finds an empty (or refilled) buffer.
        if should_flush:
            self.flush()
            return True
        return False

    def flush(self) -> int:
        """Drain the buffer; returns the number of events published.

        Pending events are grouped by origin broker (groups in order of
        first submission, submission order preserved within each group)
        and each group goes out as one ``publish_batch`` call.  Drains
        are serialized on the drain lock; the buffer is snapshotted at
        entry, so events submitted concurrently with a drain wait for
        the next one (their submitting thread triggers it once the
        buffer refills to ``max_batch``; on the wire, the server's
        drain picks them up).

        If a group's publication raises (a broker error, or a
        :class:`~repro.errors.DeliveryError` carrying contained sink
        failures), the groups not yet attempted are re-queued in
        submission order — with their already-reserved sequence
        numbers — before the exception propagates, so no buffered event
        is silently dropped, and any sequence announcement the failed
        group left behind is cleared so it cannot mis-sequence a later
        direct publish.
        """
        with self._lock:
            with self._buffer_lock:
                pending, self._pending = self._pending, []
            if not pending:
                return 0
            groups: Dict[str, List[Tuple[Event, Optional[int]]]] = {}
            for origin, event, sequence in pending:
                groups.setdefault(origin, []).append((event, sequence))
            remaining = list(groups)
            try:
                for origin in list(groups):
                    entries = groups[origin]
                    if self._expect_sequences is not None:
                        self._expect_sequences(
                            [
                                sequence
                                for _event, sequence in entries
                                if sequence is not None
                            ]
                        )
                    self.network.publish_batch(
                        origin, EventBatch([event for event, _sequence in entries])
                    )
                    remaining.remove(origin)
            except BaseException:
                unattempted = set(remaining) - {remaining[0]} if remaining else set()
                requeued = [entry for entry in pending if entry[0] in unattempted]
                with self._buffer_lock:
                    self._pending = requeued + self._pending
                if self._expect_sequences is not None:
                    self._expect_sequences([])
                raise
            return len(pending)
