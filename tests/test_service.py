"""Unit tests for the service layer: sessions, handles, sinks, ingress."""

import pytest

from repro.errors import DeliveryError, RoutingError, ServiceError
from repro.events import Event
from repro.routing.network import BrokerNetwork
from repro.routing.topology import line_topology
from repro.service import (
    CallbackSink,
    CollectingSink,
    CountingSink,
    DeliverySink,
    Ingress,
    Notification,
    PubSubService,
    SubscriptionHandle,
)
from repro.subscriptions.builder import And, P


def make_service(brokers=2, max_batch=64):
    return PubSubService(topology=line_topology(brokers), max_batch=max_batch)


class TestSessions:
    def test_connect_subscribe_publish_deliver(self):
        service = make_service()
        alice = service.connect("b1", "alice")
        handle = alice.subscribe(And(P("x") == 1, P("y") == 2))
        assert isinstance(handle, SubscriptionHandle)
        service.publish("b0", Event({"x": 1, "y": 2}))
        service.publish("b0", Event({"x": 1}))
        assert service.flush() == 2
        notes = alice.sink.notifications
        assert [note.subscription_id for note in notes] == [handle.id]
        assert notes[0].client == "alice"
        assert notes[0].broker_id == "b1"
        assert notes[0].event == Event({"x": 1, "y": 2})

    def test_ids_are_server_assigned_and_distinct(self):
        service = make_service()
        session = service.connect("b0", "alice")
        first = session.subscribe(P("x") == 1)
        second = session.subscribe(P("x") == 2)
        assert first.id != second.id
        assert first.active and second.active
        assert set(session.handles) == {first, second}

    def test_duplicate_session_rejected(self):
        service = make_service()
        service.connect("b0", "alice")
        with pytest.raises(ServiceError):
            service.connect("b0", "alice")
        # Same client at a different broker is a different session.
        service.connect("b1", "alice")

    def test_unknown_broker_rejected(self):
        service = make_service()
        with pytest.raises(RoutingError):
            service.connect("nope", "alice")
        with pytest.raises(RoutingError):
            service.publish("nope", Event({"x": 1}))

    def test_session_close_withdraws_subscriptions(self):
        service = make_service()
        alice = service.connect("b0", "alice")
        handle = alice.subscribe(P("x") == 1)
        alice.close()
        assert not handle.active
        assert alice.closed
        assert service.network.brokers["b0"].entries == {}
        # The slot is free for a reconnect.
        service.connect("b0", "alice")
        with pytest.raises(ServiceError):
            alice.subscribe(P("x") == 2)

    def test_session_context_manager(self):
        service = make_service()
        with service.connect("b0", "alice") as alice:
            alice.subscribe(P("x") == 1)
        assert alice.closed

    def test_service_close_releases_hook(self):
        service = make_service()
        service.connect("b0", "alice").subscribe(P("x") == 1)
        service.close()
        with pytest.raises(ServiceError):
            service.connect("b0", "bob")
        # The network is a plain substrate again: a new service attaches.
        PubSubService(service.network)


class TestHandles:
    def test_unsubscribe_stops_deliveries(self):
        service = make_service()
        alice = service.connect("b0", "alice")
        handle = alice.subscribe(P("x") == 1)
        service.publish("b0", Event({"x": 1}))
        handle.unsubscribe()  # flushes the pending event first
        service.publish("b0", Event({"x": 1}))
        service.flush()
        assert len(alice.sink.notifications) == 1
        assert not handle.active
        with pytest.raises(ServiceError):
            handle.unsubscribe()
        with pytest.raises(ServiceError):
            handle.replace(P("x") == 2)

    def test_replace_keeps_identity(self):
        service = make_service()
        alice = service.connect("b0", "alice")
        handle = alice.subscribe(P("x") == 1)
        original_id = handle.id
        handle.replace(P("x") == 2)
        assert handle.id == original_id
        assert handle.active
        service.publish("b0", Event({"x": 1}))
        service.publish("b0", Event({"x": 2}))
        service.flush()
        events = [note.event for note in alice.sink.notifications]
        assert events == [Event({"x": 2})]

    def test_replace_floods_all_brokers(self):
        service = make_service(brokers=3)
        alice = service.connect("b2", "alice")
        handle = alice.subscribe(P("x") == 1)
        before = service.network.report().subscription_messages
        handle.replace(P("x") == 2)
        assert service.network.report().subscription_messages > before
        # The replaced tree matches from the far end of the line.
        service.publish("b0", Event({"x": 2}))
        service.flush()
        assert [note.event for note in alice.sink.notifications] == [
            Event({"x": 2})
        ]


class TestSinks:
    def test_per_handle_sink_overrides_session_sink(self):
        service = make_service()
        alice = service.connect("b0", "alice")
        special = CollectingSink()
        plain = alice.subscribe(P("x") == 1)
        routed = alice.subscribe(P("x") == 2, sink=special)
        service.publish("b0", Event({"x": 1}))
        service.publish("b0", Event({"x": 2}))
        service.flush()
        assert [n.subscription_id for n in alice.sink.notifications] == [plain.id]
        assert [n.subscription_id for n in special.notifications] == [routed.id]

    def test_callback_and_counting_sinks(self):
        service = make_service()
        seen = []
        service.connect("b0", "cb", sink=CallbackSink(seen.append))
        counter = CountingSink()
        counting_session = service.connect("b0", "count", sink=counter)
        service.sessions[0].subscribe(P("x") == 1)
        handle = counting_session.subscribe(P("x") == 1)
        for _ in range(3):
            service.publish("b0", Event({"x": 1}))
        service.flush()
        assert len(seen) == 3 and isinstance(seen[0], Notification)
        assert counter.total == 3
        assert counter.by_subscription == {handle.id: 3}
        counter.clear()
        assert counter.total == 0 and counter.by_subscription == {}

    def test_sinks_satisfy_protocol(self):
        assert isinstance(CollectingSink(), DeliverySink)
        assert isinstance(CallbackSink(lambda note: None), DeliverySink)
        assert isinstance(CountingSink(), DeliverySink)

    def test_collecting_sink_helpers(self):
        sink = CollectingSink()
        sink.deliver(Notification(Event({"x": 1}), 0, "a", "b0", 1))
        assert len(sink) == 1
        assert sink.events == [Event({"x": 1})]
        sink.clear()
        assert len(sink) == 0


class TestIngress:
    def test_max_batch_triggers_flush(self):
        service = make_service(max_batch=3)
        alice = service.connect("b0", "alice")
        alice.subscribe(P("x") == 1)
        assert not service.publish("b0", Event({"x": 1}))
        assert not service.publish("b0", Event({"x": 1}))
        assert service.ingress.pending_count == 2
        assert not alice.sink.notifications
        assert service.publish("b0", Event({"x": 1}))  # third fills the batch
        assert service.ingress.pending_count == 0
        assert len(alice.sink.notifications) == 3

    def test_flush_on_subscribe_churn_preserves_table_snapshot(self):
        service = make_service(max_batch=100)
        alice = service.connect("b0", "alice")
        service.publish("b0", Event({"x": 1}))
        # The pending event predates this subscription: it must not be
        # delivered to it (the churn forces a flush first).
        handle = alice.subscribe(P("x") == 1)
        assert service.ingress.pending_count == 0
        assert alice.sink.notifications == []
        service.publish("b0", Event({"x": 1}))
        service.flush()
        assert [n.subscription_id for n in alice.sink.notifications] == [handle.id]

    def test_grouping_by_origin_preserves_per_origin_order(self):
        service = make_service(brokers=2, max_batch=100)
        alice = service.connect("b0", "alice")
        alice.subscribe(P("x") >= 0)
        for position, origin in enumerate(["b0", "b1", "b0", "b1"]):
            service.publish(origin, Event({"x": position}))
        service.flush()
        by_origin = {}
        for note in alice.sink.notifications:
            by_origin.setdefault(note.event["x"] % 2, []).append(note.event["x"])
        assert by_origin == {0: [0, 2], 1: [1, 3]}

    def test_sequences_are_submission_positions_at_any_batch_size(self):
        """The sequence contract: batching never changes an event's number."""
        origins = ["b0", "b1", "b0", "b1", "b1", "b0"]
        signatures = []
        for max_batch in (1, 2, 100):
            service = make_service(brokers=2, max_batch=max_batch)
            alice = service.connect("b0", "alice")
            alice.subscribe(P("x") >= 0)
            for position, origin in enumerate(origins):
                service.publish(origin, Event({"x": position}))
            service.flush()
            signatures.append(sorted(
                (note.sequence, note.event["x"])
                for note in alice.sink.notifications
            ))
        assert signatures[0] == signatures[1] == signatures[2]
        # And the sequence *is* the submission position.
        assert signatures[0] == [(i, i) for i in range(len(origins))]

    def test_failed_flush_requeues_unattempted_groups(self):
        service = make_service(brokers=2, max_batch=100)

        class ExplodingSink:
            def __init__(self):
                self.armed = True

            def deliver(self, notification):
                if self.armed:
                    raise RuntimeError("boom")

        sink = ExplodingSink()
        alice = service.connect("b0", "alice", sink=sink)
        alice.subscribe(P("x") >= 0)
        service.publish("b0", Event({"x": 0}))
        service.publish("b1", Event({"x": 1}))
        with pytest.raises(DeliveryError):
            service.flush()
        # The b0 group was attempted (its sink failure was contained and
        # re-raised after dispatch); the b1 group was never attempted
        # and must still be buffered.
        assert service.ingress.pending_count == 1
        sink.armed = False
        collector = CollectingSink()
        bob_session = service.connect("b0", "bob", sink=collector)
        # Subscribing flushes the requeued event first: bob must not see it.
        bob_session.subscribe(P("x") >= 0)
        assert service.ingress.pending_count == 0
        assert collector.notifications == []

    def test_sequence_numbers_are_per_event(self):
        service = make_service(max_batch=100)
        alice = service.connect("b0", "alice")
        alice.subscribe(P("x") == 1)
        service.publish("b0", Event({"x": 0}))  # no match, still sequenced
        service.publish("b0", Event({"x": 1}))
        service.flush()
        assert service.publish_count == 2
        assert [n.sequence for n in alice.sink.notifications] == [1]

    def test_invalid_max_batch(self):
        with pytest.raises(ServiceError):
            Ingress(BrokerNetwork(line_topology(1)), max_batch=0)

    def test_publish_batch_flushes_pending_first(self):
        service = make_service(max_batch=100)
        alice = service.connect("b0", "alice")
        alice.subscribe(P("x") >= 0)
        service.publish("b0", Event({"x": 0}))
        results = service.publish_batch("b0", [Event({"x": 1})])
        assert len(results) == 1 and results[0].deliveries
        sequences = [n.sequence for n in alice.sink.notifications]
        assert sequences == [0, 1]  # pending event dispatched first


class TestConstruction:
    def test_requires_network_or_topology(self):
        with pytest.raises(ServiceError):
            PubSubService()
        with pytest.raises(ServiceError):
            PubSubService(
                BrokerNetwork(line_topology(1)), topology=line_topology(1)
            )

    def test_single_delivery_hook_per_network(self):
        network = BrokerNetwork(line_topology(1))
        PubSubService(network)
        with pytest.raises(RoutingError):
            PubSubService(network)


class TestSubstrate:
    """The network-level features the service layer is built on."""

    def test_allocate_subscription_id_is_not_deprecated(self, recwarn):
        network = BrokerNetwork(line_topology(2))
        subscription_id = network.allocate_subscription_id()
        network.subscribe("b0", "alice", P("x") == 1, subscription_id)
        assert not [
            warning
            for warning in recwarn.list
            if issubclass(warning.category, DeprecationWarning)
        ]
        # A reserved id is accepted exactly once.
        with pytest.raises(RoutingError):
            network.subscribe("b0", "bob", P("x") == 1, subscription_id)

    def test_caller_chosen_ids_warn(self):
        network = BrokerNetwork(line_topology(2))
        with pytest.deprecated_call():
            network.subscribe("b0", "alice", P("x") == 1, subscription_id=7)

    def test_allocation_interleaves_with_reservations(self):
        network = BrokerNetwork(line_topology(1))
        first = network.allocate_subscription_id()
        second = network.allocate_subscription_id()
        assert second > first
        network.subscribe("b0", "a", P("x") == 1, subscription_id=second)
        network.subscribe("b0", "a", P("x") == 1, subscription_id=first)
        auto = network.subscribe("b0", "a", P("x") == 1)
        assert auto.id > second

    def test_replace_subscription_unknown_id(self):
        network = BrokerNetwork(line_topology(1))
        with pytest.raises(RoutingError):
            network.replace_subscription(3, P("x") == 1)

    def test_direct_substrate_publish_reaches_sinks(self):
        service = make_service()
        alice = service.connect("b1", "alice")
        handle = alice.subscribe(P("x") == 1)
        result = service.network.publish("b0", Event({"x": 1}))
        assert [d.subscription_id for d in result.deliveries] == [handle.id]
        assert [n.subscription_id for n in alice.sink.notifications] == [handle.id]

    def test_deliveries_without_session_are_dropped(self):
        service = make_service()
        # Subscribe through the substrate: no session to deliver to.
        sid = service.network.allocate_subscription_id()
        service.network.subscribe("b0", "ghost", P("x") == 1, sid)
        result = service.network.publish("b0", Event({"x": 1}))
        assert result.deliveries  # the publisher still sees the match


class TestShardedService:
    """Flake-proofing pins: a process-sharded engine must not perturb
    the service's observable stream.

    The ingress flush grouping, per-sink notification order, and
    delivery sequence numbers are all asserted twice — against the
    unsharded reference stream *and* against explicit expected tuples —
    so any future scheduling-dependent behaviour in the shard fan-out
    shows up as a deterministic assertion failure, not a flake.
    """

    def _stream(self, shards):
        service = PubSubService(
            topology=line_topology(3), max_batch=3, shards=shards,
            executor="processes" if shards else "serial",
        )
        with service:
            alice = service.connect("b2", "alice")
            alice.subscribe(P("x") >= 1)   # id 0
            alice.subscribe(P("x") >= 3)   # id 1
            bob = service.connect("b1", "bob")
            bob.subscribe(P("x") <= 4)     # id 2
            for position, origin in enumerate(["b0", "b1", "b2", "b0", "b2"]):
                service.publish(origin, Event({"x": position}))
            service.flush()
            return [
                [
                    (note.sequence, note.subscription_id, note.event["x"])
                    for note in session.sink.notifications
                ]
                for session in (alice, bob)
            ]

    def test_sharded_stream_is_pinned_and_identical_to_unsharded(self):
        unsharded = self._stream(shards=None)
        sharded = self._stream(shards=4)
        assert sharded == unsharded
        # Explicit pins (sequence == submission position; per-sink order
        # follows flush grouping: origins in first-submission order,
        # submission order within each origin, sub ids ascending within
        # one event's deliveries at one broker).
        assert unsharded[0] == [
            (1, 0, 1), (2, 0, 2), (3, 0, 3), (3, 1, 3), (4, 0, 4), (4, 1, 4),
        ]
        assert unsharded[1] == [
            (0, 2, 0), (1, 2, 1), (2, 2, 2), (3, 2, 3), (4, 2, 4),
        ]

    def test_shards_with_explicit_network_rejected(self):
        network = BrokerNetwork(line_topology(2))
        with pytest.raises(ServiceError):
            PubSubService(network=network, shards=2)

    def test_executor_with_explicit_network_rejected(self):
        network = BrokerNetwork(line_topology(2))
        with pytest.raises(ServiceError):
            PubSubService(network=network, executor="serial")

    def test_close_shuts_down_shard_pools(self):
        service = PubSubService(
            topology=line_topology(2), shards=2, executor="processes"
        )
        alice = service.connect("b1", "alice")
        alice.subscribe(P("x") >= 0)
        service.publish("b0", Event({"x": 1}))
        service.flush()
        matchers = [broker.matcher for broker in service.network.brokers.values()]
        assert any(matcher._pool is not None for matcher in matchers)
        service.close()
        assert all(matcher._pool is None for matcher in matchers)
        # The substrate stays usable: pools rebuild lazily on demand
        # (close() withdrew the session's subscriptions, so register a
        # substrate-level one to see a delivery again).
        network = service.network
        network.subscribe(
            "b1", "bob", P("x") >= 0, network.allocate_subscription_id()
        )
        assert network.publish("b0", Event({"x": 2})).deliveries
        network.close()
        assert all(matcher._pool is None for matcher in matchers)


class TestDeliveryContainment:
    """Sink failures in ``Ingress.flush`` are contained per-sink.

    Regression tests for the error-containment contract: one raising
    sink must not starve the other sinks of the batch, must not wedge
    the ingress, and must not leave stale sequence announcements behind.
    """

    class ExplodingSink:
        def __init__(self, fail_times=None):
            self.armed = True
            self.fail_times = fail_times
            self.notifications = []

        def deliver(self, notification):
            if self.armed and (
                self.fail_times is None or self.fail_times > 0
            ):
                if self.fail_times is not None:
                    self.fail_times -= 1
                raise RuntimeError("boom")
            self.notifications.append(notification)

    def test_remaining_sinks_receive_batch_when_one_raises(self):
        service = make_service(brokers=2, max_batch=100)
        bad = self.ExplodingSink()
        good = CollectingSink()
        alice = service.connect("b0", "alice", sink=bad)
        bob = service.connect("b0", "bob", sink=good)
        alice.subscribe(P("x") >= 0)
        bob.subscribe(P("x") >= 0)
        service.publish("b0", Event({"x": 0}))
        service.publish("b0", Event({"x": 1}))
        with pytest.raises(DeliveryError) as excinfo:
            service.flush()
        # Both events' deliveries to the good sink happened even though
        # the bad sink raised on each of them.
        assert [n.event["x"] for n in good.notifications] == [0, 1]
        assert len(excinfo.value.failures) == 2
        assert all(
            isinstance(exc, RuntimeError)
            for _, exc in excinfo.value.failures
        )

    def test_ingress_stays_usable_after_sink_failure(self):
        service = make_service(brokers=2, max_batch=100)
        bad = self.ExplodingSink()
        alice = service.connect("b0", "alice", sink=bad)
        alice.subscribe(P("x") >= 0)
        service.publish("b0", Event({"x": 0}))
        with pytest.raises(DeliveryError):
            service.flush()
        bad.armed = False
        # The failed flush consumed its batch; later publishes flow
        # through the same ingress with fresh, correct sequences.
        service.publish("b0", Event({"x": 1}))
        assert service.flush() == 1
        assert [n.event["x"] for n in bad.notifications] == [1]
        # Sequences stay monotonic across the failed flush: the failed
        # event consumed sequence 0, the delivered one got 1.
        assert [n.sequence for n in bad.notifications] == [1]

    def test_failed_flush_clears_stale_sequence_announcements(self):
        # Regression: a flush whose dispatch raises used to leave its
        # sequence announcements queued, so the *next* flush would stamp
        # the old sequences onto new events.
        service = make_service(brokers=2, max_batch=100)
        bad = self.ExplodingSink(fail_times=1)
        alice = service.connect("b0", "alice", sink=bad)
        alice.subscribe(P("x") >= 0)
        for x in range(3):
            service.publish("b0", Event({"x": x}))
        with pytest.raises(DeliveryError):
            service.flush()
        service.publish("b0", Event({"x": 99}))
        service.flush()
        # The post-failure event must carry its own (allocated-at-submit)
        # sequence, not a stale announcement from the failed batch.
        assert [n.event["x"] for n in bad.notifications] == [1, 2, 99]
        assert [n.sequence for n in bad.notifications] == [1, 2, 3]

    def test_on_sink_error_handler_swallows_failures(self):
        seen = []
        service = PubSubService(
            topology=line_topology(2),
            max_batch=100,
            on_sink_error=lambda notification, exc: seen.append(
                (notification.event["x"], type(exc).__name__)
            ),
        )
        bad = self.ExplodingSink()
        good = CollectingSink()
        alice = service.connect("b0", "alice", sink=bad)
        bob = service.connect("b0", "bob", sink=good)
        alice.subscribe(P("x") >= 0)
        bob.subscribe(P("x") >= 0)
        service.publish("b0", Event({"x": 7}))
        # With a handler installed the flush does not raise.
        assert service.flush() == 1
        assert seen == [(7, "RuntimeError")]
        assert [n.event["x"] for n in good.notifications] == [7]


class TestSessionTokens:
    """The resume registry: ``connect(token=...)`` + ``resume(token)``.

    This is the service-side hook the network transport uses to
    reattach a reconnecting client to its still-open session.
    """

    def test_resume_returns_the_registered_session(self):
        service = make_service()
        session = service.connect("b0", "alice", token="tok-a")
        assert session.token == "tok-a"
        assert service.resume("tok-a") is session

    def test_duplicate_token_is_refused(self):
        service = make_service()
        service.connect("b0", "alice", token="tok-a")
        with pytest.raises(ServiceError):
            service.connect("b1", "bob", token="tok-a")

    def test_unknown_token_is_refused(self):
        service = make_service()
        with pytest.raises(ServiceError):
            service.resume("never-issued")

    def test_closed_session_cannot_be_resumed(self):
        service = make_service()
        session = service.connect("b0", "alice", token="tok-a")
        session.close()
        with pytest.raises(ServiceError):
            service.resume("tok-a")
        # The token is free again after the session closed.
        other = service.connect("b0", "alice", token="tok-a")
        assert service.resume("tok-a") is other

    def test_tokenless_sessions_stay_unregistered(self):
        service = make_service()
        session = service.connect("b0", "alice")
        assert session.token is None
