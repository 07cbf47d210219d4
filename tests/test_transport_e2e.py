"""End-to-end transport integration: remote clients vs in-process oracle.

Every scenario runs a :class:`PubSubServer` on a loopback socket and —
for each remote subscriber — an **oracle**: an in-process session at
the same broker carrying the same filter trees.  Both see the same
dispatches under the service's publish lock, so after each quiesced
phase the remote client's delivered multiset must be *bit-identical*
to the oracle's (same events, same service-wide sequence numbers, same
per-subscription counts) and its ``delivery_seq`` log must be gapless
``0..n-1`` — including across a kill-and-reconnect resume mid-stream.

The service is built with ``max_batch=1`` so every acknowledged
``publish`` has fully flushed by the time its response arrives; phases
therefore quiesce by awaiting their publishes.
"""

import asyncio
import threading

import pytest

from repro.errors import TransportError
from repro.events import Event
from repro.routing.topology import line_topology
from repro.service import CallbackSink, CollectingSink, PubSubService
from repro.subscriptions.builder import P
from repro.transport import PubSubClient, PubSubServer
from repro.transport.server import _Connection


def fingerprint(notifications):
    """Order-independent identity of a delivered set: the event payload
    plus the service-wide publish sequence (subscription ids differ
    between a remote session and its oracle)."""
    return sorted(
        (n.sequence, tuple(sorted(n.event.to_dict().items())))
        for n in notifications
    )


def assert_gapless(client):
    assert [n.delivery_seq for n in client.notifications] == list(
        range(len(client.notifications))
    )


class _Oracle:
    """The in-process twin of one remote subscriber."""

    def __init__(self, service, broker_id, name):
        self.sink = CollectingSink()
        self.session = service.connect(broker_id, name, self.sink)
        self.handles = []

    def subscribe(self, tree):
        self.handles.append(self.session.subscribe(tree))
        return self.handles[-1]

    @property
    def notifications(self):
        return self.sink.notifications


async def _pump_until(predicate, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not reached in time"
        await asyncio.sleep(0.01)


class TestTransportE2E:
    @pytest.mark.timeout(120)
    def test_multi_client_matches_oracle_through_churn_and_reconnect(self):
        async def main():
            service = PubSubService(topology=line_topology(3), max_batch=1)
            async with PubSubServer(service, "b0") as server:
                alice = PubSubClient(
                    "127.0.0.1", server.port, "alice", broker="b2"
                )
                bob = PubSubClient(
                    "127.0.0.1", server.port, "bob", broker="b1"
                )
                await alice.connect()
                await bob.connect()
                oracle_alice = _Oracle(service, "b2", "oracle-alice")
                oracle_bob = _Oracle(service, "b1", "oracle-bob")

                a_cheap = await alice.subscribe(P("price") <= 10.0)
                a_fiction = await alice.subscribe(P("category") == "fiction")
                b_all = await bob.subscribe(P("price") >= 0.0)
                oracle_alice.subscribe(P("price") <= 10.0)
                oracle_alice.subscribe(P("category") == "fiction")
                oracle_bob.subscribe(P("price") >= 0.0)

                publisher = PubSubClient(
                    "127.0.0.1", server.port, "publisher"
                )
                await publisher.connect()

                # Phase 1: concurrent publishers, stable subscriptions.
                async def publish_range(client, start, count):
                    for i in range(start, start + count):
                        await client.publish(
                            Event(
                                {
                                    "price": float(i % 20),
                                    "category": (
                                        "fiction" if i % 3 == 0 else "tech"
                                    ),
                                    "i": i,
                                }
                            )
                        )

                second = PubSubClient(
                    "127.0.0.1", server.port, "publisher-2", broker="b1"
                )
                await second.connect()
                await asyncio.gather(
                    publish_range(publisher, 0, 30),
                    publish_range(second, 100, 30),
                )
                await _pump_until(
                    lambda: len(alice.notifications)
                    == len(oracle_alice.notifications)
                    and len(bob.notifications)
                    == len(oracle_bob.notifications)
                )
                assert len(bob.notifications) == 60
                assert fingerprint(alice.notifications) == fingerprint(
                    oracle_alice.notifications
                )
                assert fingerprint(bob.notifications) == fingerprint(
                    oracle_bob.notifications
                )
                assert_gapless(alice)
                assert_gapless(bob)

                # Phase 2: churn — replace one tree, withdraw another —
                # mirrored on the oracles at the same quiesced point.
                await a_cheap.replace(P("price") >= 15.0)
                oracle_alice.handles[0].replace(P("price") >= 15.0)
                await b_all.unsubscribe()
                oracle_bob.handles[0].unsubscribe()
                assert not b_all.active
                await publish_range(publisher, 200, 30)
                await _pump_until(
                    lambda: len(alice.notifications)
                    == len(oracle_alice.notifications)
                )
                assert fingerprint(alice.notifications) == fingerprint(
                    oracle_alice.notifications
                )
                assert len(bob.notifications) == 60  # nothing since churn
                assert_gapless(alice)

                # Phase 3: kill alice mid-stream, keep publishing, then
                # reconnect with the token and resume without loss.
                await alice.abort()
                await _pump_until(lambda: server.resumable_tokens)
                assert server.resumable_tokens == (alice.token,)
                await publish_range(publisher, 300, 30)
                replayed = await alice.reconnect()
                assert replayed >= 0
                await _pump_until(
                    lambda: len(alice.notifications)
                    == len(oracle_alice.notifications)
                )
                assert fingerprint(alice.notifications) == fingerprint(
                    oracle_alice.notifications
                )
                assert_gapless(alice)
                # Replay overlap (if any) was deduplicated, not logged.
                assert alice.duplicates >= 0
                per_sub = {}
                for n in alice.notifications:
                    per_sub[n.subscription_id] = (
                        per_sub.get(n.subscription_id, 0) + 1
                    )
                oracle_per_sub = {}
                for n in oracle_alice.notifications:
                    oracle_per_sub[n.subscription_id] = (
                        oracle_per_sub.get(n.subscription_id, 0) + 1
                    )
                assert per_sub[a_cheap.id] == oracle_per_sub[
                    oracle_alice.handles[0].id
                ]
                assert per_sub[a_fiction.id] == oracle_per_sub[
                    oracle_alice.handles[1].id
                ]

                for client in (alice, bob, publisher, second):
                    await client.close()
            service.close()

        asyncio.run(main())

    @pytest.mark.timeout(120)
    def test_graceful_goodbye_retires_the_session(self):
        async def main():
            service = PubSubService(topology=line_topology(1), max_batch=1)
            async with PubSubServer(service, "b0") as server:
                client = PubSubClient("127.0.0.1", server.port, "alice")
                await client.connect()
                await client.subscribe(P("x") == 1)
                assert server.session_count == 1
                await client.close()
                await _pump_until(lambda: server.session_count == 0)
                # The token is gone for good: resume must be refused.
                with pytest.raises(TransportError) as info:
                    await client.reconnect()
                assert info.value.code == "unknown-token"
                # The in-process registry agrees.
                assert service.sessions == ()
            service.close()

        asyncio.run(main())

    @pytest.mark.timeout(120)
    def test_resume_replays_exactly_the_unseen_tail(self):
        async def main():
            service = PubSubService(topology=line_topology(1), max_batch=1)
            async with PubSubServer(service, "b0") as server:
                subscriber = PubSubClient(
                    "127.0.0.1", server.port, "alice", queue_capacity=64
                )
                await subscriber.connect()
                await subscriber.subscribe(P("x") >= 0)
                publisher = PubSubClient("127.0.0.1", server.port, "pub")
                await publisher.connect()

                for i in range(10):
                    await publisher.publish(Event({"x": i}))
                await subscriber.wait_for_notifications(10)
                await subscriber.abort()

                # 15 more while the subscriber is gone: they stage in
                # the session's bounded queue server-side.
                for i in range(10, 25):
                    await publisher.publish(Event({"x": i}))

                replayed = await subscriber.reconnect()
                notes = await subscriber.wait_for_notifications(25)
                assert [n.event["x"] for n in notes] == list(range(25))
                assert_gapless(subscriber)
                # Nothing was lost, nothing was double-logged; any
                # replay overlap is visible only in the dedup counter.
                assert replayed + subscriber.duplicates >= 0
                assert len(subscriber.notifications) == 25

                # Server-side accounting: everything dispatched to the
                # session was delivered (block policy, nothing dropped).
                (session,) = [
                    s for s in service.sessions if s.client == "alice"
                ]
                assert session.delivery_count == 25
                assert len(session.queue.dead_letter) == 0

                await publisher.close()
                await subscriber.close()
            service.close()

        asyncio.run(main())

    @pytest.mark.timeout(120)
    def test_auth_tokens_gate_the_handshake(self):
        async def main():
            service = PubSubService(topology=line_topology(1), max_batch=1)
            async with PubSubServer(
                service, "b0", auth_tokens={"alice": "sesame"}
            ) as server:
                wrong = PubSubClient(
                    "127.0.0.1", server.port, "alice", auth="plugh"
                )
                with pytest.raises(TransportError) as info:
                    await wrong.connect()
                assert info.value.code == "auth"

                unknown = PubSubClient("127.0.0.1", server.port, "mallory")
                with pytest.raises(TransportError) as info:
                    await unknown.connect()
                assert info.value.code == "auth"

                right = PubSubClient(
                    "127.0.0.1", server.port, "alice", auth="sesame"
                )
                welcome = await right.connect()
                assert welcome["client"] == "alice"
                await right.close()
            service.close()

        asyncio.run(main())

    @pytest.mark.timeout(120)
    def test_partial_batch_tail_is_delivered_without_a_timer(self):
        """A remote publisher can't call ``service.flush()``: a publish
        burst smaller than ``max_batch`` must still be delivered, via
        the server's ingress drain, without any other wire activity."""

        async def main():
            # max_batch far above the burst size: nothing fills a batch.
            service = PubSubService(topology=line_topology(1), max_batch=64)
            async with PubSubServer(service, "b0") as server:
                subscriber = PubSubClient("127.0.0.1", server.port, "alice")
                await subscriber.connect()
                await subscriber.subscribe(P("x") >= 0)
                publisher = PubSubClient("127.0.0.1", server.port, "pub")
                await publisher.connect()
                for i in range(3):
                    assert not (await publisher.publish(Event({"x": i})))
                # No churn, no more publishes, no explicit flush — the
                # server's drain is the only thing that can deliver these.
                await subscriber.wait_for_notifications(3)
                assert [n.event["x"] for n in subscriber.notifications] == [
                    0,
                    1,
                    2,
                ]
                assert_gapless(subscriber)
                await publisher.close()
                await subscriber.close()
            service.close()

        asyncio.run(main())

    @pytest.mark.timeout(120)
    def test_events_published_during_a_flush_are_drained(self):
        """Events submitted while the drain's flush runs are the next
        batch: the drain flushes again, with no further wire activity."""

        async def main():
            service = PubSubService(topology=line_topology(1), max_batch=64)
            entered = threading.Event()
            release = threading.Event()

            def hold_first(notification):
                if not entered.is_set():
                    entered.set()
                    release.wait(10.0)

            holder = service.connect("b0", "holder", CallbackSink(hold_first))
            holder.subscribe(P("x") >= 0)
            try:
                async with PubSubServer(service, "b0") as server:
                    subscriber = PubSubClient("127.0.0.1", server.port, "alice")
                    await subscriber.connect()
                    await subscriber.subscribe(P("x") >= 0)
                    publisher = PubSubClient("127.0.0.1", server.port, "pub")
                    await publisher.connect()
                    assert not (await publisher.publish(Event({"x": 0})))
                    # The first flush is now held inside the sink.
                    await _pump_until(entered.is_set)
                    for i in (1, 2, 3):
                        assert not (await publisher.publish(Event({"x": i})))
                    release.set()
                    await subscriber.wait_for_notifications(4)
                    assert [n.event["x"] for n in subscriber.notifications] == [
                        0,
                        1,
                        2,
                        3,
                    ]
                    assert_gapless(subscriber)
                    await publisher.close()
                    await subscriber.close()
            finally:
                release.set()
            service.close()

        asyncio.run(main())

    @pytest.mark.timeout(120)
    def test_a_publisher_dying_mid_burst_does_not_stall_the_drain(
        self, monkeypatch
    ):
        """A connection whose publish burst ends in a connection error
        must release its hold on the drain, or no publisher's events
        would ever be flushed again.  The server's writes swallow a dead
        socket's errors, so the reset is raised from the publish
        handler of the connection that then aborts."""
        handle_publish = _Connection._handle_publish
        resets = []

        async def reset_after_publish(connection, message):
            await handle_publish(connection, message)
            if connection._state.session.client == "a":
                resets.append(message["id"])
                raise ConnectionResetError("connection reset mid-burst")

        monkeypatch.setattr(_Connection, "_handle_publish", reset_after_publish)

        async def main():
            service = PubSubService(topology=line_topology(1), max_batch=64)
            async with PubSubServer(service, "b0") as server:
                subscriber = PubSubClient("127.0.0.1", server.port, "alice")
                await subscriber.connect()
                await subscriber.subscribe(P("x") >= 0)
                a = PubSubClient("127.0.0.1", server.port, "a")
                b = PubSubClient("127.0.0.1", server.port, "b")
                await a.connect()
                await b.connect()
                # Pipelined: none of these waits for its reply.
                pending = [
                    asyncio.ensure_future(a.publish(Event({"x": i})))
                    for i in range(3)
                ]
                await _pump_until(lambda: resets)
                await a.abort()
                await asyncio.gather(*pending, return_exceptions=True)
                await b.publish(Event({"x": 100}))
                await subscriber.wait_for_notifications(2, timeout=5.0)
                assert [n.event["x"] for n in subscriber.notifications] == [
                    0,
                    100,
                ]
                assert len(resets) == 1
                await b.close()
                await subscriber.close()
            service.close()

        asyncio.run(main())

    @pytest.mark.timeout(120)
    def test_a_failing_flush_ends_the_drain_and_the_next_burst_restarts_it(self):
        """A flush that raises (here: a contained in-process sink
        failure) stops the drain instead of re-flushing; the next
        publishing burst starts a fresh one."""

        async def main():
            service = PubSubService(topology=line_topology(1), max_batch=64)
            failures = []

            def fail_once(notification):
                if not failures:
                    failures.append(notification)
                    raise RuntimeError("sink failure")

            failing = service.connect("b0", "failing", CallbackSink(fail_once))
            failing.subscribe(P("x") >= 0)
            flushes = []
            flush = service.flush

            def counting_flush():
                flushes.append(None)
                return flush()

            async with PubSubServer(service, "b0") as server:
                subscriber = PubSubClient("127.0.0.1", server.port, "alice")
                await subscriber.connect()
                await subscriber.subscribe(P("x") >= 0)
                publisher = PubSubClient("127.0.0.1", server.port, "pub")
                await publisher.connect()
                service.flush = counting_flush
                await publisher.publish(Event({"x": 0}))
                await _pump_until(lambda: failures)
                for i in (1, 2):
                    await publisher.publish(Event({"x": i}))
                await subscriber.wait_for_notifications(3)
                assert [n.event["x"] for n in subscriber.notifications] == [
                    0,
                    1,
                    2,
                ]
                # At most one flush per publishing burst.
                assert 1 <= len(flushes) <= 3
                await publisher.close()
                await subscriber.close()
            service.close()

        asyncio.run(main())

    @pytest.mark.timeout(120)
    def test_disconnect_policy_accounting_survives_the_transport(self):
        """delivered + dead-lettered == dispatched, even when the
        ``disconnect`` policy fires while the client is detached."""

        async def main():
            service = PubSubService(topology=line_topology(1), max_batch=1)
            async with PubSubServer(service, "b0") as server:
                subscriber = PubSubClient(
                    "127.0.0.1",
                    server.port,
                    "alice",
                    queue_capacity=4,
                    policy="disconnect",
                )
                await subscriber.connect()
                await subscriber.subscribe(P("x") >= 0)
                (session,) = [
                    s for s in service.sessions if s.client == "alice"
                ]
                await subscriber.abort()  # stop consuming entirely
                # Wait for the server to notice and stop the pump, so
                # nothing else leaves the queue for the dead socket.
                await _pump_until(lambda: server.resumable_tokens)

                publisher = PubSubClient("127.0.0.1", server.port, "pub")
                await publisher.connect()
                for i in range(12):  # overflows the capacity-4 queue
                    await publisher.publish(Event({"x": i}))

                assert session.queue.disconnected
                dispatched = session.delivery_count
                dead = len(session.queue.dead_letter)
                staged = session.queue.depth
                pumped = session.queue.delivered
                assert dispatched == 12
                assert pumped + dead + staged == 12
                assert staged <= 4  # bounded: never beyond capacity
                await publisher.close()
            service.close()

        asyncio.run(main())
