"""The chaos soak: seeded fault storms vs the in-process oracle.

The headline robustness test of the fault-injection subsystem
(:mod:`repro.faults`).  One seeded :class:`FaultPlan` drives wire
faults (connection resets, short writes, stalled reads, split frames)
through every subscriber's stream wrapper *and* worker-pool faults
(shard workers killed mid-``match_batch``) through every broker's
sharded engine, while three remote subscribers with heartbeats and
``auto_reconnect`` ride out the storm.  After at least 20 faults
spanning at least four kinds, the plan is disarmed, the system
quiesces, and every client's delivered multiset must be bit-identical
to its in-process oracle session — same events, same sequence numbers
— with a gapless per-client ``delivery_seq``.

A second scenario pins the crash-loop circuit breaker: a worker pool
whose every ``match`` request dies trips the breaker, the matcher
degrades from processes to in-process serial shards, and the answers — the
whole point of the breaker — never change.
"""

import asyncio

import pytest

from repro.errors import TransportError
from repro.events import Event
from repro.faults import (
    BackoffSchedule,
    FaultPlan,
    WorkerFaultInjector,
    faulty_stream,
)
from repro.matching.counting import CountingMatcher
from repro.matching.sharded import ShardedMatcher
from repro.routing.topology import line_topology
from repro.service import PubSubService
from repro.subscriptions.builder import P
from repro.subscriptions.subscription import Subscription
from repro.transport import PubSubClient, PubSubServer

from tests.test_transport_e2e import (
    _Oracle,
    _pump_until,
    assert_gapless,
    fingerprint,
)

#: Every one of these fault kinds must actually fire during the soak.
REQUIRED_KINDS = frozenset(
    {"reset", "short_write", "stall", "split", "worker_kill"}
)

#: (name, broker, filter trees) for the three chaos subscribers.
SUBSCRIBERS = (
    ("alice", "b1", (P("price") <= 12.0, P("category") == "fiction")),
    ("bob", "b0", (P("price") >= 0.0,)),
    ("carol", "b1", (P("category") == "tech", P("price") >= 18.0)),
)


def _event(i, pad=0):
    payload = {
        "price": float(i % 25),
        "category": ("fiction", "tech", "news")[i % 3],
        "i": i,
    }
    if pad:
        payload["pad"] = "x" * pad
    return Event(payload)


async def _chaos_publish(client, event):
    """Publish through a faulted client: retry across resets/reconnects.

    A retry after an ambiguous failure may double-publish — which is
    fine for oracle equivalence, since every event the service accepts
    reaches the remote client and its oracle session identically."""
    for _ in range(200):
        try:
            await client.publish(event)
            return
        except (TransportError, ConnectionError, OSError):
            await asyncio.sleep(0.05)
    raise AssertionError("publish never went through")


class TestChaosSoak:
    @pytest.mark.timeout(300)
    def test_seeded_storm_heals_to_oracle_equivalence(self):
        async def main():
            plan = FaultPlan(
                3,
                wire_kinds=("reset", "short_write", "stall", "split"),
                mean_gap_bytes=800.0,
                min_first_gap_bytes=256,
                stall_seconds=0.05,
                holdback_seconds=0.02,
                worker_kinds=("worker_kill",),
                worker_mean_gap_calls=25.0,
            )
            # Setup (handshakes, subscribes) runs fault-free; the storm
            # starts once the topology is wired.
            plan.disarm()
            service = PubSubService(
                topology=line_topology(2),
                max_batch=1,
                shards=2,
                executor="processes",
            )
            for broker_id, broker in service.network.brokers.items():
                matcher = broker.matcher
                assert isinstance(matcher, ShardedMatcher)
                matcher.set_fault_injector(
                    WorkerFaultInjector(plan, label=broker_id)
                )
            try:
                async with PubSubServer(
                    service,
                    "b0",
                    queue_capacity=512,
                    heartbeat_interval=0.2,
                    idle_timeout=2.0,
                ) as server:
                    clients = {}
                    oracles = {}
                    for name, broker_id, trees in SUBSCRIBERS:
                        client = PubSubClient(
                            "127.0.0.1",
                            server.port,
                            name,
                            broker=broker_id,
                            queue_capacity=512,
                            heartbeat_interval=0.2,
                            liveness_timeout=1.5,
                            auto_reconnect=True,
                            max_reconnect_attempts=50,
                            backoff=BackoffSchedule(
                                seed=3, label=name, base=0.02, cap=0.2
                            ),
                            stream_wrapper=faulty_stream(plan, name),
                        )
                        await client.connect()
                        oracle = _Oracle(service, broker_id, "oracle-" + name)
                        for tree in trees:
                            await client.subscribe(tree)
                            oracle.subscribe(tree)
                        clients[name] = client
                        oracles[name] = oracle

                    # The publisher stays clean: the storm is on the
                    # subscribers' wires and in the worker pools.
                    publisher = PubSubClient(
                        "127.0.0.1", server.port, "publisher"
                    )
                    await publisher.connect()

                    plan.arm()
                    loop = asyncio.get_running_loop()
                    deadline = loop.time() + 150.0
                    published = 0
                    while (
                        plan.injected < 20
                        or not REQUIRED_KINDS <= plan.kinds_injected()
                    ):
                        assert loop.time() < deadline, (
                            "storm never reached coverage: %r injected, "
                            "kinds %r"
                            % (plan.injected, sorted(plan.kinds_injected()))
                        )
                        # The clean publisher guarantees forward
                        # progress; the wrapped subscribers publish
                        # padded events to drive their write lanes.
                        for _ in range(15):
                            await publisher.publish(_event(published))
                            published += 1
                        for client in clients.values():
                            for _ in range(3):
                                await _chaos_publish(
                                    client, _event(published, pad=180)
                                )
                                published += 1
                        await asyncio.sleep(0.05)

                    assert plan.injected >= 20
                    assert REQUIRED_KINDS <= plan.kinds_injected()

                    # Quiesce: no further faults; reconnect supervisors
                    # finish healing and the backlog drains.
                    plan.disarm()

                    def healed():
                        return all(
                            len(clients[name].notifications)
                            >= len(oracles[name].notifications)
                            for name, _, _ in SUBSCRIBERS
                        )

                    await _pump_until(healed, timeout=60.0)

                    for name, _, _ in SUBSCRIBERS:
                        client = clients[name]
                        assert fingerprint(client.notifications) == (
                            fingerprint(oracles[name].notifications)
                        ), "client %r diverged from its oracle" % name
                        assert_gapless(client)

                    # The storm was real: every subscriber survived at
                    # least one connection loss.
                    assert sum(
                        c.reconnects for c in clients.values()
                    ) >= 1
                    for client in clients.values():
                        await client.close()
                    await publisher.close()
            finally:
                service.network.close()

        asyncio.run(main())

    @pytest.mark.timeout(120)
    def test_crash_loop_breaker_degrades_with_identical_results(self):
        subscriptions = [
            Subscription(i, P("price") <= float(5 * (i + 1)))
            for i in range(12)
        ] + [
            Subscription(100 + i, P("category") == name)
            for i, name in enumerate(("fiction", "tech", "news"))
        ]
        batches = [
            [_event(i) for i in range(start, start + 8)]
            for start in range(0, 64, 8)
        ]
        plain = CountingMatcher()
        for subscription in subscriptions:
            plain.register(subscription)
        expected = [plain.match_batch(batch) for batch in batches]

        # Every match request kills its worker: a crash loop.
        plan = FaultPlan(
            7, worker_kinds=("worker_kill",), worker_mean_gap_calls=1.0
        )
        with ShardedMatcher(
            2, executor="processes", crash_loop_threshold=2
        ) as sharded:
            for subscription in subscriptions:
                sharded.register(subscription)
            sharded.set_fault_injector(WorkerFaultInjector(plan))
            results = [sharded.match_batch(batch) for batch in batches]
            health = sharded.health_report()
            assert results == expected  # bit-identical through the break
            assert health.degraded
            assert health.executor == "serial"
            assert health.crashes >= 2
            assert health.degraded_reason is not None
            assert "crash loop" in health.degraded_reason
            assert plan.counts()["worker_kill"] >= 2

            # Degraded-mode churn keeps matching correctly.
            extra = Subscription(500, P("i") >= 0)
            plain.register(extra)
            sharded.register(extra)
            tail = [_event(i) for i in range(64, 72)]
            assert sharded.match_batch(tail) == plain.match_batch(tail)
            report = sharded.health_report()
            assert report.degraded and report.executor == "serial"
