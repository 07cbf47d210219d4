#!/usr/bin/env python3
"""Fault injection and self-healing: break the wire, watch it heal.

The transport from ``examples/remote_client.py`` promised exactly-once
delivery across a *voluntary* crash.  This example stops being polite:
a seeded :class:`repro.FaultPlan` injects connection resets, stalls,
and split frames into the subscriber's streams while a separate plan
keeps killing the matcher's worker processes — and every guarantee
still holds, because the stack heals itself:

1. **Wire chaos** — a subscriber dials in through
   :func:`repro.faulty_stream`, which wraps its reader/writer in
   fault-injecting shims driven by one reproducible plan.  Heartbeats
   (``ping``/``pong``) detect the half-open connections the faults
   leave behind; ``auto_reconnect=True`` redials under capped jittered
   backoff (:class:`repro.BackoffSchedule`) and resumes by session
   token.  After the storm the client holds exactly the events a clean
   client would, in order, gapless.
2. **Worker chaos** — a :class:`repro.WorkerFaultInjector` kills a
   matcher worker process on a schedule.  The sharded matcher restarts
   the pool inside the failing call; when the kills loop faster than
   its crash-loop threshold, it degrades to in-process serial shards —
   bit-identical results, story told by ``health_report()``.

Run:  python examples/chaos_demo.py
"""

import asyncio

from repro import (
    BackoffSchedule,
    Event,
    FaultPlan,
    P,
    PubSubClient,
    PubSubServer,
    PubSubService,
    WorkerFaultInjector,
    faulty_stream,
    line_topology,
)

EVENTS = 40


async def act_one_wire_chaos() -> None:
    plan = FaultPlan(
        17,
        wire_kinds=("reset", "stall", "split"),
        mean_gap_bytes=900.0,
        min_first_gap_bytes=256,
        stall_seconds=0.05,
        max_faults=6,
    )
    plan.disarm()  # wiring happens on a calm sea

    service = PubSubService(topology=line_topology(2), max_batch=1)
    async with PubSubServer(
        service, "b0", heartbeat_interval=0.2, idle_timeout=2.0
    ) as server:
        alerts = PubSubClient(
            "127.0.0.1",
            server.port,
            "alerts",
            broker="b1",
            queue_capacity=256,
            heartbeat_interval=0.2,
            liveness_timeout=1.0,
            auto_reconnect=True,
            max_reconnect_attempts=50,
            backoff=BackoffSchedule(seed=17, label="alerts", base=0.02, cap=0.2),
            stream_wrapper=faulty_stream(plan, "alerts"),
        )
        await alerts.connect()
        await alerts.subscribe(P("i") >= 0)
        feed = PubSubClient("127.0.0.1", server.port, "feed")
        await feed.connect()

        plan.arm()  # let it rip
        for i in range(EVENTS):
            await feed.publish(Event({"i": i, "pad": "x" * 120}))
            await asyncio.sleep(0.01)
        plan.disarm()

        await alerts.wait_for_notifications(EVENTS, timeout=30)
        got = [note.event["i"] for note in alerts.notifications]
        assert got == list(range(EVENTS))
        assert [n.delivery_seq for n in alerts.notifications] == list(
            range(EVENTS)
        )
        print("wire chaos: %s" % dict(plan.counts()))
        print(
            "  healed via %d reconnect(s), %d liveness expiries;"
            " %d/%d events delivered exactly once, gapless"
            % (alerts.reconnects, alerts.liveness_expiries, len(got), EVENTS)
        )
        if alerts.recovery_latencies:
            print(
                "  worst drop->resume gap: %.0f ms"
                % (max(alerts.recovery_latencies) * 1e3)
            )

        await feed.close()
        await alerts.close()
    service.close()


def act_two_worker_chaos() -> None:
    from repro.matching import CountingMatcher, ShardedMatcher
    from repro.subscriptions import Subscription

    plan = FaultPlan(7, worker_kinds=("worker_kill",), worker_mean_gap_calls=2.0)
    events = [Event({"i": i}) for i in range(64)]
    subscriptions = [Subscription(i, P("i") >= i) for i in range(12)]

    oracle = CountingMatcher()
    for subscription in subscriptions:
        oracle.register(subscription)
    expected = oracle.match_batch(events)

    with ShardedMatcher(
        2, executor="processes", crash_loop_threshold=2
    ) as matcher:
        matcher.set_fault_injector(WorkerFaultInjector(plan, label="pool"))
        for subscription in subscriptions:
            matcher.register(subscription)
        for start in range(0, len(events), 8):
            assert (
                matcher.match_batch(events[start : start + 8])
                == expected[start : start + 8]
            )
        health = matcher.health_report()
        print("worker chaos: %s" % dict(plan.counts()))
        print(
            "  %d worker crash(es) healed; executor now %r (degraded=%s)"
            % (health.crashes, health.executor, health.degraded)
        )
        if health.degraded:
            print("  reason: %s" % health.degraded_reason)


def main() -> None:
    asyncio.run(act_one_wire_chaos())
    act_two_worker_chaos()


if __name__ == "__main__":
    main()
