"""End-to-end equivalence and lifecycle of the adaptive service loop.

The adaptive controller may only change what *inner brokers forward* —
never what subscribers receive.  These tests run identical workloads
through a controller-off oracle service and an adaptive twin and require
bit-identical delivery streams, under subscription churn and a mid-run
drift from auction traffic to tree-heavy traffic.  Lifecycle tests drive
:meth:`AdaptiveController.run_cycle` with explicit conditions to pin the
dimension policy, the un-prune path, and how the plan survives churn.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptiveConfig
from repro.adaptive import controller as controller_module
from repro.core.adaptive import SystemConditions
from repro.events import Event
from repro.routing.topology import line_topology
from repro.service import PubSubService
from repro.subscriptions.builder import And, P
from repro.workloads.auction import AuctionWorkload, AuctionWorkloadConfig
from repro.workloads.tree_heavy import TreeHeavyConfig, TreeHeavyWorkload

from tests.strategies import events as event_strategy
from tests.strategies import trees


def _adaptive_config(**overrides):
    """A config that keeps the memory signal permanently stressed, so the
    controller prunes as soon as the estimator is warm."""
    settings_ = dict(
        cycle_events=40,
        batch_size=4,
        memory_budget_bytes=1,
        min_observations=20,
    )
    settings_.update(overrides)
    return AdaptiveConfig(**settings_)


def _stream(session):
    """One session's delivery stream, bit-for-bit."""
    return [
        (
            notification.sequence,
            notification.subscription_id,
            notification.delivery_seq,
            tuple(sorted(notification.event.items())),
        )
        for notification in session.sink.notifications
    ]


def _run_scenario(adaptive):
    """Auction phase → churn → tree-heavy phase, on one fresh service.

    Returns ``(per-client streams, controller report or None)``.  Every
    non-deterministic input is seeded, so two runs differ only in the
    ``adaptive`` argument.
    """
    auction = AuctionWorkload(AuctionWorkloadConfig(seed=1234))
    tree_heavy = TreeHeavyWorkload(TreeHeavyConfig(seed=99, attribute_count=6, depth=1))
    with PubSubService(
        topology=line_topology(4), max_batch=16, adaptive=adaptive
    ) as service:
        publisher = service.connect("b0", "publisher")
        clients = [
            service.connect("b%d" % (1 + index), "client%d" % index)
            for index in range(3)
        ]
        handles = []
        for index, subscription in enumerate(auction.generate_subscriptions(30)):
            handles.append(clients[index % 3].subscribe(subscription.tree))
        for event in auction.generate_events(240):
            publisher.publish(event)
        service.flush()
        # Churn: retire a third of the handles, register tree-heavy ones.
        for handle in handles[::3]:
            handle.unsubscribe()
        for index, subscription in enumerate(
            tree_heavy.generate_subscriptions(9)
        ):
            clients[index % 3].subscribe(subscription.tree)
        for event in tree_heavy.generate_events(240):
            publisher.publish(event)
        service.flush()
        streams = {client.client: _stream(client) for client in clients}
        report = service.adaptive.report() if service.adaptive is not None else None
    return streams, report


class TestDeliveryEquivalence:
    def test_streams_identical_under_churn_and_drift(self):
        oracle, none_report = _run_scenario(adaptive=None)
        adaptive, report = _run_scenario(adaptive=_adaptive_config())
        assert none_report is None
        assert report is not None
        # The controller must have actually done something, or the
        # equivalence below is vacuous.
        assert report["prunings_applied"] > 0
        assert report["bytes_reclaimed_total"] > 0
        assert adaptive == oracle

    def test_delivery_seq_gapless(self):
        streams, report = _run_scenario(adaptive=_adaptive_config())
        assert report["prunings_applied"] > 0
        for stream in streams.values():
            assert [entry[2] for entry in stream] == list(range(len(stream)))

    def test_controller_absent_without_config(self):
        with PubSubService(topology=line_topology(2)) as service:
            assert service.adaptive is None


def _warm_service(adaptive=None, subscription_count=12, event_count=80):
    """An adaptive service with registered subscriptions and warm statistics."""
    auction = AuctionWorkload(AuctionWorkloadConfig(seed=1234))
    service = PubSubService(
        topology=line_topology(3),
        max_batch=16,
        adaptive=adaptive
        or _adaptive_config(cycle_events=10**9, stop_degradation=None),
    )
    subscriber = service.connect("b2", "alice")
    for subscription in auction.generate_subscriptions(subscription_count):
        subscriber.subscribe(subscription.tree)
    publisher = service.connect("b0", "publisher")
    for event in auction.generate_events(event_count):
        publisher.publish(event)
    service.flush()
    return service


def _conditions(memory=0.0, bandwidth=0.0, cpu=0.0):
    return SystemConditions(
        memory_used_bytes=int(memory * 1000),
        memory_budget_bytes=1000,
        bandwidth_utilization=bandwidth,
        filter_saturation=cpu,
    )


def _pruned_inner_entries(service):
    """``(broker id, subscription id)`` of every pruned forwarding entry."""
    return {
        (broker_id, entry.original.id)
        for broker_id, broker in service.network.brokers.items()
        for entry in broker.non_local_entries()
        if entry.is_pruned
    }


def _inner_entries(service, sub_id):
    return [
        broker.entries[sub_id]
        for broker in service.network.brokers.values()
        if sub_id in broker.entries and not broker.entries[sub_id].interface.is_client
    ]


def _replace_and_unsubscribe_scenario(churn=None):
    """Prune, then replace one pruned subscription and unsubscribe another,
    publishing between every step.

    Without ``churn`` the service is adaptive: explicit stressed cycles
    drive the controller, it picks the two churned subscriptions among
    the pruned ones, and the churn contract is asserted along the way.
    With ``churn=(replaced id, removed id)`` the same inputs run through
    a controller-off oracle service.  Returns ``(subscriber stream,
    churned ids)``.
    """
    adaptive = churn is None
    auction = AuctionWorkload(AuctionWorkloadConfig(seed=1234))
    subscriptions = auction.generate_subscriptions(14)
    events = auction.generate_events(200)
    config = _adaptive_config(cycle_events=10**9, stop_degradation=None)
    with PubSubService(
        topology=line_topology(3),
        max_batch=16,
        adaptive=config if adaptive else None,
    ) as service:
        subscriber = service.connect("b2", "alice")
        handles = [
            subscriber.subscribe(subscription.tree)
            for subscription in subscriptions[:12]
        ]
        publisher = service.connect("b0", "publisher")

        def publish(chunk):
            for event in events[chunk * 40 : (chunk + 1) * 40]:
                publisher.publish(event)
            service.flush()

        def stressed_cycle():
            if adaptive:
                service.adaptive.run_cycle(_conditions(memory=0.95))

        publish(0)
        stressed_cycle()
        publish(1)
        controller = service.adaptive
        if adaptive:
            pruned = sorted(controller._applied)
            assert len(pruned) >= 2
            replaced_id, removed_id = pruned[0], pruned[1]
            reverted = (
                controller._applied_ops[replaced_id]
                + controller._applied_ops[removed_id]
            )
            stale_tree = controller._applied[replaced_id]
        else:
            replaced_id, removed_id = churn
        by_id = {handle.id: handle for handle in handles}
        new_tree = subscriptions[12].tree
        by_id[replaced_id].replace(new_tree)
        by_id[removed_id].unsubscribe()
        if adaptive:
            assert all(
                not entry.is_pruned for entry in _inner_entries(service, replaced_id)
            )
            assert _inner_entries(service, removed_id) == []
        publish(2)
        stressed_cycle()
        publish(3)
        stressed_cycle()
        stressed_cycle()
        publish(4)
        if adaptive:
            report = controller.report()
            assert report["prunings_reverted"] == reverted
            assert report["restores"] == 0
            engine = controller._pruner.engine
            assert removed_id not in engine
            assert removed_id not in controller._applied
            assert engine.state(replaced_id).original == new_tree
            for entry in _inner_entries(service, replaced_id):
                assert entry.original.tree == new_tree
                assert entry.current.tree != stale_tree
                if entry.is_pruned:
                    assert entry.current.tree == engine.state(replaced_id).current
        return _stream(subscriber), (replaced_id, removed_id)


class TestCycleLifecycle:
    def test_dimension_switch_shows_in_history(self):
        """Memory pressure then filter pressure: the history must show the
        controller switching dimensions mid-flight."""
        with _warm_service() as service:
            controller = service.adaptive
            assert controller.run_cycle(_conditions(memory=0.95))
            assert controller.run_cycle(_conditions(cpu=0.95))
            dimensions = [dimension for dimension, _count in controller._history]
            assert dimensions[:2] == ["mem", "eff"]

    def test_calm_system_prunes_nothing(self):
        with _warm_service() as service:
            assert service.adaptive.run_cycle(_conditions()) == []
            report = service.adaptive.report()
            assert report["prunings_applied"] == 0
            assert report["cycles"] == 1

    def test_cold_statistics_prune_nothing(self):
        with PubSubService(
            topology=line_topology(2), adaptive=_adaptive_config(min_observations=10**9)
        ) as service:
            session = service.connect("b1", "alice")
            session.subscribe(And(P("x") == 1, P("y") == 2))
            assert service.adaptive.run_cycle(_conditions(memory=0.95)) == []

    def test_unprune_restores_exact_tables(self):
        with _warm_service() as service:
            exact_bytes = service.network.table_size_bytes
            controller = service.adaptive
            assert controller.run_cycle(_conditions(memory=0.95))
            assert service.network.table_size_bytes < exact_bytes
            applied = controller.report()["prunings_applied"]
            # Still above the release low-water mark: pruning stays.
            assert controller.run_cycle(_conditions(memory=0.6)) == []
            assert service.network.table_size_bytes < exact_bytes
            # Fully becalmed: forwarding tables return to exact.
            assert controller.run_cycle(_conditions()) == []
            report = controller.report()
            assert service.network.table_size_bytes == exact_bytes
            assert report["prunings_reverted"] == applied
            assert report["subscriptions_pruned"] == 0
            assert report["bytes_reclaimed"] == 0
            assert report["bytes_reclaimed_total"] > 0

    def test_churn_keeps_plan_and_plans_new_subscription(self):
        """An unrelated subscribe neither reverts nor re-plans the applied
        prunings: the next stressed cycle only adds the newcomer."""
        with _warm_service() as service:
            controller = service.adaptive
            assert controller.run_cycle(_conditions(memory=0.95))
            first_applied = controller.report()["prunings_applied"]
            pruned_before = _pruned_inner_entries(service)
            assert pruned_before
            session = service.connect("b1", "bob")
            handle = session.subscribe(
                And(P("category") == "coins", P("price") <= 10.0)
            )
            assert controller.run_cycle(_conditions(memory=0.95))
            report = controller.report()
            assert report["prunings_reverted"] == 0
            assert report["restores"] == 0
            assert report["prunings_applied"] > first_applied
            assert pruned_before <= _pruned_inner_entries(service)
            assert handle.id in controller._pruner.engine

    def test_churn_of_pruned_subscriptions_reverts_only_them(self):
        """Replacing one pruned subscription and unsubscribing another
        reverts exactly their prunings; the stale tree is never applied
        again and delivery equals the controller-off oracle throughout."""
        adaptive, churn = _replace_and_unsubscribe_scenario()
        oracle, _churn = _replace_and_unsubscribe_scenario(churn=churn)
        assert adaptive == oracle

    def test_unprunable_table_is_not_rescanned(self, monkeypatch):
        """A table without prunable subscriptions keeps an (empty) engine:
        a second stressed cycle at the same table version performs no
        prunability check, and a later prunable subscribe enters the plan."""
        calls = []
        real_is_prunable = controller_module.is_prunable

        def counting_is_prunable(tree, *args, **kwargs):
            calls.append(tree)
            return real_is_prunable(tree, *args, **kwargs)

        monkeypatch.setattr(controller_module, "is_prunable", counting_is_prunable)
        with PubSubService(
            topology=line_topology(3),
            adaptive=_adaptive_config(cycle_events=10**9, stop_degradation=None),
        ) as service:
            subscriber = service.connect("b2", "alice")
            for value in range(6):
                subscriber.subscribe(P("x") == value)
            publisher = service.connect("b0", "publisher")
            for index in range(40):
                publisher.publish(Event({"x": index % 6, "y": index % 3}))
            service.flush()
            controller = service.adaptive
            assert controller.run_cycle(_conditions(memory=0.95)) == []
            assert len(calls) == 6
            calls.clear()
            assert controller.run_cycle(_conditions(memory=0.95)) == []
            assert calls == []
            handle = subscriber.subscribe(And(P("x") == 1, P("y") == 2))
            assert controller.run_cycle(_conditions(memory=0.95))
            assert len(calls) == 1
            assert handle.id in controller._pruner.engine
            assert controller.report()["subscriptions_pruned"] == 1

    def test_report_estimated_and_realized_deltas(self):
        with _warm_service() as service:
            controller = service.adaptive
            assert controller.run_cycle(_conditions(memory=0.95))
            report = controller.report()
            estimated = report["estimated_delta_sel"]
            realized = report["realized_delta_sel"]
            assert set(estimated) == set(realized)
            assert estimated  # at least one pruned subscription
            for sub_id, delta in realized.items():
                # Pruning generalizes: realized selectivity can only grow.
                assert delta >= 0.0
                assert estimated[sub_id] >= 0.0

    def test_run_cycle_records_conditions(self):
        with _warm_service() as service:
            service.adaptive.run_cycle(_conditions(bandwidth=0.3))
            conditions = service.adaptive.report()["last_conditions"]
            assert conditions["bandwidth_utilization"] == 0.3


@given(
    trees_=st.lists(trees(max_leaves=6), min_size=1, max_size=5),
    events_=st.lists(event_strategy(), min_size=1, max_size=30),
)
@settings(max_examples=15, deadline=None)
def test_random_workload_equivalence(trees_, events_):
    """House equivalence property: for random trees and events, adaptive-on
    delivery is bit-identical to the controller-off oracle."""

    def run(adaptive):
        with PubSubService(
            topology=line_topology(3),
            max_batch=4,
            adaptive=adaptive,
        ) as service:
            subscriber = service.connect("b2", "alice")
            for tree in trees_:
                subscriber.subscribe(tree)
            publisher = service.connect("b0", "publisher")
            for event in events_:
                publisher.publish(event)
            service.flush()
            if service.adaptive is not None:
                # Force at least one stressed cycle regardless of volume.
                service.adaptive.run_cycle(
                    SystemConditions(1, 1, 0.0, 0.0)
                )
                for event in events_:
                    publisher.publish(event)
                service.flush()
                return _stream(subscriber)
            for event in events_:
                publisher.publish(event)
            service.flush()
            return _stream(subscriber)

    oracle = run(None)
    adaptive = run(_adaptive_config(cycle_events=8, min_observations=1))
    assert adaptive == oracle
