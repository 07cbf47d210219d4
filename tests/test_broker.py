"""Tests for single-broker routing tables."""

import pytest

from repro.errors import RoutingError
from repro.events import Event
from repro.routing.broker import Broker, Interface
from repro.subscriptions.builder import And, P
from repro.subscriptions.normalize import normalize
from repro.subscriptions.subscription import Subscription


@pytest.fixture()
def broker():
    broker = Broker("b0")
    broker.connect("b1")
    broker.connect("b2")
    return broker


def sub(sub_id, tree, owner=None):
    return Subscription(sub_id, tree, owner=owner)


class TestWiring:
    def test_connect_sorted(self, broker):
        assert broker.neighbors == ["b1", "b2"]

    def test_reject_self_neighbor(self):
        with pytest.raises(RoutingError):
            Broker("x").connect("x")

    def test_reject_duplicate_neighbor(self, broker):
        with pytest.raises(RoutingError):
            broker.connect("b1")


class TestEntries:
    def test_add_and_route_client_entry(self, broker):
        broker.add_entry(sub(1, P("a") == 1), Interface.client("alice"))
        routed = broker.route_batch([Event({"a": 1})])[0]
        assert routed == {Interface.client("alice"): [1]}

    def test_add_broker_entry_requires_neighbor(self, broker):
        with pytest.raises(RoutingError):
            broker.add_entry(sub(1, P("a") == 1), Interface.broker("zz"))

    def test_duplicate_entry_rejected(self, broker):
        broker.add_entry(sub(1, P("a") == 1), Interface.client("alice"))
        with pytest.raises(RoutingError):
            broker.add_entry(sub(1, P("a") == 2), Interface.client("bob"))

    def test_remove_entry(self, broker):
        broker.add_entry(sub(1, P("a") == 1), Interface.client("alice"))
        interface = broker.remove_entry(1)
        assert interface == Interface.client("alice")
        assert broker.route_batch([Event({"a": 1})])[0] == {}

    def test_remove_unknown_rejected(self, broker):
        with pytest.raises(RoutingError):
            broker.remove_entry(9)

    def test_route_excludes_origin_interface(self, broker):
        broker.add_entry(sub(1, P("a") == 1), Interface.broker("b1"))
        broker.add_entry(sub(2, P("a") == 1), Interface.broker("b2"))
        routed = broker.route_batch([Event({"a": 1})], exclude="b1")[0]
        assert Interface.broker("b1") not in routed
        assert routed[Interface.broker("b2")] == [2]

    def test_local_clients_listed(self, broker):
        broker.add_entry(sub(1, P("a") == 1), Interface.client("alice"))
        broker.add_entry(sub(2, P("a") == 1), Interface.broker("b1"))
        assert broker.local_clients() == ["alice"]


class TestPruning:
    def test_prune_non_local_entry(self, broker):
        original = sub(1, And(P("a") == 1, P("b") == 2))
        broker.add_entry(original, Interface.broker("b1"))
        broker.prune_entry(1, normalize(P("a") == 1))
        assert broker.route_batch([Event({"a": 1})])[0][Interface.broker("b1")] == [1]
        entry = broker.entries[1]
        assert entry.is_pruned
        assert entry.original is original

    def test_prune_local_entry_rejected(self, broker):
        broker.add_entry(sub(1, And(P("a") == 1, P("b") == 2)), Interface.client("c"))
        with pytest.raises(RoutingError):
            broker.prune_entry(1, normalize(P("a") == 1))

    def test_prune_unknown_rejected(self, broker):
        with pytest.raises(RoutingError):
            broker.prune_entry(9, normalize(P("a") == 1))

    def test_restore_entry(self, broker):
        broker.add_entry(sub(1, And(P("a") == 1, P("b") == 2)), Interface.broker("b1"))
        broker.prune_entry(1, normalize(P("a") == 1))
        broker.restore_entry(1)
        assert not broker.entries[1].is_pruned
        assert broker.route_batch([Event({"a": 1})])[0] == {}

    def test_non_local_entries(self, broker):
        broker.add_entry(sub(1, P("a") == 1), Interface.client("alice"))
        broker.add_entry(sub(2, P("a") == 1), Interface.broker("b1"))
        non_local = broker.non_local_entries()
        assert [entry.subscription_id for entry in non_local] == [2]


class TestAccounting:
    def test_association_counts(self, broker):
        broker.add_entry(sub(1, And(P("a") == 1, P("b") == 2)), Interface.client("c"))
        broker.add_entry(sub(2, And(P("a") == 1, P("b") == 2)), Interface.broker("b1"))
        assert broker.association_count == 4
        assert broker.non_local_association_count == 2
        broker.prune_entry(2, normalize(P("a") == 1))
        assert broker.association_count == 3
        assert broker.non_local_association_count == 1

    def test_table_size_shrinks_with_pruning(self, broker):
        broker.add_entry(sub(1, And(P("a") == 1, P("b") == 2)), Interface.broker("b1"))
        before = broker.table_size_bytes
        broker.prune_entry(1, normalize(P("a") == 1))
        assert broker.table_size_bytes < before

    def test_filter_seconds_accumulate(self, broker):
        broker.add_entry(sub(1, P("a") == 1), Interface.client("c"))
        broker.route_batch([Event({"a": 1})])
        assert broker.filter_seconds > 0
        broker.reset_statistics()
        assert broker.filter_seconds == 0
