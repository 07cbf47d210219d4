"""An in-process broker network with exact link accounting.

Subscription forwarding and event routing run synchronously over the
acyclic topology: propagation is a tree walk, so every message is counted
exactly once per traversed link.  This replaces the paper's five-machine
testbed; message *counts* are exact, transmission *time* is modelled by
:class:`~repro.routing.metrics.CostModel`.
"""

from __future__ import annotations

import warnings
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import RoutingError
from repro.events import Event, EventBatch
from repro.matching.sharded import ExecutorSpec
from repro.routing.broker import Broker, Interface
from repro.routing.metrics import CostModel, LinkStats, NetworkReport
from repro.routing.topology import Topology
from repro.subscriptions.nodes import Node
from repro.subscriptions.serialize import encode_node
from repro.subscriptions.subscription import Subscription

#: Wire overhead of one subscription-forwarding message beyond the tree
#: encoding (framing, subscription id, action tag).
_SUBSCRIPTION_MESSAGE_OVERHEAD = 24


class Delivery(NamedTuple):
    """One notification: ``client`` at ``broker_id`` matched ``subscription_id``."""

    client: str
    broker_id: str
    subscription_id: int


class PublishResult(NamedTuple):
    """Outcome of publishing one event."""

    deliveries: List[Delivery]        #: notifications to local clients
    event_messages: int               #: broker-to-broker event sends
    brokers_visited: int              #: brokers that filtered the event


#: Called at the end of every :meth:`BrokerNetwork.publish_batch` with the
#: batch's events and their per-event results, in batch order.  This is how
#: the service layer (:mod:`repro.service`) observes deliveries regardless
#: of which publish entry point produced them.
DeliveryHook = Callable[[Sequence[Event], Sequence[PublishResult]], None]


class BrokerNetwork:
    """A network of brokers over an acyclic topology.

    ``shards``/``executor`` configure every broker's matching engine:
    with ``shards=K`` each broker partitions its table into K
    independent slot shards — run in the broker's process by default,
    or in persistent worker processes with ``executor="processes"``
    (see :mod:`repro.matching.sharded`); results and accounting are
    identical to the unsharded default.
    The network is a context manager; exiting closes every broker.

    >>> from repro.routing.topology import line_topology
    >>> from repro.subscriptions import P, And
    >>> from repro.events import Event
    >>> network = BrokerNetwork(line_topology(3))
    >>> sub = network.subscribe("b2", "alice", And(P("x") == 1, P("y") == 2))
    >>> result = network.publish("b0", Event({"x": 1, "y": 2}))
    >>> result.deliveries
    [Delivery(client='alice', broker_id='b2', subscription_id=0)]
    >>> result.event_messages  # two hops: b0->b1, b1->b2
    2
    """

    def __init__(
        self,
        topology: Topology,
        cost_model: Optional[CostModel] = None,
        *,
        shards: Optional[int] = None,
        executor: ExecutorSpec = "serial",
    ) -> None:
        self.topology = topology
        self.cost_model = cost_model or CostModel()
        self.brokers: Dict[str, Broker] = {
            broker_id: Broker(broker_id, shards=shards, executor=executor)
            for broker_id in topology.broker_ids
        }
        for left, right in topology.edges:
            self.brokers[left].connect(right)
            self.brokers[right].connect(left)
        self._links: Dict[Tuple[str, str], LinkStats] = {}
        for left, right in topology.edges:
            self._links[(left, right)] = LinkStats()
            self._links[(right, left)] = LinkStats()
        self._next_subscription_id = 0
        self._reserved_ids: Set[int] = set()
        self._delivery_hook: Optional[DeliveryHook] = None
        self._home: Dict[int, Tuple[str, str]] = {}
        self._table_version = 0
        self._subscription_messages = 0
        self._subscription_bytes = 0
        self._events_published = 0
        self._deliveries = 0

    # -- subscriptions -------------------------------------------------------------

    @property
    def table_version(self) -> int:
        """Monotone counter bumped by every subscription churn operation.

        Subscribe, unsubscribe, and replace each increment it; applied
        *prunings* do not (they change trees, not which subscriptions
        exist).  Consumers that cache per-subscription plans — the
        adaptive pruning controller above all — compare versions to
        detect that their snapshot of the subscription set went stale.
        """
        return self._table_version

    def registered_subscriptions(self) -> Dict[int, Subscription]:
        """All live subscriptions with their exact *registered* trees.

        Read from each subscription's home-broker entry, which is never
        pruned, so the returned trees are the delivery-correct originals
        regardless of any pruning applied to forwarding tables.
        """
        subscriptions: Dict[int, Subscription] = {}
        for subscription_id, (broker_id, _client) in self._home.items():
            entry = self.brokers[broker_id].entries[subscription_id]
            subscriptions[subscription_id] = entry.original
        return subscriptions

    def allocate_subscription_id(self) -> int:
        """Reserve and return the next globally unique subscription id.

        This is the server-assigned identity path used by the service
        layer: the reserved id is accepted (exactly once) by
        :meth:`subscribe` without the deprecation warning that
        caller-chosen ids draw.
        """
        subscription_id = self._next_subscription_id
        self._next_subscription_id += 1
        self._reserved_ids.add(subscription_id)
        return subscription_id

    def subscribe(
        self,
        broker_id: str,
        client: str,
        tree: Node,
        subscription_id: Optional[int] = None,
    ) -> Subscription:
        """Register a subscription at a client's home broker and forward it.

        Returns the registered :class:`Subscription` (with its global id).
        Passing a caller-chosen ``subscription_id`` (one not reserved via
        :meth:`allocate_subscription_id`) is deprecated — use the service
        layer (:class:`repro.service.PubSubService`), which hands out
        opaque handles instead of global ints.
        """
        home = self._broker(broker_id)
        if subscription_id is None:
            subscription_id = self._next_subscription_id
            self._next_subscription_id += 1
        elif subscription_id in self._reserved_ids:
            self._reserved_ids.discard(subscription_id)
        elif subscription_id < self._next_subscription_id:
            raise RoutingError("subscription id %d already used" % subscription_id)
        else:
            warnings.warn(
                "caller-chosen subscription ids are deprecated; use "
                "repro.service.PubSubService sessions (server-assigned "
                "handles) or BrokerNetwork.allocate_subscription_id()",
                DeprecationWarning,
                stacklevel=2,
            )
            self._next_subscription_id = subscription_id + 1
        subscription = Subscription(subscription_id, tree, owner=client)
        home.add_entry(subscription, Interface.client(client))
        self._home[subscription.id] = (broker_id, client)
        self._table_version += 1
        wire_size = len(encode_node(subscription.tree)) + _SUBSCRIPTION_MESSAGE_OVERHEAD
        self._flood(
            broker_id,
            wire_size,
            lambda broker, sender: broker.add_entry(
                subscription, Interface.broker(sender)
            ),
        )
        return subscription

    def _flood(
        self,
        origin: str,
        wire_size: int,
        apply: Callable[[Broker, str], None],
    ) -> None:
        """Walk the tree away from ``origin``, applying a table change.

        Records one subscription-traffic message of ``wire_size`` bytes
        per traversed link and calls ``apply(broker, sender)`` at every
        broker reached.
        """
        queue: List[Tuple[str, str]] = [
            (neighbor, origin) for neighbor in self.brokers[origin].neighbors
        ]
        while queue:
            broker_id, sender = queue.pop()
            self._record_link(sender, broker_id, wire_size, subscription_traffic=True)
            broker = self.brokers[broker_id]
            apply(broker, sender)
            for neighbor in broker.neighbors:
                if neighbor != sender:
                    queue.append((neighbor, broker_id))

    def unsubscribe(self, subscription_id: int) -> None:
        """Remove a subscription from every broker's table."""
        if subscription_id not in self._home:
            raise RoutingError("unknown subscription id %d" % subscription_id)
        origin, _client = self._home.pop(subscription_id)
        self._table_version += 1
        self._broker(origin).remove_entry(subscription_id)
        self._flood(
            origin,
            _SUBSCRIPTION_MESSAGE_OVERHEAD,
            lambda broker, sender: broker.remove_entry(subscription_id),
        )

    def replace_subscription(self, subscription_id: int, tree: Node) -> Subscription:
        """Swap the tree of a live subscription everywhere, keeping its id.

        The new tree becomes the *registered* tree at every broker (any
        pruning applied to the old entries is dropped), and the change is
        flooded with the same subscription-traffic accounting as a fresh
        subscribe.  This is the substrate behind
        :meth:`repro.service.SubscriptionHandle.replace`.
        """
        home = self._home.get(subscription_id)
        if home is None:
            raise RoutingError("unknown subscription id %d" % subscription_id)
        origin, client = home
        subscription = Subscription(subscription_id, tree, owner=client)
        self._table_version += 1
        self.brokers[origin].replace_entry(subscription)
        wire_size = len(encode_node(subscription.tree)) + _SUBSCRIPTION_MESSAGE_OVERHEAD
        self._flood(
            origin,
            wire_size,
            lambda broker, sender: broker.replace_entry(subscription),
        )
        return subscription

    # -- events ----------------------------------------------------------------------

    def publish(self, broker_id: str, event: Event) -> PublishResult:
        """Publish one event and route it to all matching subscribers."""
        return self.publish_batch(broker_id, [event])[0]

    def publish_batch(
        self, broker_id: str, events: Union[Sequence[Event], EventBatch]
    ) -> List[PublishResult]:
        """Publish a whole event batch from one origin broker.

        The batch travels the topology *as a batch*: each broker filters
        the sub-batch of events that reached it with one vectorized
        ``route_batch`` call, and each link forwards the sub-batch of
        events routed over it.  The origin broker columnarizes the batch
        once; every downstream broker derives its sub-batch's columns by
        row selection from that shared columnar view.  Per-event message
        counts, deliveries, and link accounting are identical to
        publishing the events one by one; one :class:`PublishResult` is
        returned per event, in order.
        """
        batch = EventBatch.coerce(events)
        events = batch.events
        self._broker(broker_id)
        # Snapshot the hook before routing: a concurrent
        # set_delivery_hook(None) (a service detaching) must not turn
        # the hook into None between the routing work and the dispatch
        # of its results.
        hook = self._delivery_hook
        self._events_published += len(events)
        count = len(events)
        deliveries_per: List[List[Delivery]] = [[] for _ in range(count)]
        messages_per = [0] * count
        visited_per = [0] * count
        # Queue items carry the event positions still riding this branch.
        queue: List[Tuple[str, Optional[str], List[int]]] = [
            (broker_id, None, list(range(count)))
        ]
        while queue:
            current_id, sender, positions = queue.pop()
            broker = self.brokers[current_id]
            sub_batch = batch if len(positions) == count else batch.subset(positions)
            routed_batch = broker.route_batch(sub_batch, exclude=sender)
            forward: Dict[str, List[int]] = {}
            for position, routed in zip(positions, routed_batch):
                visited_per[position] += 1
                for interface in sorted(routed):
                    if interface.is_client:
                        for subscription_id in sorted(routed[interface]):
                            deliveries_per[position].append(
                                Delivery(interface.name, current_id, subscription_id)
                            )
                    else:
                        forward.setdefault(interface.name, []).append(position)
            for neighbor in sorted(forward):
                forwarded = forward[neighbor]
                for position in forwarded:
                    self._record_link(
                        current_id, neighbor, events[position].size_bytes
                    )
                    messages_per[position] += 1
                queue.append((neighbor, current_id, forwarded))
        total_deliveries = sum(len(d) for d in deliveries_per)
        self._deliveries += total_deliveries
        results = [
            PublishResult(deliveries_per[i], messages_per[i], visited_per[i])
            for i in range(count)
        ]
        if hook is not None:
            hook(events, results)
        return results

    def set_delivery_hook(self, hook: Optional[DeliveryHook]) -> None:
        """Install (or clear, with ``None``) the delivery hook.

        The hook observes every published batch with its per-event
        results, whatever entry point published it.  Only one hook may
        be installed at a time — the service layer owns it when a
        :class:`repro.service.PubSubService` wraps this network.

        Threading: the substrate itself takes no locks — the hook must
        be safe to call from whichever thread publishes (the service's
        dispatcher serializes internally on its publish lock).  Each
        ``publish_batch`` snapshots the hook before routing, so clearing
        it concurrently lets in-flight publishes finish their dispatch
        instead of silently dropping it.
        """
        if hook is not None and self._delivery_hook is not None:
            raise RoutingError("a delivery hook is already installed")
        self._delivery_hook = hook

    def publish_many(
        self, broker_ids: Iterable[str], events: Iterable[Event]
    ) -> List[PublishResult]:
        """Publish events round-robin over ``broker_ids``, one per event.

        Delegates to :meth:`publish_batch` per origin-broker group (the
        vectorized path) instead of looping :meth:`publish`; results,
        deliveries, and link accounting are identical to the sequential
        loop, and are returned in input-event order.
        """
        pairs = list(zip(broker_ids, events))
        if not pairs:
            return []
        origins = [origin for origin, _event in pairs]
        batch = EventBatch([event for _origin, event in pairs])
        return self._publish_grouped(origins, batch)

    def publish_round_robin(
        self, broker_ids: Sequence[str], events: Union[Sequence[Event], EventBatch]
    ) -> List[PublishResult]:
        """Batch equivalent of round-robin publishing.

        Events are grouped by their round-robin origin broker and each
        group is published with :meth:`publish_batch`; results are
        returned re-ordered to match the input event order.  Passing an
        :class:`~repro.events.EventBatch` columnarizes once and shares
        the columns across all origin groups (and across repeated calls
        with the same batch, e.g. an experiment's pruning grid).
        """
        batch = EventBatch.coerce(events)
        origins = [
            broker_ids[position % len(broker_ids)]
            for position in range(len(batch.events))
        ]
        return self._publish_grouped(origins, batch)

    def _publish_grouped(
        self, origins: Sequence[str], batch: EventBatch
    ) -> List[PublishResult]:
        """Publish ``batch`` with per-event origins, one sub-batch per origin.

        The batch is columnarized once and shared by every origin
        group's sub-batch; results are re-ordered to input-event order.
        """
        batch.columns()  # built once, shared by every subset below
        groups: Dict[str, List[int]] = {}
        for position, origin in enumerate(origins):
            groups.setdefault(origin, []).append(position)
        results: List[Optional[PublishResult]] = [None] * len(origins)
        for origin, positions in groups.items():
            sub_batch = (
                batch if len(positions) == len(origins) else batch.subset(positions)
            )
            for position, result in zip(positions, self.publish_batch(origin, sub_batch)):
                results[position] = result
        return results  # type: ignore[return-value]

    # -- pruning -----------------------------------------------------------------------

    def apply_pruned_tables(
        self, per_broker: Dict[str, Dict[int, Node]]
    ) -> None:
        """Replace non-local entry trees broker by broker.

        ``per_broker`` maps broker id → {subscription id → pruned tree};
        entries not mentioned keep their current tree.
        """
        for broker_id, trees in per_broker.items():
            broker = self._broker(broker_id)
            for subscription_id, tree in trees.items():
                broker.prune_entry(subscription_id, tree)

    def restore_all_entries(self) -> None:
        """Undo all pruning network-wide."""
        for broker in self.brokers.values():
            for entry in broker.non_local_entries():
                broker.restore_entry(entry.subscription_id)

    # -- accounting ---------------------------------------------------------------------

    def _broker(self, broker_id: str) -> Broker:
        try:
            return self.brokers[broker_id]
        except KeyError:
            raise RoutingError("unknown broker %r" % broker_id)

    def _record_link(
        self,
        sender: str,
        receiver: str,
        size_bytes: int,
        subscription_traffic: bool = False,
    ) -> None:
        link = self._links.get((sender, receiver))
        if link is None:
            raise RoutingError("no link %s->%s" % (sender, receiver))
        link.record(size_bytes)
        if subscription_traffic:
            self._subscription_messages += 1
            self._subscription_bytes += size_bytes

    def report(self) -> NetworkReport:
        """Snapshot of all counters since the last reset."""
        event_messages = 0
        event_bytes = 0
        per_link: Dict[Tuple[str, str], int] = {}
        per_link_bytes: Dict[Tuple[str, str], int] = {}
        for key, link in self._links.items():
            per_link[key] = link.messages
            per_link_bytes[key] = link.bytes
            event_messages += link.messages
            event_bytes += link.bytes
        event_messages -= self._subscription_messages
        event_bytes -= self._subscription_bytes
        filter_seconds = sum(
            broker.filter_seconds for broker in self.brokers.values()
        )
        return NetworkReport(
            event_messages=event_messages,
            event_bytes=event_bytes,
            subscription_messages=self._subscription_messages,
            subscription_bytes=self._subscription_bytes,
            per_link_messages=per_link,
            deliveries=self._deliveries,
            events_published=self._events_published,
            filter_seconds=filter_seconds,
            cost_model=self.cost_model,
            per_link_bytes=per_link_bytes,
        )

    def close(self) -> None:
        """Release every broker's matcher resources (shard worker pools).

        Idempotent; the network stays usable afterwards (sharded
        matchers rebuild their pools lazily on the next batch).  A
        no-op for unsharded networks.
        """
        for broker in self.brokers.values():
            broker.close()

    def __enter__(self) -> "BrokerNetwork":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def reset_statistics(self) -> None:
        """Zero link counters, broker matcher stats, and event counters.

        Routing tables (and applied prunings) are left untouched.
        """
        for link in self._links.values():
            link.reset()
        for broker in self.brokers.values():
            broker.reset_statistics()
        self._subscription_messages = 0
        self._subscription_bytes = 0
        self._events_published = 0
        self._deliveries = 0

    # -- table-wide metrics ----------------------------------------------------------------

    @property
    def association_count(self) -> int:
        """Predicate/subscription associations across all brokers."""
        return sum(broker.association_count for broker in self.brokers.values())

    @property
    def non_local_association_count(self) -> int:
        """Associations from non-local entries only (Fig. 1(f))."""
        return sum(
            broker.non_local_association_count for broker in self.brokers.values()
        )

    @property
    def table_size_bytes(self) -> int:
        """mem≈ of all routing tables."""
        return sum(broker.table_size_bytes for broker in self.brokers.values())
