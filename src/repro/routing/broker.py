"""A single publish/subscribe broker.

Each broker owns one routing table: entries mapping a subscription id to
the *interface* the subscription arrived from — either a local client or a
neighbor broker.  Matching an event against the table (with the counting
engine) yields the interfaces the event must be delivered or forwarded to.

Pruning only ever touches entries whose interface is a neighbor broker
(non-local clients, paper Sect. 2.2): the entry's tree is replaced with a
generalized version while the original is retained for reference, so the
broker can report both exact and pruned table sizes.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from repro.errors import RoutingError
from repro.events import Event, EventBatch
from repro.matching.counting import CountingMatcher
from repro.matching.interfaces import Matcher
from repro.matching.sharded import ExecutorSpec, ShardedMatcher
from repro.subscriptions.nodes import Node
from repro.subscriptions.subscription import Subscription


class Interface(NamedTuple):
    """Where a routing entry came from (and where matches are sent to)."""

    kind: str  #: ``"client"`` or ``"broker"``
    name: str  #: client name or neighbor broker id

    @classmethod
    def client(cls, name: str) -> "Interface":
        return cls("client", name)

    @classmethod
    def broker(cls, broker_id: str) -> "Interface":
        return cls("broker", broker_id)

    @property
    def is_client(self) -> bool:
        return self.kind == "client"


class RoutingEntry:
    """One routing-table entry: a subscription and its source interface."""

    __slots__ = ("original", "current", "interface")

    def __init__(self, subscription: Subscription, interface: Interface) -> None:
        self.original = subscription
        self.current = subscription
        self.interface = interface

    @property
    def is_pruned(self) -> bool:
        """Whether the current tree differs from the registered one."""
        return self.current is not self.original

    @property
    def subscription_id(self) -> int:
        return self.original.id


class Broker:
    """One broker: routing table, counting matcher, neighbor links.

    ``shards`` switches the broker's engine from one
    :class:`CountingMatcher` to a :class:`ShardedMatcher` over that many
    independent slot shards; ``executor`` picks where the shards run
    (``"serial"`` in the broker's process, ``"processes"`` in worker
    processes fed shared-memory batches — see
    :mod:`repro.matching.sharded`).  Results are identical either way;
    only worker processes let one table use more than one core.  Brokers
    are context managers: ``with Broker(...) as broker:`` tears the
    engine down (worker pools, shared segments) on exit.
    """

    def __init__(
        self,
        broker_id: str,
        *,
        shards: Optional[int] = None,
        executor: ExecutorSpec = "serial",
    ) -> None:
        self.id = broker_id
        self.neighbors: List[str] = []
        self.matcher: Matcher = (
            CountingMatcher()
            if shards is None
            else ShardedMatcher(shards, executor=executor)
        )
        self.entries: Dict[int, RoutingEntry] = {}

    # -- wiring -----------------------------------------------------------------

    def connect(self, neighbor_id: str) -> None:
        """Attach a neighbor broker (wiring is done by the network)."""
        if neighbor_id == self.id:
            raise RoutingError("broker cannot neighbor itself")
        if neighbor_id in self.neighbors:
            raise RoutingError("duplicate neighbor %r" % neighbor_id)
        self.neighbors.append(neighbor_id)
        self.neighbors.sort()

    # -- routing table ------------------------------------------------------------

    def add_entry(self, subscription: Subscription, interface: Interface) -> None:
        """Insert a routing entry (a subscription seen via ``interface``)."""
        if subscription.id in self.entries:
            raise RoutingError(
                "broker %s already has an entry for subscription %d"
                % (self.id, subscription.id)
            )
        if interface.kind == "broker" and interface.name not in self.neighbors:
            raise RoutingError(
                "broker %s has no neighbor %r" % (self.id, interface.name)
            )
        self.entries[subscription.id] = RoutingEntry(subscription, interface)
        self.matcher.register(subscription)

    def remove_entry(self, subscription_id: int) -> Interface:
        """Drop a routing entry; returns the interface it pointed to."""
        entry = self.entries.pop(subscription_id, None)
        if entry is None:
            raise RoutingError(
                "broker %s has no entry for subscription %d"
                % (self.id, subscription_id)
            )
        self.matcher.unregister(subscription_id)
        return entry.interface

    def replace_entry(self, subscription: Subscription) -> None:
        """Swap an entry's *registered* tree for a new one, keeping its id.

        Unlike :meth:`prune_entry` this rebinds the entry's original
        subscription (the client changed what it is subscribed to), so
        any pruning previously applied to the old tree is dropped.
        """
        entry = self.entries.get(subscription.id)
        if entry is None:
            raise RoutingError(
                "broker %s has no entry for subscription %d"
                % (self.id, subscription.id)
            )
        entry.original = subscription
        entry.current = subscription
        self.matcher.replace(subscription)

    def prune_entry(self, subscription_id: int, pruned_tree: Node) -> None:
        """Replace a non-local entry's tree with a generalized version.

        Local-client entries must stay exact — they are what guarantees
        correct delivery — so pruning them is rejected.
        """
        entry = self.entries.get(subscription_id)
        if entry is None:
            raise RoutingError(
                "broker %s has no entry for subscription %d"
                % (self.id, subscription_id)
            )
        if entry.interface.is_client:
            raise RoutingError(
                "refusing to prune local-client subscription %d at broker %s"
                % (subscription_id, self.id)
            )
        entry.current = entry.original.with_tree(pruned_tree)
        self.matcher.replace(entry.current)

    def restore_entry(self, subscription_id: int) -> None:
        """Undo all pruning of one entry (back to the registered tree)."""
        entry = self.entries.get(subscription_id)
        if entry is None:
            raise RoutingError(
                "broker %s has no entry for subscription %d"
                % (self.id, subscription_id)
            )
        if entry.is_pruned:
            entry.current = entry.original
            self.matcher.replace(entry.current)

    def non_local_entries(self) -> List[RoutingEntry]:
        """Entries eligible for pruning (from neighbor brokers)."""
        return [
            entry
            for _sub_id, entry in sorted(self.entries.items())
            if not entry.interface.is_client
        ]

    def local_clients(self) -> List[str]:
        """Names of clients with at least one entry at this broker."""
        return sorted(
            {
                entry.interface.name
                for entry in self.entries.values()
                if entry.interface.is_client
            }
        )

    # -- matching ----------------------------------------------------------------

    def route(self, event: Event, exclude: Optional[str] = None) -> Dict[Interface, List[int]]:
        """Match ``event`` and group fulfilled entries by interface.

        ``exclude`` suppresses the broker interface the event arrived from
        (events are never sent back where they came from).
        """
        return self._group_by_interface(self.matcher.match(event), exclude)

    def route_batch(
        self,
        events: Union[Sequence[Event], EventBatch],
        exclude: Optional[str] = None,
    ) -> List[Dict[Interface, List[int]]]:
        """Match a whole event batch; one interface grouping per event.

        Matching runs through the engine's vectorized batch path, so
        forwarding brokers pay one index probe and one candidate test
        per batch instead of one per event.  Passing an
        :class:`~repro.events.EventBatch` whose columns are already
        built (e.g. a sub-batch the network derived from the published
        batch) skips re-columnarizing the events at this broker.
        """
        return [
            self._group_by_interface(matched, exclude)
            for matched in self.matcher.match_batch(events)
        ]

    def _group_by_interface(
        self, subscription_ids: List[int], exclude: Optional[str]
    ) -> Dict[Interface, List[int]]:
        routed: Dict[Interface, List[int]] = {}
        for subscription_id in subscription_ids:
            interface = self.entries[subscription_id].interface
            if (
                exclude is not None
                and interface.kind == "broker"
                and interface.name == exclude
            ):
                continue
            routed.setdefault(interface, []).append(subscription_id)
        return routed

    # -- accounting -----------------------------------------------------------------

    @property
    def association_count(self) -> int:
        """Predicate/subscription associations in the current table."""
        return sum(entry.current.leaf_count for entry in self.entries.values())

    @property
    def non_local_association_count(self) -> int:
        """Associations contributed by non-local entries only (Fig. 1(f))."""
        return sum(
            entry.current.leaf_count
            for entry in self.entries.values()
            if not entry.interface.is_client
        )

    @property
    def table_size_bytes(self) -> int:
        """mem≈ of all current entry trees."""
        return sum(entry.current.size_bytes for entry in self.entries.values())

    @property
    def filter_seconds(self) -> float:
        """Wall-clock seconds this broker spent matching."""
        return self.matcher.statistics.elapsed_seconds

    def reset_statistics(self) -> None:
        """Zero the matcher counters (between measurement points)."""
        self.matcher.statistics.reset()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release matcher resources (a sharded engine's worker pool).

        Idempotent, and the broker stays usable: a sharded matcher
        lazily rebuilds its pool on the next batch.
        """
        self.matcher.close()

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return "Broker(%s, %d entries, neighbors=%s)" % (
            self.id,
            len(self.entries),
            self.neighbors,
        )
