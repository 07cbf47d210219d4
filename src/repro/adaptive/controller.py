"""The runtime feedback loop: observe traffic, re-prune, un-prune.

:class:`AdaptiveController` closes the loop the offline experiments leave
open.  Hooked into :meth:`PubSubService._dispatch` (opt-in via
``PubSubService(..., adaptive=AdaptiveConfig(...))``), every delivered
batch feeds :class:`~repro.adaptive.statistics.OnlineEventStatistics`;
every ``cycle_events`` delivered events the controller runs one cycle:

1. snapshot :class:`~repro.core.adaptive.SystemConditions` from the
   :class:`~repro.adaptive.probe.SystemConditionsProbe`;
2. if no resource is stressed, optionally *un-prune* (restore exact
   forwarding tables) once every pressure has dropped below
   ``release_fraction`` of its threshold;
3. otherwise let :class:`~repro.core.adaptive.AdaptivePruner` pick the
   dimension and prune one batch, then apply the pruned trees to
   **inner-broker forwarding tables only** under the service's
   flush-before-churn discipline.

Home brokers keep the exact trees (``Broker.prune_entry`` refuses
local-client entries; the controller never even proposes them), so
subscriber-visible delivery is bit-identical with the controller on or
off — pruning only widens what inner brokers *forward*.

Table churn (subscribe/unsubscribe/replace) is absorbed in proportion to
the change, not the table.  When ``BrokerNetwork.table_version`` moved,
the next stressed cycle syncs the engine with one identity pass over
the registered subscriptions: a gone or replaced subscription leaves the
plan (its forwarding entries are already exact — unsubscribe deletes
them, replace resets them), a new prunable one is planned with the
engine's estimator snapshot, and every unchanged subscription keeps its
queued option and its applied pruning.  The engine is built over the
whole table only when there is none: on the first stressed cycle, or
after a becalmed un-prune discarded it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.adaptive.probe import SystemConditionsProbe
from repro.adaptive.statistics import OnlineEventStatistics
from repro.core.adaptive import AdaptivePruner, SystemConditions
from repro.core.engine import PruningEngine, PruningRecord
from repro.core.ops import is_prunable
from repro.errors import PruningError
from repro.events import Event
from repro.selectivity.estimator import SelectivityEstimator
from repro.subscriptions.metrics import memory_bytes
from repro.subscriptions.nodes import Node
from repro.subscriptions.normalize import is_normalized
from repro.subscriptions.subscription import Subscription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import PubSubService


@dataclass
class AdaptiveConfig:
    """Tuning knobs of the adaptive pruning loop.

    Attributes
    ----------
    cycle_events:
        Run one controller cycle every this many dispatched events.
    batch_size:
        Prunings attempted per stressed cycle.
    memory_budget_bytes:
        Routing-table budget for memory pressure; ``None`` disables the
        memory signal.
    memory_threshold / bandwidth_threshold / filter_threshold:
        Pressure levels above which the matching dimension is stressed
        (forwarded to :class:`~repro.core.adaptive.AdaptivePruner`).
    release_fraction:
        Un-prune once *every* pressure sits below
        ``release_fraction × threshold`` — hysteresis against prune/
        restore flapping.
    stop_degradation:
        Per-subscription accumulated Δ≈sel bound passed to each batch;
        ``None`` removes the bound.
    sample_rate / top_k / histogram_bins / recent_events / seed:
        Forwarded to :class:`OnlineEventStatistics`.
    min_observations:
        Sampled events required before the first pruning plan — pruning
        on an unwarmed estimator optimizes noise.
    default_probability:
        Estimator fallback for attributes the stream has not shown.
    clock:
        Monotonic-seconds source for the probe's rate windows.
    """

    cycle_events: int = 256
    batch_size: int = 8
    memory_budget_bytes: Optional[int] = None
    memory_threshold: float = 0.9
    bandwidth_threshold: float = 0.8
    filter_threshold: float = 0.8
    release_fraction: float = 0.5
    stop_degradation: Optional[float] = 0.25
    sample_rate: float = 1.0
    top_k: int = 32
    histogram_bins: int = 64
    recent_events: int = 256
    min_observations: int = 32
    default_probability: float = 0.5
    seed: int = 2006
    clock: Callable[[], float] = field(default=time.monotonic)

    def __post_init__(self) -> None:
        if self.cycle_events <= 0:
            raise PruningError("cycle_events must be positive")
        if self.batch_size <= 0:
            raise PruningError("batch_size must be positive")
        if not 0.0 < self.release_fraction < 1.0:
            raise PruningError("release_fraction must be within (0, 1)")
        if self.min_observations < 1:
            raise PruningError("min_observations must be positive")


class AdaptiveController:
    """Periodic re-prune/un-prune cycle over one :class:`PubSubService`.

    Constructed by the service itself when ``adaptive=`` is passed; all
    mutation runs under the service's publish lock, so cycles serialize
    with dispatch, ingress flushes, and table churn.  The controller
    never touches local-client (home broker) entries — delivery stays
    exactly what the un-pruned tables would produce.

    The plan survives churn: after a subscribe, unsubscribe or replace
    only the changed subscriptions enter or leave the engine, so the
    work done under the lock scales with the change.  A full engine
    build happens only when there is no engine.
    """

    def __init__(self, service: "PubSubService", config: AdaptiveConfig) -> None:
        self._service = service
        self.config = config
        self.statistics = OnlineEventStatistics(
            top_k=config.top_k,
            histogram_bins=config.histogram_bins,
            sample_rate=config.sample_rate,
            recent_capacity=config.recent_events,
            default_probability=config.default_probability,
            seed=config.seed,
        )
        self.probe = SystemConditionsProbe(
            service.network,
            memory_budget_bytes=config.memory_budget_bytes,
            clock=config.clock,
        )
        self._pruner: Optional[AdaptivePruner] = None
        self._pruner_version: Optional[int] = None
        #: subscription id → the registered subscription the engine was
        #: last synced against (prunable or not), for the identity pass.
        self._synced: Dict[int, Subscription] = {}
        #: subscription id → pruned tree currently applied to forwarding
        #: tables (and its exact counterpart, for realized-Δsel reports).
        self._applied: Dict[int, Node] = {}
        self._originals: Dict[int, Node] = {}
        self._applied_ops: Dict[int, int] = {}
        self._estimated: Dict[int, float] = {}
        self._history: List[Tuple[str, int]] = []
        self._last_conditions: Optional[SystemConditions] = None
        self._events_since_cycle = 0
        self._in_cycle = False
        self._cycles = 0
        self._prunings_applied = 0
        self._prunings_reverted = 0
        self._restores = 0
        self._bytes_reclaimed_total = 0

    # -- dispatch-path hook ---------------------------------------------------

    def _after_dispatch(self, events: List[Event]) -> None:
        """Fold one dispatched batch in; run a cycle when one is due.

        Called by ``PubSubService._dispatch`` under the publish lock.  A
        cycle's own flush re-enters dispatch, so ``_in_cycle`` guards
        against recursive cycles (the nested batch still feeds the
        statistics).
        """
        self.statistics.observe_batch(events)
        self._events_since_cycle += len(events)
        if self._events_since_cycle >= self.config.cycle_events and not self._in_cycle:
            self.run_cycle()

    # -- the cycle ------------------------------------------------------------

    def run_cycle(
        self, conditions: Optional[SystemConditions] = None
    ) -> List[PruningRecord]:
        """Run one observe → decide → act cycle; returns applied prunings.

        ``conditions`` overrides the probe snapshot — tests and operators
        use this to drive the policy deterministically.  Returns the
        empty list when nothing was pruned (calm system, cold statistics,
        exhausted engine, or a re-entrant call).
        """
        with self._service._publish_lock:
            if self._in_cycle:
                return []
            self._in_cycle = True
            try:
                self._events_since_cycle = 0
                self._cycles += 1
                if conditions is None:
                    conditions = self.probe.snapshot()
                self._last_conditions = conditions
                if not self._stressed(conditions):
                    if self._applied and self._becalmed(conditions):
                        self._restore_applied()
                    return []
                if self.statistics.observed < self.config.min_observations:
                    return []
                pruner = self._ensure_pruner()
                records = pruner.optimize(
                    conditions, self.config.batch_size, self.config.stop_degradation
                )
                if records:
                    self._apply_records(pruner, records)
                return records
            finally:
                self._in_cycle = False

    def _stressed(self, conditions: SystemConditions) -> bool:
        config = self.config
        return (
            conditions.memory_pressure >= config.memory_threshold
            or conditions.bandwidth_utilization >= config.bandwidth_threshold
            or conditions.filter_saturation >= config.filter_threshold
        )

    def _becalmed(self, conditions: SystemConditions) -> bool:
        config = self.config
        release = config.release_fraction
        return (
            conditions.memory_pressure < release * config.memory_threshold
            and conditions.bandwidth_utilization < release * config.bandwidth_threshold
            and conditions.filter_saturation < release * config.filter_threshold
        )

    def _ensure_pruner(self) -> AdaptivePruner:
        """The engine for the *current* table, synced after churn.

        Built over every prunable registered subscription when there is
        no engine (possibly empty, so a table without prunable entries
        is not rescanned every cycle); otherwise brought up to date by
        :meth:`_sync` when the table version moved.
        """
        network = self._service.network
        version = network.table_version
        if self._pruner is not None:
            if version != self._pruner_version:
                self._sync(self._pruner.engine, network.registered_subscriptions())
                self._pruner_version = version
            return self._pruner
        registered = network.registered_subscriptions()
        candidates = [
            subscription
            for _sub_id, subscription in sorted(registered.items())
            if self._plannable(subscription)
        ]
        config = self.config
        self._pruner = AdaptivePruner(
            candidates,
            self.statistics.estimator(),
            memory_threshold=config.memory_threshold,
            bandwidth_threshold=config.bandwidth_threshold,
            filter_threshold=config.filter_threshold,
        )
        self._pruner_version = version
        self._synced = registered
        return self._pruner

    @staticmethod
    def _plannable(subscription: Subscription) -> bool:
        return is_normalized(subscription.tree) and is_prunable(subscription.tree)

    def _sync(
        self, engine: PruningEngine, registered: Dict[int, Subscription]
    ) -> None:
        """Move the plan to the live table: drop gone or replaced
        subscriptions, plan new ones, leave the rest untouched.

        A registered subscription is *changed* when its object is not the
        one seen at the last sync — ``replace_subscription`` registers a
        new object under the same id.  Dropped subscriptions need no
        broker call: unsubscribe deleted their forwarding entries and
        replace reset them to the new exact tree.
        """
        synced = self._synced
        gone = [sub_id for sub_id in synced if sub_id not in registered]
        changed = [
            (sub_id, subscription)
            for sub_id, subscription in registered.items()
            if synced.get(sub_id) is not subscription
        ]
        for sub_id in gone:
            self._drop(engine, sub_id)
            del synced[sub_id]
        for sub_id, subscription in changed:
            self._drop(engine, sub_id)
            synced[sub_id] = subscription
            if self._plannable(subscription):
                engine.add(subscription)

    def _drop(self, engine: PruningEngine, sub_id: int) -> None:
        """Forget one subscription's plan and its applied pruning."""
        if sub_id in engine:
            engine.remove(sub_id)
        if self._applied.pop(sub_id, None) is not None:
            del self._originals[sub_id], self._estimated[sub_id]
            self._prunings_reverted += self._applied_ops.pop(sub_id)

    # -- acting on the substrate ----------------------------------------------

    def _apply_records(
        self, pruner: AdaptivePruner, records: List[PruningRecord]
    ) -> None:
        """Apply a batch's pruned trees to inner-broker forwarding tables."""
        network = self._service.network
        changed: Dict[int, Node] = {}
        for record in records:
            if record.subscription_id in changed:
                continue
            state = pruner.engine.state(record.subscription_id)
            changed[record.subscription_id] = state.current
            if record.subscription_id not in self._originals:
                self._originals[record.subscription_id] = state.original
        per_broker: Dict[str, Dict[int, Node]] = {}
        for broker_id, broker in network.brokers.items():
            trees: Dict[int, Node] = {}
            for sub_id, tree in changed.items():
                entry = broker.entries.get(sub_id)
                if entry is not None and not entry.interface.is_client:
                    trees[sub_id] = tree
            if trees:
                per_broker[broker_id] = trees
        # Flush-before-churn: events already submitted are routed by the
        # tables that were current at submission time.
        self._service.flush()
        before = network.table_size_bytes
        network.apply_pruned_tables(per_broker)
        self._bytes_reclaimed_total += max(0, before - network.table_size_bytes)
        dimension, count = pruner.dimension_history[-1]
        self._history.append((dimension.value, count))
        self._prunings_applied += len(records)
        for record in records:
            self._applied_ops[record.subscription_id] = (
                self._applied_ops.get(record.subscription_id, 0) + 1
            )
            self._estimated[record.subscription_id] = record.vector.sel
        self._applied.update(changed)

    def _restore_applied(self) -> None:
        """Un-prune: give every touched forwarding entry its exact tree back."""
        network = self._service.network
        self._service.flush()
        for broker in network.brokers.values():
            for sub_id in self._applied:
                entry = broker.entries.get(sub_id)
                if entry is not None and not entry.interface.is_client:
                    broker.restore_entry(sub_id)
        self._prunings_reverted += sum(self._applied_ops.values())
        self._restores += 1
        self._applied.clear()
        self._originals.clear()
        self._applied_ops.clear()
        self._estimated.clear()
        # The engine's accumulated state described tables we just reset;
        # a later stressed cycle rebuilds it from fresh statistics.
        self._pruner = None
        self._synced = {}

    # -- observability --------------------------------------------------------

    def _live_bytes_reclaimed(self) -> int:
        network = self._service.network
        reclaimed = 0
        for broker in network.brokers.values():
            for entry in broker.non_local_entries():
                if entry.is_pruned:
                    reclaimed += memory_bytes(entry.original.tree) - memory_bytes(
                        entry.current.tree
                    )
        return reclaimed

    def _realized_deltas(self) -> Dict[int, float]:
        """Measured Δselectivity of each applied pruning on recent traffic."""
        events = self.statistics.recent_events()
        if not events:
            return {}
        deltas: Dict[int, float] = {}
        for sub_id, pruned_tree in self._applied.items():
            original = self._originals[sub_id]
            deltas[sub_id] = SelectivityEstimator.measure(
                pruned_tree, events
            ) - SelectivityEstimator.measure(original, events)
        return deltas

    def report(self) -> Dict[str, object]:
        """Controller telemetry: what it saw, decided, and reclaimed.

        ``dimension_history`` lists ``(dimension value, prunings)`` per
        applied batch; ``estimated_delta_sel`` is the engine's accumulated
        Δ≈sel per pruned subscription, ``realized_delta_sel`` the same
        delta *measured* on the retained tail of sampled events.
        """
        with self._service._publish_lock:
            conditions = self._last_conditions
            return {
                "cycles": self._cycles,
                "dimension_history": list(self._history),
                "prunings_applied": self._prunings_applied,
                "prunings_reverted": self._prunings_reverted,
                "restores": self._restores,
                "subscriptions_pruned": len(self._applied),
                "bytes_reclaimed": self._live_bytes_reclaimed(),
                "bytes_reclaimed_total": self._bytes_reclaimed_total,
                "estimated_delta_sel": dict(self._estimated),
                "realized_delta_sel": self._realized_deltas(),
                "events_seen": self.statistics.seen,
                "events_sampled": self.statistics.observed,
                "last_conditions": (
                    conditions._asdict() if conditions is not None else None
                ),
            }
