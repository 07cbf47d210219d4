"""Measurement points and shared measurement helpers."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Tuple, Union

from repro.events import EventBatch
from repro.matching.counting import CountingMatcher
from repro.matching.sharded import ExecutorSpec, ShardedMatcher
from repro.subscriptions.subscription import Subscription


class CentralizedPoint(NamedTuple):
    """One measurement of the single-broker setting (Fig. 1(a)–(c))."""

    proportion: float            #: x: fraction of performed prunings
    prunings: int                #: absolute number of performed prunings
    seconds_per_event: float     #: Fig. 1(a): mean filtering time per event
    matching_fraction: float     #: Fig. 1(b): matches / (events × subscriptions)
    association_reduction: float  #: Fig. 1(c): 1 − associations / initial
    candidates_per_event: float  #: diagnostics: pmin threshold crossings
    evaluations_per_event: float  #: diagnostics: full tree evaluations


class DistributedPoint(NamedTuple):
    """One measurement of the five-broker line setting (Fig. 1(d)–(f))."""

    proportion: float             #: x: fraction of performed prunings
    prunings: int                 #: absolute number of performed prunings
    seconds_per_event: float      #: Fig. 1(d): filtering + modelled transmission
    filter_seconds_per_event: float  #: measured filtering share
    network_increase: float       #: Fig. 1(e): routed events vs un-optimized − 1
    messages_per_event: float     #: broker-to-broker event messages per event
    association_reduction: float  #: Fig. 1(f): non-local associations vs initial
    deliveries: int               #: client notifications (must stay constant)


def measure_matching(
    subscriptions: Iterable[Subscription],
    events: EventBatch,
    *,
    shards: Optional[int] = None,
    executor: ExecutorSpec = "serial",
) -> Tuple[float, float, Union[CountingMatcher, ShardedMatcher]]:
    """Match all events against a fresh engine; return timing and fraction.

    Returns ``(seconds_per_event, matching_fraction, matcher)``.
    Registration builds the indexes incrementally *before* timing starts,
    so Fig. 1(a) measures pure filtering, as in the paper; the timed pass
    runs through the vectorized batch path — the production hot path.
    ``shards=K`` measures a :class:`ShardedMatcher` over K slot shards
    instead of the single-pipeline engine (identical results; the timing
    then includes the fan-out/merge overhead and any parallel speedup);
    ``executor`` selects where the shards run — ``"serial"`` in this
    process, or ``"processes"`` for worker processes fed shared-memory
    batches.
    Callers measuring with ``"processes"`` should ``close()`` the
    returned matcher (or use it as a context manager) to stop the pool.
    """
    matcher: Union[CountingMatcher, ShardedMatcher] = (
        CountingMatcher()
        if shards is None
        else ShardedMatcher(shards, executor=executor)
    )
    count = 0
    for subscription in subscriptions:
        matcher.register(subscription)
        count += 1
    # Warm caches (lazy bucket arrays, numpy scratch) and columnarize the
    # batch so timing reflects steady state: columns are built once per
    # batch and shared by every matcher the batch meets.
    matcher.match_batch(events.events[: min(16, len(events))])
    events.columns()
    matcher.statistics.reset()
    matcher.match_batch(events)
    stats = matcher.statistics
    matching_fraction = 0.0
    if stats.events and count:
        matching_fraction = stats.matches / (stats.events * count)
    return stats.mean_time_per_event, matching_fraction, matcher


def association_reduction(current: int, initial: int) -> float:
    """Proportional reduction of predicate/subscription associations."""
    if initial <= 0:
        return 0.0
    return 1.0 - current / initial
