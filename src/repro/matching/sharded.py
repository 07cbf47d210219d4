"""Sharded matching: slot-shard a broker table behind ``match_batch``.

A single :class:`~repro.matching.counting.CountingMatcher` runs one
serial numpy pipeline per table, however many cores the host has.  The
table is trivially *partitionable*, though: the candidate test, the
index probes, and tree evaluation are all per-slot computations, so
splitting the subscription set into K disjoint shards — each a fully
independent counting engine with its own
:class:`~repro.matching.predicate_index.PredicateIndexSet` and compiled
tree program — changes nothing about any individual verdict.  Matching
a batch then fans out to the shards and merges the per-event id lists.

Two executors run the shards:

* ``"serial"`` — the shard engines live in the caller's process and a
  plain in-caller loop runs them, fully deterministic; it is the test
  oracle for the process path and the crash-loop fallback;
* ``"processes"`` — each shard's engine lives in a persistent **worker
  process** (:mod:`repro.matching.process_pool`), so shards run on real
  cores.  The batch ships once per ``match_batch`` through a shared
  -memory segment (:mod:`repro.matching.shm`); workers rebuild
  zero-copy views.  The parent keeps each shard's authority table (for
  synchronous duplicate/unknown-id errors) and syncs the worker
  replicas through a **subscription log**: every register/unregister/
  replace appends one compact op
  (:func:`repro.subscriptions.serialize.op_to_dict`) to the shard's
  pending log, drained with the next request.  A fresh or restarted
  pool is seeded by replaying the full table into the log — the broker
  restart/migration machinery.  Every worker request (match,
  introspection, ``fulfilled_counts``) goes through one self-healing
  round trip: a worker failure tears the pool down and the *same* call
  retries on a fresh pool; a crash loop (``crash_loop_threshold``
  failures inside a trailing ``crash_loop_window``) trips a circuit
  breaker that degrades the matcher to ``"serial"`` with bit-identical
  results (:meth:`ShardedMatcher.health_report` tells the story;
  ``crash_loop_threshold=None`` restores raise-on-failure).

Design invariants:

* **Stable shard routing.**  ``shard_of(subscription_id)`` is a pure
  function of the id (a splitmix64-style integer mix, mod K), so
  register/unregister/replace all land on the same shard without any
  routing table, churn stays O(subscription), and sequential *or*
  clustered id allocations spread evenly across shards.
* **Bit-identical results.**  Every shard returns its per-event id
  lists sorted; the merge concatenates in shard order and sorts, which
  is exactly the unsharded engine's sorted output.  The aggregated
  :class:`~repro.matching.stats.MatchStatistics` counters (matches,
  candidates, tree evaluations, fulfilled predicates) are sums over the
  slot partition — identical, counter for counter, to the unsharded
  engine on the same table, whichever executor ran the shards
  (property-tested in ``tests/test_sharded.py``).
* **Deterministic merging.**  Worker replies are collected in shard
  index order regardless of completion order, so a process-pooled run
  is indistinguishable from a serial one.
* **Coarse external locking.**  One lock serializes the public mutating
  and matching entry points, so concurrent callers interleave at call
  granularity (each call still fans out internally).  Shard-internal
  state is only ever touched by the one worker assigned to that shard.

>>> from repro.subscriptions import P, Subscription
>>> from repro.events import Event
>>> engine = ShardedMatcher(shards=4, executor="serial")
>>> engine.register(Subscription(7, P("a") == 1))
>>> engine.register(Subscription(8, P("a") >= 1))
>>> engine.match(Event({"a": 1}))
[7, 8]
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Literal,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import MatchingError
from repro.events import Event, EventBatch
from repro.matching.counting import CountingMatcher
from repro.matching.interfaces import Matcher
from repro.matching.process_pool import ShardWorkerPool
from repro.matching.shm import pack_columns, release_columns
from repro.matching.stats import MatchStatistics
from repro.subscriptions.serialize import op_to_dict
from repro.subscriptions.subscription import Subscription

_MASK64 = (1 << 64) - 1

#: Executor selection: ``"serial"`` (in-process shard engines run by an
#: in-caller loop, fully deterministic) or ``"processes"`` (persistent
#: shard worker processes fed shared-memory batches).
ExecutorSpec = Literal["serial", "processes"]


class PoolHealth(NamedTuple):
    """Snapshot of a :class:`ShardedMatcher`'s self-healing state.

    ``executor`` is the mode currently serving matches (``"processes"``
    until the crash-loop breaker trips, ``"serial"`` after a
    degradation); ``crashes`` counts every worker-pool failure observed,
    ``recent_crashes`` only those within the trailing
    ``crash_loop_window`` seconds, and ``rebuilds`` how many times a
    fresh pool was built beyond the first.  ``degraded_reason`` records
    why the breaker tripped (``None`` while healthy); ``last_crash`` is
    a ``time.monotonic()`` stamp.
    """

    executor: str
    degraded: bool
    crashes: int
    rebuilds: int
    recent_crashes: int
    crash_loop_threshold: Optional[int]
    crash_loop_window: float
    degraded_reason: Optional[str]
    last_crash: Optional[float]


def shard_of(subscription_id: int, shard_count: int) -> int:
    """Stable shard index of ``subscription_id`` among ``shard_count``.

    A splitmix64-style finalizer decorrelates the id bits before the
    modulo, so the sequential ids handed out by
    :meth:`repro.routing.network.BrokerNetwork.allocate_subscription_id`
    (and any other clustered allocation) spread evenly across shards.
    Pure and process-independent: the same id maps to the same shard
    forever, which is what keeps churn O(subscription).

    >>> shard_of(7, 4) == shard_of(7, 4)
    True
    >>> sorted({shard_of(i, 2) for i in range(16)})
    [0, 1]
    """
    z = (subscription_id + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z % shard_count


class ShardedMatcher(Matcher):
    """K independent counting-engine shards behind one ``Matcher`` face.

    ``shards`` fixes the partition width for the matcher's lifetime;
    ``executor`` picks where the shards run (see :data:`ExecutorSpec`).
    ``compact_free_fraction`` is forwarded to every shard's
    :class:`CountingMatcher`.  ``start_method`` (processes only)
    overrides the :mod:`multiprocessing` start method; ``None`` defers
    to the ``REPRO_SHARD_START_METHOD`` environment variable, then the
    platform default.

    The matcher is a drop-in replacement for a single
    :class:`CountingMatcher` — same results, same statistics — that a
    :class:`~repro.routing.broker.Broker` (and, through it,
    :class:`~repro.routing.network.BrokerNetwork` and
    :class:`~repro.service.PubSubService`) enables with ``shards=K``.
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        executor: ExecutorSpec = "serial",
        compact_free_fraction: Optional[float] = 0.5,
        start_method: Optional[str] = None,
        crash_loop_threshold: Optional[int] = 3,
        crash_loop_window: float = 30.0,
    ) -> None:
        if shards < 1:
            raise MatchingError("shard count must be >= 1, got %d" % shards)
        if executor not in ("serial", "processes"):
            raise MatchingError(
                "executor must be 'serial' or 'processes', got %r" % (executor,)
            )
        if crash_loop_threshold is not None and crash_loop_threshold < 1:
            raise MatchingError(
                "crash_loop_threshold must be >= 1 or None, got %d"
                % crash_loop_threshold
            )
        if crash_loop_window <= 0:
            raise MatchingError(
                "crash_loop_window must be > 0, got %r" % crash_loop_window
            )
        self._shard_count = shards
        self._compact_free_fraction = compact_free_fraction
        self._start_method = start_method
        self.statistics = MatchStatistics()
        self._lock = threading.Lock()
        # Self-healing state ("processes" mode): worker-pool failures
        # tear the pool down and retry on fresh workers; the crash-loop
        # circuit breaker counts failures in a trailing window and, at
        # the threshold, degrades to in-process serial shards (``None``
        # disables both — failures raise, as diagnostics sometimes want).
        self._crash_loop_threshold = crash_loop_threshold
        self._crash_loop_window = crash_loop_window
        self._fault_injector: Any = None
        self._crash_times: Deque[float] = deque()
        self._crashes = 0
        self._pools_built = 0
        self._degraded = False
        self._degraded_reason: Optional[str] = None
        self._last_crash: Optional[float] = None
        self._processes = executor == "processes"
        self._pool: Optional[ShardWorkerPool] = None
        # In-process shard engines (empty in "processes" mode, where the
        # engines live in the workers and the parent keeps only tables).
        self._matchers: Tuple[CountingMatcher, ...] = (
            ()
            if self._processes
            else tuple(CountingMatcher(compact_free_fraction) for _ in range(shards))
        )
        # "processes" mode: per-shard authority tables plus the pending
        # subscription log drained to each worker with its next request.
        self._tables: List[Dict[int, Subscription]] = [{} for _ in range(shards)]
        self._pending: List[List[Dict[str, object]]] = [[] for _ in range(shards)]

    # -- shard routing --------------------------------------------------------

    @property
    def shard_count(self) -> int:
        """Number of slot shards the table is partitioned into."""
        return self._shard_count

    @property
    def shards(self) -> Tuple[CountingMatcher, ...]:
        """The per-shard engines, in shard-index order (read-only uses).

        Empty in ``"processes"`` mode — the engines live in the worker
        processes; use the introspection properties instead.
        """
        return self._matchers

    def shard_of(self, subscription_id: int) -> int:
        """The shard owning ``subscription_id`` (stable; see module doc).

        Overridable hook: tests force worst-case skew (every id on one
        shard) by overriding this in a subclass — results must not
        change, only the load balance.
        """
        return shard_of(subscription_id, self._shard_count)

    def _shard_index(self, subscription_id: int) -> int:
        shard = self.shard_of(subscription_id)
        if not 0 <= shard < self._shard_count:
            raise MatchingError(
                "shard_of(%d) returned %d, outside [0, %d)"
                % (subscription_id, shard, self._shard_count)
            )
        return shard

    def _owner(self, subscription_id: int) -> CountingMatcher:
        return self._matchers[self._shard_index(subscription_id)]

    # -- registration ---------------------------------------------------------

    def register(self, subscription: Subscription) -> None:
        with self._lock:
            if not self._processes:
                self._owner(subscription.id).register(subscription)
                return
            shard = self._shard_index(subscription.id)
            table = self._tables[shard]
            if subscription.id in table:
                raise MatchingError(
                    "subscription id %d is already registered" % subscription.id
                )
            table[subscription.id] = subscription
            self._log(shard, "register", subscription)

    def unregister(self, subscription_id: int) -> None:
        with self._lock:
            if not self._processes:
                self._owner(subscription_id).unregister(subscription_id)
                return
            shard = self._shard_index(subscription_id)
            table = self._tables[shard]
            if subscription_id not in table:
                raise MatchingError(
                    "subscription id %d is not registered" % subscription_id
                )
            del table[subscription_id]
            self._log(shard, "unregister", subscription_id)

    def replace(self, subscription: Subscription) -> None:
        # Same id, same shard (routing is a pure function of the id), so
        # a replace is an in-place delta on one shard.
        with self._lock:
            if not self._processes:
                self._owner(subscription.id).replace(subscription)
                return
            shard = self._shard_index(subscription.id)
            table = self._tables[shard]
            if subscription.id not in table:
                raise MatchingError(
                    "subscription id %d is not registered" % subscription.id
                )
            table[subscription.id] = subscription
            self._log(shard, "replace", subscription)

    def subscriptions(self) -> Dict[int, Subscription]:
        with self._lock:
            merged: Dict[int, Subscription] = {}
            if self._processes:
                for table in self._tables:
                    merged.update(table)
            else:
                for matcher in self._matchers:
                    merged.update(matcher.subscriptions())
            return merged

    def rebuild(self) -> None:
        """Compact every shard (see :meth:`CountingMatcher.rebuild`)."""
        with self._lock:
            if self._processes:
                # Only live replicas need the op: a pool started later
                # replays the table from scratch, which is compact.
                if self._pool is not None:
                    for shard in range(self._shard_count):
                        if self._tables[shard] or self._pending[shard]:
                            self._pending[shard].append(op_to_dict("rebuild"))
                return
            for matcher in self._matchers:
                matcher.rebuild()

    def _log(self, shard: int, action: str, payload: object = None) -> None:
        """Append one op to a shard's pending subscription log.

        Only live worker replicas need deltas; while no pool is running
        the authority tables alone describe the state, and pool startup
        seeds the logs wholesale in :meth:`_ensure_pool`.
        """
        if self._pool is not None:
            self._pending[shard].append(op_to_dict(action, payload))

    # -- matching -------------------------------------------------------------

    def match(self, event: Event) -> List[int]:
        """Match one event: a one-row :meth:`match_batch`."""
        return self.match_batch(EventBatch([event]))[0]

    def match_batch(
        self, events: Union[Sequence[Event], EventBatch]
    ) -> List[List[int]]:
        """Fan the batch out to the shards and merge per-event id lists.

        The batch is columnarized once, in the calling thread, before
        dispatch — the shards share one read-only columnar view, exactly
        as consecutive brokers on a path do.  In ``"processes"`` mode
        the columns additionally cross into the workers through one
        shared-memory segment (see :mod:`repro.matching.shm`).
        """
        batch = EventBatch.coerce(events)
        columns = batch.columns()
        count = len(batch.events)
        with self._lock:
            started = time.perf_counter()
            replies = self._request("match", columns)
            if replies is None:
                return self._match_batch_local(batch, started)
            merged: List[List[int]] = [[] for _ in range(count)]
            deltas = (0, 0, 0, 0)
            for matched, shard_deltas in replies:
                deltas = tuple(
                    total + delta for total, delta in zip(deltas, shard_deltas)
                )
                for row, ids in enumerate(matched):
                    if ids:
                        merged[row].extend(ids)
            self._account(count, deltas, started)
            return [sorted(ids) for ids in merged]

    def _match_batch_local(
        self, batch: EventBatch, started: float
    ) -> List[List[int]]:
        """Match on the in-process shard engines (caller holds the lock)."""
        before = self._counter_totals()
        per_shard = [
            matcher.match_batch(batch)
            for matcher in self._matchers
            if matcher.subscription_count
        ]
        results = [
            sorted(sub_id for matched in per_shard for sub_id in matched[row])
            for row in range(len(batch.events))
        ]
        self._account(len(batch.events), self._deltas_since(before), started)
        return results

    # -- process-shard path ---------------------------------------------------

    def _ensure_pool(self) -> ShardWorkerPool:
        """The live worker pool, starting (and seeding) one if needed.

        A fresh pool starts from empty worker replicas, so each shard's
        pending log is seeded with the full authority table as
        ``register`` ops, in id order — the same replay that migrates a
        table into a restarted broker shard.
        """
        if self._pool is None:
            self._pool = ShardWorkerPool(
                self._shard_count,
                self._compact_free_fraction,
                self._start_method,
                fault_injector=self._fault_injector,
            )
            self._pools_built += 1
            for shard, table in enumerate(self._tables):
                self._pending[shard] = [
                    op_to_dict("register", subscription)
                    for _, subscription in sorted(table.items())
                ]
        return self._pool

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        # Stale deltas die with the pool; a future pool replays tables.
        self._pending = [[] for _ in range(self._shard_count)]

    def set_fault_injector(self, injector: Any) -> None:
        """Install (or clear, with ``None``) a chaos hook.

        ``injector`` duck-types :class:`repro.faults.WorkerFaultInjector`
        — ``before_pack()`` runs ahead of each batch's shared-memory
        packing, ``before_send(pool, shard, command)`` ahead of each
        worker dispatch.  Applies to the live pool immediately.
        """
        with self._lock:
            self._fault_injector = injector
            if self._pool is not None:
                self._pool.fault_injector = injector

    def _note_crash(self) -> int:
        """Record one worker-pool failure; returns the in-window count.

        Caller holds the lock.
        """
        now = time.monotonic()
        self._crashes += 1
        self._last_crash = now
        self._crash_times.append(now)
        cutoff = now - self._crash_loop_window
        while self._crash_times and self._crash_times[0] < cutoff:
            self._crash_times.popleft()
        return len(self._crash_times)

    def _degrade(self, reason: str) -> None:
        """Trip the breaker: rebuild in-process shard engines and leave
        ``"processes"`` mode for good (this matcher's lifetime).

        Caller holds the lock.  The engines are rebuilt from the
        authority tables in sorted id order — the same replay order that
        seeds worker replicas — so results stay bit-identical to what
        the pool produced.
        """
        matchers = tuple(
            CountingMatcher(self._compact_free_fraction)
            for _ in range(self._shard_count)
        )
        for shard, table in enumerate(self._tables):
            for _, subscription in sorted(table.items()):
                matchers[shard].register(subscription)
        self._matchers = matchers
        self._processes = False
        self._degraded = True
        self._degraded_reason = reason
        self._pending = [[] for _ in range(self._shard_count)]

    def _round_trip(self, command: str, payload: object = None) -> List[Any]:
        """One request to every shard that must see it; replies in shard
        order.

        Caller holds the lock.  Shards with a non-empty table or pending
        log are targeted, and each drains its log on the way, so the
        answer reflects every mutation made so far.  ``match`` packs its
        column payload into shared memory for the round trip.  Raises
        :class:`~repro.errors.MatchingError` on any worker failure.
        """
        pool = self._ensure_pool()
        packed = None
        if command == "match":
            if self._fault_injector is not None:
                self._fault_injector.before_pack()
            payload = packed = pack_columns(payload)
        try:
            targets = [
                shard
                for shard in range(self._shard_count)
                if self._tables[shard] or self._pending[shard]
            ]
            for shard in targets:
                ops = self._pending[shard]
                self._pending[shard] = []
                pool.send(shard, command, ops, payload)
            return [pool.recv(shard) for shard in targets]
        finally:
            if packed is not None:
                release_columns(packed)

    def _request(self, command: str, payload: object = None) -> Optional[List[Any]]:
        """:meth:`_round_trip` under the self-healing policy.

        Caller holds the lock.  Returns ``None`` when the matcher is not
        (or no longer) in ``"processes"`` mode, so the caller answers
        from the in-process engines.  A failed worker invalidates the
        replicas, so the pool is dropped; with the breaker enabled the
        *same request* retries on a fresh pool (tables replayed), and a
        crash loop — threshold failures inside the window — degrades to
        serial shards with bit-identical results.
        """
        while self._processes:
            try:
                return self._round_trip(command, payload)
            except MatchingError as error:
                self._teardown_pool()
                recent = self._note_crash()
                if self._crash_loop_threshold is None:
                    raise
                if recent >= self._crash_loop_threshold:
                    self._degrade(
                        "crash loop: %d worker-pool failures within "
                        "%.6gs window (last: %s)"
                        % (recent, self._crash_loop_window, error)
                    )
        return None

    # -- statistics -----------------------------------------------------------

    def _counter_totals(self) -> Tuple[int, int, int, int]:
        """Sum of the in-process shards' path-independent counters.

        ``events`` and ``elapsed_seconds`` are deliberately excluded:
        every shard counts the whole batch as its own events and its own
        wall clock, while the *table* processed each event once — the
        aggregate tracks those itself in :meth:`_account`.  (The
        process pool reports the same four counters as per-request
        deltas instead.)
        """
        matches = candidates = evaluations = fulfilled = 0
        for matcher in self._matchers:
            stats = matcher.statistics
            matches += stats.matches
            candidates += stats.candidates
            evaluations += stats.tree_evaluations
            fulfilled += stats.fulfilled_predicates
        return matches, candidates, evaluations, fulfilled

    def _deltas_since(
        self, before: Tuple[int, int, int, int]
    ) -> Tuple[int, ...]:
        """The in-process shards' counter growth since ``before``."""
        return tuple(
            total - prior for total, prior in zip(self._counter_totals(), before)
        )

    def _account(
        self,
        event_count: int,
        deltas: Sequence[int],
        started: float,
    ) -> None:
        """Add one batch's counter ``deltas`` to the aggregate."""
        stats = self.statistics
        stats.events += event_count
        stats.matches += deltas[0]
        stats.candidates += deltas[1]
        stats.tree_evaluations += deltas[2]
        stats.fulfilled_predicates += deltas[3]
        stats.elapsed_seconds += time.perf_counter() - started

    # -- introspection --------------------------------------------------------

    def _introspect(
        self, column: int, local: Callable[[CountingMatcher], int]
    ) -> int:
        """Sum one introspection count over the shards, wherever they run.

        ``column`` indexes the workers' ``(subscriptions, entries, tree
        slots, negated entries)`` reply; ``local`` reads the same count
        from an in-process engine.
        """
        with self._lock:
            replies = self._request("introspect")
            if replies is None:
                return sum(local(matcher) for matcher in self._matchers)
            return sum(counts[column] for counts in replies)

    @property
    def entry_count(self) -> int:
        """Live predicate entries across all shards."""
        return self._introspect(1, lambda matcher: matcher.entry_count)

    @property
    def tree_slot_count(self) -> int:
        """Live general-tree subscriptions across all shards."""
        return self._introspect(2, lambda matcher: matcher.tree_slot_count)

    @property
    def negated_entry_count(self) -> int:
        """Live negated-operator entries across all shards."""
        return self._introspect(3, lambda matcher: matcher.negated_entry_count)

    def health_report(self) -> PoolHealth:
        """The matcher's self-healing state (see :class:`PoolHealth`)."""
        with self._lock:
            now = time.monotonic()
            cutoff = now - self._crash_loop_window
            recent = sum(1 for stamp in self._crash_times if stamp >= cutoff)
            return PoolHealth(
                executor="processes" if self._processes else "serial",
                degraded=self._degraded,
                crashes=self._crashes,
                rebuilds=max(0, self._pools_built - 1),
                recent_crashes=recent,
                crash_loop_threshold=self._crash_loop_threshold,
                crash_loop_window=self._crash_loop_window,
                degraded_reason=self._degraded_reason,
                last_crash=self._last_crash,
            )

    @property
    def shard_populations(self) -> List[int]:
        """Registered subscriptions per shard (balance diagnostics)."""
        with self._lock:
            if self._processes:
                return [len(table) for table in self._tables]
            return [matcher.subscription_count for matcher in self._matchers]

    def fulfilled_counts(self, event: Event) -> Dict[int, int]:
        """Fulfilled-predicate count per subscription id (diagnostics)."""
        with self._lock:
            replies = self._request("fulfilled", event.to_dict())
            if replies is None:
                replies = [
                    matcher.fulfilled_counts(event) for matcher in self._matchers
                ]
            merged: Dict[int, int] = {}
            for counts in replies:
                merged.update(counts)
            return merged

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool, if any (idempotent).

        The matcher stays usable afterwards — in ``"processes"`` mode
        the next request lazily builds a fresh pool by replaying the
        authority tables into new workers.
        """
        with self._lock:
            self._teardown_pool()

    def __enter__(self) -> "ShardedMatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        if self._processes:
            mode = "processes"
        else:
            mode = "serial (degraded)" if self._degraded else "serial"
        return "ShardedMatcher(%d shards, %d subscriptions, %s)" % (
            self._shard_count,
            self.subscription_count,
            mode,
        )
