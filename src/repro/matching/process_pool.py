"""Persistent per-shard matcher workers in separate processes.

In-process shards of :class:`~repro.matching.sharded.ShardedMatcher`
share the caller's interpreter and run one after another.  This module
hosts each shard's :class:`~repro.matching.counting.CountingMatcher` in
its own **worker process**, so shards run on real cores regardless of
what the per-shard work is made of.

Protocol (one duplex pipe per shard; the parent is the only client):

* every request is ``(command, ops, payload)``.  ``ops`` is the shard's
  drained **subscription log** — compact dict operations
  (:func:`repro.subscriptions.serialize.op_to_dict`) the worker applies
  *before* serving the command, which is what keeps the worker's table
  replica exactly in sync with the parent's authority table without
  ever re-pickling whole tables.  The same replay path rebuilds a
  worker from scratch after a restart (the parent seeds the log with
  one ``register`` op per live subscription) — i.e. the log *is* the
  broker restart/migration machinery;
* ``match`` carries a :class:`~repro.matching.shm.PackedColumns` batch
  header; the worker attaches the shared segment, matches over
  zero-copy views, and answers ``(per-event id lists, counter deltas)``
  — the four path-independent :class:`~repro.matching.stats.
  MatchStatistics` counters, measured around this one call, so the
  parent's aggregate merges bit-identically to an unsharded engine;
* ``introspect`` answers table/entry counts, ``fulfilled`` a
  diagnostics query, ``sync`` just drains ops, ``stop`` shuts the
  worker down.

Replies are ``("ok", result)`` or ``("error", description)``; worker
death is detected by liveness polling in :meth:`ShardWorkerPool.recv`.
Workers are daemonic — an abandoned pool dies with the parent — and
:meth:`ShardWorkerPool.close` is the graceful, idempotent teardown.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import MatchingError
from repro.events import Event, EventBatch
from repro.matching.counting import CountingMatcher
from repro.matching.shm import PackedColumns, unpack_columns
from repro.subscriptions.serialize import op_from_dict

#: Environment override for the worker start method (``fork``/``spawn``/
#: ``forkserver``); unset uses the platform default.  CI exercises
#: ``spawn`` explicitly — the method every platform supports.
START_METHOD_ENV = "REPRO_SHARD_START_METHOD"

#: Seconds between liveness checks while waiting for a worker reply.
_POLL_INTERVAL = 0.05

#: The four path-independent counters, in
#: :class:`~repro.matching.stats.MatchStatistics` order.
CounterDeltas = Tuple[int, int, int, int]


def _counter_tuple(matcher: CountingMatcher) -> CounterDeltas:
    stats = matcher.statistics
    return (
        stats.matches,
        stats.candidates,
        stats.tree_evaluations,
        stats.fulfilled_predicates,
    )


def apply_op(matcher: CountingMatcher, data: Dict[str, Any]) -> None:
    """Apply one subscription-log operation to a matcher replica."""
    action, payload = op_from_dict(data)
    if action == "register":
        matcher.register(payload)
    elif action == "replace":
        matcher.replace(payload)
    elif action == "unregister":
        matcher.unregister(payload)
    else:
        matcher.rebuild()


def serve_match(
    matcher: CountingMatcher, packed: PackedColumns
) -> Tuple[List[List[int]], CounterDeltas]:
    """Match a packed batch; returns per-event id lists and deltas.

    All shared-segment views are dropped before the segment is closed
    (a still-exported view would make ``close()`` raise
    ``BufferError``), so the worker never pins the creator's segment.
    """
    columns, segment = unpack_columns(packed)
    try:
        return _match_columns(matcher, columns)
    finally:
        columns = None  # noqa: F841 - drops the view refs before close
        if segment is not None:
            segment.close()


def _match_columns(
    matcher: CountingMatcher, columns
) -> Tuple[List[List[int]], CounterDeltas]:
    before = _counter_tuple(matcher)
    if matcher.subscription_count:
        matched = matcher.match_batch(EventBatch.from_columns(columns))
    else:
        matched = [[] for _ in range(columns.row_count)]
    after = _counter_tuple(matcher)
    return matched, tuple(a - b for a, b in zip(after, before))


def serve_introspect(matcher: CountingMatcher) -> Tuple[int, int, int, int]:
    """``(subscriptions, entries, tree slots, negated entries)``."""
    return (
        matcher.subscription_count,
        matcher.entry_count,
        matcher.tree_slot_count,
        matcher.negated_entry_count,
    )


def shard_worker_main(
    connection: Connection, compact_free_fraction: Optional[float]
) -> None:
    """One shard worker's request loop (the worker process target).

    Also runnable in a thread over an in-process pipe — that is how the
    unit tests cover this loop without forking.
    """
    matcher = CountingMatcher(compact_free_fraction)
    while True:
        try:
            command, ops, payload = connection.recv()
        except (EOFError, OSError):
            break
        if command == "stop":
            connection.send(("ok", None))
            break
        try:
            for op in ops:
                apply_op(matcher, op)
            result: Any
            if command == "match":
                result = serve_match(matcher, payload)
            elif command == "introspect":
                result = serve_introspect(matcher)
            elif command == "fulfilled":
                result = matcher.fulfilled_counts(Event(payload))
            elif command == "sync":
                result = None
            else:
                raise MatchingError("unknown shard command %r" % (command,))
            connection.send(("ok", result))
        except BaseException as exc:  # the loop must survive bad requests
            connection.send(("error", "%s: %s" % (type(exc).__name__, exc)))
    connection.close()


class ShardWorkerPool:
    """K persistent shard workers behind per-shard duplex pipes.

    ``start_method`` picks the :mod:`multiprocessing` start method
    (``None`` → the :data:`START_METHOD_ENV` variable, else the
    platform default).  Requests are explicitly split into
    :meth:`send` / :meth:`recv` so the parent can fan a batch out to
    every shard before collecting any reply — that overlap *is* the
    parallelism.
    """

    def __init__(
        self,
        shard_count: int,
        compact_free_fraction: Optional[float] = 0.5,
        start_method: Optional[str] = None,
        fault_injector: Any = None,
    ) -> None:
        method = start_method or os.environ.get(START_METHOD_ENV) or None
        context = multiprocessing.get_context(method)
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._connections: List[Connection] = []
        self._closed = False
        #: Optional chaos hook (``before_send(pool, shard, command)``),
        #: e.g. :class:`repro.faults.WorkerFaultInjector`; consulted on
        #: every dispatch so injected crashes ride the real request path.
        self.fault_injector = fault_injector
        for index in range(shard_count):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=shard_worker_main,
                args=(child_end, compact_free_fraction),
                name="repro-shard-%d" % index,
                daemon=True,
            )
            process.start()
            child_end.close()
            self._processes.append(process)
            self._connections.append(parent_end)

    def __len__(self) -> int:
        return len(self._processes)

    @property
    def alive(self) -> bool:
        """Whether every worker process is still running."""
        return not self._closed and all(
            process.is_alive() for process in self._processes
        )

    def send(
        self,
        shard: int,
        command: str,
        ops: Sequence[Dict[str, Any]] = (),
        payload: Any = None,
    ) -> None:
        """Dispatch a request to one shard worker (non-blocking)."""
        if self._closed:
            raise MatchingError("shard worker pool is closed")
        if self.fault_injector is not None:
            self.fault_injector.before_send(self, shard, command)
        try:
            self._connections[shard].send((command, list(ops), payload))
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise MatchingError(
                "shard worker %d is unreachable: %s" % (shard, exc)
            )

    def recv(self, shard: int) -> Any:
        """Collect one shard's reply; raises if the worker failed/died."""
        process = self._processes[shard]
        connection = self._connections[shard]
        while not connection.poll(_POLL_INTERVAL):
            if not process.is_alive():
                raise MatchingError(
                    "shard worker %d terminated unexpectedly (exitcode %r)"
                    % (shard, process.exitcode)
                )
        try:
            status, result = connection.recv()
        except (EOFError, OSError) as exc:
            raise MatchingError(
                "shard worker %d hung up mid-reply: %s" % (shard, exc)
            )
        if status == "error":
            raise MatchingError("shard worker %d failed: %s" % (shard, result))
        return result

    def kill_worker(self, shard: int) -> None:
        """Terminate one shard's worker process, as a crash would.

        The pipe stays open on the parent side; the next :meth:`recv`
        for the shard reports the death via its liveness poll.  Used by
        fault injection; harmless on an already-dead worker.
        """
        process = self._processes[shard]
        process.terminate()
        process.join(5.0)

    def request(
        self,
        shard: int,
        command: str,
        ops: Sequence[Dict[str, Any]] = (),
        payload: Any = None,
    ) -> Any:
        """One round trip to one shard."""
        self.send(shard, command, ops, payload)
        return self.recv(shard)

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker (graceful, then terminate); idempotent."""
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            try:
                connection.send(("stop", (), None))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for process, connection in zip(self._processes, self._connections):
            try:
                if connection.poll(timeout):
                    connection.recv()
            except (EOFError, OSError):
                pass
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - hung worker path
                process.terminate()
                process.join(timeout)
            connection.close()

    def __repr__(self) -> str:
        return "ShardWorkerPool(%d workers%s)" % (
            len(self._processes),
            ", closed" if self._closed else "",
        )
