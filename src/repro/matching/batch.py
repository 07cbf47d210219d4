"""The counting engine's one matching pipeline.

The candidate test is embarrassingly parallel across events, and so are
the index probes themselves once a batch is **columnar**.
:func:`counting_match_batch` evaluates a whole batch at once:

1. the batch is columnarized (per-attribute value arrays and presence
   rows, built once per :class:`~repro.events.EventBatch` and cached on
   it), and every index probe runs once per batch: range probes as one
   vectorized ``searchsorted`` over the attribute's value column,
   equality probes as one dictionary lookup per distinct value — the
   probes emit aligned ``(row, entry)`` contribution pair arrays;
2. a single ``bincount`` over ``row * slot_count + slot`` turns the
   pairs into the 2-D fulfilled-count matrix ``counts[event, slot]``;
3. the candidate test ``counts >= pmin`` runs as one 2-D comparison;
4. surviving flat-shaped candidates are decided by the counter alone
   (one vectorized kind dispatch for the whole chunk); when general-tree
   candidates survive, the whole compiled-tree program
   (:mod:`repro.matching.treeval`) is evaluated once against every row
   of the chunk, and the verdicts of the surviving (row, tree) pairs
   are read from its root rows.

Every match goes through this pipeline: per-event
:meth:`~repro.matching.counting.CountingMatcher.match` is a batch of
one.  Its correctness oracle is :class:`~repro.matching.naive.NaiveMatcher`.

The ``chunk × entry_capacity`` flags matrix exists solely to feed tree
evaluation; when the table holds no general trees and no negated
entries (flat-only workloads) it is neither allocated nor scattered
into.

Batches are processed in bounded chunks so the 2-D scratch matrices
(``chunk × slot_count`` counts, ``chunk × entry_capacity`` flags and
the tree program's ``node_count × chunk`` working matrix) stay cache-
and memory-friendly regardless of batch length.

>>> from repro.events import Event, EventBatch
>>> from repro.matching.counting import CountingMatcher
>>> from repro.subscriptions import P, Subscription
>>> engine = CountingMatcher()
>>> engine.register(Subscription(1, P("price") <= 10))
>>> batch = EventBatch([Event({"price": 5}), Event({"price": 50})])
>>> engine.match_batch(batch)
[[1], []]
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Sequence, Union

import numpy as np

from repro.events import Event, EventBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.matching.counting import CountingMatcher

#: What batch entry points accept: a plain event sequence or a (possibly
#: already columnarized) event batch.
Events = Union[Sequence[Event], EventBatch]

#: Soft bound on scratch-matrix cells per chunk (counts + flags rows +
#: tree working-matrix columns).
_CHUNK_CELL_BUDGET = 2_000_000
_MAX_CHUNK = 512


def _chunk_size(slot_count: int, entry_capacity: int) -> int:
    """Events per chunk keeping 2-D scratch matrices modestly sized."""
    cells_per_event = max(1, slot_count + entry_capacity)
    return max(1, min(_MAX_CHUNK, _CHUNK_CELL_BUDGET // cells_per_event))


class _BatchRun:
    """Shared scaffolding of one batch-matching pass over a matcher.

    Snapshots the matcher's slot/entry arrays, owns the chunked
    count-candidate-evaluate pipeline, and accounts statistics (one
    event counted per batch element).
    """

    def __init__(self, matcher: "CountingMatcher") -> None:
        self.matcher = matcher
        self.slot_count = len(matcher._slots)
        self.entry_capacity = matcher._indexes.entry_capacity
        self.entry_slot = matcher._entry_slot[: self.entry_capacity]
        self.pmin = matcher._pmin[: self.slot_count]
        self.kinds = matcher._kinds[: self.slot_count]
        # The flags matrix only feeds tree evaluation; for flat-only
        # tables without negated entries it is pure overhead and skipped.
        self.need_flags = (
            matcher._tree_slot_count > 0 or matcher._negated_entry_count > 0
        )
        # Tree evaluation's working matrix adds one cell per compiled
        # node to each chunk row; fold it into the chunk-size budget.
        self.tree_node_count = matcher._tree_programs.node_count
        self.matches_total = 0
        self.candidates_total = 0
        self.evaluations_total = 0
        self.fulfilled_total = 0

    def resolve_chunk(
        self,
        chunk_rows: int,
        pos_pairs,
        neg_pairs,
    ) -> List[List[int]]:
        """Counts → candidate test → tree evaluation for one chunk.

        ``pos_pairs`` / ``neg_pairs`` are ``(rows_arrays, entry_arrays)``
        pair-list accumulators (aligned, equal-length arrays).
        """
        from repro.matching.counting import _KIND_FALSE, _KIND_TREE

        flags, counts = self.assemble_chunk(chunk_rows, pos_pairs, neg_pairs)
        self.fulfilled_total += int(counts.sum())

        chunk_matched: List[List[int]] = [[] for _ in range(chunk_rows)]
        if self.slot_count:
            cand_rows, cand_slots = np.nonzero(counts >= self.pmin[np.newaxis, :])
            self.candidates_total += len(cand_rows)
            cand_kinds = self.kinds[cand_slots]
            # Flat shapes (TRUE, SINGLE, FLAT_AND, FLAT_OR): reaching
            # pmin decides.  Tree candidates take their tree's verdict.
            accept = cand_kinds != _KIND_FALSE
            tree_pairs = np.flatnonzero(cand_kinds == _KIND_TREE)
            if len(tree_pairs):
                self.evaluations_total += len(tree_pairs)
                root_positions, values = self.matcher._tree_programs.evaluate(flags)
                accept[tree_pairs] = values[
                    root_positions[cand_slots[tree_pairs]], cand_rows[tree_pairs]
                ]
            for row, sub_id in zip(
                cand_rows[accept].tolist(),
                self.matcher._slot_ids[cand_slots[accept]].tolist(),
            ):
                chunk_matched[row].append(sub_id)
        for matched in chunk_matched:
            matched.sort()
            self.matches_total += len(matched)
        return chunk_matched

    def assemble_chunk(
        self,
        chunk_rows: int,
        pos_pairs,
        neg_pairs,
    ):
        """The chunk's entry-flag and fulfilled-count matrices.

        Scatters the probe's ``(row, entry)`` pairs into the
        ``chunk × entry_capacity`` flags matrix (``None`` when the table
        needs none — no general trees and no negated entries) and
        bincounts them into the ``chunk × slot_count`` matrix the
        candidate test compares against ``pmin``.  Shared by
        :meth:`resolve_chunk`,
        :meth:`~repro.matching.counting.CountingMatcher.fulfilled_counts`
        and the tree-eval micro-benchmark, which must see exactly the
        counts and flags production does.
        """
        slot_count = self.slot_count
        flags = (
            np.zeros((chunk_rows, self.entry_capacity), dtype=bool)
            if self.need_flags
            else None
        )
        counts = np.zeros((chunk_rows, slot_count), dtype=np.int64)
        if pos_pairs[0]:
            rows = np.concatenate(pos_pairs[0])
            entries = np.concatenate(pos_pairs[1])
            if flags is not None:
                flags[rows, entries] = True
            counts = np.bincount(
                rows * slot_count + self.entry_slot[entries],
                minlength=chunk_rows * slot_count,
            ).reshape(chunk_rows, slot_count)
        if neg_pairs[0]:
            rows = np.concatenate(neg_pairs[0])
            entries = np.concatenate(neg_pairs[1])
            if flags is not None:
                flags[rows, entries] = False
            counts -= np.bincount(
                rows * slot_count + self.entry_slot[entries],
                minlength=chunk_rows * slot_count,
            ).reshape(chunk_rows, slot_count)
        return flags, counts

    def finish(self, event_count: int, started: float) -> None:
        stats = self.matcher.statistics
        stats.events += event_count
        stats.matches += self.matches_total
        stats.candidates += self.candidates_total
        stats.tree_evaluations += self.evaluations_total
        stats.fulfilled_predicates += self.fulfilled_total
        stats.elapsed_seconds += time.perf_counter() - started


def counting_match_batch(
    matcher: "CountingMatcher", events: Events
) -> List[List[int]]:
    """Match every event of ``events``; returns one id list per event.

    Probes run once per batch over the batch's columns (built lazily
    and cached when ``events`` is an :class:`EventBatch`), and the
    matcher's statistics grow by one event per batch element.
    """
    started = time.perf_counter()
    batch = EventBatch.coerce(events)
    count = len(batch.events)
    run = _BatchRun(matcher)
    columns = batch.columns()
    results: List[List[int]] = []
    chunk_size = _chunk_size(
        run.slot_count, run.entry_capacity + run.tree_node_count
    )
    for chunk_start in range(0, count, chunk_size):
        chunk_stop = min(count, chunk_start + chunk_size)
        if chunk_start == 0 and chunk_stop == count:
            chunk_columns = columns
        else:
            chunk_columns = columns.slice_rows(chunk_start, chunk_stop)
        pos_pairs: tuple = ([], [])
        neg_pairs: tuple = ([], [])
        matcher._indexes.collect_batch(chunk_columns, pos_pairs, neg_pairs)
        results.extend(
            run.resolve_chunk(chunk_stop - chunk_start, pos_pairs, neg_pairs)
        )
    run.finish(count, started)
    return results
