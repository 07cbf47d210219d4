"""Micro-benchmark of compiled-tree evaluation in the batch path.

Runs the tree-heavy workload (deep OR-of-ANDs, nearly every subscription
survives the ``pmin`` gate) through one ``match_batch`` — which evaluates
the whole compiled-tree program once per chunk — and through the
per-event ``match`` loop, i.e. one-row batches.  Both timings, plus the
tree-evaluation stage timed in isolation, land under the ``tree_eval``
key of ``BENCH_matching.json``.

Scale is adjustable through environment variables:

    REPRO_BENCH_TREE_SUBSCRIPTIONS (default 500)
    REPRO_BENCH_TREE_EVENTS        (default 256)

The CI smoke gate runs this file at a tiny scale; the perf assertion
only applies at benchmark scale (>= 128-event batches).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import _env_int, best_seconds
from repro.events import EventBatch
from repro.matching.batch import _BatchRun
from repro.matching.counting import _KIND_TREE, CountingMatcher
from repro.matching.naive import NaiveMatcher
from repro.workloads.tree_heavy import TreeHeavyConfig, TreeHeavyWorkload

TREE_SUBSCRIPTIONS = _env_int("REPRO_BENCH_TREE_SUBSCRIPTIONS", 500)
TREE_EVENTS = _env_int("REPRO_BENCH_TREE_EVENTS", 256)


@pytest.fixture(scope="module")
def tree_workload():
    return TreeHeavyWorkload(TreeHeavyConfig(seed=42))


@pytest.fixture(scope="module")
def tree_subscriptions(tree_workload):
    return tree_workload.generate_subscriptions(TREE_SUBSCRIPTIONS)


@pytest.fixture(scope="module")
def tree_matcher(tree_subscriptions):
    matcher = CountingMatcher()
    for subscription in tree_subscriptions:
        matcher.register(subscription)
    return matcher


@pytest.fixture(scope="module")
def tree_events(tree_workload):
    return tree_workload.generate_events(TREE_EVENTS).events


def _tree_eval_input(matcher, events):
    """One un-chunked pass up to the candidate test: tree evaluation's
    input, assembled by the same ``assemble_chunk`` production uses.

    Returns ``(flags, tree_rows, tree_slots)``: the chunk's entry-flag
    matrix and the surviving (row, tree-slot) pairs.
    """
    run = _BatchRun(matcher)
    columns = EventBatch(events).columns()
    pos_pairs, neg_pairs = ([], []), ([], [])
    matcher._indexes.collect_batch(columns, pos_pairs, neg_pairs)
    flags, counts = run.assemble_chunk(len(events), pos_pairs, neg_pairs)
    cand_rows, cand_slots = np.nonzero(counts >= run.pmin[np.newaxis, :])
    tree_mask = run.kinds[cand_slots] == _KIND_TREE
    return flags, cand_rows[tree_mask], cand_slots[tree_mask]


def test_vectorized_fallback_matches_scalar_and_per_event(
    tree_matcher, tree_subscriptions, tree_events
):
    """``match_batch`` produces exactly the naive oracle's match sets."""
    naive = NaiveMatcher()
    for subscription in tree_subscriptions:
        naive.register(subscription)
    assert tree_matcher.match_batch(EventBatch(tree_events)) == [
        sorted(naive.match(event)) for event in tree_events
    ]


def test_tree_eval_fallback_speedup(tree_matcher, tree_events, bench_results):
    """One ``match_batch`` vs the per-event ``match`` loop (one-row
    batches), end to end, plus the whole-program tree evaluation timed
    in isolation."""
    flags, tree_rows, tree_slots = _tree_eval_input(tree_matcher, tree_events)
    assert len(tree_rows), "workload must produce surviving tree candidates"
    programs = tree_matcher._tree_programs

    def run_tree_eval():
        root_positions, values = programs.evaluate(flags)
        return int(values[root_positions[tree_slots], tree_rows].sum())

    tree_eval_seconds, _ = best_seconds(run_tree_eval)
    batch = EventBatch(tree_events)
    batch.columns()
    batch_match_seconds, batched = best_seconds(
        lambda: tree_matcher.match_batch(batch)
    )
    per_event_match_seconds, per_event = best_seconds(
        lambda: [tree_matcher.match(event) for event in tree_events],
        repeats=3,
    )
    assert batched == per_event

    stats = tree_matcher.statistics
    stats.reset()
    tree_matcher.match_batch(batch)
    bench_results["tree_eval"] = {
        "subscriptions": TREE_SUBSCRIPTIONS,
        "events": len(tree_events),
        "surviving_tree_pairs": int(len(tree_rows)),
        "tree_evaluations": stats.tree_evaluations,
        "candidates": stats.candidates,
        "matches": stats.matches,
        "tree_nodes": programs.node_count,
        "tree_eval_seconds": tree_eval_seconds,
        "per_event_match_seconds": per_event_match_seconds,
        "batch_match_seconds": batch_match_seconds,
        "match_speedup": (
            per_event_match_seconds / batch_match_seconds
            if batch_match_seconds
            else None
        ),
    }
    stats.reset()
    # Gross-regression gate only (the measured speedup itself lands in
    # BENCH_matching.json).  Tiny smoke runs are exempt: a batch's fixed
    # numpy overhead only amortizes across real batches.
    if len(tree_events) >= 128:
        assert batch_match_seconds < per_event_match_seconds
