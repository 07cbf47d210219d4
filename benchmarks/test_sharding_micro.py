"""Micro-benchmark of sharded parallel matching.

Times ``match_batch`` through a :class:`ShardedMatcher` over the full
executor × shard-count grid — ``serial`` (in-process shards, one
caller loop) and ``processes`` (persistent workers fed shared-memory
batches) at shard counts {1, 2, 4, 8} — against the unsharded
:class:`CountingMatcher` baseline, on both benchmark workloads:

* the auction workload at bench scale (probe-dominated, flat-heavy,
  small batches — the worker round trip dominates);
* the tree-heavy workload (deep OR-of-ANDs — long per-shard compute,
  where worker processes can own whole cores).

Results land under the ``sharding`` key of ``BENCH_matching.json``
(schema in ``docs/BENCHMARKS.md``), with the host's ``cpu_count`` at
the payload top level, so the parallel-speedup trajectory is tracked
across PRs and hardware.  The speedup is recorded *measured as-is*: on
single-core CI runners every parallel executor is expected to dip
below 1× (fan-out/IPC overhead with no parallelism to pay for it) —
the equivalence assertions, not the ratio, are the gate here.

Scale riders: the auction side uses the shared bench config
(``REPRO_BENCH_SUBSCRIPTIONS``/``REPRO_BENCH_EVENTS``); the tree-heavy
side uses ``REPRO_BENCH_TREE_SUBSCRIPTIONS``/``REPRO_BENCH_TREE_EVENTS``
like the tree-eval benchmark.
"""

from __future__ import annotations

import pytest

from conftest import _env_int, best_seconds
from repro.events import EventBatch
from repro.matching.counting import CountingMatcher
from repro.matching.sharded import ShardedMatcher
from repro.workloads.tree_heavy import TreeHeavyConfig, TreeHeavyWorkload

SHARD_COUNTS = [1, 2, 4, 8]
EXECUTORS = ["serial", "processes"]

TREE_SUBSCRIPTIONS = _env_int("REPRO_BENCH_TREE_SUBSCRIPTIONS", 500)
TREE_EVENTS = _env_int("REPRO_BENCH_TREE_EVENTS", 256)


@pytest.fixture(scope="module")
def tree_workload():
    return TreeHeavyWorkload(TreeHeavyConfig(seed=42))


def _measure_workload(subscriptions, events):
    """Baseline vs executor × shard-count timings for one workload.

    Returns the ``BENCH_matching.json`` fragment; asserts every sharded
    configuration produces exactly the unsharded id lists first, so a
    recorded speedup can never come from a wrong answer.
    """
    subscriptions = list(subscriptions)
    batch = EventBatch(events)
    batch.columns()

    baseline = CountingMatcher()
    for subscription in subscriptions:
        baseline.register(subscription)
    expected = baseline.match_batch(batch)
    baseline_seconds, _ = best_seconds(lambda: baseline.match_batch(batch))

    fragment = {
        "subscriptions": len(subscriptions),
        "events": len(batch.events),
        "unsharded_seconds": baseline_seconds,
        "executors": {executor: {} for executor in EXECUTORS},
    }
    for executor in EXECUTORS:
        for shard_count in SHARD_COUNTS:
            with ShardedMatcher(shard_count, executor=executor) as sharded:
                for subscription in subscriptions:
                    sharded.register(subscription)
                assert sharded.match_batch(batch) == expected
                seconds, _ = best_seconds(lambda: sharded.match_batch(batch))
                fragment["executors"][executor][str(shard_count)] = {
                    "seconds": seconds,
                    "speedup_vs_unsharded": (
                        baseline_seconds / seconds if seconds else None
                    ),
                    "populations": sharded.shard_populations,
                }
    return fragment


def test_sharding_speedup(
    bench_subscriptions, bench_events, tree_workload, bench_results
):
    """Record the executor × shards speedup grid on both workloads."""
    auction = _measure_workload(bench_subscriptions, bench_events.events)
    tree_heavy = _measure_workload(
        tree_workload.generate_subscriptions(TREE_SUBSCRIPTIONS),
        tree_workload.generate_events(TREE_EVENTS).events,
    )
    bench_results["sharding"] = {
        "auction": auction,
        "tree_heavy": tree_heavy,
    }
