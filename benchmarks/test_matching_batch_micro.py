"""Micro-benchmarks of the counting engine's batch matching pipeline.

One ``match_batch`` over the whole event list vs one-row batches (the
per-event ``match``), checked against the naive oracle.  Results land in
``BENCH_matching.json`` next to the single-event numbers so the speedup
is tracked across PRs (schema documented in ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import pytest

from conftest import best_seconds
from repro.matching.counting import CountingMatcher
from repro.matching.naive import NaiveMatcher


@pytest.fixture(scope="module")
def counting(bench_subscriptions):
    matcher = CountingMatcher()
    for subscription in bench_subscriptions:
        matcher.register(subscription)
    return matcher


def test_batch_matches_sequential(counting, bench_subscriptions, bench_events):
    """One batch and one-row batches both equal the naive oracle."""
    naive = NaiveMatcher()
    for subscription in bench_subscriptions:
        naive.register(subscription)
    events = bench_events.events
    expected = [sorted(naive.match(event)) for event in events]
    assert counting.match_batch(events) == expected
    assert [counting.match(event) for event in events] == expected


def test_batch_matching_throughput(benchmark, counting, bench_events,
                                   bench_results):
    events = bench_events.events

    def run_batch():
        return sum(len(ids) for ids in counting.match_batch(events))

    matches = benchmark(run_batch)
    benchmark.extra_info["matches"] = matches
    benchmark.extra_info["events"] = len(events)

    def run_sequential():
        return sum(len(counting.match(event)) for event in events)

    batch_seconds, _ = best_seconds(run_batch)
    sequential_seconds, _ = best_seconds(run_sequential)
    bench_results["batch"] = {
        "events": len(events),
        "batch_seconds": batch_seconds,
        "sequential_seconds": sequential_seconds,
        "batch_events_per_second": (
            len(events) / batch_seconds if batch_seconds else None
        ),
        "sequential_events_per_second": (
            len(events) / sequential_seconds if sequential_seconds else None
        ),
        "batch_speedup": (
            sequential_seconds / batch_seconds if batch_seconds else None
        ),
    }
