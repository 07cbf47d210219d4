"""Shared fixtures for the benchmark suite.

Benchmarks regenerate every figure of the paper at a reduced scale so the
whole suite completes in minutes (the paper's own scale is 200k
subscriptions × 100k events on five machines).  Scale is adjustable
through environment variables:

    REPRO_BENCH_SUBSCRIPTIONS (default 220)
    REPRO_BENCH_EVENTS        (default 70)
    REPRO_BENCH_POINTS        (default 5)

The matching micro-benchmarks rewrite the tracked ``BENCH_matching.json``
only when ``REPRO_BENCH_WRITE=1`` is set, so a plain test run leaves the
working tree clean.

For a full-scale offline run use the CLI instead:
``python -m repro.experiments.run --scale paper``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext

#: Machine-readable matching-benchmark results, written at session end
#: (with ``REPRO_BENCH_WRITE=1``) so the perf trajectory of the matching
#: engine is tracked across PRs.
BENCH_MATCHING_PATH = Path(__file__).resolve().parent.parent / "BENCH_matching.json"


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def best_seconds(fn, repeats: int = 5):
    """Best-of-``repeats`` wall-clock seconds of one ``fn()`` call.

    The minimum over several runs is the standard low-noise estimator for
    micro-benchmarks (anything above the minimum is scheduling jitter).
    Returns ``(seconds, last_result)``.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best, result


@pytest.fixture(scope="session")
def bench_results(bench_config):
    """Dict collected by matching micro-benchmarks, flushed to
    ``BENCH_matching.json`` at the repo root when the session ends and
    ``REPRO_BENCH_WRITE=1`` is set."""
    results = {}
    yield results
    if not results or os.environ.get("REPRO_BENCH_WRITE") != "1":
        return
    payload = {
        "schema": 1,
        "suite": "matching",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # Host parallelism context: speedup numbers (the sharding sweep
        # especially) are meaningless without knowing how many cores —
        # and which platform — produced them.
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "config": {
            "subscriptions": bench_config.subscription_count,
            "events": bench_config.event_count,
            "seed": bench_config.seed,
        },
        "results": results,
    }
    BENCH_MATCHING_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The benchmark-scale experiment configuration."""
    return ExperimentConfig(
        seed=42,
        subscription_count=_env_int("REPRO_BENCH_SUBSCRIPTIONS", 220),
        event_count=_env_int("REPRO_BENCH_EVENTS", 70),
        grid_points=_env_int("REPRO_BENCH_POINTS", 5),
    )


@pytest.fixture(scope="session")
def bench_context(bench_config) -> ExperimentContext:
    """Shared workload/schedules across all benchmarks."""
    return ExperimentContext(bench_config)


@pytest.fixture(scope="session")
def bench_workload(bench_context):
    """The auction workload behind the benchmark context."""
    return bench_context.workload


@pytest.fixture(scope="session")
def bench_events(bench_context):
    """The benchmark event batch."""
    return bench_context.events


@pytest.fixture(scope="session")
def bench_subscriptions(bench_context):
    """The benchmark subscription set."""
    return bench_context.subscriptions
