"""Tier-1 guard for the end-to-end benchmark (``--smoke`` scale).

One smoke run must finish quickly, print every metric ``BENCHMARK.json``
names, pass ``check.py`` and leave nothing behind outside ``--out``; the
inputs and the exact matching counts must be functions of the seed; and
``check.py`` must count a dropped and a duplicated notification.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.events import Event, EventBatch
from repro.matching import CountingMatcher
from repro.subscriptions.serialize import node_from_dict
from repro.subscriptions.subscription import Subscription

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SMOKE_SEED = 7
COUNT_METRICS = (
    "matching.candidates_per_event",
    "matching.tree_evaluations_per_event",
    "matching.fulfilled_predicates_per_event",
    "matching.matches_per_event",
)


def _load(name: str):
    """A sibling module under a private name (no ``sys.path`` games)."""
    spec = importlib.util.spec_from_file_location("e2e_" + name, HERE / (name + ".py"))
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _tree_listing():
    return sorted(
        str(path.relative_to(HERE))
        for path in HERE.rglob("*")
        if "__pycache__" not in path.parts
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-smoke")
    before = _tree_listing()
    started = time.monotonic()
    process = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "wire_light",
            "--seed", str(SMOKE_SEED), "--trace", "1", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert process.returncode == 0, process.stderr
    (results_file,) = out.glob("results-*.json")
    return {
        "stdout": process.stdout,
        "elapsed": elapsed,
        "out": out,
        "results": json.loads(results_file.read_text()),
        "tree_before": before,
        "tree_after": _tree_listing(),
    }


def test_smoke_prints_every_metric_and_passes_check(smoke):
    assert smoke["elapsed"] <= 15.0
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["name"] in smoke["stdout"], metric["name"]
    final = json.loads(smoke["stdout"].strip().splitlines()[-1])
    assert sorted(final) == ["attempted", "correct", "failed", "metrics"]
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] > 0
    assert sorted(final["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    workload = smoke["results"]["workloads"]["wire_light"]
    assert workload["failed_ratio"] == 0 and workload["leaks"] == []
    assert sorted(workload["end_to_end"]) == sorted(
        m["name"] for m in BENCHMARK["end_to_end"]
    )
    assert list(smoke["results"])[-1] == "claim" and smoke["results"]["claim"] is None


def test_smoke_writes_only_under_out(smoke):
    assert smoke["tree_after"] == smoke["tree_before"]
    written = sorted(path.name.split("-")[0] for path in smoke["out"].iterdir())
    assert written == ["results", "trace"]


def test_inputs_and_exact_counts_are_functions_of_the_seed(smoke):
    workloads = _load("workloads")
    spec = workloads.WORKLOADS["wire_light"]
    inputs = workloads.build_inputs(spec, SMOKE_SEED, smoke=True)
    again = workloads.build_inputs(spec, SMOKE_SEED, smoke=True)
    other = workloads.build_inputs(spec, SMOKE_SEED + 1, smoke=True)
    workload = smoke["results"]["workloads"]["wire_light"]
    assert inputs.sha256 == again.sha256 == workload["inputs_sha256"]
    assert other.sha256 != inputs.sha256

    # The counts the traced run reports are exactly what the engine
    # yields in-process for the paced phase's (seed-determined) events.
    engine = CountingMatcher()
    for index, tree in enumerate(inputs.wire_trees):
        engine.register(Subscription(index, tree))
    for offset, item in enumerate(inputs.background):
        engine.register(Subscription(10_000 + offset, node_from_dict(item["tree"])))
    first, last = workload["paced_events"]
    events = [
        Event({**inputs.pool[eid % len(inputs.pool)], "eid": eid})
        for eid in range(first, last)
    ]
    engine.match_batch(EventBatch(events))
    stats = engine.statistics
    expected = (
        stats.candidates, stats.tree_evaluations, stats.fulfilled_predicates, stats.matches,
    )
    for name, total in zip(COUNT_METRICS, expected):
        assert workload["per_layer"][name]["value"] == pytest.approx(
            total / len(events), rel=1e-12
        ), name


def test_check_counts_a_dropped_and_a_duplicated_notification():
    check = _load("check")
    required = [(eid, 5) for eid in range(10)]
    received = [(seq, eid, 5) for seq, eid in enumerate(range(10))]
    clean = check.verify(
        check.Observation(
            required=required, allowed=set(), received=received,
            publishes_sent=10, publishes_replied=10,
        )
    )
    assert clean["failed"] == 0 and clean["attempted"] == 20

    dropped_and_duplicated = [entry for entry in received if entry[1] != 3]
    dropped_and_duplicated.append((10, 6, 5))  # event 6 delivered twice
    verdict = check.verify(
        check.Observation(
            required=required, allowed=set(), received=dropped_and_duplicated,
            publishes_sent=10, publishes_replied=10,
        )
    )
    assert verdict["failures"]["missing"] == 1
    assert verdict["failures"]["duplicated"] == 1
    # The drop also leaves a hole in delivery_seq (2 -> 4).
    assert verdict["failures"]["out_of_order"] == 1
    assert verdict["failed"] == 3
    assert verdict["failed_ratio"] == pytest.approx(3 / 20)
