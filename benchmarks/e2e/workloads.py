"""The four benchmark workloads and the inputs generated for one run.

Everything a run feeds the system is made here from ``--seed`` with
``repro.workloads``: the subscription tables (background share for the
server process, wire share for the subscriber connection), the event
pool the publisher cycles through, the churn trees, and the
``NaiveMatcher`` oracle of which wire subscription every pool event
must reach.  The server process receives only the serialized inputs
(``server_inputs``); it never sees the seed.

Each workload exists to put one group of layers in charge of the
end-to-end numbers (``why`` below, and the interaction table in
``README.md``); sizes come from in-process sizing on a 2-core host.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.events import Event
from repro.matching import NaiveMatcher
from repro.subscriptions.builder import P
from repro.subscriptions.nodes import Node
from repro.subscriptions.serialize import node_to_dict
from repro.subscriptions.subscription import Subscription
from repro.workloads import (
    AuctionWorkload,
    AuctionWorkloadConfig,
    TreeHeavyConfig,
    TreeHeavyWorkload,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: table shape, placement, and offered load."""

    name: str
    why: str
    brokers: int
    source: str  # "auction" | "tree_heavy"
    subscriptions: int
    #: How many of the subscriptions homed at the subscriber's broker go
    #: over the socket; the rest stay in-process.
    wire: int
    #: Brokers the table is homed on, round-robin; the last one is the
    #: wire subscriber's broker.
    homes: Sequence[str]
    paced_rate: float
    #: ``replace`` operations per second issued *during* the paced
    #: phase on a dedicated churn set (0: the idle churn phase instead).
    paced_churn_rate: float = 0.0
    churn_set: int = 0
    adaptive: bool = False
    #: One more wire subscription that every event fulfils, so that every
    #: event is timed end to end, not only those the table matches.
    firehose: bool = False
    smoke_subscriptions: int = 100
    smoke_wire: int = 20

    @property
    def publisher_broker(self) -> str:
        return "b0"

    @property
    def subscriber_broker(self) -> str:
        return self.homes[-1]


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="wire_light",
            why=(
                "1 broker, 200 auction subscriptions all on the wire, 1000 ev/s: "
                "matching is a small share, so transport and service own the time"
            ),
            brokers=1,
            source="auction",
            subscriptions=200,
            wire=200,
            homes=("b0",),
            paced_rate=1000.0,
            smoke_subscriptions=100,
            smoke_wire=100,
        ),
        WorkloadSpec(
            name="match_heavy",
            why=(
                "1 broker, 10000 auction subscriptions (500 on the wire), 50 ev/s: "
                "CountingMatcher.match_batch dominates; batches of 1 paced, 64 saturated"
            ),
            brokers=1,
            source="auction",
            subscriptions=10000,
            wire=500,
            homes=("b0",),
            paced_rate=50.0,
            smoke_subscriptions=200,
            smoke_wire=50,
        ),
        WorkloadSpec(
            name="tree_mesh",
            why=(
                "line of 3, 1000 tree-heavy subscriptions at b2 (10 on the wire): "
                "compiled-tree fallback, two hops and ~570 dispatches per event"
            ),
            brokers=3,
            source="tree_heavy",
            subscriptions=1000,
            wire=10,
            homes=("b2",),
            paced_rate=50.0,
            smoke_subscriptions=100,
            smoke_wire=10,
        ),
        WorkloadSpec(
            name="churn_prune",
            why=(
                "line of 5, 350 auction subscriptions on b1..b4, adaptive pruning "
                "on, replace at 5 ops/s beside 50 ev/s: cycles re-plan under the lock"
            ),
            brokers=5,
            source="auction",
            # A re-plan costs ~0.9 ms per registered subscription under the
            # publish lock, once per 64 events (1.28 s at 50 ev/s).  350 stall
            # about a quarter of the paced phase: the median stays clear of
            # the stalls and p95 sits where their distribution is flat.
            # 2000 would saturate the phase.
            subscriptions=350,
            wire=175,
            # Half the table lives at the subscriber's broker, all of it on
            # the wire, and a firehose subscription samples every event: the
            # tail is made of a few stalls and needs every sample it can get.
            homes=("b1", "b4", "b2", "b4", "b3", "b4"),
            firehose=True,
            paced_rate=50.0,
            paced_churn_rate=5.0,
            churn_set=20,
            adaptive=True,
            smoke_subscriptions=120,
            smoke_wire=60,
        ),
    )
}

#: Events in the pool every phase cycles through (each publish still
#: carries a fresh ``eid``).  The oracle costs pool × wire-share tree
#: evaluations in the generator, which is what bounds this.
POOL_EVENTS = 1024
SMOKE_POOL_EVENTS = 128

#: Trees one pass of the idle churn phase subscribes, replaces and
#: unsubscribes; enough of them that the seed's mix of subscription
#: classes moves a pass's mean cost by a few per cent only.
CHURN_TREES = 64


@dataclass
class Inputs:
    """Everything generated from the seed for one workload."""

    spec: WorkloadSpec
    seed: int
    #: ``{"broker", "tree"}`` items the server registers in-process.
    background: List[Dict[str, Any]]
    #: Wire-share trees, subscribed by the subscriber connection in order.
    wire_trees: List[Node]
    #: Churn-set trees: ``churn_pairs[i]`` are the two trees wire churn
    #: subscription ``i`` alternates between (starts on the first).
    churn_pairs: List[List[Node]]
    #: Trees for the idle churn phase.
    churn_trees: List[Node]
    #: The event pool as plain attribute dicts (``eid`` added per publish).
    pool: List[Dict[str, Any]]
    #: ``oracle[j]``: wire-share indexes whose tree matches pool event j.
    oracle: List[List[int]]
    #: ``churn_oracle[j][i]``: how many of churn subscription i's trees
    #: match pool event j (0: never justified, all: always required).
    churn_oracle: List[List[int]]
    adaptive: Optional[Dict[str, Any]]
    sha256: str

    def server_inputs(self) -> Dict[str, Any]:
        """What the server process is handed — no seed, no oracle."""
        return {
            "brokers": self.spec.brokers,
            "background": self.background,
            "adaptive": self.adaptive,
        }


def _generate_subscriptions(spec: WorkloadSpec, seed: int, count: int, id_start: int):
    if spec.source == "tree_heavy":
        return TreeHeavyWorkload(TreeHeavyConfig(seed=seed)).generate_subscriptions(
            count, id_start=id_start
        )
    return AuctionWorkload(AuctionWorkloadConfig(seed=seed)).generate_subscriptions(
        count, id_start=id_start
    )


def _generate_events(spec: WorkloadSpec, seed: int, count: int) -> List[Event]:
    if spec.source == "tree_heavy":
        return list(TreeHeavyWorkload(TreeHeavyConfig(seed=seed)).generate_events(count))
    return list(AuctionWorkload(AuctionWorkloadConfig(seed=seed)).generate_events(count))


def _match_table(trees: Sequence[Node], events: Sequence[Event]) -> List[List[int]]:
    """Per event, the indexes of ``trees`` it fulfils (the naive oracle)."""
    oracle = NaiveMatcher()
    for index, tree in enumerate(trees):
        oracle.register(Subscription(index, tree))
    return [sorted(matched) for matched in oracle.match_batch(events)]


def build_inputs(spec: WorkloadSpec, seed: int, smoke: bool = False) -> Inputs:
    """Generate one workload's inputs; the same seed gives the same inputs."""
    total = spec.smoke_subscriptions if smoke else spec.subscriptions
    wire_count = spec.smoke_wire if smoke else spec.wire
    pool_size = SMOKE_POOL_EVENTS if smoke else POOL_EVENTS
    subscriptions = _generate_subscriptions(spec, seed, total, 0)
    homes = list(spec.homes)
    wire_home = spec.subscriber_broker
    at_wire_home = [
        index for index in range(total) if homes[index % len(homes)] == wire_home
    ]
    # Spread the wire share evenly over the subscriber broker's entries.
    stride = max(1, len(at_wire_home) // wire_count)
    wire_indexes = set(at_wire_home[::stride][:wire_count])
    background = []
    wire_trees = []
    for index, subscription in enumerate(subscriptions):
        if index in wire_indexes:
            wire_trees.append(subscription.tree)
        else:
            background.append(
                {
                    "broker": homes[index % len(homes)],
                    "tree": node_to_dict(subscription.tree),
                }
            )
    if spec.firehose:
        wire_trees.append(P("price") >= 0.0)
    extra = _generate_subscriptions(
        spec, seed, CHURN_TREES + 2 * spec.churn_set, 1_000_000
    )
    churn_trees = [subscription.tree for subscription in extra[:CHURN_TREES]]
    paired = [subscription.tree for subscription in extra[CHURN_TREES:]]
    churn_pairs = [paired[2 * i : 2 * i + 2] for i in range(spec.churn_set)]

    events = _generate_events(spec, seed, pool_size)
    oracle = _match_table(wire_trees, events)
    churn_oracle = [[0] * len(churn_pairs) for _ in events]
    for alternative in range(2):
        matched = _match_table([pair[alternative] for pair in churn_pairs], events)
        for row, indexes in zip(churn_oracle, matched):
            for index in indexes:
                row[index] += 1

    adaptive = None
    if spec.adaptive:
        # Every broker of the line holds an entry for every subscription,
        # so the unpruned table is brokers × Σ mem≈.  A budget at 0.8 of
        # it keeps memory the stressed dimension for the whole run; the
        # rate thresholds sit at their maximum (a link or the filters
        # busy for the whole window) so that decisions depend on counts,
        # not on host speed.
        registered = list(subscriptions) + [
            Subscription(0, pair[0]) for pair in churn_pairs
        ]
        if spec.firehose:
            registered.append(Subscription(0, wire_trees[-1]))
        unpruned = spec.brokers * sum(sub.size_bytes for sub in registered)
        adaptive = {
            "cycle_events": 64,
            "batch_size": 32,
            "memory_budget_bytes": int(0.8 * unpruned),
            # No per-subscription degradation bound: under it most seeds
            # find nothing to prune, and the workload exists to apply and
            # restore prunings.  Unbounded, a stressed cycle prunes a full
            # batch whatever the seed.
            "stop_degradation": None,
            "bandwidth_threshold": 1.0,
            "filter_threshold": 1.0,
        }

    pool = [event.to_dict() for event in events]
    digest = hashlib.sha256(
        json.dumps(
            {
                "background": background,
                "wire": [node_to_dict(tree) for tree in wire_trees],
                "churn_pairs": [
                    [node_to_dict(tree) for tree in pair] for pair in churn_pairs
                ],
                "churn": [node_to_dict(tree) for tree in churn_trees],
                "pool": pool,
                "adaptive": adaptive,
            },
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()
    return Inputs(
        spec=spec,
        seed=seed,
        background=background,
        wire_trees=wire_trees,
        churn_pairs=churn_pairs,
        churn_trees=churn_trees,
        pool=pool,
        oracle=oracle,
        churn_oracle=churn_oracle,
        adaptive=adaptive,
        sha256=digest,
    )
