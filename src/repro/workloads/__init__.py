"""Workload generation: the paper's online book-auction scenario.

The paper evaluates on an online-auction application: events follow the
characteristic distributions of online book auctions (its ref [3]) and
subscriptions conform to "three classes typical for online book auctions"
(its ref [4]).  Both references are departmental tech reports we do not
have, so this package synthesizes an equivalent: skewed (Zipf)
categorical attributes, piecewise-linear numeric distributions sampled
by inverse CDF (so the analytic selectivity statistics are *exact*), and
three parameterized subscription classes — specific-item,
category-interest, and collector subscriptions.

:mod:`repro.workloads.tree_heavy` complements the auction scenario with
a synthetic worst case for the counting engine's candidate fallback:
every subscription is a deep OR-of-ANDs general tree and nearly every
one survives the ``pmin`` gate, so matching cost concentrates in the
compiled-tree evaluation the batch path vectorizes.
"""

from repro.workloads.auction import (
    AuctionWorkload,
    AuctionWorkloadConfig,
    SubscriptionClassMix,
)
from repro.workloads.distributions import (
    Categorical,
    PiecewiseLinear,
    zipf_weights,
)
from repro.workloads.schema import AuctionSchema, AttributeSpec
from repro.workloads.tree_heavy import TreeHeavyConfig, TreeHeavyWorkload

__all__ = [
    "AttributeSpec",
    "AuctionSchema",
    "AuctionWorkload",
    "AuctionWorkloadConfig",
    "Categorical",
    "PiecewiseLinear",
    "SubscriptionClassMix",
    "TreeHeavyConfig",
    "TreeHeavyWorkload",
    "zipf_weights",
]
