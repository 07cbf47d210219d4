"""Filtering engines: match event messages against registered subscriptions.

Two engines implement the same :class:`~repro.matching.interfaces.Matcher`
interface:

* :class:`~repro.matching.counting.CountingMatcher` — the production engine,
  modelled on the counting-based Boolean filtering algorithm of Bittner &
  Hinze (CoopIS 2005, the paper's ref [2]): predicates are indexed per
  attribute and operator; a subscription's tree is only evaluated once at
  least ``pmin`` of its predicates are fulfilled.
* :class:`~repro.matching.naive.NaiveMatcher` — evaluates every subscription
  tree against every event; the correctness oracle and baseline.

A third engine composes the first:
:class:`~repro.matching.sharded.ShardedMatcher` partitions the table
into K independent counting-engine shards (stable ``sub_id → shard``
hash), run either in the caller's process or in persistent worker
processes on separate cores, and merges per-event id lists and sums
statistics so results are bit-identical to one unsharded engine.

The counting engine has one matching pipeline, ``match_batch``
(:mod:`repro.matching.batch`), and its per-event ``match`` is a batch of
one.  It probes its indexes once per batch over the batch's columnar
view, vectorizes the candidate test with a 2-D fulfilled-count matrix,
and — when general-tree candidates survive — evaluates the whole
compiled-tree program (:mod:`repro.matching.treeval`) against the
chunk's entry-flag matrix in one pass of segment reductions.  The naive
engine loops; equal outputs are the pipeline's correctness contract.  The counting engine's indexes and compiled trees
are incrementally maintained: register/unregister/replace touch only
the subscription's own predicate buckets and tree (O(subscription), not
O(table)); the tree program's evaluation layout is rebuilt lazily, and
tables self-compact when unregistration churn fragments them.
"""

from repro.matching.batch import counting_match_batch
from repro.matching.counting import CountingMatcher
from repro.matching.interfaces import Matcher
from repro.matching.naive import NaiveMatcher
from repro.matching.sharded import ShardedMatcher, shard_of
from repro.matching.stats import MatchStatistics
from repro.matching.treeval import TreePrograms

__all__ = [
    "CountingMatcher",
    "Matcher",
    "MatchStatistics",
    "NaiveMatcher",
    "ShardedMatcher",
    "TreePrograms",
    "counting_match_batch",
    "shard_of",
]
