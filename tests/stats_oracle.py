"""An independent oracle for the counting engine's ``MatchStatistics``.

The counters are derived from the registered trees alone, never from the
engine's indexes, slots or probes, so they check the one matching
pipeline against a definition rather than against itself:

* ``fulfilled_predicates`` — predicate leaves whose attribute the event
  carries and whose ``Predicate.test`` holds;
* ``candidates`` — subscriptions whose fulfilled-leaf count reaches
  ``min(pmin, PMIN_UNSATISFIABLE)``;
* ``tree_evaluations`` — candidates whose tree is *general*: neither a
  constant, a single leaf, nor a flat AND/OR of leaves;
* ``matches`` — :class:`~repro.matching.naive.NaiveMatcher`'s match sets.
"""

from __future__ import annotations

from repro.matching.naive import NaiveMatcher
from repro.subscriptions.metrics import PMIN_UNSATISFIABLE
from repro.subscriptions.nodes import AndNode, OrNode, PredicateLeaf


def counters(stats):
    """The path-independent counter tuple of a ``MatchStatistics`` (wall
    clock excluded): ``(events, matches, candidates, tree_evaluations,
    fulfilled_predicates)``."""
    return (
        stats.events,
        stats.matches,
        stats.candidates,
        stats.tree_evaluations,
        stats.fulfilled_predicates,
    )


def _is_general_tree(tree):
    return isinstance(tree, (AndNode, OrNode)) and not all(
        isinstance(child, PredicateLeaf) for child in tree.children
    )


def _fulfilled_leaves(tree, event):
    count = 0
    for _path, node in tree.iter_nodes():
        if isinstance(node, PredicateLeaf):
            predicate = node.predicate
            if predicate.attribute in event and predicate.test(
                event[predicate.attribute]
            ):
                count += 1
    return count


def statistics_oracle(subscriptions, events):
    """The counter tuple (see :func:`counters`) that matching ``events``
    against the table ``subscriptions`` must add."""
    subscriptions = list(subscriptions)
    naive = NaiveMatcher()
    for subscription in subscriptions:
        naive.register(subscription)
    matches = candidates = evaluations = fulfilled = 0
    for event in events:
        matches += len(naive.match(event))
        for subscription in subscriptions:
            count = _fulfilled_leaves(subscription.tree, event)
            fulfilled += count
            if count >= min(subscription.pmin, PMIN_UNSATISFIABLE):
                candidates += 1
                if _is_general_tree(subscription.tree):
                    evaluations += 1
    return (len(events), matches, candidates, evaluations, fulfilled)
