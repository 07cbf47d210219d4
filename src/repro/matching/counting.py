"""The counting-based filtering engine.

Modelled on the non-canonical Boolean filtering algorithm of Bittner &
Hinze (CoopIS 2005; the paper's ref [2]):

1. every predicate leaf of every registered subscription is an *entry* in a
   per-attribute operator index (:mod:`repro.matching.predicate_index`);
2. for each event, the indexes report all fulfilled entries; a vectorized
   ``bincount`` turns them into a fulfilled-predicate count per
   subscription;
3. a subscription is a *candidate* only when its count reaches ``pmin`` —
   the minimal number of fulfilled predicates that can possibly fulfil it
   (paper Sect. 3.3);
4. candidates that are flat conjunctions, flat disjunctions, single
   predicates, or constants are decided by the counter alone; only general
   trees are actually evaluated, against the per-entry truth flags.

Pruning a subscription lowers its tree size and (usually) its ``pmin``;
this engine is exactly where the paper's throughput dimension becomes
measurable.

Mutations (register/unregister/replace) are applied **incrementally**:
each one updates only the index buckets and slot arrays the subscription
touches, so churn costs O(subscription size), not O(table).  Slot and
entry ids come from free lists and are recycled; :meth:`rebuild` survives
as compaction that re-packs both id spaces in subscription-id order, and
runs automatically when unregistration leaves the free lists holding
more than ``compact_free_fraction`` of the live population (long churny
lifetimes would otherwise fragment the slot/entry arrays).

Matching has one pipeline, :meth:`CountingMatcher.match_batch`
(:mod:`repro.matching.batch`): it probes the indexes once per batch over
the batch's columnar view and runs the candidate test for the whole
batch with one 2-D bincount.  General trees are compiled into flat
per-tree arrays (:mod:`repro.matching.treeval`, updated by the same
incremental churn) from which every tree is evaluated against every
event of a chunk at once.  :meth:`CountingMatcher.match` is a one-row
batch.  The recursive ``_evaluate_compiled`` evaluates one nested-tuple
program against one flag vector; it is the test oracle of the columnar
tree evaluator.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import MatchingError
from repro.events import Event, EventBatch
from repro.matching.batch import _BatchRun, counting_match_batch
from repro.matching.interfaces import Matcher
from repro.matching.predicate_index import PredicateIndexSet
from repro.matching.stats import MatchStatistics
from repro.matching.treeval import OP_AND, OP_LEAF, OP_OR, TreePrograms
from repro.subscriptions.metrics import PMIN_UNSATISFIABLE
from repro.subscriptions.nodes import (
    AndNode,
    ConstNode,
    Node,
    OrNode,
    PredicateLeaf,
)
from repro.subscriptions.predicates import Predicate
from repro.subscriptions.subscription import Subscription

_KIND_TRUE = 0
_KIND_FALSE = 1
_KIND_SINGLE = 2
_KIND_FLAT_AND = 3
_KIND_FLAT_OR = 4
_KIND_TREE = 5

# Compiled evaluator opcodes (nested tuples), shared with the columnar
# evaluator in :mod:`repro.matching.treeval`.
_OP_LEAF = OP_LEAF
_OP_AND = OP_AND
_OP_OR = OP_OR

#: pmin sentinel of a free slot — no fulfilled-count can ever reach it.
_PMIN_FREE = PMIN_UNSATISFIABLE + 1

#: Compaction floor: below this many free ids, fragmentation is noise and
#: auto-compaction never triggers (keeps small tables O(delta) under churn).
_COMPACT_MIN_FREE = 64


def _compile_tree(node: Node, leaf_entries: List[int], cursor: List[int]) -> Tuple:
    """Compile a normalized tree into nested tuples over entry positions.

    ``leaf_entries`` holds the entry id of each predicate leaf in preorder;
    ``cursor`` is a one-element list used as a mutable preorder position.
    """
    if isinstance(node, PredicateLeaf):
        entry = leaf_entries[cursor[0]]
        cursor[0] += 1
        return (_OP_LEAF, entry)
    if isinstance(node, AndNode):
        return (_OP_AND, tuple(
            _compile_tree(child, leaf_entries, cursor) for child in node.children
        ))
    if isinstance(node, OrNode):
        return (_OP_OR, tuple(
            _compile_tree(child, leaf_entries, cursor) for child in node.children
        ))
    raise MatchingError(
        "cannot compile node of type %s (tree must be normalized)"
        % type(node).__name__
    )


def _evaluate_compiled(program: Tuple, flags: np.ndarray) -> bool:
    opcode, operand = program
    if opcode == _OP_LEAF:
        return bool(flags[operand])
    if opcode == _OP_AND:
        for child in operand:
            if not _evaluate_compiled(child, flags):
                return False
        return True
    for child in operand:
        if _evaluate_compiled(child, flags):
            return True
    return False


class _SlotState:
    """Per-subscription compiled state inside the engine."""

    __slots__ = ("subscription", "kind", "entries", "predicates")

    def __init__(
        self,
        subscription: Subscription,
        kind: int,
        entries: List[int],
        predicates: List[Predicate],
    ) -> None:
        self.subscription = subscription
        self.kind = kind
        self.entries = entries
        self.predicates = predicates


def _grown(array: np.ndarray, needed: int, fill: int) -> np.ndarray:
    """``array`` extended to at least ``needed`` elements (2x doubling)."""
    capacity = len(array)
    if needed <= capacity:
        return array
    new_capacity = max(16, capacity * 2, needed)
    grown = np.full(new_capacity, fill, dtype=array.dtype)
    grown[:capacity] = array
    return grown


class CountingMatcher(Matcher):
    """Counting-based filtering engine (see module docstring).

    >>> from repro.subscriptions import P, And, Subscription
    >>> from repro.events import Event
    >>> engine = CountingMatcher()
    >>> engine.register(Subscription(7, And(P("a") == 1, P("b") <= 2.0)))
    >>> engine.match(Event({"a": 1, "b": 1.5}))
    [7]
    >>> engine.match(Event({"a": 1, "b": 9.9}))
    []
    """

    def __init__(self, compact_free_fraction: Optional[float] = 0.5) -> None:
        #: Auto-compaction threshold: :meth:`unregister` calls
        #: :meth:`rebuild` when either free list exceeds this fraction of
        #: its live population (``None`` disables auto-compaction).
        self.compact_free_fraction = compact_free_fraction
        self._subscriptions: Dict[int, Subscription] = {}
        self.statistics = MatchStatistics()
        self._indexes = PredicateIndexSet()
        #: Slot states; ``None`` marks a free slot awaiting reuse.
        self._slots: List[Optional[_SlotState]] = []
        self._free_slots: List[int] = []
        self._slot_of: Dict[int, int] = {}
        # Entry/slot-aligned arrays, capacity-doubled; logical lengths are
        # ``len(self._slots)`` and ``self._indexes.entry_capacity``.
        self._slot_ids: np.ndarray = np.empty(0, dtype=np.int64)
        self._pmin: np.ndarray = np.empty(0, dtype=np.int64)
        self._kinds: np.ndarray = np.empty(0, dtype=np.int8)
        self._entry_slot: np.ndarray = np.empty(0, dtype=np.int64)
        #: Compiled flat tree of every _KIND_TREE slot (see
        #: :mod:`repro.matching.treeval`), maintained incrementally.
        self._tree_programs = TreePrograms()
        self._tree_slot_count = 0
        self._negated_entry_count = 0

    # -- registration ---------------------------------------------------------

    def register(self, subscription: Subscription) -> None:
        self._require_unknown(subscription.id)
        self._insert(subscription)

    def unregister(self, subscription_id: int) -> None:
        self._require_known(subscription_id)
        self._withdraw(subscription_id)
        self._maybe_compact()

    def replace(self, subscription: Subscription) -> None:
        self._require_known(subscription.id)
        # The freed slot is reused immediately (LIFO free list), so a
        # replace is an in-place index delta, not a table rebuild.
        self._withdraw(subscription.id)
        self._insert(subscription)

    def subscriptions(self) -> Dict[int, Subscription]:
        return self._subscriptions

    # -- incremental maintenance ----------------------------------------------

    def _insert(self, subscription: Subscription) -> None:
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._slots)
            self._slots.append(None)
            self._slot_ids = _grown(self._slot_ids, slot + 1, fill=-1)
            self._pmin = _grown(self._pmin, slot + 1, fill=_PMIN_FREE)
            self._kinds = _grown(self._kinds, slot + 1, fill=_KIND_FALSE)
        tree = subscription.tree
        leaf_entries: List[int] = []
        leaf_predicates: List[Predicate] = []
        for _path, node in tree.iter_nodes():
            if isinstance(node, PredicateLeaf):
                entry = self._indexes.add(node.predicate)
                self._entry_slot = _grown(self._entry_slot, entry + 1, fill=-1)
                self._entry_slot[entry] = slot
                leaf_entries.append(entry)
                leaf_predicates.append(node.predicate)
        kind, program = self._classify(tree, leaf_entries)
        self._slots[slot] = _SlotState(
            subscription, kind, leaf_entries, leaf_predicates
        )
        self._slot_ids[slot] = subscription.id
        self._pmin[slot] = min(subscription.pmin, PMIN_UNSATISFIABLE)
        self._kinds[slot] = kind
        if kind == _KIND_TREE:
            self._tree_slot_count += 1
            self._tree_programs.compile(slot, program)
        self._negated_entry_count += sum(
            1 for predicate in leaf_predicates if predicate.operator.is_negated
        )
        self._slot_of[subscription.id] = slot
        self._subscriptions[subscription.id] = subscription

    def _withdraw(self, subscription_id: int) -> None:
        slot = self._slot_of.pop(subscription_id)
        state = self._slots[slot]
        for predicate, entry in zip(state.predicates, state.entries):
            self._indexes.remove(predicate, entry)
        if state.kind == _KIND_TREE:
            self._tree_slot_count -= 1
            self._tree_programs.discard(slot)
        self._negated_entry_count -= sum(
            1 for predicate in state.predicates if predicate.operator.is_negated
        )
        self._slots[slot] = None
        self._slot_ids[slot] = -1
        self._pmin[slot] = _PMIN_FREE
        self._kinds[slot] = _KIND_FALSE
        self._free_slots.append(slot)
        del self._subscriptions[subscription_id]

    # -- compaction -----------------------------------------------------------

    def _maybe_compact(self) -> None:
        """Compact when a free list dominates its live population.

        Called after every unregistration (never inside :meth:`replace`,
        whose freed ids are reused immediately): once free slots or free
        entries exceed ``compact_free_fraction`` of the live count — and
        the absolute waste clears a floor so small tables never thrash —
        the table is rebuilt into dense id-ordered layouts.
        """
        fraction = self.compact_free_fraction
        if fraction is None:
            return
        free_slots = len(self._free_slots)
        free_entries = self._indexes.free_entry_count
        if free_slots < _COMPACT_MIN_FREE and free_entries < _COMPACT_MIN_FREE:
            return
        if (
            free_slots > len(self._subscriptions) * fraction
            or free_entries > self._indexes.entry_count * fraction
        ):
            self.rebuild()

    def rebuild(self) -> None:
        """Re-pack slot and entry id spaces in subscription-id order.

        Matching never requires this — indexes are maintained
        incrementally — but long churny lifetimes can fragment the free
        lists; compaction restores dense, id-ordered layouts.  Triggered
        automatically by :meth:`unregister` via the
        ``compact_free_fraction`` heuristic, or callable directly during
        idle periods.
        """
        subscriptions = [
            self._subscriptions[sub_id] for sub_id in sorted(self._subscriptions)
        ]
        self._subscriptions = {}
        self._indexes = PredicateIndexSet()
        self._slots = []
        self._free_slots = []
        self._slot_of = {}
        self._slot_ids = np.empty(0, dtype=np.int64)
        self._pmin = np.empty(0, dtype=np.int64)
        self._kinds = np.empty(0, dtype=np.int8)
        self._entry_slot = np.empty(0, dtype=np.int64)
        self._tree_programs = TreePrograms()
        self._tree_slot_count = 0
        self._negated_entry_count = 0
        for subscription in subscriptions:
            self._insert(subscription)

    @staticmethod
    def _classify(tree: Node, leaf_entries: List[int]) -> Tuple[int, Optional[Tuple]]:
        if isinstance(tree, ConstNode):
            return (_KIND_TRUE, None) if tree.value else (_KIND_FALSE, None)
        if isinstance(tree, PredicateLeaf):
            return _KIND_SINGLE, None
        if isinstance(tree, AndNode) and all(
            isinstance(child, PredicateLeaf) for child in tree.children
        ):
            return _KIND_FLAT_AND, None
        if isinstance(tree, OrNode) and all(
            isinstance(child, PredicateLeaf) for child in tree.children
        ):
            return _KIND_FLAT_OR, None
        return _KIND_TREE, _compile_tree(tree, leaf_entries, [0])

    # -- matching ---------------------------------------------------------------

    def match(self, event: Event) -> List[int]:
        """Match one event: a one-row :meth:`match_batch`."""
        return self.match_batch([event])[0]

    def match_batch(
        self, events: Union[Sequence[Event], EventBatch]
    ) -> List[List[int]]:
        """Vectorized batch matching (see :mod:`repro.matching.batch`).

        Index probes run once per batch over the batch's columnar view;
        passing an :class:`~repro.events.EventBatch` lets consecutive
        matchers (e.g. brokers along a path) share one columnarization.
        """
        return counting_match_batch(self, events)

    # -- introspection ----------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Number of live predicate entries in the index."""
        return self._indexes.entry_count

    @property
    def tree_slot_count(self) -> int:
        """Number of live subscriptions holding a general (non-flat) tree."""
        return self._tree_slot_count

    @property
    def negated_entry_count(self) -> int:
        """Number of live negated-operator predicate entries."""
        return self._negated_entry_count

    def fulfilled_counts(self, event: Event) -> Dict[int, int]:
        """Fulfilled-predicate count per subscription id (diagnostics).

        Runs the batch path's probe and count assembly on a one-row
        batch, so it counts exactly what :meth:`match_batch` counts.
        """
        pos_pairs: tuple = ([], [])
        neg_pairs: tuple = ([], [])
        self._indexes.collect_batch(
            EventBatch([event]).columns(), pos_pairs, neg_pairs
        )
        _flags, counts = _BatchRun(self).assemble_chunk(1, pos_pairs, neg_pairs)
        return {
            sub_id: int(counts[0, slot]) for sub_id, slot in self._slot_of.items()
        }
