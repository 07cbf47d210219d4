"""The priority-queue pruning engine (paper Sect. 3.4).

The engine keeps, for every registered subscription, its single most
effective pruning option in a priority queue.  A pruning step pops the
globally best option, applies it, and re-inserts the pruned subscription's
next-best option.  Because subscriptions are optimized independently of
each other, executing one subscription's pruning never invalidates the
queued options of the others — the queue never goes stale.

The same independence makes the engine incremental: :meth:`PruningEngine.add`
plans one new subscription and :meth:`PruningEngine.remove` retires one,
without touching any other queued option.  A removed subscription's
entry is left in the heap and skipped lazily when it reaches the top;
the heap is compacted once stale entries outnumber live ones.  An engine
that never sees ``add``/``remove`` pops in exactly the order it always did.

Stopping rules mirror the paper: perform a fixed number of prunings, or
keep pruning until a degradation/improvement threshold is crossed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.errors import PruningError
from repro.core.heuristics import Dimension, HeuristicVector, PruningHeuristics
from repro.core.ops import PruningOp, PruningState, enumerate_prunings
from repro.selectivity.estimator import SelectivityEstimate, SelectivityEstimator
from repro.subscriptions.metrics import count_leaves, memory_bytes, pmin
from repro.subscriptions.nodes import Node
from repro.subscriptions.subscription import Subscription
from repro.util.heap import StableHeap


class PruningRecord(NamedTuple):
    """One executed pruning, as recorded for replay and analysis."""

    sequence: int               #: 0-based global step index
    subscription_id: int        #: the pruned subscription
    op: PruningOp               #: the operation (relative to its tree at that time)
    vector: HeuristicVector     #: heuristic values that ranked this op
    leaf_count_after: int       #: predicate associations left in the tree
    pmin_after: int             #: pmin of the pruned tree
    size_bytes_after: int       #: mem≈ of the pruned tree


class _QueueEntry(NamedTuple):
    subscription_id: int
    op: PruningOp
    vector: HeuristicVector
    pruned: Node
    #: The state the option was computed from; the entry is stale once
    #: that state is no longer the live state of its subscription.
    state: PruningState


class PruningEngine:
    """Dimension-based pruning over a set of subscriptions.

    Parameters
    ----------
    subscriptions:
        The routing entries to optimize (normalized subscriptions).
    estimator:
        Selectivity estimator backed by workload statistics.
    dimension:
        Primary dimension of optimization (default: network, the paper's
        overall winner).
    bottom_up_only:
        Restrict prunings to bottom-most candidates (Sect. 3.2).  Defaults
        to ``True`` exactly for memory-based pruning, as in the paper.
    reference_mode:
        What Δ≈sel/Δ≈eff compare against: ``"original"`` (the paper's
        choice, Sect. 3.1/3.3 — accumulated degradation counts) or
        ``"current"`` (per-step deltas, the alternative the paper argues
        against; kept for the ablation benchmarks).

    >>> from repro.selectivity import EventStatistics, SelectivityEstimator
    >>> from repro.subscriptions import P, And, Subscription
    >>> est = SelectivityEstimator(EventStatistics({}))
    >>> engine = PruningEngine(
    ...     [Subscription(1, And(P("a") == 1, P("b") == 2, P("c") == 3))],
    ...     est)
    >>> len(engine.run())  # two prunings until only one predicate remains
    2
    """

    def __init__(
        self,
        subscriptions: Iterable[Subscription],
        estimator: SelectivityEstimator,
        dimension: Dimension = Dimension.NETWORK,
        bottom_up_only: Optional[bool] = None,
        reference_mode: str = "original",
    ) -> None:
        if reference_mode not in ("original", "current"):
            raise PruningError("reference_mode must be 'original' or 'current'")
        self.heuristics = PruningHeuristics(estimator, dimension)
        self.dimension = dimension
        self.reference_mode = reference_mode
        if bottom_up_only is None:
            bottom_up_only = dimension is Dimension.MEMORY
        self.bottom_up_only = bottom_up_only
        self._states: Dict[int, PruningState] = {}
        self._references: Dict[int, Tuple[SelectivityEstimate, int]] = {}
        self._heap: StableHeap[_QueueEntry] = StableHeap()
        #: Ids whose live state has an entry in the heap; every other heap
        #: entry is stale (left behind by :meth:`remove`).
        self._queued: Set[int] = set()
        self.records: List[PruningRecord] = []
        for subscription in subscriptions:
            if subscription.id in self._states:
                raise PruningError(
                    "duplicate subscription id %d" % subscription.id
                )
            self._states[subscription.id] = PruningState(subscription)
        for sub_id in sorted(self._states):
            state = self._states[sub_id]
            self._references[sub_id] = self.heuristics.reference(state)
            self._push_best(sub_id)

    # -- queue maintenance ----------------------------------------------------

    def _push_best(self, sub_id: int) -> bool:
        """Queue the most effective pruning of one subscription, if any."""
        state = self._states[sub_id]
        ops = enumerate_prunings(state.current, self.bottom_up_only)
        if not ops:
            return False
        if self.reference_mode == "current" and state.history:
            original_estimate, original_pmin = self.heuristics.reference_for_tree(
                state.current
            )
        else:
            original_estimate, original_pmin = self._references[sub_id]
        best_key: Optional[Tuple[float, float, float]] = None
        best_entry: Optional[_QueueEntry] = None
        for op in ops:
            vector, pruned = self.heuristics.vector(
                state, op, original_estimate, original_pmin
            )
            key = self.heuristics.key(vector)
            if best_key is None or key < best_key:
                best_key = key
                best_entry = _QueueEntry(sub_id, op, vector, pruned, state)
        assert best_entry is not None
        self._heap.push(best_key, best_entry)
        self._queued.add(sub_id)
        return True

    def _is_live(self, entry: _QueueEntry) -> bool:
        return self._states.get(entry.subscription_id) is entry.state

    def _drop_stale_top(self) -> None:
        """Pop stale entries off the top so the heap's minimum is live."""
        heap = self._heap
        while len(heap) > len(self._queued) and not self._is_live(heap.peek()[1]):
            heap.pop()

    # -- incremental maintenance ----------------------------------------------

    def __contains__(self, sub_id: object) -> bool:
        return sub_id in self._states

    def add(self, subscription: Subscription) -> None:
        """Plan one more subscription with the engine's current estimator.

        Queues its most effective pruning beside the existing options; no
        other subscription is re-planned.
        """
        sub_id = subscription.id
        if sub_id in self._states:
            raise PruningError("duplicate subscription id %d" % sub_id)
        state = PruningState(subscription)
        self._states[sub_id] = state
        self._references[sub_id] = self.heuristics.reference(state)
        self._push_best(sub_id)

    def remove(self, sub_id: int) -> None:
        """Retire one subscription and its queued option.

        The option stays in the heap until it surfaces (then it is
        skipped) or until stale entries outnumber live ones (then the
        heap is compacted, keeping every live entry's sequence number and
        so the pop order).  Records already executed are kept.
        """
        if sub_id not in self._states:
            raise PruningError("unknown subscription id %d" % sub_id)
        del self._states[sub_id]
        del self._references[sub_id]
        if sub_id in self._queued:
            self._queued.discard(sub_id)
            if len(self._heap) > 2 * len(self._queued):
                self._heap.retain(self._is_live)

    def switch_dimension(
        self, dimension: Dimension, bottom_up_only: Optional[bool] = None
    ) -> None:
        """Change the dimension of optimization mid-run.

        The Δ≈sel/Δ≈eff reference points (original trees) are unaffected, so
        switching re-ranks the remaining options without losing the
        accumulated-degradation bookkeeping.  This is the mechanism behind
        the paper's "dynamically adjust our optimization based on current
        system parameters" (Sect. 1); see :mod:`repro.core.adaptive`.
        """
        self.heuristics = PruningHeuristics(self.heuristics.estimator, dimension)
        self.dimension = dimension
        if bottom_up_only is None:
            bottom_up_only = dimension is Dimension.MEMORY
        self.bottom_up_only = bottom_up_only
        self._rebuild_queue()

    def set_tiebreak_order(self, order: Tuple[str, str, str]) -> None:
        """Override the lexicographic tie-break order (ablation hook).

        The paper fixes one order per dimension (Sect. 3.4); this setter
        exists so the ablation benchmarks can compare against degenerate
        orders such as ``("sel", "sel", "sel")``.
        """
        for component in order:
            if component not in ("sel", "eff", "mem"):
                raise PruningError("unknown heuristic component %r" % (component,))
        self.heuristics.order = (order[0], order[1], order[2])
        self._rebuild_queue()

    def _rebuild_queue(self) -> None:
        self._heap.clear()
        self._queued.clear()
        for sub_id in sorted(self._states):
            self._push_best(sub_id)

    # -- stepping ---------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when no subscription offers a further pruning."""
        self._drop_stale_top()
        return not self._heap

    def peek_key(self) -> Optional[Tuple[float, float, float]]:
        """Priority key of the next pruning, or ``None`` when exhausted."""
        self._drop_stale_top()
        key: Optional[Tuple[float, float, float]] = self._heap.peek_key()
        return key

    def peek_vector(self) -> Optional[HeuristicVector]:
        """Heuristic vector of the next pruning, or ``None`` when exhausted."""
        self._drop_stale_top()
        if not self._heap:
            return None
        _key, entry = self._heap.peek()
        return entry.vector

    def step(self) -> Optional[PruningRecord]:
        """Execute the globally most effective pruning.

        Returns the record of the executed pruning, or ``None`` when no
        valid pruning remains.
        """
        self._drop_stale_top()
        if not self._heap:
            return None
        _key, entry = self._heap.pop()
        self._queued.discard(entry.subscription_id)
        state = entry.state
        state.record(entry.op, entry.pruned)
        record = PruningRecord(
            sequence=len(self.records),
            subscription_id=entry.subscription_id,
            op=entry.op,
            vector=entry.vector,
            leaf_count_after=count_leaves(entry.pruned),
            pmin_after=pmin(entry.pruned),
            size_bytes_after=memory_bytes(entry.pruned),
        )
        self.records.append(record)
        self._push_best(entry.subscription_id)
        return record

    def run(
        self,
        max_steps: Optional[int] = None,
        stop_before: Optional[Callable[[HeuristicVector], bool]] = None,
    ) -> List[PruningRecord]:
        """Perform prunings until exhaustion, a step budget, or a threshold.

        ``stop_before`` inspects the *next* pruning's heuristic vector and
        returns True to stop without executing it — the paper's "optimize
        until a given degradation/improvement is reached".
        Returns the records of this call's executed prunings.
        """
        executed: List[PruningRecord] = []
        while not self.exhausted:
            if max_steps is not None and len(executed) >= max_steps:
                break
            if stop_before is not None:
                vector = self.peek_vector()
                if vector is not None and stop_before(vector):
                    break
            record = self.step()
            if record is None:
                break
            executed.append(record)
        return executed

    # -- convenience stopping rules ----------------------------------------------

    def prune_until_selectivity(self, max_degradation: float) -> List[PruningRecord]:
        """Prune while the next step's Δ≈sel stays within ``max_degradation``."""
        return self.run(stop_before=lambda vector: vector.sel > max_degradation)

    def prune_until_memory_saved(self, target_bytes: int) -> List[PruningRecord]:
        """Prune until at least ``target_bytes`` of tree storage was freed."""
        saved = sum(record.vector.mem for record in self.records)
        executed: List[PruningRecord] = []
        while saved < target_bytes:
            record = self.step()
            if record is None:
                break
            executed.append(record)
            saved += record.vector.mem
        return executed

    # -- results -----------------------------------------------------------------

    def state(self, sub_id: int) -> PruningState:
        """The pruning state of one subscription."""
        try:
            return self._states[sub_id]
        except KeyError:
            raise PruningError("unknown subscription id %d" % sub_id)

    def pruned_subscription(self, sub_id: int) -> Subscription:
        """The subscription carrying its current (possibly pruned) tree."""
        return self.state(sub_id).as_subscription()

    def pruned_subscriptions(self) -> Dict[int, Subscription]:
        """All subscriptions with their current trees."""
        return {
            sub_id: state.as_subscription()
            for sub_id, state in self._states.items()
        }

    @property
    def total_prunings(self) -> int:
        """Number of prunings executed so far."""
        return len(self.records)

    @property
    def association_count(self) -> int:
        """Current total number of predicate/subscription associations."""
        return sum(count_leaves(state.current) for state in self._states.values())

    @property
    def total_size_bytes(self) -> int:
        """Current total mem≈ of all trees."""
        return sum(memory_bytes(state.current) for state in self._states.values())
