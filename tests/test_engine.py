"""Tests for the priority-queue pruning engine."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import PruningEngine
from repro.core.heuristics import Dimension
from repro.core.ops import apply_pruning
from repro.errors import PruningError
from repro.events import Event
from repro.selectivity.estimator import SelectivityEstimator
from repro.selectivity.statistics import EventStatistics
from repro.subscriptions.builder import And, Or, P
from repro.subscriptions.metrics import count_leaves
from repro.subscriptions.subscription import Subscription
from repro.workloads.auction import AuctionWorkload, AuctionWorkloadConfig

from tests.strategies import NUMERIC_VALUES, STRING_VALUES, trees


def build_engine(estimator, trees, dimension=Dimension.NETWORK, **kwargs):
    subscriptions = [Subscription(i, tree) for i, tree in enumerate(trees)]
    return PruningEngine(subscriptions, estimator, dimension, **kwargs)


class TestStepping:
    def test_runs_to_exhaustion(self, simple_estimator):
        engine = build_engine(
            simple_estimator,
            [And(P("cat") == "a", P("price") <= 10.0, P("flag") == True)],  # noqa: E712
        )
        records = engine.run()
        assert len(records) == 2  # 3 predicates -> 1 predicate
        assert engine.exhausted
        assert engine.step() is None

    def test_step_returns_record_with_metrics(self, simple_estimator):
        engine = build_engine(
            simple_estimator, [And(P("cat") == "a", P("price") <= 10.0)]
        )
        record = engine.step()
        assert record.subscription_id == 0
        assert record.leaf_count_after == 1
        assert record.pmin_after == 1
        assert record.vector.mem > 0

    def test_max_steps_bounds_run(self, simple_estimator):
        engine = build_engine(
            simple_estimator,
            [And(P("cat") == "a", P("price") <= 10.0, P("flag") == True)] * 1,  # noqa: E712
        )
        assert len(engine.run(max_steps=1)) == 1
        assert engine.total_prunings == 1

    def test_duplicate_subscription_ids_rejected(self, simple_estimator):
        subs = [Subscription(1, P("cat") == "a"), Subscription(1, P("cat") == "b")]
        with pytest.raises(PruningError):
            PruningEngine(subs, simple_estimator)

    def test_unknown_state_rejected(self, simple_estimator):
        engine = build_engine(simple_estimator, [And(P("cat") == "a", P("flag") == True)])  # noqa: E712
        with pytest.raises(PruningError):
            engine.state(42)


class TestOrdering:
    def test_network_dimension_prefers_low_degradation(self, simple_estimator):
        # sub 0: removing "price <= 100" (sel 1.0) costs nothing;
        # sub 1: removals cost much more.
        cheap = And(P("cat") == "a", P("price") <= 100.0)
        costly = And(P("cat") == "a", P("flag") == True)  # noqa: E712
        engine = build_engine(simple_estimator, [cheap, costly], Dimension.NETWORK)
        first = engine.step()
        assert first.subscription_id == 0
        assert first.vector.sel == pytest.approx(0.0)

    def test_memory_dimension_prefers_big_subtrees(self, simple_estimator):
        small = And(P("cat") == "a", P("flag") == True)  # noqa: E712
        big = And(
            P("cat") == "a",
            Or(P("price") <= 10.0, P("price") >= 90.0, P("flag") == True),  # noqa: E712
        )
        engine = build_engine(simple_estimator, [small, big], Dimension.MEMORY)
        first = engine.step()
        assert first.subscription_id == 1  # the big OR child saves the most bytes

    def test_throughput_dimension_keeps_pmin(self, simple_estimator):
        # sub 0 offers a Δeff = 0 pruning (inside the OR); sub 1 only Δeff = -1.
        with_or = And(
            P("cat") == "a",
            Or(And(P("price") <= 10.0, P("flag") == True), P("price") >= 90.0),  # noqa: E712
        )
        flat = And(P("cat") == "b", P("price") <= 20.0)
        engine = build_engine(simple_estimator, [with_or, flat], Dimension.THROUGHPUT)
        first = engine.step()
        assert first.subscription_id == 0
        assert first.vector.eff == 0

    def test_records_replay_to_engine_state(self, simple_estimator):
        trees = [
            And(P("cat") == "a", P("price") <= 10.0, P("flag") == True),  # noqa: E712
            And(P("cat") == "b", Or(P("price") <= 5.0, P("price") >= 95.0), P("flag") == False),  # noqa: E712
        ]
        engine = build_engine(simple_estimator, trees)
        engine.run()
        replayed = {i: Subscription(i, t).tree for i, t in enumerate(trees)}
        for record in engine.records:
            replayed[record.subscription_id] = apply_pruning(
                replayed[record.subscription_id], record.op
            )
        for sub_id, tree in replayed.items():
            assert tree == engine.state(sub_id).current

    def test_determinism(self, simple_estimator):
        trees = [
            And(P("cat") == "a", P("price") <= 10.0, P("flag") == True),  # noqa: E712
            And(P("cat") == "b", P("price") >= 5.0),
            Or(And(P("cat") == "c", P("flag") == False), And(P("price") <= 1.0, P("flag") == True)),  # noqa: E712
        ]
        runs = []
        for _ in range(2):
            engine = build_engine(simple_estimator, trees)
            engine.run()
            runs.append([(r.subscription_id, r.op) for r in engine.records])
        assert runs[0] == runs[1]


class TestStoppingRules:
    def test_stop_before_inspects_next_vector(self, simple_estimator):
        engine = build_engine(
            simple_estimator,
            [And(P("cat") == "a", P("price") <= 10.0, P("flag") == True)],  # noqa: E712
        )
        records = engine.run(stop_before=lambda vector: True)
        assert records == []
        assert not engine.exhausted

    def test_prune_until_selectivity(self, simple_estimator):
        engine = build_engine(
            simple_estimator,
            [And(P("cat") == "a", P("price") <= 100.0, P("flag") == True)],  # noqa: E712
        )
        engine.prune_until_selectivity(0.05)
        # every executed pruning stayed within the budget
        assert all(record.vector.sel <= 0.05 for record in engine.records)
        remaining = engine.peek_vector()
        if remaining is not None:
            assert remaining.sel > 0.05

    def test_prune_until_memory_saved(self, simple_estimator):
        engine = build_engine(
            simple_estimator,
            [And(P("cat") == "a", P("price") <= 10.0, P("flag") == True)],  # noqa: E712
            Dimension.MEMORY,
        )
        engine.prune_until_memory_saved(10)
        assert sum(record.vector.mem for record in engine.records) >= 10


class TestSwitching:
    def test_switch_dimension_reorders_queue(self, simple_estimator):
        trees = [
            And(P("cat") == "a", P("price") <= 100.0),
            And(
                P("cat") == "b",
                Or(P("price") <= 10.0, P("flag") == True, P("price") >= 90.0),  # noqa: E712
            ),
        ]
        engine = build_engine(simple_estimator, trees, Dimension.NETWORK)
        engine.switch_dimension(Dimension.MEMORY)
        assert engine.dimension is Dimension.MEMORY
        assert engine.bottom_up_only  # memory default restriction
        first = engine.step()
        assert first.subscription_id == 1

    def test_bottom_up_default_by_dimension(self, simple_estimator):
        for dimension, expected in [
            (Dimension.NETWORK, False),
            (Dimension.THROUGHPUT, False),
            (Dimension.MEMORY, True),
        ]:
            engine = build_engine(
                simple_estimator, [And(P("cat") == "a", P("flag") == True)], dimension  # noqa: E712
            )
            assert engine.bottom_up_only is expected

    def test_results_accessors(self, simple_estimator):
        engine = build_engine(
            simple_estimator, [And(P("cat") == "a", P("price") <= 10.0)]
        )
        before = engine.association_count
        engine.run()
        assert engine.association_count < before
        pruned = engine.pruned_subscriptions()
        assert count_leaves(pruned[0].tree) == 1
        assert engine.total_size_bytes > 0


def _universe_estimator():
    """An empirical estimator over the hypothesis attribute universe."""
    rng = random.Random(7)
    sample = []
    for _ in range(64):
        values = {
            "na": rng.choice(NUMERIC_VALUES),
            "nb": rng.choice(NUMERIC_VALUES),
            "nc": rng.choice(NUMERIC_VALUES),
            "sa": rng.choice(STRING_VALUES),
            "sb": rng.choice(STRING_VALUES),
            "ba": rng.random() < 0.3,
        }
        # Drop some attributes so estimates are not all alike.
        sample.append(
            Event({name: value for name, value in values.items() if rng.random() < 0.8})
        )
    return SelectivityEstimator(EventStatistics.from_events(sample))


_UNIVERSE_ESTIMATOR = _universe_estimator()

_CHURN_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), trees(max_leaves=6)),
        st.tuples(st.just("remove"), st.integers(0, 50)),
        st.tuples(st.just("readd"), st.tuples(st.integers(0, 50), trees(max_leaves=6))),
        st.tuples(st.just("step"), st.none()),
    ),
    max_size=40,
)


def _outcome(record):
    """A record without its global sequence number."""
    return (
        record.subscription_id,
        record.op,
        record.vector,
        record.leaf_count_after,
        record.pmin_after,
        record.size_bytes_after,
    )


class TestIncremental:
    @given(
        ops=_CHURN_OPS,
        dimension=st.sampled_from(list(Dimension)),
        reference_mode=st.sampled_from(["original", "current"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_churned_engine_matches_fresh_engine(
        self, ops, dimension, reference_mode
    ):
        """After any interleaving of add/remove/step, each live
        subscription's pruning chain equals a fresh engine's over the
        same live set, and the remaining prunings pop in a valid
        global order (every pop is minimal, up to equal-key ties)."""
        estimator = _UNIVERSE_ESTIMATOR
        engine = PruningEngine([], estimator, dimension, reference_mode=reference_mode)
        live = {}
        executed = {}
        next_id = 0
        for kind, argument in ops:
            assert len(engine._heap) <= 2 * len(live) + 1
            if kind == "step":
                record = engine.step()
                if record is not None:
                    executed[record.subscription_id].append(record)
                continue
            if kind == "add":
                sub_id, tree = next_id, argument
                next_id += 1
            else:
                if not live:
                    continue
                index, tree = argument if kind == "readd" else (argument, None)
                sub_id = sorted(live)[index % len(live)]
                engine.remove(sub_id)
                del live[sub_id], executed[sub_id]
                if tree is None:
                    continue
            subscription = Subscription(sub_id, tree)
            engine.add(subscription)
            live[sub_id] = subscription
            executed[sub_id] = []
        further = engine.run()
        assert engine.exhausted

        fresh = PruningEngine(
            live.values(), estimator, dimension, reference_mode=reference_mode
        )
        fresh.run()
        chains = {sub_id: [] for sub_id in live}
        for record in fresh.records:
            chains[record.subscription_id].append(record)
        for sub_id in live:
            churned = executed[sub_id] + [
                record for record in further if record.subscription_id == sub_id
            ]
            assert [_outcome(r) for r in churned] == [_outcome(r) for r in chains[sub_id]]
            assert engine.state(sub_id).current == fresh.state(sub_id).current

        key = engine.heuristics.key
        position = {sub_id: len(executed[sub_id]) for sub_id in live}
        for record in further:
            fronts = [
                key(chains[sub_id][index].vector)
                for sub_id, index in position.items()
                if index < len(chains[sub_id])
            ]
            assert key(record.vector) == min(fronts)
            position[record.subscription_id] += 1

    def test_heap_stays_bounded_under_repeated_churn(self, simple_estimator):
        trees_ = [
            And(P("cat") == "a", P("price") <= 10.0, P("flag") == True),  # noqa: E712
            And(P("cat") == "b", P("price") >= 5.0),
            And(P("cat") == "c", Or(P("price") <= 1.0, P("flag") == False)),  # noqa: E712
        ]
        engine = build_engine(simple_estimator, trees_)
        churned = Subscription(99, And(P("cat") == "a", P("flag") == False))  # noqa: E712
        live = len(trees_)
        for _ in range(10_000):
            engine.add(churned)
            engine.remove(99)
            assert len(engine._heap) <= 2 * live + 1
        reference = build_engine(simple_estimator, trees_)
        assert [_outcome(r) for r in engine.run()] == [
            _outcome(r) for r in reference.run()
        ]

    def test_add_and_remove_validate_ids(self, simple_estimator):
        engine = build_engine(simple_estimator, [And(P("cat") == "a", P("flag") == True)])  # noqa: E712
        assert 0 in engine and 1 not in engine
        with pytest.raises(PruningError):
            engine.add(Subscription(0, P("cat") == "b"))
        with pytest.raises(PruningError):
            engine.remove(1)

    @pytest.mark.parametrize(
        "dimension, digest",
        [
            (Dimension.NETWORK, "ca08afc7dd5ac893"),
            (Dimension.MEMORY, "f1262471bdd76cfb"),
            (Dimension.THROUGHPUT, "5fc325a8932dfcf3"),
        ],
    )
    def test_pop_order_unchanged_without_churn(self, dimension, digest):
        """An engine that never sees add/remove pops in the pinned order,
        and transient add/remove of an unrelated id does not disturb it."""
        workload = AuctionWorkload(AuctionWorkloadConfig(seed=1234))
        subscriptions = workload.generate_subscriptions(200)[:60]
        estimator = workload.estimator()
        engine = PruningEngine(subscriptions, estimator, dimension)
        records = engine.run()
        schedule = [
            (r.subscription_id, tuple(r.op.and_path), r.op.child_index)
            for r in records
        ]
        assert len(schedule) == 222
        assert hashlib.sha256(repr(schedule).encode()).hexdigest()[:16] == digest

        transient = Subscription(10_000, subscriptions[0].tree)
        churned = PruningEngine(subscriptions, estimator, dimension)
        while True:
            churned.add(transient)
            churned.remove(transient.id)
            if churned.step() is None:
                break
        assert churned.records == records
