"""Shared hypothesis strategies: random predicates, trees, and events.

The strategies draw attributes from a small closed universe so random
events actually exercise the predicates (matching is not vanishingly
rare), and they generate every operator the library supports.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.events import Event
from repro.matching.counting import CountingMatcher
from repro.matching.sharded import ShardedMatcher
from repro.subscriptions.nodes import (
    AndNode,
    NotNode,
    OrNode,
    PredicateLeaf,
)
from repro.subscriptions.predicates import Operator, Predicate

NUMERIC_ATTRIBUTES = ["na", "nb", "nc"]
STRING_ATTRIBUTES = ["sa", "sb"]
BOOL_ATTRIBUTES = ["ba"]
ALL_ATTRIBUTES = NUMERIC_ATTRIBUTES + STRING_ATTRIBUTES + BOOL_ATTRIBUTES

STRING_VALUES = ["alpha", "alphabet", "beta", "gamma", "delta", "al", ""]
NUMERIC_VALUES = [-5, -1, 0, 1, 2, 3, 5, 10, 2.5, -0.5]


def numeric_predicates() -> st.SearchStrategy[Predicate]:
    """Predicates over the numeric attribute universe."""
    scalar_ops = st.sampled_from(
        [Operator.EQ, Operator.NE, Operator.LT, Operator.LE, Operator.GT, Operator.GE]
    )
    scalar = st.builds(
        Predicate,
        st.sampled_from(NUMERIC_ATTRIBUTES),
        scalar_ops,
        st.sampled_from(NUMERIC_VALUES),
    )
    sets = st.builds(
        Predicate,
        st.sampled_from(NUMERIC_ATTRIBUTES),
        st.sampled_from([Operator.IN_SET, Operator.NOT_IN_SET]),
        st.frozensets(st.sampled_from(NUMERIC_VALUES), min_size=1, max_size=4),
    )
    return st.one_of(scalar, sets)


def string_predicates() -> st.SearchStrategy[Predicate]:
    """Predicates over the string attribute universe."""
    nonempty = [value for value in STRING_VALUES if value]
    scalar = st.builds(
        Predicate,
        st.sampled_from(STRING_ATTRIBUTES),
        st.sampled_from(
            [
                Operator.EQ,
                Operator.NE,
                Operator.LT,
                Operator.LE,
                Operator.GT,
                Operator.GE,
                Operator.PREFIX,
                Operator.NOT_PREFIX,
                Operator.CONTAINS,
                Operator.NOT_CONTAINS,
            ]
        ),
        st.sampled_from(nonempty),
    )
    sets = st.builds(
        Predicate,
        st.sampled_from(STRING_ATTRIBUTES),
        st.sampled_from([Operator.IN_SET, Operator.NOT_IN_SET]),
        st.frozensets(st.sampled_from(nonempty), min_size=1, max_size=3),
    )
    return st.one_of(scalar, sets)


def bool_predicates() -> st.SearchStrategy[Predicate]:
    """Predicates over the boolean attribute universe."""
    return st.builds(
        Predicate,
        st.sampled_from(BOOL_ATTRIBUTES),
        st.sampled_from([Operator.EQ, Operator.NE]),
        st.booleans(),
    )


def predicates() -> st.SearchStrategy[Predicate]:
    """Any predicate over the shared attribute universe."""
    return st.one_of(numeric_predicates(), string_predicates(), bool_predicates())


def leaves() -> st.SearchStrategy[PredicateLeaf]:
    """Predicate leaf nodes."""
    return st.builds(PredicateLeaf, predicates())


def trees(max_leaves: int = 8) -> st.SearchStrategy:
    """Random Boolean trees (possibly with NOT nodes, non-normalized).

    ``max_leaves`` bounds the recursion; raise it to draw the deeper,
    wider general trees that exercise the compiled-tree program.
    """
    return st.recursive(
        leaves(),
        lambda children: st.one_of(
            st.builds(lambda kids: AndNode(kids), st.lists(children, min_size=2, max_size=4)),
            st.builds(lambda kids: OrNode(kids), st.lists(children, min_size=2, max_size=4)),
            st.builds(NotNode, children),
        ),
        max_leaves=max_leaves,
    )


#: Matcher construction recipes for equivalence suites that should run
#: their corpus against both the unsharded engine and the sharded path
#: (serial for shrinkability, worker processes for the production
#: fan-out).
#: Usable as ``@pytest.mark.parametrize("make_matcher", MATCHER_FACTORIES,
#: ids=MATCHER_FACTORY_IDS)``.
MATCHER_FACTORIES = [
    CountingMatcher,
    lambda: ShardedMatcher(3, executor="serial"),
    lambda: ShardedMatcher(2, executor="processes"),
]
MATCHER_FACTORY_IDS = [
    "counting",
    "sharded-serial-3",
    "sharded-processes-2",
]


def events() -> st.SearchStrategy[Event]:
    """Random events over the shared attribute universe.

    Each attribute is present with ~80% probability, so missing-attribute
    semantics are exercised too.
    """
    numeric_slots = st.fixed_dictionaries(
        {},
        optional={
            name: st.sampled_from(NUMERIC_VALUES) for name in NUMERIC_ATTRIBUTES
        },
    )
    string_slots = st.fixed_dictionaries(
        {},
        optional={name: st.sampled_from(STRING_VALUES) for name in STRING_ATTRIBUTES},
    )
    bool_slots = st.fixed_dictionaries(
        {}, optional={name: st.booleans() for name in BOOL_ATTRIBUTES}
    )
    return st.builds(
        lambda a, b, c: Event({**a, **b, **c}),
        numeric_slots,
        string_slots,
        bool_slots,
    )
