"""Unit and property tests of the whole-table compiled-tree program.

The whole-program evaluator (:mod:`repro.matching.treeval`) must agree
with the scalar recursive oracle ``_evaluate_compiled`` on every tree
and every flags matrix, across compile/discard churn over sparse slot
ids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatchingError
from repro.matching.counting import _compile_tree, _evaluate_compiled
from repro.matching.treeval import OP_AND, OP_LEAF, OP_OR, TreePrograms
from repro.subscriptions.nodes import ConstNode, PredicateLeaf
from repro.subscriptions.subscription import Subscription

from tests import strategies


def compiled_program(tree):
    """Normalize ``tree`` and compile it over preorder entry ids 0..L-1.

    Returns ``(program, leaf_count)`` or ``None`` when normalization
    collapses the tree to a constant.
    """
    normalized = Subscription(0, tree).tree
    if isinstance(normalized, ConstNode):
        return None
    leaf_count = sum(
        1
        for _path, node in normalized.iter_nodes()
        if isinstance(node, PredicateLeaf)
    )
    program = _compile_tree(normalized, list(range(leaf_count)), [0])
    return program, leaf_count


def random_flags(seed, rows, width):
    rng = np.random.default_rng(seed)
    return rng.random((rows, max(width, 1))) < 0.5


def _shift_entries(program, offset):
    opcode, operand = program
    if opcode == OP_LEAF:
        return (opcode, operand + offset)
    return (opcode, tuple(_shift_entries(child, offset) for child in operand))


@given(
    st.lists(
        st.tuples(
            st.booleans(),
            strategies.trees(max_leaves=24),
            st.integers(0, 40),
        ),
        min_size=1,
        max_size=14,
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_vectorized_evaluation_equals_scalar_oracle(ops, seed):
    """``evaluate(flags)`` answers for every compiled slot exactly like
    the scalar ``_evaluate_compiled``, after every compile or discard of
    an interleaved churn history over sparse slot ids."""
    programs = TreePrograms()
    live = {}
    width = 0
    for register, tree, slot_gap in ops:
        if register or not live:
            compiled = compiled_program(tree)
            if compiled is None:
                continue
            program, leaf_count = compiled
            # Sparse slot ids, reusing discarded ones when free.
            slot = slot_gap if slot_gap not in live else max(live) + 1 + slot_gap
            live[slot] = _shift_entries(program, width)
            programs.compile(slot, live[slot])
            width += leaf_count
        else:
            slot = sorted(live)[len(live) // 2]
            programs.discard(slot)
            del live[slot]
        assert len(programs) == len(live)
        flags = random_flags(seed, rows=5, width=width)
        root_positions, values = programs.evaluate(flags)
        for slot, program in live.items():
            expected = [
                _evaluate_compiled(program, flags[row]) for row in range(5)
            ]
            assert values[root_positions[slot]].tolist() == expected


@given(
    st.lists(strategies.trees(max_leaves=12), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_dense_evaluation_spans_every_compiled_tree(tree_list, seed):
    """One ``evaluate(flags)`` call answers for every compiled slot at
    once, each tree over its own disjoint range of flag columns."""
    programs = TreePrograms()
    compiled = {}
    offset = 0
    for slot, tree in enumerate(tree_list):
        result = compiled_program(tree)
        if result is None:
            continue
        program, leaf_count = result
        shifted = _shift_entries(program, offset)
        programs.compile(slot, shifted)
        compiled[slot] = shifted
        offset += leaf_count
    if not compiled:
        return
    flags = random_flags(seed, rows=4, width=offset)
    root_positions, values = programs.evaluate(flags)
    assert values.shape == (programs.node_count, 4)
    for slot in range(len(tree_list)):
        if slot not in compiled:
            assert slot >= len(root_positions) or root_positions[slot] == -1
    for slot, program in compiled.items():
        expected = [_evaluate_compiled(program, flags[row]) for row in range(4)]
        assert values[root_positions[slot]].tolist() == expected


@given(
    st.lists(
        st.tuples(st.booleans(), strategies.trees(max_leaves=10)),
        min_size=2,
        max_size=14,
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_recycling_churn_preserves_evaluation(ops, seed):
    """Interleaved compile/discard, with discarded slot ids compiled
    again, leaves every live tree's verdicts intact."""
    programs = TreePrograms()
    live = {}
    free_slots = []
    next_slot = 0
    width = 64
    for register, tree in ops:
        if register or not live:
            compiled = compiled_program(tree)
            if compiled is None:
                continue
            program, leaf_count = compiled
            if leaf_count > width:
                continue
            if free_slots:
                slot = free_slots.pop()
            else:
                slot = next_slot
                next_slot += 1
            programs.compile(slot, program)
            live[slot] = program
        else:
            slot = sorted(live)[len(live) // 2]
            programs.discard(slot)
            del live[slot]
            free_slots.append(slot)
        assert len(programs) == len(live)
        flags = random_flags(seed, rows=3, width=width)
        root_positions, values = programs.evaluate(flags)
        for slot, program in live.items():
            expected = [
                _evaluate_compiled(program, flags[row]) for row in range(3)
            ]
            assert values[root_positions[slot]].tolist() == expected


def test_duplicate_slot_compilation_rejected():
    programs = TreePrograms()
    program = (OP_AND, ((OP_LEAF, 0), (OP_LEAF, 1)))
    programs.compile(0, program)
    with pytest.raises(MatchingError):
        programs.compile(0, program)


def test_discard_unknown_slot_is_noop():
    programs = TreePrograms()
    programs.discard(99)
    assert len(programs) == 0


def test_invalid_program_rejected():
    programs = TreePrograms()
    for program in ((OP_OR, ()), (9, 0), (OP_AND, ((OP_LEAF, 0), (7, ())))):
        with pytest.raises(MatchingError):
            programs.compile(0, program)
    assert len(programs) == 0
