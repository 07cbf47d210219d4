"""Columnar compiled-tree evaluation: the whole-table flat tree program.

The counting engine decides most candidates with the fulfilled-predicate
counter alone; only *general* Boolean trees need evaluating against the
per-entry truth flags.  :class:`TreePrograms` evaluates **every**
compiled tree against **every** row of a chunk in a fixed handful of
numpy calls, and the caller reads the verdicts of the (row, tree)
pairs it needs from the root rows.  The recursive
``_evaluate_compiled`` in :mod:`repro.matching.counting` evaluates one
tree against one flag vector and serves only as this evaluator's test
oracle.

Each tree, once compiled, keeps only its own flat preorder arrays:
opcode, height (leaves are 0, an internal node sits one above its
tallest child), leaf entry id and child CSR.  The evaluation layout is
derived from them lazily, after any mutation, by concatenating every
tree's arrays and sorting all nodes by ``(height, opcode)``.  That sort
assigns the *positions* — the rows of the evaluation working matrix:

1. all leaves come first, so one gather from the chunk's 2-D
   ``flags[event, entry]`` matrix fills them;
2. every internal node of one ``(height, opcode)`` group occupies one
   contiguous slice, and its children sit in strictly lower heights, so
   each group is one ``np.logical_and.reduceat`` or
   ``np.logical_or.reduceat`` over its gathered children, written
   straight into its slice;
3. the root row of a tree is its per-row verdict.

There is no shared arena to maintain under churn: ``compile`` and
``discard`` touch only the slot's own arrays, and the next evaluation
rebuilds the layout with numpy calls whose number does not grow with
the tree count.

>>> import numpy as np
>>> programs = TreePrograms()
>>> # (a AND b) OR c over entry ids 0, 1, 2:
>>> tree = (OP_OR, ((OP_AND, ((OP_LEAF, 0), (OP_LEAF, 1))), (OP_LEAF, 2)))
>>> programs.compile(slot=4, program=tree)
>>> flags = np.array([[True, True, False], [False, True, False]])
>>> root_positions, values = programs.evaluate(flags)
>>> values[root_positions[4]].tolist()
[True, False]
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MatchingError

#: Compiled evaluator opcodes (shared with the scalar recursive
#: evaluator in :mod:`repro.matching.counting`).
OP_LEAF = 0
OP_AND = 1
OP_OR = 2

#: Rows of a compiled tree's ``nodes`` array (one column per node, in
#: preorder).
_OPCODE, _HEIGHT, _ENTRY, _CHILD_COUNT = range(4)

_REDUCERS = {OP_AND: np.logical_and.reduceat, OP_OR: np.logical_or.reduceat}


def _flatten(program: Tuple) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten nested opcode tuples into one tree's preorder arrays.

    Returns ``(nodes, children)``: ``nodes`` is ``4 × node_count`` —
    opcode, height, leaf entry id (-1 at internal nodes) and child count
    per node — and ``children`` lists each internal node's children
    (tree-local preorder ids), node after node: the child CSR.
    """
    ops: List[int] = []
    entries: List[int] = []
    kids: List[List[int]] = []
    stack: List[Tuple[Tuple, int]] = [(program, -1)]
    while stack:
        node, parent = stack.pop()
        opcode, operand = node
        local = len(ops)
        ops.append(opcode)
        kids.append([])
        if parent >= 0:
            kids[parent].append(local)
        if opcode == OP_LEAF:
            entries.append(operand)
        elif opcode in (OP_AND, OP_OR) and operand:
            entries.append(-1)
            for child in reversed(operand):
                stack.append((child, local))
        else:
            raise MatchingError("invalid compiled node %r" % (node,))
    # Preorder puts descendants after their ancestors, so a reverse scan
    # sees every child's height before its parent's.
    heights = [0] * len(ops)
    for local in range(len(ops) - 1, -1, -1):
        if kids[local]:
            heights[local] = 1 + max(heights[kid] for kid in kids[local])
    nodes = np.array(
        [ops, heights, entries, [len(node_kids) for node_kids in kids]],
        dtype=np.int64,
    )
    children = np.array(
        [kid for node_kids in kids for kid in node_kids], dtype=np.int64
    )
    return nodes, children


class _Layout:
    """Evaluation order of every compiled tree, positions assigned.

    Positions ``[0, leaf_count)`` are the leaves (``leaf_entries`` holds
    their flag columns); each entry of ``groups`` is ``(start, stop,
    reduce, children, seg_starts)``: positions ``[start, stop)`` are
    computed as ``reduce(values[children], seg_starts)``.
    ``root_positions[slot]`` is the root row of ``slot``'s tree, ``-1``
    for slots without one.
    """

    __slots__ = ("node_count", "leaf_entries", "groups", "root_positions")

    def __init__(
        self,
        node_count: int,
        leaf_entries: np.ndarray,
        groups: Tuple,
        root_positions: np.ndarray,
    ) -> None:
        self.node_count = node_count
        self.leaf_entries = leaf_entries
        self.groups = groups
        self.root_positions = root_positions


class TreePrograms:
    """Every compiled general tree of one counting engine.

    Keyed by the engine's *slot* ids: at most one tree per slot, with
    the same lifetime as the slot's subscription (``replace`` withdraws
    and re-compiles).  See the module docstring for the layout and the
    evaluation.
    """

    def __init__(self) -> None:
        #: slot -> ``(nodes, children)`` preorder arrays (see _flatten).
        self._trees: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._node_count = 0
        #: Whole-table layout, rebuilt lazily after any mutation.
        self._layout: Optional[_Layout] = None

    def __len__(self) -> int:
        return len(self._trees)

    @property
    def node_count(self) -> int:
        """Nodes of all compiled trees: the row count of the evaluation
        working matrix."""
        return self._node_count

    def compile(self, slot: int, program: Tuple) -> None:
        """Compile ``program`` (nested opcode tuples) under ``slot``."""
        if slot in self._trees:
            raise MatchingError("slot %d already holds a compiled tree" % slot)
        nodes, children = _flatten(program)
        self._trees[slot] = (nodes, children)
        self._node_count += nodes.shape[1]
        self._layout = None

    def discard(self, slot: int) -> None:
        """Withdraw ``slot``'s tree (no-op when it holds none)."""
        tree = self._trees.pop(slot, None)
        if tree is not None:
            self._node_count -= tree[0].shape[1]
            self._layout = None

    def evaluate(self, flags: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate every compiled tree against every row of ``flags``.

        ``flags`` is the chunk's ``flags[event, entry]`` matrix.  Returns
        ``(root_positions, values)``: ``values[root_positions[slot], row]``
        is the verdict of ``slot``'s tree for ``row``; ``root_positions``
        is ``-1`` at slots without a tree.  One leaf gather plus one
        segment reduction per ``(height, opcode)`` group.
        """
        layout = self._layout
        if layout is None:
            layout = self._layout = self._build()
        values = np.empty((layout.node_count, flags.shape[0]), dtype=bool)
        leaf_count = len(layout.leaf_entries)
        values[:leaf_count] = flags[:, layout.leaf_entries].T
        for start, stop, reduce, children, seg_starts in layout.groups:
            values[start:stop] = reduce(values[children], seg_starts, axis=0)
        return layout.root_positions, values

    def _build(self) -> _Layout:
        """Concatenate every tree and assign positions by (height, opcode)."""
        if not self._trees:
            empty = np.empty(0, dtype=np.int64)
            return _Layout(0, empty, (), empty)
        slots = np.fromiter(self._trees, dtype=np.int64, count=len(self._trees))
        trees = list(self._trees.values())
        nodes = np.concatenate([tree[0] for tree in trees], axis=1)
        sizes = np.array([tree[0].shape[1] for tree in trees], dtype=np.int64)
        bases = np.cumsum(sizes) - sizes
        # Child CSR over the concatenation, with global preorder ids.
        children = np.concatenate([tree[1] for tree in trees])
        children += np.repeat(bases, [len(tree[1]) for tree in trees])
        child_counts = nodes[_CHILD_COUNT]
        child_offsets = np.cumsum(child_counts) - child_counts

        # Positions: sorted by (height, opcode); leaves (0, OP_LEAF) first.
        keys = nodes[_HEIGHT] * 3 + nodes[_OPCODE]
        order = np.argsort(keys, kind="stable")
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        sorted_keys = keys[order]
        # Every tree has a leaf, so the first group is the leaves.
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_keys)) + 1, [len(order)])
        ).tolist()
        leaf_count = bounds[1]

        # Children gathered in target (position) order, as positions;
        # target i's children are child_positions[offsets[i]:offsets[i+1]].
        counts = child_counts[order]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        gather = np.repeat(child_offsets[order] - offsets[:-1], counts)
        gather += np.arange(len(gather))
        child_positions = position[children[gather]]

        groups = []
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            low, high = int(offsets[start]), int(offsets[stop])
            groups.append((
                start,
                stop,
                _REDUCERS[int(sorted_keys[start]) % 3],
                child_positions[low:high],
                offsets[start:stop] - low,
            ))
        root_positions = np.full(int(slots.max()) + 1, -1, dtype=np.int64)
        root_positions[slots] = position[bases]
        return _Layout(
            len(order),
            nodes[_ENTRY][order[:leaf_count]],
            tuple(groups),
            root_positions,
        )
