"""A stable min-heap with deterministic tie-breaking.

The pruning engine needs a priority queue whose pop order is fully
deterministic: when two entries share the same priority key, the one
inserted first wins.  Python's :mod:`heapq` compares tuples element by
element, which would fall through to comparing payloads; payloads here are
arbitrary objects, so we interpose a monotonically increasing sequence
number instead.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generic, Iterator, Optional, Tuple, TypeVar

T = TypeVar("T")


class StableHeap(Generic[T]):
    """Min-heap of ``(key, payload)`` pairs with insertion-order stability.

    Keys may be any totally ordered value (numbers, tuples of numbers).
    Payloads are never compared.

    >>> heap = StableHeap()
    >>> heap.push((1, 0), "b")
    >>> heap.push((0, 5), "a")
    >>> heap.pop()
    ((0, 5), 'a')
    """

    def __init__(self) -> None:
        self._entries: list = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, key: Any, payload: T) -> None:
        """Insert ``payload`` with priority ``key``."""
        heapq.heappush(self._entries, (key, next(self._counter), payload))

    def pop(self) -> Tuple[Any, T]:
        """Remove and return the ``(key, payload)`` pair with minimal key.

        Raises :class:`IndexError` when the heap is empty.
        """
        key, _seq, payload = heapq.heappop(self._entries)
        return key, payload

    def peek(self) -> Tuple[Any, T]:
        """Return the minimal ``(key, payload)`` pair without removing it."""
        key, _seq, payload = self._entries[0]
        return key, payload

    def peek_key(self) -> Optional[Any]:
        """Return the minimal key, or ``None`` when the heap is empty."""
        if not self._entries:
            return None
        return self._entries[0][0]

    def retain(self, keep: Callable[[T], bool]) -> None:
        """Drop every entry whose payload fails ``keep``.

        Survivors keep their sequence numbers, so the relative pop order
        of the retained entries is unchanged.
        """
        self._entries = [entry for entry in self._entries if keep(entry[2])]
        heapq.heapify(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def items(self) -> Iterator[Tuple[Any, T]]:
        """Iterate over ``(key, payload)`` pairs in arbitrary (heap) order."""
        for key, _seq, payload in self._entries:
            yield key, payload
