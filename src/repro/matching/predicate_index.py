"""Per-attribute predicate indexes for the counting engine.

Every registered predicate instance becomes an *entry* (an integer id) in
the index of its attribute.  At match time the index answers, for a
column of event attribute values, which entries each row fulfils — as
aligned numpy ``(row, entry)`` pair arrays, so the caller can count
fulfilled predicates per (event, subscription) with one vectorized
``bincount``.

Negated operators (``!=``, ``not-in``, ``not-prefix``, ``not-contains``)
are almost always fulfilled when the attribute is present, so enumerating
their fulfilled entries directly would be wasteful.  They are reported as
an *all entries* positive array plus a small *excluded* negative array;
the counting engine adds the first and subtracts the second.

Indexes are **incrementally maintained**: :meth:`AttributeIndex.add` and
:meth:`AttributeIndex.remove` update only the operator buckets the
predicate touches, and each bucket re-materializes its numpy query arrays
lazily the next time it is probed.  Subscription churn therefore costs
O(touched buckets), not O(index).  Entry ids are allocated by
:class:`PredicateIndexSet` from a free list so long-lived engines do not
grow their id space under churn.

There is one probe, :meth:`AttributeIndex.collect_batch`, over a whole
:class:`~repro.events.AttributeColumn`.  Range probes run as a single
vectorized ``searchsorted`` over the column's value array,
equality/membership probes as one dictionary lookup per *distinct*
value, so there is no per-event Python loop.  A single event is a
one-row column.

>>> from repro.events import Event, EventBatch
>>> from repro.subscriptions.predicates import Operator, Predicate
>>> index_set = PredicateIndexSet()
>>> entry = index_set.add(Predicate("price", Operator.LE, 10))
>>> columns = EventBatch([Event({"price": 7}), Event({"price": 12})]).columns()
>>> positives, negatives = ([], []), ([], [])
>>> index_set.collect_batch(columns, positives, negatives)
>>> rows, entries = positives
>>> [array.tolist() for array in rows], [array.tolist() for array in entries]
([[0]], [[0]])
"""
from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import MatchingError
from repro.events import AttributeColumn, EventColumns, Value
from repro.subscriptions.predicates import Operator, Predicate

_EMPTY = np.empty(0, dtype=np.int64)

#: Accumulator type of the batched probes: parallel lists of equal-length
#: ``rows`` / ``entries`` arrays — each pair means "event ``rows[i]``
#: fulfils (or, for negatives, un-fulfils) entry ``entries[i]``".
PairLists = Tuple[List[np.ndarray], List[np.ndarray]]


def _emit_cross(rows: np.ndarray, entries: np.ndarray, out: PairLists) -> None:
    """Emit the cross product: every listed row fulfils every entry."""
    if len(rows) and len(entries):
        out[0].append(np.repeat(rows, len(entries)))
        out[1].append(np.tile(entries, len(rows)))


def _emit_slices(
    rows: np.ndarray,
    entries: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    out: PairLists,
) -> None:
    """Emit ragged slices: row ``rows[i]`` fulfils ``entries[starts[i]:stops[i]]``.

    This is the vectorized equivalent of appending one suffix/prefix
    slice per event in the scalar range probe.
    """
    lengths = stops - starts
    mask = lengths > 0
    if not mask.any():
        return
    rows = rows[mask]
    starts = starts[mask]
    lengths = lengths[mask]
    total = int(lengths.sum())
    out[0].append(np.repeat(rows, lengths))
    # Flat index into ``entries``: a per-row arange re-based at starts.
    ends = np.cumsum(lengths)
    offsets = (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - lengths, lengths)
        + np.repeat(starts, lengths)
    )
    out[1].append(entries[offsets])

#: Value-key kind tags; keep bool and int apart (Python hashes True == 1).
_KIND_BOOL = "b"
_KIND_NUM = "n"
_KIND_STR = "s"


def value_key(value: Value) -> Tuple[str, Value]:
    """A dict key under which cross-kind equality never collides."""
    if isinstance(value, bool):
        return (_KIND_BOOL, value)
    if isinstance(value, (int, float)):
        return (_KIND_NUM, float(value))
    return (_KIND_STR, value)


class _EntrySet:
    """A mutable set of entry ids with a lazily cached numpy array."""

    __slots__ = ("_entries", "_array")

    def __init__(self) -> None:
        self._entries: Set[int] = set()
        self._array: Optional[np.ndarray] = _EMPTY

    def add(self, entry: int) -> None:
        self._entries.add(entry)
        self._array = None

    def remove(self, entry: int) -> None:
        try:
            self._entries.remove(entry)
        except KeyError:
            raise MatchingError("entry %d is not in this bucket" % entry)
        self._array = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            self._array = np.fromiter(
                self._entries, dtype=np.int64, count=len(self._entries)
            )
        return self._array


class _SortedConstants:
    """Constants of one ordered operator over one value kind, sorted.

    Suffix/prefix slices of the aligned entry array are exactly the
    fulfilled entries for a probe value (see
    :meth:`_OrderedOps.collect_batch_numeric`).  The sorted
    pair list is maintained incrementally with ``bisect``; the aligned
    numpy arrays are re-materialized lazily after a mutation.
    """

    __slots__ = ("pairs", "numeric", "_constants", "_entries")

    def __init__(self, numeric: bool) -> None:
        self.pairs: List[Tuple[Value, int]] = []
        self.numeric = numeric
        self._constants: Union[np.ndarray, List[Value], None] = _EMPTY
        self._entries: Optional[np.ndarray] = _EMPTY

    def add(self, constant: Value, entry: int) -> None:
        bisect.insort(self.pairs, (constant, entry))
        self._entries = None

    def remove(self, constant: Value, entry: int) -> None:
        pair = (constant, entry)
        position = bisect.bisect_left(self.pairs, pair)
        if position >= len(self.pairs) or self.pairs[position] != pair:
            raise MatchingError("range entry %d is not registered" % entry)
        del self.pairs[position]
        self._entries = None

    def _materialize(self) -> None:
        if self.numeric:
            self._constants = np.array(
                [float(constant) for constant, _entry in self.pairs], dtype=np.float64
            )
        else:
            self._constants = [constant for constant, _entry in self.pairs]
        self._entries = np.array(
            [entry for _constant, entry in self.pairs], dtype=np.int64
        )

    @property
    def constants(self) -> Union[np.ndarray, List[Value]]:
        if self._entries is None:
            self._materialize()
        return self._constants

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._materialize()
        return self._entries

    def __len__(self) -> int:
        return len(self.pairs)


class _OrderedOps:
    """The four range operators for one value kind (numeric or string)."""

    __slots__ = ("lt", "le", "gt", "ge")

    def __init__(self, numeric: bool) -> None:
        self.lt = _SortedConstants(numeric)
        self.le = _SortedConstants(numeric)
        self.gt = _SortedConstants(numeric)
        self.ge = _SortedConstants(numeric)

    def for_operator(self, operator: Operator) -> _SortedConstants:
        if operator is Operator.LT:
            return self.lt
        if operator is Operator.LE:
            return self.le
        if operator is Operator.GT:
            return self.gt
        return self.ge

    @staticmethod
    def _split(bucket: _SortedConstants, value: str, side: str) -> int:
        if side == "left":
            return bisect.bisect_left(bucket.constants, value)
        return bisect.bisect_right(bucket.constants, value)

    def collect_batch_numeric(
        self, rows: np.ndarray, values: np.ndarray, out: PairLists
    ) -> None:
        """Vectorized range probe: one ``searchsorted`` per bucket for the
        whole value column.

        attr < c  holds iff c > v: suffix after the last constant <= v.
        attr <= c holds iff c >= v: suffix from the first constant >= v.
        attr > c  holds iff c < v: prefix before the first constant >= v.
        attr >= c holds iff c <= v: prefix through the last constant <= v.
        """
        if len(self.lt):
            splits = np.searchsorted(self.lt.constants, values, side="right")
            count = len(self.lt)
            _emit_slices(
                rows, self.lt.entries, splits,
                np.full(len(splits), count, dtype=np.int64), out,
            )
        if len(self.le):
            splits = np.searchsorted(self.le.constants, values, side="left")
            count = len(self.le)
            _emit_slices(
                rows, self.le.entries, splits,
                np.full(len(splits), count, dtype=np.int64), out,
            )
        if len(self.gt):
            splits = np.searchsorted(self.gt.constants, values, side="left")
            _emit_slices(
                rows, self.gt.entries,
                np.zeros(len(splits), dtype=np.int64), splits, out,
            )
        if len(self.ge):
            splits = np.searchsorted(self.ge.constants, values, side="right")
            _emit_slices(
                rows, self.ge.entries,
                np.zeros(len(splits), dtype=np.int64), splits, out,
            )

    def collect_cross(self, value: str, rows: np.ndarray, out: PairLists) -> None:
        """Range probe for one distinct string value shared by ``rows``.

        String columns group rows by distinct value first, so the bisect
        runs once per distinct value (slice semantics as in
        :meth:`collect_batch_numeric`).
        """
        if len(self.lt):
            _emit_cross(
                rows, self.lt.entries[self._split(self.lt, value, "right"):], out
            )
        if len(self.le):
            _emit_cross(
                rows, self.le.entries[self._split(self.le, value, "left"):], out
            )
        if len(self.gt):
            _emit_cross(
                rows, self.gt.entries[: self._split(self.gt, value, "left")], out
            )
        if len(self.ge):
            _emit_cross(
                rows, self.ge.entries[: self._split(self.ge, value, "right")], out
            )

    def __len__(self) -> int:
        return len(self.lt) + len(self.le) + len(self.gt) + len(self.ge)


def _bucket_add(
    buckets: Dict, key, entry: int
) -> None:
    vector = buckets.get(key)
    if vector is None:
        vector = _EntrySet()
        buckets[key] = vector
    vector.add(entry)


def _bucket_remove(buckets: Dict, key, entry: int) -> None:
    vector = buckets.get(key)
    if vector is None:
        raise MatchingError("entry %d is not registered under %r" % (entry, key))
    vector.remove(entry)
    if not len(vector):
        del buckets[key]


class AttributeIndex:
    """All predicate entries registered for one attribute name.

    The index is always queryable; :meth:`add` and :meth:`remove` apply
    deltas to the touched operator buckets only.
    """

    __slots__ = (
        "attribute",
        "_eq",
        "_ne_all",
        "_ne_by_value",
        "_numeric",
        "_string",
        "_prefix_by_length",
        "_not_prefix_all",
        "_not_prefix_by_length",
        "_contains",
        "_not_contains_all",
        "_not_contains",
        "_live",
    )

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._eq: Dict[Tuple[str, Value], _EntrySet] = {}
        self._ne_all = _EntrySet()
        self._ne_by_value: Dict[Tuple[str, Value], _EntrySet] = {}
        self._numeric = _OrderedOps(numeric=True)
        self._string = _OrderedOps(numeric=False)
        self._prefix_by_length: Dict[int, Dict[str, _EntrySet]] = {}
        self._not_prefix_all = _EntrySet()
        self._not_prefix_by_length: Dict[int, Dict[str, _EntrySet]] = {}
        self._contains: Dict[int, str] = {}
        self._not_contains_all = _EntrySet()
        self._not_contains: Dict[int, str] = {}
        self._live = 0

    def __len__(self) -> int:
        """Number of live predicate entries in this attribute index."""
        return self._live

    def add(self, predicate: Predicate, entry: int) -> None:
        """Register a predicate instance under entry id ``entry``."""
        if predicate.attribute != self.attribute:
            raise MatchingError("predicate attribute mismatch")
        operator = predicate.operator
        if operator is Operator.EQ:
            _bucket_add(self._eq, value_key(predicate.value), entry)
        elif operator is Operator.IN_SET:
            for member in predicate.value:
                _bucket_add(self._eq, value_key(member), entry)
        elif operator is Operator.NE:
            self._ne_all.add(entry)
            _bucket_add(self._ne_by_value, value_key(predicate.value), entry)
        elif operator is Operator.NOT_IN_SET:
            self._ne_all.add(entry)
            for member in predicate.value:
                _bucket_add(self._ne_by_value, value_key(member), entry)
        elif operator.is_ordered:
            if isinstance(predicate.value, str):
                self._string.for_operator(operator).add(predicate.value, entry)
            else:
                self._numeric.for_operator(operator).add(float(predicate.value), entry)
        elif operator is Operator.PREFIX:
            prefix = predicate.value
            bucket = self._prefix_by_length.setdefault(len(prefix), {})
            _bucket_add(bucket, prefix, entry)
        elif operator is Operator.NOT_PREFIX:
            prefix = predicate.value
            self._not_prefix_all.add(entry)
            bucket = self._not_prefix_by_length.setdefault(len(prefix), {})
            _bucket_add(bucket, prefix, entry)
        elif operator is Operator.CONTAINS:
            self._contains[entry] = predicate.value
        elif operator is Operator.NOT_CONTAINS:
            self._not_contains_all.add(entry)
            self._not_contains[entry] = predicate.value
        else:  # pragma: no cover - all operators handled above
            raise MatchingError("unsupported operator %r" % operator)
        self._live += 1

    def remove(self, predicate: Predicate, entry: int) -> None:
        """Withdraw the predicate instance registered under ``entry``."""
        if predicate.attribute != self.attribute:
            raise MatchingError("predicate attribute mismatch")
        operator = predicate.operator
        if operator is Operator.EQ:
            _bucket_remove(self._eq, value_key(predicate.value), entry)
        elif operator is Operator.IN_SET:
            for member in predicate.value:
                _bucket_remove(self._eq, value_key(member), entry)
        elif operator is Operator.NE:
            self._ne_all.remove(entry)
            _bucket_remove(self._ne_by_value, value_key(predicate.value), entry)
        elif operator is Operator.NOT_IN_SET:
            self._ne_all.remove(entry)
            for member in predicate.value:
                _bucket_remove(self._ne_by_value, value_key(member), entry)
        elif operator.is_ordered:
            if isinstance(predicate.value, str):
                self._string.for_operator(operator).remove(predicate.value, entry)
            else:
                self._numeric.for_operator(operator).remove(
                    float(predicate.value), entry
                )
        elif operator is Operator.PREFIX:
            prefix = predicate.value
            bucket = self._prefix_by_length.get(len(prefix))
            if bucket is None:
                raise MatchingError("prefix entry %d is not registered" % entry)
            _bucket_remove(bucket, prefix, entry)
            if not bucket:
                del self._prefix_by_length[len(prefix)]
        elif operator is Operator.NOT_PREFIX:
            prefix = predicate.value
            self._not_prefix_all.remove(entry)
            bucket = self._not_prefix_by_length.get(len(prefix))
            if bucket is None:
                raise MatchingError("not-prefix entry %d is not registered" % entry)
            _bucket_remove(bucket, prefix, entry)
            if not bucket:
                del self._not_prefix_by_length[len(prefix)]
        elif operator is Operator.CONTAINS:
            if self._contains.pop(entry, None) is None:
                raise MatchingError("contains entry %d is not registered" % entry)
        elif operator is Operator.NOT_CONTAINS:
            self._not_contains_all.remove(entry)
            if self._not_contains.pop(entry, None) is None:
                raise MatchingError("not-contains entry %d is not registered" % entry)
        else:  # pragma: no cover - all operators handled above
            raise MatchingError("unsupported operator %r" % operator)
        self._live -= 1

    def collect_batch(
        self, column: AttributeColumn, positives: PairLists, negatives: PairLists
    ) -> None:
        """Probe all buckets once for a whole attribute column.

        Appends aligned ``(row, entry)`` pair arrays.  Positives minus
        negatives, as per-row multisets, are exactly the entries whose
        predicate holds for that row's value, each at most once.

        ``column.groups()`` (a per-row Python grouping pass, cached on
        the column) is only built when an eq/ne/string bucket actually
        needs distinct-value lookups — purely range-indexed attributes
        stay fully vectorized.
        """
        if self._eq:
            numeric_groups, string_groups, bool_groups = column.groups()
            for value, rows in numeric_groups:
                hit = self._eq.get((_KIND_NUM, value))
                if hit is not None:
                    _emit_cross(rows, hit.array, positives)
            for value, rows in string_groups:
                hit = self._eq.get((_KIND_STR, value))
                if hit is not None:
                    _emit_cross(rows, hit.array, positives)
            for value, rows in bool_groups:
                hit = self._eq.get((_KIND_BOOL, value))
                if hit is not None:
                    _emit_cross(rows, hit.array, positives)
        if len(self._ne_all):
            _emit_cross(column.rows, self._ne_all.array, positives)
            if self._ne_by_value:
                numeric_groups, string_groups, bool_groups = column.groups()
                for kind, groups in (
                    (_KIND_NUM, numeric_groups),
                    (_KIND_STR, string_groups),
                    (_KIND_BOOL, bool_groups),
                ):
                    for value, rows in groups:
                        excluded = self._ne_by_value.get((kind, value))
                        if excluded is not None:
                            _emit_cross(rows, excluded.array, negatives)
        if len(self._numeric) and len(column.numeric_rows):
            self._numeric.collect_batch_numeric(
                column.numeric_rows, column.numeric_values, positives
            )
        if len(column.string_rows) and (
            len(self._string)
            or self._prefix_by_length
            or len(self._not_prefix_all)
            or self._contains
            or len(self._not_contains_all)
        ):
            self._collect_batch_strings(column, positives, negatives)

    def _collect_batch_strings(
        self,
        column: AttributeColumn,
        positives: PairLists,
        negatives: PairLists,
    ) -> None:
        """String-only operators over the distinct string values."""
        string_groups = column.groups()[1]
        if len(self._string):
            for value, rows in string_groups:
                self._string.collect_cross(value, rows, positives)
        for length, bucket in self._prefix_by_length.items():
            for value, rows in string_groups:
                if length <= len(value):
                    hit = bucket.get(value[:length])
                    if hit is not None:
                        _emit_cross(rows, hit.array, positives)
        if len(self._not_prefix_all):
            _emit_cross(column.string_rows, self._not_prefix_all.array, positives)
            for length, bucket in self._not_prefix_by_length.items():
                for value, rows in string_groups:
                    if length <= len(value):
                        excluded = bucket.get(value[:length])
                        if excluded is not None:
                            _emit_cross(rows, excluded.array, negatives)
        if self._contains:
            for value, rows in string_groups:
                hits = [
                    entry
                    for entry, needle in self._contains.items()
                    if needle in value
                ]
                if hits:
                    _emit_cross(rows, np.array(hits, dtype=np.int64), positives)
        if len(self._not_contains_all):
            _emit_cross(column.string_rows, self._not_contains_all.array, positives)
            for value, rows in string_groups:
                misses = [
                    entry
                    for entry, needle in self._not_contains.items()
                    if needle in value
                ]
                if misses:
                    _emit_cross(rows, np.array(misses, dtype=np.int64), negatives)


class PredicateIndexSet:
    """The full per-attribute index family used by one counting engine.

    Entry ids are allocated from a free list: removing a predicate
    returns its id for reuse, so ``entry_capacity`` (the size of the
    caller's entry-aligned arrays) stays bounded by the live high-water
    mark under register/unregister churn.
    """

    __slots__ = ("_by_attribute", "_free_entries", "_entry_capacity", "_live")

    def __init__(self) -> None:
        self._by_attribute: Dict[str, AttributeIndex] = {}
        self._free_entries: List[int] = []
        self._entry_capacity = 0
        self._live = 0

    @property
    def entry_count(self) -> int:
        """Number of live registered predicate entries."""
        return self._live

    @property
    def entry_capacity(self) -> int:
        """Size of the entry id space (live entries + free-list holes)."""
        return self._entry_capacity

    @property
    def free_entry_count(self) -> int:
        """Number of recycled entry ids waiting on the free list."""
        return len(self._free_entries)

    def add(self, predicate: Predicate) -> int:
        """Register a predicate instance; returns its (possibly recycled)
        entry id."""
        index = self._by_attribute.get(predicate.attribute)
        if index is None:
            index = AttributeIndex(predicate.attribute)
            self._by_attribute[predicate.attribute] = index
        if self._free_entries:
            entry = self._free_entries.pop()
        else:
            entry = self._entry_capacity
            self._entry_capacity += 1
        index.add(predicate, entry)
        self._live += 1
        return entry

    def remove(self, predicate: Predicate, entry: int) -> None:
        """Withdraw a predicate instance and recycle its entry id."""
        index = self._by_attribute.get(predicate.attribute)
        if index is None:
            raise MatchingError(
                "no index for attribute %r" % predicate.attribute
            )
        index.remove(predicate, entry)
        if not len(index):
            del self._by_attribute[predicate.attribute]
        self._free_entries.append(entry)
        self._live -= 1

    def collect_batch(
        self, columns: EventColumns, positives: PairLists, negatives: PairLists
    ) -> None:
        """Collect fulfilled ``(row, entry)`` pairs for a whole batch.

        Probes each attribute index once per batch (against the batch's
        column for that attribute) instead of once per event; attributes
        without live entries, and entries whose attribute no event
        carries, cost nothing.
        """
        for attribute, column in columns.items():
            index = self._by_attribute.get(attribute)
            if index is not None:
                index.collect_batch(column, positives, negatives)

    @property
    def attribute_names(self) -> List[str]:
        """Names of all attributes with live entries."""
        return sorted(self._by_attribute)
