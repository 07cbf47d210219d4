"""Event messages for the attribute-value pair publish/subscribe model.

An event message is a flat set of attribute-value pairs (paper Sect. 2.1).
Values are strings, booleans, integers, or floats.  Events are immutable so
they can be shared freely between brokers, matchers, and statistics
collectors without defensive copies.

Batches of events additionally expose a **columnar** view
(:class:`EventColumns`): per attribute, the rows (event positions) where
the attribute is present and its values as kind-separated arrays.  The
columnar view is what lets the matching engine run each index probe once
per *batch* instead of once per event — see
:meth:`repro.matching.predicate_index.PredicateIndexSet.collect_batch`.
It is built once per batch (cached on :class:`EventBatch`) and sub-batches
re-derive their columns with one vectorized row selection instead of
re-scanning the event objects.

>>> batch = EventBatch([Event({"price": 5}), Event({"tag": "x"}),
...                     Event({"price": 7, "tag": "y"})])
>>> column = batch.columns().column("price")
>>> column.rows.tolist(), column.numeric_values.tolist()
([0, 2], [5.0, 7.0])
>>> batch.subset([1, 2]).columns().column("tag").rows.tolist()
[0, 1]
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

Value = Union[str, int, float, bool]

_NO_STRINGS = np.empty(0, dtype=object)

#: Per-message envelope overhead, in bytes, charged by the wire-size model
#: (message framing, type tag, attribute count).
_ENVELOPE_BYTES = 16
#: Per-attribute overhead, in bytes (length prefixes, type tags).
_ATTRIBUTE_OVERHEAD_BYTES = 4
_NUMERIC_BYTES = 8


class Event(Mapping[str, Value]):
    """An immutable event message of attribute-value pairs.

    >>> event = Event({"category": "fiction", "price": 12.5})
    >>> event["price"]
    12.5
    >>> "seller" in event
    False
    """

    __slots__ = ("_attributes", "_size_bytes")

    def __init__(self, attributes: Mapping[str, Value]) -> None:
        cleaned: Dict[str, Value] = {}
        for name, value in attributes.items():
            if not isinstance(name, str) or not name:
                raise TypeError("attribute names must be non-empty strings")
            if not isinstance(value, (str, int, float, bool)):
                raise TypeError(
                    "attribute %r has unsupported value type %s"
                    % (name, type(value).__name__)
                )
            if value != value:
                # NaN: unordered, so no predicate could test it consistently.
                raise TypeError("attribute %r is NaN" % name)
            cleaned[name] = value
        self._attributes = cleaned
        self._size_bytes: Optional[int] = None

    def __getitem__(self, name: str) -> Value:
        return self._attributes[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._attributes

    def __repr__(self) -> str:
        pairs = ", ".join(
            "%s=%r" % (name, value) for name, value in sorted(self._attributes.items())
        )
        return "Event(%s)" % pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._attributes.items())))

    def get(self, name: str, default: Optional[Value] = None) -> Optional[Value]:
        """Return the value of ``name`` or ``default`` when absent."""
        return self._attributes.get(name, default)

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of this message in bytes.

        Used by the broker network's bandwidth cost model.  Strings are
        charged their UTF-8 length; numbers and booleans a fixed 8 bytes.
        """
        if self._size_bytes is None:
            total = _ENVELOPE_BYTES
            for name, value in self._attributes.items():
                total += _ATTRIBUTE_OVERHEAD_BYTES + len(name.encode("utf-8"))
                if isinstance(value, str):
                    total += len(value.encode("utf-8"))
                else:
                    total += _NUMERIC_BYTES
            self._size_bytes = total
        return self._size_bytes

    def to_dict(self) -> Dict[str, Value]:
        """Return a plain-dict copy of the attribute-value pairs."""
        return dict(self._attributes)


class AttributeColumn:
    """Columnar view of one attribute across an event batch.

    ``rows`` holds the positions (ascending) of every event that carries
    the attribute — the presence mask in sparse form.  Values are split by
    kind (numeric, string, boolean) into row/value array pairs, because
    predicates never compare across kinds: a numeric range probe can then
    run as one vectorized ``searchsorted`` over ``numeric_values``.
    """

    __slots__ = (
        "name",
        "rows",
        "numeric_rows",
        "numeric_values",
        "string_rows",
        "string_values",
        "bool_rows",
        "bool_values",
        "_groups",
    )

    def __init__(
        self,
        name: str,
        rows: np.ndarray,
        numeric_rows: np.ndarray,
        numeric_values: np.ndarray,
        string_rows: np.ndarray,
        string_values: np.ndarray,
        bool_rows: np.ndarray,
        bool_values: np.ndarray,
    ) -> None:
        self.name = name
        self.rows = rows                    #: int64, ascending presence rows
        self.numeric_rows = numeric_rows    #: int64 rows of numeric values
        self.numeric_values = numeric_values  #: float64, aligned with rows
        self.string_rows = string_rows      #: int64 rows of string values
        self.string_values = string_values  #: object array, aligned
        self.bool_rows = bool_rows          #: int64 rows of boolean values
        self.bool_values = bool_values      #: bool array, aligned
        self._groups: Optional[
            Tuple[
                List[Tuple[float, np.ndarray]],
                List[Tuple[str, np.ndarray]],
                List[Tuple[bool, np.ndarray]],
            ]
        ] = None

    def __len__(self) -> int:
        """Number of events carrying this attribute."""
        return len(self.rows)

    def _grouped(self, rows: np.ndarray, values: np.ndarray) -> List[Tuple]:
        grouped: Dict[Value, List[int]] = {}
        for row, value in zip(rows.tolist(), values.tolist()):
            bucket = grouped.get(value)
            if bucket is None:
                grouped[value] = [row]
            else:
                bucket.append(row)
        return [
            (value, np.array(bucket, dtype=np.int64))
            for value, bucket in grouped.items()
        ]

    def groups(
        self,
    ) -> Tuple[
        List[Tuple[float, np.ndarray]],
        List[Tuple[str, np.ndarray]],
        List[Tuple[bool, np.ndarray]],
    ]:
        """Rows grouped by distinct value, per kind (cached).

        Equality/membership probes are dictionary lookups, so grouping by
        distinct value amortizes them across duplicate values in a batch.
        """
        if self._groups is None:
            self._groups = (
                self._grouped(self.numeric_rows, self.numeric_values),
                self._grouped(self.string_rows, self.string_values),
                self._grouped(self.bool_rows, self.bool_values),
            )
        return self._groups

    def _select(self, inverse: np.ndarray) -> Optional["AttributeColumn"]:
        """Column restricted to the rows ``inverse`` renumbers (>= 0)."""
        mapped = inverse[self.rows]
        rows = mapped[mapped >= 0]
        if not len(rows):
            return None

        def pick(kind_rows: np.ndarray, values: np.ndarray):
            mapped = inverse[kind_rows]
            mask = mapped >= 0
            return mapped[mask], values[mask]

        numeric_rows, numeric_values = pick(self.numeric_rows, self.numeric_values)
        string_rows, string_values = pick(self.string_rows, self.string_values)
        bool_rows, bool_values = pick(self.bool_rows, self.bool_values)
        return AttributeColumn(
            self.name, rows, numeric_rows, numeric_values,
            string_rows, string_values, bool_rows, bool_values,
        )

    def _slice(self, start: int, stop: int) -> Optional["AttributeColumn"]:
        """Column restricted to rows in ``[start, stop)``, renumbered."""

        def cut(kind_rows: np.ndarray, values: Optional[np.ndarray]):
            low = int(np.searchsorted(kind_rows, start))
            high = int(np.searchsorted(kind_rows, stop))
            if values is None:
                return kind_rows[low:high] - start
            return kind_rows[low:high] - start, values[low:high]

        rows = cut(self.rows, None)
        if not len(rows):
            return None
        numeric_rows, numeric_values = cut(self.numeric_rows, self.numeric_values)
        string_rows, string_values = cut(self.string_rows, self.string_values)
        bool_rows, bool_values = cut(self.bool_rows, self.bool_values)
        return AttributeColumn(
            self.name, rows, numeric_rows, numeric_values,
            string_rows, string_values, bool_rows, bool_values,
        )


class EventColumns:
    """Columnar representation of an event batch: one
    :class:`AttributeColumn` per attribute appearing in the batch.

    Built once per batch with :meth:`from_events` (one pass over the
    event objects); sub-batches are derived with :meth:`select` or
    :meth:`slice_rows`, which only touch the numpy arrays.
    """

    __slots__ = ("row_count", "_columns")

    def __init__(self, row_count: int, columns: Dict[str, AttributeColumn]) -> None:
        self.row_count = row_count
        self._columns = columns

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "EventColumns":
        """Columnarize ``events``: one row per event, in order."""
        raw: Dict[str, Tuple[list, list, list, list, list, list, list]] = {}
        for row, event in enumerate(events):
            for name, value in event.items():
                lists = raw.get(name)
                if lists is None:
                    lists = ([], [], [], [], [], [], [])
                    raw[name] = lists
                lists[0].append(row)
                if isinstance(value, bool):
                    lists[5].append(row)
                    lists[6].append(value)
                elif isinstance(value, str):
                    lists[3].append(row)
                    lists[4].append(value)
                else:
                    lists[1].append(row)
                    lists[2].append(float(value))
        columns: Dict[str, AttributeColumn] = {}
        for name, (rows, nrows, nvals, srows, svals, brows, bvals) in raw.items():
            columns[name] = AttributeColumn(
                name,
                np.array(rows, dtype=np.int64),
                np.array(nrows, dtype=np.int64),
                np.array(nvals, dtype=np.float64),
                np.array(srows, dtype=np.int64),
                np.array(svals, dtype=object) if svals else _NO_STRINGS,
                np.array(brows, dtype=np.int64),
                np.array(bvals, dtype=bool),
            )
        return cls(len(events), columns)

    def column(self, name: str) -> Optional[AttributeColumn]:
        """The column of attribute ``name``, or ``None`` if absent."""
        return self._columns.get(name)

    def items(self):
        """Iterate ``(attribute name, column)`` pairs."""
        return self._columns.items()

    @property
    def attribute_names(self) -> List[str]:
        """Sorted names of all attributes present in the batch."""
        return sorted(self._columns)

    def event_at(self, row: int) -> Event:
        """Materialize the event at ``row`` back from the columns.

        The inverse of :meth:`from_events` up to numeric type: value
        columns store numbers as ``float64``, so an event built from
        integers comes back with ``float`` values (``5`` → ``5.0``).
        Used by :meth:`EventBatch.from_columns` batches, whose events
        exist only as columns (e.g. on the far side of a shared-memory
        transport); the matching hot path never calls this.
        """
        if not 0 <= row < self.row_count:
            raise IndexError("row %d outside batch of %d" % (row, self.row_count))
        attributes: Dict[str, Value] = {}
        for name, column in self._columns.items():
            for kind_rows, values in (
                (column.numeric_rows, column.numeric_values),
                (column.string_rows, column.string_values),
                (column.bool_rows, column.bool_values),
            ):
                position = int(np.searchsorted(kind_rows, row))
                if position < len(kind_rows) and kind_rows[position] == row:
                    value = values[position]
                    attributes[name] = (
                        value.item() if isinstance(value, np.generic) else value
                    )
                    break
        return Event(attributes)

    def select(self, positions: Sequence[int]) -> "EventColumns":
        """Columns of the sub-batch at ``positions`` (ascending), with
        rows renumbered ``0 .. len(positions)-1``."""
        positions = np.asarray(positions, dtype=np.int64)
        inverse = np.full(self.row_count, -1, dtype=np.int64)
        inverse[positions] = np.arange(len(positions), dtype=np.int64)
        columns: Dict[str, AttributeColumn] = {}
        for name, column in self._columns.items():
            selected = column._select(inverse)
            if selected is not None:
                columns[name] = selected
        return EventColumns(len(positions), columns)

    def slice_rows(self, start: int, stop: int) -> "EventColumns":
        """Columns of the contiguous row range ``[start, stop)``."""
        columns: Dict[str, AttributeColumn] = {}
        for name, column in self._columns.items():
            sliced = column._slice(start, stop)
            if sliced is not None:
                columns[name] = sliced
        return EventColumns(stop - start, columns)


class _LazyEvents:
    """A read-only event sequence materialized on demand from columns.

    Batches rebuilt from a transported columnar view
    (:meth:`EventBatch.from_columns`) have no :class:`Event` objects;
    the vectorized matching path only ever asks such a batch for its
    length, so this sequence defers :meth:`EventColumns.event_at` until
    someone actually indexes into it.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: EventColumns) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return self._columns.row_count

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Event, List[Event]]:
        if isinstance(index, slice):
            return [
                self._columns.event_at(row)
                for row in range(*index.indices(len(self)))
            ]
        if index < 0:
            index += len(self)
        return self._columns.event_at(index)

    def __iter__(self) -> Iterator[Event]:
        for row in range(len(self)):
            yield self._columns.event_at(row)


class EventBatch:
    """An ordered collection of events published as one logical workload.

    Batches carry a label so measurement reports can identify which
    workload produced them, and cache their columnar view
    (:meth:`columns`) so every consumer of the batch — each broker a
    batch traverses, each measurement pass — shares one columnarization.

    >>> batch = EventBatch([Event({"a": 1}), Event({"b": 2})])
    >>> len(batch)
    2
    >>> batch.columns().attribute_names
    ['a', 'b']
    """

    __slots__ = ("events", "label", "_columns")

    def __init__(self, events: List[Event], label: str = "") -> None:
        self.events = list(events)
        self.label = label
        self._columns: Optional[EventColumns] = None

    @classmethod
    def from_columns(cls, columns: EventColumns, label: str = "") -> "EventBatch":
        """A batch whose events exist only as a columnar view.

        This is how a worker process rebuilds the batch it received
        through the shared-memory transport (:mod:`repro.matching.shm`):
        the columns *are* the batch, and the ``events`` sequence
        materializes :class:`Event` objects lazily (and lossily for
        numerics — see :meth:`EventColumns.event_at`) only if someone
        indexes into it.  ``match_batch`` never does; it reads the
        cached columns and the row count.
        """
        batch = cls.__new__(cls)
        batch.events = _LazyEvents(columns)  # type: ignore[assignment]
        batch.label = label
        batch._columns = columns
        return batch

    @classmethod
    def coerce(cls, events: Union[Sequence[Event], "EventBatch"]) -> "EventBatch":
        """``events`` as a batch; reused as-is (columns and all) when it
        already is one."""
        if isinstance(events, EventBatch):
            return events
        return cls(list(events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, index: int) -> Event:
        return self.events[index]

    def columns(self) -> EventColumns:
        """The cached columnar view of this batch (built on first use)."""
        if self._columns is None:
            self._columns = EventColumns.from_events(self.events)
        return self._columns

    def subset(self, positions: Sequence[int]) -> "EventBatch":
        """The sub-batch at ``positions`` (ascending event indexes).

        If this batch has been columnarized already, the subset's columns
        are derived by vectorized row selection instead of re-scanning
        the picked event objects.
        """
        picked = EventBatch(
            [self.events[position] for position in positions], label=self.label
        )
        if self._columns is not None:
            picked._columns = self._columns.select(positions)
        return picked

    def sample(self, count: int, stride_offset: int = 0) -> "EventBatch":
        """Return an evenly strided sub-batch of roughly ``count`` events.

        Striding (rather than prefixing) keeps the sample representative
        when events were generated with time-correlated attributes.
        """
        if count <= 0:
            return EventBatch([], label=self.label)
        if count >= len(self.events):
            return EventBatch(list(self.events), label=self.label)
        stride = len(self.events) / float(count)
        picked = [
            self.events[min(len(self.events) - 1, int(i * stride) + stride_offset)]
            for i in range(count)
        ]
        return EventBatch(picked, label=self.label)

    def total_size_bytes(self) -> int:
        """Sum of the wire sizes of all events in the batch."""
        return sum(event.size_bytes for event in self.events)


def event_signature(event: Event) -> Tuple[Tuple[str, Value], ...]:
    """A hashable canonical signature of an event (sorted attribute pairs)."""
    return tuple(sorted(event.to_dict().items()))
