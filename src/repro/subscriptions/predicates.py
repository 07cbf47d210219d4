"""Predicates: attribute-operator-value conditions on event messages.

A predicate is the variable of a Boolean subscription expression (paper
Sect. 2.1): an ``attribute operator value`` triple that evaluates to true or
false on an event message.

Semantics
---------
* A predicate on an attribute the event does not carry is **unfulfilled**,
  for every operator.  This is the standard content-based semantics and it
  makes negation predicate-level: ``NOT (price < 10)`` is the complemented
  predicate ``price >= 10`` and still requires ``price`` to be present.
  Negation normal form (:mod:`repro.subscriptions.normalize`) is therefore
  exactly semantics-preserving.
* Ordered comparisons apply to numbers and to strings (lexicographically),
  but never across the two kinds; a kind mismatch is unfulfilled.
* NaN is refused, both as a predicate constant (here) and as an event
  value (:class:`~repro.events.Event`): it is unordered, so the range
  indexes could not agree with :meth:`Predicate.test` on it.  ``±inf``
  are ordinary numbers.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Optional, Tuple, Union

from repro.errors import SubscriptionError
from repro.events import Event, Value

PredicateValue = Union[str, int, float, bool, FrozenSet[Value]]

#: Byte-size model constants for :meth:`Predicate.size_bytes`.
_PREDICATE_OVERHEAD_BYTES = 8
_NUMERIC_BYTES = 8


class Operator(enum.Enum):
    """Comparison operators supported in predicates.

    Each operator knows its complement, which is used to push negations
    down to the predicate level during normalization.
    """

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    IN_SET = "in"
    NOT_IN_SET = "not-in"
    PREFIX = "prefix"
    NOT_PREFIX = "not-prefix"
    CONTAINS = "contains"
    NOT_CONTAINS = "not-contains"

    @property
    def complement(self) -> "Operator":
        """The operator matching exactly the events this one rejects
        (among events that carry the attribute)."""
        return _COMPLEMENTS[self]

    @property
    def is_ordered(self) -> bool:
        """True for the four range comparisons (<, <=, >, >=)."""
        return self in (Operator.LT, Operator.LE, Operator.GT, Operator.GE)

    @property
    def is_string_only(self) -> bool:
        """True for operators defined only on string values."""
        return self in (
            Operator.PREFIX,
            Operator.NOT_PREFIX,
            Operator.CONTAINS,
            Operator.NOT_CONTAINS,
        )

    @property
    def is_negated(self) -> bool:
        """True for the negated operators, which the predicate indexes
        answer as *all entries* minus a small excluded set."""
        return self in (
            Operator.NE,
            Operator.NOT_IN_SET,
            Operator.NOT_PREFIX,
            Operator.NOT_CONTAINS,
        )


_COMPLEMENTS = {
    Operator.EQ: Operator.NE,
    Operator.NE: Operator.EQ,
    Operator.LT: Operator.GE,
    Operator.GE: Operator.LT,
    Operator.LE: Operator.GT,
    Operator.GT: Operator.LE,
    Operator.IN_SET: Operator.NOT_IN_SET,
    Operator.NOT_IN_SET: Operator.IN_SET,
    Operator.PREFIX: Operator.NOT_PREFIX,
    Operator.NOT_PREFIX: Operator.PREFIX,
    Operator.CONTAINS: Operator.NOT_CONTAINS,
    Operator.NOT_CONTAINS: Operator.CONTAINS,
}


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _comparable(event_value: Value, constant: Value) -> bool:
    """Whether an ordered comparison between the two values is defined."""
    if _is_numeric(event_value) and _is_numeric(constant):
        return True
    if isinstance(event_value, str) and isinstance(constant, str):
        return True
    return False


class Predicate:
    """An immutable attribute-operator-value condition.

    >>> from repro.events import Event
    >>> pred = Predicate("price", Operator.LE, 20)
    >>> pred.evaluate(Event({"price": 15}))
    True
    >>> pred.evaluate(Event({"title": "Dune"}))
    False
    """

    __slots__ = ("attribute", "operator", "value", "_hash")

    def __init__(self, attribute: str, operator: Operator, value: PredicateValue) -> None:
        if not isinstance(attribute, str) or not attribute:
            raise SubscriptionError("predicate attribute must be a non-empty string")
        if not isinstance(operator, Operator):
            raise SubscriptionError("predicate operator must be an Operator")
        value = self._validate_value(operator, value)
        self.attribute = attribute
        self.operator = operator
        self.value = value
        self._hash: Optional[int] = None

    @staticmethod
    def _validate_value(operator: Operator, value: PredicateValue) -> PredicateValue:
        if operator in (Operator.IN_SET, Operator.NOT_IN_SET):
            if isinstance(value, (set, frozenset, list, tuple)):
                value = frozenset(value)
            else:
                raise SubscriptionError("set-membership predicates need a collection value")
            if not value:
                raise SubscriptionError("set-membership predicates need a non-empty set")
            for member in value:
                if not isinstance(member, (str, int, float, bool)):
                    raise SubscriptionError("unsupported set member type")
                if member != member:
                    raise SubscriptionError("set members must not be NaN")
            return value
        if operator.is_string_only and not isinstance(value, str):
            raise SubscriptionError(
                "%s predicates require a string value" % operator.value
            )
        if not isinstance(value, (str, int, float, bool)):
            raise SubscriptionError("unsupported predicate value type")
        if operator.is_ordered and isinstance(value, bool):
            raise SubscriptionError("ordered comparisons are undefined for booleans")
        if value != value:
            raise SubscriptionError("predicate value must not be NaN")
        return value

    def evaluate(self, event: Event) -> bool:
        """Evaluate this predicate against ``event``.

        Missing attributes and kind mismatches are unfulfilled.
        """
        if self.attribute not in event:
            return False
        return self.test(event[self.attribute])

    def test(self, event_value: Value) -> bool:
        """Evaluate this predicate against a raw attribute value."""
        op = self.operator
        constant = self.value
        if op is Operator.EQ:
            return self._values_equal(event_value, constant)
        if op is Operator.NE:
            return not self._values_equal(event_value, constant)
        if op.is_ordered:
            if not _comparable(event_value, constant):
                return False
            if op is Operator.LT:
                return event_value < constant
            if op is Operator.LE:
                return event_value <= constant
            if op is Operator.GT:
                return event_value > constant
            return event_value >= constant
        if op is Operator.IN_SET:
            return any(self._values_equal(event_value, member) for member in constant)
        if op is Operator.NOT_IN_SET:
            return not any(
                self._values_equal(event_value, member) for member in constant
            )
        if not isinstance(event_value, str):
            return False
        if op is Operator.PREFIX:
            return event_value.startswith(constant)
        if op is Operator.NOT_PREFIX:
            return not event_value.startswith(constant)
        if op is Operator.CONTAINS:
            return constant in event_value
        return constant not in event_value

    @staticmethod
    def _values_equal(left: Value, right: Value) -> bool:
        """Equality that never equates across string/number/bool kinds."""
        if isinstance(left, bool) or isinstance(right, bool):
            return isinstance(left, bool) and isinstance(right, bool) and left == right
        if _is_numeric(left) and _is_numeric(right):
            return left == right
        if isinstance(left, str) and isinstance(right, str):
            return left == right
        return False

    @property
    def complemented(self) -> "Predicate":
        """The predicate accepting exactly the events this one rejects
        (among events carrying the attribute)."""
        return Predicate(self.attribute, self.operator.complement, self.value)

    @property
    def size_bytes(self) -> int:
        """Approximate storage size of this predicate in bytes.

        This is the per-predicate component of the paper's ``mem``
        estimation: attribute name, operator tag, and value encoding.
        """
        total = _PREDICATE_OVERHEAD_BYTES + len(self.attribute.encode("utf-8"))
        if isinstance(self.value, frozenset):
            for member in self.value:
                if isinstance(member, str):
                    total += len(member.encode("utf-8")) + 1
                else:
                    total += _NUMERIC_BYTES
        elif isinstance(self.value, str):
            total += len(self.value.encode("utf-8"))
        else:
            total += _NUMERIC_BYTES
        return total

    def sort_key(self) -> Tuple[str, str, str]:
        """A deterministic total order over predicates (for canonical trees)."""
        if isinstance(self.value, frozenset):
            value_repr = "|".join(sorted(repr(member) for member in self.value))
        else:
            value_repr = repr(self.value)
        return (self.attribute, self.operator.value, value_repr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return (
            self.attribute == other.attribute
            and self.operator is other.operator
            and self.value == other.value
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.attribute, self.operator, self.value))
        return self._hash

    def __repr__(self) -> str:
        if isinstance(self.value, frozenset):
            value_repr = "{%s}" % ", ".join(sorted(repr(v) for v in self.value))
        else:
            value_repr = repr(self.value)
        return "Predicate(%s %s %s)" % (self.attribute, self.operator.value, value_repr)
