"""Tuples and patterns (antituples): the Linda value model.

Field values are restricted to a wire-safe set — ``bool``, ``int``,
``float``, ``str``, ``bytes`` and nested :class:`Tuple` — so that every
tuple that can be constructed can also be shipped to a remote Tiamat
instance by the codec in :mod:`repro.tuples.serialization`.

Matching semantics (see :mod:`repro.tuples.matching`) are *exact-type*: a
formal ``Formal(int)`` matches a field whose concrete type is ``int``, not a
``bool`` (even though ``bool`` subclasses ``int`` in Python) and not a
``float``.  This mirrors the strict typing of classic Linda tuples and keeps
matching decidable across heterogeneous devices.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

from repro.errors import MalformedPatternError, MalformedTupleError

#: Concrete Python types a tuple field may hold (plus nested Tuple).
SCALAR_TYPES = (bool, int, float, str, bytes)

FieldValue = Union[bool, int, float, str, bytes, "Tuple"]


def _validate_field(value: Any) -> FieldValue:
    if isinstance(value, Tuple):
        return value
    if isinstance(value, SCALAR_TYPES):
        return value
    raise MalformedTupleError(
        f"field {value!r} has unsupported type {type(value).__name__}; "
        "allowed: bool, int, float, str, bytes, Tuple"
    )


class Tuple:
    """An immutable, ordered collection of typed fields.

    Construct directly from values::

        Tuple("req", 42, "http://example.org/")

    Tuples are hashable and compare by value, so they can be deduplicated,
    used as dict keys, and asserted on in tests.
    """

    #: ``_wire`` caches the tuple's binary form (tuples are immutable, so
    #: the encoding can never go stale): a second encode of the same tuple
    #: reuses the bytes instead of re-walking the fields.
    __slots__ = ("_fields", "_hash", "_wire")

    def __init__(self, *fields: FieldValue) -> None:
        if not fields:
            raise MalformedTupleError("a tuple must have at least one field")
        self._fields = tuple(_validate_field(f) for f in fields)
        self._hash: Optional[int] = None
        self._wire: Optional[bytes] = None

    @classmethod
    def of(cls, fields: Iterable[FieldValue]) -> "Tuple":
        """Build a tuple from an iterable of field values."""
        return cls(*fields)

    @property
    def fields(self) -> tuple:
        """The field values, in order."""
        return self._fields

    @property
    def arity(self) -> int:
        """Number of fields."""
        return len(self._fields)

    @property
    def signature(self) -> tuple:
        """Per-field concrete type names (stores index by the types themselves)."""
        return tuple(type(f).__name__ for f in self._fields)

    def __getitem__(self, index: int) -> FieldValue:
        return self._fields[index]

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self):
        return iter(self._fields)

    def __eq__(self, other: object) -> bool:
        # Equality is type-strict, consistent with matching: Tuple(1) is not
        # Tuple(True) and Tuple(1) is not Tuple(1.0).
        if not isinstance(other, Tuple) or len(other._fields) != len(self._fields):
            return False
        return all(
            type(a) is type(b) and a == b
            for a, b in zip(self._fields, other._fields)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                ("repro.Tuple",)
                + tuple((type(f).__name__, f) for f in self._fields)
            )
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self._fields)
        return f"Tuple({inner})"


class Field:
    """Base class for pattern field specifications."""

    __slots__ = ()

    def admits(self, value: FieldValue) -> bool:  # pragma: no cover - abstract
        """Whether this spec matches the given concrete field value."""
        raise NotImplementedError


class Actual(Field):
    """A concrete value that the corresponding tuple field must equal.

    Equality is type-strict: ``Actual(1)`` does not admit ``True`` and
    ``Actual(1.0)`` does not admit ``1``.
    """

    __slots__ = ("value",)

    def __init__(self, value: FieldValue) -> None:
        self.value = _validate_field(value)

    def admits(self, value: FieldValue) -> bool:
        return type(value) is type(self.value) and value == self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Actual) and type(other.value) is type(self.value) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Actual", type(self.value).__name__, self.value))

    def __repr__(self) -> str:
        return f"Actual({self.value!r})"


class Formal(Field):
    """A typed placeholder: admits any value whose concrete type matches.

    ``Formal(Tuple)`` admits any nested tuple.  Type matching is exact
    (``Formal(int)`` does not admit ``True``).
    """

    __slots__ = ("type",)

    _ALLOWED = SCALAR_TYPES + (Tuple,)

    def __init__(self, type_: type) -> None:
        if type_ not in self._ALLOWED:
            names = ", ".join(t.__name__ for t in self._ALLOWED)
            raise MalformedPatternError(
                f"Formal type must be one of {names}; got {type_!r}"
            )
        self.type = type_

    def admits(self, value: FieldValue) -> bool:
        return type(value) is self.type or (self.type is Tuple and isinstance(value, Tuple))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Formal) and other.type is self.type

    def __hash__(self) -> int:
        return hash(("Formal", self.type.__name__))

    def __repr__(self) -> str:
        return f"Formal({self.type.__name__})"


class _AnyField(Field):
    """Wildcard: admits any field value regardless of type.

    An extension over classic Linda formals, convenient for monitoring and
    debugging tools that want to observe whole classes of tuples.  Exposed
    as the singleton :data:`ANY`.
    """

    __slots__ = ()

    def admits(self, value: FieldValue) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _AnyField)

    def __hash__(self) -> int:
        return hash("AnyField")

    def __repr__(self) -> str:
        return "ANY"


#: The wildcard field spec: matches any value of any allowed type.
ANY = _AnyField()


class Range(Field):
    """A numeric range constraint: admits ints/floats in [lo, hi].

    A wire-serializable predicate formal (arbitrary Python predicates cannot
    be propagated to remote instances; ranges can).  Either bound may be
    ``None`` for open-ended ranges.  NaN is in no range.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Optional[float] = None, hi: Optional[float] = None) -> None:
        for bound in (lo, hi):
            if bound is not None and (isinstance(bound, bool)
                                      or not isinstance(bound, (int, float))):
                raise MalformedPatternError(f"Range bound {bound!r} is not numeric")
        if lo is None and hi is None:
            raise MalformedPatternError("Range needs at least one bound")
        if lo is not None and hi is not None and lo > hi:
            raise MalformedPatternError(f"Range lo {lo} > hi {hi}")
        self.lo = lo
        self.hi = hi

    def admits(self, value: FieldValue) -> bool:
        if (type(value) is bool or not isinstance(value, (int, float))
                or value != value):
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Range) and (other.lo, other.hi) == (self.lo, self.hi)

    def __hash__(self) -> int:
        return hash(("Range", self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Range({self.lo!r}, {self.hi!r})"


def _coerce_spec(spec: Any) -> Field:
    """Turn pattern-construction sugar into a Field spec.

    Raw values become actuals; types become formals; Field instances pass
    through unchanged.  Callables are rejected with a pointer to
    :class:`Range` (predicates do not serialize).
    """
    if isinstance(spec, Field):
        return spec
    if isinstance(spec, type):
        return Formal(spec)
    if callable(spec) and not isinstance(spec, (Tuple,) + SCALAR_TYPES):
        raise MalformedPatternError(
            f"bare callables are not valid field specs ({spec!r}); "
            "use Range or a concrete Field subclass"
        )
    return Actual(spec)


class Pattern:
    """An antituple: the template used to search a space.

    Construction accepts sugar for the common cases — values are actuals,
    types are formals, :data:`ANY` is the wildcard::

        Pattern("response", 42, str)      # actual, actual, formal
        Pattern("load", Range(0.0, 0.5))  # serializable predicate
    """

    __slots__ = ("_specs", "_hash", "_plan")

    def __init__(self, *specs: Any) -> None:
        if not specs:
            raise MalformedPatternError("a pattern must have at least one field")
        self._specs = tuple(_coerce_spec(s) for s in specs)
        self._hash: Optional[int] = None
        self._plan: Optional[tuple] = None

    @classmethod
    def of(cls, specs: Iterable[Any]) -> "Pattern":
        """Build a pattern from an iterable of field specs."""
        return cls(*specs)

    @classmethod
    def for_tuple(cls, tup: Tuple) -> "Pattern":
        """The fully-actual pattern that matches exactly ``tup``."""
        return cls(*[Actual(f) for f in tup.fields])

    @property
    def specs(self) -> tuple:
        """The field specs, in order."""
        return self._specs

    @property
    def arity(self) -> int:
        """Number of fields the pattern constrains."""
        return len(self._specs)

    @property
    def index_plan(self) -> tuple:
        """``(signature, actuals, ranges)``: how a store's indexes serve this pattern.

        ``signature`` is the one tuple of concrete field types the pattern
        can match (matching is exact-type), or None when some spec admits
        several types (:data:`ANY`, :class:`Range`, ``Formal(Tuple)``, a
        custom :class:`Field`).  ``actuals`` are the ``(position, value)``
        pairs of its actual fields, ``ranges`` the ``(position, lo, hi)``
        of its :class:`Range` fields.  Computed once per pattern.
        """
        plan = self._plan
        if plan is None:
            types: Optional[list] = []
            actuals = []
            ranges: tuple = ()
            for pos, spec in enumerate(self._specs):
                kind = type(spec)
                if kind is Actual:
                    actuals.append((pos, spec.value))
                    field_type = type(spec.value)
                elif kind is Formal and spec.type is not Tuple:
                    field_type = spec.type
                else:
                    if kind is Range:
                        ranges += ((pos, spec.lo, spec.hi),)
                    types = None
                    continue
                if types is not None:
                    types.append(field_type)
            plan = self._plan = (None if types is None else tuple(types),
                                 tuple(actuals), ranges)
        return plan

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pattern) and other._specs == self._specs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("repro.Pattern", self._specs))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(s) for s in self._specs)
        return f"Pattern({inner})"
