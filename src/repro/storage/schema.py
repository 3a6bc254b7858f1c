"""Schemas: named, typed columns and row shape validation.

A :class:`Schema` is an ordered list of :class:`Column` objects.  Rows are
plain Python tuples whose positions line up with the schema's columns; the
schema is the single source of truth for resolving a column name to a tuple
position.

Column names may be qualified (``"lineitem.l_quantity"``) or bare
(``"l_quantity"``).  Lookups accept either form: a bare lookup matches any
column whose unqualified name matches, provided the match is unambiguous.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """The small set of scalar types the engine understands."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    DATE = "date"  # stored as ISO-8601 strings; compares lexicographically
    BOOL = "bool"

    @property
    def python_types(self) -> Tuple[type, ...]:
        """Python types acceptable for a value of this column type."""
        return {
            ColumnType.INT: (int,),
            ColumnType.FLOAT: (int, float),
            ColumnType.STR: (str,),
            ColumnType.DATE: (str,),
            ColumnType.BOOL: (bool,),
        }[self]


@dataclass(frozen=True)
class Column:
    """A single named, typed column.

    ``name`` must be unqualified; the qualifier lives on the schema side so
    the same column description can be reused under different table aliases.
    """

    name: str
    type: ColumnType = ColumnType.INT
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or "." in self.name:
            raise SchemaError(
                "column name must be non-empty and unqualified, got %r" % (self.name,)
            )

    def accepts(self, value: object) -> bool:
        """Return True if ``value`` is a legal value for this column."""
        if value is None:
            return self.nullable
        if self.type is ColumnType.BOOL:
            return isinstance(value, bool)
        if isinstance(value, bool):
            # bool is a subclass of int; do not let it masquerade as INT.
            return False
        return isinstance(value, self.type.python_types)


#: marks a bare name several columns share in :attr:`Schema._positions`
_AMBIGUOUS = -1


class Schema:
    """An ordered collection of columns, optionally qualified by a name.

    The schema supports positional access, name resolution (qualified or
    bare), concatenation (for joins), projection and renaming (for aliases).
    """

    def __init__(
        self,
        columns: Sequence[Column],
        qualifiers: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        if qualifiers is None:
            qualifiers = [None] * len(columns)
        if len(qualifiers) != len(columns):
            raise SchemaError("qualifiers must align with columns")
        self._columns: Tuple[Column, ...] = tuple(columns)
        self._qualifiers: Tuple[Optional[str], ...] = tuple(qualifiers)
        #: (qualifier or None, bare name) → position, or _AMBIGUOUS where a
        #: bare name matches several columns; what :meth:`index_of` reads
        self._positions: Dict[Tuple[Optional[str], str], int] = {}
        seen = set()
        for position, (qualifier, column) in enumerate(
            zip(self._qualifiers, self._columns)
        ):
            key = (qualifier, column.name)
            if key in seen:
                raise SchemaError("duplicate column %s" % (format_name(qualifier, column.name),))
            seen.add(key)
            if qualifier is not None:
                self._positions[key] = position
            bare = (None, column.name)
            self._positions[bare] = (
                _AMBIGUOUS if bare in self._positions else position
            )

    def __reduce__(self):
        # Rebuilt from its two tuples: the lookup map stays off the wire.
        return (Schema, (self._columns, self._qualifiers))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, qualifier: Optional[str], columns: Sequence[Column]) -> "Schema":
        """Build a schema whose columns all share one qualifier."""
        return cls(columns, [qualifier] * len(columns))

    def qualified(self, qualifier: str) -> "Schema":
        """Return a copy of this schema with every column re-qualified."""
        return Schema(self._columns, [qualifier] * len(self._columns))

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (the shape of a join output row)."""
        return Schema(
            self._columns + other._columns,
            self._qualifiers + other._qualifiers,
        )

    def project(self, positions: Sequence[int]) -> "Schema":
        """Return the schema obtained by keeping only ``positions``."""
        return Schema(
            [self._columns[i] for i in positions],
            [self._qualifiers[i] for i in positions],
        )

    # -- lookups --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (
            self._columns == other._columns and self._qualifiers == other._qualifiers
        )

    def __hash__(self) -> int:
        return hash((self._columns, self._qualifiers))

    @property
    def columns(self) -> Tuple[Column, ...]:
        return self._columns

    @property
    def qualifiers(self) -> Tuple[Optional[str], ...]:
        return self._qualifiers

    def column_at(self, position: int) -> Column:
        return self._columns[position]

    def qualified_names(self) -> Tuple[str, ...]:
        """Fully rendered names, e.g. ``('r1.a', 'b')``."""
        return tuple(
            format_name(qualifier, column.name)
            for qualifier, column in zip(self._qualifiers, self._columns)
        )

    def index_of(self, name: str) -> int:
        """Resolve ``name`` (qualified or bare) to a tuple position.

        Raises :class:`SchemaError` if the name is missing or ambiguous.
        """
        position = self._positions.get(split_name(name))
        if position is None:
            raise SchemaError(
                "no column %r in schema %s" % (name, list(self.qualified_names()))
            )
        if position == _AMBIGUOUS:
            raise SchemaError(
                "ambiguous column %r in schema %s" % (name, list(self.qualified_names()))
            )
        return position

    def has_column(self, name: str) -> bool:
        """Whether ``name`` resolves to exactly one column."""
        try:
            return self._positions.get(split_name(name), _AMBIGUOUS) >= 0
        except SchemaError:  # malformed name
            return False

    # -- validation -----------------------------------------------------------

    def validate_row(self, row: Sequence[object]) -> None:
        """Raise :class:`SchemaError` unless ``row`` matches this schema."""
        if len(row) != len(self._columns):
            raise SchemaError(
                "row arity %d does not match schema arity %d"
                % (len(row), len(self._columns))
            )
        for value, column in zip(row, self._columns):
            if not column.accepts(value):
                raise SchemaError(
                    "value %r is not valid for column %s of type %s"
                    % (value, column.name, column.type.value)
                )

    def __repr__(self) -> str:
        return "Schema(%s)" % (", ".join(self.qualified_names()),)


def split_name(name: str) -> Tuple[Optional[str], str]:
    """Split ``"t.a"`` into ``("t", "a")`` and ``"a"`` into ``(None, "a")``."""
    if "." in name:
        qualifier, _, bare = name.partition(".")
        if not qualifier or not bare:
            raise SchemaError("malformed column name %r" % (name,))
        return qualifier, bare
    return None, name


def format_name(qualifier: Optional[str], bare: str) -> str:
    """Render a possibly-qualified column name."""
    if qualifier is None:
        return bare
    return "%s.%s" % (qualifier, bare)


def columns(*specs: str) -> Tuple[Column, ...]:
    """Shorthand column factory.

    Each spec is ``"name:type"`` (type defaults to int), e.g.::

        columns("a:int", "b:str", "c:float")
    """
    built = []
    for spec in specs:
        name, _, type_name = spec.partition(":")
        column_type = ColumnType(type_name) if type_name else ColumnType.INT
        built.append(Column(name, column_type))
    return tuple(built)


def schema_of(qualifier: Optional[str], *specs: str) -> Schema:
    """Shorthand schema factory: ``schema_of("r1", "a:int", "b:str")``."""
    return Schema.of(qualifier, columns(*specs))
