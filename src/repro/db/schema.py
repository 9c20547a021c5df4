"""Table schemas and the database catalog.

A :class:`TableSchema` is an ordered list of typed :class:`Column` objects
plus integrity metadata (primary key, unique constraints). The
:class:`Catalog` maps case-insensitive table names (and aliases — TROD's
provenance store exposes its execution log both as ``Invocations``, the name
used by Table 1 of the paper, and ``Executions``, the name used by the
paper's SQL) to schemas.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.db.types import STORAGE_TYPES, ColumnType, coerce
from repro.errors import IntegrityError, SchemaError, TypeCoercionError


@dataclass(frozen=True)
class Column:
    """A single column definition.

    ``default`` is used when an INSERT omits the column; a missing column
    with no default becomes NULL (and fails validation if not nullable).
    """

    name: str
    col_type: ColumnType
    nullable: bool = True
    primary_key: bool = False
    unique: bool = False
    default: Any = None

    def __post_init__(self):
        # Quoted identifiers may contain spaces etc.; reject only names
        # that cannot round-trip through the lexer's quoting.
        if not self.name or '"' in self.name or "\n" in self.name:
            raise SchemaError(f"invalid column name: {self.name!r}")


class TableSchema:
    """An immutable description of one table.

    Column order matters: rows are stored as tuples in schema order.
    Lookups by name are case-insensitive, matching common SQL engines.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        unique_constraints: Iterable[Sequence[str]] = (),
    ):
        if not name:
            raise SchemaError("table name must be non-empty")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self.column_names: tuple[str, ...] = tuple(c.name for c in self.columns)
        self._by_name: dict[str, int] = {}
        for idx, col in enumerate(self.columns):
            key = col.name.lower()
            if key in self._by_name:
                raise SchemaError(f"duplicate column {col.name!r} in table {name!r}")
            self._by_name[key] = idx
        self.primary_key: tuple[str, ...] = tuple(
            c.name for c in self.columns if c.primary_key
        )
        uniques: list[tuple[str, ...]] = []
        for constraint in unique_constraints:
            cols = tuple(self.column(c).name for c in constraint)
            if not cols:
                raise SchemaError("empty unique constraint")
            uniques.append(cols)
        for col in self.columns:
            if col.unique and not col.primary_key:
                uniques.append((col.name,))
        if self.primary_key:
            uniques.insert(0, self.primary_key)
        self.unique_constraints: tuple[tuple[str, ...], ...] = tuple(uniques)
        #: Per column: the Python types it stores as they are — its storage
        #: type, and NoneType if NULL is allowed.
        self._stored_as = tuple(
            frozenset((STORAGE_TYPES[col.col_type], type(None))[: 1 + col.nullable])
            for col in self.columns
        )
        #: Positions of the FLOAT columns: the one type a signature cannot
        #: vouch for, since a float NaN must be stored as NULL.
        self._float_positions = tuple(
            i for i, col in enumerate(self.columns) if col.col_type is ColumnType.FLOAT
        )
        #: Type signatures (``tuple(map(type, row))``) of rows already
        #: stored unchanged. Each column admits at most two types, its
        #: storage type and NoneType, so the set stays small.
        self._accepted: set[tuple[type, ...]] = set()

    # -- column access ------------------------------------------------

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def __len__(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{c.name} {c.col_type}" for c in self.columns)
        return f"TableSchema({self.name}: {cols})"

    # -- row validation -------------------------------------------------

    def coerce_row(self, values: Mapping[str, Any] | Sequence[Any]) -> tuple:
        """Validate and coerce one row (the one-row :meth:`coerce_rows`)."""
        return self.coerce_rows((values,))[0]

    def coerce_rows(
        self, rows: Iterable[Mapping[str, Any] | Sequence[Any]]
    ) -> list[tuple]:
        """Validate and coerce rows into storage tuples in schema order.

        Each row is either a mapping of column name -> value (missing
        columns take their defaults) or a sequence in schema order (must
        be the exact arity). NOT NULL violations raise
        :class:`IntegrityError`. A value whose Python type is exactly its
        column's storage type (or a NULL in a nullable column) needs no
        conversion; only rows holding anything else pay for :func:`coerce`.
        That test depends on nothing but the row's type signature, so a
        row whose signature an earlier row passed with is taken as it is,
        with no per-value loop — save for a float NaN, which is stored as
        NULL and so makes a NOT NULL column refuse the row: a table with
        FLOAT columns also looks at their values.
        """
        accepted = self._accepted
        floats = self._float_positions
        out = []
        for values in rows:
            if type(values) is tuple:
                row = values
            elif isinstance(values, Mapping):
                row = self._positional(values)
            else:
                row = tuple(values)
            if tuple(map(type, row)) not in accepted:
                row = self._checked(row)
            if floats and any(row[i] != row[i] for i in floats):  # NaN != NaN
                row = self._coerce_each(row)
            out.append(row)
        return out

    def _checked(self, row: tuple) -> tuple:
        """``row`` after the per-value check (and :func:`coerce` if any
        value needs it); its signature is remembered if it passed as is."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(row)}"
            )
        kinds = tuple(map(type, row))
        if not self.stores_as_is(kinds):
            return self._coerce_each(row)
        self._accepted.add(kinds)
        return row

    def stores_as_is(self, kinds: Sequence[type], start: int = 0) -> bool:
        """Whether values of the Python types ``kinds``, laid out in
        columns ``start`` onward, are stored as they are: each is its
        column's storage type, or a NULL in a nullable column. Values past
        the last column are not checked; the caller checks arity."""
        return all(map(frozenset.__contains__, self._stored_as[start:], kinds))

    def _positional(self, values: Mapping[str, Any]) -> tuple:
        lowered = {k.lower(): v for k, v in values.items()}
        unknown = set(lowered) - set(self._by_name)
        if unknown:
            raise SchemaError(
                f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
            )
        return tuple(
            lowered.get(col.name.lower(), col.default) for col in self.columns
        )

    def _coerce_each(self, row: tuple) -> tuple:
        return tuple(map(self.coerce_value, self.columns, row))

    def coerce_value(self, col: Column, value: Any) -> Any:
        """``value`` as column ``col`` stores it: coerced, NOT NULL enforced."""
        try:
            coerced = coerce(value, col.col_type)
        except TypeCoercionError as exc:
            raise TypeCoercionError(f"{self.name}.{col.name}: {exc}") from None
        if coerced is None and not col.nullable:
            raise IntegrityError(f"NOT NULL violation: {self.name}.{col.name}")
        return coerced

    def row_dict(self, row: Sequence[Any]) -> dict[str, Any]:
        """Convert a storage tuple back to a column-name-keyed dict."""
        return dict(zip(self.column_names, row))

    def key_for(self, constraint: Sequence[str], row: Sequence[Any]) -> tuple:
        """Extract the values of ``constraint`` columns from a row tuple."""
        return tuple(row[self.index_of(c)] for c in constraint)

    def ddl(self) -> str:
        """Render this schema back to a CREATE TABLE statement.

        TROD stores this in the provenance database so a development
        database can be reconstructed without access to production.
        """
        parts = []
        for col in self.columns:
            bits = [col.name, col.col_type.value]
            if col.primary_key:
                bits.append("PRIMARY KEY")
            if not col.nullable and not col.primary_key:
                bits.append("NOT NULL")
            if col.unique and not col.primary_key:
                bits.append("UNIQUE")
            parts.append(" ".join(bits))
        for constraint in self.unique_constraints:
            if constraint == self.primary_key:
                continue
            if len(constraint) == 1 and self.column(constraint[0]).unique:
                continue
            parts.append(f"UNIQUE ({', '.join(constraint)})")
        return f"CREATE TABLE {self.name} ({', '.join(parts)})"


class Catalog:
    """Case-insensitive registry of table schemas and name aliases."""

    def __init__(self):
        self._tables: dict[str, TableSchema] = {}
        self._aliases: dict[str, str] = {}

    def create_table(self, schema: TableSchema) -> None:
        key = schema.name.lower()
        if key in self._tables or key in self._aliases:
            raise SchemaError(f"table {schema.name!r} already exists")
        self._tables[key] = schema

    def drop_table(self, name: str) -> TableSchema:
        key = self.resolve(name)
        schema = self._tables.pop(key)
        self._aliases = {a: t for a, t in self._aliases.items() if t != key}
        return schema

    def add_alias(self, alias: str, table: str) -> None:
        """Register ``alias`` as another name for ``table``."""
        target = self.resolve(table)
        key = alias.lower()
        if key in self._tables:
            raise SchemaError(f"alias {alias!r} collides with an existing table")
        self._aliases[key] = target

    def resolve(self, name: str) -> str:
        """Return the canonical (lowercase) table key for ``name``."""
        key = name.lower()
        key = self._aliases.get(key, key)
        if key not in self._tables:
            raise SchemaError(f"no such table: {name!r}")
        return key

    def has_table(self, name: str) -> bool:
        key = name.lower()
        return key in self._tables or key in self._aliases

    def get(self, name: str) -> TableSchema:
        return self._tables[self.resolve(name)]

    def table_names(self) -> list[str]:
        """Canonical table names, in creation order."""
        return [schema.name for schema in self._tables.values()]

    def aliases(self) -> dict[str, str]:
        """``alias -> canonical table key`` registrations (a copy)."""
        return dict(self._aliases)

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)
