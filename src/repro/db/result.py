"""Query results."""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.db.types import render_value
from repro.errors import ExecutionError


class Row(tuple):
    """One result row: a tuple with name and attribute access.

    ``row.balance``, ``row["balance"]``, and ``row[1]`` all work; equality
    and ordering against plain tuples are inherited, so code written
    against tuple rows keeps passing when handed Rows (the cursor API
    returns these).
    """

    def __new__(cls, values: tuple, names: dict[str, int]) -> "Row":
        obj = super().__new__(cls, values)
        obj._names = names
        return obj

    def __getattr__(self, name: str) -> Any:
        try:
            return tuple.__getitem__(self, self._names[name.lower()])
        except KeyError:
            raise AttributeError(
                f"row has no column {name!r} (columns: {list(self._names)})"
            ) from None

    def __getitem__(self, key):  # type: ignore[override]
        if isinstance(key, str):
            try:
                return tuple.__getitem__(self, self._names[key.lower()])
            except KeyError:
                raise ExecutionError(
                    f"row has no column {key!r} (columns: {list(self._names)})"
                ) from None
        return tuple.__getitem__(self, key)

    def keys(self) -> list[str]:
        return list(self._names)

    def as_dict(self) -> dict[str, Any]:
        return {name: tuple.__getitem__(self, i) for name, i in self._names.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Row {self.as_dict()!r}>"


def _name_slots(columns: list[str]) -> dict[str, int]:
    """Column name -> slot, first occurrence winning (duplicates legal)."""
    names: dict[str, int] = {}
    for i, column in enumerate(columns):
        names.setdefault(column.lower(), i)
    return names


def text_table(headers: Sequence[str], cells: Sequence[Sequence[str]]) -> str:
    """Align already-formatted cells under their headers, one text line a
    row (``ResultSet.pretty``, the paper's tables, benchmark output)."""
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    lines.extend(" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells)
    return "\n".join(lines)


#: What a streamed source yields first when priming pinned its snapshot
#: but produced no row yet: a sort waits to hear how many rows its
#: consumer takes (``first()``: 1, ``one()``: 2) before it sorts.
PINNED = object()


class ResultSet:
    """Rows returned by a statement.

    SELECTs populate ``columns`` and ``rows``; DML statements leave those
    empty and report ``rowcount`` (and, for INSERT, the new ``row_ids``).

    A SELECT may instead be *streamed*: constructed with ``source`` (a
    row iterator) rather than ``rows``, it pulls rows lazily — through
    :meth:`next_row` / :meth:`take` / iteration — so a consumer holding
    the first few rows of a million-row scan never materializes the rest.
    ``rowcount`` is ``-1`` until the stream ends (DB-API's "unknown").
    Accessing :attr:`rows` (or any whole-result helper: ``scalar``,
    ``as_rows``, ``len()``...) on an untouched stream drains it into a
    list, so materializing callers behave exactly as before; doing so
    after rows were already streamed off raises, because those rows are
    gone. The stream is pinned to the statement's snapshot — see
    :meth:`prime` and docs/api.md ("Streaming & concurrency").
    """

    def __init__(
        self,
        columns: list[str] | None = None,
        rows: list[tuple] | None = None,
        rowcount: int = 0,
        kind: str = "select",
        row_ids: list[int] | None = None,
        source: Iterator[tuple] | None = None,
        limit_rows: Callable[[int], None] | None = None,
    ):
        self.columns = columns or []
        #: Tells the pipeline behind ``source`` the most rows its next pull
        #: must serve, counting the one it asks for (a sort there then
        #: orders only that many); None for a plain iterator.
        self._limit_rows = limit_rows
        self.kind = kind
        self.row_ids = row_ids or []
        self._source = source if rows is None else None
        self._pending: tuple | None = None  # primed row awaiting next_row
        self._primed = False
        self._consumed = 0  # rows handed out through the streaming API
        if self._source is not None:
            self._rows: list[tuple] = []
            self.rowcount = -1 if kind == "select" else rowcount
        else:
            self._rows = rows or []
            self.rowcount = rowcount if kind != "select" else len(self._rows)

    # -- streaming --------------------------------------------------------

    @property
    def streaming(self) -> bool:
        """True while rows may still be pulled lazily from the source."""
        return self._source is not None or self._pending is not None

    def prime(self) -> None:
        """Start the pipeline: pull (and hold) the first row, or only pin
        it when the source yields :data:`PINNED` first.

        The engine calls this while the statement's read transaction is
        still live, so every scan in the pipeline resolves its snapshot
        before the transaction is finished; from then on the stream is
        pinned — it serves that snapshot however long the consumer takes
        and whatever commits or aborts happen meanwhile.
        """
        if self._source is None or self._primed:
            return
        self._primed = True
        try:
            row = next(self._source)
        except StopIteration:
            self._finish()
            return
        if row is not PINNED:
            self._pending = row

    def next_row(self) -> tuple | None:
        """The next streamed row, or None when the stream is exhausted."""
        self.prime()
        if self._pending is not None:
            row = self._pending
            self._pending = None
            self._consumed += 1
            return row
        if self._source is None:
            return None
        try:
            row = next(self._source)
        except StopIteration:
            self._finish()
            return None
        self._consumed += 1
        return row

    def take(self, n: int) -> list[tuple]:
        """Up to ``n`` rows off the stream (empty list when exhausted)."""
        out: list[tuple] = []
        while len(out) < n:
            row = self.next_row()
            if row is None:
                break
            out.append(row)
        return out

    def close(self) -> None:
        """Stop streaming; remaining rows are abandoned unscanned.

        Dropping a stream needs no other cleanup: the backing read
        transaction was already finished at prime time, so an abandoned
        stream just releases its pinned snapshot to the garbage
        collector.
        """
        self._source = None
        self._pending = None

    def _finish(self) -> None:
        self._source = None
        if self.kind == "select":
            self.rowcount = self._consumed

    @property
    def rows(self) -> list[tuple]:
        """All rows, materializing a not-yet-consumed stream on demand."""
        if self._consumed:
            # Applies whether the stream is mid-flight, exhausted, or
            # closed: rows handed out through the streaming API are gone,
            # and silently returning the empty remainder would read as
            # "no rows matched".
            raise ExecutionError(
                "result was streamed; rows already fetched cannot be "
                "re-materialized (drain via iteration, or access .rows "
                "before fetching)"
            )
        if self._source is not None or self._pending is not None:
            self.prime()
            drained = []
            if self._pending is not None:
                drained.append(self._pending)
                self._pending = None
            drained.extend(self._source or ())
            self._source = None
            self._rows = drained
            if self.kind == "select":
                self.rowcount = len(drained)
        return self._rows

    def __iter__(self) -> Iterator[tuple]:
        if not self.streaming:
            if self._consumed:
                # A drained/closed stream: re-iterating would silently
                # read as an empty result (streams are one-shot).
                raise ExecutionError(
                    "result was streamed and is exhausted; streams are "
                    "one-shot"
                )
            return iter(self._rows)
        return self._iter_stream()

    def _iter_stream(self) -> Iterator[tuple]:
        next_row = self.next_row
        while (row := next_row()) is not None:
            yield row
        if not self._consumed:
            # Materialized out from under us — list(result) probes
            # __len__ as a length hint after creating the iterator. No
            # streamed row was handed out (``rows`` refuses otherwise),
            # so the buffer is the complete result.
            yield from self._rows

    def __len__(self) -> int:
        if self._consumed:
            # Raised as TypeError so list(result) — which probes len()
            # only as a hint and ignores TypeError — keeps streaming.
            raise TypeError("length of a streamed result is unknowable")
        return len(self.rows)

    def __bool__(self) -> bool:
        if self._consumed:
            return True  # rows already streamed off: the result had rows
        return bool(self.rows) or self.rowcount > 0

    def _expect(self, count: int) -> None:
        """Before a pull: the caller takes at most ``count`` more rows."""
        if self._pending is None and self._limit_rows is not None:
            self._limit_rows(count)

    def first(self) -> tuple | None:
        """The first row (pulling just one from a streamed result, whose
        sort orders only the rows that can come first)."""
        if self.streaming and not self._consumed:
            self.prime()
            self._expect(1)
            row = self.next_row()
            self.close()
            return row
        return self.rows[0] if self.rows else None

    def one(self) -> Row:
        """The single row of a single-row result, with attribute access.

        Raises :class:`~repro.errors.ExecutionError` when the result has
        zero or several rows — the cursor-era companion to :meth:`scalar`.
        On a streamed result this pulls at most two rows, so ``one()``
        over a selective predicate stops the underlying scan as soon as a
        second match would disprove uniqueness (the EXISTS-style
        short-circuit).
        """
        if self.streaming and not self._consumed:
            self.prime()
            got = []
            for count in (2, 1):
                self._expect(count)
                row = self.next_row()
                if row is None:
                    break
                got.append(row)
            self.close()
            if len(got) != 1:
                raise ExecutionError(
                    f"one() needs exactly one row, got "
                    f"{'0' if not got else 'several (2+)'}"
                )
            return Row(got[0], _name_slots(self.columns))
        if len(self.rows) != 1:
            raise ExecutionError(
                f"one() needs exactly one row, got {len(self.rows)}"
            )
        return Row(self.rows[0], _name_slots(self.columns))

    def as_rows(self) -> list[Row]:
        """Every row wrapped for name/attribute access."""
        names = _name_slots(self.columns)
        return [Row(row, names) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[Any]:
        """All values of one output column."""
        lowered = [c.lower() for c in self.columns]
        try:
            index = lowered.index(name.lower())
        except ValueError:
            raise ExecutionError(f"no output column {name!r}") from None
        return [row[index] for row in self.rows]

    def pretty(self, max_rows: int | None = None) -> str:
        """Render as an aligned text table (used by examples and benches)."""
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        text = text_table(
            self.columns, [[render_value(v) for v in row] for row in shown]
        )
        if max_rows is not None and len(self.rows) > max_rows:
            text += f"\n... ({len(self.rows) - max_rows} more rows)"
        return text

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.streaming:
            return f"<ResultSet streaming x {len(self.columns)} cols>"
        if self.kind == "select":
            return f"<ResultSet {len(self._rows)} rows x {len(self.columns)} cols>"
        return f"<ResultSet {self.kind} rowcount={self.rowcount}>"
