"""Property test: ``TableSchema.coerce_rows`` with its accepted signatures.

A schema takes a row whose exact type signature it has already stored
unchanged without looking at the values again. The reference is a fresh
schema per row, which has accepted nothing yet. Batches of rows over
every column type — nullable and NOT NULL, a default, tuples, lists,
mappings (with unknown names), wrong arities, bools and integral floats
into INTEGER, ints into FLOAT, NULLs — go through one schema that lives
for the whole test run. Each batch must store the same values with the
same types as the fresh schemas, or raise the error the first failing row
raises alone, on that row: the batch up to it still succeeds.
"""

from hypothesis import given, settings, strategies as st

from repro.db.schema import Column, TableSchema
from repro.db.types import ColumnType


def make_schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("i", ColumnType.INTEGER, nullable=False),
            Column("f", ColumnType.FLOAT),
            Column("s", ColumnType.TEXT, nullable=False, default="d"),
            Column("b", ColumnType.BOOLEAN),
            Column("ts", ColumnType.TIMESTAMP),
            Column("g", ColumnType.FLOAT, nullable=False),
        ],
    )


#: Accumulates accepted signatures across every example.
LONG_LIVED = make_schema()
NAMES = [c.name for c in LONG_LIVED.columns]

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 2.0, -1.0, 2.5, 1e20]),
    st.sampled_from(["", "x", "2"]),
)
rows = st.one_of(
    st.tuples(*[values] * 6),
    st.lists(values, min_size=6, max_size=6),
    st.lists(values, min_size=5, max_size=7),
    st.dictionaries(
        st.sampled_from(NAMES + ["I", "G", "nope"]), values, max_size=6
    ),
)
#: Rows that store unchanged, so the signature path is exercised often.
clean = st.tuples(
    st.integers(-3, 3),
    st.one_of(st.none(), st.sampled_from([0.5, 2.0])),
    st.sampled_from(["", "x"]),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.integers(0, 9)),
    st.sampled_from([1.0, -2.5]),
)
batches = st.lists(st.lists(st.one_of(clean, rows), max_size=12), max_size=6)


def typed(stored: list[tuple]) -> list[tuple]:
    """Values with their exact types: ``1 == 1.0 == True`` must not pass."""
    return [tuple((type(v), v) for v in row) for row in stored]


def fresh(row) -> tuple:
    return make_schema().coerce_row(row)


@given(batches=batches)
@settings(max_examples=200, deadline=None)
def test_batch_through_a_long_lived_schema_equals_fresh_schemas(batches):
    for batch in batches:
        expected, failure = [], None
        for at, row in enumerate(batch):
            try:
                expected.append(fresh(row))
            except Exception as exc:  # noqa: BLE001 - compared below
                failure = (at, type(exc), str(exc))
                break
        if failure is None:
            assert typed(LONG_LIVED.coerce_rows(batch)) == typed(expected)
            continue
        at, kind, message = failure
        assert typed(LONG_LIVED.coerce_rows(batch[:at])) == typed(expected)
        try:
            LONG_LIVED.coerce_rows(batch)
        except Exception as exc:  # noqa: BLE001 - compared below
            assert (type(exc), str(exc)) == (kind, message)
        else:
            raise AssertionError(f"row {at} of {batch!r} was accepted: {message}")


def test_each_conversion_after_a_signature_is_accepted():
    schema = make_schema()
    row = (1, 2.0, "x", True, 5, 3.0)
    assert schema.coerce_rows([row])[0] is row  # stored as given
    # Same values, other types: each goes through the per-value check.
    assert typed(schema.coerce_rows([(2.0, 1, "x", None, 7.0, 3)])) == typed(
        [(2, 1.0, "x", None, 7, 3.0)]
    )
    assert typed(schema.coerce_rows([{"I": 4, "g": 1}])) == typed(
        [(4, None, "d", None, None, 1.0)]
    )
    refused = {
        "expected INTEGER, got BOOLEAN True": (True, 2.0, "x", True, 5, 3.0),
        "expected INTEGER, got 2.5": (2.5, 2.0, "x", True, 5, 3.0),
        "NOT NULL violation: t.g": (1, 2.0, "x", True, 5, None),
        "expects 6 values, got 5": (1, 2.0, "x", True, 5),
        "unknown column": {"i": 1, "g": 1.0, "nope": 0},
    }
    for message, bad in refused.items():
        try:
            schema.coerce_rows([row, bad])
        except Exception as exc:  # noqa: BLE001 - the message is the check
            assert message in str(exc)
        else:
            raise AssertionError(f"{bad!r} was accepted")
