"""Column and Table DML against a Python-list model.

Random sequences of INSERT, UPDATE and DELETE run on a table with small
copy-on-write chunks. After every step the live rows equal the model,
every snapshot published earlier still reads the rows it was published
with, and a DELETE keeps each column's buffer (object and capacity), so
an INSERT that fits after it reuses the buffer too.
``REPRO_STORAGE_SCHEDULES`` sets how many sequences run (default 60).
"""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataType, make_schema
from repro.storage import Table

NAMES = ["id", "tag", "pay"]
TAGS = ["a", "b", "c", "d"]


def make_table() -> Table:
    schema = make_schema(
        "emp",
        [("id", DataType.INT), ("tag", DataType.STRING), ("pay", DataType.FLOAT)],
    )
    return Table(schema, chunk_rows=4, snapshot_retention=2)


def random_row(rng) -> tuple:
    return (
        int(rng.integers(-50, 50)),
        TAGS[int(rng.integers(len(TAGS)))],
        float(rng.integers(-8, 8)) / 4,
    )


def random_positions(rng, n: int) -> np.ndarray:
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(rng.integers(0, n, int(rng.integers(1, n + 1))))


ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    min_size=1,
    max_size=25,
)


@settings(
    max_examples=int(os.environ.get("REPRO_STORAGE_SCHEDULES", "60")),
    deadline=None,
)
@given(st.integers(min_value=0, max_value=40), ops)
def test_random_dml_matches_list_model(initial, steps):
    table = make_table()
    rng = np.random.default_rng(initial)
    model = [random_row(rng) for _ in range(initial)]
    if model:
        table.insert_rows([dict(zip(NAMES, row)) for row in model])
    published = [(table.current_snapshot, list(model))]
    for op, seed in steps:
        rng = np.random.default_rng(seed)
        n = len(model)
        if op == "insert":
            rows = [random_row(rng) for _ in range(int(rng.integers(1, 6)))]
            fits = all(
                len(col) + len(rows) <= len(col._buf)
                for col in table.columns.values()
            )
            before = {name: col._buf for name, col in table.columns.items()}
            table.insert_rows([dict(zip(NAMES, row)) for row in rows])
            model.extend(rows)
            if fits:
                for name, col in table.columns.items():
                    assert col._buf is before[name], name
        elif op == "update":
            positions = random_positions(rng, n)
            value = float(rng.integers(-8, 8)) / 4
            tag = TAGS[int(rng.integers(len(TAGS)))]
            table.update_rows(positions, {"pay": value, "tag": tag})
            for p in positions.tolist():
                model[p] = (model[p][0], tag, value)
        else:
            positions = random_positions(rng, n)
            before = {
                name: (col._buf, len(col._buf))
                for name, col in table.columns.items()
            }
            assert table.delete_rows(positions) == len(positions)
            gone = set(positions.tolist())
            model = [row for i, row in enumerate(model) if i not in gone]
            for name, col in table.columns.items():
                buf, capacity = before[name]
                assert col._buf is buf and len(col._buf) == capacity, name
        assert table.fetch_rows(None, NAMES) == model
        published.append((table.current_snapshot, list(model)))
        for snapshot, rows in published:
            assert snapshot.row_count == len(rows)
            assert snapshot.fetch_rows(None, NAMES) == rows
