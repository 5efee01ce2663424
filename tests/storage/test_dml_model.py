"""Column and Table DML against a Python-list model.

Random sequences of INSERT, UPDATE and DELETE run on a table with small
copy-on-write chunks. After every step the live rows equal the model,
every snapshot published earlier still reads the rows it was published
with, every value lives once (each live chunk shares memory with the
current generation's chunk, and no generation holds a second copy), and
a step left every chunk it did not write where it was: the chunks before
an INSERT's last one, before a DELETE's first hole, and the chunks an
UPDATE has no row in.
``REPRO_STORAGE_SCHEDULES`` sets how many sequences run (default 60).
"""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataType, make_schema
from repro.storage import Table
from tests.storage.values import assert_values_live_once

NAMES = ["id", "tag", "pay"]
CHUNK_ROWS = 4
TAGS = ["a", "b", "c", "d"]


def make_table() -> Table:
    schema = make_schema(
        "emp",
        [("id", DataType.INT), ("tag", DataType.STRING), ("pay", DataType.FLOAT)],
    )
    return Table(schema, chunk_rows=CHUNK_ROWS, snapshot_retention=2)


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
        before = {name: col.pieces for name, col in table.columns.items()}
        if op == "insert":
            rows = [random_row(rng) for _ in range(int(rng.integers(1, 6)))]
            table.insert_rows([dict(zip(NAMES, row)) for row in rows])
            model.extend(rows)
            kept = range(max(0, (n - 1) // CHUNK_ROWS))
        elif op == "update":
            positions = random_positions(rng, n)
            value = float(rng.integers(-8, 8)) / 4
            tag = TAGS[int(rng.integers(len(TAGS)))]
            table.update_rows(positions, {"pay": value, "tag": tag})
            for p in positions.tolist():
                model[p] = (model[p][0], tag, value)
            written = set((positions // CHUNK_ROWS).tolist())
            kept = [c for c in range(-(-n // CHUNK_ROWS)) if c not in written]
        else:
            positions = random_positions(rng, n)
            assert table.delete_rows(positions) == len(positions)
            gone = set(positions.tolist())
            model = [row for i, row in enumerate(model) if i not in gone]
            kept = range(min(gone) // CHUNK_ROWS) if gone else ()
        for name, col in table.columns.items():
            assert_values_live_once(col, table.current_snapshot.column(name))
            for c in kept:
                assert np.shares_memory(col.pieces[c], before[name][c]), (name, c)
        assert table.fetch_rows(None, NAMES) == model
        published.append((table.current_snapshot, list(model)))
        for snapshot, rows in published:
            assert snapshot.row_count == len(rows)
            assert snapshot.fetch_rows(None, NAMES) == rows
