"""Generated schedules: every pinned generation's indexes agree with its
own column data, under DML, CREATE INDEX, AS OF pins and DROP + CREATE
TABLE of the same name.

After every step, every pinned generation is checked against every index
its table declares *now*: ``lookup``, ``probe`` and ``range_lookup`` must
equal a mask over that generation's ``column_data``. An index declared
after a pin therefore has to serve the pin, and a generation pinned
across DROP TABLE keeps the set its own table had.

The table starts with two full chunks and a row, and steps confined to
the last chunk (UPDATE, DELETE, and an INSERT that fills it and starts
the next) keep a generation's body shared with its predecessor's, while
an UPDATE or DELETE confined to the body chunks starts a new one. So the
current and every pinned generation's reads are also checked against
its own concatenated data: ``take`` on sorted, unsorted and empty rows,
``predicate_mask`` over the whole table, and ``probe`` pairs in the
order a :class:`HashIndex` over the whole column gives them.

Every value lives once: after every step each live chunk is, or shares
memory with, the current generation's chunk, no generation holds a
second copy of its values (a cached concatenation), and every pinned
generation still reads the values it read when it was pinned.

The same schedules, with JITS sample draws mixed in, check that a
sample's masks, first evaluated after the later steps, equal a mask over
the generation the sample was drawn from at the rows it drew.

``REPRO_STORAGE_SCHEDULES`` sets how many schedules each property runs
(default 60).
"""

import os

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DataType, make_schema
from repro.errors import StorageError
from repro.jits import SampleCache
from repro.predicates import LocalPredicate, PredOp, predicate_mask, values_mask
from repro.storage import Database, fixed_size_sample
from repro.storage.index import HashIndex
from repro.storage.table import UDIShard, udi_shard_scope
from tests.storage.values import assert_values_live_once, value_bytes

SCHEMA = make_schema(
    "t",
    [("i", DataType.INT), ("f", DataType.FLOAT), ("s", DataType.STRING)],
    primary_key="i",
)
INTS = list(range(-4, 5))
FLOATS = [float("inf"), float("-inf"), float("nan"), 0.0, -0.0, 1.5, -2.0, 3.0]
STRINGS = ["a", "b", "c", "d"]
DOMAINS = {"i": INTS, "f": FLOATS, "s": STRINGS}
CHUNK_ROWS = 4
SCHEDULES = int(os.environ.get("REPRO_STORAGE_SCHEDULES", "60"))

rows_st = st.lists(
    st.tuples(
        st.sampled_from(INTS), st.sampled_from(FLOATS), st.sampled_from(STRINGS)
    ),
    min_size=1,
    max_size=6,
)
step_st = st.one_of(
    st.tuples(st.just("insert"), rows_st),
    st.tuples(
        st.just("update"),
        st.sampled_from(["i", "f", "s"]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 7),
    ),
    st.tuples(st.just("delete"), st.integers(0, 2**32 - 1)),
    st.tuples(
        st.just("tail_update"),
        st.sampled_from(["i", "f", "s"]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 7),
    ),
    st.tuples(st.just("tail_delete"), st.integers(0, 2**32 - 1)),
    st.tuples(
        st.just("body_update"),
        st.sampled_from(["i", "f", "s"]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 7),
    ),
    st.tuples(st.just("body_delete"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("cross"), rows_st),
    st.tuples(
        st.just("index"), st.sampled_from(["hash", "sorted"]),
        st.sampled_from(["i", "f", "s"]),
    ),
    st.tuples(st.just("pin"), st.integers(0, 3)),
    st.tuples(st.just("release"), st.integers(0, 7)),
    st.tuples(st.just("recreate")),
)
sample_step_st = st.one_of(step_st, st.tuples(st.just("sample")))
SAMPLE_SIZE = 4
PREDICATES = [
    LocalPredicate("t", "i", PredOp.EQ, (1,)),
    LocalPredicate("t", "i", PredOp.LT, (0,)),
    LocalPredicate("t", "i", PredOp.IN, (-4, 2, 3)),
    LocalPredicate("t", "f", PredOp.GE, (0.0,)),
    LocalPredicate("t", "f", PredOp.NE, (1.5,)),
    LocalPredicate("t", "s", PredOp.EQ, ("b",)),
    LocalPredicate("t", "s", PredOp.IN, ("a", "d", "zz")),
]


class Schedule:
    """One database, a statement clock, the pinned generations and, per
    table object, the declared set a model says it has."""

    def __init__(self):
        self.db = Database(chunk_rows=CHUNK_ROWS, snapshot_retention=4)
        self.clock = 0
        self.pins = []
        self.declared = {}
        self.samples = SampleCache(SAMPLE_SIZE, np.random.default_rng(0))
        self.drawn = []  # (sample, its table, generation, rng before draw)
        self.create()

    def create(self):
        """Create ``t`` holding two full chunks and one row: a body from
        the first step on."""
        table = self.db.create_table(SCHEMA)
        self.declared[table] = {("hash", "i")}
        self.mutate(lambda t: t.insert_rows([
            {"i": INTS[k % 9], "f": FLOATS[k % 8], "s": STRINGS[k % 4]}
            for k in range(2 * CHUNK_ROWS + 1)
        ]))

    def mutate(self, change):
        """Apply ``change(table)`` as one statement: deltas into a shard,
        then one publish at a fresh clock value."""
        table = self.db.live_table("t")
        shard = UDIShard()
        with udi_shard_scope(shard):
            change(table)
        shard.flush()
        self.clock += 1
        table.publish_snapshot(stamp=self.clock)

    def step(self, step):
        kind, *args = step
        table = self.db.live_table("t")
        n = table.row_count
        # The first row of the last chunk: tail_* steps write from there.
        tail = (n - 1) // CHUNK_ROWS * CHUNK_ROWS if n else 0
        if kind in ("insert", "cross"):
            rows = args[0]
            if kind == "cross":
                # Fill the last chunk and put one row in the next.
                count = CHUNK_ROWS - n % CHUNK_ROWS + 1
                rows = [rows[k % len(rows)] for k in range(count)]
            self.mutate(lambda t: t.insert_rows(
                [{"i": i, "f": f, "s": s} for i, f, s in rows]
            ))
        elif kind in ("update", "tail_update", "body_update"):
            column, seed, pick = args
            rng = np.random.default_rng(seed)
            rows = np.flatnonzero(rng.random(n) < 0.4)
            if kind == "tail_update":
                rows = rows[rows >= tail]
            elif kind == "body_update":
                rows = rows[rows < tail]
            value = DOMAINS[column][pick % len(DOMAINS[column])]
            self.mutate(lambda t: t.update_rows(rows, {column: value}))
        elif kind in ("delete", "tail_delete", "body_delete"):
            rng = np.random.default_rng(args[0])
            rows = np.flatnonzero(rng.random(n) < 0.3)
            if kind == "tail_delete":
                rows = rows[rows >= tail]
            elif kind == "body_delete":
                rows = rows[rows < tail]
            self.mutate(lambda t: t.delete_rows(rows))
        elif kind == "index":
            index_kind, column = args
            table.create_index(index_kind, column)
            self.declared[table].add((index_kind, column))
        elif kind == "pin":
            back = args[0]
            try:
                snap = (
                    table.pin_current() if back == 0
                    else table.pin_as_of(self.clock - back)
                )
            except StorageError:
                return  # older than the retention window
            values = {c: snap.column_data(c).tobytes() for c in DOMAINS}
            self.pins.append((snap, table, values))
        elif kind == "release":
            if self.pins:
                self.pins.pop(args[0] % len(self.pins))[0].release()
        elif kind == "sample":
            rng = np.random.default_rng()
            rng.bit_generator.state = self.samples.rng.bit_generator.state
            generation = table.current_snapshot
            sample, hit = self.samples.get(table)
            if not hit:
                self.drawn.append((sample, table, generation, rng))
        else:
            self.db.drop_table("t")
            self.create()

    def check(self):
        live = self.db.live_table("t")
        current = live.current_snapshot
        check_reads(current)
        for column in DOMAINS:
            assert_values_live_once(live.column(column), current.column(column))
        for snap, table, values in self.pins:
            check_reads(snap)
            for column, pinned in values.items():
                col = snap.column(column)
                assert value_bytes(col) == col.size * col.tail.itemsize
                assert snap.column_data(column).tobytes() == pinned, column
            assert snap.indexes == self.declared[table]
            for kind in ("hash", "sorted"):
                for column in ("i", "f", "s"):
                    index = (
                        snap.hash_on(column) if kind == "hash"
                        else snap.sorted_on(column)
                    )
                    if (kind, column) not in self.declared[table]:
                        assert index is None
                    elif kind == "hash":
                        check_hash(snap, column, index)
                    else:
                        check_sorted(snap, column, index)


    def check_samples(self):
        for sample, table, generation, rng in self.drawn:
            rows = fixed_size_sample(generation, SAMPLE_SIZE, rng)
            for predicate in PREDICATES:
                mask, _ = sample.mask(table, predicate)
                want = predicate_mask(generation, predicate, rows)
                assert mask.tolist() == want.tolist(), predicate


def physical_keys(snap, column):
    """Every physical value the column's domain can take, plus values it
    never holds (a missing string code is -1)."""
    col = snap.column(column)
    if column == "s":
        codes = [col.lookup_value(v) for v in STRINGS + ["zz"]]
        return [-1 if c is None else c for c in codes]
    return DOMAINS[column] + ([99] if column == "i" else [0.25])


def check_reads(snap):
    """Reads that split a generation into body and last chunk agree with
    the same reads over its concatenated data."""
    n = snap.row_count
    rng = np.random.default_rng(n)
    unsorted = rng.integers(0, n, 7) if n else np.empty(0, dtype=np.int64)
    row_sets = [np.arange(n), np.sort(unsorted), unsorted, unsorted[:0]]
    for column in ("i", "f", "s"):
        col = snap.column(column)
        data = snap.column_data(column)
        for rows in row_sets:
            assert col.take(rows).tobytes() == data[rows].tobytes(), column
        keys = np.asarray(physical_keys(snap, column) * 2)
        rng.shuffle(keys)
        got = col.index("hash").probe(keys)
        want = HashIndex(data).probe(keys)
        assert [a.tolist() for a in got] == [a.tolist() for a in want], column
    for predicate in PREDICATES:
        want = values_mask(snap, predicate, snap.column_data(predicate.column))
        assert predicate_mask(snap, predicate).tolist() == want.tolist()


def check_hash(snap, column, index):
    data = snap.column_data(column)
    keys = physical_keys(snap, column)
    want_idx, want_rows = [], []
    for n, key in enumerate(keys):
        rows = np.flatnonzero(data == key).tolist()
        assert index.lookup(key).tolist() == rows, (column, key)
        want_idx += [n] * len(rows)
        want_rows += rows
    probe_idx, rows = index.probe(np.asarray(keys))
    assert (probe_idx.tolist(), rows.tolist()) == (want_idx, want_rows)


def check_sorted(snap, column, index):
    data = snap.column_data(column)
    bounds = [None] + physical_keys(snap, column)
    for lo in bounds:
        for hi in bounds:
            for lo_inc, hi_inc in ((True, True), (False, False)):
                mask = data == data  # NaN lies in no range
                if lo is not None:
                    mask &= (data >= lo) if lo_inc else (data > lo)
                if hi is not None:
                    mask &= (data <= hi) if hi_inc else (data < hi)
                got = index.range_lookup(lo, hi, lo_inc, hi_inc)
                assert got.tolist() == np.flatnonzero(mask).tolist(), (
                    column, lo, hi, lo_inc, hi_inc
                )


@settings(
    max_examples=SCHEDULES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(step_st, min_size=1, max_size=25))
def test_every_pinned_generation_sees_every_declared_index(steps):
    schedule = Schedule()
    try:
        for step in steps:
            schedule.step(step)
            schedule.check()
    finally:
        for snap, *_ in schedule.pins:
            snap.release()


@settings(
    max_examples=SCHEDULES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(sample_step_st, min_size=1, max_size=25))
def test_sample_masks_describe_the_generation_they_were_drawn_from(steps):
    schedule = Schedule()
    try:
        for step in steps:
            schedule.step(step)
        schedule.check_samples()
    finally:
        for snap, *_ in schedule.pins:
            snap.release()
