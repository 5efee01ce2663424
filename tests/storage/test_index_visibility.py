"""Generated schedules: every pinned generation's indexes agree with its
own column data, under DML, CREATE INDEX, AS OF pins and DROP + CREATE
TABLE of the same name.

After every step, every pinned generation is checked against every index
its table declares *now*: ``lookup``, ``probe`` and ``range_lookup`` must
equal a mask over that generation's ``column_data``. An index declared
after a pin therefore has to serve the pin, and a generation pinned
across DROP TABLE keeps the set its own table had.

The same schedules, with JITS sample draws mixed in, check that a
sample's masks, first evaluated after the later steps, equal a mask over
the generation the sample was drawn from at the rows it drew.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DataType, make_schema
from repro.errors import StorageError
from repro.jits import SampleCache
from repro.predicates import LocalPredicate, PredOp, predicate_mask
from repro.storage import Database, fixed_size_sample
from repro.storage.table import UDIShard, udi_shard_scope

SCHEMA = make_schema(
    "t",
    [("i", DataType.INT), ("f", DataType.FLOAT), ("s", DataType.STRING)],
    primary_key="i",
)
INTS = list(range(-4, 5))
FLOATS = [float("inf"), float("-inf"), float("nan"), 0.0, -0.0, 1.5, -2.0, 3.0]
STRINGS = ["a", "b", "c", "d"]
DOMAINS = {"i": INTS, "f": FLOATS, "s": STRINGS}

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
        self.db = Database(chunk_rows=4, snapshot_retention=4)
        self.clock = 0
        self.pins = []
        self.declared = {}
        self.samples = SampleCache(SAMPLE_SIZE, np.random.default_rng(0))
        self.drawn = []  # (sample, its table, generation, rng before draw)
        self.create()

    def create(self):
        table = self.db.create_table(SCHEMA)
        self.declared[table] = {("hash", "i")}

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
        if kind == "insert":
            self.mutate(lambda t: t.insert_rows(
                [{"i": i, "f": f, "s": s} for i, f, s in args[0]]
            ))
        elif kind == "update":
            column, seed, pick = args
            rng = np.random.default_rng(seed)
            rows = np.flatnonzero(rng.random(table.row_count) < 0.4)
            value = DOMAINS[column][pick % len(DOMAINS[column])]
            self.mutate(lambda t: t.update_rows(rows, {column: value}))
        elif kind == "delete":
            rng = np.random.default_rng(args[0])
            rows = np.flatnonzero(rng.random(table.row_count) < 0.3)
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
            self.pins.append((snap, table))
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
        for snap, table in self.pins:
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
    max_examples=60,
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
        for snap, _ in schedule.pins:
            snap.release()


@settings(
    max_examples=60,
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
        for snap, _ in schedule.pins:
            snap.release()
