"""The five workloads: what they run and why.

Every workload is a closed loop over one *round* of SQL statements per
client, generated here from the seed; the program under test receives
only the SQL text. A round is built so that

* it is **self-reverting**: every DML statement is one half of an
  apply/undo pair (``x * 2`` / ``x * 0.5``, ``+ 1`` / ``- 1`` on integers,
  INSERT of an id range / DELETE of that range), applied in the first half
  of the round and undone in reverse order in the second. Statistics drift
  for real while the round runs, and the database is back at its initial
  state when it ends, so the round can be repeated until ``--seconds`` is
  over and every repetition has the same correct answers: the oracle needs
  to run one round, not the whole measurement;
* it is **balanced**: statement shapes come in fixed numbers per round
  and are spread evenly through it;
* only what does not change its cost depends on the **seed**: which year
  an equality names, where a window or an id range lies, which rows are
  inserted. The order of the statements and every parameter that changes
  a statement's cost (a skewed make or city, a severity, a threshold) come
  from a generator the seed does not reach. JITS decides what to collect
  from what it has seen, so the engine's cost for a statement list depends
  on its order; with seeded order the metrics differed by 10-25 % from seed
  to seed, with sampled parameters by up to 50 %, and the box's own
  run-to-run noise is 3-5 %. A bound has to sit above all of that, so the
  seed is kept away from it;
* its answers are **plan-independent**: no SUM/AVG over a float column
  (their last bits depend on addition order), and every LIMIT sits behind
  an ORDER BY that ends in a unique key.

Sizes were tuned on the 2-core reference box so that one measured run of
``run_seconds`` holds at least 200 SELECTs on every workload.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

SELECT, INSERT, UPDATE, DELETE = "select", "insert", "update", "delete"
# A SELECT that reads back what a writer stream wrote. It is executed and
# verified like any other, but kept out of the SELECT latency metrics: on
# rw_concurrent those describe the reader beside the writer.
CHECK = "check"
WRITE_KINDS = (INSERT, UPDATE, DELETE)

# Ids of rows the benchmark inserts start here, far above any generated id.
PRIVATE_ID_BASE = 5_000_000


@dataclass(frozen=True)
class Statement:
    sql: str
    kind: str
    # Digest rows in order: only for an ORDER BY whose last key is unique.
    ordered: bool = False
    # Template name; on compile_bound the predicate-count stratum.
    tag: str = ""


@dataclass
class Workload:
    # Run once per set-up, unverified and outside the measurement; leaves
    # the data as it found it.
    warmup: List[str]
    # One round per client connection or session.
    streams: List[List[Statement]]


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    scale: float
    smoke_scale: float
    generate: Callable[[dict, np.random.Generator, np.random.Generator, bool], Workload]
    indexes: bool = True
    wire: bool = False
    scan_workers: int = 0
    plan_cache: bool = False


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class Deck:
    """Deals a domain's values in shuffled order, all of them before any
    repeats: complete coverage of a skewed parameter in every round."""

    def __init__(self, rng: np.random.Generator, values: Sequence):
        self._rng = rng
        self._values = list(values)
        self._hand: list = []

    def deal(self):
        if not self._hand:
            order = self._rng.permutation(len(self._values))
            self._hand = [self._values[i] for i in order]
        return self._hand.pop()


Pair = Tuple[Statement, Statement]


def weave(selects: List[Statement], pairs: List[Pair]) -> List[Statement]:
    """One round: the SELECTs in order, the applies spread evenly through
    the first half and their undos, last applied first, through the second."""
    dml = [apply for apply, _ in pairs] + [undo for _, undo in reversed(pairs)]
    round_: List[Statement] = []
    step = len(selects) / len(dml)
    done = 0
    for i, statement in enumerate(dml):
        upto = round((i + 0.5) * step)
        round_.extend(selects[done:upto])
        round_.append(statement)
        done = upto
    round_.extend(selects[done:])
    return round_


def blocks(
    rng: np.random.Generator,
    n_blocks: int,
    templates: Sequence[Tuple[int, Callable[[], Statement]]],
) -> List[Statement]:
    """``n_blocks`` blocks, each holding every template ``weight`` times in
    shuffled order, so any stretch of the round has the same mix."""
    out: List[Statement] = []
    for _ in range(n_blocks):
        block = [make() for weight, make in templates for _ in range(weight)]
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out


def _update(table: str, set_apply: str, set_undo: str, where: str) -> Pair:
    return (
        Statement(f"UPDATE {table} SET {set_apply} WHERE {where}", UPDATE),
        Statement(f"UPDATE {table} SET {set_undo} WHERE {where}", UPDATE),
    )


class _Inserts:
    """INSERT batches into private id ranges, each with its DELETE."""

    def __init__(self, rng: np.random.Generator, profile: dict):
        self._rng = rng
        self._profile = profile
        self._next = {"accidents": PRIVATE_ID_BASE, "car": PRIVATE_ID_BASE}
        self.last_ids = range(0)  # ids of the most recent batch

    def _ids(self, table: str, n: int) -> range:
        start = self._next[table]
        self._next[table] = start + n
        self.last_ids = range(start, start + n)
        return self.last_ids

    def accidents(self, n: int, year: int = 0) -> Pair:
        """A skewed batch: severe and expensive (or all of one ``year``)."""
        rng, profile = self._rng, self._profile
        low, high = profile["year_range"]
        ids = self._ids("accidents", n)
        rows = ", ".join(
            f"({rid}, {int(rng.integers(0, profile['sizes']['car']))}, "
            f"'driver_{rid % 997}', {round(float(rng.uniform(8_000, 50_000)), 2)}, "
            f"{year or int(rng.integers(low, high + 1))}, {int(rng.integers(3, 6))})"
            for rid in ids
        )
        return (
            Statement(
                "INSERT INTO accidents (id, carid, driver, damage, year, "
                f"severity) VALUES {rows}",
                INSERT,
            ),
            Statement(
                f"DELETE FROM accidents WHERE id BETWEEN {ids[0]} AND {ids[-1]}",
                DELETE,
            ),
        )

    def cars(self, n: int) -> Pair:
        """A fleet purchase: one hot (make, model) pair floods in."""
        rng, profile = self._rng, self._profile
        make = profile["makes"][int(rng.integers(0, 3))]
        model = profile["models_by_make"][make][0]
        high = profile["year_range"][1]
        ids = self._ids("car", n)
        rows = ", ".join(
            f"({rid}, {int(rng.integers(0, profile['sizes']['owner']))}, "
            f"'{make}', '{model}', {int(rng.integers(high - 2, high + 1))}, "
            f"{round(float(rng.uniform(18_000, 45_000)), 2)}, 'white')"
            for rid in ids
        )
        return (
            Statement(
                "INSERT INTO car (id, ownerid, make, model, year, price, "
                f"color) VALUES {rows}",
                INSERT,
            ),
            Statement(
                f"DELETE FROM car WHERE id BETWEEN {ids[0]} AND {ids[-1]}", DELETE
            ),
        )


class _Params:
    """Parameter sources shared by the generators: ``fixed`` for whatever
    changes a statement's cost, ``seeded`` for what does not."""

    def __init__(self, fixed: np.random.Generator, seeded: np.random.Generator,
                 profile: dict):
        self.fixed = fixed
        self.seeded = seeded
        self.profile = profile
        self.makes = Deck(fixed, profile["makes"])
        self.cities = Deck(fixed, profile["cities"])
        self.severities = Deck(fixed, [1, 2, 3, 4, 5])
        # 3 in 20 make/model (city/country) pairs contradict the data's
        # correlation and select nothing: the other way independence fails.
        self._consistent = Deck(fixed, [True] * 17 + [False] * 3)

    def pick(self, values: Sequence):
        return values[int(self.fixed.integers(0, len(values)))]

    def year_floor(self, highest: int) -> int:
        """For ``year > y``: the selectivity depends on it."""
        return int(self.fixed.integers(self.profile["year_range"][0], highest + 1))

    def any_year(self) -> int:
        """For ``year = y``: years are uniform, any one costs the same."""
        low, high = self.profile["year_range"]
        return int(self.seeded.integers(low, high + 1))

    def make_model(self, consistent_only: bool = False) -> Tuple[str, str]:
        make = self.makes.deal()
        source = make
        if not consistent_only and not self._consistent.deal():
            source = self.pick([m for m in self.profile["makes"] if m != make])
        return make, self.pick(self.profile["models_by_make"][source])

    def city_country(self) -> Tuple[str, str]:
        city = self.cities.deal()
        country = self.profile["country_of_city"][city]
        if not self._consistent.deal():
            country = "US" if country == "CA" else "CA"
        return city, country


# ----------------------------------------------------------------------
# dss_mix
# ----------------------------------------------------------------------
def _dss_mix(profile: dict, fixed, seeded, smoke: bool) -> Workload:
    p = _Params(fixed, seeded, profile)

    def single_car() -> Statement:
        make, model = p.make_model()
        return Statement(
            f"SELECT id, price FROM car WHERE make = '{make}' "
            f"AND model = '{model}' AND year > {p.year_floor(2005)}",
            SELECT, tag="car",
        )

    def car_owner() -> Statement:
        make, model = p.make_model()
        floor = p.pick([2_000, 5_000, 10_000, 20_000])
        return Statement(
            "SELECT o.name, c.price FROM car c, owner o "
            f"WHERE c.ownerid = o.id AND c.make = '{make}' "
            f"AND c.model = '{model}' AND c.price > {floor}",
            SELECT, tag="car_owner",
        )

    def four_way() -> Statement:
        # The paper's Section 4.1 query: a 4-table join with correlated
        # predicate pairs on two of the tables.
        make, model = p.make_model()
        city, country = p.city_country()
        floor = p.pick([5_000, 20_000, 40_000, 60_000])
        return Statement(
            "SELECT o.name, a.driver, a.damage "
            "FROM car c, accidents a, demographics d, owner o "
            "WHERE d.ownerid = o.id AND a.carid = c.id AND c.ownerid = o.id "
            f"AND c.make = '{make}' AND c.model = '{model}' "
            f"AND d.city = '{city}' AND d.country = '{country}' "
            f"AND d.salary > {floor}",
            SELECT, tag="four_way",
        )

    def city_rollup() -> Statement:
        _, country = p.city_country()
        floor = p.pick([5_000, 20_000, 40_000, 60_000])
        return Statement(
            "SELECT d.city, COUNT(*) AS n, MAX(d.salary) AS top "
            f"FROM demographics d WHERE d.country = '{country}' "
            f"AND d.salary > {floor} GROUP BY d.city ORDER BY d.city",
            SELECT, ordered=True, tag="city_rollup",
        )

    def accident_range() -> Statement:
        low = p.pick([500, 1_000, 5_000, 10_000])
        return Statement(
            "SELECT a.id, a.damage FROM accidents a "
            f"WHERE a.severity = {p.severities.deal()} "
            f"AND a.damage BETWEEN {low} AND {low * p.pick([2, 4, 8])}",
            SELECT, tag="accident_range",
        )

    def make_rollup() -> Statement:
        return Statement(
            "SELECT c.make, COUNT(*) AS n FROM car c, accidents a "
            f"WHERE a.carid = c.id AND a.severity >= {p.severities.deal()} "
            f"AND a.damage > {p.pick([500, 1_000, 5_000, 10_000])} "
            "GROUP BY c.make ORDER BY n DESC, c.make LIMIT 5",
            SELECT, ordered=True, tag="make_rollup",
        )

    def top_damage() -> Statement:
        make, model = p.make_model()
        return Statement(
            "SELECT o.name, a.id, a.damage FROM car c, accidents a, owner o "
            "WHERE a.carid = c.id AND c.ownerid = o.id "
            f"AND c.make = '{make}' AND c.model = '{model}' "
            f"AND a.severity >= {p.severities.deal()} "
            "ORDER BY a.damage DESC, a.id LIMIT 10",
            SELECT, ordered=True, tag="top_damage",
        )

    def city_make() -> Statement:
        city, country = p.city_country()
        return Statement(
            "SELECT d.city, c.make, COUNT(*) AS n "
            "FROM car c, owner o, demographics d "
            "WHERE c.ownerid = o.id AND d.ownerid = o.id "
            f"AND d.city = '{city}' AND d.country = '{country}' "
            f"AND c.make = '{p.makes.deal()}' GROUP BY d.city, c.make",
            SELECT, tag="city_make",
        )

    def derived() -> Statement:
        return Statement(
            "SELECT v.make, v.n FROM "
            "(SELECT make AS make, COUNT(*) AS n FROM car GROUP BY make) AS v "
            f"WHERE v.n > {p.pick([50, 100, 200])} ORDER BY v.n DESC",
            SELECT, tag="derived",
        )

    # The shapes and roughly the weights of repro.workload.queries (the
    # paper's DSS-heavy mix). The join-and-group shape, a quarter of a second
    # a time, is at weight 1 so that a run holds 200 SELECTs; the derived
    # table is at 2 so that p95 falls inside its band and not between two.
    templates = [
        (1, single_car), (2, car_owner), (4, four_way), (1, city_rollup),
        (1, accident_range), (1, make_rollup), (3, top_damage),
        (3, city_make), (2, derived),
    ]
    n_blocks = 1 if smoke else 4
    selects = blocks(fixed, n_blocks, templates)
    inserts = _Inserts(seeded, profile)
    pairs: List[Pair] = []
    for block in range(n_blocks):
        # Directional churn, as in Section 4.2: prices and salaries inflate,
        # accidents get worse, skewed batches of new rows arrive. Four
        # UPDATE pairs to one INSERT/DELETE pair, so that the median write is
        # an UPDATE and not the edge between two kinds.
        def inflate_prices() -> Pair:
            return _update("car", "price = price * 2", "price = price * 0.5",
                           f"make = '{p.makes.deal()}'")

        pairs.append(inflate_prices())
        pairs.append(_update("demographics", "salary = salary * 2",
                             "salary = salary * 0.5", f"city = '{p.cities.deal()}'"))
        pairs.append(inserts.cars(60) if block % 2 else inserts.accidents(100))
        pairs.append(_update("accidents", "severity = severity + 1",
                             "severity = severity - 1", f"year = {p.any_year()}"))
        pairs.append(inflate_prices())
    pairs = pairs[: max(1, len(selects) // 8)]  # 2 DML per 8 SELECTs: 20 %
    return Workload(
        warmup=[s.sql for s in selects[:18]] + _touch("car", "accidents",
                                                        "demographics"),
        streams=[weave(selects, pairs)],
    )


def _touch(*tables: str) -> List[str]:
    """Warm-up writes: first publish, index maintenance and UDI paths of
    every table the workload writes, leaving the data unchanged."""
    column = {"car": "year", "accidents": "severity", "demographics": "ownerid"}
    return [
        f"UPDATE {table} SET {column[table]} = {column[table]} {step} WHERE id = 0"
        for table in tables
        for step in ("+ 1", "- 1")
    ]


# ----------------------------------------------------------------------
# compile_bound
# ----------------------------------------------------------------------
def _compile_bound(profile: dict, fixed, seeded, smoke: bool) -> Workload:
    p = _Params(fixed, seeded, profile)
    colors = Deck(fixed, ["white", "black", "silver", "blue", "red", "green"])

    def extra_predicates() -> List[str]:
        return [
            f"c.year > {p.year_floor(2003)}",
            f"c.price > {p.pick([2_000, 5_000, 10_000])}",
            f"c.color = '{colors.deal()}'",
            f"o.age > {p.pick([20, 30, 40])}",
            f"o.gender = '{p.pick(['F', 'M'])}'",
            f"a.severity >= {p.pick([1, 2, 3])}",
            f"a.damage > {p.pick([200, 500, 1_000, 2_000])}",
            f"a.year > {p.year_floor(2003)}",
        ]

    def join_with(n_predicates: int) -> Callable[[], Statement]:
        def make() -> Statement:
            # Always the correlated (make, model) pair, then a choice
            # of the others: n local predicates over three tables.
            make_, model = p.make_model(consistent_only=True)
            extras = extra_predicates()
            chosen = sorted(fixed.permutation(len(extras))[: n_predicates - 2])
            where = [f"c.make = '{make_}'", f"c.model = '{model}'"]
            where += [extras[i] for i in chosen]
            return Statement(
                "SELECT a.id, c.price, o.age FROM accidents a, car c, owner o "
                "WHERE a.carid = c.id AND c.ownerid = o.id AND "
                + " AND ".join(where) + " ORDER BY a.id LIMIT 20",
                SELECT, ordered=True, tag=f"p{n_predicates}",
            )
        return make

    n_blocks = 3 if smoke else 30
    # Per block: 3 new statements of each stratum, then one repeat of each,
    # drawn from the block itself: a quarter of the SELECTs are exact repeats
    # a short distance after the original, which is what a plan cache sees.
    selects: List[Statement] = []
    for _ in range(n_blocks):
        fresh = blocks(fixed, 1, [(3, join_with(n)) for n in (2, 4, 6, 8)])
        repeats = [
            p.pick([s for s in fresh if s.tag == f"p{n}"]) for n in (2, 4, 6, 8)
        ]
        selects.extend(fresh + [repeats[i] for i in fixed.permutation(4)])
    # One small UPDATE per nine SELECTs keeps UDI counters (the s2 score)
    # moving on the two largest tables. Where its window lies is not left to
    # the seed: it decides which feedback JITS sees, that flips collection
    # decisions, and p95 then sat at 5.3 ms for some seeds and 8.3 ms for
    # others. Nothing in this workload depends on the seed.
    pairs: List[Pair] = []
    for i in range(len(selects) // 18):
        table, column = ("car", "year") if i % 2 else ("accidents", "severity")
        size = profile["sizes"][table]
        width = max(1, size // 40)  # 2.5 % of the table's rows
        low = int(fixed.integers(0, size - width))
        pairs.append(_update(table, f"{column} = {column} + 1",
                             f"{column} = {column} - 1",
                             f"id BETWEEN {low} AND {low + width - 1}"))
    return Workload(
        warmup=[s.sql for s in selects[:32]] + _touch("car", "accidents"),
        streams=[weave(selects, pairs)],
    )


# ----------------------------------------------------------------------
# parallel_scan
# ----------------------------------------------------------------------
def _parallel_scan(profile: dict, fixed, seeded, smoke: bool) -> Workload:
    p = _Params(fixed, seeded, profile)

    def filter_aggregate() -> Statement:
        return Statement(
            "SELECT MIN(damage), MAX(damage), COUNT(*) FROM accidents "
            f"WHERE year = {p.any_year()} AND severity >= {p.pick([1, 2, 3])}",
            SELECT, tag="filter_aggregate",
        )

    def car_filter_aggregate() -> Statement:
        return Statement(
            "SELECT MIN(price), MAX(price), COUNT(*) FROM car "
            f"WHERE year = {p.any_year()} AND price > {p.pick([2_000, 5_000, 10_000])}",
            SELECT, tag="car_filter_aggregate",
        )

    def group_accidents() -> Statement:
        return Statement(
            "SELECT severity, COUNT(*), MAX(year) FROM accidents "
            f"WHERE damage > {p.pick([1_000, 2_000, 3_000, 4_000])} "
            "GROUP BY severity",
            SELECT, tag="group_accidents",
        )

    def group_car() -> Statement:
        return Statement(
            "SELECT make, COUNT(*), AVG(year) FROM car "
            f"WHERE price > {p.pick([5_000, 8_000, 10_000, 12_000])} GROUP BY make",
            SELECT, tag="group_car",
        )

    def join_rollup() -> Statement:
        return Statement(
            "SELECT c.make, COUNT(*) FROM accidents a, car c "
            f"WHERE a.carid = c.id AND a.severity >= {p.pick([4, 5])} "
            f"AND a.year = {p.any_year()} GROUP BY c.make",
            SELECT, tag="join_rollup",
        )

    def sort_years() -> Statement:
        make, model = p.make_model(consistent_only=True)
        return Statement(
            f"SELECT year FROM car WHERE make = '{make}' AND model = '{model}' "
            "ORDER BY year DESC",
            SELECT, tag="sort_years",
        )

    def distinct_colors() -> Statement:
        return Statement(
            f"SELECT DISTINCT color FROM car WHERE year > {p.year_floor(2004)}",
            SELECT, tag="distinct_colors",
        )

    templates = [
        (5, filter_aggregate), (4, car_filter_aggregate), (2, group_accidents),
        (2, group_car), (2, join_rollup), (2, sort_years), (1, distinct_colors),
    ]
    selects = blocks(fixed, 1 if smoke else 3, templates)
    # 10 % DML. WHERE clauses without an id: their targeting scans, and
    # shards, the whole table, and each publish invalidates the shm export.
    # Two UPDATE pairs to one INSERT/DELETE pair, so that the median write
    # is an UPDATE and not the edge between two kinds.
    pairs = [
        _update("accidents", "severity = severity + 1", "severity = severity - 1",
                f"year = {p.any_year()} AND damage > {p.pick([20_000, 30_000])}")
        for _ in range(2)
    ]
    marker = 1900  # a year no generated row has
    insert, _ = _Inserts(seeded, profile).accidents(50, year=marker)
    pairs.insert(1, (insert, Statement(
        f"DELETE FROM accidents WHERE year = {marker}", DELETE)))
    return Workload(
        warmup=[s.sql for s in selects[:18]] + _touch("accidents"),
        streams=[weave(selects, pairs)],
    )


# ----------------------------------------------------------------------
# wire_fetch
# ----------------------------------------------------------------------
def _wire_fetch(profile: dict, fixed, seeded, smoke: bool) -> Workload:
    low, high = profile["year_range"]

    # Result sizes are set by the width of a window over a uniform column
    # (year), so they do not depend on where the seed puts the window.
    def windowed(select: str, width: int, tag: str, also: str = "") -> Callable[[], Statement]:
        def make() -> Statement:
            first = int(seeded.integers(low, high - width + 2))
            return Statement(
                f"{select} WHERE year BETWEEN {first} AND {first + width - 1}{also}",
                SELECT, tag=tag,
            )
        return make

    accidents = "SELECT id, carid, damage, driver FROM accidents"
    cars = "SELECT id, make, model, price FROM car"

    def owners() -> Statement:
        first = int(fixed.integers(30, 50))
        return Statement(
            f"SELECT id, name, age FROM owner WHERE age BETWEEN {first} AND {first + 5}",
            SELECT, tag="owners",
        )

    # Weights put the median inside one shape's band (accidents_small) and
    # p95 inside another's (accidents_large), not on the edge between two.
    templates = [
        (4, windowed(accidents, 2, "accidents_small", " AND severity = 3")),
        (3, windowed(cars, 2, "cars_small")),
        (1, owners),
        (1, windowed(accidents, 7, "accidents_large", " AND severity = 3")),
        (1, windowed(cars, 6, "cars_large")),
    ]
    n_blocks = 1 if smoke else 4
    selects = blocks(fixed, n_blocks, templates)
    # Single-row writes: the cost of a round trip that carries no rows.
    pairs = [
        _update("car", "year = year + 1", "year = year - 1",
                f"id = {int(seeded.integers(0, profile['sizes']['car']))}")
        for _ in range(max(1, len(selects) // 8))
    ]
    return Workload(
        warmup=[s.sql for s in selects[:10]] + _touch("car"),
        streams=[weave(selects, pairs)],
    )


# ----------------------------------------------------------------------
# rw_concurrent
# ----------------------------------------------------------------------
def _rw_concurrent(profile: dict, fixed, seeded, smoke: bool) -> Workload:
    p = _Params(fixed, seeded, profile)
    # Readers see only generated accidents; the writer owns ids above them.
    generated = f"id < {profile['sizes']['accidents']}"

    def accident_count() -> Statement:
        return Statement(
            "SELECT COUNT(*), MAX(damage) FROM accidents "
            f"WHERE severity = {p.severities.deal()} AND year = {p.any_year()} "
            f"AND {generated}",
            SELECT, tag="accident_count",
        )

    def make_by_age() -> Statement:
        return Statement(
            "SELECT c.make, COUNT(*) FROM car c, owner o "
            f"WHERE c.ownerid = o.id AND o.age > {p.pick([30, 40, 50])} "
            f"AND c.year = {p.any_year()} GROUP BY c.make",
            SELECT, tag="make_by_age",
        )

    def city_owners() -> Statement:
        return Statement(
            "SELECT COUNT(*) FROM demographics d, owner o "
            f"WHERE d.ownerid = o.id AND d.city = '{p.cities.deal()}' "
            f"AND o.age > {p.pick([30, 40, 50])}",
            SELECT, tag="city_owners",
        )

    def severity_by_model() -> Statement:
        make, model = p.make_model(consistent_only=True)
        return Statement(
            "SELECT a.severity, COUNT(*) FROM accidents a, car c "
            f"WHERE a.carid = c.id AND c.make = '{make}' AND c.model = '{model}' "
            f"AND a.{generated} GROUP BY a.severity",
            SELECT, tag="severity_by_model",
        )

    reader = blocks(
        fixed, 1 if smoke else 4,
        [(4, accident_count), (2, make_by_age), (2, city_owners),
         (2, severity_by_model)],
    )

    # The writer: groups of multi-row INSERT, range UPDATEs, a read-back and
    # the DELETE of what the group inserted, all inside its private id range,
    # as repro.workload.mixed_client_streams does.
    inserts = _Inserts(seeded, profile)
    writer: List[Statement] = []
    for _ in range(4 if smoke else 24):
        insert, delete = inserts.accidents(20)
        ids = inserts.last_ids
        mine = f"id BETWEEN {ids[0]} AND {ids[-1]}"
        half = f"id BETWEEN {ids[0]} AND {ids[9]}"
        writer += [
            insert,
            Statement(f"UPDATE accidents SET severity = severity + 1 WHERE {mine}",
                      UPDATE),
            Statement(f"UPDATE accidents SET damage = damage * 2 WHERE {half}",
                      UPDATE),
            Statement(f"SELECT COUNT(*), MAX(damage), MIN(severity) FROM accidents "
                      f"WHERE {mine}", CHECK, tag="read_back"),
            Statement(f"UPDATE accidents SET year = year + 1 WHERE {half}", UPDATE),
            delete,
        ]
    return Workload(
        warmup=[s.sql for s in reader[:10]] + _touch("accidents"),
        streams=[reader, writer],
    )


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "dss_mix",
            "the paper's 4.2 mix, 80% correlated DSS SELECTs and 20% directional "
            "DML, embedded with JITS on: does JITS pay for itself when the "
            "in-process executor does most of the work",
            scale=0.1, smoke_scale=0.004, generate=_dss_mix,
        ),
        Spec(
            "compile_bound",
            "3-table joins with 2/4/6/8 local predicates on a small database: "
            "parse, JITS and optimizer are most of the latency (paper Table 3), "
            "the executor little; a quarter exact repeats for the plan cache",
            scale=0.01, smoke_scale=0.004, generate=_compile_bound, plan_cache=True,
        ),
        Spec(
            "parallel_scan",
            "index-free scans, group-bys, a partitioned join, sort and distinct "
            "with scan_workers=2, plus DML whose publish forces a re-export: the "
            "worker pool and shm export do the work, compile almost none",
            scale=0.15, smoke_scale=0.02, generate=_parallel_scan, indexes=False,
            scan_workers=2,
        ),
        Spec(
            "wire_fetch",
            "one v2 connection to a server in another process fetching 10k-90k "
            "row results of int, float and string columns: frame encode, socket "
            "and client decode are the latency, the engine milliseconds",
            scale=0.1, smoke_scale=0.02, generate=_wire_fetch, wire=True,
        ),
        Spec(
            "rw_concurrent",
            "a writer connection (INSERT, range UPDATE, DELETE) beside a reader "
            "on the same table: locks, snapshot publish and pin, and UDI-driven "
            "JITS re-collection are on the blocking path",
            scale=0.1, smoke_scale=0.004, generate=_rw_concurrent, wire=True,
        ),
    )
}


def generate(spec: Spec, profile: dict, seed: int, smoke: bool) -> Workload:
    """The workload's statements for ``seed`` (the same seed, the same SQL)."""
    name = zlib.crc32(spec.name.encode())
    return spec.generate(
        profile, np.random.default_rng(name), np.random.default_rng([seed, name]), smoke
    )
