"""Statement fingerprints: literal-free normal forms plus a registry.

A *fingerprint* is a stable key for "the same statement up to its
constants": every :class:`~repro.sql.ast.Literal` is replaced with a
``?`` placeholder and IN-lists collapse to a single ``(?)`` marker, so
``WHERE tenant_id = 7`` and ``WHERE tenant_id = 2048`` — or an IN-list
of 3 values and one of 300 — aggregate under one key. The normal form
is rendered from the parsed AST (never from the raw SQL text), so
whitespace, literal spelling and keyword case differences all collapse
too.

The :class:`FingerprintRegistry` aggregates per-fingerprint execution
counters under one lock: exec count, rows in/out, p50/p95 latency via a
streaming P² quantile sketch (fixed memory, no sample buffers), lock
wait, statistics staleness observed at compile time, plan-cache/reopt
hits. It is bounded: beyond ``capacity`` fingerprints, the coldest
entries (fewest executions) are evicted and counted.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Tuple

from ..sql import ast

#: Fingerprints the engine's registry keeps before evicting the coldest.
FINGERPRINT_CAPACITY = 512

#: Sort keys accepted by :meth:`FingerprintRegistry.top`.
SORT_KEYS = (
    "executions",
    "total_ms",
    "p50_ms",
    "p95_ms",
    "rows_out",
    "rows_in",
    "lock_wait_ms",
    "staleness",
    "errors",
)


# ----------------------------------------------------------------------
# AST normalization
# ----------------------------------------------------------------------
def _expr(node: Optional[ast.Expr]) -> str:
    if node is None:
        return "*"
    if isinstance(node, ast.Literal):
        return "?"
    if isinstance(node, ast.ColumnRef):
        if node.qualifier:
            return f"{node.qualifier.lower()}.{node.name.lower()}"
        return node.name.lower()
    if isinstance(node, ast.BinaryArith):
        return f"({_expr(node.left)} {node.op} {_expr(node.right)})"
    if isinstance(node, ast.UnaryArith):
        return f"({node.op}{_expr(node.operand)})"
    if isinstance(node, ast.Aggregate):
        prefix = "DISTINCT " if node.distinct else ""
        return f"{node.func.value.upper()}({prefix}{_expr(node.argument)})"
    return type(node).__name__


def _bool(node: Optional[ast.BoolExpr]) -> str:
    if node is None:
        return ""
    if isinstance(node, ast.Comparison):
        return f"{_expr(node.left)} {node.op.value} {_expr(node.right)}"
    if isinstance(node, ast.BetweenExpr):
        word = "NOT BETWEEN" if node.negated else "BETWEEN"
        return f"{_expr(node.operand)} {word} ? AND ?"
    if isinstance(node, ast.InListExpr):
        # The whole point: IN-lists of any length are one shape.
        word = "NOT IN" if node.negated else "IN"
        return f"{_expr(node.operand)} {word} (?)"
    if isinstance(node, ast.AndExpr):
        return " AND ".join(f"({_bool(o)})" for o in node.operands)
    if isinstance(node, ast.OrExpr):
        return " OR ".join(f"({_bool(o)})" for o in node.operands)
    if isinstance(node, ast.NotExpr):
        return f"NOT ({_bool(node.operand)})"
    return type(node).__name__


def _from_item(item: ast.FromItem) -> str:
    if isinstance(item, ast.TableRef):
        name = item.name.lower()
        if item.alias and item.alias.lower() != name:
            return f"{name} {item.alias.lower()}"
        return name
    if isinstance(item, ast.DerivedTable):
        return f"({_select(item.select)}) {item.alias.lower()}"
    return type(item).__name__


def _select(node: ast.SelectStatement) -> str:
    parts: List[str] = ["SELECT"]
    if node.distinct:
        parts.append("DISTINCT")
    if node.star:
        parts.append("*")
    else:
        parts.append(
            ", ".join(
                _expr(item.expr)
                + (f" AS {item.alias.lower()}" if item.alias else "")
                for item in node.items
            )
        )
    parts.append("FROM " + ", ".join(_from_item(i) for i in node.from_items))
    if node.where is not None:
        parts.append("WHERE " + _bool(node.where))
    if node.group_by:
        parts.append("GROUP BY " + ", ".join(_expr(e) for e in node.group_by))
    if node.having is not None:
        parts.append("HAVING " + _bool(node.having))
    if node.order_by:
        parts.append(
            "ORDER BY "
            + ", ".join(
                _expr(o.expr) + (" DESC" if o.descending else "")
                for o in node.order_by
            )
        )
    if node.limit is not None:
        parts.append("LIMIT ?")
    return " ".join(parts)


def normalize_statement(statement: ast.Statement) -> str:
    """The literal-free normal form of one parsed statement."""
    if isinstance(statement, ast.SelectStatement):
        return _select(statement)
    if isinstance(statement, ast.InsertStatement):
        columns = (
            " (" + ", ".join(c.lower() for c in statement.columns) + ")"
            if statement.columns is not None
            else ""
        )
        # Multi-row inserts collapse to one shape regardless of row count.
        return f"INSERT INTO {statement.table.lower()}{columns} VALUES (?)"
    if isinstance(statement, ast.UpdateStatement):
        sets = ", ".join(
            f"{column.lower()} = {_expr(expr)}"
            for column, expr in statement.assignments
        )
        where = (
            f" WHERE {_bool(statement.where)}"
            if statement.where is not None
            else ""
        )
        return f"UPDATE {statement.table.lower()} SET {sets}{where}"
    if isinstance(statement, ast.DeleteStatement):
        where = (
            f" WHERE {_bool(statement.where)}"
            if statement.where is not None
            else ""
        )
        return f"DELETE FROM {statement.table.lower()}{where}"
    if isinstance(statement, ast.CreateTableStatement):
        return f"CREATE TABLE {statement.table.lower()}"
    if isinstance(statement, ast.DropTableStatement):
        return f"DROP TABLE {statement.table.lower()}"
    if isinstance(statement, ast.CreateIndexStatement):
        return (
            f"CREATE {statement.kind.upper()} INDEX ON "
            f"{statement.table.lower()} ({statement.column.lower()})"
        )
    return type(statement).__name__


def fingerprint_statement(statement: ast.Statement) -> Tuple[str, str]:
    """``(key, normal_form)`` for one parsed statement.

    The key is a short stable digest of the normal form — the identifier
    used on the wire and in the registry.
    """
    text = normalize_statement(statement)
    key = hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()
    return key, text


# ----------------------------------------------------------------------
# Streaming quantiles (P² algorithm, Jain & Chlamtac 1985)
# ----------------------------------------------------------------------
class P2Quantile:
    """One streaming quantile estimate in O(1) memory.

    Five markers track the running min/max, the target quantile and its
    two flanking quantiles; marker heights move by parabolic (falling
    back to linear) interpolation as observations arrive. Exact below 5
    observations, an estimate afterwards — the shape the fingerprint
    registry needs (thousands of fingerprints, fixed memory each).
    """

    __slots__ = ("q", "count", "_heights", "_pos", "_desired", "_incr")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._heights: List[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._incr = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def add(self, x: float) -> None:
        x = float(x)
        self.count += 1
        h = self._heights
        if self.count <= 5:
            h.append(x)
            if self.count == 5:
                h.sort()
            return
        pos = self._pos
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 3
            for i in range(1, 5):
                if x < h[i]:
                    k = i - 1
                    break
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._incr[i]
        for i in (1, 2, 3):
            diff = self._desired[i] - pos[i]
            if (diff >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                diff <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                d = 1.0 if diff >= 0.0 else -1.0
                candidate = self._parabolic(i, d)
                if not h[i - 1] < candidate < h[i + 1]:
                    candidate = self._linear(i, d)
                h[i] = candidate
                pos[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        h, pos = self._heights, self._pos
        return h[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d)
            * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d)
            * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, pos = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (pos[j] - pos[i])

    def value(self) -> float:
        """The current quantile estimate (0.0 before any observation)."""
        if self.count == 0:
            return 0.0
        if self.count <= 5:
            ordered = sorted(self._heights)
            rank = self.q * (len(ordered) - 1)
            return ordered[int(round(rank))]
        return self._heights[2]


# ----------------------------------------------------------------------
# Per-fingerprint aggregates
# ----------------------------------------------------------------------
class StatementStats:
    """Aggregated execution counters for one fingerprint."""

    __slots__ = (
        "key",
        "text",
        "statement_type",
        "executions",
        "errors",
        "rows_out",
        "rows_in",
        "latency_total",
        "latency_p50",
        "latency_p95",
        "lock_wait_total",
        "staleness_last",
        "staleness_max",
        "plan_cache_hits",
        "reopt_switches",
        "collections",
    )

    def __init__(self, key: str, text: str, statement_type: str):
        self.key = key
        self.text = text
        self.statement_type = statement_type
        self.executions = 0
        self.errors = 0
        self.rows_out = 0
        self.rows_in = 0
        self.latency_total = 0.0
        self.latency_p50 = P2Quantile(0.50)
        self.latency_p95 = P2Quantile(0.95)
        self.lock_wait_total = 0.0
        self.staleness_last = 0.0
        self.staleness_max = 0.0
        self.plan_cache_hits = 0
        self.reopt_switches = 0
        self.collections = 0

    def snapshot(self, text_limit: int = 512) -> Dict[str, object]:
        """A JSON-serializable view (the wire/REPL row)."""
        text = self.text
        if len(text) > text_limit:
            text = text[: text_limit - 3] + "..."
        return {
            "key": self.key,
            "statement": text,
            "type": self.statement_type,
            "executions": self.executions,
            "errors": self.errors,
            "rows_out": self.rows_out,
            "rows_in": self.rows_in,
            "total_ms": round(self.latency_total * 1000.0, 3),
            "p50_ms": round(self.latency_p50.value() * 1000.0, 3),
            "p95_ms": round(self.latency_p95.value() * 1000.0, 3),
            "lock_wait_ms": round(self.lock_wait_total * 1000.0, 3),
            "staleness": round(self.staleness_last, 4),
            "staleness_max": round(self.staleness_max, 4),
            "plan_cache_hits": self.plan_cache_hits,
            "reopt_switches": self.reopt_switches,
            "collections": self.collections,
        }


def _sort_value(snapshot: Dict[str, object], sort_by: str):
    return snapshot.get(sort_by, 0)


class FingerprintRegistry:
    """Thread-safe, bounded map of fingerprint key -> aggregates."""

    def __init__(self, capacity: int = FINGERPRINT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._stats: Dict[str, StatementStats] = {}
        self.recorded = 0
        self.evicted = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._stats)

    def record(
        self,
        key: str,
        text: str,
        statement_type: str,
        latency: float,
        lock_wait: float = 0.0,
        rows_out: int = 0,
        rows_in: int = 0,
        staleness: Optional[float] = None,
        plan_cache_hit: bool = False,
        reopt_switches: int = 0,
        collections: int = 0,
        error: bool = False,
    ) -> None:
        with self._lock:
            stats = self._stats.get(key)
            if stats is None:
                if len(self._stats) >= self.capacity:
                    self._evict_locked()
                stats = StatementStats(key, text, statement_type)
                self._stats[key] = stats
            self.recorded += 1
            stats.executions += 1
            stats.latency_total += latency
            stats.latency_p50.add(latency)
            stats.latency_p95.add(latency)
            stats.lock_wait_total += lock_wait
            if error:
                stats.errors += 1
                return
            stats.rows_out += int(rows_out)
            stats.rows_in += int(rows_in)
            if staleness is not None:
                stats.staleness_last = float(staleness)
                stats.staleness_max = max(
                    stats.staleness_max, float(staleness)
                )
            if plan_cache_hit:
                stats.plan_cache_hits += 1
            stats.reopt_switches += int(reopt_switches)
            stats.collections += int(collections)

    def _evict_locked(self) -> None:
        """Drop the coldest ~1/8 of entries (fewest executions)."""
        victims = sorted(
            self._stats.values(), key=lambda s: (s.executions, s.key)
        )[: max(1, self.capacity // 8)]
        for stats in victims:
            del self._stats[stats.key]
            self.evicted += 1

    def top(
        self,
        limit: int = 20,
        sort_by: str = "total_ms",
        offset: int = 0,
    ) -> List[Dict[str, object]]:
        """The top fingerprints by one sortable metric (see SORT_KEYS)."""
        if sort_by not in SORT_KEYS:
            raise ValueError(
                f"sort key must be one of {', '.join(SORT_KEYS)}; "
                f"got {sort_by!r}"
            )
        with self._lock:
            snapshots = [s.snapshot() for s in self._stats.values()]
        snapshots.sort(
            key=lambda s: (_sort_value(s, sort_by), s["key"]), reverse=True
        )
        offset = max(0, int(offset))
        limit = max(0, int(limit))
        return snapshots[offset : offset + limit]

    def get(self, key: str) -> Optional[Dict[str, object]]:
        with self._lock:
            stats = self._stats.get(key)
            return None if stats is None else stats.snapshot()

    def summary(self) -> Dict[str, object]:
        with self._lock:
            return {
                "fingerprints": len(self._stats),
                "capacity": self.capacity,
                "recorded": self.recorded,
                "evicted": self.evicted,
            }
