"""The observation plane: one object tying the three observers together.

The engine owns one :class:`ObservationPlane`; the session layer feeds
it one call per executed statement (after the statement's locks are
released) and the plane fans the observation out:

* the :class:`~.fingerprint.FingerprintRegistry` aggregates the
  statement under its literal-free fingerprint,
* the :class:`~.advisor.IndexAdvisor` receives predicate heat mined from
  the executed plan's scan nodes,
* the :class:`~.zonemap.ZoneMapStore` is shared with the parallel scan
  manager (which consults it inline during scans) and surfaces its
  pruning counters here.

Everything is observation-only at this layer — the single mutating path
(auto index DDL) happens inside ``advisor.maybe_tick``, outside any
statement lock scope and under the engine's exclusive lock.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..optimizer import plans
from .advisor import IndexAdvisor, predicate_kind
from .fingerprint import FingerprintRegistry, fingerprint_statement
from .zonemap import ZoneMapStore


def _statement_label(statement) -> str:
    name = type(statement).__name__
    if name.endswith("Statement"):
        name = name[: -len("Statement")]
    return name.upper()


class ObservationPlane:
    def __init__(
        self,
        zone_rows: int = 4096,
        advisor: Optional[IndexAdvisor] = None,
    ):
        self.fingerprints = FingerprintRegistry()
        self.zone_maps = ZoneMapStore(zone_rows=zone_rows)
        self.advisor = advisor if advisor is not None else IndexAdvisor()

    # ------------------------------------------------------------------
    # Statement intake
    # ------------------------------------------------------------------
    def record_statement(
        self,
        statement,
        result,
        latency: float,
        lock_wait: float = 0.0,
        error: bool = False,
    ) -> None:
        """Record one executed (or failed) statement. Called with no
        engine locks held; ``result`` is None when execution failed."""
        key, text = fingerprint_statement(statement)
        if error or result is None:
            self.fingerprints.record(
                key,
                text,
                _statement_label(statement),
                latency=latency,
                lock_wait=lock_wait,
                error=True,
            )
            return
        rows_out = result.row_count
        rows_in = 0
        staleness = None
        collections = 0
        plan_cache_hit = False
        report = result.jits_report
        if report is not None:
            plan_cache_hit = bool(getattr(report, "plan_cache_hit", False))
            decisions = getattr(report, "decisions", None) or {}
            scores = [d.s2 for d in decisions.values()]
            if scores:
                staleness = max(scores)
            collections = len(report.tables_collected)
        if result.plan is not None:
            rows_in = self._mine_plan(result.plan)
        self.fingerprints.record(
            key,
            text,
            result.statement_type or _statement_label(statement),
            latency=latency,
            lock_wait=lock_wait,
            rows_out=rows_out,
            rows_in=rows_in,
            staleness=staleness,
            plan_cache_hit=plan_cache_hit,
            reopt_switches=len(result.reopt_events or ()),
            collections=collections,
        )

    def _mine_plan(self, plan) -> int:
        """Predicate heat for the advisor + total base rows read."""
        rows_in = 0
        for node in plan.walk():
            if isinstance(node, plans.SeqScan):
                base = float(
                    node.actual_base_rows
                    if node.actual_base_rows is not None
                    else node.base_rows
                )
                matched = float(node.actual_rows or 0)
                rows_in += int(base)
                for pred in node.predicates:
                    kind = predicate_kind(pred.op)
                    if kind is not None:
                        self.advisor.note_scan(
                            node.table_name, pred.column, kind, base, matched
                        )
            elif isinstance(node, plans.IndexScan):
                base = float(
                    node.actual_base_rows
                    if node.actual_base_rows is not None
                    else node.base_rows
                )
                rows_in += int(node.actual_rows or 0)
                self.advisor.note_index_use(
                    node.table_name,
                    node.index_column,
                    node.index_kind,
                    base,
                )
            elif isinstance(node, plans.IndexNLJoin):
                self.advisor.note_index_use(
                    node.inner_table,
                    node.inner_index_column,
                    "hash",
                    float(node.actual_probes or 0),
                )
        return rows_in

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def maybe_tick(self, engine) -> None:
        self.advisor.maybe_tick(engine)

    def release_table(self, table_name: str) -> None:
        self.zone_maps.release(table_name)
        self.advisor.release_table(table_name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def fingerprint_top(
        self, limit: int = 20, sort_by: str = "total_ms", offset: int = 0
    ):
        return self.fingerprints.top(limit=limit, sort_by=sort_by, offset=offset)

    def snapshot(self) -> Dict[str, object]:
        return {
            "fingerprints": self.fingerprints.summary(),
            "zone_maps": self.zone_maps.stats(),
            "advisor": self.advisor.snapshot(),
        }
